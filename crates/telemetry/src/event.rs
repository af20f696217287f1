//! Structured pipeline events and span stages.

use std::fmt;

/// A pipeline stage whose latency is tracked in its own
/// [`crate::LatencyHistogram`]. The scheduler records the request stages,
/// the reconfiguration controller the decode stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Stage {
    /// Submit → processing start of a request.
    QueueWait,
    /// Finding (or making, via eviction/compaction) a free region.
    Placement,
    /// De-virtualizing a stream (cache misses only).
    Decode,
    /// Writing decoded frames into configuration memory.
    Write,
    /// A compaction pass blocking the request pipeline.
    CompactionPause,
    /// End-to-end processing of one load request.
    Load,
    /// Busy time of one controller decode (lane 0, the caller's thread).
    LaneBusy,
    /// Re-expanding a warm (compressed-only) cache entry through the
    /// controller's pooled decode. Also recorded under [`Stage::Decode`] so aggregate
    /// decode latency keeps covering every de-virtualization.
    Redecode,
}

impl Stage {
    /// Number of stages (the registry preallocates one histogram each).
    pub const COUNT: usize = 8;

    /// All stages, in display order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::QueueWait,
        Stage::Placement,
        Stage::Decode,
        Stage::Write,
        Stage::CompactionPause,
        Stage::Load,
        Stage::LaneBusy,
        Stage::Redecode,
    ];

    /// The stage's histogram slot.
    pub const fn index(self) -> usize {
        self as usize
    }

    /// A short stable name (snake_case, used as JSON keys).
    pub const fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::Placement => "placement",
            Stage::Decode => "decode",
            Stage::Write => "write",
            Stage::CompactionPause => "compaction_pause",
            Stage::Load => "load",
            Stage::LaneBusy => "lane_busy",
            Stage::Redecode => "redecode",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What happened at one point of the pipeline. Kinds carrying a duration
/// (`duration_micros > 0` spans like [`EventKind::DecodeEnd`]) export as
/// complete slices on the Perfetto timeline; the rest are instants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EventKind {
    /// A request entered a scheduler queue (`a` = job id).
    Enqueue,
    /// A load was admitted and configured (`a` = job, `b` = packed origin).
    Admit,
    /// A load was rejected (`a` = job).
    Reject,
    /// A resident was evicted on behalf of a load (`a` = victim job).
    Evict,
    /// A resident departed (`a` = job).
    Unload,
    /// A resident was relocated (`a` = job, `b` = packed destination).
    Relocate,
    /// A controller decode started (`a` = 0).
    DecodeStart,
    /// A controller decode finished (`a` = records decoded, duration
    /// attached).
    DecodeEnd,
    /// Decoded frames were written into configuration memory
    /// (`a` = job, `b` = frames, duration attached).
    FrameWrite,
    /// A compaction pass ran (`a` = moves, `b` = frames moved, duration
    /// attached).
    CompactPass,
    /// A capacity-rejected load was re-dispatched to another fabric
    /// (`a` = global job, `b` = target fabric).
    Migrate,
    /// The shard policy routed a load (`a` = global job, `b` = fabric).
    ShardDecision,
    /// A pool checkout was served by recycled state (`a` = 0 buffer,
    /// 1 scratch).
    CheckoutHit,
    /// A pool checkout had to create fresh state (`a` = 0 buffer,
    /// 1 scratch).
    CheckoutMiss,
    /// A fabric utilization sample (`a` = occupied per-mille, `b` =
    /// fragmentation per-mille).
    Utilization,
    /// The fault plane injected a fault (`a` = kind: 0 transient write,
    /// 1 persistent write, 2 corruption, 3 outage; `b` = payload).
    FaultInjected,
    /// A refused configuration write is being retried (`a` = job,
    /// `b` = attempt number).
    WriteRetry,
    /// A readback verify found a frame disagreeing with its recorded
    /// checksum (`a` = job, `b` = packed frame coordinate).
    CrcMismatch,
    /// A fabric was quarantined after going offline (`a` = fabric,
    /// `b` = residents evacuated).
    Quarantine,
    /// A quarantined fabric recovered and rejoined the fleet
    /// (`a` = fabric).
    Recover,
    /// A cache lookup hit the warm tier and re-decoded the compressed
    /// stream (`a` = job, `b` = compressed bytes, duration attached).
    WarmHit,
    /// Hot cache entries fell back to their compressed bytes under byte
    /// pressure (`a` = entries demoted by the insert, `b` = hot-tier
    /// bytes after).
    Demote,
    /// A warm entry earned a decoded arena back (`a` = 1, `b` = hot-tier
    /// bytes after).
    Promote,
}

impl EventKind {
    /// A short stable name (used in exports).
    pub const fn name(self) -> &'static str {
        match self {
            EventKind::Enqueue => "enqueue",
            EventKind::Admit => "admit",
            EventKind::Reject => "reject",
            EventKind::Evict => "evict",
            EventKind::Unload => "unload",
            EventKind::Relocate => "relocate",
            EventKind::DecodeStart => "decode_start",
            EventKind::DecodeEnd => "decode",
            EventKind::FrameWrite => "frame_write",
            EventKind::CompactPass => "compact_pass",
            EventKind::Migrate => "migrate",
            EventKind::ShardDecision => "shard_decision",
            EventKind::CheckoutHit => "checkout_hit",
            EventKind::CheckoutMiss => "checkout_miss",
            EventKind::Utilization => "utilization",
            EventKind::FaultInjected => "fault_injected",
            EventKind::WriteRetry => "write_retry",
            EventKind::CrcMismatch => "crc_mismatch",
            EventKind::Quarantine => "quarantine",
            EventKind::Recover => "recover",
            EventKind::WarmHit => "warm_hit",
            EventKind::Demote => "demote",
            EventKind::Promote => "promote",
        }
    }
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One timeline entry: fixed-size and `Copy`, so recording never allocates
/// and a bounded ring holds the most recent N without boxing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global sequence number (total recorded so far, including entries the
    /// ring has since overwritten).
    pub seq: u64,
    /// Timestamp in clock microseconds. For duration-carrying kinds this is
    /// the span **start** (`at_micros + duration_micros` = end).
    pub at_micros: u64,
    /// What happened.
    pub kind: EventKind,
    /// The fabric the event belongs to (dispatcher events use the fleet
    /// tag `u16::MAX`).
    pub fabric: u16,
    /// The decode lane (0 = the scheduler/writer thread itself).
    pub lane: u16,
    /// Kind-specific payload (see [`EventKind`]).
    pub a: u64,
    /// Kind-specific payload (see [`EventKind`]).
    pub b: u64,
    /// Span length in microseconds; 0 for instant events.
    pub duration_micros: u64,
}

/// The fabric tag of fleet-scope events (dispatcher decisions, shared-pool
/// checkouts): they belong to no single fabric and render as their own
/// process track in trace exports.
pub const FLEET_FABRIC: u16 = u16::MAX;
