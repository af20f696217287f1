//! The on-line reconfiguration scheduler.
//!
//! [`Scheduler`] layers a request queue, eviction, defragmentation and the
//! decode cache on top of the runtime [`TaskManager`]. It is the component
//! that turns the paper's fast-relocation primitive into a multi-tenant
//! resource manager: requests arrive with priorities and deadlines, victims
//! are evicted when the fabric is full, and resident tasks are compacted
//! toward the bottom-left corner to fight external fragmentation — every
//! compaction move is a run-time relocation of an unchanged Virtual
//! Bit-Stream.

use crate::cache::{CacheBudget, CacheLookup, CacheStats, DecodeCache};
use crate::evict::{EvictionPolicy, LruEviction, ResidentInfo};
use crate::pool::BitstreamPool;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use vbs_arch::{ArchSpec, Coord, Rect};
use vbs_bitstream::{BitstreamError, TaskBitstream};
use vbs_runtime::{RuntimeError, TaskHandle, TaskManager};
use vbs_telemetry::{CounterBank, EventKind, Stage, Telemetry};

/// [`CounterBank`] slot assignments backing the [`SchedMetrics`] view.
/// Counters are bumped exactly where (and in the order) the former struct
/// fields were, so golden-trace counter values are bit-identical.
mod slot {
    pub const LOADS_SUBMITTED: usize = 0;
    pub const LOADS_ACCEPTED: usize = 1;
    pub const LOADS_REJECTED: usize = 2;
    pub const DEADLINE_MISSED: usize = 3;
    pub const EVICTIONS: usize = 4;
    pub const RELOCATIONS: usize = 5;
    pub const COMPACTION_PASSES: usize = 6;
    pub const COMPACTION_FRAMES_MOVED: usize = 7;
    pub const COMPACTION_MICROS: usize = 8;
    pub const DECODE_MICROS: usize = 9;
    pub const DECODES: usize = 10;
    pub const FRAGMENTATION_SAMPLES: usize = 11;
    /// f64 slot (see [`vbs_telemetry::CounterBank::float_add`]).
    pub const FRAGMENTATION_SUM: usize = 12;
    /// f64 slot.
    pub const UTILIZATION_SUM: usize = 13;
    pub const WRITE_RETRIES: usize = 14;
    pub const WRITE_FAULTS: usize = 15;
    pub const CRC_MISMATCHES: usize = 16;
    pub const VERIFY_SCRUBS: usize = 17;
    pub const COMPACTION_TRUNCATED: usize = 18;
    pub const REDECODE_MICROS: usize = 19;
}

/// Packs an origin into one event payload word (`x` high, `y` low).
const fn pack_origin(origin: Coord) -> u64 {
    ((origin.x as u64) << 16) | origin.y as u64
}

/// A request submitted to the scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Load a task from the repository somewhere on the fabric.
    Load {
        /// Task name in the repository.
        task: String,
        /// Priority (higher wins the queue and resists eviction).
        priority: u8,
        /// Absolute tick after which the load is worthless.
        deadline: Option<u64>,
    },
    /// Unload a previously loaded job.
    Unload {
        /// The job to unload.
        job: u64,
    },
    /// Relocate a resident job to an explicit origin.
    Relocate {
        /// The job to move.
        job: u64,
        /// Destination origin (lower-left corner).
        to: Coord,
    },
}

/// Why a load request was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RejectReason {
    /// No task with this name exists in the repository.
    UnknownTask,
    /// No feasible region even after compaction and allowed evictions.
    NoCapacity,
    /// The request was processed after its deadline.
    DeadlineMissed,
    /// Fetch/decode/memory failure bubbled up from the runtime.
    Runtime(String),
}

/// What happened to one processed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The task was configured on the fabric.
    Loaded {
        /// The job id assigned at submission.
        job: u64,
        /// Runtime handle of the instance.
        handle: TaskHandle,
        /// Where it was placed.
        origin: Coord,
        /// Jobs evicted to make room, in eviction order.
        evicted: Vec<u64>,
        /// Whether the decoded stream came from the cache.
        cache_hit: bool,
    },
    /// The load was dropped.
    Rejected {
        /// The job id assigned at submission.
        job: u64,
        /// Why it was dropped.
        reason: RejectReason,
        /// Jobs evicted on behalf of this request before it still failed
        /// (empty for pre-placement rejections). Their fabric regions are
        /// already freed.
        evicted: Vec<u64>,
    },
    /// The job was unloaded.
    Unloaded {
        /// The job id.
        job: u64,
    },
    /// The job was not resident (already unloaded or evicted).
    NotResident {
        /// The job id.
        job: u64,
    },
    /// The job was moved to a new origin.
    Relocated {
        /// The job id.
        job: u64,
        /// The new origin.
        origin: Coord,
    },
}

/// A resident abandoned by [`Scheduler::evacuate`] when its fabric went
/// offline, carrying exactly what a re-placement load needs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvacuatedJob {
    /// The job id the resident was loaded under.
    pub job: u64,
    /// Task name in the repository.
    pub task: String,
    /// The priority it was originally loaded with.
    pub priority: u8,
}

/// Tunables of the scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerConfig {
    /// Maximum evictions attempted on behalf of one load request.
    pub eviction_limit: usize,
    /// Whether to run a defragmentation pass when placement fails.
    pub compaction: bool,
    /// Decoded streams kept in the cache (0 disables caching).
    pub cache_capacity: usize,
    /// Maximum retries of a transiently refused configuration write
    /// before the load is re-placed elsewhere (and, failing that,
    /// rejected). The retry budget is the bounded-backoff knob: retries
    /// are immediate in the simulation (the logical clock never advances
    /// mid-request), so bounding their count is what bounds the backoff.
    pub write_retry_limit: u32,
    /// Whether every accepted load is readback-verified against the
    /// per-frame checksum sidecar, with a corrupted frame scrubbed once
    /// (rewritten from the decoded image) before the load counts as
    /// placed. Off by default: fault-free goldens stay bit-identical.
    /// [`Scheduler::with_config`] switches the controller's checksum
    /// sidecar on when this is set, exactly as [`Scheduler::set_verify`]
    /// does.
    pub verify: bool,
    /// Maximum configuration frames a single [`Scheduler::compact`] pass
    /// may rewrite (`0` = unbounded). A pass that hits the budget stops
    /// executing its move plan and reports truncation in
    /// [`SchedMetrics::compaction_truncated`]; the next pass re-plans from
    /// the current layout and continues toward the same fixpoint, so a
    /// bounded budget spreads one long defragmentation pause over several
    /// short ones. The first move of a pass is always allowed, so
    /// compaction makes progress even when one task alone exceeds the
    /// budget.
    pub compaction_frame_budget: u64,
    /// Byte budgets of the two decode-cache tiers (hot decoded arenas /
    /// warm compressed bytes). The default — unbounded on both tiers —
    /// reproduces the classic count-capped LRU bit-identically: nothing is
    /// ever demoted and every counter matches. A finite budget caps the
    /// cache's resident bytes: entries over the hot budget fall back to
    /// their compressed VBS bytes and re-decode through the controller's
    /// pooled decode on their next hit (see [`CacheBudget`]).
    pub cache_budget: CacheBudget,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            eviction_limit: 2,
            compaction: true,
            cache_capacity: 16,
            write_retry_limit: 2,
            verify: false,
            compaction_frame_budget: 0,
            cache_budget: CacheBudget::UNBOUNDED,
        }
    }
}

/// Aggregate counters of one scheduler's lifetime — a point-in-time view
/// over the scheduler's telemetry counter bank (see [`Scheduler::metrics`]).
/// All timing fields are `u64` microseconds with saturating accumulation.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SchedMetrics {
    /// Load requests submitted.
    pub loads_submitted: u64,
    /// Load requests that ended configured on the fabric.
    pub loads_accepted: u64,
    /// Load requests dropped (any [`RejectReason`]).
    pub loads_rejected: u64,
    /// Loads dropped specifically for missing their deadline.
    pub deadline_missed: u64,
    /// Resident tasks evicted to make room.
    pub evictions: u64,
    /// Relocations performed (compaction moves + explicit requests).
    pub relocations: u64,
    /// Defragmentation passes that ran.
    pub compaction_passes: u64,
    /// Configuration frames rewritten by compaction moves (the pause-cost
    /// proxy: each moved frame is one word-arena row segment rewrite).
    pub compaction_frames_moved: u64,
    /// Wall-clock time spent inside [`Scheduler::compact`] (planning +
    /// executing moves), in microseconds — the pause-time metric.
    pub compaction_micros: u64,
    /// Total de-virtualization time spent, in microseconds.
    pub decode_micros: u64,
    /// Number of de-virtualizations performed (cache misses).
    pub decodes: u64,
    /// Number of fragmentation samples folded into `fragmentation_sum`.
    pub fragmentation_samples: u64,
    /// Sum of sampled fragmentation values (one per processed request).
    pub fragmentation_sum: f64,
    /// Sum of sampled fabric-utilization values (occupied / total area, one
    /// sample per processed request, sharing `fragmentation_samples`).
    pub utilization_sum: f64,
    /// Transiently refused configuration writes that were retried.
    pub write_retries: u64,
    /// Configuration-write faults observed (transient and persistent).
    pub write_faults: u64,
    /// Frames a readback verify caught disagreeing with their checksum.
    pub crc_mismatches: u64,
    /// Scrub rewrites performed after a verify mismatch.
    pub verify_scrubs: u64,
    /// Compaction passes cut short by
    /// [`SchedulerConfig::compaction_frame_budget`] (the remainder of the
    /// move plan deferred to a later pass).
    pub compaction_truncated: u64,
    /// Cache lookups served by the warm tier: the compressed bytes were
    /// resident and the stream re-decoded through the pooled decode. A
    /// subset of the decode-cache misses (warm hits still decode).
    pub warm_hits: u64,
    /// Time spent re-decoding warm cache entries, in microseconds (a
    /// subset of `decode_micros`).
    pub redecode_micros: u64,
    /// Hot→warm decode-cache demotions (decoded arena released under byte
    /// pressure, compressed bytes kept).
    pub cache_demotions: u64,
    /// Warm→hot decode-cache promotions (a re-decoded entry earned its
    /// arena back).
    pub cache_promotions: u64,
    /// Bytes currently resident in the decode cache, both tiers
    /// (point-in-time, not cumulative).
    pub cache_resident_bytes: u64,
}

impl SchedMetrics {
    /// Accepted / submitted loads, 1.0 when nothing was submitted.
    pub fn acceptance_rate(&self) -> f64 {
        if self.loads_submitted == 0 {
            return 1.0;
        }
        self.loads_accepted as f64 / self.loads_submitted as f64
    }

    /// Mean de-virtualization time per decode, in microseconds.
    pub fn mean_decode_micros(&self) -> f64 {
        if self.decodes == 0 {
            return 0.0;
        }
        self.decode_micros as f64 / self.decodes as f64
    }

    /// Mean sampled fragmentation over the run.
    pub fn mean_fragmentation(&self) -> f64 {
        if self.fragmentation_samples == 0 {
            return 0.0;
        }
        self.fragmentation_sum / self.fragmentation_samples as f64
    }

    /// Mean sampled fabric utilization (occupied share of the device) over
    /// the run.
    pub fn mean_utilization(&self) -> f64 {
        if self.fragmentation_samples == 0 {
            return 0.0;
        }
        self.utilization_sum / self.fragmentation_samples as f64
    }

    /// Mean compaction pause, in microseconds per pass.
    pub fn mean_compaction_micros(&self) -> f64 {
        if self.compaction_passes == 0 {
            return 0.0;
        }
        self.compaction_micros as f64 / self.compaction_passes as f64
    }
}

#[derive(Debug)]
struct Resident {
    handle: TaskHandle,
    name: String,
    priority: u8,
    loaded_at: u64,
    last_used: u64,
}

#[derive(Debug)]
struct Pending {
    job: u64,
    seq: u64,
    request: Request,
    /// Telemetry-clock timestamp of submission (queue-wait span start).
    enqueued_at: u64,
}

/// The on-line reconfiguration scheduler (see the module docs).
#[derive(Debug)]
pub struct Scheduler {
    manager: TaskManager,
    eviction: Box<dyn EvictionPolicy>,
    cache: DecodeCache,
    config: SchedulerConfig,
    queue: Vec<Pending>,
    residents: BTreeMap<u64, Resident>,
    clock: u64,
    next_job: u64,
    next_seq: u64,
    /// This scheduler's private counter slots — the data behind the
    /// [`SchedMetrics`] view. Separate from the (possibly fleet-shared)
    /// telemetry registry so per-fabric counters never merge.
    counters: CounterBank,
    /// Span/event registry: stage latencies and the pipeline timeline.
    /// Disabled (recording no-ops) until one is installed.
    telemetry: Telemetry,
    /// Fabric tag stamped on this scheduler's events.
    fabric: u16,
    /// Recycled decoded-image buffers: cache evictions return here, decodes
    /// check out of here. Shared fleet-wide in multi-fabric deployments.
    pool: BitstreamPool,
    /// A budget-truncated compaction pass left moves unexecuted; the next
    /// idle tick ([`Scheduler::advance_to`] with an empty queue) resumes
    /// the plan instead of burning passes back-to-back.
    deferred_compaction: bool,
}

impl Scheduler {
    /// Creates a scheduler over a task manager with LRU eviction and the
    /// default configuration. The placement policy is whatever `manager`
    /// was built with.
    pub fn new(manager: TaskManager) -> Self {
        Scheduler::with_config(manager, Box::new(LruEviction), SchedulerConfig::default())
    }

    /// Creates a scheduler with an explicit eviction policy and config.
    /// With [`SchedulerConfig::verify`] set, the controller's per-frame
    /// checksum sidecar is switched on here.
    pub fn with_config(
        mut manager: TaskManager,
        eviction: Box<dyn EvictionPolicy>,
        config: SchedulerConfig,
    ) -> Self {
        if config.verify {
            manager.controller_mut().enable_integrity();
        }
        let cache = DecodeCache::with_budget(config.cache_capacity, config.cache_budget);
        // Share the controller's scratch pool: images the cache evicts feed
        // the controller's decodes and vice versa.
        let pool = manager.controller().scratch_pool().clone();
        Scheduler {
            manager,
            eviction,
            cache,
            config,
            queue: Vec::new(),
            residents: BTreeMap::new(),
            clock: 0,
            next_job: 1,
            next_seq: 0,
            counters: CounterBank::new(),
            telemetry: Telemetry::disabled(),
            fabric: 0,
            pool,
            deferred_compaction: false,
        }
    }

    /// Installs the observability registry stage latencies and pipeline
    /// events are recorded into, tagging this scheduler's events with
    /// `fabric`. The registry reaches the controller's decode too (through
    /// its scratch pool), so decode busy spans, checkout hit/miss events
    /// and [`SchedMetrics`] timing all run on one shared clock.
    /// Counters keep accumulating in the scheduler's private bank either
    /// way — installing telemetry never changes golden-trace counters.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, fabric: u16) {
        self.manager
            .controller_mut()
            .set_telemetry(telemetry.clone(), fabric);
        self.telemetry = telemetry;
        self.fabric = fabric;
    }

    /// The scheduler's span/event registry (a shared handle; disabled until
    /// [`Scheduler::set_telemetry`] installs one).
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// The scheduler's recycled-buffer pool (a shared handle).
    pub fn bitstream_pool(&self) -> BitstreamPool {
        self.pool.clone()
    }

    /// Replaces the recycled decode-state pool — multi-fabric dispatchers
    /// install one shared pool so evictions on any fabric feed decodes
    /// everywhere. The pool is also installed on this fabric's controller,
    /// so its decodes draw from the same free-list.
    pub fn set_pool(&mut self, pool: BitstreamPool) {
        self.manager.set_scratch_pool(pool.clone());
        self.pool = pool;
    }

    /// Installs a fault model on this fabric's controller (see
    /// [`vbs_runtime::FaultHook`]); `None` restores the fault-free fabric.
    pub fn set_fault_hook(&mut self, hook: Option<Arc<dyn vbs_runtime::FaultHook>>) {
        self.manager.controller_mut().set_fault_hook(hook);
    }

    /// Whether the fabric's fault model currently reports it offline.
    pub fn is_offline(&self) -> bool {
        self.manager.controller().is_offline()
    }

    /// Switches readback verification of accepted loads on or off (see
    /// [`SchedulerConfig::verify`]). Enabling it switches on the
    /// controller's per-frame checksum sidecar.
    pub fn set_verify(&mut self, verify: bool) {
        self.config.verify = verify;
        if verify {
            self.manager.controller_mut().enable_integrity();
        }
    }

    /// Abandons every resident without touching the hardware — the
    /// quarantine path when this fabric has gone offline: its residents
    /// can no longer be cleared (the device is unreachable), so the
    /// bookkeeping is emptied and the abandoned jobs returned, oldest
    /// first, for re-placement on surviving fabrics.
    pub fn evacuate(&mut self) -> Vec<EvacuatedJob> {
        let abandoned = self.manager.evacuate();
        abandoned
            .iter()
            .filter_map(|t| {
                let job = self
                    .residents
                    .iter()
                    .find(|(_, r)| r.handle == t.handle)
                    .map(|(&job, _)| job)?;
                let resident = self.residents.remove(&job)?;
                Some(EvacuatedJob {
                    job,
                    task: resident.name,
                    priority: resident.priority,
                })
            })
            .collect()
    }

    /// Brings a recovered fabric back to a trusted blank state: drops any
    /// leftover resident bookkeeping and wipes the configuration memory
    /// (and checksum sidecar).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::FabricOffline`] while the fabric is still
    /// unreachable.
    pub fn reset_after_recovery(&mut self) -> Result<(), RuntimeError> {
        self.residents.clear();
        let _ = self.manager.evacuate();
        self.manager.controller_mut().reset_memory()
    }

    /// Read access to the underlying task manager (fabric + repository).
    pub fn manager(&self) -> &TaskManager {
        &self.manager
    }

    /// Mutable access to the task repository, to register tasks at run
    /// time. Deliberately *not* the whole `TaskManager`: loading, unloading
    /// and relocating behind the scheduler's back would desynchronize its
    /// resident table. When a *different* stream is re-registered under an
    /// existing name, call [`Scheduler::invalidate_cached`] afterwards or
    /// later loads may serve the stale decoded image.
    pub fn repository_mut(&mut self) -> &mut vbs_runtime::VbsRepository {
        self.manager.repository_mut()
    }

    /// Drops the cached decoded stream(s) of `name` — required after the
    /// repository replaces the task's VBS under the same name.
    pub fn invalidate_cached(&mut self, name: &str) {
        self.cache.invalidate(name);
    }

    /// Whether this scheduler already holds decode state for task `name`
    /// (decode cache — hot *or* warm tier, any spec). Cache-affinity shard
    /// routing keys on this; a warm entry still makes this fabric the cheap
    /// place to route the task (a pooled re-decode beats a cold miss).
    /// Counters are not touched.
    pub fn holds_decoded(&self, name: &str) -> bool {
        self.cache.retains_name(name)
    }

    /// Number of requests of any kind currently queued.
    pub fn queued_len(&self) -> usize {
        self.queue.len()
    }

    /// Number of load requests currently queued (not yet processed).
    pub fn queued_loads(&self) -> usize {
        self.queue
            .iter()
            .filter(|p| matches!(p.request, Request::Load { .. }))
            .count()
    }

    /// Marks a resident job as used "now" for LRU-eviction purposes.
    /// Loads and explicit relocations touch implicitly; call this when the
    /// running task does observable work between scheduler requests.
    pub fn touch(&mut self, job: u64) {
        let now = self.clock;
        if let Some(resident) = self.residents.get_mut(&job) {
            resident.last_used = now;
        }
    }

    /// The scheduler's logical clock (advanced by [`Scheduler::advance_to`]).
    pub const fn now(&self) -> u64 {
        self.clock
    }

    /// Aggregate counters so far — a snapshot view over the scheduler's
    /// telemetry counter bank.
    pub fn metrics(&self) -> SchedMetrics {
        let cache = self.cache.stats();
        SchedMetrics {
            loads_submitted: self.counters.get(slot::LOADS_SUBMITTED),
            loads_accepted: self.counters.get(slot::LOADS_ACCEPTED),
            loads_rejected: self.counters.get(slot::LOADS_REJECTED),
            deadline_missed: self.counters.get(slot::DEADLINE_MISSED),
            evictions: self.counters.get(slot::EVICTIONS),
            relocations: self.counters.get(slot::RELOCATIONS),
            compaction_passes: self.counters.get(slot::COMPACTION_PASSES),
            compaction_frames_moved: self.counters.get(slot::COMPACTION_FRAMES_MOVED),
            compaction_micros: self.counters.get(slot::COMPACTION_MICROS),
            decode_micros: self.counters.get(slot::DECODE_MICROS),
            decodes: self.counters.get(slot::DECODES),
            fragmentation_samples: self.counters.get(slot::FRAGMENTATION_SAMPLES),
            fragmentation_sum: self.counters.float_total(slot::FRAGMENTATION_SUM),
            utilization_sum: self.counters.float_total(slot::UTILIZATION_SUM),
            write_retries: self.counters.get(slot::WRITE_RETRIES),
            write_faults: self.counters.get(slot::WRITE_FAULTS),
            crc_mismatches: self.counters.get(slot::CRC_MISMATCHES),
            verify_scrubs: self.counters.get(slot::VERIFY_SCRUBS),
            compaction_truncated: self.counters.get(slot::COMPACTION_TRUNCATED),
            warm_hits: cache.warm_hits,
            redecode_micros: self.counters.get(slot::REDECODE_MICROS),
            cache_demotions: cache.demotions,
            cache_promotions: cache.promotions,
            cache_resident_bytes: cache.resident_bytes(),
        }
    }

    /// Decode-cache counters so far.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Jobs currently resident, with the metadata the eviction policies see.
    pub fn residents(&self) -> Vec<ResidentInfo> {
        self.residents
            .iter()
            .filter_map(|(&job, r)| {
                self.manager
                    .loaded_tasks()
                    .iter()
                    .find(|t| t.handle == r.handle)
                    .map(|t| ResidentInfo {
                        job,
                        name: r.name.clone(),
                        region: t.region,
                        priority: r.priority,
                        loaded_at: r.loaded_at,
                        last_used: r.last_used,
                    })
            })
            .collect()
    }

    /// Advances the logical clock (monotonic; earlier ticks are ignored).
    ///
    /// An idle tick — the clock actually advances and no requests are
    /// queued — resumes a budget-truncated compaction plan with one more
    /// bounded pass, so a long defragmentation spreads over the gaps
    /// between request bursts instead of burning its passes back-to-back
    /// inside one placement. With an unbounded
    /// [`SchedulerConfig::compaction_frame_budget`] passes never truncate
    /// and idle ticks never compact, so default-config behavior (and every
    /// golden trace) is unchanged.
    pub fn advance_to(&mut self, tick: u64) {
        let advanced = tick > self.clock;
        self.clock = self.clock.max(tick);
        // Time-keyed fault models (outage windows) follow the same clock.
        self.manager.controller().advance_clock(self.clock);
        if advanced && self.deferred_compaction && self.queue.is_empty() {
            // One bounded pass per idle tick; compact() re-arms the flag
            // if the budget truncates the plan again.
            self.deferred_compaction = false;
            self.compact();
        }
    }

    /// Enqueues a request and returns its job id (for loads, the id the
    /// eventual [`Outcome`] refers to; for unloads/relocates, a fresh id
    /// naming the request itself).
    pub fn submit(&mut self, request: Request) -> u64 {
        let job = self.next_job;
        self.next_job += 1;
        if matches!(request, Request::Load { .. }) {
            self.counters.add(slot::LOADS_SUBMITTED, 1);
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        let enqueued_at = self.telemetry.now();
        self.telemetry
            .event(EventKind::Enqueue, self.fabric, 0, job, 0);
        self.queue.push(Pending {
            job,
            seq,
            request,
            enqueued_at,
        });
        job
    }

    /// Processes every queued request in priority order (unloads first so
    /// departures free space before arrivals claim it, then loads by
    /// descending priority, FIFO within a class) and returns the outcomes.
    pub fn process_pending(&mut self) -> Vec<Outcome> {
        self.process_pending_tagged()
            .into_iter()
            .map(|(_, outcome)| outcome)
            .collect()
    }

    /// As [`Scheduler::process_pending`], but each outcome is tagged with
    /// the id [`Scheduler::submit`] returned for the request that produced
    /// it (an unload's *outcome* names the job it targeted, which is not
    /// the request's own id).
    pub fn process_pending_tagged(&mut self) -> Vec<(u64, Outcome)> {
        let mut pending = std::mem::take(&mut self.queue);
        pending.sort_by_key(|p| {
            (
                class_rank(&p.request),
                std::cmp::Reverse(priority_of(&p.request)),
                p.seq,
            )
        });
        pending
            .into_iter()
            .map(|p| {
                let outcome = self.process_one(p.job, p.request, p.enqueued_at);
                self.sample_fragmentation();
                (p.job, outcome)
            })
            .collect()
    }

    /// Submits one request and processes the whole queue immediately —
    /// convenience for direct (non-batched) callers. Returns the outcome of
    /// *this* request (matched by request id, so previously queued requests
    /// targeting the same job cannot be confused with it).
    pub fn execute(&mut self, request: Request) -> Outcome {
        let job = self.submit(request);
        self.process_pending_tagged()
            .into_iter()
            .find(|(id, _)| *id == job)
            .map(|(_, outcome)| outcome)
            .expect("the submitted request is always processed")
    }

    /// Runs a defragmentation pass as one **batch-planned** move schedule:
    /// the greedy bottom-left sweeps are *simulated* on the occupancy
    /// rectangles until they reach a fixpoint, then every resident whose
    /// final position improved is moved **once**, directly from its current
    /// region to its final one. Compared to executing the sweeps directly,
    /// this rewrites the minimum number of configuration frames (no task is
    /// shuttled through intermediate positions) while converging to the
    /// same packed layout. Every move is a decode-free bulk word-arena
    /// relocation; the pass records its pause cost (frames moved + wall
    /// microseconds) in [`SchedMetrics`]. Returns the number of
    /// relocations.
    ///
    /// With a nonzero [`SchedulerConfig::compaction_frame_budget`] the pass
    /// stops executing its plan once the budget is spent (after at least
    /// one move); the deferred moves are re-planned by the next pass from
    /// wherever the layout stands, so repeated bounded passes converge to
    /// the same fixpoint as one unbounded pass, in several short pauses
    /// instead of one long one.
    pub fn compact(&mut self) -> usize {
        let pause_start = self.telemetry.now();
        self.counters.add(slot::COMPACTION_PASSES, 1);
        let view = self.manager.fabric_view();

        // Phase 1 — plan: replay the greedy sweeps on rectangles only.
        // `sim` holds (job, current simulated region); each sweep offers
        // every task the best strictly-better origin with all other tasks
        // at their *simulated* positions, exactly as live sweeps would see
        // them, until no task improves (bounded like the old executor).
        let mut sim: Vec<(u64, Rect)> = {
            let mut residents = self.residents();
            residents.sort_by_key(|r| (r.region.origin.y, r.region.origin.x));
            residents.into_iter().map(|r| (r.job, r.region)).collect()
        };
        let original: HashMap<u64, Rect> = sim.iter().copied().collect();
        for _ in 0..4 {
            let mut moved = false;
            sim.sort_by_key(|(_, region)| (region.origin.y, region.origin.x));
            for i in 0..sim.len() {
                let (width, height) = (sim[i].1.width, sim[i].1.height);
                let others: Vec<Rect> = sim
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, &(_, region))| region)
                    .collect();
                let masked = vbs_runtime::FabricView::new(view.width(), view.height(), others);
                if let Some(candidate) = self.manager.policy().place(width, height, &masked) {
                    let current = sim[i].1.origin;
                    if (candidate.y, candidate.x) < (current.y, current.x) {
                        sim[i].1 = Rect::new(candidate, width, height);
                        moved = true;
                    }
                }
            }
            if !moved {
                break;
            }
        }

        // Phase 2 — execute: one net move per improved task, in bottom-left
        // order of the *target*; a move whose destination is still occupied
        // by a not-yet-moved task is retried after the blocker vacates. A
        // round without progress (a blocking cycle — impossible for pure
        // swaps under the strict bottom-left ordering, pathological
        // otherwise) abandons the remainder; the fabric stays consistent.
        let mut plan: Vec<(u64, Rect)> = sim
            .into_iter()
            .filter(|(job, region)| original.get(job) != Some(region))
            .collect();
        plan.sort_by_key(|(_, region)| (region.origin.y, region.origin.x));
        let budget = self.config.compaction_frame_budget;
        let mut moves = 0usize;
        let mut frames = 0u64;
        let mut truncated = false;
        while !plan.is_empty() {
            let before = moves;
            plan.retain(|&(job, region)| {
                // Over-budget moves stay planned but unexecuted: the next
                // pass re-plans them from the layout this one leaves
                // behind. The first move always runs, so a task bigger
                // than the whole budget cannot wedge compaction.
                if budget != 0 && moves > 0 && frames + region.area() as u64 > budget {
                    truncated = true;
                    return true;
                }
                match self.relocate_resident(job, region.origin) {
                    Ok(()) => {
                        moves += 1;
                        frames += region.area() as u64;
                        false
                    }
                    Err(_blocked) => true,
                }
            });
            if moves == before {
                break;
            }
        }
        self.counters.add(slot::RELOCATIONS, moves as u64);
        self.counters.add(slot::COMPACTION_FRAMES_MOVED, frames);
        if truncated {
            self.counters.add(slot::COMPACTION_TRUNCATED, 1);
        }
        // A truncated plan waits for the next idle tick (see advance_to);
        // a completed pass disarms any pending resumption.
        self.deferred_compaction = truncated;
        // The pause span doubles as the counter source, so the histogram
        // and the golden-counter total always agree.
        let pause = self
            .telemetry
            .record_span(Stage::CompactionPause, pause_start);
        self.counters.add(slot::COMPACTION_MICROS, pause);
        self.telemetry.event_span(
            EventKind::CompactPass,
            self.fabric,
            0,
            moves as u64,
            frames,
            pause_start,
        );
        moves
    }

    /// Relocates a resident **decode-free**: the task's frames already sit
    /// decoded in the configuration memory, so the move is one bulk
    /// word-arena copy ([`TaskManager::relocate`]) — no repository fetch,
    /// no cache lookup, no de-virtualization. This is the paper's model of
    /// relocation as a pure copy; the decode counters and cache statistics
    /// are untouched, which the relocation differential suite pins down.
    fn relocate_resident(&mut self, job: u64, to: Coord) -> Result<(), RuntimeError> {
        let handle = self
            .residents
            .get(&job)
            .ok_or(RuntimeError::UnknownHandle { id: job })?
            .handle;
        self.manager.relocate(handle, to)?;
        self.telemetry
            .event(EventKind::Relocate, self.fabric, 0, job, pack_origin(to));
        Ok(())
    }

    /// Fetches the decoded stream of `name` through the cache (counting the
    /// hot hit, the warm hit + pooled re-decode, or the miss + decode).
    /// Returns the stream and whether it was a (hot) cache hit.
    ///
    /// A warm hit accounts exactly like a miss in the classic counters
    /// (miss + decode + decode micros) — that invariance is what keeps
    /// every golden trace bit-identical under any budget — and
    /// *additionally* bumps the warm-hit counters. It still fetches from
    /// the repository first: the repository owns the authoritative bytes,
    /// so a stream corrupted there surfaces as the same decode error a
    /// cold miss would report instead of being masked by stale cache state.
    fn decoded(
        &mut self,
        job: u64,
        name: &str,
    ) -> Result<(Arc<TaskBitstream>, bool), RuntimeError> {
        let vbs = self.manager.repository().fetch(name)?;
        let warm = match self.cache.get(name, vbs.spec()) {
            CacheLookup::Hot(cached) => return Ok((cached, true)),
            CacheLookup::Warm => true,
            CacheLookup::Miss => false,
        };
        let redecode_start = self.telemetry.now();
        let mut staging = self
            .pool
            .checkout(*vbs.spec(), vbs.width().max(1), vbs.height().max(1));
        let report = match self.manager.controller().decode_into(&vbs, &mut staging) {
            Ok(report) => report,
            Err(e) => {
                self.pool.put(staging);
                return Err(e);
            }
        };
        self.counters.add(slot::DECODES, 1);
        self.counters.add(slot::DECODE_MICROS, report.micros);
        self.telemetry.record_micros(Stage::Decode, report.micros);
        if warm {
            self.counters.add(slot::REDECODE_MICROS, report.micros);
            self.telemetry.record_micros(Stage::Redecode, report.micros);
            self.telemetry.event_span(
                EventKind::WarmHit,
                self.fabric,
                0,
                job,
                vbs.size_bytes(),
                redecode_start,
            );
        }
        let task = Arc::new(staging);
        self.cache_insert(name, *vbs.spec(), Arc::clone(&task), report.micros);
        Ok((task, false))
    }

    /// Inserts a freshly decoded stream into the tiered cache with the
    /// metadata its cost model runs on (compressed bytes + measured decode
    /// micros), recycles every displaced arena into the shared pool, and
    /// records tier-transition events. Under an unbounded budget nothing
    /// is ever demoted, so the compressed copy is skipped entirely and the
    /// behavior is byte-for-byte the classic LRU insert.
    fn cache_insert(&mut self, name: &str, spec: ArchSpec, task: Arc<TaskBitstream>, micros: u64) {
        let compressed = if self.cache.budget().is_unbounded() {
            Vec::new()
        } else {
            self.manager
                .repository()
                .bytes(name)
                .map(<[u8]>::to_vec)
                .unwrap_or_default()
        };
        let outcome = self.cache.insert(name, spec, task, compressed, micros);
        for displaced in outcome.displaced {
            self.pool.recycle(displaced);
        }
        if outcome.demoted > 0 {
            let stats = self.cache.stats();
            self.telemetry.event(
                EventKind::Demote,
                self.fabric,
                0,
                outcome.demoted,
                stats.hot_bytes,
            );
        }
        if outcome.promoted {
            let stats = self.cache.stats();
            self.telemetry
                .event(EventKind::Promote, self.fabric, 0, 1, stats.hot_bytes);
        }
    }

    fn process_one(&mut self, job: u64, request: Request, enqueued_at: u64) -> Outcome {
        match request {
            Request::Load {
                task,
                priority,
                deadline,
            } => self.process_load(job, &task, priority, deadline, enqueued_at),
            Request::Unload { job: target } => match self.residents.remove(&target) {
                Some(resident) => {
                    // The manager drops the resident from its bookkeeping
                    // before clearing the hardware, so even when the clear
                    // is refused (offline fabric, write fault) the job is
                    // gone — report it unloaded; the stale frames are
                    // overwritten by whichever load lands there next.
                    if let Err(e) = self.manager.unload(resident.handle) {
                        debug_assert!(
                            !matches!(e, RuntimeError::UnknownHandle { .. }),
                            "resident handles are always valid"
                        );
                    }
                    self.telemetry
                        .event(EventKind::Unload, self.fabric, 0, target, 0);
                    Outcome::Unloaded { job: target }
                }
                None => Outcome::NotResident { job: target },
            },
            Request::Relocate { job: target, to } => match self.relocate_resident(target, to) {
                Ok(()) => {
                    self.counters.add(slot::RELOCATIONS, 1);
                    // An explicit relocation is a use of the task.
                    self.touch(target);
                    Outcome::Relocated {
                        job: target,
                        origin: to,
                    }
                }
                Err(RuntimeError::UnknownHandle { .. }) => Outcome::NotResident { job: target },
                Err(e) => Outcome::Rejected {
                    job: target,
                    reason: RejectReason::Runtime(e.to_string()),
                    evicted: Vec::new(),
                },
            },
        }
    }

    /// Wraps the load pipeline with its observability: queue-wait span,
    /// end-to-end load span, and the Admit/Reject timeline event.
    fn process_load(
        &mut self,
        job: u64,
        task: &str,
        priority: u8,
        deadline: Option<u64>,
        enqueued_at: u64,
    ) -> Outcome {
        self.telemetry.record_span(Stage::QueueWait, enqueued_at);
        let start = self.telemetry.now();
        let outcome = self.process_load_inner(job, task, priority, deadline);
        self.telemetry.record_span(Stage::Load, start);
        match &outcome {
            Outcome::Loaded { origin, .. } => self.telemetry.event_span(
                EventKind::Admit,
                self.fabric,
                0,
                job,
                pack_origin(*origin),
                start,
            ),
            Outcome::Rejected { .. } => {
                self.telemetry
                    .event_span(EventKind::Reject, self.fabric, 0, job, 0, start)
            }
            _ => {}
        }
        outcome
    }

    fn process_load_inner(
        &mut self,
        job: u64,
        task: &str,
        priority: u8,
        deadline: Option<u64>,
    ) -> Outcome {
        if deadline.is_some_and(|d| self.clock > d) {
            self.counters.add(slot::LOADS_REJECTED, 1);
            self.counters.add(slot::DEADLINE_MISSED, 1);
            return Outcome::Rejected {
                job,
                reason: RejectReason::DeadlineMissed,
                evicted: Vec::new(),
            };
        }
        let decoded = match self.decoded(job, task) {
            Ok(d) => d,
            Err(RuntimeError::UnknownTask { .. }) => {
                self.counters.add(slot::LOADS_REJECTED, 1);
                return Outcome::Rejected {
                    job,
                    reason: RejectReason::UnknownTask,
                    evicted: Vec::new(),
                };
            }
            Err(e) => {
                self.counters.add(slot::LOADS_REJECTED, 1);
                return Outcome::Rejected {
                    job,
                    reason: RejectReason::Runtime(e.to_string()),
                    evicted: Vec::new(),
                };
            }
        };
        let (stream, cache_hit) = decoded;
        let (w, h) = (stream.width(), stream.height());

        // A task larger than the device can never fit — reject before
        // evicting anyone on its behalf.
        let device = self.manager.controller().device();
        if w > device.width() || h > device.height() {
            self.counters.add(slot::LOADS_REJECTED, 1);
            return Outcome::Rejected {
                job,
                reason: RejectReason::NoCapacity,
                evicted: Vec::new(),
            };
        }

        // Placement span: finding (or making, via compaction/eviction) a
        // free region. Compaction-pause spans nest inside it.
        let placement_start = self.telemetry.now();
        let mut evicted = Vec::new();
        // Once a budgeted pass truncates, this request stops re-compacting:
        // the rest of the plan belongs to idle ticks (see advance_to), not
        // to back-to-back passes inside one placement. Unbudgeted passes
        // never truncate, so the classic retry-after-eviction loop is
        // unchanged.
        let mut compaction_exhausted = false;
        let origin = loop {
            if let Some(origin) = self.manager.find_free_region(w, h) {
                break Some(origin);
            }
            if self.config.compaction && !compaction_exhausted {
                let moved = self.compact();
                compaction_exhausted = self.deferred_compaction;
                if moved > 0 {
                    if let Some(origin) = self.manager.find_free_region(w, h) {
                        break Some(origin);
                    }
                }
            }
            if evicted.len() >= self.config.eviction_limit {
                break None;
            }
            let candidates = self.eviction.victims(&self.residents(), priority);
            let Some(&victim) = candidates.first() else {
                break None;
            };
            let resident = self
                .residents
                .remove(&victim)
                .expect("eviction candidates are resident");
            // As with explicit unloads: the bookkeeping entry is gone even
            // when the fabric refuses the clear, so the eviction stands.
            let _ = self.manager.unload(resident.handle);
            self.counters.add(slot::EVICTIONS, 1);
            self.telemetry
                .event(EventKind::Evict, self.fabric, 0, victim, job);
            evicted.push(victim);
        };
        self.telemetry
            .record_span(Stage::Placement, placement_start);

        let Some(origin) = origin else {
            self.counters.add(slot::LOADS_REJECTED, 1);
            return Outcome::Rejected {
                job,
                reason: RejectReason::NoCapacity,
                evicted,
            };
        };
        let write_start = self.telemetry.now();
        let written = match self.write_with_retry(job, task, &stream, origin) {
            Ok(handle) => Ok((handle, origin)),
            Err(e)
                if matches!(
                    e,
                    RuntimeError::WriteFault { .. }
                        | RuntimeError::Memory(BitstreamError::CrcMismatch { .. })
                ) =>
            {
                // Self-healing re-placement: this region looks bad (a dead
                // column, transients that never dissolve, unverifiable
                // frames), so offer the load one alternative region with
                // the failed rectangle masked busy.
                match self.replacement_origin(w, h, origin) {
                    Some(alt) => self
                        .write_with_retry(job, task, &stream, alt)
                        .map(|handle| (handle, alt)),
                    None => Err(e),
                }
            }
            Err(e) => Err(e),
        };
        match written {
            Ok((handle, origin)) => {
                self.telemetry.record_span(Stage::Write, write_start);
                self.telemetry.event_span(
                    EventKind::FrameWrite,
                    self.fabric,
                    0,
                    job,
                    w as u64 * h as u64,
                    write_start,
                );
                self.residents.insert(
                    job,
                    Resident {
                        handle,
                        name: task.to_string(),
                        priority,
                        loaded_at: self.clock,
                        last_used: self.clock,
                    },
                );
                self.counters.add(slot::LOADS_ACCEPTED, 1);
                Outcome::Loaded {
                    job,
                    handle,
                    origin,
                    evicted,
                    cache_hit,
                }
            }
            Err(e) => {
                self.counters.add(slot::LOADS_REJECTED, 1);
                Outcome::Rejected {
                    job,
                    reason: RejectReason::Runtime(e.to_string()),
                    evicted,
                }
            }
        }
    }

    /// One load's gated write with the self-healing retry loop: a
    /// transiently refused write is retried up to
    /// [`SchedulerConfig::write_retry_limit`] times, and (with verify on)
    /// an accepted write must pass readback verification — a mismatching
    /// frame is scrubbed and re-verified by
    /// [`Scheduler::verify_and_scrub`]; an unverifiable write is torn
    /// down and spends a retry like a refused one. Persistent refusals
    /// fail immediately: by definition retrying the same region cannot
    /// help (re-placement happens in the caller).
    fn write_with_retry(
        &mut self,
        job: u64,
        name: &str,
        stream: &TaskBitstream,
        origin: Coord,
    ) -> Result<TaskHandle, RuntimeError> {
        let mut attempts = 0u32;
        loop {
            let error = match self.manager.load_decoded_at(name, stream, origin) {
                Ok(handle) => {
                    if !self.config.verify {
                        return Ok(handle);
                    }
                    match self.verify_and_scrub(job, stream, origin) {
                        Ok(()) => return Ok(handle),
                        Err(e) => {
                            // Unverifiable even after the scrub: tear the
                            // instance down (at least the bookkeeping — an
                            // offline fabric cannot clear) and retry.
                            let _ = self.manager.unload(handle);
                            e
                        }
                    }
                }
                Err(e @ RuntimeError::WriteFault { .. }) => {
                    self.counters.add(slot::WRITE_FAULTS, 1);
                    if !matches!(
                        e,
                        RuntimeError::WriteFault {
                            transient: true,
                            ..
                        }
                    ) {
                        return Err(e);
                    }
                    e
                }
                Err(e) => return Err(e),
            };
            if attempts >= self.config.write_retry_limit {
                return Err(error);
            }
            attempts += 1;
            self.counters.add(slot::WRITE_RETRIES, 1);
            self.telemetry
                .event(EventKind::WriteRetry, self.fabric, 0, job, attempts as u64);
        }
    }

    /// Readback-verifies a just-written load and scrubs one mismatch: the
    /// corrupted region is rewritten from the decoded image in hand (a
    /// write gated by the fault model like any other) and verified again.
    fn verify_and_scrub(
        &mut self,
        job: u64,
        stream: &TaskBitstream,
        origin: Coord,
    ) -> Result<(), RuntimeError> {
        let region = Rect::new(origin, stream.width(), stream.height());
        match self.manager.controller().verify_region(region) {
            Ok(()) => Ok(()),
            Err(RuntimeError::Memory(BitstreamError::CrcMismatch { at })) => {
                self.counters.add(slot::CRC_MISMATCHES, 1);
                self.telemetry
                    .event(EventKind::CrcMismatch, self.fabric, 0, job, pack_origin(at));
                self.counters.add(slot::VERIFY_SCRUBS, 1);
                self.manager.controller_mut().load_decoded(stream, origin)?;
                self.manager.controller().verify_region(region)
            }
            Err(e) => Err(e),
        }
    }

    /// One alternative origin for a load whose target region refused or
    /// corrupted its writes: the placement policy runs again with the
    /// failed rectangle masked busy, so an answer is always a different
    /// spot.
    fn replacement_origin(&self, width: u16, height: u16, failed: Coord) -> Option<Coord> {
        let view = self.manager.fabric_view();
        let mut busy: Vec<Rect> = self
            .manager
            .loaded_tasks()
            .iter()
            .map(|t| t.region)
            .collect();
        busy.push(Rect::new(failed, width, height));
        let masked = vbs_runtime::FabricView::new(view.width(), view.height(), busy);
        self.manager.policy().place(width, height, &masked)
    }

    fn sample_fragmentation(&mut self) {
        let view = self.manager.fabric_view();
        let fragmentation = view.fragmentation();
        self.counters.add(slot::FRAGMENTATION_SAMPLES, 1);
        self.counters
            .float_add(slot::FRAGMENTATION_SUM, fragmentation);
        let total = view.total_area();
        if total > 0 {
            let utilization = 1.0 - view.free_area() as f64 / total as f64;
            self.counters.float_add(slot::UTILIZATION_SUM, utilization);
            // One utilization sample per processed request: the per-fabric
            // occupancy timeline (per-mille payloads keep the event fixed
            // width).
            self.telemetry.event(
                EventKind::Utilization,
                self.fabric,
                0,
                (utilization * 1000.0) as u64,
                (fragmentation * 1000.0) as u64,
            );
        }
    }
}

/// Unloads before relocates before loads, so departures free space first.
fn class_rank(request: &Request) -> u8 {
    match request {
        Request::Unload { .. } => 0,
        Request::Relocate { .. } => 1,
        Request::Load { .. } => 2,
    }
}

fn priority_of(request: &Request) -> u8 {
    match request {
        Request::Load { priority, .. } => *priority,
        _ => u8::MAX,
    }
}
