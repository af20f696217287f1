//! The trace-driven workload simulator.
//!
//! [`replay`] drives a [`Scheduler`] through a [`Trace`], batching the
//! events of each tick into one `process_pending` round (so departures free
//! space before same-tick arrivals claim it) and collecting a [`SimReport`]
//! of scheduler, cache and fragmentation metrics at the end. Everything is
//! deterministic: the same trace against the same scheduler configuration
//! yields the same report, which is what the policy-comparison benchmarks
//! and the acceptance tests rely on.

use crate::cache::CacheStats;
use crate::multi::{MultiFabricScheduler, MultiMetrics};
use crate::scheduler::{Outcome, Request, SchedMetrics, Scheduler};
use crate::trace::{Trace, TraceOp};
use std::collections::{HashMap, HashSet};
use std::fmt;
use vbs_runtime::FabricId;

/// Metrics of one trace replay.
#[derive(Debug, Clone, PartialEq)]
pub struct SimReport {
    /// Events replayed.
    pub events: usize,
    /// Scheduler counters at the end of the replay.
    pub sched: SchedMetrics,
    /// Decode-cache counters at the end of the replay.
    pub cache: CacheStats,
    /// Fragmentation of the final fabric state.
    pub final_fragmentation: f64,
    /// Unload events whose job was already gone (evicted or rejected).
    pub departures_already_gone: u64,
}

impl SimReport {
    /// Accepted / submitted loads.
    pub fn acceptance_rate(&self) -> f64 {
        self.sched.acceptance_rate()
    }
}

impl fmt::Display for SimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "events            {:>8}", self.events)?;
        writeln!(f, "loads submitted   {:>8}", self.sched.loads_submitted)?;
        writeln!(
            f,
            "accepted          {:>8}  ({:.1}%)",
            self.sched.loads_accepted,
            100.0 * self.acceptance_rate()
        )?;
        writeln!(f, "rejected          {:>8}", self.sched.loads_rejected)?;
        writeln!(f, "deadline missed   {:>8}", self.sched.deadline_missed)?;
        writeln!(f, "evictions         {:>8}", self.sched.evictions)?;
        writeln!(f, "relocations       {:>8}", self.sched.relocations)?;
        writeln!(
            f,
            "compaction        {:>8} frames moved  (mean pause {:.1} µs)",
            self.sched.compaction_frames_moved,
            self.sched.mean_compaction_micros()
        )?;
        writeln!(
            f,
            "decodes           {:>8}  (mean {:.1} µs)",
            self.sched.decodes,
            self.sched.mean_decode_micros()
        )?;
        writeln!(
            f,
            "cache             {:>8} hits / {} misses ({:.1}% hit rate)",
            self.cache.hits,
            self.cache.misses,
            100.0 * self.cache.hit_rate()
        )?;
        writeln!(
            f,
            "fragmentation     {:>8.3} mean / {:.3} final",
            self.sched.mean_fragmentation(),
            self.final_fragmentation
        )
    }
}

/// What the trace driver needs from a replay target — implemented by the
/// single-fabric [`Scheduler`] and the [`MultiFabricScheduler`], so both
/// replay a trace through the *same* event loop (the K=1 differential tests
/// rely on the loops being literally shared).
pub trait ReplayTarget {
    /// Advances the target's logical clock.
    fn advance_to(&mut self, tick: u64);
    /// Enqueues a request, returning its job/request id.
    fn submit(&mut self, request: Request) -> u64;
    /// Processes everything queued, returning the outcomes.
    fn process(&mut self) -> Vec<Outcome>;
}

impl ReplayTarget for Scheduler {
    fn advance_to(&mut self, tick: u64) {
        Scheduler::advance_to(self, tick);
    }
    fn submit(&mut self, request: Request) -> u64 {
        Scheduler::submit(self, request)
    }
    fn process(&mut self) -> Vec<Outcome> {
        self.process_pending()
    }
}

impl ReplayTarget for MultiFabricScheduler {
    fn advance_to(&mut self, tick: u64) {
        MultiFabricScheduler::advance_to(self, tick);
    }
    fn submit(&mut self, request: Request) -> u64 {
        MultiFabricScheduler::submit(self, request)
    }
    fn process(&mut self) -> Vec<Outcome> {
        self.process_pending()
    }
}

/// Replays `trace` through `scheduler` and reports the metrics of **this
/// replay only** — on a reused scheduler (e.g. to measure a warm decode
/// cache), counters accumulated by earlier activity are subtracted out.
///
/// Trace job ids are translated to scheduler job ids on the fly; an unload
/// of a job that was rejected or already evicted counts in
/// [`SimReport::departures_already_gone`] instead of failing.
pub fn replay(scheduler: &mut Scheduler, trace: &Trace) -> SimReport {
    let sched_before = scheduler.metrics();
    let cache_before = scheduler.cache_stats();
    let already_gone = drive(scheduler, trace);
    SimReport {
        events: trace.events.len(),
        sched: metrics_delta(scheduler.metrics(), &sched_before),
        cache: cache_delta(scheduler.cache_stats(), cache_before),
        final_fragmentation: scheduler.manager().fabric_view().fragmentation(),
        departures_already_gone: already_gone,
    }
}

/// Drives `target` through `trace` (the shared event loop of [`replay`] and
/// [`replay_multi`]) and returns the number of departures that found their
/// job already gone.
fn drive<T: ReplayTarget>(scheduler: &mut T, trace: &Trace) -> u64 {
    let mut job_map: HashMap<u64, u64> = HashMap::new();
    // (sched job, trace job) pairs of the current tick's arrivals.
    let mut load_of_round: Vec<(u64, u64)> = Vec::new();
    // Departures seen before their arrival was mapped (a zero-duration job
    // unloads in the same tick it loads, and departures sort first within a
    // tick): remembered and executed right after the arrival resolves.
    let mut deferred: HashSet<u64> = HashSet::new();
    let mut already_gone = 0u64;

    let mut index = 0;
    while index < trace.events.len() {
        let tick = trace.events[index].tick;
        scheduler.advance_to(tick);
        load_of_round.clear();
        while index < trace.events.len() && trace.events[index].tick == tick {
            match &trace.events[index].op {
                TraceOp::Load {
                    job,
                    task,
                    priority,
                    deadline,
                } => {
                    let sched_job = scheduler.submit(Request::Load {
                        task: task.clone(),
                        priority: *priority,
                        deadline: *deadline,
                    });
                    load_of_round.push((sched_job, *job));
                }
                TraceOp::Unload { job } => match job_map.remove(job) {
                    Some(sched_job) => {
                        scheduler.submit(Request::Unload { job: sched_job });
                    }
                    None => {
                        deferred.insert(*job);
                    }
                },
                TraceOp::Swap {
                    job,
                    task,
                    priority,
                    deadline,
                } => {
                    // Vacate the current variant first (its unload is
                    // processed before the replacement load in the same
                    // round), then request the new one under the same
                    // trace job id. A swap whose job is already gone
                    // (rejected or evicted) degenerates to a plain load —
                    // the scenario keeps pressing for the fabric.
                    if let Some(sched_job) = job_map.remove(job) {
                        scheduler.submit(Request::Unload { job: sched_job });
                    }
                    let sched_job = scheduler.submit(Request::Load {
                        task: task.clone(),
                        priority: *priority,
                        deadline: *deadline,
                    });
                    load_of_round.push((sched_job, *job));
                }
            }
            index += 1;
        }
        for outcome in scheduler.process() {
            match outcome {
                Outcome::Loaded { job, .. } => {
                    if let Some(&(_, trace_job)) =
                        load_of_round.iter().find(|(sched, _)| *sched == job)
                    {
                        job_map.insert(trace_job, job);
                    }
                    // Evicted victims keep their map entries; their later
                    // unload simply finds the job no longer resident.
                }
                Outcome::NotResident { .. } => already_gone += 1,
                _ => {}
            }
        }
        // Execute departures that arrived before their load resolved.
        let mut follow_up = false;
        for &(sched_job, trace_job) in &load_of_round {
            if deferred.remove(&trace_job) {
                if job_map.remove(&trace_job).is_some() {
                    scheduler.submit(Request::Unload { job: sched_job });
                    follow_up = true;
                } else {
                    // The load itself was rejected; its departure is moot.
                    already_gone += 1;
                }
            }
        }
        if follow_up {
            for outcome in scheduler.process() {
                if matches!(outcome, Outcome::NotResident { .. }) {
                    already_gone += 1;
                }
            }
        }
    }
    // Departures that never matched any arrival.
    already_gone += deferred.len() as u64;
    already_gone
}

/// Per-shard slice of a [`MultiSimReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct FabricReport {
    /// The fabric id its task manager was tagged with.
    pub id: FabricId,
    /// This shard's scheduler counters over the replay.
    pub sched: SchedMetrics,
    /// This shard's decode-cache counters over the replay.
    pub cache: CacheStats,
    /// Fragmentation of the shard's final fabric state.
    pub final_fragmentation: f64,
}

/// Metrics of one multi-fabric trace replay: fleet-level counters plus one
/// [`FabricReport`] per shard.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiSimReport {
    /// Events replayed.
    pub events: usize,
    /// Fleet counters accumulated by the replay.
    pub multi: MultiMetrics,
    /// Per-shard counters, in fabric order.
    pub fabrics: Vec<FabricReport>,
    /// Unload events whose job was already gone (evicted or rejected).
    pub departures_already_gone: u64,
}

impl MultiSimReport {
    /// Fleet acceptance: loads accepted anywhere / loads submitted.
    pub fn acceptance_rate(&self) -> f64 {
        self.multi.acceptance_rate()
    }

    /// Sum of the per-shard scheduler counters (a migrated load counts on
    /// every fabric it visited — use [`MultiSimReport::acceptance_rate`]
    /// for deduplicated fleet acceptance).
    pub fn shard_totals(&self) -> SchedMetrics {
        let mut total = SchedMetrics::default();
        for fabric in &self.fabrics {
            let m = &fabric.sched;
            total.loads_submitted += m.loads_submitted;
            total.loads_accepted += m.loads_accepted;
            total.loads_rejected += m.loads_rejected;
            total.deadline_missed += m.deadline_missed;
            total.evictions += m.evictions;
            total.relocations += m.relocations;
            total.compaction_passes += m.compaction_passes;
            total.compaction_frames_moved += m.compaction_frames_moved;
            total.compaction_micros += m.compaction_micros;
            total.decode_micros += m.decode_micros;
            total.decodes += m.decodes;
            total.fragmentation_samples += m.fragmentation_samples;
            total.fragmentation_sum += m.fragmentation_sum;
            total.utilization_sum += m.utilization_sum;
            total.write_retries += m.write_retries;
            total.write_faults += m.write_faults;
            total.crc_mismatches += m.crc_mismatches;
            total.verify_scrubs += m.verify_scrubs;
            total.compaction_truncated += m.compaction_truncated;
            total.warm_hits += m.warm_hits;
            total.redecode_micros += m.redecode_micros;
            total.cache_demotions += m.cache_demotions;
            total.cache_promotions += m.cache_promotions;
            total.cache_resident_bytes += m.cache_resident_bytes;
        }
        total
    }
}

impl fmt::Display for MultiSimReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "events            {:>8}", self.events)?;
        writeln!(f, "loads submitted   {:>8}", self.multi.loads_submitted)?;
        writeln!(
            f,
            "accepted          {:>8}  ({:.1}%)",
            self.multi.loads_accepted,
            100.0 * self.acceptance_rate()
        )?;
        writeln!(f, "rejected          {:>8}", self.multi.loads_rejected)?;
        writeln!(
            f,
            "migrations        {:>8}  ({} accepted elsewhere)",
            self.multi.migrations, self.multi.migrated_accepts
        )?;
        for (i, fabric) in self.fabrics.iter().enumerate() {
            writeln!(
                f,
                "{:<10} accept {:>4}/{:<4} evict {:>4} reloc {:>4} hit {:>5.1}% util {:>5.1}% frag {:.3}",
                format!("{} [{}]", fabric.id, i),
                fabric.sched.loads_accepted,
                fabric.sched.loads_submitted,
                fabric.sched.evictions,
                fabric.sched.relocations,
                100.0 * fabric.cache.hit_rate(),
                100.0 * fabric.sched.mean_utilization(),
                fabric.sched.mean_fragmentation(),
            )?;
        }
        Ok(())
    }
}

/// Replays `trace` through a multi-fabric fleet and reports fleet and
/// per-shard metrics of **this replay only** (counters accumulated by
/// earlier activity are subtracted out). The event loop is the one
/// [`replay`] uses, so a K=1 fleet replays a trace exactly like a plain
/// [`Scheduler`].
pub fn replay_multi(multi: &mut MultiFabricScheduler, trace: &Trace) -> MultiSimReport {
    let multi_before = *multi.metrics();
    let sched_before: Vec<SchedMetrics> = multi.fabric_metrics();
    let cache_before: Vec<CacheStats> = multi.fabrics().iter().map(|f| f.cache_stats()).collect();
    let already_gone = drive(multi, trace);
    let fabrics = multi
        .fabrics()
        .iter()
        .enumerate()
        .map(|(i, fabric)| FabricReport {
            id: fabric.manager().fabric_id(),
            sched: metrics_delta(fabric.metrics(), &sched_before[i]),
            cache: cache_delta(fabric.cache_stats(), cache_before[i]),
            final_fragmentation: fabric.manager().fabric_view().fragmentation(),
        })
        .collect();
    MultiSimReport {
        events: trace.events.len(),
        multi: multi_metrics_delta(multi.metrics(), &multi_before),
        fabrics,
        departures_already_gone: already_gone,
    }
}

/// Fleet counters accumulated between two dispatcher snapshots.
fn multi_metrics_delta(after: &MultiMetrics, before: &MultiMetrics) -> MultiMetrics {
    MultiMetrics {
        loads_submitted: after.loads_submitted - before.loads_submitted,
        loads_accepted: after.loads_accepted - before.loads_accepted,
        loads_rejected: after.loads_rejected - before.loads_rejected,
        migrations: after.migrations - before.migrations,
        migrated_accepts: after.migrated_accepts - before.migrated_accepts,
        process_rounds: after.process_rounds - before.process_rounds,
        quarantines: after.quarantines - before.quarantines,
        recoveries: after.recoveries - before.recoveries,
        residents_requeued: after.residents_requeued - before.residents_requeued,
        degraded_accepts: after.degraded_accepts - before.degraded_accepts,
        ..MultiMetrics::default()
    }
}

/// Counters accumulated between two scheduler snapshots.
fn metrics_delta(after: SchedMetrics, before: &SchedMetrics) -> SchedMetrics {
    SchedMetrics {
        loads_submitted: after.loads_submitted - before.loads_submitted,
        loads_accepted: after.loads_accepted - before.loads_accepted,
        loads_rejected: after.loads_rejected - before.loads_rejected,
        deadline_missed: after.deadline_missed - before.deadline_missed,
        evictions: after.evictions - before.evictions,
        relocations: after.relocations - before.relocations,
        compaction_passes: after.compaction_passes - before.compaction_passes,
        compaction_frames_moved: after.compaction_frames_moved - before.compaction_frames_moved,
        compaction_micros: after.compaction_micros - before.compaction_micros,
        decode_micros: after.decode_micros - before.decode_micros,
        decodes: after.decodes - before.decodes,
        fragmentation_samples: after.fragmentation_samples - before.fragmentation_samples,
        fragmentation_sum: after.fragmentation_sum - before.fragmentation_sum,
        utilization_sum: after.utilization_sum - before.utilization_sum,
        write_retries: after.write_retries - before.write_retries,
        write_faults: after.write_faults - before.write_faults,
        crc_mismatches: after.crc_mismatches - before.crc_mismatches,
        verify_scrubs: after.verify_scrubs - before.verify_scrubs,
        compaction_truncated: after.compaction_truncated - before.compaction_truncated,
        warm_hits: after.warm_hits - before.warm_hits,
        redecode_micros: after.redecode_micros - before.redecode_micros,
        cache_demotions: after.cache_demotions - before.cache_demotions,
        cache_promotions: after.cache_promotions - before.cache_promotions,
        // Point-in-time residency, not a counter: report the final value.
        cache_resident_bytes: after.cache_resident_bytes,
    }
}

/// Hit/miss counters accumulated between two cache snapshots; entry counts
/// are point-in-time values and reported as-is.
fn cache_delta(after: CacheStats, before: CacheStats) -> CacheStats {
    CacheStats {
        hits: after.hits - before.hits,
        misses: after.misses - before.misses,
        warm_hits: after.warm_hits - before.warm_hits,
        demotions: after.demotions - before.demotions,
        promotions: after.promotions - before.promotions,
        warm_admissions: after.warm_admissions - before.warm_admissions,
        entries: after.entries,
        warm_entries: after.warm_entries,
        capacity: after.capacity,
        hot_bytes: after.hot_bytes,
        warm_bytes: after.warm_bytes,
    }
}
