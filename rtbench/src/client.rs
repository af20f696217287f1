//! The closed-loop client: one thread replays a trace tick by tick, submits
//! the tick's requests, calls `process_pending`, and starts the next tick
//! only when that returns.
//!
//! The event loop follows `vbs_sched::replay`: trace job ids are mapped to
//! scheduler ids, and an unload whose job was never mapped (its load was
//! rejected) counts as already gone. The benchmark's traces never unload a
//! job in the tick it loads, so `replay`'s deferral of such departures never
//! applies. Its counts must equal `replay`'s on the same trace. Audits run
//! at fixed checkpoints with the clock stopped.

use crate::alloc;
use crate::audit::Auditor;
use crate::workload::Target;
use std::collections::HashMap;
use std::time::{Duration, Instant};
use vbs_sched::{
    Outcome, RejectReason, Request, ResidentInfo, SchedMetrics, Scheduler, Trace, TraceOp,
};

/// Audits per pass before the final one.
const CHECKPOINTS: usize = 8;

/// Outcome counts that must match `vbs_sched::replay` on the same trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Loads accepted (fleet: by some fabric).
    pub accepted: u64,
    /// Loads rejected (fleet: by every fabric tried).
    pub rejected: u64,
    /// Residents evicted, summed over fabrics.
    pub evictions: u64,
    /// Relocations, summed over fabrics.
    pub relocations: u64,
    /// Unloads whose job was already gone.
    pub already_gone: u64,
}

impl Target {
    /// Every fabric's scheduler.
    pub fn schedulers(&self) -> Vec<&Scheduler> {
        match self {
            Target::Single(s) => vec![s],
            Target::Fleet(f) => f.fabrics().iter().collect(),
        }
    }

    /// Every fabric's residents, grouped by fabric.
    pub fn residents(&self) -> Vec<Vec<ResidentInfo>> {
        self.schedulers().iter().map(|s| s.residents()).collect()
    }

    /// The scheduler counters the benchmark reads, summed over fabrics
    /// (the rest are left 0).
    pub fn metrics(&self) -> SchedMetrics {
        let mut total = SchedMetrics::default();
        for m in self.schedulers().iter().map(|s| s.metrics()) {
            total.loads_accepted += m.loads_accepted;
            total.loads_rejected += m.loads_rejected;
            total.evictions += m.evictions;
            total.relocations += m.relocations;
            total.compaction_passes += m.compaction_passes;
            total.compaction_frames_moved += m.compaction_frames_moved;
            total.compaction_truncated += m.compaction_truncated;
            total.decodes += m.decodes;
            total.fragmentation_samples += m.fragmentation_samples;
            total.fragmentation_sum += m.fragmentation_sum;
            total.utilization_sum += m.utilization_sum;
            total.verify_scrubs += m.verify_scrubs;
            total.warm_hits += m.warm_hits;
            total.cache_demotions += m.cache_demotions;
            total.cache_promotions += m.cache_promotions;
        }
        total
    }

    /// The outcome counts so far, `already_gone` left 0.
    pub fn counts(&self) -> Counts {
        let m = self.metrics();
        let (accepted, rejected) = match self {
            Target::Single(_) => (m.loads_accepted, m.loads_rejected),
            Target::Fleet(f) => (f.metrics().loads_accepted, f.metrics().loads_rejected),
        };
        Counts {
            accepted,
            rejected,
            evictions: m.evictions,
            relocations: m.relocations,
            already_gone: 0,
        }
    }

    fn advance_to(&mut self, tick: u64) {
        match self {
            Target::Single(s) => s.advance_to(tick),
            Target::Fleet(f) => f.advance_to(tick),
        }
    }

    fn submit(&mut self, request: Request) -> u64 {
        match self {
            Target::Single(s) => s.submit(request),
            Target::Fleet(f) => f.submit(request),
        }
    }

    fn process(&mut self) -> Vec<Outcome> {
        match self {
            Target::Single(s) => s.process_pending(),
            Target::Fleet(f) => f.process_pending(),
        }
    }
}

/// Host-time durations, in nanoseconds, of the client's calls into the
/// scheduler (recorded in traced runs only).
#[derive(Default)]
pub struct Spans {
    /// `advance_to` calls.
    pub advance: Vec<u64>,
    /// `submit` calls.
    pub submit: Vec<u64>,
    /// `process_pending` calls.
    pub process: Vec<u64>,
}

/// Samples gathered over the passes of one phase.
#[derive(Default)]
pub struct Samples {
    /// Load latency: `submit` to the return of the `process_pending` call
    /// that reported the load's outcome, in nanoseconds.
    pub load_ns: Vec<u64>,
    /// Per tick: `advance_to` start to the return of `process_pending`,
    /// in nanoseconds.
    pub tick_ns: Vec<u64>,
    /// Call spans, when traced.
    pub spans: Option<Spans>,
}

impl Samples {
    /// Makes room for one more pass over a trace of `events` events so
    /// the timed loop never grows a buffer.
    pub fn reserve(&mut self, events: usize) {
        self.load_ns.reserve(events / 2 + 1);
        self.tick_ns.reserve(events);
        if let Some(spans) = &mut self.spans {
            spans.advance.reserve(events);
            spans.submit.reserve(events);
            spans.process.reserve(events * 2);
        }
    }
}

/// What one replay of the trace produced.
pub struct Pass {
    /// Time spent in the client loop, audits excluded.
    pub busy: Duration,
    /// Trace events replayed.
    pub events: u64,
    /// Outcome counts.
    pub counts: Counts,
    /// Peak live heap bytes allocated since `baseline` (the scheduler's
    /// construction and the timed loop; audits excluded).
    pub peak_heap: usize,
    /// Median load latency of this pass, in nanoseconds.
    pub load_p50_ns: u64,
    /// Allocations made in the timed loop.
    pub allocations: u64,
    /// Frames written by accepted loads.
    pub frames_written: u64,
    /// Every check that failed, described.
    pub failures: Vec<String>,
}

fn timed<R>(sink: Option<&mut Vec<u64>>, call: impl FnOnce() -> R) -> R {
    match sink {
        None => call(),
        Some(sink) => {
            let start = Instant::now();
            let out = call();
            sink.push(start.elapsed().as_nanos() as u64);
            out
        }
    }
}

/// Replays `trace` through `target` once, auditing at the checkpoints and
/// at the end. `areas[i]` is the frames event `i` loads (0 for an unload);
/// `baseline` is the live heap before `target` was built, with the peak
/// reset there and `samples` already reserved for this pass.
pub fn run_pass(
    target: &mut Target,
    trace: &Trace,
    auditor: &mut Auditor,
    samples: &mut Samples,
    areas: &[u64],
    baseline: usize,
) -> Pass {
    let events = &trace.events;
    let first_sample = samples.load_ns.len();
    let checkpoint_every = events.len().div_ceil(CHECKPOINTS + 1).max(1);
    let mut next_checkpoint = checkpoint_every;
    let mut failures = Vec::new();

    let mut job_map: HashMap<u64, u64> = HashMap::new();
    // (scheduler job, trace job, frames) of the current tick's arrivals.
    let mut arrivals: Vec<(u64, u64, u64)> = Vec::new();
    let mut submitted_at: Vec<Instant> = Vec::new();
    let mut counts = Counts::default();
    let mut frames_written = 0u64;
    let mut busy = Duration::ZERO;
    let mut excluded_allocs = 0u64;
    // Heap the auditor keeps after an audit (its decode pool warming up).
    let mut audit_retained = 0usize;

    let allocs_start = alloc::allocations();
    let mut segment = Instant::now();
    let mut index = 0;
    while index < events.len() {
        if index >= next_checkpoint {
            busy += segment.elapsed();
            let (peak, allocs, live) = (alloc::peak(), alloc::allocations(), alloc::live());
            if let Err(e) = auditor.audit(target) {
                failures.push(format!("checkpoint at event {index}: {e}"));
            }
            excluded_allocs += alloc::allocations() - allocs;
            audit_retained += alloc::live().saturating_sub(live);
            alloc::restore_peak(peak);
            next_checkpoint += checkpoint_every;
            segment = Instant::now();
        }
        let tick = events[index].tick;
        let tick_start = Instant::now();
        let spans = &mut samples.spans;
        timed(spans.as_mut().map(|s| &mut s.advance), || {
            target.advance_to(tick)
        });
        arrivals.clear();
        submitted_at.clear();
        while index < events.len() && events[index].tick == tick {
            match &events[index].op {
                TraceOp::Load {
                    job,
                    task,
                    priority,
                    deadline,
                } => {
                    let request = Request::Load {
                        task: task.clone(),
                        priority: *priority,
                        deadline: *deadline,
                    };
                    submitted_at.push(Instant::now());
                    let id = timed(spans.as_mut().map(|s| &mut s.submit), || {
                        target.submit(request)
                    });
                    arrivals.push((id, *job, areas[index]));
                }
                TraceOp::Unload { job } => match job_map.remove(job) {
                    Some(id) => {
                        timed(spans.as_mut().map(|s| &mut s.submit), || {
                            target.submit(Request::Unload { job: id })
                        });
                    }
                    None => counts.already_gone += 1,
                },
                TraceOp::Swap { .. } => unreachable!("the benchmark generates no swaps"),
            }
            index += 1;
        }
        let outcomes = timed(spans.as_mut().map(|s| &mut s.process), || target.process());
        let done = Instant::now();
        samples
            .tick_ns
            .push(done.duration_since(tick_start).as_nanos() as u64);
        for at in &submitted_at {
            samples
                .load_ns
                .push(done.duration_since(*at).as_nanos() as u64);
        }
        let mut resolved = 0usize;
        for outcome in &outcomes {
            match outcome {
                Outcome::Loaded { job, .. } => {
                    resolved += 1;
                    if let Some(&(_, trace_job, frames)) =
                        arrivals.iter().find(|(id, _, _)| id == job)
                    {
                        job_map.insert(trace_job, *job);
                        frames_written += frames;
                    }
                }
                Outcome::Rejected { job, reason, .. } => {
                    resolved += 1;
                    if let RejectReason::Runtime(e) = reason {
                        failures.push(format!("job {job}: runtime error: {e}"));
                    }
                }
                Outcome::NotResident { .. } => counts.already_gone += 1,
                Outcome::Unloaded { .. } | Outcome::Relocated { .. } => {}
            }
        }
        if resolved != arrivals.len() {
            failures.push(format!(
                "tick {tick}: {} loads submitted, {resolved} resolved",
                arrivals.len()
            ));
        }
    }
    busy += segment.elapsed();
    let peak_heap = alloc::peak().saturating_sub(baseline + audit_retained);
    let mut load_ns = samples.load_ns[first_sample..].to_vec();
    load_ns.sort_unstable();
    let allocations = alloc::allocations() - allocs_start - excluded_allocs;
    if let Err(e) = auditor.audit(target) {
        failures.push(format!("final audit: {e}"));
    }
    let sched = target.counts();
    counts.accepted = sched.accepted;
    counts.rejected = sched.rejected;
    counts.evictions = sched.evictions;
    counts.relocations = sched.relocations;
    Pass {
        busy,
        events: events.len() as u64,
        counts,
        peak_heap,
        load_p50_ns: quantile(&load_ns, 0.50),
        allocations,
        frames_written,
        failures,
    }
}

/// Nearest-rank quantile of a sorted slice (0 when empty).
pub fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}
