//! Run-time manager benchmark: replays a seeded request trace through the
//! public `vbs_sched` API with one closed-loop client and reports host-time
//! end-to-end metrics (untraced) or per-layer metrics (traced).
//!
//! ```text
//! cargo run --release --manifest-path rtbench/Cargo.toml -- \
//!     --workload <dense_100x100|churn_14x14|fleet_2x24x24> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root: the corpus is read from
//! `tests/traces/mcnc`. Human-readable lines come first; the last
//! line of standard output is one JSON object. See `rtbench/README.md`.

mod alloc;
mod audit;
mod client;
mod corpus;
mod workload;

use audit::Auditor;
use client::{quantile, run_pass, Counts, Pass, Samples, Spans};
use corpus::{Corpus, Instance};
use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};
use vbs_runtime::{ScratchPoolStats, VbsRepository};
use vbs_sched::{MultiMetrics, SchedMetrics, Trace, TraceOp};
use vbs_telemetry::{Stage, Telemetry};
use workload::{Target, Workload};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The checked-in MCNC corpus, relative to the repository root.
const CORPUS: &str = "tests/traces/mcnc";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let workload = value("--workload").ok_or("--workload is required")?;
    let workload = Workload::by_name(&workload).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload `{workload}` (one of {})",
            names.join(", ")
        )
    })?;
    let required = |flag: &str| value(flag).ok_or(format!("{flag} is required"));
    let seconds = required("--seconds")?
        .parse::<f64>()
        .map_err(|_| "--seconds takes a number")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must lie in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: required("--seed")?
            .parse()
            .map_err(|_| "--seed takes a whole number")?,
        seconds,
        trace: match value("--trace").as_deref() {
            None | Some("0") => false,
            Some("1") => true,
            Some(_) => return Err("--trace takes 0 or 1".into()),
        },
    })
}

/// Everything a pass needs, built by the timed set-up.
struct Setup {
    corpus: Corpus,
    population: Vec<Instance>,
    /// Held through the pass, as the heap baseline counts it: the peak then
    /// counts only the target's own copies.
    _repository: VbsRepository,
    trace: Trace,
    /// Frames each trace event loads (0 for unloads).
    areas: Vec<u64>,
    /// The freshly built scheduler(s) the pass replays the trace on.
    target: Target,
    /// Live heap just before `target` was built, where the heap peak was
    /// reset: the pass's `peak_heap` counts from here.
    heap_baseline: usize,
}

/// Loads the corpus, builds the population and repository, generates the
/// trace and builds the target, timed, appending the duration to `times`.
fn timed_setup(args: &Args, times: &mut Vec<f64>) -> Result<Setup, String> {
    let start = Instant::now();
    let corpus = Corpus::load(Path::new(CORPUS))?;
    let population = corpus.population();
    let repository = corpus.repository(&population);
    let trace = args.workload.trace(&corpus, &population, args.seed);
    let area_of: HashMap<&str, u64> = population
        .iter()
        .map(|i| (i.name.as_str(), corpus.streams[i.stream].area()))
        .collect();
    let areas = trace
        .events
        .iter()
        .map(|e| match &e.op {
            TraceOp::Load { task, .. } => area_of.get(task.as_str()).copied().unwrap_or(0),
            _ => 0,
        })
        .collect();
    let heap_baseline = alloc::live();
    alloc::reset_peak();
    let target = args.workload.build(&corpus, &repository)?;
    times.push(start.elapsed().as_secs_f64());
    Ok(Setup {
        corpus,
        population,
        _repository: repository,
        trace,
        areas,
        target,
        heap_baseline,
    })
}

/// Counts `vbs_sched::replay` (or `replay_multi`) reports on the trace.
fn reference_counts(target: Target, trace: &Trace) -> Counts {
    match target {
        Target::Single(mut s) => {
            let r = vbs_sched::replay(&mut s, trace);
            Counts {
                accepted: r.sched.loads_accepted,
                rejected: r.sched.loads_rejected,
                evictions: r.sched.evictions,
                relocations: r.sched.relocations,
                already_gone: r.departures_already_gone,
            }
        }
        Target::Fleet(mut f) => {
            let r = vbs_sched::replay_multi(&mut f, trace);
            Counts {
                accepted: r.multi.loads_accepted,
                rejected: r.multi.loads_rejected,
                evictions: r.fabrics.iter().map(|x| x.sched.evictions).sum(),
                relocations: r.fabrics.iter().map(|x| x.sched.relocations).sum(),
                already_gone: r.departures_already_gone,
            }
        }
    }
}

/// Per-pass layer counters read from the target after the pass.
struct LayerPass {
    sched: SchedMetrics,
    hits: u64,
    misses: u64,
    hot_bytes: u64,
    warm_bytes: u64,
    pool: ScratchPoolStats,
    multi: MultiMetrics,
}

impl LayerPass {
    fn of(target: &Target) -> LayerPass {
        let (mut hits, mut misses, mut hot_bytes, mut warm_bytes) = (0, 0, 0, 0);
        for s in target.schedulers() {
            let c = s.cache_stats();
            hits += c.hits;
            misses += c.misses;
            hot_bytes += c.hot_bytes;
            warm_bytes += c.warm_bytes;
        }
        let (pool, multi) = match target {
            Target::Single(s) => (s.bitstream_pool().stats(), MultiMetrics::default()),
            Target::Fleet(f) => (f.bitstream_pool().stats(), *f.metrics()),
        };
        LayerPass {
            sched: target.metrics(),
            hits,
            misses,
            hot_bytes,
            warm_bytes,
            pool,
            multi,
        }
    }

    /// The counts declared to repeat exactly for a seed.
    fn exact(&self, workload: Workload) -> Vec<(&'static str, u64)> {
        let mut exact = vec![
            ("sched.accepted", self.sched.loads_accepted),
            ("sched.rejected", self.sched.loads_rejected),
            ("placement.evictions", self.sched.evictions),
            ("sched.relocations", self.sched.relocations),
            ("compaction.passes", self.sched.compaction_passes),
        ];
        if workload.unbounded_cache() {
            exact.push(("decode.count", self.sched.decodes));
        }
        exact
    }
}

/// The passes of one kind (untraced or traced) and what they recorded.
struct Phase {
    passes: Vec<Pass>,
    layers: Vec<LayerPass>,
    samples: Samples,
    /// Events in the trace each pass replays.
    events: usize,
}

impl Phase {
    fn new(traced: bool, events: usize) -> Phase {
        Phase {
            passes: Vec::new(),
            layers: Vec::new(),
            samples: Samples {
                load_ns: Vec::new(),
                tick_ns: Vec::new(),
                spans: traced.then(Spans::default),
            },
            events,
        }
    }

    fn busy(&self) -> Duration {
        self.passes.iter().map(|p| p.busy).sum()
    }

    /// Median over passes of a per-pass figure.
    fn median_of(&self, figure: impl Fn(&Pass) -> f64) -> f64 {
        let mut values: Vec<f64> = self.passes.iter().map(figure).collect();
        median(&mut values)
    }

    /// Events replayed per second, each tick timed at its fastest over
    /// the passes.
    fn events_per_s(&self) -> f64 {
        let best = fastest_of_passes(&self.samples.tick_ns, self.passes.len());
        let seconds = best.iter().sum::<u64>() as f64 / 1e9;
        self.events as f64 / seconds
    }

    /// Each load's latency at its fastest over the passes, sorted.
    fn load_ns(&self) -> Vec<u64> {
        let mut best = fastest_of_passes(&self.samples.load_ns, self.passes.len());
        best.sort_unstable();
        best
    }

    /// Sets up with the clock on, then replays the trace once on the
    /// freshly built scheduler, with `telemetry` installed when given.
    fn run_pass(
        &mut self,
        args: &Args,
        setup_times: &mut Vec<f64>,
        auditor: &mut Auditor,
        telemetry: Option<&Telemetry>,
    ) -> Result<(), String> {
        // Before the set-up resets the heap peak, so the buffers do not
        // count in it.
        self.samples.reserve(self.events);
        let mut setup = timed_setup(args, setup_times)?;
        if let Some(t) = telemetry {
            match &mut setup.target {
                Target::Single(s) => s.set_telemetry(t.clone(), 0),
                Target::Fleet(f) => f.set_telemetry(t.clone()),
            }
        }
        let pass = run_pass(
            &mut setup.target,
            &setup.trace,
            auditor,
            &mut self.samples,
            &setup.areas,
            setup.heap_baseline,
        );
        self.layers.push(LayerPass::of(&setup.target));
        self.passes.push(pass);
        Ok(())
    }
}

/// `samples` holds `passes` equal runs of per-item times, one per pass of
/// the same trace; returns each item's smallest time.
fn fastest_of_passes(samples: &[u64], passes: usize) -> Vec<u64> {
    let per_pass = samples.len() / passes.max(1);
    let mut best = samples[..per_pass].to_vec();
    for pass in samples.chunks_exact(per_pass.max(1)).skip(1) {
        for (b, &x) in best.iter_mut().zip(pass) {
            *b = (*b).min(x);
        }
    }
    best
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Output metrics in print order: (name, value, unit).
type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The end-to-end metrics. Every pass replays the same trace, so each tick
/// and each load is timed once per pass; the timings take each at its
/// fastest over the passes, which leaves out slowdowns from other load on
/// the shared host. Heap is the median over passes.
fn end_to_end(phase: &Phase, setup_s: f64) -> Metrics {
    let first = &phase.passes[0].counts;
    let submitted = first.accepted + first.rejected;
    let load_ns = phase.load_ns();
    vec![
        ("events_per_s", phase.events_per_s(), "1/s"),
        ("load_p50_us", quantile(&load_ns, 0.50) as f64 / 1e3, "us"),
        ("load_p99_us", quantile(&load_ns, 0.99) as f64 / 1e3, "us"),
        (
            "accept_rate",
            first.accepted as f64 / submitted.max(1) as f64,
            "ratio",
        ),
        (
            "peak_heap_mib",
            phase.median_of(|p| p.peak_heap as f64 / (1u64 << 20) as f64),
            "MiB",
        ),
        ("setup_s", setup_s, "s"),
    ]
}

fn span_metrics(spans: &[u64], passes: f64) -> (f64, f64, f64) {
    let mut sorted = spans.to_vec();
    sorted.sort_unstable();
    let sum: u64 = sorted.iter().sum();
    (
        sorted.len() as f64 / passes,
        sum as f64 / 1e3 / passes,
        quantile(&sorted, 0.99) as f64 / 1e3,
    )
}

fn per_layer(
    traced: &Phase,
    untraced: &Phase,
    telemetry: &Telemetry,
    auditor: &Auditor,
) -> Metrics {
    let passes = traced.passes.len() as f64;
    let per_pass = |f: &dyn Fn(&LayerPass) -> f64| {
        let mut v: Vec<f64> = traced.layers.iter().map(f).collect();
        median(&mut v)
    };
    let hist = |stage: Stage| telemetry.histogram(stage);
    let spans = traced
        .samples
        .spans
        .as_ref()
        .expect("traced phase records spans");
    let (process_n, process_sum, process_p99) = span_metrics(&spans.process, passes);
    let (submit_n, submit_sum, submit_p99) = span_metrics(&spans.submit, passes);
    let (advance_n, advance_sum, advance_p99) = span_metrics(&spans.advance, passes);
    let load_sum = hist(Stage::Load).sum() as f64 / passes;
    let events: u64 = traced.passes.iter().map(|p| p.events).sum();
    let allocations: u64 = traced.passes.iter().map(|p| p.allocations).sum();
    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    vec![
        ("sched.process_us.count", process_n, "count"),
        ("sched.process_us.sum", process_sum, "us"),
        ("sched.process_us.p99", process_p99, "us"),
        ("sched.submit_us.count", submit_n, "count"),
        ("sched.submit_us.sum", submit_sum, "us"),
        ("sched.submit_us.p99", submit_p99, "us"),
        ("sched.advance_us.count", advance_n, "count"),
        ("sched.advance_us.sum", advance_sum, "us"),
        ("sched.advance_us.p99", advance_p99, "us"),
        (
            "sched.unattributed_share",
            (process_sum - load_sum) / process_sum,
            "ratio",
        ),
        (
            "sched.accepted",
            per_pass(&|l| l.sched.loads_accepted as f64),
            "count",
        ),
        (
            "sched.rejected",
            per_pass(&|l| l.sched.loads_rejected as f64),
            "count",
        ),
        (
            "sched.relocations",
            per_pass(&|l| l.sched.relocations as f64),
            "count",
        ),
        ("load.us.mean", hist(Stage::Load).mean(), "us"),
        ("placement.us.mean", hist(Stage::Placement).mean(), "us"),
        (
            "placement.us.p99",
            hist(Stage::Placement).value_at_quantile(0.99) as f64,
            "us",
        ),
        (
            "placement.us.sum",
            hist(Stage::Placement).sum() as f64 / passes,
            "us",
        ),
        (
            "placement.fragmentation_mean",
            per_pass(&|l| l.sched.fragmentation_sum / l.sched.fragmentation_samples.max(1) as f64),
            "ratio",
        ),
        (
            "placement.utilization_mean",
            per_pass(&|l| l.sched.utilization_sum / l.sched.fragmentation_samples.max(1) as f64),
            "ratio",
        ),
        (
            "placement.evictions",
            per_pass(&|l| l.sched.evictions as f64),
            "count",
        ),
        (
            "compaction.passes",
            per_pass(&|l| l.sched.compaction_passes as f64),
            "count",
        ),
        (
            "compaction.frames_moved",
            per_pass(&|l| l.sched.compaction_frames_moved as f64),
            "count",
        ),
        (
            "compaction.pause_us.p99",
            hist(Stage::CompactionPause).value_at_quantile(0.99) as f64,
            "us",
        ),
        (
            "compaction.truncated",
            per_pass(&|l| l.sched.compaction_truncated as f64),
            "count",
        ),
        (
            "decode.count",
            per_pass(&|l| l.sched.decodes as f64),
            "count",
        ),
        ("decode.us.mean", hist(Stage::Decode).mean(), "us"),
        (
            "decode.us.p99",
            hist(Stage::Decode).value_at_quantile(0.99) as f64,
            "us",
        ),
        (
            "decode.us.sum",
            hist(Stage::Decode).sum() as f64 / passes,
            "us",
        ),
        (
            "decode.redecode_us",
            hist(Stage::Redecode).sum() as f64 / passes,
            "us",
        ),
        (
            "decode.lane_busy_us",
            hist(Stage::LaneBusy).sum() as f64 / passes,
            "us",
        ),
        ("pool.reused", per_pass(&|l| l.pool.reused as f64), "count"),
        ("pool.fresh", per_pass(&|l| l.pool.fresh as f64), "count"),
        (
            "cache.hit_rate",
            per_pass(&|l| ratio(l.hits, l.hits + l.misses)),
            "ratio",
        ),
        (
            "cache.warm_hits",
            per_pass(&|l| l.sched.warm_hits as f64),
            "count",
        ),
        (
            "cache.demotions",
            per_pass(&|l| l.sched.cache_demotions as f64),
            "count",
        ),
        (
            "cache.promotions",
            per_pass(&|l| l.sched.cache_promotions as f64),
            "count",
        ),
        (
            "cache.hot_bytes",
            per_pass(&|l| l.hot_bytes as f64),
            "bytes",
        ),
        (
            "cache.warm_bytes",
            per_pass(&|l| l.warm_bytes as f64),
            "bytes",
        ),
        ("write.us.mean", hist(Stage::Write).mean(), "us"),
        (
            "write.frames",
            traced.passes[0].frames_written as f64,
            "count",
        ),
        (
            "verify.us_per_region",
            auditor.verify_region.mean_us(),
            "us",
        ),
        (
            "audit.devirtualize_us",
            auditor.devirtualize.mean_us(),
            "us",
        ),
        ("audit.read_region_us", auditor.read_region.mean_us(), "us"),
        (
            "verify.scrubs",
            per_pass(&|l| l.sched.verify_scrubs as f64),
            "count",
        ),
        (
            "multi.rounds",
            per_pass(&|l| l.multi.process_rounds as f64),
            "count",
        ),
        (
            "multi.staged_decodes",
            per_pass(&|l| l.multi.staged_decodes as f64),
            "count",
        ),
        (
            "multi.stall_us",
            per_pass(&|l| l.multi.pipeline_stall_micros as f64),
            "us",
        ),
        (
            "multi.migrations",
            per_pass(&|l| l.multi.migrations as f64),
            "count",
        ),
        ("multi.queue_wait_us", hist(Stage::QueueWait).mean(), "us"),
        (
            "sched.allocs_per_event",
            ratio(allocations, events),
            "allocs/event",
        ),
        (
            "telemetry.overhead",
            traced.events_per_s() / untraced.events_per_s(),
            "ratio",
        ),
    ]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("rtbench: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = run(&args) {
        eprintln!("rtbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut setup_times = Vec::new();
    let setup = timed_setup(args, &mut setup_times)?;
    let events = setup.trace.events.len();
    let mut failures: Vec<String> = Vec::new();
    let reference = reference_counts(setup.target, &setup.trace);
    let mut auditor = Auditor::new(&setup.corpus, &setup.population)?;

    // Passes run back to back until `--seconds` of client time have
    // passed, each on its own timed set-up. A traced run alternates
    // untraced and traced passes, so host load that drifts during the run
    // weighs on both alike and `telemetry.overhead` compares like with
    // like.
    let telemetry = Telemetry::new();
    let mut untraced = Phase::new(false, events);
    let mut traced = args.trace.then(|| Phase::new(true, events));
    let wall = Instant::now();
    let wall_limit = Duration::from_secs_f64(args.seconds * 3.0 + 20.0);
    loop {
        untraced.run_pass(args, &mut setup_times, &mut auditor, None)?;
        if let Some(traced) = &mut traced {
            traced.run_pass(args, &mut setup_times, &mut auditor, Some(&telemetry))?;
        }
        let busy = untraced.busy() + traced.as_ref().map_or(Duration::ZERO, Phase::busy);
        if busy.as_secs_f64() >= args.seconds || wall.elapsed() >= wall_limit {
            break;
        }
    }
    let setup_s = median(&mut setup_times);

    // Every pass must reproduce `replay`'s counts and the first pass's
    // exact counts.
    let exact = untraced.layers[0].exact(args.workload);
    let phases = [Some(&untraced), traced.as_ref()];
    let mut attempted = 0u64;
    for phase in phases.into_iter().flatten() {
        for (pass, layer) in phase.passes.iter().zip(&phase.layers) {
            attempted += pass.events;
            failures.extend(pass.failures.iter().cloned());
            if pass.counts != reference {
                failures.push(format!(
                    "client counts {:?} differ from replay {:?}",
                    pass.counts, reference
                ));
            }
            if layer.exact(args.workload) != exact {
                failures.push(format!(
                    "exact counts {:?} differ from the first pass {:?}",
                    layer.exact(args.workload),
                    exact
                ));
            }
        }
    }

    let e2e = end_to_end(&untraced, setup_s);
    println!(
        "workload {} seed {} passes {} events/pass {}",
        args.workload.name(),
        args.seed,
        untraced.passes.len(),
        events
    );
    for (i, pass) in untraced.passes.iter().enumerate() {
        println!(
            "pass {i} events_per_s {:.1} load_p50_us {:.1}",
            pass.events as f64 / pass.busy.as_secs_f64(),
            pass.load_p50_ns as f64 / 1e3
        );
    }
    for (name, value, unit) in &e2e {
        println!("metric {name} {value} {unit}");
    }
    println!(
        "samples load_p50_us load_p99_us {} (one per load, each the fastest of {} passes)",
        untraced.samples.load_ns.len() / untraced.passes.len(),
        untraced.passes.len()
    );
    println!(
        "defect with_config(verify: true) enables integrity: {}",
        workload::config_verify_enables_integrity(&setup.corpus)?
    );
    let exact_line: Vec<String> = exact.iter().map(|(n, v)| format!("{n}={v}")).collect();
    println!("exact {}", exact_line.join(" "));

    let reported = match &traced {
        Some(traced) => {
            let layers = per_layer(traced, &untraced, &telemetry, &auditor);
            println!("traced passes {}", traced.passes.len());
            for (name, value, unit) in &layers {
                println!("layer {name} {value} {unit}");
            }
            layers
        }
        None => e2e,
    };
    for failure in failures.iter().take(20) {
        println!("FAILED {failure}");
    }
    let metrics: Vec<String> = reported
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failures.is_empty(),
        failures.len(),
        metrics.join(", ")
    );
    Ok(())
}
