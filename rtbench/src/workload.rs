//! The three workloads: fabric layout, scheduler configuration and the
//! seeded trace each one replays.

use crate::corpus::{Corpus, Instance};
use vbs_arch::Device;
use vbs_runtime::{FabricId, FirstFit, ReconfigurationController, TaskManager, VbsRepository};
use vbs_sched::{
    CacheBudget, LeastLoaded, LruEviction, MultiConfig, MultiFabricScheduler, Scheduler,
    SchedulerConfig, Trace, TraceEvent, TraceOp,
};

/// A named workload (see `rtbench/README.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One 100×100 fabric, ~95 residents, a cache holding everything.
    Dense,
    /// One 14×14 fabric under a finite two-tier cache budget.
    Churn,
    /// Two 24×24 fabrics, least-loaded dispatch, head/tail traffic, verify on.
    Fleet,
}

/// The scheduler under test: one fabric or a fleet.
// One target lives per pass, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Target {
    /// A single-fabric scheduler.
    Single(Scheduler),
    /// A multi-fabric dispatcher.
    Fleet(MultiFabricScheduler),
}

/// Arrival process of a trace: `loads` arrivals, inter-arrival gaps and
/// residencies drawn uniformly from inclusive tick ranges.
struct Traffic {
    loads: usize,
    gap: (u64, u64),
    stay: (u64, u64),
    /// Number of head instances (0 = uniform draws over the population).
    head: usize,
    /// Share of loads drawn from the head, in parts per million.
    head_ppm: u64,
}

/// Loads per trace. Every workload replays the same number of arrivals.
const LOADS: usize = 3000;
/// Inclusive bounds on a load's priority.
const PRIORITY_LEVELS: u64 = 4;

impl Workload {
    /// Every workload, in the order the notes list them.
    pub const ALL: [Workload; 3] = [Workload::Dense, Workload::Churn, Workload::Fleet];

    /// The workload's command-line name.
    pub const fn name(self) -> &'static str {
        match self {
            Workload::Dense => "dense_100x100",
            Workload::Churn => "churn_14x14",
            Workload::Fleet => "fleet_2x24x24",
        }
    }

    /// Looks a workload up by name.
    pub fn by_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the decode cache is unbounded, which makes the decode count
    /// repeat exactly for a seed.
    pub const fn unbounded_cache(self) -> bool {
        !matches!(self, Workload::Churn)
    }

    fn traffic(self) -> Traffic {
        match self {
            // Mean gap 2, mean residency 190 ticks: ~95 residents.
            Workload::Dense => Traffic {
                loads: LOADS,
                gap: (1, 3),
                stay: (1, 379),
                head: 0,
                head_ppm: 0,
            },
            // Mean gap 2, mean residency 8 ticks: ~4 tasks wanted at once
            // on a fabric that holds about four 7×7 tasks.
            Workload::Churn => Traffic {
                loads: LOADS,
                gap: (1, 3),
                stay: (1, 15),
                head: 0,
                head_ppm: 0,
            },
            // Four head instances take ~94% of the loads.
            Workload::Fleet => Traffic {
                loads: LOADS,
                gap: (1, 6),
                stay: (1, 48),
                head: 4,
                head_ppm: 940_000,
            },
        }
    }

    /// The seeded trace: arrivals and departures over `population`, sorted
    /// by tick with departures first within a tick.
    pub fn trace(self, corpus: &Corpus, population: &[Instance], seed: u64) -> Trace {
        let traffic = self.traffic();
        let mut rng = Rng::new(seed ^ 0x7262_656e_6368_0000 ^ self as u64);
        // The head is one instance each of the first 7×7 streams, the seed
        // picking which instance: the head's streams (and so its per-load
        // cost) are the same for every seed.
        let head: Vec<usize> = (0..corpus.streams.len())
            .filter(|&s| corpus.streams[s].area() == 49)
            .take(traffic.head)
            .map(|s| {
                let instances: Vec<usize> = (0..population.len())
                    .filter(|&i| population[i].stream == s)
                    .collect();
                instances[rng.below(instances.len() as u64) as usize]
            })
            .collect();
        let tail: Vec<usize> = (0..population.len())
            .filter(|i| !head.contains(i))
            .collect();

        let mut events = Vec::with_capacity(traffic.loads * 2);
        let mut tick = 0u64;
        for job in 1..=traffic.loads as u64 {
            tick += rng.range(traffic.gap);
            let instance = if !head.is_empty() && rng.below(1_000_000) < traffic.head_ppm {
                head[rng.below(head.len() as u64) as usize]
            } else {
                tail[rng.below(tail.len() as u64) as usize]
            };
            events.push(TraceEvent {
                tick,
                op: TraceOp::Load {
                    job,
                    task: population[instance].name.clone(),
                    priority: rng.below(PRIORITY_LEVELS) as u8,
                    deadline: None,
                },
            });
            events.push(TraceEvent {
                tick: tick + rng.range(traffic.stay),
                op: TraceOp::Unload { job },
            });
        }
        events.sort_by_key(|e| match &e.op {
            TraceOp::Unload { job } => (e.tick, 0u8, *job),
            TraceOp::Swap { job, .. } => (e.tick, 1, *job),
            TraceOp::Load { job, .. } => (e.tick, 2, *job),
        });
        Trace { events }
    }

    /// A fresh scheduler (or fleet) over `repository` with an empty decode
    /// cache.
    pub fn build(self, corpus: &Corpus, repository: &VbsRepository) -> Result<Target, String> {
        let scheduler = |size: u16, fabric: u32, config: SchedulerConfig| {
            let device = Device::new(corpus.spec, size, size).map_err(|e| e.to_string())?;
            let manager =
                TaskManager::new(ReconfigurationController::new(device), repository.clone())
                    .with_policy(Box::new(FirstFit))
                    .with_fabric_id(FabricId(fabric));
            Ok::<_, String>(Scheduler::with_config(
                manager,
                Box::new(LruEviction),
                config,
            ))
        };
        Ok(match self {
            Workload::Dense => Target::Single(scheduler(
                100,
                0,
                SchedulerConfig {
                    eviction_limit: 1,
                    cache_capacity: 64,
                    ..SchedulerConfig::default()
                },
            )?),
            Workload::Churn => Target::Single(scheduler(
                14,
                0,
                SchedulerConfig {
                    eviction_limit: 2,
                    cache_capacity: 64,
                    compaction_frame_budget: 98,
                    cache_budget: churn_budget(corpus),
                    ..SchedulerConfig::default()
                },
            )?),
            Workload::Fleet => {
                let config = SchedulerConfig {
                    eviction_limit: 1,
                    ..SchedulerConfig::default()
                };
                let fabrics = vec![scheduler(24, 0, config)?, scheduler(24, 1, config)?];
                let mut fleet = MultiFabricScheduler::new(
                    fabrics,
                    Box::new(LeastLoaded),
                    MultiConfig {
                        decode_workers: 2,
                        migration: true,
                        streaming: false,
                    },
                );
                // `SchedulerConfig::verify` alone leaves the checksum
                // sidecar off, so verify is switched on per fabric.
                for i in 0..fleet.fabric_count() {
                    fleet.fabric_mut(i).set_verify(true);
                    if !fleet.fabric(i).manager().controller().integrity_enabled() {
                        return Err(format!("fabric {i}: integrity sidecar is off"));
                    }
                }
                Target::Fleet(fleet)
            }
        })
    }
}

/// Whether `SchedulerConfig { verify: true, .. }` handed to
/// `Scheduler::with_config` switches the controller's integrity sidecar on.
/// It does not (a known defect): `verify_region` then passes trivially,
/// which is why the fleet workload calls `set_verify(true)` instead.
pub fn config_verify_enables_integrity(corpus: &Corpus) -> Result<bool, String> {
    let device = Device::new(corpus.spec, 1, 1).map_err(|e| e.to_string())?;
    let manager = TaskManager::new(ReconfigurationController::new(device), VbsRepository::new());
    let config = SchedulerConfig {
        verify: true,
        ..SchedulerConfig::default()
    };
    let scheduler = Scheduler::with_config(manager, Box::new(LruEviction), config);
    Ok(scheduler.manager().controller().integrity_enabled())
}

/// The churn workload's cache budget: the hot tier holds about six 7×7
/// decoded images and the warm tier about sixteen compressed streams, well
/// below the 48-instance population's footprint.
fn churn_budget(corpus: &Corpus) -> CacheBudget {
    let decoded_7x7 = 49 * corpus.spec.raw_bits_per_macro() as u64 / 8;
    let compressed = corpus
        .streams
        .iter()
        .map(|s| s.bytes.len() as u64)
        .sum::<u64>()
        / corpus.streams.len() as u64;
    CacheBudget {
        hot_bytes: 6 * decoded_7x7,
        warm_bytes: 16 * compressed,
    }
}

/// SplitMix64: a tiny seeded generator owned by the benchmark, so the
/// workloads do not depend on any crate's random-number stream.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (n > 0; the modulo bias is below 2^-40 here).
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in the inclusive range.
    fn range(&mut self, (lo, hi): (u64, u64)) -> u64 {
        lo + self.below(hi - lo + 1)
    }
}
