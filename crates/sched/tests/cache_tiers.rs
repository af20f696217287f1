//! Property suite for the two-tier byte-budgeted decode cache.
//!
//! Three properties pin the tiering design:
//!
//! * **Legacy parity** — with both byte budgets unbounded, the tiered
//!   cache is *bit-identical* to the classic count-capped LRU it replaced:
//!   same hit/miss stream, same eviction victims (dropped outright, never
//!   demoted), and the warm tier never forms. A Vec-based reference model
//!   replays every operation alongside the real cache.
//! * **Budget safety** — under any finite budget, after *every* operation
//!   each tier's resident bytes stay within its budget.
//! * **Budget invariance** — replaying a workload through the scheduler
//!   under any cache budget produces the same accepted/rejected/eviction/
//!   relocation counters and the same final configuration memory as the
//!   unbounded run; budgets trade only decode time for bytes.

mod common;

use common::{scheduler, TASKS};
use proptest::prelude::*;
use std::sync::Arc;
use vbs_arch::{ArchSpec, Coord, Rect};
use vbs_bitstream::TaskBitstream;
use vbs_runtime::{BestFit, FirstFit};
use vbs_sched::{
    CacheBudget, CacheLookup, DecodeCache, Outcome, Request, Scheduler, SchedulerConfig, Trace,
    WorkloadSpec,
};

/// A decoded stream carrying its name index as a frame bit, so eviction
/// victims can be identified from the `Arc` the cache hands back.
fn task(idx: usize) -> Arc<TaskBitstream> {
    let mut t = TaskBitstream::empty(ArchSpec::paper_example(), 2, 2);
    t.frame_mut(Coord::new(0, 0)).set_bit(idx, true);
    Arc::new(t)
}

/// Recovers the name index [`task`] planted.
fn idx_of(t: &TaskBitstream) -> usize {
    (0..16)
        .find(|&i| t.frame(Coord::new(0, 0)).bit(i))
        .expect("fixture bit present")
}

/// The pre-tiering cache, as a reference model: a flat list of
/// `(name index, last-used stamp)` under a count cap.
struct LruModel {
    capacity: usize,
    entries: Vec<(usize, u64)>,
    clock: u64,
    hits: u64,
    misses: u64,
}

impl LruModel {
    fn new(capacity: usize) -> Self {
        LruModel {
            capacity,
            entries: Vec::new(),
            clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Returns whether the lookup hits.
    fn get(&mut self, idx: usize) -> bool {
        self.clock += 1;
        let clock = self.clock;
        if let Some(entry) = self.entries.iter_mut().find(|(i, _)| *i == idx) {
            entry.1 = clock;
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Returns the name indices the insert displaces, in displacement order.
    fn insert(&mut self, idx: usize) -> Vec<usize> {
        if self.capacity == 0 {
            return vec![idx];
        }
        self.clock += 1;
        let clock = self.clock;
        if let Some(entry) = self.entries.iter_mut().find(|(i, _)| *i == idx) {
            entry.1 = clock;
            return vec![idx]; // the replaced arena of the same name
        }
        let mut displaced = Vec::new();
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(pos, _)| pos)
                .expect("non-empty at cap");
            displaced.push(self.entries.swap_remove(victim).0);
        }
        self.entries.push((idx, clock));
        displaced
    }
}

proptest! {
    /// Unbounded budgets = the classic LRU, operation for operation:
    /// identical hit/miss streams, identical victims, and the warm tier
    /// never materializes.
    #[test]
    fn unbounded_tiered_cache_is_bit_identical_to_classic_lru(
        capacity in 1usize..5,
        ops in proptest::collection::vec((0u8..2, 0usize..6), 1..60),
    ) {
        let spec = ArchSpec::paper_example();
        let mut cache = DecodeCache::new(capacity);
        let mut model = LruModel::new(capacity);
        prop_assert!(cache.budget().is_unbounded());
        for &(op, idx) in &ops {
            if op == 0 {
                let lookup = cache.get(&format!("t{idx}"), &spec);
                match (lookup, model.get(idx)) {
                    (CacheLookup::Hot(t), true) => prop_assert_eq!(idx_of(&t), idx),
                    (CacheLookup::Miss, false) => {}
                    (lookup, hit) => prop_assert!(
                        false,
                        "divergence on get t{}: tiered {:?}, model hit={}",
                        idx, lookup, hit
                    ),
                }
            } else {
                let outcome =
                    cache.insert(&format!("t{idx}"), spec, task(idx), vec![0xAB; 16], 10);
                let displaced: Vec<usize> =
                    outcome.displaced.iter().map(|t| idx_of(t)).collect();
                prop_assert_eq!(displaced, model.insert(idx), "victims diverge on t{}", idx);
                prop_assert_eq!(outcome.demoted, 0);
                prop_assert_eq!(outcome.dropped, 0);
                prop_assert!(!outcome.promoted);
            }
            let stats = cache.stats();
            prop_assert_eq!(stats.hits, model.hits);
            prop_assert_eq!(stats.misses, model.misses);
            prop_assert_eq!(stats.entries, model.entries.len());
            prop_assert_eq!(stats.warm_entries, 0, "warm tier must never form");
            prop_assert_eq!(stats.warm_hits, 0);
            prop_assert_eq!(stats.demotions, 0);
            prop_assert_eq!(stats.promotions, 0);
        }
    }

    /// After every operation, every finite tier budget holds: hot bytes
    /// within the hot budget, warm bytes within the warm budget.
    #[test]
    fn resident_bytes_stay_within_finite_budgets(
        hot_budget in 1u64..4096,
        warm_budget in 1u64..512,
        ops in proptest::collection::vec((0u8..2, 0usize..6, 1usize..128), 1..60),
    ) {
        let spec = ArchSpec::paper_example();
        let budget = CacheBudget {
            hot_bytes: hot_budget,
            warm_bytes: warm_budget,
        };
        let mut cache = DecodeCache::with_budget(3, budget);
        for &(op, idx, len) in &ops {
            if op == 0 {
                cache.get(&format!("t{idx}"), &spec);
            } else {
                cache.insert(&format!("t{idx}"), spec, task(idx), vec![0xCD; len], 10 + len as u64);
            }
            let stats = cache.stats();
            prop_assert!(
                stats.hot_bytes <= hot_budget,
                "hot tier over budget: {} > {} after {:?}",
                stats.hot_bytes, hot_budget, (op, idx, len)
            );
            prop_assert!(
                stats.warm_bytes <= warm_budget,
                "warm tier over budget: {} > {} after {:?}",
                stats.warm_bytes, warm_budget, (op, idx, len)
            );
            prop_assert_eq!(stats.resident_bytes(), stats.hot_bytes + stats.warm_bytes);
        }
    }

    /// Cache budgets are invisible to scheduling: any budget replays a
    /// workload to the same accepted/rejected/eviction/relocation counters
    /// and the same final configuration memory as the unbounded cache,
    /// while honoring the budget.
    #[test]
    fn any_budget_replays_bit_identically_to_unbounded(
        seed in 0u64..1_000_000,
        loads in 8usize..40,
        hot_kib in 1u64..64,
        warm_kib in 1u64..16,
    ) {
        let trace = Trace::synthetic(&WorkloadSpec {
            tasks: TASKS.iter().map(|t| t.0.to_string()).collect(),
            loads,
            mean_interarrival: 3,
            mean_duration: 24,
            priority_levels: 4,
            deadline_slack: Some(40),
            seed,
        });
        let base = SchedulerConfig {
            eviction_limit: 1,
            compaction: true,
            ..SchedulerConfig::default()
        };
        let budget = CacheBudget {
            hot_bytes: hot_kib * 1024,
            warm_bytes: warm_kib * 1024,
        };
        let budgeted_cfg = SchedulerConfig {
            cache_budget: budget,
            ..base
        };
        let mut unbounded = scheduler(11, 11, 0, Box::new(BestFit), base);
        let mut budgeted = scheduler(11, 11, 0, Box::new(BestFit), budgeted_cfg);
        let u = vbs_sched::replay(&mut unbounded, &trace);
        let b = vbs_sched::replay(&mut budgeted, &trace);

        let pinned = |r: &vbs_sched::SimReport| (
            r.sched.loads_submitted,
            r.sched.loads_accepted,
            r.sched.loads_rejected,
            r.sched.deadline_missed,
            r.sched.evictions,
            r.sched.relocations,
        );
        prop_assert_eq!(pinned(&u), pinned(&b), "budget changed scheduling behavior");
        prop_assert!(b.cache.hot_bytes <= budget.hot_bytes);
        prop_assert!(b.cache.warm_bytes <= budget.warm_bytes);
        // The budgeted hot tier is always a subset of the unbounded one
        // (demotion only removes), so hot hits can only shrink and decodes
        // (which warm re-decodes count toward) can only grow.
        prop_assert!(b.cache.hits <= u.cache.hits, "hot hits grew under a budget");
        prop_assert!(b.sched.decodes >= u.sched.decodes, "decodes shrank under a budget");
        prop_assert_eq!(
            b.cache.warm_hits, b.sched.warm_hits,
            "scheduler and cache warm-hit counters disagree"
        );

        let image = |sched: &Scheduler| {
            let device = sched.manager().controller().device();
            sched
                .manager()
                .controller()
                .memory()
                .read_region(Rect::at_origin(device.width(), device.height()))
                .expect("full-device read")
        };
        prop_assert_eq!(
            image(&unbounded).diff_count(&image(&budgeted)).expect("same devices"),
            0,
            "final configuration memories diverge under a cache budget"
        );
    }
}

/// Cache evictions feed the fleet-wide buffer pool, and subsequent decodes
/// draw from it instead of allocating.
#[test]
fn cache_evictions_recycle_into_the_pool() {
    // A 1-entry cache forces an eviction on every distinct decode.
    let config = SchedulerConfig {
        eviction_limit: 1,
        compaction: false,
        cache_capacity: 1,
        ..SchedulerConfig::default()
    };
    let mut sched = scheduler(12, 12, 0, Box::new(FirstFit), config);
    let mut jobs = Vec::new();
    for (round, task) in ["fir4", "crc4", "fir4", "crc4"].iter().enumerate() {
        sched.advance_to(round as u64 * 10);
        let job = sched.submit(Request::Load {
            task: (*task).into(),
            priority: 1,
            deadline: None,
        });
        for (id, outcome) in sched.process_pending_tagged() {
            if id == job {
                assert!(matches!(outcome, Outcome::Loaded { .. }), "{outcome:?}");
            }
        }
        jobs.push(job);
        // Unload immediately so the decoded image's only owner is the cache
        // and eviction can reclaim the buffer.
        sched.submit(Request::Unload { job });
        sched.process_pending();
    }
    let stats = sched.bitstream_pool().stats();
    assert!(
        stats.recycled >= 2,
        "each cache eviction recycles a buffer: {stats:?}"
    );
    assert!(
        stats.reused >= 2,
        "later decodes reuse recycled buffers: {stats:?}"
    );
}
