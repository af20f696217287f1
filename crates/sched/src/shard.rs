//! Shard policies: which fabric of a fleet serves an incoming load.
//!
//! A [`crate::MultiFabricScheduler`] serves one prioritized request stream
//! with K devices; the shard policy is the dispatcher deciding, per load,
//! which device's work queue the request joins. Because a Virtual Bit-Stream
//! is position independent, *any* fabric of the right architecture can host
//! any task — the policy only trades off load balance against decode-cache
//! locality:
//!
//! * [`RoundRobin`] — cycle through the fabrics, ignoring state;
//! * [`LeastLoaded`] — most free area first (ties: shorter queue, lower id);
//! * [`CacheAffinity`] — prefer a fabric whose decode cache already holds
//!   the task (a load there skips de-virtualization entirely), falling back
//!   to least-loaded for cold tasks.

use std::cmp::Reverse;
use std::fmt;
use vbs_runtime::FabricId;

/// What a shard policy sees of one fabric when routing a load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricStatus {
    /// Index of the fabric within the fleet (the routing result refers to
    /// positions in the status slice; this is the fleet-wide identity).
    pub fabric: usize,
    /// The fabric id its task manager was tagged with.
    pub id: FabricId,
    /// Free macros on the device right now.
    pub free_area: u32,
    /// Total macros on the device.
    pub total_area: u32,
    /// Load requests already queued on this fabric for the current round.
    pub queued_loads: usize,
    /// Tasks currently resident on the fabric.
    pub residents: usize,
    /// Whether the fabric already holds decode state for the incoming task
    /// (hot or warm decode-cache entry).
    pub holds_decoded: bool,
}

/// A strategy routing one load request to a fabric of the fleet.
///
/// `choose` returns an index **into the status slice** (not a fabric id):
/// the scheduler may present a filtered slice, e.g. only the fabrics a
/// migrating request has not tried yet.
pub trait ShardPolicy: fmt::Debug + Send {
    /// Short policy name for logs and reports.
    fn name(&self) -> &'static str;

    /// Picks the fabric serving `task` from the (non-empty) status slice.
    fn choose(&mut self, task: &str, statuses: &[FabricStatus]) -> usize;
}

/// Cycle through the fabrics regardless of their state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RoundRobin {
    next: usize,
}

impl ShardPolicy for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn choose(&mut self, _task: &str, statuses: &[FabricStatus]) -> usize {
        let pick = self.next % statuses.len();
        self.next = self.next.wrapping_add(1);
        pick
    }
}

/// Most free area first; ties broken by shorter queue, then lower index.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeastLoaded;

/// The least-loaded choice over a status slice (shared by [`LeastLoaded`]
/// and the [`CacheAffinity`] fallback).
fn least_loaded_index(statuses: &[FabricStatus]) -> usize {
    statuses
        .iter()
        .enumerate()
        .max_by_key(|(_, s)| (s.free_area, Reverse(s.queued_loads), Reverse(s.fabric)))
        .map(|(i, _)| i)
        .expect("choose is called with a non-empty status slice")
}

impl ShardPolicy for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn choose(&mut self, _task: &str, statuses: &[FabricStatus]) -> usize {
        least_loaded_index(statuses)
    }
}

/// Prefer fabrics that already hold the task's decoded stream; fall back to
/// least-loaded when no fabric does.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheAffinity;

impl ShardPolicy for CacheAffinity {
    fn name(&self) -> &'static str {
        "cache-affinity"
    }

    fn choose(&mut self, _task: &str, statuses: &[FabricStatus]) -> usize {
        let warm: Vec<usize> = statuses
            .iter()
            .enumerate()
            .filter(|(_, s)| s.holds_decoded)
            .map(|(i, _)| i)
            .collect();
        match warm.len() {
            0 => least_loaded_index(statuses),
            1 => warm[0],
            // Several warm fabrics: least-loaded among them.
            _ => {
                let subset: Vec<FabricStatus> = warm.iter().map(|&i| statuses[i].clone()).collect();
                warm[least_loaded_index(&subset)]
            }
        }
    }
}

/// Builds a shard policy from its [`ShardPolicy::name`] string, for CLI
/// flags and config files. Returns `None` for unknown names.
pub fn shard_policy_by_name(name: &str) -> Option<Box<dyn ShardPolicy>> {
    match name {
        "round-robin" => Some(Box::<RoundRobin>::default()),
        "least-loaded" => Some(Box::new(LeastLoaded)),
        "cache-affinity" => Some(Box::new(CacheAffinity)),
        _ => None,
    }
}

/// The names accepted by [`shard_policy_by_name`].
pub const SHARD_POLICY_NAMES: &[&str] = &["round-robin", "least-loaded", "cache-affinity"];

#[cfg(test)]
mod tests {
    use super::*;

    fn status(fabric: usize, free: u32, queued: usize, warm: bool) -> FabricStatus {
        FabricStatus {
            fabric,
            id: FabricId(fabric as u32),
            free_area: free,
            total_area: 64,
            queued_loads: queued,
            residents: 0,
            holds_decoded: warm,
        }
    }

    #[test]
    fn round_robin_cycles() {
        let mut rr = RoundRobin::default();
        let statuses = vec![status(0, 1, 0, false), status(1, 1, 0, false)];
        assert_eq!(rr.choose("t", &statuses), 0);
        assert_eq!(rr.choose("t", &statuses), 1);
        assert_eq!(rr.choose("t", &statuses), 0);
    }

    #[test]
    fn least_loaded_prefers_free_area_then_queue() {
        let mut policy = LeastLoaded;
        let statuses = vec![
            status(0, 10, 0, false),
            status(1, 30, 5, false),
            status(2, 30, 2, false),
        ];
        assert_eq!(policy.choose("t", &statuses), 2);
    }

    #[test]
    fn cache_affinity_routes_to_warm_fabric() {
        let mut policy = CacheAffinity;
        let statuses = vec![
            status(0, 40, 0, false),
            status(1, 5, 3, true),
            status(2, 9, 1, true),
        ];
        // Warm beats free area; among warm fabrics, most free area wins.
        assert_eq!(policy.choose("t", &statuses), 2);
        // Cold task: least-loaded fallback.
        let cold: Vec<FabricStatus> = statuses
            .iter()
            .cloned()
            .map(|mut s| {
                s.holds_decoded = false;
                s
            })
            .collect();
        assert_eq!(policy.choose("t", &cold), 0);
    }

    #[test]
    fn names_roundtrip_through_the_factory() {
        for &name in SHARD_POLICY_NAMES {
            assert_eq!(shard_policy_by_name(name).unwrap().name(), name);
        }
        assert!(shard_policy_by_name("nope").is_none());
    }
}
