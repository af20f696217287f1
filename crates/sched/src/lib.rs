//! On-line reconfiguration scheduling for Virtual Bit-Streams.
//!
//! The paper's run-time contribution is a *primitive*: one compressed,
//! position-independent stream per task that can be de-virtualized anywhere
//! the task fits. This crate builds the *system* on top of that primitive —
//! the layer a multi-tenant deployment needs once many tasks contend for one
//! fabric:
//!
//! * [`Scheduler`] — a prioritized request queue (load / unload / relocate
//!   with deadlines) over the runtime [`vbs_runtime::TaskManager`];
//! * [`EvictionPolicy`] — who leaves when the fabric is full ([`LruEviction`],
//!   [`PriorityEviction`]); eviction is cheap here because re-loading a task
//!   is just another de-virtualization;
//! * compaction — [`Scheduler::compact`] relocates resident tasks toward the
//!   bottom-left corner to fight external fragmentation, exercising the
//!   paper's fast-relocation use case at scale;
//! * [`DecodeCache`] — an LRU cache of decoded [`vbs_bitstream::TaskBitstream`]s
//!   keyed by `(task, spec)`, so repeated loads skip de-virtualization;
//! * [`BitstreamPool`] — a fleet-wide free-list of decoded-image buffers
//!   and decode scratch arenas: cache evictions recycle into it, decodes
//!   check out of it, so steady-state decoding allocates nothing;
//! * [`Trace`] / [`replay`] — a deterministic trace format, a seeded
//!   synthetic workload generator and a simulator reporting acceptance
//!   rate, fragmentation, decode time, cache hit rate and relocations;
//! * [`MultiFabricScheduler`] — one request stream sharded over K fabrics
//!   through a pluggable [`ShardPolicy`] ([`RoundRobin`], [`LeastLoaded`],
//!   [`CacheAffinity`]), with cross-fabric migration of capacity-rejected
//!   loads; [`replay_multi`] replays traces against a fleet.
//!
//! Placement is pluggable through [`vbs_runtime::PlacementPolicy`]
//! (first-fit, best-fit, bottom-left skyline) on the manager the scheduler
//! is built over.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod corpus;
mod evict;
mod fault;
mod multi;
mod pool;
mod scheduler;
mod shard;
mod sim;
mod trace;

pub use cache::{CacheBudget, CacheLookup, CacheStats, DecodeCache, InsertOutcome};
pub use corpus::{CorpusError, CorpusTask, McncCorpus};
pub use evict::{EvictionPolicy, LruEviction, PriorityEviction, ResidentInfo};
pub use fault::{FaultInjector, FaultKind, FaultPlan, FaultPlanError, Outage};
pub use multi::{MultiConfig, MultiFabricScheduler, MultiMetrics};
pub use pool::{BitstreamPool, PoolStats};
pub use scheduler::{
    EvacuatedJob, Outcome, RejectReason, Request, SchedMetrics, Scheduler, SchedulerConfig,
};
pub use shard::{
    shard_policy_by_name, CacheAffinity, FabricStatus, LeastLoaded, RoundRobin, ShardPolicy,
    SHARD_POLICY_NAMES,
};
pub use sim::{replay, replay_multi, FabricReport, MultiSimReport, ReplayTarget, SimReport};
pub use trace::{Trace, TraceError, TraceEvent, TraceOp, VariantSwapSpec, WorkloadSpec};
