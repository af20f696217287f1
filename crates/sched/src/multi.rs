//! Multi-fabric scheduling: one request stream sharded over K devices.
//!
//! [`MultiFabricScheduler`] turns a fleet of single-fabric [`Scheduler`]s
//! into one dispatcher. Each submitted load is routed to a fabric by a
//! pluggable [`ShardPolicy`] (round-robin, least-loaded, cache-affinity) and
//! joins that fabric's work queue; unloads and relocations follow the job to
//! wherever it was routed.
//!
//! A processing round runs every busy fabric's queue in fabric order on the
//! caller's thread; each fabric decodes its cache misses on demand, exactly
//! as a lone [`Scheduler`] does, which is what keeps a K=1 fleet
//! bit-identical to a plain [`Scheduler`] — the differential tests pin this
//! down. A load rejected for capacity on its assigned fabric **migrates**:
//! it is re-dispatched to a fabric it has not tried yet (chosen by the same
//! shard policy), so one saturated device sheds work to the rest of the
//! fleet instead of dropping it.
//!
//! Job ids returned by [`MultiFabricScheduler::submit`] are fleet-global;
//! outcomes are translated back to them, so callers never see per-fabric
//! ids.

use crate::pool::BitstreamPool;
use crate::scheduler::{EvacuatedJob, Outcome, RejectReason, Request, SchedMetrics, Scheduler};
use crate::shard::{FabricStatus, ShardPolicy};
use std::collections::HashMap;
use vbs_telemetry::{EventKind, Telemetry, FLEET_FABRIC};

/// Tunables of the multi-fabric dispatcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiConfig {
    /// Ignored: fleet rounds decode on demand on the caller's thread. Kept
    /// only because the `rtbench` benchmark builds `MultiConfig` by struct
    /// literal; the next benchmark change drops it.
    pub decode_workers: usize,
    /// Whether capacity-rejected loads migrate to an untried fabric.
    pub migration: bool,
    /// Ignored: there is one load path. Kept only because the `rtbench`
    /// benchmark builds `MultiConfig` by struct literal; the next benchmark
    /// change drops it.
    pub streaming: bool,
}

impl Default for MultiConfig {
    fn default() -> Self {
        MultiConfig {
            decode_workers: 1,
            migration: true,
            streaming: false,
        }
    }
}

/// Fleet-level counters (per-fabric counters live in each shard's
/// [`SchedMetrics`]). A migrated load counts once here — submitted once,
/// accepted or rejected once — while every fabric it visited counts it in
/// its own per-shard view.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct MultiMetrics {
    /// Load requests submitted to the fleet.
    pub loads_submitted: u64,
    /// Loads accepted by some fabric.
    pub loads_accepted: u64,
    /// Loads rejected by every fabric they were dispatched to.
    pub loads_rejected: u64,
    /// Re-dispatches of a capacity-rejected load to another fabric.
    pub migrations: u64,
    /// Loads accepted on a fabric other than their first choice.
    pub migrated_accepts: u64,
    /// Always 0: fleet rounds stage no decodes. Kept only because the
    /// `rtbench` benchmark reports it; the next benchmark change drops it.
    pub staged_decodes: u64,
    /// Always 0: fleet rounds never wait on a decode pool. Kept only
    /// because the `rtbench` benchmark reports it; the next benchmark
    /// change drops it.
    pub pipeline_stall_micros: u64,
    /// Processing rounds executed (≥1 per `process_pending` call).
    pub process_rounds: u64,
    /// Fabrics quarantined after going offline.
    pub quarantines: u64,
    /// Quarantined fabrics that recovered and rejoined the fleet.
    pub recoveries: u64,
    /// Residents of quarantined fabrics re-queued for re-placement on the
    /// survivors.
    pub residents_requeued: u64,
    /// Re-queued residents that landed on a surviving fabric (degraded-mode
    /// acceptance; the original load already counted in `loads_accepted`).
    pub degraded_accepts: u64,
}

impl MultiMetrics {
    /// Accepted / submitted loads, 1.0 when nothing was submitted.
    pub fn acceptance_rate(&self) -> f64 {
        if self.loads_submitted == 0 {
            return 1.0;
        }
        self.loads_accepted as f64 / self.loads_submitted as f64
    }
}

/// A load waiting for its final outcome (used to drive migration).
#[derive(Debug)]
struct PendingLoad {
    request: Request,
    task: String,
    /// `(fabric, local job)` dispatches, in order. The fabric list doubles
    /// as the set a migrating load must not retry; the local ids let a
    /// final rejection prune every id mapping the load created.
    dispatched: Vec<(usize, u64)>,
    /// Whether this is a re-placement of a resident evacuated from a
    /// quarantined fabric (books as a degraded-mode acceptance, not a
    /// fresh fleet load).
    replacement: bool,
}

impl PendingLoad {
    fn tried(&self, fabric: usize) -> bool {
        self.dispatched.iter().any(|&(f, _)| f == fabric)
    }
}

/// One request stream sharded across K fabrics (see the module docs).
#[derive(Debug)]
pub struct MultiFabricScheduler {
    fabrics: Vec<Scheduler>,
    policy: Box<dyn ShardPolicy>,
    config: MultiConfig,
    /// `(fabric, local job)` → fleet-global id for load jobs. Entries live
    /// as long as a shard can still name the job in an outcome: pruned when
    /// the job is unloaded, reported gone, or finally rejected. An
    /// *evicted* job keeps its entry until its owner unloads it (eviction
    /// is not terminal for the owner — the unload must still resolve on the
    /// right fabric, and the K=1 differential requires the shard to process
    /// it), so clients should unload jobs they saw evicted.
    local_to_global: HashMap<(usize, u64), u64>,
    /// `(fabric, local request id)` → fleet-global id for in-flight unload
    /// and relocate requests; each entry is consumed by its own outcome.
    request_tags: HashMap<(usize, u64), u64>,
    /// Global load job → its current `(fabric, local job)` home.
    route: HashMap<u64, (usize, u64)>,
    pending_loads: HashMap<u64, PendingLoad>,
    /// Per-fabric quarantine flags: a fabric found offline after a round is
    /// quarantined (no new routing, residents re-queued elsewhere) until its
    /// fault hook reports it reachable again.
    quarantined: Vec<bool>,
    /// Outcomes answered without touching any fabric (unroutable targets).
    synthesized: Vec<(u64, Outcome)>,
    next_job: u64,
    metrics: MultiMetrics,
    /// Fleet-scope telemetry (dispatcher decisions, migrations). Installed
    /// by [`Self::set_telemetry`]; a no-op registry until then.
    telemetry: Telemetry,
    /// The fleet-wide recycled decode-state pool shared by every fabric's
    /// decode cache and controller.
    pool: BitstreamPool,
}

impl MultiFabricScheduler {
    /// Creates a dispatcher over a fleet of per-fabric schedulers.
    ///
    /// Every fabric should target the same architecture spec (any fabric
    /// must be able to host any task); sizes may differ.
    ///
    /// # Panics
    ///
    /// Panics if `fabrics` is empty.
    pub fn new(
        mut fabrics: Vec<Scheduler>,
        policy: Box<dyn ShardPolicy>,
        config: MultiConfig,
    ) -> Self {
        assert!(!fabrics.is_empty(), "a fleet needs at least one fabric");
        // One buffer pool for the whole fleet: an image evicted from any
        // fabric's decode cache feeds the next decode anywhere.
        let pool = BitstreamPool::default();
        for fabric in &mut fabrics {
            fabric.set_pool(pool.clone());
        }
        let quarantined = vec![false; fabrics.len()];
        MultiFabricScheduler {
            fabrics,
            policy,
            config,
            local_to_global: HashMap::new(),
            request_tags: HashMap::new(),
            route: HashMap::new(),
            pending_loads: HashMap::new(),
            quarantined,
            synthesized: Vec::new(),
            next_job: 1,
            metrics: MultiMetrics::default(),
            telemetry: Telemetry::disabled(),
            pool,
        }
    }

    /// Installs one shared telemetry registry across the whole fleet: the
    /// dispatcher records fleet-scope events (shard decisions, migrations)
    /// under the [`FLEET_FABRIC`] tag, each per-fabric scheduler and its
    /// controller record under the fabric's index, and the shared buffer
    /// pool reports its checkout hits/misses to the same timeline.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        for (i, fabric) in self.fabrics.iter_mut().enumerate() {
            fabric.set_telemetry(telemetry.clone(), i as u16);
        }
        self.pool.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The dispatcher's telemetry handle (a shared clone).
    pub fn telemetry(&self) -> Telemetry {
        self.telemetry.clone()
    }

    /// The fleet-wide recycled-buffer pool (a shared handle).
    pub fn bitstream_pool(&self) -> BitstreamPool {
        self.pool.clone()
    }

    /// Number of fabrics in the fleet.
    pub fn fabric_count(&self) -> usize {
        self.fabrics.len()
    }

    /// Read access to one shard's scheduler.
    pub fn fabric(&self, index: usize) -> &Scheduler {
        &self.fabrics[index]
    }

    /// Mutable access to one shard's scheduler — the seam chaos drivers use
    /// to install per-fabric fault hooks and verification.
    pub fn fabric_mut(&mut self, index: usize) -> &mut Scheduler {
        &mut self.fabrics[index]
    }

    /// Whether a fabric is currently quarantined (offline and routed
    /// around).
    pub fn is_quarantined(&self, index: usize) -> bool {
        self.quarantined[index]
    }

    /// Read access to every shard.
    pub fn fabrics(&self) -> &[Scheduler] {
        &self.fabrics
    }

    /// The active shard policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Fleet-level counters so far.
    pub const fn metrics(&self) -> &MultiMetrics {
        &self.metrics
    }

    /// Per-shard scheduler counters, indexed like [`Self::fabric`].
    pub fn fabric_metrics(&self) -> Vec<SchedMetrics> {
        self.fabrics.iter().map(|f| f.metrics()).collect()
    }

    /// Advances the logical clock of every fabric.
    pub fn advance_to(&mut self, tick: u64) {
        for fabric in &mut self.fabrics {
            fabric.advance_to(tick);
        }
    }

    /// Everything resident across the fleet as `(fabric index, global job,
    /// shard-local resident info)` triples.
    pub fn residents(&self) -> Vec<(usize, u64, crate::ResidentInfo)> {
        let mut out = Vec::new();
        for (f, fabric) in self.fabrics.iter().enumerate() {
            for info in fabric.residents() {
                let global = self
                    .local_to_global
                    .get(&(f, info.job))
                    .copied()
                    .expect("every shard job was routed by this dispatcher");
                out.push((f, global, info));
            }
        }
        out
    }

    fn statuses(&self, task: &str) -> Vec<FabricStatus> {
        let status_of = |(i, s): (usize, &Scheduler)| {
            let view = s.manager().fabric_view();
            FabricStatus {
                fabric: i,
                id: view.id(),
                free_area: view.free_area(),
                total_area: view.total_area(),
                queued_loads: s.queued_loads(),
                residents: s.manager().loaded_tasks().len(),
                holds_decoded: s.holds_decoded(task),
            }
        };
        // Quarantined fabrics take no new work. If the whole fleet is down
        // the unfiltered list keeps the policy fed (the load then fails on
        // the offline fabric and is reported, not silently dropped here).
        let healthy: Vec<FabricStatus> = self
            .fabrics
            .iter()
            .enumerate()
            .filter(|&(i, _)| !self.quarantined[i])
            .map(status_of)
            .collect();
        if !healthy.is_empty() {
            return healthy;
        }
        self.fabrics.iter().enumerate().map(status_of).collect()
    }

    /// Enqueues a request, routing loads through the shard policy, and
    /// returns its fleet-global id (semantics as [`Scheduler::submit`]).
    pub fn submit(&mut self, request: Request) -> u64 {
        let global = self.next_job;
        self.next_job += 1;
        match &request {
            Request::Load { task, .. } => {
                self.metrics.loads_submitted += 1;
                let statuses = self.statuses(task);
                let pick = self.policy.choose(task, &statuses);
                let fabric = statuses[pick].fabric;
                self.telemetry.event(
                    EventKind::ShardDecision,
                    FLEET_FABRIC,
                    0,
                    global,
                    fabric as u64,
                );
                let local = self.fabrics[fabric].submit(request.clone());
                self.local_to_global.insert((fabric, local), global);
                self.route.insert(global, (fabric, local));
                self.pending_loads.insert(
                    global,
                    PendingLoad {
                        task: task.clone(),
                        request,
                        dispatched: vec![(fabric, local)],
                        replacement: false,
                    },
                );
            }
            Request::Unload { job } => match self.route.get(job).copied() {
                Some((fabric, local)) => {
                    let local_req = self.fabrics[fabric].submit(Request::Unload { job: local });
                    self.request_tags.insert((fabric, local_req), global);
                }
                None => {
                    self.synthesized
                        .push((global, Outcome::NotResident { job: *job }));
                }
            },
            Request::Relocate { job, to } => match self.route.get(job).copied() {
                Some((fabric, local)) => {
                    let local_req = self.fabrics[fabric].submit(Request::Relocate {
                        job: local,
                        to: *to,
                    });
                    self.request_tags.insert((fabric, local_req), global);
                }
                None => {
                    self.synthesized
                        .push((global, Outcome::NotResident { job: *job }));
                }
            },
        }
        global
    }

    /// Processes every queued request, migrating capacity-rejected loads
    /// until each has either landed or tried every fabric, and returns the
    /// outcomes (fleet-global ids).
    pub fn process_pending(&mut self) -> Vec<Outcome> {
        self.process_pending_tagged()
            .into_iter()
            .map(|(_, outcome)| outcome)
            .collect()
    }

    /// As [`Self::process_pending`], but each outcome is tagged with the id
    /// [`Self::submit`] returned for the request that produced it.
    pub fn process_pending_tagged(&mut self) -> Vec<(u64, Outcome)> {
        let mut results: Vec<(u64, Outcome)> = std::mem::take(&mut self.synthesized);
        loop {
            self.metrics.process_rounds += 1;
            let round = self.process_round();
            // Translate the whole round before settling anything: settling
            // prunes id mappings, and a later outcome of the same round may
            // still name the pruned job (e.g. an unload and a relocate of
            // one job in the same batch).
            let translated: Vec<(u64, Outcome)> = round
                .into_iter()
                .map(|(fabric, local_req, outcome)| {
                    // A request is tagged either by its own unload/relocate
                    // tag (consumed here) or, for loads, by the job id.
                    let global = self
                        .request_tags
                        .remove(&(fabric, local_req))
                        .or_else(|| self.local_to_global.get(&(fabric, local_req)).copied())
                        .expect("every shard request was routed by this dispatcher");
                    (global, self.translate_outcome(fabric, outcome))
                })
                .collect();
            // Probe fabric health before settling: a fabric that went
            // offline during the round is quarantined *now*, so this very
            // round's runtime rejections from it migrate to survivors
            // instead of dropping, and its evacuated residents re-queue.
            let mut more_work = self.check_fabric_health();
            for (global, outcome) in translated {
                if self.try_migrate(global, &outcome) {
                    more_work = true;
                    continue; // final outcome pending on another fabric
                }
                self.settle(global, &outcome);
                results.push((global, outcome));
            }
            if !more_work {
                break;
            }
        }
        results
    }

    /// Probes every fabric's reachability after a round. A newly offline
    /// fabric is quarantined: its residents are evacuated (bookkeeping
    /// only — the device is unreachable) and re-queued on the survivors
    /// under their original fleet-global ids. A quarantined fabric whose
    /// hook reports it reachable again is wiped ([`Scheduler`]
    /// `reset_after_recovery`) and rejoins the routing set. Returns whether
    /// any resident was re-queued (another round must run to place it).
    fn check_fabric_health(&mut self) -> bool {
        let mut requeued = false;
        for i in 0..self.fabrics.len() {
            let offline = self.fabrics[i].is_offline();
            if offline && !self.quarantined[i] {
                self.quarantined[i] = true;
                self.metrics.quarantines += 1;
                let evacuated = self.fabrics[i].evacuate();
                self.telemetry.event(
                    EventKind::Quarantine,
                    FLEET_FABRIC,
                    0,
                    i as u64,
                    evacuated.len() as u64,
                );
                for job in evacuated {
                    requeued |= self.requeue_resident(i, job);
                }
            } else if !offline && self.quarantined[i] {
                // Nothing written during the outage can be trusted, so the
                // shard rejoins empty; if the wipe itself fails the fabric
                // stays quarantined and is re-probed next round.
                if self.fabrics[i].reset_after_recovery().is_ok() {
                    self.quarantined[i] = false;
                    self.metrics.recoveries += 1;
                    self.telemetry
                        .event(EventKind::Recover, FLEET_FABRIC, 0, i as u64, 0);
                }
            }
        }
        requeued
    }

    /// Re-queues one evacuated resident of quarantined fabric `from` as a
    /// replacement load on a surviving fabric, re-using its fleet-global
    /// id. Returns whether a new dispatch was created.
    fn requeue_resident(&mut self, from: usize, job: EvacuatedJob) -> bool {
        let Some(global) = self.local_to_global.remove(&(from, job.job)) else {
            // Not routed by this dispatcher (shard driven directly).
            return false;
        };
        self.route.remove(&global);
        self.metrics.residents_requeued += 1;
        let statuses = self.statuses(&job.task);
        if statuses.iter().all(|s| self.quarantined[s.fabric]) {
            // Whole fleet down: the resident is lost until re-submitted.
            return false;
        }
        let request = Request::Load {
            task: job.task.clone(),
            priority: job.priority,
            deadline: None,
        };
        let pick = self.policy.choose(&job.task, &statuses);
        let target = statuses[pick].fabric;
        self.telemetry.event(
            EventKind::ShardDecision,
            FLEET_FABRIC,
            0,
            global,
            target as u64,
        );
        let local = self.fabrics[target].submit(request.clone());
        self.local_to_global.insert((target, local), global);
        self.route.insert(global, (target, local));
        self.pending_loads.insert(
            global,
            PendingLoad {
                task: job.task,
                request,
                dispatched: vec![(target, local)],
                replacement: true,
            },
        );
        true
    }

    /// Books the final outcome of a request in the fleet counters and
    /// prunes the id maps of jobs no shard can name again.
    fn settle(&mut self, global: u64, outcome: &Outcome) {
        if let Some(pending) = self.pending_loads.remove(&global) {
            match outcome {
                Outcome::Loaded { .. } => {
                    if pending.replacement {
                        self.metrics.degraded_accepts += 1;
                    } else {
                        self.metrics.loads_accepted += 1;
                        if pending.dispatched.len() > 1 {
                            self.metrics.migrated_accepts += 1;
                        }
                    }
                    // Mappings of the fabrics that rejected the load are no
                    // longer reachable; only the accepting one stays.
                    if let Some(&home) = self.route.get(&global) {
                        for dispatch in pending.dispatched {
                            if dispatch != home {
                                self.local_to_global.remove(&dispatch);
                            }
                        }
                    }
                }
                Outcome::Rejected { .. } => {
                    // A failed *re-placement* is not a fresh fleet
                    // rejection — the original load already counted as
                    // accepted; the gap between `residents_requeued` and
                    // `degraded_accepts` is where lost residents show.
                    if !pending.replacement {
                        self.metrics.loads_rejected += 1;
                    }
                    self.route.remove(&global);
                    for dispatch in pending.dispatched {
                        self.local_to_global.remove(&dispatch);
                    }
                }
                _ => {}
            }
        }
        // An unloaded or reported-gone job can never appear in a shard
        // outcome again: drop its route and id mapping — unless the job's
        // *load* is still pending in this very batch (an unload submitted
        // before its target was processed resolves NotResident first, while
        // the load still lands afterwards and must stay addressable).
        if let Outcome::Unloaded { job } | Outcome::NotResident { job } = outcome {
            if !self.pending_loads.contains_key(job) {
                if let Some(home) = self.route.remove(job) {
                    self.local_to_global.remove(&home);
                }
            }
        }
    }

    /// Re-dispatches a capacity-rejected load to an untried fabric. Returns
    /// whether the load migrated (its outcome is then deferred).
    fn try_migrate(&mut self, global: u64, outcome: &Outcome) -> bool {
        if !self.config.migration {
            return false;
        }
        let Some(pending) = self.pending_loads.get(&global) else {
            return false;
        };
        let migratable = match outcome {
            Outcome::Rejected {
                reason: RejectReason::NoCapacity,
                ..
            } => true,
            // A load caught in flight by an outage fails with a runtime
            // error on the dead fabric; once that fabric is quarantined
            // the load deserves a surviving fabric, not a drop.
            Outcome::Rejected {
                reason: RejectReason::Runtime(_),
                ..
            } => pending
                .dispatched
                .last()
                .is_some_and(|&(f, _)| self.quarantined[f]),
            _ => false,
        };
        if !migratable {
            return false;
        }
        let task = pending.task.clone();
        let request = pending.request.clone();
        let untried: Vec<FabricStatus> = {
            let pending = &self.pending_loads[&global];
            self.statuses(&task)
                .into_iter()
                .filter(|s| !pending.tried(s.fabric))
                .collect()
        };
        if untried.is_empty() {
            return false;
        }
        let pick = self.policy.choose(&task, &untried);
        let target = untried[pick].fabric;
        self.telemetry
            .event(EventKind::Migrate, FLEET_FABRIC, 0, global, target as u64);
        let local = self.fabrics[target].submit(request);
        self.local_to_global.insert((target, local), global);
        self.route.insert(global, (target, local));
        self.pending_loads
            .get_mut(&global)
            .expect("checked above")
            .dispatched
            .push((target, local));
        self.metrics.migrations += 1;
        true
    }

    /// Maps every shard-local id inside an outcome back to its fleet-global
    /// id.
    fn translate_outcome(&self, fabric: usize, outcome: Outcome) -> Outcome {
        let map = |id: u64| -> u64 {
            self.local_to_global
                .get(&(fabric, id))
                .copied()
                .expect("every shard job was routed by this dispatcher")
        };
        match outcome {
            Outcome::Loaded {
                job,
                handle,
                origin,
                evicted,
                cache_hit,
            } => Outcome::Loaded {
                job: map(job),
                handle,
                origin,
                evicted: evicted.into_iter().map(map).collect(),
                cache_hit,
            },
            Outcome::Rejected {
                job,
                reason,
                evicted,
            } => Outcome::Rejected {
                job: map(job),
                reason,
                evicted: evicted.into_iter().map(map).collect(),
            },
            Outcome::Unloaded { job } => Outcome::Unloaded { job: map(job) },
            Outcome::NotResident { job } => Outcome::NotResident { job: map(job) },
            Outcome::Relocated { job, origin } => Outcome::Relocated {
                job: map(job),
                origin,
            },
        }
    }

    /// One processing round: every fabric with queued requests processes
    /// its queue, in fabric order, on the caller's thread. Returns
    /// `(fabric, local request id, outcome)` triples in fabric order.
    fn process_round(&mut self) -> Vec<(usize, u64, Outcome)> {
        let mut out = Vec::new();
        for (fabric, sched) in self.fabrics.iter_mut().enumerate() {
            if sched.queued_len() == 0 {
                continue;
            }
            out.extend(
                sched
                    .process_pending_tagged()
                    .into_iter()
                    .map(|(local_req, outcome)| (fabric, local_req, outcome)),
            );
        }
        out
    }
}
