//! Fault-plane integration tests: deterministic injection through the
//! [`vbs_sched::FaultInjector`], self-healing single-fabric retries and
//! re-placement, CRC readback verification with scrubbing, and the
//! quarantine → re-placement → recovery lifecycle of a fleet losing a
//! fabric.

mod common;

use common::{fleet, scheduler};
use std::sync::Arc;
use vbs_runtime::FirstFit;
use vbs_sched::{
    FaultInjector, FaultPlan, MultiConfig, Outcome, RejectReason, Request, RoundRobin, Scheduler,
    SchedulerConfig,
};
use vbs_telemetry::{EventKind, Telemetry};

fn base_config() -> SchedulerConfig {
    SchedulerConfig {
        eviction_limit: 0,
        compaction: false,
        ..SchedulerConfig::default()
    }
}

fn hook(plan: &str) -> Arc<FaultInjector> {
    Arc::new(FaultInjector::new(
        FaultPlan::parse(plan).expect("plan parses"),
    ))
}

fn load(sched: &mut Scheduler, task: &str) -> Outcome {
    sched.submit(Request::Load {
        task: task.into(),
        priority: 1,
        deadline: None,
    });
    let outcomes = sched.process_pending();
    assert_eq!(outcomes.len(), 1);
    outcomes.into_iter().next().unwrap()
}

/// A transient write fault is retried in place and the load still lands.
#[test]
fn transient_write_fault_is_retried_and_lands() {
    let mut sched = scheduler(10, 10, 0, Box::new(FirstFit), base_config());
    let injector = hook("write 1 transient");
    sched.set_fault_hook(Some(injector.clone()));

    let outcome = load(&mut sched, "fir4");
    assert!(matches!(outcome, Outcome::Loaded { .. }), "{outcome:?}");
    let m = sched.metrics();
    assert_eq!(m.write_faults, 1);
    assert_eq!(m.write_retries, 1);
    assert_eq!(m.loads_accepted, 1);
    assert_eq!(injector.writes(), 2, "fault + successful retry");
}

/// A persistent write fault at the chosen origin steers the load to an
/// alternative placement instead of dropping it.
#[test]
fn persistent_write_fault_replaces_the_load_elsewhere() {
    let mut sched = scheduler(10, 10, 0, Box::new(FirstFit), base_config());
    sched.set_fault_hook(Some(hook("write 1 persistent")));

    match load(&mut sched, "fir4") {
        Outcome::Loaded { origin, .. } => {
            // First-fit would have placed at the origin the fault killed.
            assert_ne!(
                (origin.x, origin.y),
                (0, 0),
                "re-placement must avoid the faulted region"
            );
        }
        other => panic!("expected a re-placed load, got {other:?}"),
    }
    let m = sched.metrics();
    assert_eq!(m.write_faults, 1);
    assert_eq!(m.write_retries, 0, "persistent faults are not retried");
    assert_eq!(m.loads_accepted, 1);
}

/// Exhausting the retry budget on back-to-back transient faults rejects
/// the load with a runtime reason (after one re-placement attempt).
#[test]
fn exhausted_retries_reject_gracefully() {
    let config = SchedulerConfig {
        write_retry_limit: 1,
        ..base_config()
    };
    let mut sched = scheduler(10, 10, 0, Box::new(FirstFit), config);
    // Every early write fails: the original placement (1 + 1 retry), then
    // the re-placement attempt (1 + 1 retry) — all four bounce.
    sched.set_fault_hook(Some(hook(
        "write 1 transient\nwrite 2 transient\nwrite 3 transient\nwrite 4 transient",
    )));

    match load(&mut sched, "fir4") {
        Outcome::Rejected { reason, .. } => {
            assert!(matches!(reason, RejectReason::Runtime(_)), "{reason:?}");
        }
        other => panic!("expected rejection, got {other:?}"),
    }
    let m = sched.metrics();
    assert_eq!(m.loads_rejected, 1);
    assert_eq!(m.write_faults, 4);
    assert_eq!(m.write_retries, 2, "one retry per placement attempt");
}

/// An injected bit flip is caught by readback verification and scrubbed by
/// a rewrite; the load completes with the corruption healed.
#[test]
fn corrupt_write_is_caught_and_scrubbed() {
    let mut sched = scheduler(10, 10, 0, Box::new(FirstFit), base_config());
    sched.set_verify(true);
    sched.set_fault_hook(Some(hook("seed 7\nwrite 1 corrupt")));

    let outcome = load(&mut sched, "fir4");
    assert!(matches!(outcome, Outcome::Loaded { .. }), "{outcome:?}");
    let m = sched.metrics();
    assert_eq!(m.crc_mismatches, 1);
    assert_eq!(m.verify_scrubs, 1);
    assert_eq!(m.loads_accepted, 1);
    // The scrub healed the fabric: a whole-device verify stays clean.
    sched
        .manager()
        .controller()
        .verify_region(vbs_arch::Rect::at_origin(10, 10))
        .expect("post-scrub verify");
}

/// `SchedulerConfig { verify: true }` handed to `Scheduler::with_config`
/// switches the checksum sidecar on by itself (no `set_verify` call), so an
/// injected corruption is caught and scrubbed exactly as above.
#[test]
fn config_verify_enables_integrity_and_catches_corruption() {
    let config = SchedulerConfig {
        verify: true,
        ..base_config()
    };
    let mut sched = scheduler(10, 10, 0, Box::new(FirstFit), config);
    assert!(sched.manager().controller().integrity_enabled());
    sched.set_fault_hook(Some(hook("seed 7\nwrite 1 corrupt")));

    let outcome = load(&mut sched, "fir4");
    assert!(matches!(outcome, Outcome::Loaded { .. }), "{outcome:?}");
    let m = sched.metrics();
    assert_eq!(m.crc_mismatches, 1);
    assert_eq!(m.verify_scrubs, 1);
    sched
        .manager()
        .controller()
        .verify_region(vbs_arch::Rect::at_origin(10, 10))
        .expect("post-scrub verify");
}

/// The full fleet lifecycle: an outage quarantines the fabric, its resident
/// is re-placed on the survivor under its original fleet-global id, loads
/// caught in flight migrate instead of dropping, and recovery returns the
/// wiped fabric to the routing set — in that order on the telemetry
/// timeline.
#[test]
fn quarantine_replacement_recovery_ordering() {
    let mut multi = fleet(
        2,
        12,
        12,
        Box::new(RoundRobin::default()),
        || Box::new(FirstFit),
        base_config(),
        MultiConfig::default(),
    );
    let telemetry = Telemetry::new();
    multi.set_telemetry(telemetry.clone());

    let mut injector = FaultInjector::new(FaultPlan::parse("outage 5 100").expect("plan"));
    injector.set_telemetry(telemetry.clone(), 0);
    let injector = Arc::new(injector);
    multi
        .fabric_mut(0)
        .set_fault_hook(Some(injector.clone() as Arc<dyn vbs_runtime::FaultHook>));

    // Round-robin: "fir4" lands on fabric 0, "crc4" on fabric 1.
    let on_dead = multi.submit(Request::Load {
        task: "fir4".into(),
        priority: 1,
        deadline: None,
    });
    let on_survivor = multi.submit(Request::Load {
        task: "crc4".into(),
        priority: 1,
        deadline: None,
    });
    for (_, outcome) in multi.process_pending_tagged() {
        assert!(matches!(outcome, Outcome::Loaded { .. }), "{outcome:?}");
    }
    assert_eq!(multi.metrics().loads_accepted, 2);

    // The outage hits. A load already queued to fabric 0 rides through the
    // quarantine as a migration, and the resident is re-placed.
    multi.advance_to(5);
    injector.set_tick(5);
    let in_flight = multi.submit(Request::Load {
        task: "aes5".into(),
        priority: 1,
        deadline: None,
    });
    let outcomes = multi.process_pending_tagged();
    // Both the in-flight load and the evacuated resident end up Loaded.
    for job in [in_flight, on_dead] {
        assert!(
            outcomes
                .iter()
                .any(|(id, o)| *id == job && matches!(o, Outcome::Loaded { .. })),
            "job {job} missing from {outcomes:?}"
        );
    }
    let m = *multi.metrics();
    assert!(multi.is_quarantined(0));
    assert_eq!(m.quarantines, 1);
    assert_eq!(m.residents_requeued, 1);
    assert_eq!(m.degraded_accepts, 1);
    assert!(m.migrations >= 1, "{m:?}");
    assert_eq!(
        m.loads_accepted, 3,
        "a re-placed resident is not a fresh acceptance"
    );
    assert_eq!(m.recoveries, 0);
    // Everything lives on fabric 1 now, original ids intact.
    let residents = multi.residents();
    assert_eq!(residents.len(), 3);
    for &(fabric, global, _) in &residents {
        assert_eq!(fabric, 1, "job {global} still routed to the dead fabric");
    }
    assert!(residents.iter().any(|&(_, g, _)| g == on_dead));
    assert!(residents.iter().any(|&(_, g, _)| g == on_survivor));
    assert!(multi.fabric(0).manager().loaded_tasks().is_empty());

    // While quarantined, new loads route around fabric 0.
    let during = multi.submit(Request::Load {
        task: "fir4".into(),
        priority: 1,
        deadline: None,
    });
    let outcomes = multi.process_pending_tagged();
    assert!(outcomes
        .iter()
        .any(|(id, o)| *id == during && matches!(o, Outcome::Loaded { .. })));
    assert!(multi.fabric(0).manager().loaded_tasks().is_empty());

    // Recovery: the fabric comes back wiped and rejoins the fleet.
    multi.advance_to(100);
    injector.set_tick(100);
    multi.process_pending();
    assert!(!multi.is_quarantined(0));
    assert_eq!(multi.metrics().recoveries, 1);
    assert_eq!(
        multi
            .fabric(0)
            .manager()
            .controller()
            .memory()
            .occupied_macros(),
        0,
        "recovered fabric must start blank"
    );
    let after = multi.submit(Request::Load {
        task: "crc4".into(),
        priority: 1,
        deadline: None,
    });
    let outcomes = multi.process_pending_tagged();
    assert!(outcomes
        .iter()
        .any(|(id, o)| *id == after && matches!(o, Outcome::Loaded { .. })));

    // The timeline shows the lifecycle in order: quarantine before any
    // degraded re-placement decision, recovery last.
    let events = telemetry.events();
    let seq_of = |kind: EventKind| {
        events
            .iter()
            .find(|e| e.kind == kind)
            .map(|e| e.seq)
            .unwrap_or_else(|| panic!("no {kind:?} event in {events:?}"))
    };
    let quarantine = seq_of(EventKind::Quarantine);
    let recover = seq_of(EventKind::Recover);
    assert!(quarantine < recover, "quarantine must precede recovery");
    // The re-placement shard decision of the evacuated resident sits
    // between them.
    let replacement_decision = events
        .iter()
        .find(|e| e.kind == EventKind::ShardDecision && e.a == on_dead && e.seq > quarantine)
        .expect("re-placement routing decision");
    assert!(replacement_decision.seq < recover);
}
