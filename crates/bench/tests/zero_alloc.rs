//! Allocation-budget regression tests for the decode hot path, measured
//! with the counting global allocator.
//!
//! Pinned guarantees:
//!
//! * steady-state `decode_into` (warm scratch, recycled buffer) performs
//!   **zero** heap allocations per load;
//! * steady-state loads through the controller —
//!   `ReconfigurationController::decode_into` + `load_decoded` on the
//!   controller's warm [`vbs_runtime::ScratchPool`], and the pooled
//!   `load` — perform zero allocations per load, and the pool reports
//!   exactly one fresh scratch after warm-up;
//! * the **warm-tier re-decode** (the controller's `decode_into`
//!   re-expanding a held stream into the arena a decode cache keeps) is
//!   allocation-free;
//! * steady-state loads with a **live telemetry registry** installed
//!   (decode spans, latency histograms and timeline events recorded on
//!   every load) stay at zero allocations — recording is relaxed atomics
//!   and preallocated ring slots;
//! * a **cold** decode pre-reserves its buffers from the VBS header, so the
//!   first decode stays within a small per-buffer allocation budget instead
//!   of growing buffers incrementally;
//! * a **shape-cycling** task mix (alternating tall/wide/larger rectangles)
//!   also stays at zero steady-state allocations, through both direct
//!   [`TaskBitstream::reset`] reshapes and pool recycling — the flat
//!   [`vbs_bitstream::FrameStore`] arena reshapes in place once its word
//!   capacity covers the largest shape seen, where the legacy per-frame
//!   layout allocated one `Vec` per frame whenever the mix grew;
//! * a whole **placement step** on a fragmented 100×100 fabric with ~95
//!   residents allocates nothing once warm: every placement policy's
//!   search, the occupancy-index update on load, unload and relocation, the
//!   fragmentation/utilization sample, and the cache-key spec lookup of a
//!   cache hit.
//!
//! Everything runs inside one `#[test]` because the counters are
//! process-global and the harness runs tests concurrently.

use vbs_bench::{allocations, CountingAllocator};
use vbs_bitstream::TaskBitstream;
use vbs_core::{decode_into, DecodeScratch};
use vbs_runtime::{
    BestFit, BottomLeftSkyline, FirstFit, PlacementPolicy, ReconfigurationController, TaskManager,
};
use vbs_sched::BitstreamPool;
use vbs_telemetry::{Stage, Telemetry};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

#[test]
fn decode_hot_path_allocation_budget() {
    let repository = vbs_bench::sched_workload::sched_repository();
    let vbs = repository.fetch("fft_stage").expect("workload task");
    let device = vbs_bench::sched_workload::sched_device(11, 11);

    // --- Cold decode: one allocation per buffer, thanks to the header
    // pre-reserve (regression for incremental Vec/HashMap growth: without
    // reservation this is hundreds of allocations).
    let mut scratch = DecodeScratch::new();
    let mut staging = TaskBitstream::empty(*vbs.spec(), vbs.width(), vbs.height());
    let before = allocations();
    decode_into(&vbs, &mut staging, &mut scratch).expect("decode");
    let cold = allocations() - before;
    assert!(
        cold <= 24,
        "cold decode allocated {cold} times; the scratch has ~10 buffers and \
         each must allocate at most once (pre-reserved from the VBS header)"
    );

    // --- Steady state: zero allocations per load, across repeats.
    for _ in 0..2 {
        decode_into(&vbs, &mut staging, &mut scratch).expect("decode");
    }
    let before = allocations();
    for _ in 0..50 {
        decode_into(&vbs, &mut staging, &mut scratch).expect("decode");
    }
    let steady = allocations() - before;
    assert_eq!(
        steady, 0,
        "steady-state decode_into must not allocate (got {steady} over 50 loads)"
    );

    // --- The controller's load path: `decode_into` on the pooled scratch
    // into a reused staging image, then `load_decoded`. After warm-up
    // (the explicit `warm` plus two loads), zero allocations per load.
    let mut controller = ReconfigurationController::new(device);
    let origin = vbs_arch::Coord::new(2, 3);
    controller.warm(&vbs).expect("warm");
    for _ in 0..2 {
        controller.decode_into(&vbs, &mut staging).expect("decode");
        controller.load_decoded(&staging, origin).expect("load");
    }
    let before = allocations();
    for _ in 0..50 {
        controller.decode_into(&vbs, &mut staging).expect("decode");
        controller.load_decoded(&staging, origin).expect("load");
    }
    let steady = allocations() - before;
    assert_eq!(
        steady, 0,
        "steady-state decode_into + load_decoded must not allocate (got {steady} over 50 loads)"
    );
    assert!(controller.memory().occupied_macros() > 0);

    // --- The warm-tier re-decode: a decode cache demoted the stream's
    // arena, and the next hit re-expands it through the same pooled
    // `decode_into` into the arena the cache hands back.
    let mut arena = TaskBitstream::empty(*vbs.spec(), 1, 1);
    controller.decode_into(&vbs, &mut arena).expect("decode");
    let before = allocations();
    for _ in 0..50 {
        controller.decode_into(&vbs, &mut arena).expect("redecode");
    }
    let steady = allocations() - before;
    assert_eq!(
        steady, 0,
        "warm re-decode must not allocate (got {steady} over 50 re-decodes)"
    );

    // --- The pooled `load`: staging image and scratch both checked out of
    // the controller's pool per load.
    for _ in 0..2 {
        controller.load(&vbs, origin).expect("load");
    }
    let before = allocations();
    for _ in 0..50 {
        controller.load(&vbs, origin).expect("load");
    }
    let steady = allocations() - before;
    assert_eq!(
        steady, 0,
        "steady-state pooled load must not allocate (got {steady} over 50 loads)"
    );
    let stats = controller.scratch_pool().stats();
    assert_eq!(
        stats.scratch_fresh, 1,
        "after warm-up the pool holds exactly one scratch: {stats:?}"
    );
    assert_eq!(
        stats.fresh, 1,
        "one staging buffer serves every pooled load: {stats:?}"
    );

    // --- Telemetry recording on the hot path: install a *live* registry
    // and repeat the pooled loads. Histogram recording is a few relaxed
    // atomic bumps, event recording writes into the ring's preallocated
    // slots, spans clone an Arc — so the load path stays at zero
    // steady-state allocations while every load leaves decode spans and
    // events on the timeline.
    let telemetry = Telemetry::new();
    controller.set_telemetry(telemetry.clone(), 0);
    for _ in 0..2 {
        controller.load(&vbs, origin).expect("load");
    }
    let recorded_before = telemetry.ring_stats().recorded;
    let lane_busy_before = telemetry.histogram(Stage::LaneBusy).count();
    let before = allocations();
    for _ in 0..50 {
        controller.load(&vbs, origin).expect("load");
    }
    let steady = allocations() - before;
    assert_eq!(
        steady, 0,
        "telemetry recording must keep the load path allocation-free \
         (got {steady} over 50 instrumented loads)"
    );
    let recorded = telemetry.ring_stats().recorded - recorded_before;
    assert!(
        recorded >= 100,
        "each instrumented load leaves decode start/end events (got {recorded})"
    );
    assert!(
        telemetry.histogram(Stage::LaneBusy).count() > lane_busy_before,
        "instrumented loads record decode busy spans"
    );

    // --- Shape-cycling reshapes: alternating tall/wide/larger rectangles
    // through one buffer must not allocate once the arena has grown to the
    // largest word count of the cycle.
    let spec = *vbs.spec();
    let mut buffer = TaskBitstream::empty(spec, 1, 1);
    let shapes = [(2u16, 9u16), (9, 2), (3, 6), (6, 3), (4, 4), (1, 12)];
    for &(w, h) in &shapes {
        buffer.reset(spec, w, h);
    }
    let before = allocations();
    for _ in 0..25 {
        for &(w, h) in &shapes {
            buffer.reset(spec, w, h);
        }
    }
    let steady = allocations() - before;
    assert_eq!(
        steady, 0,
        "shape-cycling TaskBitstream::reset must not allocate (got {steady})"
    );

    // --- Shape-cycling decode through pool recycling: every staging buffer
    // is checked out of a one-buffer pool, decoded into (different task
    // shape every load) and recycled. Pool hit = zero allocations per load
    // regardless of frame count.
    let mix: Vec<_> = ["fir_filter", "aes_round", "fft_stage"]
        .iter()
        .map(|name| repository.fetch(name).expect("workload task"))
        .collect();
    let pool = BitstreamPool::new(1);
    pool.put(TaskBitstream::empty(spec, 1, 1));
    let cycle = |rounds: usize, scratch: &mut DecodeScratch| {
        for i in 0..rounds * mix.len() {
            let vbs = &mix[i % mix.len()];
            let mut staging = pool.checkout(*vbs.spec(), vbs.width(), vbs.height());
            decode_into(vbs, &mut staging, scratch).expect("decode");
            pool.put(staging);
        }
    };
    cycle(2, &mut scratch);
    let before = allocations();
    cycle(10, &mut scratch);
    let steady = allocations() - before;
    assert_eq!(
        steady, 0,
        "shape-cycling pooled decode must not allocate (got {steady} over 30 loads)"
    );
    let stats = pool.stats();
    assert_eq!(
        stats.fresh, 0,
        "every checkout must hit the recycled buffer"
    );

    placement_step_allocation_budget(&repository);
}

/// A scheduler step's placement work on a fragmented 100×100 fabric with
/// ~95 residents: after one warm-up round, none of it allocates.
fn placement_step_allocation_budget(repository: &vbs_runtime::VbsRepository) {
    let names = ["fir_filter", "crc_engine", "aes_round", "fft_stage"];
    let device = vbs_bench::sched_workload::sched_device(100, 100);
    let mut manager = TaskManager::new(ReconfigurationController::new(device), repository.clone());
    let decoded: Vec<TaskBitstream> = names
        .iter()
        .map(|name| {
            let vbs = repository.fetch(name).expect("workload task");
            manager.controller().devirtualize(&vbs).expect("decode").0
        })
        .collect();
    // 190 first-fit loads, then every other one unloaded: ~95 residents
    // with holes all over the fabric.
    let mut handles = Vec::new();
    for i in 0..190 {
        let task = &decoded[i % decoded.len()];
        let origin = manager
            .find_free_region(task.width(), task.height())
            .expect("the fabric has room");
        handles.push(
            manager
                .load_decoded_at(names[i % names.len()], task, origin)
                .expect("load"),
        );
    }
    for handle in handles.iter().skip(1).step_by(2) {
        manager.unload(*handle).expect("unload");
    }
    let residents: Vec<vbs_arch::Rect> = manager.loaded_tasks().iter().map(|t| t.region).collect();
    assert_eq!(residents.len(), 95);
    let policies: [&dyn PlacementPolicy; 3] = [&FirstFit, &BestFit, &BottomLeftSkyline];

    let mut index = manager.occupancy().clone();
    let mut step = |manager: &mut TaskManager| {
        let mut found = 0;
        for policy in policies {
            for task in &decoded {
                found += policy
                    .place(task.width(), task.height(), manager.occupancy())
                    .is_some() as usize;
            }
        }
        // Index upkeep: each resident's region freed (unload) and taken
        // again (load) on a copy of the index, and one resident moved to
        // the fabric's top-right corner and back through the manager.
        for region in &residents {
            index.clear(region);
            index.settle();
            index.mark(region);
            index.settle();
        }
        let (handle, region) = (handles[0], residents[0]);
        let corner = vbs_arch::Coord::new(100 - region.width, 100 - region.height);
        manager.relocate(handle, corner).expect("relocate");
        manager
            .relocate(handle, region.origin)
            .expect("relocate back");
        // The per-request sample and a cache hit's key lookup.
        let occupancy = manager.occupancy();
        let sample = occupancy.fragmentation()
            + occupancy.free_area() as f64 / occupancy.total_area() as f64;
        let spec = manager.repository().spec(names[0]).expect("stored stream");
        (found, sample, spec)
    };
    step(&mut manager);
    let before = allocations();
    let (found, sample, _) = step(&mut manager);
    let steady = allocations() - before;
    assert_eq!(
        steady,
        0,
        "a placement step (3 policies x 4 shapes, {} index updates, 2 relocations, \
         1 sample, 1 spec lookup) must not allocate, got {steady}",
        2 * residents.len()
    );
    assert_eq!(found, 12, "every policy finds room for every task");
    assert!(sample > 0.0);
    assert_eq!(index.free_area(), manager.occupancy().free_area());
}
