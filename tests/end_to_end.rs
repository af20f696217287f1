//! Integration tests spanning the whole workspace: flow → raw bit-stream →
//! VBS → de-virtualization → functional verification → relocation.

use std::collections::HashMap;
use vbs_repro::arch::{ArchSpec, Coord, Device, Rect};
use vbs_repro::fabric_sim::{evaluate, evaluate_netlist, verify_against_netlist};
use vbs_repro::flow::CadFlow;
use vbs_repro::netlist::generate::SyntheticSpec;
use vbs_repro::netlist::Netlist;
use vbs_repro::runtime::{ReconfigurationController, TaskManager, VbsRepository};
use vbs_repro::vbs::{decode, Vbs, VbsStats};

fn small_netlist(seed: u64) -> Netlist {
    SyntheticSpec::new("e2e", 36, 6, 6)
        .with_seed(seed)
        .build()
        .expect("netlist generation")
}

#[test]
fn flow_vbs_roundtrip_is_bit_exact_at_finest_grain() {
    let netlist = small_netlist(1);
    let result = CadFlow::new(10, 6)
        .unwrap()
        .with_grid(8, 8)
        .with_seed(1)
        .fast()
        .run(&netlist)
        .unwrap();
    let vbs = result.vbs(1).unwrap();
    assert!(vbs.size_bits() < result.raw_bitstream().size_bits());
    let decoded = decode(&vbs).unwrap();
    assert_eq!(decoded.diff_count(result.raw_bitstream()).unwrap(), 0);
}

#[test]
fn decoded_clustered_streams_implement_the_netlist() {
    let netlist = small_netlist(2);
    let result = CadFlow::new(10, 6)
        .unwrap()
        .with_grid(8, 8)
        .with_seed(2)
        .fast()
        .run(&netlist)
        .unwrap();
    for cluster in [1u16, 2, 3, 4] {
        let vbs = result.vbs(cluster).unwrap();
        let decoded = decode(&vbs).unwrap();
        // The decoded configuration may legitimately differ bit-for-bit from
        // the original for k >= 2 (interior routes are re-derived), but it
        // must implement the same circuit: same connectivity, same logic,
        // no shorts.
        verify_against_netlist(&decoded, &netlist, result.placement())
            .unwrap_or_else(|e| panic!("cluster {cluster}: {e}"));
    }
}

#[test]
fn clustering_internalizes_connections_and_still_compresses() {
    // On the paper's large, dense circuits clustering shrinks the stream
    // further (Figure 5); on a tiny test circuit the k^2 logic payload can
    // offset that, so here we assert the structural effect (far fewer coded
    // connections) and that both grains stay below the raw size.
    let netlist = small_netlist(3);
    let result = CadFlow::paper_evaluation()
        .with_grid(8, 8)
        .with_seed(3)
        .fast()
        .run(&netlist)
        .unwrap();
    let s1 = VbsStats::of(&result.vbs(1).unwrap());
    let s2 = VbsStats::of(&result.vbs(2).unwrap());
    assert!(
        s1.ratio() < 1.0,
        "finest grain must compress (got {})",
        s1.ratio()
    );
    assert!(
        s2.ratio() < 1.0,
        "2x2 clusters must compress (got {})",
        s2.ratio()
    );
    assert!(
        s2.connections < s1.connections,
        "clustering must internalize connections ({} !< {})",
        s2.connections,
        s1.connections
    );
}

#[test]
fn functional_behaviour_survives_encode_decode() {
    let netlist = SyntheticSpec::new("func", 20, 5, 4)
        .with_seed(4)
        .with_registered_fraction(0.0)
        .build()
        .unwrap();
    let result = CadFlow::new(9, 6)
        .unwrap()
        .with_grid(6, 6)
        .with_seed(4)
        .fast()
        .run(&netlist)
        .unwrap();
    let vbs = result.vbs(2).unwrap();
    let decoded = decode(&vbs).unwrap();
    for pattern in 0u32..8 {
        let inputs: HashMap<String, bool> = (0..netlist.input_count())
            .map(|i| (format!("pi_{i}"), (pattern >> (i % 3)) & 1 == 1))
            .collect();
        let golden = evaluate_netlist(&netlist, &inputs).unwrap();
        let from_decoded = evaluate(&decoded, &netlist, result.placement(), &inputs).unwrap();
        assert_eq!(golden, from_decoded, "pattern {pattern}");
    }
}

#[test]
fn serialized_vbs_survives_storage_and_relocation() {
    let netlist = small_netlist(5);
    let result = CadFlow::new(10, 6)
        .unwrap()
        .with_grid(8, 8)
        .with_seed(5)
        .fast()
        .run(&netlist)
        .unwrap();
    let vbs = result.vbs(1).unwrap();

    // Through bytes (the external memory of Figure 2).
    let restored = Vbs::from_bytes(&vbs.to_bytes()).unwrap();
    assert_eq!(restored, vbs);

    // Through the run-time stack, at two different positions.
    let device = Device::new(ArchSpec::new(10, 6).unwrap(), 20, 18).unwrap();
    let mut repo = VbsRepository::new();
    repo.store("task", &vbs);
    let mut manager = TaskManager::new(ReconfigurationController::new(device), repo);
    let handle = manager.load_at("task", Coord::new(2, 3)).unwrap();
    let first = manager
        .controller()
        .memory()
        .read_region(Rect::new(Coord::new(2, 3), vbs.width(), vbs.height()))
        .unwrap();
    assert_eq!(first.diff_count(result.raw_bitstream()).unwrap(), 0);

    manager.relocate(handle, Coord::new(11, 9)).unwrap();
    let second = manager
        .controller()
        .memory()
        .read_region(Rect::new(Coord::new(11, 9), vbs.width(), vbs.height()))
        .unwrap();
    assert_eq!(second.diff_count(&first).unwrap(), 0);
}

#[test]
fn paper_example_constants_hold_end_to_end() {
    // The W = 5 example of Section II-B: 284 raw bits per macro, 5-bit I/O
    // identifiers, 28-connection break-even point.
    let spec = ArchSpec::paper_example();
    assert_eq!(spec.raw_bits_per_macro(), 284);
    assert_eq!(spec.io_index_bits(), 5);
    assert_eq!(spec.break_even_connections(), 28);
    // And the evaluation architecture used by every experiment binary.
    let eval = ArchSpec::paper_evaluation();
    assert_eq!(eval.channel_width(), 20);
    assert_eq!(eval.lut_size(), 6);
}

#[test]
fn mcnc_calibrated_circuit_flows_at_reduced_scale() {
    let circuit = vbs_repro::netlist::mcnc::by_name("tseng").unwrap();
    let netlist = circuit.build_scaled(0.1).unwrap();
    let edge = circuit.scaled_size(0.1);
    let result = CadFlow::paper_evaluation()
        .with_grid(edge, edge)
        .with_seed(circuit.seed())
        .fast()
        .run(&netlist)
        .unwrap();
    let stats = VbsStats::of(&result.vbs(1).unwrap());
    assert!(
        stats.ratio() < 0.8,
        "MCNC-calibrated circuits compress well: {stats}"
    );
    verify_against_netlist(result.raw_bitstream(), &netlist, result.placement()).unwrap();
}
