//! Criterion bench of the run-time controller: de-virtualization throughput
//! of one MCNC circuit, one-shot and through the controller's pooled
//! zero-allocation decode.

use criterion::{criterion_group, criterion_main, Criterion};
use vbs_bench::run_circuit;
use vbs_bitstream::TaskBitstream;
use vbs_runtime::ReconfigurationController;

fn decode_throughput(c: &mut Criterion) {
    let circuit = vbs_netlist::mcnc::by_name("s298").expect("table entry");
    let run = run_circuit(circuit, 0.1, 20).expect("flow");
    let vbs = run.result.vbs(1).expect("encode");
    let device = run.result.device().clone();

    let mut group = c.benchmark_group("decode");
    group.sample_size(20);
    let controller = ReconfigurationController::new(device);
    group.bench_function("devirtualize", |b| {
        b.iter(|| controller.devirtualize(&vbs).expect("decode"))
    });

    // Scratch reuse: steady-state zero-allocation decode into a recycled
    // buffer.
    let mut staging = TaskBitstream::empty(*vbs.spec(), 1, 1);
    group.bench_function("decode_into (scratch reuse)", |b| {
        b.iter(|| controller.decode_into(&vbs, &mut staging).expect("decode"))
    });
    group.finish();
}

criterion_group!(benches, decode_throughput);
criterion_main!(benches);
