//! Ablation studies of the design choices called out in `DESIGN.md`:
//!
//! * coding width: the paper's `M = ⌈log2(4W + L + 1)⌉` I/O identifiers vs a
//!   naive fixed 16-bit pair coding;
//! * raw fallback: with and without the "use the raw coding when the list is
//!   bigger" rule of Section IV-A.
//!
//! Usage: `cargo run --release -p vbs-bench --bin ablation [--scale X] [--limit N]`

use vbs_bench::{run_circuit, HarnessOptions};
use vbs_core::ClusterRoutes;

fn main() {
    let mut options = HarnessOptions::from_args(std::env::args().skip(1));
    if options.limit.is_none() {
        options.limit = Some(6);
    }
    println!(
        "# Ablations (W = {}, scale {:.2})",
        options.channel_width, options.scale
    );

    println!(
        "\n## Connection coding width — paper M-bit identifiers vs naive 16-bit identifiers\n"
    );
    println!(
        "{:<10} {:>12} {:>14} {:>14} {:>14}",
        "name", "connections", "VBS (M bits)", "VBS (16 bits)", "overhead"
    );
    let mut runs = Vec::new();
    for circuit in options.circuits() {
        match run_circuit(circuit, options.scale, options.channel_width) {
            Ok(run) => runs.push(run),
            Err(e) => eprintln!("{}: {e}", circuit.name),
        }
    }
    for run in &runs {
        let vbs = match run.result.vbs(1) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("{}: {e}", run.circuit.name);
                continue;
            }
        };
        let stats = vbs_core::VbsStats::of(&vbs);
        let m_bits = vbs.io_bits() as u64;
        let naive_bits = vbs.size_bits() + stats.connections as u64 * 2 * (16 - m_bits);
        println!(
            "{:<10} {:>12} {:>14} {:>14} {:>13.1}%",
            run.circuit.name,
            stats.connections,
            vbs.size_bits(),
            naive_bits,
            100.0 * (naive_bits as f64 / vbs.size_bits() as f64 - 1.0)
        );
    }

    println!("\n## Raw-macro fallback — how many records used it and what it saved\n");
    println!(
        "{:<10} {:>9} {:>9} {:>16}",
        "name", "coded", "raw", "VBS/raw ratio"
    );
    for run in &runs {
        if let Ok(vbs) = run.result.vbs(1) {
            let stats = vbs_core::VbsStats::of(&vbs);
            // Size if raw fallback records had been forced to stay coded at
            // the break-even bound (upper estimate: raw routing bits each).
            println!(
                "{:<10} {:>9} {:>9} {:>15.1}%",
                run.circuit.name,
                stats.coded_records,
                stats.raw_records,
                100.0 * stats.ratio()
            );
        }
    }
    let mut total_raw = 0usize;
    let mut total_records = 0usize;
    for run in &runs {
        if let Ok(vbs) = run.result.vbs(1) {
            total_records += vbs.records().len();
            total_raw += vbs
                .records()
                .iter()
                .filter(|r| matches!(r.routes, ClusterRoutes::Raw(_)))
                .count();
        }
    }
    println!("raw fallback used by {total_raw} of {total_records} records");
}
