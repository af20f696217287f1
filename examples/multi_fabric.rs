//! Multi-fabric scheduling: one overloaded request stream sharded across a
//! fleet of four devices. The same workload runs three ways — one fabric
//! alone, four independent fabrics each facing the full stream, and the
//! four-fabric `MultiFabricScheduler` with cache-affinity sharding and
//! cross-fabric migration of capacity-rejected loads.
//!
//! Run with: `cargo run --release --example multi_fabric`

use vbs_repro::arch::{ArchSpec, Device};
use vbs_repro::flow::CadFlow;
use vbs_repro::netlist::generate::SyntheticSpec;
use vbs_repro::runtime::{
    BestFit, FabricId, ReconfigurationController, TaskManager, VbsRepository,
};
use vbs_repro::sched::{
    replay, replay_multi, CacheAffinity, LruEviction, MultiConfig, MultiFabricScheduler, Scheduler,
    SchedulerConfig, Trace, WorkloadSpec,
};

const CHANNEL_WIDTH: u16 = 9;
const LUT_SIZE: u8 = 6;
const FABRIC: (u16, u16) = (11, 11);

fn scheduler(
    repository: &VbsRepository,
    fabric: u32,
) -> Result<Scheduler, Box<dyn std::error::Error>> {
    let device = Device::new(ArchSpec::new(CHANNEL_WIDTH, LUT_SIZE)?, FABRIC.0, FABRIC.1)?;
    let manager = TaskManager::new(ReconfigurationController::new(device), repository.clone())
        .with_policy(Box::new(BestFit))
        .with_fabric_id(FabricId(fabric));
    Ok(Scheduler::with_config(
        manager,
        Box::new(LruEviction),
        SchedulerConfig {
            eviction_limit: 1,
            compaction: true,
            ..SchedulerConfig::default()
        },
    ))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Offline: implement four differently-sized tasks and store their VBS.
    let mut repository = VbsRepository::new();
    for (name, luts, edge, seed) in [
        ("fir_filter", 9usize, 4u16, 21u64),
        ("crc_engine", 8, 4, 22),
        ("aes_round", 16, 5, 23),
        ("fft_stage", 24, 6, 24),
    ] {
        let netlist = SyntheticSpec::new(name, luts, 3, 3)
            .with_seed(seed)
            .build()?;
        let result = CadFlow::new(CHANNEL_WIDTH, LUT_SIZE)?
            .with_grid(edge, edge)
            .with_seed(seed)
            .fast()
            .run(&netlist)?;
        repository.store(name, &result.vbs(1)?);
    }

    // A deterministic burst of 200 arrivals, far too much for one device.
    let trace = Trace::synthetic(&WorkloadSpec {
        tasks: vec![
            "fir_filter".into(),
            "crc_engine".into(),
            "aes_round".into(),
            "fft_stage".into(),
        ],
        loads: 200,
        mean_interarrival: 2,
        mean_duration: 30,
        priority_levels: 4,
        deadline_slack: None,
        seed: 2015,
    });
    println!(
        "replaying {} events on {}x{} fabrics\n",
        trace.len(),
        FABRIC.0,
        FABRIC.1
    );

    // One fabric alone.
    let mut single = scheduler(&repository, 0)?;
    let single_report = replay(&mut single, &trace);
    println!(
        "one fabric               {:>5.1}% acceptance",
        100.0 * single_report.acceptance_rate()
    );

    // Four independent fabrics, each replaying the full stream.
    let mut accepted = 0;
    let mut submitted = 0;
    for i in 0..4 {
        let mut solo = scheduler(&repository, i)?;
        let report = replay(&mut solo, &trace);
        accepted += report.sched.loads_accepted;
        submitted += report.sched.loads_submitted;
    }
    println!(
        "4 independent fabrics    {:>5.1}% aggregate acceptance",
        100.0 * accepted as f64 / submitted as f64
    );

    // The sharded fleet: cache-affinity routing + cross-fabric migration.
    let fabrics = (0..4)
        .map(|i| scheduler(&repository, i))
        .collect::<Result<Vec<_>, _>>()?;
    let mut fleet =
        MultiFabricScheduler::new(fabrics, Box::new(CacheAffinity), MultiConfig::default());
    let report = replay_multi(&mut fleet, &trace);
    println!(
        "sharded fleet of 4       {:>5.1}% acceptance, {} migrations\n",
        100.0 * report.acceptance_rate(),
        report.multi.migrations
    );
    println!("{report}");
    Ok(())
}
