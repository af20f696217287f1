//! Output audit: the configuration memory must hold exactly the residents'
//! decoded streams and nothing else.
//!
//! For every resident on every fabric, a fresh de-virtualization of its
//! stream (on the auditor's own controller, outside the scheduler and its
//! telemetry) must equal what `read_region` reads back from the fabric, and
//! `verify_region` must pass. The whole device's popcount must equal the
//! sum of the residents' popcounts, so no bit is set outside a resident.

use crate::corpus::{Corpus, Instance};
use crate::workload::Target;
use std::collections::HashMap;
use std::time::Instant;
use vbs_arch::Device;
use vbs_core::Vbs;
use vbs_runtime::ReconfigurationController;

/// Total host time and call count of one kind of audit call.
#[derive(Debug, Clone, Copy, Default)]
pub struct CallTime {
    /// Calls made.
    pub calls: u64,
    /// Their summed duration, in nanoseconds.
    pub nanos: u64,
}

impl CallTime {
    fn time<R>(&mut self, call: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = call();
        self.nanos += start.elapsed().as_nanos() as u64;
        self.calls += 1;
        out
    }

    /// Mean duration in microseconds (0 without calls).
    pub fn mean_us(&self) -> f64 {
        if self.calls == 0 {
            return 0.0;
        }
        self.nanos as f64 / self.calls as f64 / 1e3
    }
}

/// Checks fabric contents against fresh decodes of the residents' streams.
pub struct Auditor {
    controller: ReconfigurationController,
    streams: HashMap<String, Vbs>,
    /// Time in the auditor's own `devirtualize` calls.
    pub devirtualize: CallTime,
    /// Time in `read_region` on the scheduler's configuration memory.
    pub read_region: CallTime,
    /// Time in `verify_region` on the scheduler's controller.
    pub verify_region: CallTime,
}

impl Auditor {
    /// An auditor for `population`'s instances.
    pub fn new(corpus: &Corpus, population: &[Instance]) -> Result<Auditor, String> {
        let device = Device::new(corpus.spec, 1, 1).map_err(|e| e.to_string())?;
        Ok(Auditor {
            controller: ReconfigurationController::new(device),
            streams: population
                .iter()
                .map(|i| (i.name.clone(), corpus.streams[i.stream].vbs.clone()))
                .collect(),
            devirtualize: CallTime::default(),
            read_region: CallTime::default(),
            verify_region: CallTime::default(),
        })
    }

    /// Audits every fabric of `target`.
    pub fn audit(&mut self, target: &Target) -> Result<(), String> {
        for (fabric, (scheduler, residents)) in target
            .schedulers()
            .into_iter()
            .zip(target.residents())
            .enumerate()
        {
            let controller = scheduler.manager().controller();
            if residents.len() != scheduler.manager().loaded_tasks().len() {
                return Err(format!(
                    "fabric {fabric}: {} residents but {} loaded tasks",
                    residents.len(),
                    scheduler.manager().loaded_tasks().len()
                ));
            }
            let mut resident_bits = 0usize;
            for resident in &residents {
                let vbs = self.streams.get(&resident.name).ok_or_else(|| {
                    format!("fabric {fabric}: unknown resident {}", resident.name)
                })?;
                let controller_ref = &self.controller;
                let (expected, _) = self
                    .devirtualize
                    .time(|| controller_ref.devirtualize(vbs))
                    .map_err(|e| format!("decoding {}: {e}", resident.name))?;
                let found = self
                    .read_region
                    .time(|| controller.memory().read_region(resident.region))
                    .map_err(|e| format!("reading {}: {e}", resident.name))?;
                let diff = found
                    .diff_count(&expected)
                    .map_err(|e| format!("comparing {}: {e}", resident.name))?;
                if diff != 0 {
                    return Err(format!(
                        "fabric {fabric}: job {} ({}) differs from its stream in {diff} bits",
                        resident.job, resident.name
                    ));
                }
                self.verify_region
                    .time(|| controller.verify_region(resident.region))
                    .map_err(|e| format!("verifying {}: {e}", resident.name))?;
                resident_bits += expected.popcount();
                self.controller.scratch_pool().put(expected);
            }
            let device_bits = controller.memory().store().popcount();
            if device_bits != resident_bits {
                return Err(format!(
                    "fabric {fabric}: {device_bits} bits set on the device, \
                     {resident_bits} in residents"
                ));
            }
        }
        Ok(())
    }
}
