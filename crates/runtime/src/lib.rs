//! Run-time management of compressed configurations (Section II-C of the
//! paper).
//!
//! The paper's architecture (Figure 2) keeps Virtual Bit-Streams in an
//! external memory; a **reconfiguration controller** fetches the VBS of a
//! task, de-virtualizes it for the physical location chosen at run time and
//! writes the resulting raw frames into the device's configuration memory.
//! Because the VBS is position independent, the same stream can be loaded
//! anywhere the task fits (relocation).
//!
//! This crate models that run-time layer in software:
//!
//! * [`VbsRepository`] — the external memory holding the serialized VBS of
//!   every task;
//! * [`ReconfigurationController`] — fetch + decode
//!   ([`ReconfigurationController::decode_into`]) + write
//!   ([`ReconfigurationController::load_decoded`]) to the configuration
//!   memory;
//! * [`ScratchPool`] — recycled decode state (scratch arenas + staging
//!   images), so steady-state loads perform zero heap allocations;
//! * [`TaskManager`] — on-line placement of tasks on the fabric: finds a free
//!   rectangle, loads, unloads and relocates running tasks;
//! * [`placement`] — the incremental [`Occupancy`] index (bit-rows the task
//!   manager updates on every load, unload and move) and the pluggable
//!   placement policies (first-fit, best-fit, bottom-left skyline) and
//!   fragmentation metrics that query it;
//! * [`oracle`] — the rectangle-list reference model the differential
//!   tests check the index and the policies against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod controller;
mod error;
mod fault;
mod manager;
pub mod oracle;
pub mod placement;
mod pool;
mod repository;

pub use controller::{DecodeReport, ReconfigurationController};
pub use error::RuntimeError;
pub use fault::{FaultAction, FaultHook};
pub use manager::{LoadedTask, TaskHandle, TaskManager};
pub use placement::{BestFit, BottomLeftSkyline, FabricId, FirstFit, Occupancy, PlacementPolicy};
pub use pool::{ScratchPool, ScratchPoolStats};
pub use repository::VbsRepository;
