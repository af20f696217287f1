//! The fleet-wide recycled decode-state pool.
//!
//! The pool itself lives in `vbs-runtime` ([`vbs_runtime::ScratchPool`]) so
//! the controllers' decodes and the scheduler layer recycle through **one**
//! free-list: staging buffers evicted from any fabric's decode cache feed
//! the next decode anywhere, and every decode parks its
//! [`vbs_core::DecodeScratch`] here. The scheduler-facing name is kept for
//! compatibility.

pub use vbs_runtime::{ScratchPool as BitstreamPool, ScratchPoolStats as PoolStats};
