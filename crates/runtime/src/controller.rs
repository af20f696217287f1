//! The reconfiguration controller: fetch, de-virtualize, write.

use crate::error::RuntimeError;
use crate::fault::{FaultAction, FaultHook};
use crate::pool::ScratchPool;
use std::sync::Arc;
use vbs_arch::{Coord, Device, Rect};
use vbs_bitstream::{BitstreamError, ConfigMemory, TaskBitstream};
use vbs_core::{Devirtualizer, Vbs};
use vbs_telemetry::{EventKind, Stage, Telemetry, FLEET_FABRIC};

/// Timing and composition report of one de-virtualization.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeReport {
    /// Number of records expanded.
    pub records: usize,
    /// Wall-clock decode time in microseconds (saturating; a u64 of
    /// microseconds spans ~585k years, so saturation is theoretical).
    pub micros: u64,
    /// Size of the decoded raw configuration in bits.
    pub raw_bits: u64,
}

/// The run-time reconfiguration controller of Figure 2.
///
/// It owns the device's [`ConfigMemory`] and de-virtualizes Virtual
/// Bit-Streams into it at load time. Every decode runs on the caller's
/// thread with a scratch arena and staging image recycled through the
/// controller's [`ScratchPool`], so steady-state loads perform zero heap
/// allocations.
#[derive(Debug)]
pub struct ReconfigurationController {
    device: Device,
    memory: ConfigMemory,
    /// Recycled decode state (scratch arenas and staging images); shared
    /// fleet-wide when a dispatcher installs one pool on every fabric.
    pool: ScratchPool,
    /// Fabric tag stamped on this controller's decode events.
    fabric: u16,
    /// Injected fault model; `None` means a fault-free fabric.
    fault: Option<Arc<dyn FaultHook>>,
    /// Per-frame CRC sidecar for readback verification; `None` until
    /// [`ReconfigurationController::enable_integrity`].
    integrity: Option<IntegrityMap>,
}

/// The per-frame checksum sidecar behind
/// [`ReconfigurationController::verify_region`].
///
/// Checksums are recorded from the *source* image of each write (the
/// decoded task in hand), never from a readback — otherwise a corrupted
/// write would checksum its own corruption and verify clean. Region
/// operations mirror the configuration memory's semantics: loads record
/// the task's frame digests, clears record the zero-frame digest, moves
/// carry digests along and zero the vacated cells.
#[derive(Debug)]
struct IntegrityMap {
    width: u16,
    crcs: Vec<u32>,
    /// Digest of an all-zero frame of this architecture.
    zero_crc: u32,
}

impl IntegrityMap {
    fn of(memory: &ConfigMemory) -> Self {
        let (width, height) = (memory.width(), memory.height());
        let mut crcs = Vec::with_capacity(width as usize * height as usize);
        for y in 0..height {
            for x in 0..width {
                crcs.push(memory.frame(Coord::new(x, y)).crc32());
            }
        }
        let stride = memory.store().stride();
        IntegrityMap {
            width,
            crcs,
            zero_crc: vbs_bitstream::crc32_words(&vec![0u64; stride]),
        }
    }

    fn index(&self, at: Coord) -> usize {
        at.y as usize * self.width as usize + at.x as usize
    }

    fn record(&mut self, at: Coord, crc: u32) {
        let i = self.index(at);
        self.crcs[i] = crc;
    }

    fn expected(&self, at: Coord) -> u32 {
        self.crcs[self.index(at)]
    }

    /// Records the digests of a task image loaded at `origin`.
    fn record_load(&mut self, task: &TaskBitstream, origin: Coord) {
        for y in 0..task.height() {
            for x in 0..task.width() {
                let crc = task.frame(Coord::new(x, y)).crc32();
                self.record(Coord::new(origin.x + x, origin.y + y), crc);
            }
        }
    }

    /// Records a cleared region (every frame back to the zero digest).
    fn record_clear(&mut self, region: Rect) {
        for y in region.origin.y..region.origin.y + region.height {
            for x in region.origin.x..region.origin.x + region.width {
                let crc = self.zero_crc;
                self.record(Coord::new(x, y), crc);
            }
        }
    }

    /// Mirrors [`ConfigMemory::move_region`]: digests travel with their
    /// frames, vacated cells fall back to the zero digest.
    fn record_move(&mut self, from: Rect, to: Coord) {
        let mut moved = Vec::with_capacity(from.area() as usize);
        for y in 0..from.height {
            for x in 0..from.width {
                moved.push(self.expected(Coord::new(from.origin.x + x, from.origin.y + y)));
            }
        }
        self.record_clear(from);
        for y in 0..from.height {
            for x in 0..from.width {
                let crc = moved[y as usize * from.width as usize + x as usize];
                self.record(Coord::new(to.x + x, to.y + y), crc);
            }
        }
    }
}

impl ReconfigurationController {
    /// Creates a controller for `device` with a blank configuration memory
    /// and a private scratch pool.
    pub fn new(device: Device) -> Self {
        let memory = ConfigMemory::new(&device);
        ReconfigurationController {
            device,
            memory,
            pool: ScratchPool::default(),
            fabric: FLEET_FABRIC,
            fault: None,
            integrity: None,
        }
    }

    /// Replaces the controller's scratch pool — multi-fabric deployments
    /// install one shared pool so recycled decode state on any fabric feeds
    /// decodes everywhere.
    pub fn set_scratch_pool(&mut self, pool: ScratchPool) {
        self.pool = pool;
    }

    /// The controller's scratch pool (a shared handle).
    pub fn scratch_pool(&self) -> &ScratchPool {
        &self.pool
    }

    /// Installs the observability registry (onto the scratch pool) and tags
    /// this controller's decode events with `fabric`. Timing in
    /// [`DecodeReport`]s then runs on the registry's clock, so tests driving
    /// a deterministic clock see exact durations.
    pub fn set_telemetry(&mut self, telemetry: Telemetry, fabric: u16) {
        self.pool.set_telemetry(telemetry);
        self.fabric = fabric;
    }

    /// Pre-warms one scratch arena and one staging buffer for `vbs` (see
    /// [`ScratchPool::warm`]).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Decode`] when the stream header is
    /// degenerate.
    pub fn warm(&self, vbs: &Vbs) -> Result<(), RuntimeError> {
        self.pool.warm(vbs).map_err(RuntimeError::Decode)
    }

    /// The device this controller manages.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// Read access to the configuration memory.
    pub fn memory(&self) -> &ConfigMemory {
        &self.memory
    }

    /// Installs a fault model consulted around every configuration-memory
    /// mutation (see [`FaultHook`]); `None` restores the fault-free
    /// fabric.
    pub fn set_fault_hook(&mut self, hook: Option<Arc<dyn FaultHook>>) {
        self.fault = hook;
    }

    /// Whether the installed fault model reports the fabric offline. A
    /// fabric with no hook is always online.
    pub fn is_offline(&self) -> bool {
        self.fault.as_ref().is_some_and(|h| h.offline())
    }

    /// Forwards the driver's logical clock to the fault model (see
    /// [`FaultHook::on_tick`]). A no-op on fault-free fabrics.
    pub fn advance_clock(&self, tick: u64) {
        if let Some(hook) = &self.fault {
            hook.on_tick(tick);
        }
    }

    /// Switches on the per-frame checksum sidecar, snapshotting the
    /// current memory contents as the trusted state. Subsequent loads,
    /// clears and moves keep the sidecar current from their *source* data,
    /// and [`ReconfigurationController::verify_region`] compares readback
    /// against it.
    pub fn enable_integrity(&mut self) {
        if self.integrity.is_none() {
            self.integrity = Some(IntegrityMap::of(&self.memory));
        }
    }

    /// Whether the checksum sidecar is live.
    pub fn integrity_enabled(&self) -> bool {
        self.integrity.is_some()
    }

    /// Readback-verifies a region: recomputes every frame's CRC-32 from
    /// the configuration memory and compares it against the sidecar.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::FabricOffline`] when the fabric cannot be
    /// read, [`RuntimeError::Memory`] with
    /// [`BitstreamError::CrcMismatch`] naming the first corrupted frame,
    /// or [`BitstreamError::OutOfTask`]-style bounds errors. A controller
    /// without the sidecar enabled verifies trivially.
    pub fn verify_region(&self, region: Rect) -> Result<(), RuntimeError> {
        if self.is_offline() {
            return Err(RuntimeError::FabricOffline);
        }
        let Some(integrity) = &self.integrity else {
            return Ok(());
        };
        if region.origin.x as u32 + region.width as u32 > self.memory.width() as u32
            || region.origin.y as u32 + region.height as u32 > self.memory.height() as u32
        {
            return Err(RuntimeError::Memory(BitstreamError::DoesNotFit {
                origin: region.origin,
                width: region.width,
                height: region.height,
            }));
        }
        for y in region.origin.y..region.origin.y + region.height {
            for x in region.origin.x..region.origin.x + region.width {
                let at = Coord::new(x, y);
                if self.memory.frame(at).crc32() != integrity.expected(at) {
                    return Err(RuntimeError::Memory(BitstreamError::CrcMismatch { at }));
                }
            }
        }
        Ok(())
    }

    /// Consults the fault model about a region write. `Ok(Some(bit))`
    /// means "write, then corrupt this bit".
    fn gate_write(&self, region: Rect) -> Result<Option<u64>, RuntimeError> {
        if self.is_offline() {
            return Err(RuntimeError::FabricOffline);
        }
        match self.fault.as_ref().map(|h| h.on_region_write(region)) {
            None | Some(FaultAction::Pass) => Ok(None),
            Some(FaultAction::FailTransient) => Err(RuntimeError::WriteFault {
                region,
                transient: true,
            }),
            Some(FaultAction::FailPersistent) => Err(RuntimeError::WriteFault {
                region,
                transient: false,
            }),
            Some(FaultAction::Corrupt { bit }) => Ok(Some(bit)),
        }
    }

    /// Flips one seed-derived bit inside a just-written region without
    /// updating the sidecar — the injected-corruption half of
    /// [`FaultAction::Corrupt`].
    fn apply_corruption(&mut self, region: Rect, bit: u64) {
        let frame_bits = self.memory.store().spec().raw_bits_per_macro() as u64;
        let total = region.area() as u64 * frame_bits;
        if total == 0 {
            return;
        }
        let index = bit % total;
        let frame = (index / frame_bits) as u32;
        let offset = (index % frame_bits) as usize;
        let at = Coord::new(
            region.origin.x + (frame % region.width as u32) as u16,
            region.origin.y + (frame / region.width as u32) as u16,
        );
        let mut target = self.memory.frame_mut(at);
        let old = target.bit(offset);
        target.set_bit(offset, !old);
    }

    /// De-virtualizes `vbs` without writing it to the fabric, returning the
    /// raw task configuration (checked out of the scratch pool — return it
    /// with [`ScratchPool::put`] to recycle) and a timing report. Used by
    /// the decode throughput experiments and by
    /// [`ReconfigurationController::load`].
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Decode`] when the stream cannot be expanded.
    pub fn devirtualize(&self, vbs: &Vbs) -> Result<(TaskBitstream, DecodeReport), RuntimeError> {
        let mut task = self.checkout_staging(vbs);
        match self.decode_into(vbs, &mut task) {
            Ok(report) => Ok((task, report)),
            Err(e) => {
                self.pool.put(task);
                Err(e)
            }
        }
    }

    /// A pooled staging image shaped for `vbs`.
    fn checkout_staging(&self, vbs: &Vbs) -> TaskBitstream {
        self.pool
            .checkout(*vbs.spec(), vbs.width().max(1), vbs.height().max(1))
    }

    /// De-virtualizes `vbs` into a caller-provided bit-stream (reshaped in
    /// place) on a pooled scratch arena — the one decode entry point, used
    /// for first decodes and for warm-tier re-decodes alike. Zero heap
    /// allocations once the pool is warm.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Decode`] when the stream cannot be expanded;
    /// `task` then holds a partially decoded image and should be discarded
    /// (or recycled — pooled checkouts reset it anyway).
    pub fn decode_into(
        &self,
        vbs: &Vbs,
        task: &mut TaskBitstream,
    ) -> Result<DecodeReport, RuntimeError> {
        let telemetry = self.pool.telemetry();
        let start = telemetry.now();
        let devirtualizer = Devirtualizer::new(vbs)?;
        let records = vbs.records().len();
        telemetry.event(EventKind::DecodeStart, self.fabric, 0, 0, 0);
        let mut scratch = self.pool.checkout_scratch();
        let result = devirtualizer.decode_into(task, &mut scratch);
        self.pool.put_scratch(scratch);
        telemetry.record_span(Stage::LaneBusy, start);
        telemetry.event_span(
            EventKind::DecodeEnd,
            self.fabric,
            0,
            records as u64,
            0,
            start,
        );
        result?;
        Ok(DecodeReport {
            records,
            micros: telemetry.now().saturating_sub(start),
            raw_bits: task.size_bits(),
        })
    }

    /// De-virtualizes `vbs` and writes it into the configuration memory with
    /// its lower-left corner at `origin` — the full run-time load path. The
    /// staging image and every decode buffer come from the scratch pool, so
    /// a warm controller loads without a single heap allocation.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Decode`] or [`RuntimeError::Memory`] on
    /// failure; the configuration memory is left untouched in that case.
    pub fn load(&mut self, vbs: &Vbs, origin: Coord) -> Result<DecodeReport, RuntimeError> {
        let mut staging = self.checkout_staging(vbs);
        let outcome = match self.decode_into(vbs, &mut staging) {
            Ok(report) => self.write_decoded(&staging, origin).map(|()| report),
            Err(e) => Err(e),
        };
        self.pool.put(staging);
        outcome
    }

    /// The gated write path every load funnels through: consult the fault
    /// model, write, keep the sidecar current from the source image, then
    /// apply any injected corruption (which the sidecar, fed from the
    /// source, will catch on verify).
    fn write_decoded(&mut self, task: &TaskBitstream, origin: Coord) -> Result<(), RuntimeError> {
        let region = Rect::new(origin, task.width(), task.height());
        let corrupt = self.gate_write(region)?;
        self.memory
            .load_task(task, origin)
            .map_err(RuntimeError::Memory)?;
        if let Some(integrity) = &mut self.integrity {
            integrity.record_load(task, origin);
        }
        if let Some(bit) = corrupt {
            self.apply_corruption(region, bit);
        }
        Ok(())
    }

    /// Writes an already-decoded task bit-stream into the configuration
    /// memory at `origin` — the load path for every decoded image, fresh
    /// or served by a decode cache (a cache hit skips de-virtualization
    /// entirely).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Memory`] when the task sticks out of the
    /// device; the configuration memory is left untouched in that case.
    pub fn load_decoded(
        &mut self,
        task: &TaskBitstream,
        origin: Coord,
    ) -> Result<(), RuntimeError> {
        self.write_decoded(task, origin)
    }

    /// Clears a region of the configuration memory (task removal).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Memory`] when the region is out of bounds,
    /// or [`RuntimeError::FabricOffline`] when the fabric is unreachable.
    pub fn unload(&mut self, region: Rect) -> Result<(), RuntimeError> {
        if self.is_offline() {
            return Err(RuntimeError::FabricOffline);
        }
        self.memory.clear_region(region)?;
        if let Some(integrity) = &mut self.integrity {
            integrity.record_clear(region);
        }
        Ok(())
    }

    /// Relocates the configured frames of `from` so their lower-left corner
    /// lands on `to`, vacating whatever `from` no longer covers — a bulk
    /// word-arena move inside the configuration memory
    /// ([`ConfigMemory::move_region`]), the fast path of run-time relocation
    /// and compaction: no re-decode, no staging buffer, overlap-safe.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Memory`] when either rectangle is out of
    /// bounds; the memory is left untouched in that case.
    pub fn move_region(&mut self, from: Rect, to: Coord) -> Result<(), RuntimeError> {
        if self.is_offline() {
            return Err(RuntimeError::FabricOffline);
        }
        self.memory.move_region(from, to)?;
        if let Some(integrity) = &mut self.integrity {
            integrity.record_move(from, to);
        }
        Ok(())
    }

    /// Wipes the whole configuration memory (and sidecar) back to blank —
    /// the recovery path after a fabric outage, when whatever the dead
    /// fabric held can no longer be trusted.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::FabricOffline`] while the fabric is still
    /// unreachable.
    pub fn reset_memory(&mut self) -> Result<(), RuntimeError> {
        if self.is_offline() {
            return Err(RuntimeError::FabricOffline);
        }
        let all = Rect::at_origin(self.memory.width(), self.memory.height());
        self.memory.clear_region(all)?;
        if let Some(integrity) = &mut self.integrity {
            integrity.record_clear(all);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbs_arch::ArchSpec;
    use vbs_flow::CadFlow;
    use vbs_netlist::generate::SyntheticSpec;

    fn task_vbs() -> (Device, Vbs, TaskBitstream) {
        let netlist = SyntheticSpec::new("ctrl", 20, 4, 4)
            .with_seed(13)
            .build()
            .unwrap();
        let flow = CadFlow::new(9, 6)
            .unwrap()
            .with_grid(7, 7)
            .with_seed(13)
            .fast();
        let result = flow.run(&netlist).unwrap();
        let vbs = result.vbs(1).unwrap();
        let device = Device::new(ArchSpec::new(9, 6).unwrap(), 20, 12).unwrap();
        (device, vbs, result.raw_bitstream().clone())
    }

    #[test]
    fn a_corrupt_stream_reports_the_decode_error() {
        let (device, vbs, raw) = task_vbs();
        // Rebuild the stream with one record pointing at an out-of-range
        // boundary wire so decoding fails deterministically.
        let mut records = vbs.records().to_vec();
        let corrupted = records
            .iter_mut()
            .find_map(|r| match &mut r.routes {
                vbs_core::ClusterRoutes::Coded(routes) => routes.first_mut(),
                vbs_core::ClusterRoutes::Raw(_) => None,
            })
            .expect("the fixture stream has a coded record");
        corrupted.output = vbs_core::ClusterIo::Boundary {
            side: vbs_arch::Side::West,
            offset: u16::MAX,
        };
        let bad = Vbs::new(
            *vbs.spec(),
            vbs.cluster_size(),
            vbs.width(),
            vbs.height(),
            records,
        )
        .expect("positions are untouched, so construction succeeds");
        let controller = ReconfigurationController::new(device);
        let mut task = TaskBitstream::empty(*vbs.spec(), 1, 1);
        assert!(matches!(
            controller.decode_into(&bad, &mut task),
            Err(RuntimeError::Decode(_))
        ));
        // The same controller decodes a good stream bit-exactly afterwards.
        controller.decode_into(&vbs, &mut task).unwrap();
        assert_eq!(task.diff_count(&raw).unwrap(), 0);
    }

    #[test]
    fn load_places_the_task_at_the_requested_origin() {
        let (device, vbs, raw) = task_vbs();
        let mut controller = ReconfigurationController::new(device);
        controller.load(&vbs, Coord::new(5, 3)).unwrap();
        // The configuration memory region matches the decoded task.
        let region = Rect::new(Coord::new(5, 3), vbs.width(), vbs.height());
        let readback = controller.memory().read_region(region).unwrap();
        assert_eq!(readback.diff_count(&raw).unwrap(), 0);
        // Somewhere else the fabric is still blank.
        assert!(controller.memory().frame(Coord::new(0, 0)).is_empty());
        controller.unload(region).unwrap();
        assert_eq!(controller.memory().occupied_macros(), 0);
    }

    #[test]
    fn loading_out_of_bounds_fails_cleanly() {
        let (device, vbs, _) = task_vbs();
        let mut controller = ReconfigurationController::new(device);
        assert!(matches!(
            controller.load(&vbs, Coord::new(19, 11)),
            Err(RuntimeError::Memory(_))
        ));
        assert_eq!(controller.memory().occupied_macros(), 0);
    }

    #[test]
    fn repeated_loads_recycle_through_the_scratch_pool() {
        let (device, vbs, raw) = task_vbs();
        let mut controller = ReconfigurationController::new(device);
        controller.warm(&vbs).unwrap();
        let warmed = controller.scratch_pool().stats();
        assert_eq!(warmed.scratch_fresh, 1);
        assert_eq!(warmed.scratch_parked, 1);
        let mut task = TaskBitstream::empty(*vbs.spec(), 1, 1);
        for _ in 0..3 {
            controller.load(&vbs, Coord::new(1, 1)).unwrap();
            let region = Rect::new(Coord::new(1, 1), vbs.width(), vbs.height());
            let readback = controller.memory().read_region(region).unwrap();
            assert_eq!(readback.diff_count(&raw).unwrap(), 0);
            controller.unload(region).unwrap();
            controller.decode_into(&vbs, &mut task).unwrap();
            assert_eq!(task.diff_count(&raw).unwrap(), 0);
        }
        let stats = controller.scratch_pool().stats();
        assert_eq!(stats.fresh, 1, "one staging buffer serves every load");
        assert_eq!(
            stats.scratch_fresh, 1,
            "no decode may allocate a scratch after warm-up: {stats:?}"
        );
        assert!(stats.reused >= 3, "later loads recycle: {stats:?}");
    }

    #[derive(Debug, Default)]
    struct ScriptedHook {
        actions: std::sync::Mutex<std::collections::VecDeque<FaultAction>>,
        offline: std::sync::atomic::AtomicBool,
    }

    impl ScriptedHook {
        fn push(&self, action: FaultAction) {
            self.actions.lock().unwrap().push_back(action);
        }

        fn set_offline(&self, offline: bool) {
            self.offline
                .store(offline, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl FaultHook for ScriptedHook {
        fn on_region_write(&self, _region: Rect) -> FaultAction {
            self.actions
                .lock()
                .unwrap()
                .pop_front()
                .unwrap_or(FaultAction::Pass)
        }

        fn offline(&self) -> bool {
            self.offline.load(std::sync::atomic::Ordering::Relaxed)
        }
    }

    #[test]
    fn write_faults_refuse_the_load_and_leave_memory_untouched() {
        let (device, vbs, _) = task_vbs();
        let mut controller = ReconfigurationController::new(device);
        let hook = Arc::new(ScriptedHook::default());
        controller.set_fault_hook(Some(hook.clone()));

        hook.push(FaultAction::FailTransient);
        assert!(matches!(
            controller.load(&vbs, Coord::new(2, 2)),
            Err(RuntimeError::WriteFault {
                transient: true,
                ..
            })
        ));
        assert_eq!(controller.memory().occupied_macros(), 0);

        hook.push(FaultAction::FailPersistent);
        assert!(matches!(
            controller.load(&vbs, Coord::new(2, 2)),
            Err(RuntimeError::WriteFault {
                transient: false,
                ..
            })
        ));

        // With the script drained the hook passes and the load lands.
        controller.load(&vbs, Coord::new(2, 2)).unwrap();
        assert!(controller.memory().occupied_macros() > 0);
    }

    #[test]
    fn verify_catches_injected_corruption_and_a_rewrite_scrubs_it() {
        let (device, vbs, raw) = task_vbs();
        let mut controller = ReconfigurationController::new(device);
        controller.enable_integrity();
        assert!(controller.integrity_enabled());
        let hook = Arc::new(ScriptedHook::default());
        controller.set_fault_hook(Some(hook.clone()));

        let origin = Coord::new(4, 3);
        let region = Rect::new(origin, vbs.width(), vbs.height());
        hook.push(FaultAction::Corrupt { bit: 987_654_321 });
        controller.load(&vbs, origin).unwrap();
        // The sidecar recorded the intended image, so readback disagrees.
        let err = controller.verify_region(region).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Memory(BitstreamError::CrcMismatch { .. })
        ));

        // A scrub rewrite of the same image (fault-free this time) heals it.
        controller.load_decoded(&raw, origin).unwrap();
        controller.verify_region(region).unwrap();

        // Clearing and moving keep the sidecar mirrored too.
        controller.move_region(region, Coord::new(9, 1)).unwrap();
        let moved = Rect::new(Coord::new(9, 1), vbs.width(), vbs.height());
        controller.verify_region(moved).unwrap();
        controller.verify_region(region).unwrap();
        controller.unload(moved).unwrap();
        let whole = Rect::at_origin(controller.memory().width(), controller.memory().height());
        controller.verify_region(whole).unwrap();
    }

    #[test]
    fn verify_catches_silent_bit_rot() {
        let (device, vbs, _) = task_vbs();
        let mut controller = ReconfigurationController::new(device);
        controller.enable_integrity();
        let origin = Coord::new(0, 0);
        let region = Rect::new(origin, vbs.width(), vbs.height());
        controller.load(&vbs, origin).unwrap();
        controller.verify_region(region).unwrap();

        // Flip one configuration bit behind the controller's back.
        let mut frame = controller.memory.frame_mut(Coord::new(1, 1));
        let old = frame.bit(3);
        frame.set_bit(3, !old);
        let err = controller.verify_region(region).unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::Memory(BitstreamError::CrcMismatch { at }) if at == Coord::new(1, 1)
        ));
    }

    #[test]
    fn an_offline_fabric_refuses_every_operation_until_recovery() {
        let (device, vbs, _) = task_vbs();
        let mut controller = ReconfigurationController::new(device);
        controller.enable_integrity();
        controller.load(&vbs, Coord::new(1, 1)).unwrap();
        let region = Rect::new(Coord::new(1, 1), vbs.width(), vbs.height());

        let hook = Arc::new(ScriptedHook::default());
        controller.set_fault_hook(Some(hook.clone()));
        hook.set_offline(true);
        assert!(controller.is_offline());
        assert!(matches!(
            controller.load(&vbs, Coord::new(8, 1)),
            Err(RuntimeError::FabricOffline)
        ));
        assert!(matches!(
            controller.unload(region),
            Err(RuntimeError::FabricOffline)
        ));
        assert!(matches!(
            controller.move_region(region, Coord::new(8, 1)),
            Err(RuntimeError::FabricOffline)
        ));
        assert!(matches!(
            controller.verify_region(region),
            Err(RuntimeError::FabricOffline)
        ));
        assert!(matches!(
            controller.reset_memory(),
            Err(RuntimeError::FabricOffline)
        ));

        // Recovery: back online, wipe to a trusted blank state.
        hook.set_offline(false);
        controller.reset_memory().unwrap();
        assert_eq!(controller.memory().occupied_macros(), 0);
        let whole = Rect::at_origin(controller.memory().width(), controller.memory().height());
        controller.verify_region(whole).unwrap();
    }
}
