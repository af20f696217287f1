//! On-line task management: placing, loading, relocating and evicting
//! hardware tasks on the fabric at run time.

use crate::controller::ReconfigurationController;
use crate::error::RuntimeError;
use crate::placement::{FabricId, FabricView, FirstFit, PlacementPolicy};
use crate::pool::ScratchPool;
use crate::repository::VbsRepository;
use vbs_arch::{Coord, Rect};
use vbs_bitstream::{BitstreamError, TaskBitstream};

/// Identifier of a loaded task instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskHandle(pub u64);

/// A task currently configured on the fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadedTask {
    /// Handle identifying this instance.
    pub handle: TaskHandle,
    /// Name of the task in the repository.
    pub name: String,
    /// Region of the fabric the task occupies.
    pub region: Rect,
}

/// The on-line manager: keeps track of which rectangles of the fabric are
/// busy, picks a position for each incoming task through a pluggable
/// [`PlacementPolicy`] (first-fit bottom-left by default) and drives the
/// [`ReconfigurationController`] to load, unload and relocate tasks.
/// Relocation reuses the *same* Virtual Bit-Stream — no offline
/// re-implementation is needed, which is the head-line capability of the
/// paper.
#[derive(Debug)]
pub struct TaskManager {
    controller: ReconfigurationController,
    repository: VbsRepository,
    loaded: Vec<LoadedTask>,
    next_handle: u64,
    policy: Box<dyn PlacementPolicy>,
    fabric_id: FabricId,
}

impl TaskManager {
    /// Creates a manager over a controller and a task repository, placing
    /// with [`FirstFit`] and describing fabric 0.
    pub fn new(controller: ReconfigurationController, repository: VbsRepository) -> Self {
        TaskManager {
            controller,
            repository,
            loaded: Vec::new(),
            next_handle: 1,
            policy: Box::new(FirstFit),
            fabric_id: FabricId::default(),
        }
    }

    /// Replaces the placement policy used by [`TaskManager::load`].
    pub fn with_policy(mut self, policy: Box<dyn PlacementPolicy>) -> Self {
        self.policy = policy;
        self
    }

    /// Tags this manager's device as one fabric of a multi-fabric fleet;
    /// [`TaskManager::fabric_view`] snapshots carry the id.
    pub fn with_fabric_id(mut self, id: FabricId) -> Self {
        self.fabric_id = id;
        self
    }

    /// The fabric this manager drives.
    pub const fn fabric_id(&self) -> FabricId {
        self.fabric_id
    }

    /// The active placement policy.
    pub fn policy(&self) -> &dyn PlacementPolicy {
        self.policy.as_ref()
    }

    /// A snapshot of the fabric occupancy (device size + loaded regions).
    pub fn fabric_view(&self) -> FabricView {
        let device = self.controller.device();
        FabricView::new(
            device.width(),
            device.height(),
            self.loaded.iter().map(|t| t.region).collect(),
        )
        .with_id(self.fabric_id)
    }

    /// The tasks currently loaded, in load order.
    pub fn loaded_tasks(&self) -> &[LoadedTask] {
        &self.loaded
    }

    /// Read access to the repository.
    pub fn repository(&self) -> &VbsRepository {
        &self.repository
    }

    /// Mutable access to the repository (to register new tasks at run time).
    pub fn repository_mut(&mut self) -> &mut VbsRepository {
        &mut self.repository
    }

    /// Read access to the controller (and through it the config memory).
    pub fn controller(&self) -> &ReconfigurationController {
        &self.controller
    }

    /// Mutable access to the controller — the seam the scheduler uses to
    /// install a fault hook, enable integrity tracking and scrub-rewrite a
    /// resident after a readback mismatch.
    pub fn controller_mut(&mut self) -> &mut ReconfigurationController {
        &mut self.controller
    }

    /// Forgets every resident without touching the hardware — the
    /// evacuation path when the fabric itself has failed: there is nothing
    /// to clear (the device is unreachable), but the bookkeeping must be
    /// emptied so the survivors of a later recovery start from a blank
    /// fabric. Returns the abandoned residents, oldest first, so the
    /// caller can re-place them elsewhere.
    pub fn evacuate(&mut self) -> Vec<LoadedTask> {
        std::mem::take(&mut self.loaded)
    }

    /// Installs a (typically fleet-shared) scratch pool on the controller,
    /// so every decode this manager performs recycles through it.
    pub fn set_scratch_pool(&mut self, pool: ScratchPool) {
        self.controller.set_scratch_pool(pool);
    }

    /// Loads a task at an explicit position.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RegionBusy`] when the target rectangle
    /// overlaps a loaded task, plus any fetch/decode/memory error.
    pub fn load_at(&mut self, name: &str, origin: Coord) -> Result<TaskHandle, RuntimeError> {
        let vbs = self.repository.fetch(name)?;
        let region = Rect::new(origin, vbs.width(), vbs.height());
        self.ensure_region_free(&region, None)?;
        self.controller.load(&vbs, origin)?;
        Ok(self.register(name, region))
    }

    /// Loads an already-decoded task bit-stream at an explicit position —
    /// the scheduler's load path: it decodes through the controller's
    /// [`ReconfigurationController::decode_into`] (or serves the image from
    /// its decode cache) and writes the result here.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RegionBusy`] when the target rectangle
    /// overlaps a loaded task, plus any memory error.
    pub fn load_decoded_at(
        &mut self,
        name: &str,
        task: &TaskBitstream,
        origin: Coord,
    ) -> Result<TaskHandle, RuntimeError> {
        let region = Rect::new(origin, task.width(), task.height());
        self.ensure_region_free(&region, None)?;
        self.controller.load_decoded(task, origin)?;
        Ok(self.register(name, region))
    }

    /// Loads a task wherever it fits (bottom-left first-fit scan).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::NoFreeRegion`] when the fabric cannot host the
    /// task, plus any fetch/decode/memory error.
    pub fn load(&mut self, name: &str) -> Result<TaskHandle, RuntimeError> {
        let vbs = self.repository.fetch(name)?;
        let origin =
            self.find_free_region(vbs.width(), vbs.height())
                .ok_or(RuntimeError::NoFreeRegion {
                    width: vbs.width(),
                    height: vbs.height(),
                })?;
        self.load_at(name, origin)
    }

    /// Unloads a task and clears its region of the configuration memory.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::UnknownHandle`] for stale handles.
    pub fn unload(&mut self, handle: TaskHandle) -> Result<(), RuntimeError> {
        let index = self
            .loaded
            .iter()
            .position(|t| t.handle == handle)
            .ok_or(RuntimeError::UnknownHandle { id: handle.0 })?;
        let task = self.loaded.remove(index);
        self.controller.unload(task.region)?;
        Ok(())
    }

    /// Relocates a loaded task to a new origin — the "fast relocation" use
    /// case of the paper. The task's frames already sit decoded in the
    /// configuration memory, so relocation is one bulk word-arena move
    /// ([`ReconfigurationController::move_region`]): no re-decode, no
    /// staging buffer, and destinations overlapping the task's own current
    /// region (the common small shift during defragmentation) are handled
    /// by the overlap-safe row ordering of the copy itself.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::RegionBusy`] if the destination overlaps
    /// another task, [`RuntimeError::UnknownHandle`] for stale handles, plus
    /// any memory error. On error the task stays where it was.
    pub fn relocate(&mut self, handle: TaskHandle, origin: Coord) -> Result<(), RuntimeError> {
        let index = self
            .loaded
            .iter()
            .position(|t| t.handle == handle)
            .ok_or(RuntimeError::UnknownHandle { id: handle.0 })?;
        self.relocate_resident_at(index, origin)
    }

    /// Relocates a loaded task, with `task` (the scheduler's cached decoded
    /// image) validating the resident's shape. Since the configuration
    /// memory already holds exactly that image, the move itself is the same
    /// bulk arena copy as [`TaskManager::relocate`] — the cached stream is
    /// never re-written frame by frame.
    ///
    /// # Errors
    ///
    /// As [`TaskManager::relocate`], plus a memory error when `task` does not
    /// have the shape of the loaded instance.
    pub fn relocate_decoded(
        &mut self,
        handle: TaskHandle,
        task: &TaskBitstream,
        origin: Coord,
    ) -> Result<(), RuntimeError> {
        let index = self
            .loaded
            .iter()
            .position(|t| t.handle == handle)
            .ok_or(RuntimeError::UnknownHandle { id: handle.0 })?;
        let current = self.loaded[index].region;
        if task.width() != current.width || task.height() != current.height {
            return Err(RuntimeError::Memory(BitstreamError::LayoutMismatch));
        }
        self.relocate_resident_at(index, origin)
    }

    fn relocate_resident_at(&mut self, index: usize, origin: Coord) -> Result<(), RuntimeError> {
        let old_region = self.loaded[index].region;
        let new_region = Rect::new(origin, old_region.width, old_region.height);
        if new_region == old_region {
            return Ok(());
        }
        let handle = self.loaded[index].handle;
        self.ensure_region_free(&new_region, Some(handle))?;
        self.controller.move_region(old_region, origin)?;
        self.loaded[index].region = new_region;
        Ok(())
    }

    /// Searches a free `width` × `height` rectangle with the active
    /// placement policy.
    pub fn find_free_region(&self, width: u16, height: u16) -> Option<Coord> {
        self.policy.place(width, height, &self.fabric_view())
    }

    fn ensure_region_free(
        &self,
        region: &Rect,
        ignoring: Option<TaskHandle>,
    ) -> Result<(), RuntimeError> {
        if let Some(busy) = self
            .loaded
            .iter()
            .find(|t| Some(t.handle) != ignoring && t.region.intersects(region))
        {
            return Err(RuntimeError::RegionBusy {
                region: busy.region,
            });
        }
        Ok(())
    }

    fn register(&mut self, name: &str, region: Rect) -> TaskHandle {
        let handle = TaskHandle(self.next_handle);
        self.next_handle += 1;
        self.loaded.push(LoadedTask {
            handle,
            name: name.to_string(),
            region,
        });
        handle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbs_arch::{ArchSpec, Device};
    use vbs_flow::CadFlow;
    use vbs_netlist::generate::SyntheticSpec;

    fn manager() -> TaskManager {
        let netlist = SyntheticSpec::new("task_a", 18, 4, 4)
            .with_seed(21)
            .build()
            .unwrap();
        let flow = CadFlow::new(9, 6)
            .unwrap()
            .with_grid(6, 6)
            .with_seed(21)
            .fast();
        let result = flow.run(&netlist).unwrap();
        let mut repo = VbsRepository::new();
        repo.store("task_a", &result.vbs(1).unwrap());
        repo.store("task_b", &result.vbs(2).unwrap());
        let device = Device::new(ArchSpec::new(9, 6).unwrap(), 16, 8).unwrap();
        TaskManager::new(ReconfigurationController::new(device), repo)
    }

    #[test]
    fn first_fit_loads_tasks_side_by_side() {
        let mut m = manager();
        let a = m.load("task_a").unwrap();
        let b = m.load("task_b").unwrap();
        assert_eq!(m.loaded_tasks().len(), 2);
        let ra = m
            .loaded_tasks()
            .iter()
            .find(|t| t.handle == a)
            .unwrap()
            .region;
        let rb = m
            .loaded_tasks()
            .iter()
            .find(|t| t.handle == b)
            .unwrap()
            .region;
        assert!(!ra.intersects(&rb));
        assert!(m.controller().memory().occupied_macros() > 0);
    }

    #[test]
    fn overlapping_explicit_loads_are_rejected() {
        let mut m = manager();
        m.load_at("task_a", Coord::new(0, 0)).unwrap();
        assert!(matches!(
            m.load_at("task_b", Coord::new(1, 1)),
            Err(RuntimeError::RegionBusy { .. })
        ));
    }

    #[test]
    fn unload_frees_the_region() {
        let mut m = manager();
        let a = m.load("task_a").unwrap();
        assert!(m.controller().memory().occupied_macros() > 0);
        m.unload(a).unwrap();
        assert_eq!(m.controller().memory().occupied_macros(), 0);
        assert!(matches!(
            m.unload(a),
            Err(RuntimeError::UnknownHandle { .. })
        ));
    }

    #[test]
    fn relocation_moves_the_configuration() {
        let mut m = manager();
        let a = m.load_at("task_a", Coord::new(0, 0)).unwrap();
        let before = m
            .controller()
            .memory()
            .read_region(Rect::new(Coord::new(0, 0), 6, 6))
            .unwrap();
        m.relocate(a, Coord::new(9, 2)).unwrap();
        let after = m
            .controller()
            .memory()
            .read_region(Rect::new(Coord::new(9, 2), 6, 6))
            .unwrap();
        assert_eq!(before.diff_count(&after).unwrap(), 0);
        // The old region is blank again.
        let old = m
            .controller()
            .memory()
            .read_region(Rect::new(Coord::new(0, 0), 6, 6))
            .unwrap();
        assert_eq!(old.popcount(), 0);
    }

    #[test]
    fn relocation_onto_own_region_is_not_corrupted() {
        // Regression test: a destination overlapping the task's current
        // region used to decode into the new origin and then clear the
        // overlap away while unloading the old region.
        let mut m = manager();
        let a = m.load_at("task_a", Coord::new(0, 0)).unwrap();
        let region = m.loaded_tasks()[0].region;
        let before = m.controller().memory().read_region(region).unwrap();

        // Shift one macro to the right: maximal self-overlap.
        m.relocate(a, Coord::new(1, 0)).unwrap();
        let shifted = Rect::new(Coord::new(1, 0), region.width, region.height);
        let after = m.controller().memory().read_region(shifted).unwrap();
        assert_eq!(before.diff_count(&after).unwrap(), 0);

        // The vacated column is blank and nothing else is configured.
        let vacated = m
            .controller()
            .memory()
            .read_region(Rect::new(Coord::new(0, 0), 1, region.height))
            .unwrap();
        assert_eq!(vacated.popcount(), 0);
        assert_eq!(
            m.controller().memory().occupied_macros(),
            after.occupied_macros()
        );

        // Diagonal self-overlap keeps working too.
        m.relocate(a, Coord::new(0, 1)).unwrap();
        let diagonal = Rect::new(Coord::new(0, 1), region.width, region.height);
        let moved = m.controller().memory().read_region(diagonal).unwrap();
        assert_eq!(before.diff_count(&moved).unwrap(), 0);
    }

    #[test]
    fn relocation_to_same_origin_is_a_noop() {
        let mut m = manager();
        let a = m.load_at("task_a", Coord::new(2, 1)).unwrap();
        let region = m.loaded_tasks()[0].region;
        let before = m.controller().memory().read_region(region).unwrap();
        m.relocate(a, Coord::new(2, 1)).unwrap();
        let after = m.controller().memory().read_region(region).unwrap();
        assert_eq!(before.diff_count(&after).unwrap(), 0);
    }

    #[test]
    fn fabric_exhaustion_is_reported() {
        let mut m = manager();
        let mut loaded = 0;
        loop {
            match m.load("task_a") {
                Ok(_) => loaded += 1,
                Err(RuntimeError::NoFreeRegion { .. }) => break,
                Err(other) => panic!("unexpected error {other}"),
            }
        }
        assert!(loaded >= 2, "a 16x8 fabric holds at least two 6x6 tasks");
    }
}
