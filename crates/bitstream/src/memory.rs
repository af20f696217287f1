//! The configuration-memory layer of a whole device.
//!
//! The paper describes the configuration memory as "a single memory layer"
//! spread over the circuit (Section I). [`ConfigMemory`] models that layer:
//! one frame per macro of the device — stored in a single flat
//! [`FrameStore`] word arena — into which the run-time controller writes
//! decoded tasks at their final position.
//!
//! Because frames are packed row-major with a fixed stride, every region
//! operation decomposes into one contiguous word run per fabric row:
//! [`ConfigMemory::load_task`] is a `copy_from_slice` per row,
//! [`ConfigMemory::clear_region`] a `fill(0)` per row, and
//! [`ConfigMemory::copy_region`] / [`ConfigMemory::move_region`] (run-time
//! relocation and compaction) are overlap-safe `copy_within` sweeps. Each
//! word-level operation keeps a scalar per-bit twin (`*_scalar`) as the
//! reference implementation the differential test suite checks against.

use crate::error::BitstreamError;
use crate::frame::{FrameMut, FrameRef};
use crate::store::FrameStore;
use crate::task::TaskBitstream;
use serde::{Deserialize, Serialize};
use vbs_arch::{Coord, Device, Rect};

/// The configuration memory of a full device.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigMemory {
    width: u16,
    height: u16,
    store: FrameStore,
}

impl ConfigMemory {
    /// Creates a blank configuration memory for `device`.
    pub fn new(device: &Device) -> Self {
        ConfigMemory {
            width: device.width(),
            height: device.height(),
            store: FrameStore::new(*device.spec(), device.macro_count() as usize),
        }
    }

    /// Device width in macros.
    pub const fn width(&self) -> u16 {
        self.width
    }

    /// Device height in macros.
    pub const fn height(&self) -> u16 {
        self.height
    }

    /// The flat word arena holding the device's frames (row-major).
    pub fn store(&self) -> &FrameStore {
        &self.store
    }

    /// The frame of the macro at device-absolute coordinates `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies outside the device.
    pub fn frame(&self, at: Coord) -> FrameRef<'_> {
        self.store.frame(self.index(at))
    }

    /// Mutable access to a frame.
    ///
    /// # Panics
    ///
    /// Panics if `at` lies outside the device.
    pub fn frame_mut(&mut self, at: Coord) -> FrameMut<'_> {
        let idx = self.index(at);
        self.store.frame_mut(idx)
    }

    /// Writes a task bit-stream into the memory with its lower-left corner at
    /// `origin` — one contiguous word copy per task row.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::DoesNotFit`] when the task sticks out of the
    /// device, or [`BitstreamError::LayoutMismatch`] when the task targets a
    /// different architecture than this memory (word strides would disagree).
    pub fn load_task(&mut self, task: &TaskBitstream, origin: Coord) -> Result<(), BitstreamError> {
        self.check_load(task, origin)?;
        let (tw, th) = (task.width() as usize, task.height() as usize);
        let dev_w = self.width as usize;
        for row in 0..th {
            let dst = (origin.y as usize + row) * dev_w + origin.x as usize;
            self.store.copy_run_from(dst, task.store(), row * tw, tw)?;
        }
        Ok(())
    }

    /// Scalar reference twin of [`ConfigMemory::load_task`]: copies the task
    /// bit by bit through the frame views. Kept (and exercised by the
    /// differential suite) to pin the word-level fast path to a layout-blind
    /// implementation.
    ///
    /// # Errors
    ///
    /// As [`ConfigMemory::load_task`].
    pub fn load_task_scalar(
        &mut self,
        task: &TaskBitstream,
        origin: Coord,
    ) -> Result<(), BitstreamError> {
        self.check_load(task, origin)?;
        for (local, frame) in task.iter_frames() {
            let at = Coord::new(origin.x + local.x, origin.y + local.y);
            let mut slot = self.frame_mut(at);
            for i in 0..frame.len() {
                slot.set_bit(i, frame.bit(i));
            }
        }
        Ok(())
    }

    /// Clears every frame of a rectangular region (task removal) — one
    /// `fill(0)` per fabric row.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::DoesNotFit`] when the region sticks out of
    /// the device.
    pub fn clear_region(&mut self, region: Rect) -> Result<(), BitstreamError> {
        self.check_region(region)?;
        let dev_w = self.width as usize;
        let (rw, rh) = (region.width as usize, region.height as usize);
        for row in 0..rh {
            let start = (region.origin.y as usize + row) * dev_w + region.origin.x as usize;
            self.store.clear_run(start, rw)?;
        }
        Ok(())
    }

    /// Scalar reference twin of [`ConfigMemory::clear_region`] (per-bit
    /// clears through the frame views), kept for the differential suite.
    ///
    /// # Errors
    ///
    /// As [`ConfigMemory::clear_region`].
    pub fn clear_region_scalar(&mut self, region: Rect) -> Result<(), BitstreamError> {
        self.check_region(region)?;
        for at in region.iter() {
            let mut frame = self.frame_mut(at);
            for i in 0..frame.len() {
                frame.set_bit(i, false);
            }
        }
        Ok(())
    }

    /// Copies the frames of region `from` so their lower-left corner lands
    /// on `to`, as if staged through a buffer (the source may overlap the
    /// destination) — the bulk primitive behind run-time relocation and
    /// compaction sweeps. Word-level: one overlap-safe `copy_within` per
    /// row, with the row order chosen so no source row is overwritten
    /// before it is copied.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::DoesNotFit`] when either rectangle sticks
    /// out of the device.
    pub fn copy_region(&mut self, from: Rect, to: Coord) -> Result<(), BitstreamError> {
        self.check_region(from)?;
        self.check_region(Rect::new(to, from.width, from.height))?;
        let dev_w = self.width as usize;
        let (rw, rh) = (from.width as usize, from.height as usize);
        let row_run =
            |origin: Coord, row: usize| (origin.y as usize + row) * dev_w + origin.x as usize;
        // Rows are copied in an order that never clobbers a still-pending
        // source row: moving up processes top rows first, moving down
        // bottom rows first. Within one row `copy_within` is memmove-safe.
        let upward = to.y > from.origin.y;
        for r in 0..rh {
            let row = if upward { rh - 1 - r } else { r };
            let src = row_run(from.origin, row);
            let dst = row_run(to, row);
            self.store.copy_run_within(src, dst, rw);
        }
        Ok(())
    }

    /// Scalar reference twin of [`ConfigMemory::copy_region`]: stages the
    /// region through an allocated buffer and writes it back bit by bit.
    ///
    /// # Errors
    ///
    /// As [`ConfigMemory::copy_region`].
    pub fn copy_region_scalar(&mut self, from: Rect, to: Coord) -> Result<(), BitstreamError> {
        let staged = self.read_region(from)?;
        self.load_task_scalar(&staged, to)
    }

    /// Relocates region `from` to `to`: copies the frames
    /// ([`ConfigMemory::copy_region`]) and clears the part of `from` the
    /// destination does not cover, so the task ends up at `to` and nothing
    /// is left behind. Handles any overlap between the two rectangles.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::DoesNotFit`] when either rectangle sticks
    /// out of the device.
    pub fn move_region(&mut self, from: Rect, to: Coord) -> Result<(), BitstreamError> {
        self.check_region(from)?;
        self.check_region(Rect::new(to, from.width, from.height))?;
        if to == from.origin {
            return Ok(());
        }
        self.copy_region(from, to)?;
        // Clear the vacated cells: every row segment of `from` outside the
        // destination rectangle, as up to two word runs per row.
        let dest = Rect::new(to, from.width, from.height);
        let dev_w = self.width as usize;
        for row in 0..from.height {
            let y = from.origin.y + row;
            let (x0, x1) = (from.origin.x, from.origin.x + from.width); // [x0, x1)
            let covered = if y >= dest.origin.y && y < dest.origin.y + dest.height {
                let cx0 = x0.max(dest.origin.x);
                let cx1 = x1.min(dest.origin.x + dest.width);
                if cx0 < cx1 {
                    Some((cx0, cx1))
                } else {
                    None
                }
            } else {
                None
            };
            let mut clear_span = |a: u16, b: u16| -> Result<(), BitstreamError> {
                if a < b {
                    let start = y as usize * dev_w + a as usize;
                    self.store.clear_run(start, (b - a) as usize)?;
                }
                Ok(())
            };
            match covered {
                Some((cx0, cx1)) => {
                    clear_span(x0, cx0)?;
                    clear_span(cx1, x1)?;
                }
                None => clear_span(x0, x1)?,
            }
        }
        Ok(())
    }

    /// Scalar reference twin of [`ConfigMemory::move_region`]: stages the
    /// region, clears the source per bit, then writes the staged copy back
    /// per bit.
    ///
    /// # Errors
    ///
    /// As [`ConfigMemory::move_region`].
    pub fn move_region_scalar(&mut self, from: Rect, to: Coord) -> Result<(), BitstreamError> {
        self.check_region(Rect::new(to, from.width, from.height))?;
        let staged = self.read_region(from)?;
        self.clear_region_scalar(from)?;
        self.load_task_scalar(&staged, to)
    }

    /// Extracts the frames of a region as a task bit-stream (read-back) —
    /// one contiguous word copy per row.
    ///
    /// # Errors
    ///
    /// Returns [`BitstreamError::DoesNotFit`] when the region sticks out of
    /// the device.
    pub fn read_region(&self, region: Rect) -> Result<TaskBitstream, BitstreamError> {
        self.check_region(region)?;
        let mut task = TaskBitstream::empty(*self.store.spec(), region.width, region.height);
        let dev_w = self.width as usize;
        let rw = region.width as usize;
        for row in 0..region.height as usize {
            let src = (region.origin.y as usize + row) * dev_w + region.origin.x as usize;
            task.store_mut()
                .copy_run_from(row * rw, &self.store, src, rw)?;
        }
        Ok(task)
    }

    /// Number of macros whose frame holds at least one set bit.
    pub fn occupied_macros(&self) -> usize {
        self.store.iter().filter(|f| !f.is_empty()).count()
    }

    fn check_load(&self, task: &TaskBitstream, origin: Coord) -> Result<(), BitstreamError> {
        if task.spec() != self.store.spec() {
            return Err(BitstreamError::LayoutMismatch);
        }
        if origin.x as u32 + task.width() as u32 > self.width as u32
            || origin.y as u32 + task.height() as u32 > self.height as u32
        {
            return Err(BitstreamError::DoesNotFit {
                origin,
                width: task.width(),
                height: task.height(),
            });
        }
        Ok(())
    }

    fn check_region(&self, region: Rect) -> Result<(), BitstreamError> {
        if region.origin.x as u32 + region.width as u32 > self.width as u32
            || region.origin.y as u32 + region.height as u32 > self.height as u32
        {
            return Err(BitstreamError::DoesNotFit {
                origin: region.origin,
                width: region.width,
                height: region.height,
            });
        }
        Ok(())
    }

    fn index(&self, at: Coord) -> usize {
        assert!(
            at.x < self.width && at.y < self.height,
            "coordinate {at} outside device {}x{}",
            self.width,
            self.height
        );
        at.y as usize * self.width as usize + at.x as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbs_arch::{ArchSpec, SbPair};

    fn memory() -> ConfigMemory {
        let device = Device::new(ArchSpec::paper_example(), 10, 10).unwrap();
        ConfigMemory::new(&device)
    }

    fn small_task() -> TaskBitstream {
        let mut t = TaskBitstream::empty(ArchSpec::paper_example(), 3, 2);
        t.frame_mut(Coord::new(1, 1))
            .set_sb(2, SbPair::EastWest, true);
        t.frame_mut(Coord::new(0, 0)).set_crossing(0, 0, true);
        t
    }

    #[test]
    fn load_read_roundtrip_at_offset() {
        let mut mem = memory();
        let task = small_task();
        mem.load_task(&task, Coord::new(4, 7)).unwrap();
        assert!(mem.frame(Coord::new(5, 8)).sb(2, SbPair::EastWest));
        let back = mem.read_region(Rect::new(Coord::new(4, 7), 3, 2)).unwrap();
        assert_eq!(back.diff_count(&task).unwrap(), 0);
        assert_eq!(mem.occupied_macros(), 2);
    }

    #[test]
    fn load_rejects_out_of_bounds() {
        let mut mem = memory();
        let task = small_task();
        assert!(matches!(
            mem.load_task(&task, Coord::new(9, 9)),
            Err(BitstreamError::DoesNotFit { .. })
        ));
    }

    #[test]
    fn load_rejects_foreign_architectures() {
        // Word-level writes share the device's stride, so a stream for
        // another architecture must be refused up front (not silently
        // adopted).
        let mut mem = memory();
        let foreign = TaskBitstream::empty(ArchSpec::paper_evaluation(), 2, 2);
        assert!(matches!(
            mem.load_task(&foreign, Coord::new(0, 0)),
            Err(BitstreamError::LayoutMismatch)
        ));
        assert_eq!(mem.occupied_macros(), 0);
    }

    #[test]
    fn clear_region_erases_frames() {
        let mut mem = memory();
        mem.load_task(&small_task(), Coord::new(0, 0)).unwrap();
        assert!(mem.occupied_macros() > 0);
        mem.clear_region(Rect::new(Coord::new(0, 0), 3, 2)).unwrap();
        assert_eq!(mem.occupied_macros(), 0);
        assert!(matches!(
            mem.clear_region(Rect::new(Coord::new(8, 8), 5, 5)),
            Err(BitstreamError::DoesNotFit { .. })
        ));
    }

    #[test]
    fn copy_region_handles_overlap_like_a_staged_copy() {
        for (dx, dy) in [(1i32, 0i32), (-1, 0), (0, 1), (0, -1), (2, 1), (1, -1)] {
            let mut word = memory();
            word.load_task(&small_task(), Coord::new(3, 3)).unwrap();
            let mut scalar = word.clone();
            let from = Rect::new(Coord::new(3, 3), 3, 2);
            let to = Coord::new((3 + dx) as u16, (3 + dy) as u16);
            word.copy_region(from, to).unwrap();
            scalar.copy_region_scalar(from, to).unwrap();
            assert_eq!(word, scalar, "copy_region diverged at shift ({dx},{dy})");
        }
    }

    #[test]
    fn move_region_relocates_and_vacates() {
        for (dx, dy) in [(1i32, 0i32), (-1, 0), (0, 1), (0, -1), (4, 4), (1, 1)] {
            let mut word = memory();
            word.load_task(&small_task(), Coord::new(3, 3)).unwrap();
            let mut scalar = word.clone();
            let from = Rect::new(Coord::new(3, 3), 3, 2);
            let to = Coord::new((3 + dx) as u16, (3 + dy) as u16);
            word.move_region(from, to).unwrap();
            scalar.move_region_scalar(from, to).unwrap();
            assert_eq!(word, scalar, "move_region diverged at shift ({dx},{dy})");
            // The task content survived verbatim at the destination.
            let back = word.read_region(Rect::new(to, 3, 2)).unwrap();
            assert_eq!(back.diff_count(&small_task()).unwrap(), 0);
        }
    }

    #[test]
    fn move_region_rejects_out_of_bounds_destinations() {
        let mut mem = memory();
        mem.load_task(&small_task(), Coord::new(0, 0)).unwrap();
        assert!(matches!(
            mem.move_region(Rect::new(Coord::new(0, 0), 3, 2), Coord::new(8, 9)),
            Err(BitstreamError::DoesNotFit { .. })
        ));
        // A zero-shift move still validates its rectangle (the no-op early
        // return must not bypass the error contract).
        assert!(matches!(
            mem.move_region(Rect::new(Coord::new(8, 8), 5, 5), Coord::new(8, 8)),
            Err(BitstreamError::DoesNotFit { .. })
        ));
        // The failed move touched nothing.
        let back = mem.read_region(Rect::new(Coord::new(0, 0), 3, 2)).unwrap();
        assert_eq!(back.diff_count(&small_task()).unwrap(), 0);
    }
}
