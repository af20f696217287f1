//! Differential properties of the bit-row [`Occupancy`] index against the
//! rectangle-list [`FabricView`] oracle it replaced.
//!
//! Fabrics run from 1×1 to 130×40, so bit-rows span one to three `u64`
//! words and regions straddle word boundaries. After every load, unload
//! and relocation the index must agree with the oracle on `is_free`, the
//! free area, the maximal free rectangles, the largest free rectangle and
//! the fragmentation value (bit for bit), and every placement policy must
//! pick the origin its reference implementation picks. The largest
//! rectangle is checked both before [`Occupancy::settle`] (the re-sweep of
//! stale rows) and after it (the incremental repair: one change for a load
//! or unload, two for a relocation).

use proptest::prelude::*;
use vbs_arch::{Coord, Rect};
use vbs_runtime::oracle::FabricView;
use vbs_runtime::{BestFit, BottomLeftSkyline, FirstFit, Occupancy, PlacementPolicy};

const POLICIES: [&dyn PlacementPolicy; 3] = [&FirstFit, &BestFit, &BottomLeftSkyline];

/// The index and the oracle over the same loaded regions.
struct Pair {
    occupancy: Occupancy,
    loaded: Vec<Rect>,
}

impl Pair {
    fn new(width: u16, height: u16) -> Self {
        Pair {
            occupancy: Occupancy::new(width, height),
            loaded: Vec::new(),
        }
    }

    fn view(&self) -> FabricView {
        FabricView::new(
            self.occupancy.width(),
            self.occupancy.height(),
            self.loaded.clone(),
        )
    }

    /// A `w` × `h` region at (`x`, `y`), clipped onto the fabric (at least
    /// one macro each way).
    fn region(&self, x: u16, y: u16, w: u16, h: u16) -> Rect {
        let (fw, fh) = (self.occupancy.width(), self.occupancy.height());
        let (x, y) = (x % fw, y % fh);
        Rect::new(Coord::new(x, y), w.clamp(1, fw - x), h.clamp(1, fh - y))
    }

    fn load(&mut self, region: Rect) {
        if self.view().is_free(&region) {
            self.occupancy.mark(&region);
            self.loaded.push(region);
        }
    }

    fn unload(&mut self, pick: usize) {
        if !self.loaded.is_empty() {
            let region = self.loaded.swap_remove(pick % self.loaded.len());
            self.occupancy.clear(&region);
        }
    }

    /// Moves a loaded region to `origin` when the destination is free of
    /// every *other* region — the task manager's clear-then-mark update.
    fn relocate(&mut self, pick: usize, origin: Coord) {
        if self.loaded.is_empty() {
            return;
        }
        let index = pick % self.loaded.len();
        let old = self.loaded[index];
        let new = Rect::new(origin, old.width, old.height);
        let mut others = self.loaded.clone();
        others.swap_remove(index);
        let view = FabricView::new(self.occupancy.width(), self.occupancy.height(), others);
        if view.is_free(&new) {
            self.occupancy.clear(&old);
            self.occupancy.mark(&new);
            self.loaded[index] = new;
        }
    }

    /// Every metric and the policies at the given task shapes agree, with
    /// the index as the last step left it and again once settled.
    fn check(&mut self, shapes: impl IntoIterator<Item = (u16, u16)>, probes: &[Rect]) {
        let view = self.view();
        let occupancy = &mut self.occupancy;
        assert_eq!(occupancy.free_area(), view.free_area(), "{view:?}");
        assert_eq!(occupancy.total_area(), view.total_area());
        assert_eq!(
            occupancy.largest_free_rect_area(),
            view.largest_free_rect_area(),
            "{view:?}"
        );
        assert_eq!(
            occupancy.fragmentation().to_bits(),
            view.fragmentation().to_bits(),
            "{view:?}"
        );
        occupancy.settle();
        assert_eq!(
            occupancy.largest_free_rect_area(),
            view.largest_free_rect_area(),
            "settled, {view:?}"
        );
        assert_eq!(
            occupancy.free_rectangles(),
            view.free_rectangles(),
            "{view:?}"
        );
        for probe in probes {
            assert_eq!(
                occupancy.is_free(probe),
                view.is_free(probe),
                "{probe:?} on {view:?}"
            );
        }
        for (w, h) in shapes {
            for policy in POLICIES {
                assert_eq!(
                    policy.place(w, h, &*occupancy),
                    view.place(policy, w, h),
                    "{} {w}x{h} on {view:?}",
                    policy.name()
                );
            }
        }
    }
}

proptest! {
    /// Random load/unload/relocate sequences on fabrics up to 130×40: the
    /// index tracks the oracle after every step, with the policies checked
    /// at a few task shapes per step (one of them read off the step).
    #[test]
    fn occupancy_tracks_the_oracle_through_load_unload_relocate(
        width in 1u16..=130,
        height in 1u16..=40,
        ops in collection::vec((0u8..4, 0u16..=130, 0u16..=40, 1u16..=40, 1u16..=16), 0..48),
    ) {
        let mut pair = Pair::new(width, height);
        pair.check([(1, 1), (width, height)], &[]);
        for (kind, x, y, w, h) in ops {
            match kind {
                0 | 1 => {
                    let region = pair.region(x, y, w, h);
                    pair.load(region);
                }
                2 => pair.unload(x as usize + y as usize),
                _ => pair.relocate(w as usize, Coord::new(x % width, y % height)),
            }
            // Zero-area probes are left out: the oracle's rectangle-overlap test
            // and the index's macro test disagree on them by design.
            let probe = Rect::new(Coord::new(x % width, y % height), w, h);
            let wide = Rect::new(Coord::new(x % width, y % height), width, 1);
            pair.check(
                [(w.min(width), h.min(height)), (w % 7 + 1, h % 5 + 1), (width + 1, 1)],
                &[probe, wide],
            );
        }
    }

    /// Random disjoint rectangle sets: every policy agrees with its
    /// reference for *every* task shape up to one past the fabric. The
    /// fabrics stay at most 640 macros (130×4 through 16×40) so the naive
    /// reference placements keep the case count affordable.
    #[test]
    fn policies_match_the_oracle_for_every_task_shape(
        width in 1u16..=130,
        tall in any::<bool>(),
        regions in collection::vec((0u16..=130, 0u16..=40, 1u16..=24, 1u16..=12), 0..24),
    ) {
        let (width, height) = if tall {
            (width % 16 + 1, 40)
        } else {
            (width, (640 / width).clamp(1, 40))
        };
        let mut pair = Pair::new(width, height);
        for (x, y, w, h) in regions {
            let region = pair.region(x, y, w, h);
            pair.load(region);
        }
        let shapes = (1..=width + 1).flat_map(|w| (1..=height + 1).map(move |h| (w, h)));
        pair.check(shapes, &[]);
    }
}

#[test]
fn a_full_fabric_has_no_free_rectangle() {
    let mut pair = Pair::new(70, 3);
    pair.load(Rect::at_origin(70, 3));
    pair.check([(1, 1)], &[Rect::new(Coord::new(69, 2), 1, 1)]);
    assert_eq!(pair.occupancy.fragmentation(), 0.0);
    pair.unload(0);
    pair.check([(70, 3)], &[]);
}
