//! The fabric occupancy index and the pluggable on-line placement policies.
//!
//! The paper's fast-relocation capability makes *where* to put a task a pure
//! run-time decision, so the placement heuristic becomes a policy choice.
//! [`PlacementPolicy`] abstracts it behind one method; the provided
//! implementations are:
//!
//! * [`FirstFit`] — the original bottom-left raster scan (lowest row, then
//!   lowest column, first rectangle that fits);
//! * [`BestFit`] — minimum-leftover-area: place in the maximal free
//!   rectangle whose area exceeds the task's by the least, which preserves
//!   large contiguous regions for future large tasks;
//! * [`BottomLeftSkyline`] — classic skyline packing: per-column the fabric
//!   is only used above the highest loaded task, and the candidate with the
//!   lowest resulting top edge wins. Wastes holes but keeps the free space
//!   in one simply-shaped region.
//!
//! Every policy and every occupancy metric reads one [`Occupancy`] index,
//! which the task manager updates in place on every load, unload and move,
//! so no query rebuilds a rectangle list:
//!
//! * one bit-row per fabric row, packed into `u64` words (bit set = macro
//!   busy), and a maintained free-area counter: `is_free` tests word masks,
//!   first-fit ORs the `h` rows under a candidate band and takes the first
//!   run of `w` clear bits, and the skyline ORs rows from the top down while
//!   a `w`-wide window stays clear, which finds the lowest per-column top
//!   edge directly;
//! * every row's column histogram (free macros from each cell down to the
//!   first busy one): best-fit sweeps it to enumerate the maximal free
//!   rectangles without materializing them;
//! * per row, a largest free rectangle with its top edge on that row,
//!   repaired locally when the owner settles after an update, so the
//!   largest free rectangle (and the fragmentation metric built on it) is a
//!   pass over the rows; copies that only place, like compaction's
//!   planning copy, skip the repair.
//!
//! Sweeps run in a per-thread scratch that grows to the widest fabric seen
//! and is then reused, so steady-state placement and updates allocate
//! nothing. The rectangle-list model the index replaced survives as
//! [`crate::oracle::FabricView`], the reference the differential tests
//! compare against.

use std::cell::RefCell;
use std::fmt;
use vbs_arch::{Coord, Rect};

/// Identifier of one fabric (device) in a multi-fabric deployment.
///
/// A single-device setup never needs to mention it — everything defaults to
/// fabric 0 — but once one request stream is sharded over several devices,
/// occupancy indexes and per-shard statistics carry the id of the fabric
/// they describe.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FabricId(pub u32);

impl fmt::Display for FabricId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fabric{}", self.0)
    }
}

/// Reusable sweep state: two bit-rows for band unions and the monotone
/// stack of the column-histogram sweep. Kept per thread so queries can take
/// `&Occupancy` and still allocate only when a wider fabric first appears.
#[derive(Default)]
struct Scratch {
    rows: Vec<u64>,
    stack: Vec<(usize, u16)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Bits `[lo, hi)` of one word, `lo < hi <= 64`.
const fn bits(lo: usize, hi: usize) -> u64 {
    (u64::MAX >> (64 - (hi - lo))) << lo
}

/// The `(word, mask)` pairs covering columns `[x0, x1)` of a bit-row
/// (`x0 < x1`).
fn span(x0: usize, x1: usize) -> impl Iterator<Item = (usize, u64)> {
    let (first, last) = (x0 / 64, (x1 - 1) / 64);
    (first..=last).map(move |w| {
        let lo = if w == first { x0 % 64 } else { 0 };
        let hi = if w == last { (x1 - 1) % 64 + 1 } else { 64 };
        (w, bits(lo, hi))
    })
}

/// Whether any column of `[x0, x1)` is busy in `row`.
fn any_busy(row: &[u64], x0: usize, x1: usize) -> bool {
    span(x0, x1).any(|(w, mask)| row[w] & mask != 0)
}

/// The first column at or after `from` whose bit equals `busy`, or `width`
/// when there is none.
fn next_column(row: &[u64], from: usize, width: usize, busy: bool) -> usize {
    let flip = if busy { 0 } else { u64::MAX };
    let mut w = from / 64;
    if w >= row.len() {
        return width;
    }
    let mut word = (row[w] ^ flip) & (u64::MAX << (from % 64));
    loop {
        if word != 0 {
            return (w * 64 + word.trailing_zeros() as usize).min(width);
        }
        w += 1;
        if w == row.len() {
            return width;
        }
        word = row[w] ^ flip;
    }
}

/// The first column starting a run of at least `len` clear bits among the
/// first `width` columns of `row`.
fn first_free_run(row: &[u64], width: usize, len: usize) -> Option<usize> {
    let mut x = 0;
    loop {
        let start = next_column(row, x, width, false);
        if start + len > width {
            return None;
        }
        let end = next_column(row, start, width, true);
        if end - start >= len {
            return Some(start);
        }
        x = end;
    }
}

/// Sweeps one row's column histogram (`heights[i]` is column `x0 + i`)
/// with a monotone stack and calls `visit(left, right, height)` for every
/// bar it pops: the rectangle of that height over columns `[left, right)`,
/// which cannot be widened or lowered within the swept columns.
fn sweep_histogram(
    heights: &[u16],
    x0: usize,
    stack: &mut Vec<(usize, u16)>,
    mut visit: impl FnMut(usize, usize, u16),
) {
    stack.clear();
    // The trailing 0 bar flushes every open rectangle at the right edge.
    for (i, current) in heights.iter().copied().chain([0]).enumerate() {
        let x = x0 + i;
        let mut left = x;
        while let Some(&(l, hgt)) = stack.last() {
            if hgt <= current {
                break;
            }
            stack.pop();
            left = l;
            visit(l, x, hgt);
        }
        if current > 0 && stack.last().is_none_or(|&(_, hgt)| hgt < current) {
            stack.push((left, current));
        }
    }
}

/// Per-row largest rectangles not yet brought up to date with the bit-rows
/// (see [`Occupancy::settle`]).
#[derive(Debug, Clone, Copy)]
enum Stale {
    /// Every row's largest rectangle is current.
    None,
    /// Exactly one region was marked (`busy`) or cleared since.
    One { region: Rect, busy: bool },
    /// Several regions changed; rows from `row` up need a full re-sweep.
    From { row: usize },
}

/// The occupancy index of one fabric: which macros loaded tasks cover.
///
/// Holds one bit-row per fabric row (`ceil(width / 64)` words each, bit set
/// = macro busy, bits past `width` always clear), the busy-macro count and
/// every row's column histogram (free macros from each cell down to the
/// first busy one), all updated in place by [`Occupancy::mark`] and
/// [`Occupancy::clear`], which touch only the columns under the changed
/// region. That is everything placement reads.
///
/// For the fragmentation metric it also keeps, per row, a largest free
/// rectangle with its top edge on that row, brought up to date by
/// [`Occupancy::settle`]. After a single change that is a local repair:
///
/// * marking a region busy can only shrink free rectangles, so only rows
///   whose recorded largest rectangle it hits are re-swept;
/// * clearing a region can only add free rectangles, and every new one
///   crosses the region, so each row above it is offered the largest
///   rectangle through the region — found by sweeping just the histogram
///   columns tall enough to reach it — until no column reaches it.
///
/// Settled, the largest free rectangle is the best of the per-row answers,
/// so a fragmentation sample after every request costs a pass over the
/// rows, not a sweep of the whole fabric. Scratch copies that only place
/// (compaction planning) never settle and never pay for the repair; the
/// fragmentation queries stay exact on an unsettled index by re-sweeping
/// the rows the pending changes can have touched.
#[derive(Clone)]
pub struct Occupancy {
    id: FabricId,
    width: u16,
    height: u16,
    stride: usize,
    rows: Vec<u64>,
    busy: u32,
    /// `heights[y * width + x]`: free macros in column `x` from row `y`
    /// down to the first busy one (0 when `(x, y)` is busy).
    heights: Vec<u16>,
    /// `tops[y]`: a largest free rectangle whose top row is `y` (zero-area
    /// when row `y` is full), as of the last [`Occupancy::settle`].
    tops: Vec<Rect>,
    stale: Stale,
}

impl fmt::Debug for Occupancy {
    /// The summary, not the bit-rows and histograms.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Occupancy")
            .field("id", &self.id)
            .field("width", &self.width)
            .field("height", &self.height)
            .field("free_area", &self.free_area())
            .finish()
    }
}

impl Occupancy {
    /// An empty `width` × `height` fabric, tagged fabric 0 (see
    /// [`Occupancy::with_id`]).
    pub fn new(width: u16, height: u16) -> Self {
        let stride = (width as usize).div_ceil(64);
        let mut occupancy = Occupancy {
            id: FabricId::default(),
            width,
            height,
            stride,
            rows: vec![0; stride * height as usize],
            busy: 0,
            heights: vec![0; width as usize * height as usize],
            tops: vec![Rect::at_origin(0, 0); height as usize],
            stale: Stale::None,
        };
        occupancy.clear_all();
        occupancy
    }

    /// Tags the index with the fabric it describes.
    pub fn with_id(mut self, id: FabricId) -> Self {
        self.id = id;
        self
    }

    /// The fabric this index describes.
    pub const fn id(&self) -> FabricId {
        self.id
    }

    /// Device width in macros.
    pub const fn width(&self) -> u16 {
        self.width
    }

    /// Device height in macros.
    pub const fn height(&self) -> u16 {
        self.height
    }

    /// Total number of macros on the fabric.
    pub fn total_area(&self) -> u32 {
        self.width as u32 * self.height as u32
    }

    /// Number of free macros.
    pub fn free_area(&self) -> u32 {
        self.total_area() - self.busy
    }

    /// Whether `region` lies entirely on the fabric.
    pub fn in_bounds(&self, region: &Rect) -> bool {
        region.origin.x as u32 + region.width as u32 <= self.width as u32
            && region.origin.y as u32 + region.height as u32 <= self.height as u32
    }

    /// Whether `region` is in bounds and covers no busy macro. A zero-area
    /// region covers no macro, so it is free wherever it is in bounds.
    pub fn is_free(&self, region: &Rect) -> bool {
        if !self.in_bounds(region) {
            return false;
        }
        if region.width == 0 {
            return true;
        }
        let (x0, x1) = Self::columns(region);
        Self::lines(region).all(|y| !any_busy(self.row(y), x0, x1))
    }

    /// Marks `region` busy (a task was loaded or moved there). Marking
    /// macros that are already busy leaves them busy and the count exact.
    ///
    /// # Panics
    ///
    /// Panics when `region` is not on the fabric.
    pub fn mark(&mut self, region: &Rect) {
        let set = self.update(region, true);
        self.busy += set;
    }

    /// Marks `region` free (a task was unloaded or moved away).
    ///
    /// # Panics
    ///
    /// Panics when `region` is not on the fabric.
    pub fn clear(&mut self, region: &Rect) {
        let cleared = self.update(region, false);
        self.busy -= cleared;
    }

    /// Brings every row's largest free rectangle up to date with the
    /// changes since the last call: a local repair after one
    /// [`Occupancy::mark`] or [`Occupancy::clear`], a re-sweep of the rows
    /// above the lowest change after several. Owners that sample
    /// fragmentation settle after every change.
    pub fn settle(&mut self) {
        let stale = std::mem::replace(&mut self.stale, Stale::None);
        SCRATCH.with_borrow_mut(|scratch| match stale {
            Stale::None => {}
            Stale::One { region, busy: true } => {
                for y in Self::lines(&region).start..self.height as usize {
                    if self.tops[y].intersects(&region) {
                        self.tops[y] = self.largest_in_row(y, &mut scratch.stack);
                    }
                }
            }
            Stale::One {
                region,
                busy: false,
            } => self.widen_tops(&region, &mut scratch.stack),
            Stale::From { row } => {
                for y in row..self.height as usize {
                    self.tops[y] = self.largest_in_row(y, &mut scratch.stack);
                }
            }
        });
    }

    /// The repair after clearing `region`: each row from the region's
    /// bottom up is offered the largest rectangle through the region.
    fn widen_tops(&mut self, region: &Rect, stack: &mut Vec<(usize, u16)>) {
        let (c0, c1) = Self::columns(region);
        let (w, bottom) = (self.width as usize, Self::lines(region).end);
        for y in Self::lines(region).start..self.height as usize {
            // A rectangle topped at row `y` reaches down into the region
            // only if it is at least `reach` rows tall.
            let reach = (y + 1).saturating_sub(bottom - 1).max(1) as u16;
            let heights = &self.heights[y * w..(y + 1) * w];
            if heights[c0..c1].iter().all(|&h| h < reach) {
                // Columns grow by at most one per row while `reach` grows
                // by one: no row above reaches the region either.
                break;
            }
            let left = heights[..c0]
                .iter()
                .rposition(|&h| h < reach)
                .map_or(0, |x| x + 1);
            let right = heights[c1..]
                .iter()
                .position(|&h| h < reach)
                .map_or(w, |x| c1 + x);
            let mut best = self.tops[y];
            sweep_histogram(&heights[left..right], left, stack, |l, r, hgt| {
                if hgt >= reach && l < c1 && r > c0 && (r - l) as u32 * hgt as u32 > best.area() {
                    best = Rect::new(
                        Coord::new(l as u16, y as u16 + 1 - hgt),
                        (r - l) as u16,
                        hgt,
                    );
                }
            });
            self.tops[y] = best;
        }
    }

    /// Marks the whole fabric free.
    pub fn clear_all(&mut self) {
        self.rows.fill(0);
        self.busy = 0;
        self.stale = Stale::None;
        let w = self.width as usize;
        for (y, top) in self.tops.iter_mut().enumerate() {
            self.heights[y * w..(y + 1) * w].fill(y as u16 + 1);
            *top = Rect::at_origin(self.width, y as u16 + 1);
        }
    }

    /// Sets (`busy`) or clears every bit of `region` and re-derives the
    /// column histograms above it; returns how many bits actually flipped.
    fn update(&mut self, region: &Rect, busy: bool) -> u32 {
        assert!(
            self.in_bounds(region),
            "{region:?} is not on the {}x{} fabric",
            self.width,
            self.height
        );
        if region.area() == 0 {
            return 0;
        }
        self.stale = match self.stale {
            Stale::None => Stale::One {
                region: *region,
                busy,
            },
            Stale::One { region: first, .. } => Stale::From {
                row: first.origin.y.min(region.origin.y) as usize,
            },
            Stale::From { row } => Stale::From {
                row: row.min(region.origin.y as usize),
            },
        };
        let (x0, x1) = Self::columns(region);
        let mut flipped = 0;
        for y in Self::lines(region) {
            let row = &mut self.rows[y * self.stride..(y + 1) * self.stride];
            for (w, mask) in span(x0, x1) {
                let changed = if busy { mask & !row[w] } else { mask & row[w] };
                row[w] ^= changed;
                flipped += changed.count_ones();
            }
        }
        let (w, bottom) = (self.width as usize, Self::lines(region).end);
        for x in x0..x1 {
            for y in Self::lines(region).start..self.height as usize {
                let height = if self.row(y)[x / 64] >> (x % 64) & 1 != 0 {
                    0
                } else if y == 0 {
                    1
                } else {
                    self.heights[(y - 1) * w + x] + 1
                };
                let cell = &mut self.heights[y * w + x];
                if y >= bottom && *cell == height {
                    break;
                }
                *cell = height;
            }
        }
        flipped
    }

    /// A largest free rectangle with its top edge on row `y`, from a full
    /// sweep of that row's histogram.
    fn largest_in_row(&self, y: usize, stack: &mut Vec<(usize, u16)>) -> Rect {
        let w = self.width as usize;
        let mut best = Rect::at_origin(0, 0);
        sweep_histogram(&self.heights[y * w..(y + 1) * w], 0, stack, |l, r, hgt| {
            if (r - l) as u32 * hgt as u32 > best.area() {
                best = Rect::new(
                    Coord::new(l as u16, y as u16 + 1 - hgt),
                    (r - l) as u16,
                    hgt,
                );
            }
        });
        best
    }

    /// Area of the largest free rectangle, 0 when the fabric is full: the
    /// best per-row answer, re-sweeping the rows unsettled changes can have
    /// touched.
    pub fn largest_free_rect_area(&self) -> u32 {
        let stale_from = match self.stale {
            Stale::None => self.height as usize,
            Stale::One { region, .. } => region.origin.y as usize,
            Stale::From { row } => row,
        };
        let settled = self.tops[..stale_from].iter().map(Rect::area).max();
        let swept = SCRATCH.with_borrow_mut(|scratch| {
            (stale_from..self.height as usize)
                .map(|y| self.largest_in_row(y, &mut scratch.stack).area())
                .max()
        });
        settled.max(swept).unwrap_or(0)
    }

    /// External fragmentation in `[0, 1]`: the share of free macros *not* in
    /// the largest free rectangle. 0 when the free space is one rectangle
    /// (or the fabric is full), approaching 1 as the free space shatters.
    pub fn fragmentation(&self) -> f64 {
        let free = self.free_area();
        if free == 0 {
            return 0.0;
        }
        1.0 - self.largest_free_rect_area() as f64 / free as f64
    }

    /// All maximal free rectangles (free rectangles that cannot be extended
    /// in any direction), sorted by origin row, origin column, width,
    /// height.
    pub fn free_rectangles(&self) -> Vec<Rect> {
        let mut rects = Vec::new();
        self.for_each_maximal_free_rect(|r| rects.push(r));
        rects.sort_by_key(|r| (r.origin.y, r.origin.x, r.width, r.height));
        rects.dedup();
        rects
    }

    /// Calls `visit` with every maximal free rectangle (possibly more than
    /// once): each row's histogram sweep yields the rectangles topped at
    /// that row that are left-, right- and bottom-maximal, and a rectangle
    /// is reported when it is also top-maximal (the fabric's top edge, or a
    /// busy macro directly above it).
    fn for_each_maximal_free_rect(&self, mut visit: impl FnMut(Rect)) {
        let (w, h) = (self.width as usize, self.height as usize);
        SCRATCH.with_borrow_mut(|scratch| {
            for y in 0..h {
                let above = (y + 1 < h).then(|| self.row(y + 1));
                let heights = &self.heights[y * w..(y + 1) * w];
                sweep_histogram(heights, 0, &mut scratch.stack, |l, r, hgt| {
                    if above.is_none_or(|above| any_busy(above, l, r)) {
                        visit(Rect::new(
                            Coord::new(l as u16, y as u16 + 1 - hgt),
                            (r - l) as u16,
                            hgt,
                        ));
                    }
                });
            }
        });
    }

    /// Bit-row `y`.
    fn row(&self, y: usize) -> &[u64] {
        &self.rows[y * self.stride..(y + 1) * self.stride]
    }

    /// The column range `[x0, x1)` of a region.
    fn columns(region: &Rect) -> (usize, usize) {
        let x0 = region.origin.x as usize;
        (x0, x0 + region.width as usize)
    }

    /// The row range of a region.
    fn lines(region: &Rect) -> std::ops::Range<usize> {
        let y0 = region.origin.y as usize;
        y0..y0 + region.height as usize
    }

    /// ORs rows `[y, y + count)` into `out` (one bit-row).
    fn union_rows(&self, y: usize, count: usize, out: &mut [u64]) {
        out.copy_from_slice(self.row(y));
        for row in
            self.rows[(y + 1) * self.stride..(y + count) * self.stride].chunks_exact(self.stride)
        {
            for (acc, word) in out.iter_mut().zip(row) {
                *acc |= word;
            }
        }
    }
}

/// A strategy choosing where on the fabric a `width` × `height` task goes.
pub trait PlacementPolicy: fmt::Debug + Send + Sync {
    /// Short policy name for logs and reports.
    fn name(&self) -> &'static str;

    /// Returns the origin of a free `width` × `height` rectangle, or `None`
    /// when the policy finds no feasible position.
    fn place(&self, width: u16, height: u16, fabric: &Occupancy) -> Option<Coord>;
}

/// Whether a `width` × `height` task can fit on the fabric at all.
fn fits_device(width: u16, height: u16, fabric: &Occupancy) -> bool {
    width > 0 && height > 0 && width <= fabric.width() && height <= fabric.height()
}

/// Bottom-left raster-scan first-fit: the original `TaskManager` behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FirstFit;

impl PlacementPolicy for FirstFit {
    fn name(&self) -> &'static str {
        "first-fit"
    }

    fn place(&self, width: u16, height: u16, fabric: &Occupancy) -> Option<Coord> {
        if !fits_device(width, height, fabric) {
            return None;
        }
        SCRATCH.with_borrow_mut(|scratch| {
            scratch.rows.resize(fabric.stride, 0);
            let band = &mut scratch.rows[..fabric.stride];
            (0..=fabric.height() - height).find_map(|y| {
                fabric.union_rows(y as usize, height as usize, band);
                first_free_run(band, fabric.width() as usize, width as usize)
                    .map(|x| Coord::new(x as u16, y))
            })
        })
    }
}

/// Minimum-leftover-area best-fit over the maximal free rectangles.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BestFit;

impl PlacementPolicy for BestFit {
    fn name(&self) -> &'static str {
        "best-fit"
    }

    fn place(&self, width: u16, height: u16, fabric: &Occupancy) -> Option<Coord> {
        if width == 0 || height == 0 {
            return None;
        }
        let mut best: Option<(u32, u16, u16)> = None;
        fabric.for_each_maximal_free_rect(|r| {
            if r.width >= width && r.height >= height {
                let key = (
                    r.area() - width as u32 * height as u32,
                    r.origin.y,
                    r.origin.x,
                );
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        });
        best.map(|(_, y, x)| Coord::new(x, y))
    }
}

/// Skyline packing: tasks sit above the per-column high-water mark, and the
/// candidate minimizing that mark (then the column) wins.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BottomLeftSkyline;

impl PlacementPolicy for BottomLeftSkyline {
    fn name(&self) -> &'static str {
        "bottom-left-skyline"
    }

    /// A column window's skyline is `y` exactly when rows `[y, height)` are
    /// clear across it, so OR-ing rows into a band from the top down while
    /// some `width`-wide window stays clear stops at the lowest reachable
    /// skyline; the leftmost window clear at that point is the answer.
    fn place(&self, width: u16, height: u16, fabric: &Occupancy) -> Option<Coord> {
        if !fits_device(width, height, fabric) {
            return None;
        }
        let (w, stride) = (fabric.width() as usize, fabric.stride);
        SCRATCH.with_borrow_mut(|scratch| {
            scratch.rows.clear();
            scratch.rows.resize(2 * stride, 0);
            let (band, next) = scratch.rows.split_at_mut(stride);
            let mut x = first_free_run(band, w, width as usize)?;
            let mut y = fabric.height();
            while y > 0 {
                for ((n, b), r) in next.iter_mut().zip(&*band).zip(fabric.row(y as usize - 1)) {
                    *n = b | r;
                }
                let Some(lower) = first_free_run(next, w, width as usize) else {
                    break;
                };
                band.copy_from_slice(next);
                x = lower;
                y -= 1;
            }
            (y as u32 + height as u32 <= fabric.height() as u32).then(|| Coord::new(x as u16, y))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn occupancy(busy: &[Rect]) -> Occupancy {
        let mut occupancy = Occupancy::new(8, 6);
        for region in busy {
            occupancy.mark(region);
        }
        occupancy
    }

    #[test]
    fn empty_fabric_is_one_free_rectangle() {
        let v = occupancy(&[]);
        assert_eq!(v.free_rectangles(), vec![Rect::at_origin(8, 6)]);
        assert_eq!(v.free_area(), 48);
        assert_eq!(v.fragmentation(), 0.0);
    }

    #[test]
    fn free_rectangles_are_maximal_and_cover_holes() {
        // One 4x6 block in the middle leaves two free columns bands.
        let v = occupancy(&[Rect::new(Coord::new(2, 0), 4, 6)]);
        let rects = v.free_rectangles();
        assert_eq!(
            rects,
            vec![
                Rect::new(Coord::new(0, 0), 2, 6),
                Rect::new(Coord::new(6, 0), 2, 6),
            ]
        );
        assert_eq!(v.largest_free_rect_area(), 12);
        assert!(v.fragmentation() > 0.4);
    }

    #[test]
    fn first_fit_scans_bottom_left() {
        let v = occupancy(&[Rect::new(Coord::new(0, 0), 3, 2)]);
        assert_eq!(FirstFit.place(2, 2, &v), Some(Coord::new(3, 0)));
        assert_eq!(FirstFit.place(8, 6, &v), None);
        assert_eq!(FirstFit.place(8, 4, &v), Some(Coord::new(0, 2)));
    }

    #[test]
    fn best_fit_prefers_the_tightest_hole() {
        // A 2x2 hole at (0,0)..(2,2) (via two blocks) and lots of open space
        // to the right: a 2x2 task should take the tight hole, not the
        // large region first-fit-style.
        let v = occupancy(&[
            Rect::new(Coord::new(2, 0), 1, 6),
            Rect::new(Coord::new(0, 2), 2, 4),
        ]);
        assert_eq!(BestFit.place(2, 2, &v), Some(Coord::new(0, 0)));
        // First-fit picks the same corner here, but on the mirrored layout
        // the policies diverge.
        let v2 = occupancy(&[
            Rect::new(Coord::new(5, 0), 1, 6),
            Rect::new(Coord::new(6, 2), 2, 4),
        ]);
        assert_eq!(FirstFit.place(2, 2, &v2), Some(Coord::new(0, 0)));
        assert_eq!(BestFit.place(2, 2, &v2), Some(Coord::new(6, 0)));
    }

    #[test]
    fn skyline_ignores_holes_below_tasks() {
        // A floating task leaves a hole beneath it; skyline refuses the
        // hole, first-fit takes it.
        let v = occupancy(&[Rect::new(Coord::new(0, 3), 4, 2)]);
        assert_eq!(FirstFit.place(3, 2, &v), Some(Coord::new(0, 0)));
        assert_eq!(BottomLeftSkyline.place(3, 2, &v), Some(Coord::new(4, 0)));
    }

    #[test]
    fn policies_respect_bounds() {
        let v = occupancy(&[]);
        for policy in [
            &FirstFit as &dyn PlacementPolicy,
            &BestFit,
            &BottomLeftSkyline,
        ] {
            assert_eq!(policy.place(9, 1, &v), None, "{}", policy.name());
            assert_eq!(policy.place(1, 7, &v), None, "{}", policy.name());
            assert_eq!(policy.place(8, 6, &v), Some(Coord::new(0, 0)));
        }
    }

    #[test]
    fn marks_and_clears_keep_the_free_count_exact_across_word_boundaries() {
        let mut v = Occupancy::new(130, 3);
        let wide = Rect::new(Coord::new(60, 1), 70, 2);
        v.mark(&wide);
        assert_eq!(v.free_area(), 390 - 140);
        assert!(!v.is_free(&Rect::new(Coord::new(129, 2), 1, 1)));
        assert!(v.is_free(&Rect::new(Coord::new(0, 0), 130, 1)));
        // Re-marking an overlapping region counts only the new macros.
        v.mark(&Rect::new(Coord::new(0, 1), 64, 1));
        assert_eq!(v.free_area(), 390 - 140 - 60);
        // A region whose middle row is already busy: the cells above it
        // must still turn busy in the column histograms.
        let mut column = v.clone();
        column.mark(&Rect::new(Coord::new(0, 0), 2, 3));
        assert_eq!(
            column.free_rectangles(),
            vec![
                Rect::new(Coord::new(2, 0), 128, 1),
                Rect::new(Coord::new(2, 2), 58, 1),
            ]
        );
        assert_eq!(column.largest_free_rect_area(), 128);
        v.clear(&wide);
        assert_eq!(v.free_area(), 390 - 60);
        v.clear_all();
        assert_eq!(v.free_area(), 390);
        assert_eq!(v.free_rectangles(), vec![Rect::at_origin(130, 3)]);
    }
}
