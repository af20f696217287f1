//! Reference occupancy model for differential tests.
//!
//! [`FabricView`] is the rectangle-list model the placement policies ran
//! on before the bit-row [`Occupancy`](crate::Occupancy) index replaced it:
//! every query rescans the loaded rectangles (and the maximal-rectangle
//! sweep rebuilds a `width × height` grid), which is slow but easy to
//! check by eye. Nothing in the runtime calls it; the property tests
//! compare the index and the shipped policies against it.

use crate::placement::PlacementPolicy;
use vbs_arch::{Coord, Rect};

/// A snapshot of the fabric's occupancy: device dimensions plus the regions
/// of every loaded task (assumed pairwise disjoint and in bounds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabricView {
    width: u16,
    height: u16,
    occupied: Vec<Rect>,
}

impl FabricView {
    /// Creates a view of a `width` × `height` fabric with the given loaded
    /// regions.
    pub fn new(width: u16, height: u16, occupied: Vec<Rect>) -> Self {
        FabricView {
            width,
            height,
            occupied,
        }
    }

    fn in_bounds(&self, region: &Rect) -> bool {
        region.origin.x as u32 + region.width as u32 <= self.width as u32
            && region.origin.y as u32 + region.height as u32 <= self.height as u32
    }

    /// Whether `region` is in bounds and overlaps no loaded task.
    pub fn is_free(&self, region: &Rect) -> bool {
        self.in_bounds(region) && !self.occupied.iter().any(|r| r.intersects(region))
    }

    /// Total number of macros on the fabric.
    pub fn total_area(&self) -> u32 {
        self.width as u32 * self.height as u32
    }

    /// Number of free macros (loaded regions are disjoint by invariant).
    pub fn free_area(&self) -> u32 {
        self.total_area() - self.occupied.iter().map(Rect::area).sum::<u32>()
    }

    /// All maximal free rectangles, sorted by origin row, origin column,
    /// width, height.
    pub fn free_rectangles(&self) -> Vec<Rect> {
        let (w, h) = (self.width as usize, self.height as usize);
        if w == 0 || h == 0 {
            return Vec::new();
        }
        let mut blocked = vec![false; w * h];
        for rect in &self.occupied {
            for at in rect.iter() {
                if (at.x as usize) < w && (at.y as usize) < h {
                    blocked[at.y as usize * w + at.x as usize] = true;
                }
            }
        }
        let free = |x: usize, y: usize| !blocked[y * w + x];

        // For every row (as the top edge), a histogram of free run heights;
        // every local maximum of the histogram spans one candidate.
        let mut candidates: Vec<Rect> = Vec::new();
        let mut heights = vec![0u16; w];
        for y in 0..h {
            for (x, height) in heights.iter_mut().enumerate() {
                *height = if free(x, y) { *height + 1 } else { 0 };
            }
            // Stack of (left index, height); the trailing 0 bar flushes
            // every open rectangle at the right edge.
            let mut stack: Vec<(usize, u16)> = Vec::new();
            for (x, &current) in heights.iter().chain(std::iter::once(&0)).enumerate() {
                let mut left = x;
                while let Some(&(l, hgt)) = stack.last() {
                    if hgt <= current {
                        break;
                    }
                    stack.pop();
                    left = l;
                    // Rectangle of height `hgt` spanning columns [l, x).
                    candidates.push(Rect::new(
                        Coord::new(l as u16, (y as u16 + 1) - hgt),
                        (x - l) as u16,
                        hgt,
                    ));
                }
                if current > 0 && stack.last().is_none_or(|&(_, hgt)| hgt < current) {
                    stack.push((left, current));
                }
            }
        }

        // Keep only top-maximal rectangles (the sweep already guarantees
        // left/right/bottom maximality) and dedup.
        candidates.retain(|r| {
            let top = r.origin.y + r.height;
            top as usize == h
                || (r.origin.x..r.origin.x + r.width).any(|x| !free(x as usize, top as usize))
        });
        candidates.sort_by_key(|r| (r.origin.y, r.origin.x, r.width, r.height));
        candidates.dedup();
        candidates
    }

    /// Area of the largest free rectangle, 0 when the fabric is full.
    pub fn largest_free_rect_area(&self) -> u32 {
        self.free_rectangles()
            .iter()
            .map(Rect::area)
            .max()
            .unwrap_or(0)
    }

    /// External fragmentation: the share of free macros not in the largest
    /// free rectangle (0 on a full fabric).
    pub fn fragmentation(&self) -> f64 {
        let free = self.free_area();
        if free == 0 {
            return 0.0;
        }
        1.0 - self.largest_free_rect_area() as f64 / free as f64
    }

    /// What the shipped `policy` (matched by [`PlacementPolicy::name`])
    /// decides, recomputed on the rectangle list.
    ///
    /// # Panics
    ///
    /// Panics for a policy this model has no reference for.
    pub fn place(&self, policy: &dyn PlacementPolicy, width: u16, height: u16) -> Option<Coord> {
        match policy.name() {
            "first-fit" => self.first_fit(width, height),
            "best-fit" => self.best_fit(width, height),
            "bottom-left-skyline" => self.bottom_left_skyline(width, height),
            other => panic!("no reference model for placement policy `{other}`"),
        }
    }

    fn fits_device(&self, width: u16, height: u16) -> bool {
        width > 0 && height > 0 && width <= self.width && height <= self.height
    }

    /// Lowest row, then lowest column, whose rectangle is free.
    fn first_fit(&self, width: u16, height: u16) -> Option<Coord> {
        if !self.fits_device(width, height) {
            return None;
        }
        for y in 0..=(self.height - height) {
            for x in 0..=(self.width - width) {
                let candidate = Rect::new(Coord::new(x, y), width, height);
                if self.is_free(&candidate) {
                    return Some(candidate.origin);
                }
            }
        }
        None
    }

    /// The fitting maximal free rectangle with the least leftover area.
    fn best_fit(&self, width: u16, height: u16) -> Option<Coord> {
        if width == 0 || height == 0 {
            return None;
        }
        self.free_rectangles()
            .into_iter()
            .filter(|r| r.width >= width && r.height >= height)
            .min_by_key(|r| {
                (
                    r.area() - width as u32 * height as u32,
                    r.origin.y,
                    r.origin.x,
                )
            })
            .map(|r| r.origin)
    }

    /// The window minimizing (per-column high-water mark, column).
    fn bottom_left_skyline(&self, width: u16, height: u16) -> Option<Coord> {
        if !self.fits_device(width, height) {
            return None;
        }
        let mut skyline = vec![0u16; self.width as usize];
        for rect in &self.occupied {
            let top = rect.origin.y + rect.height;
            for x in rect.origin.x..rect.origin.x + rect.width {
                let col = &mut skyline[x as usize];
                *col = (*col).max(top);
            }
        }
        let mut best: Option<Coord> = None;
        for x in 0..=(self.width - width) {
            let y = (x..x + width)
                .map(|col| skyline[col as usize])
                .max()
                .unwrap_or(0);
            if y as u32 + height as u32 > self.height as u32 {
                continue;
            }
            if best.is_none_or(|b| (y, x) < (b.y, b.x)) {
                best = Some(Coord::new(x, y));
            }
        }
        best
    }
}
