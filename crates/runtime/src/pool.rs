//! A shared pool of recycled decode state: decoded-image buffers **and**
//! decode scratch arenas.
//!
//! De-virtualizing a stream needs one decoded-image buffer per load plus one
//! [`DecodeScratch`] per decode; at fleet scale those are the two biggest
//! allocations of the hot path (`width · height` frames in one word arena,
//! and the Dijkstra search state sized by the device's routing graph). The
//! pool closes both loops:
//!
//! * **Buffers** — staging images checked out by a decode come back when a
//!   decode cache evicts them or a decode fails, and
//!   [`TaskBitstream::reset`] reshapes a recycled buffer in place, so
//!   steady-state decoding recycles memory instead of allocating it.
//! * **Scratches** — every decode checks a [`DecodeScratch`] out and parks
//!   it back afterwards. After warm-up the pool holds one warm scratch
//!   (`scratch_fresh == 1`) and no decode ever allocates again.
//!
//! The pool is `Clone` + thread-safe (a shared handle): one pool typically
//! serves every fabric of a fleet and its schedulers' decode caches.
//! `vbs-sched` re-exports it as `BitstreamPool`.

use std::sync::{Arc, Mutex};
use vbs_arch::ArchSpec;
use vbs_bitstream::TaskBitstream;
use vbs_core::{DecodeScratch, Vbs};
use vbs_telemetry::{EventKind, Telemetry, FLEET_FABRIC};

/// Checkout payload tag: a decoded-image buffer.
const CHECKOUT_BUFFER: u64 = 0;
/// Checkout payload tag: a decode scratch arena.
const CHECKOUT_SCRATCH: u64 = 1;

/// Counters of a [`ScratchPool`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScratchPoolStats {
    /// Buffer checkouts served by a recycled buffer (no allocation).
    pub reused: u64,
    /// Buffer checkouts that had to allocate a fresh buffer.
    pub fresh: u64,
    /// Buffers returned to the pool.
    pub recycled: u64,
    /// Buffer returns dropped because the pool was full or the buffer was
    /// still shared (an `Arc` with other owners cannot be recycled).
    pub dropped: u64,
    /// Buffers currently parked in the pool.
    pub parked: usize,
    /// Scratch checkouts served by a parked scratch.
    pub scratch_reused: u64,
    /// Scratch checkouts that had to create a fresh scratch (creation is
    /// allocation-free; the scratch allocates lazily on its first decode
    /// unless it was warmed through [`ScratchPool::warm`]).
    pub scratch_fresh: u64,
    /// Scratches currently parked in the pool.
    pub scratch_parked: usize,
}

#[derive(Debug)]
struct PoolInner {
    buffers: Vec<TaskBitstream>,
    scratches: Vec<DecodeScratch>,
    reused: u64,
    fresh: u64,
    recycled: u64,
    dropped: u64,
    scratch_reused: u64,
    scratch_fresh: u64,
    /// Observability registry checkout hit/miss events go to. Disabled
    /// (recording no-ops) until a real registry is installed.
    telemetry: Telemetry,
}

impl Default for PoolInner {
    fn default() -> Self {
        PoolInner {
            buffers: Vec::new(),
            scratches: Vec::new(),
            reused: 0,
            fresh: 0,
            recycled: 0,
            dropped: 0,
            scratch_reused: 0,
            scratch_fresh: 0,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// A bounded, thread-safe free-list of decoded-image buffers and decode
/// scratch arenas (see the module docs). Cloning the pool clones the
/// *handle*; all clones share one free-list.
#[derive(Debug, Clone)]
pub struct ScratchPool {
    inner: Arc<Mutex<PoolInner>>,
    capacity: usize,
    scratch_capacity: usize,
}

impl Default for ScratchPool {
    fn default() -> Self {
        ScratchPool::new(32)
    }
}

impl ScratchPool {
    /// Creates a pool parking at most `capacity` buffers (0 disables buffer
    /// recycling: every checkout allocates, every return drops) and up to 16
    /// scratch arenas.
    pub fn new(capacity: usize) -> Self {
        ScratchPool {
            inner: Arc::new(Mutex::new(PoolInner::default())),
            capacity,
            scratch_capacity: 16,
        }
    }

    /// Installs the observability registry checkout hit/miss events are
    /// recorded into (shared by every clone of this pool handle).
    pub fn set_telemetry(&self, telemetry: Telemetry) {
        self.inner
            .lock()
            .expect("pool lock never poisoned")
            .telemetry = telemetry;
    }

    /// The pool's telemetry registry (a shared handle; disabled until one is
    /// installed).
    pub fn telemetry(&self) -> Telemetry {
        self.inner
            .lock()
            .expect("pool lock never poisoned")
            .telemetry
            .clone()
    }

    /// Checks a buffer out of the pool, reshaped in place to an all-empty
    /// `width` × `height` task of `spec`; allocates a fresh buffer when the
    /// pool is empty. Preference goes to the parked buffer whose frame count
    /// matches the request (reshaping it is free).
    pub fn checkout(&self, spec: ArchSpec, width: u16, height: u16) -> TaskBitstream {
        let wanted = width as usize * height as usize;
        let mut inner = self.inner.lock().expect("pool lock never poisoned");
        let pick = inner
            .buffers
            .iter()
            .position(|b| b.spec() == &spec && b.macro_count() == wanted)
            .or_else(|| {
                if inner.buffers.is_empty() {
                    None
                } else {
                    Some(inner.buffers.len() - 1)
                }
            });
        match pick {
            Some(i) => {
                let mut buffer = inner.buffers.swap_remove(i);
                inner.reused += 1;
                let telemetry = inner.telemetry.clone();
                drop(inner);
                telemetry.event(EventKind::CheckoutHit, FLEET_FABRIC, 0, CHECKOUT_BUFFER, 0);
                buffer.reset(spec, width, height);
                buffer
            }
            None => {
                inner.fresh += 1;
                let telemetry = inner.telemetry.clone();
                drop(inner);
                telemetry.event(EventKind::CheckoutMiss, FLEET_FABRIC, 0, CHECKOUT_BUFFER, 0);
                TaskBitstream::empty(spec, width, height)
            }
        }
    }

    /// Returns a buffer to the pool (dropped silently when full).
    pub fn put(&self, buffer: TaskBitstream) {
        let mut inner = self.inner.lock().expect("pool lock never poisoned");
        if inner.buffers.len() < self.capacity {
            inner.recycled += 1;
            inner.buffers.push(buffer);
        } else {
            inner.dropped += 1;
        }
    }

    /// Recycles a shared decoded image if this handle is its last owner —
    /// the decode-cache eviction path: an evicted entry whose `Arc` is no
    /// longer referenced by any resident load goes back into circulation.
    pub fn recycle(&self, image: Arc<TaskBitstream>) {
        match Arc::try_unwrap(image) {
            Ok(buffer) => self.put(buffer),
            Err(_still_shared) => {
                let mut inner = self.inner.lock().expect("pool lock never poisoned");
                inner.dropped += 1;
            }
        }
    }

    /// Checks a decode scratch out of the pool, creating a fresh (empty,
    /// allocation-free) one when none is parked.
    pub fn checkout_scratch(&self) -> DecodeScratch {
        let mut inner = self.inner.lock().expect("pool lock never poisoned");
        match inner.scratches.pop() {
            Some(scratch) => {
                inner.scratch_reused += 1;
                let telemetry = inner.telemetry.clone();
                drop(inner);
                telemetry.event(EventKind::CheckoutHit, FLEET_FABRIC, 0, CHECKOUT_SCRATCH, 0);
                scratch
            }
            None => {
                inner.scratch_fresh += 1;
                let telemetry = inner.telemetry.clone();
                drop(inner);
                telemetry.event(
                    EventKind::CheckoutMiss,
                    FLEET_FABRIC,
                    0,
                    CHECKOUT_SCRATCH,
                    0,
                );
                DecodeScratch::new()
            }
        }
    }

    /// Parks a decode scratch for reuse by the next decode (dropped silently
    /// when the scratch side of the pool is full). Transient per-load state
    /// is cleared; warmed capacity is kept.
    pub fn put_scratch(&self, mut scratch: DecodeScratch) {
        scratch.reset();
        let mut inner = self.inner.lock().expect("pool lock never poisoned");
        if inner.scratches.len() < self.scratch_capacity {
            inner.scratches.push(scratch);
        }
    }

    /// Pre-warms the pool for decodes of `vbs`: parks one scratch with
    /// every internal buffer pre-reserved for that stream, plus one staging
    /// buffer of the stream's shape, so the first measured decode already
    /// performs zero heap allocations.
    ///
    /// # Errors
    ///
    /// Returns the stream-header error of [`DecodeScratch::prepare_for`].
    pub fn warm(&self, vbs: &Vbs) -> Result<(), vbs_core::VbsError> {
        let mut scratch = self.checkout_scratch();
        let prepared = scratch.prepare_for(vbs);
        self.put_scratch(scratch);
        prepared?;
        self.put(self.checkout(*vbs.spec(), vbs.width().max(1), vbs.height().max(1)));
        Ok(())
    }

    /// Current counters.
    pub fn stats(&self) -> ScratchPoolStats {
        let inner = self.inner.lock().expect("pool lock never poisoned");
        ScratchPoolStats {
            reused: inner.reused,
            fresh: inner.fresh,
            recycled: inner.recycled,
            dropped: inner.dropped,
            parked: inner.buffers.len(),
            scratch_reused: inner.scratch_reused,
            scratch_fresh: inner.scratch_fresh,
            scratch_parked: inner.scratches.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vbs_arch::Coord;

    fn spec() -> ArchSpec {
        ArchSpec::paper_example()
    }

    #[test]
    fn checkout_prefers_a_matching_recycled_buffer() {
        let pool = ScratchPool::new(4);
        let mut a = pool.checkout(spec(), 3, 3);
        a.frame_mut(Coord::new(1, 1)).set_bit(0, true);
        pool.put(a);
        // A mismatched checkout still reuses (reshaping is free) …
        pool.put(pool.checkout(spec(), 2, 2));
        // … and a matching one is preferred over allocating.
        let b = pool.checkout(spec(), 3, 3);
        assert_eq!(b.macro_count(), 9);
        assert_eq!(b.popcount(), 0);
        let stats = pool.stats();
        assert_eq!(stats.fresh, 1);
        assert_eq!(stats.reused, 2);
        assert_eq!(stats.recycled, 2);
        assert_eq!(stats.parked, 0);
    }

    #[test]
    fn recycle_only_reclaims_sole_owners() {
        let pool = ScratchPool::new(4);
        let image = Arc::new(pool.checkout(spec(), 2, 2));
        let keep = Arc::clone(&image);
        pool.recycle(image);
        assert_eq!(pool.stats().parked, 0);
        assert_eq!(pool.stats().dropped, 1);
        pool.recycle(keep);
        assert_eq!(pool.stats().parked, 1);
        assert_eq!(pool.stats().recycled, 1);
    }

    #[test]
    fn zero_capacity_disables_recycling() {
        let pool = ScratchPool::new(0);
        pool.put(pool.checkout(spec(), 2, 2));
        assert_eq!(pool.stats().parked, 0);
        assert_eq!(pool.stats().dropped, 1);
    }

    #[test]
    fn checkouts_record_hit_and_miss_events() {
        let pool = ScratchPool::new(4);
        let telemetry = Telemetry::new();
        pool.set_telemetry(telemetry.clone());
        assert!(pool.telemetry().same_registry(&telemetry));
        pool.put(pool.checkout(spec(), 2, 2)); // miss
        let _again = pool.checkout(spec(), 2, 2); // hit
        pool.put_scratch(pool.checkout_scratch()); // miss
        let _scratch = pool.checkout_scratch(); // hit
        let events = telemetry.events();
        let kinds: Vec<(EventKind, u64)> = events.iter().map(|e| (e.kind, e.a)).collect();
        assert_eq!(
            kinds,
            vec![
                (EventKind::CheckoutMiss, CHECKOUT_BUFFER),
                (EventKind::CheckoutHit, CHECKOUT_BUFFER),
                (EventKind::CheckoutMiss, CHECKOUT_SCRATCH),
                (EventKind::CheckoutHit, CHECKOUT_SCRATCH),
            ]
        );
        assert!(events.iter().all(|e| e.fabric == FLEET_FABRIC));
    }

    #[test]
    fn scratches_cycle_through_the_pool() {
        let pool = ScratchPool::new(4);
        let a = pool.checkout_scratch();
        let b = pool.checkout_scratch();
        assert_eq!(pool.stats().scratch_fresh, 2);
        pool.put_scratch(a);
        pool.put_scratch(b);
        assert_eq!(pool.stats().scratch_parked, 2);
        let _c = pool.checkout_scratch();
        let stats = pool.stats();
        assert_eq!(stats.scratch_reused, 1);
        assert_eq!(stats.scratch_fresh, 2);
        assert_eq!(stats.scratch_parked, 1);
    }
}
