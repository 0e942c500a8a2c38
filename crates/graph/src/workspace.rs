//! Epoch-stamped scratch structures for zero-allocation query loops.
//!
//! Every online query in this workspace (the QbS guided search, with or
//! without landmarks, and the ground-truth double BFS) needs per-vertex scratch state:
//! distance fields and visited sets sized to the graph. Allocating and
//! zeroing `O(|V|)` memory per query dominates latency on large graphs —
//! the exact tax the paper's microsecond-level query times cannot afford.
//!
//! The structures here amortise that cost with the classic *epoch stamping*
//! (generation counter) trick: alongside each value slot lives a `u32`
//! stamp, and a slot is considered initialised only when its stamp equals
//! the structure's current epoch. "Clearing" the whole structure is then a
//! single `epoch += 1` — O(1) instead of O(|V|) — and the backing arrays
//! are allocated once and reused for the lifetime of the workspace. When
//! the epoch counter would wrap around `u32::MAX`, the stamps are lazily
//! bulk-reset once every ~4 billion queries, preserving correctness.

use crate::vertex::{Distance, VertexId, INFINITE_DISTANCE};

/// Bumps `epoch`, bulk-resetting `stamps` on the (rare) wrap-around.
fn advance_epoch(epoch: &mut u32, stamps: &mut [u32]) {
    if *epoch == u32::MAX {
        stamps.fill(0);
        *epoch = 1;
    } else {
        *epoch += 1;
    }
}

/// A per-vertex distance field with O(1) reset.
///
/// Semantically equivalent to `vec![INFINITE_DISTANCE; n]` re-created per
/// query, but [`DistanceField::reset`] costs O(1) after the first use at a
/// given size (growth re-allocates, steady state does not).
#[derive(Clone, Debug, Default)]
pub struct DistanceField {
    stamps: Vec<u32>,
    values: Vec<Distance>,
    epoch: u32,
}

impl DistanceField {
    /// Creates an empty field; [`DistanceField::reset`] sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the field for a graph with `n` vertex slots.
    pub fn reset(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
            self.values.resize(n, INFINITE_DISTANCE);
            // Fresh slots carry stamp 0; make sure the active epoch differs.
            if self.epoch == 0 {
                self.epoch = 1;
                return;
            }
        }
        advance_epoch(&mut self.epoch, &mut self.stamps);
    }

    /// The distance of `v`, or [`INFINITE_DISTANCE`] when unset.
    #[inline]
    pub fn get(&self, v: VertexId) -> Distance {
        let idx = v as usize;
        if self.stamps[idx] == self.epoch {
            self.values[idx]
        } else {
            INFINITE_DISTANCE
        }
    }

    /// Whether `v` has been assigned a distance since the last reset.
    #[inline]
    pub fn is_set(&self, v: VertexId) -> bool {
        self.stamps[v as usize] == self.epoch
    }

    /// Assigns the distance of `v`.
    #[inline]
    pub fn set(&mut self, v: VertexId, distance: Distance) {
        let idx = v as usize;
        self.stamps[idx] = self.epoch;
        self.values[idx] = distance;
    }

    /// Number of vertex slots currently backed.
    pub fn capacity(&self) -> usize {
        self.stamps.len()
    }
}

/// A per-vertex visited set with O(1) reset (the epoch-stamped analogue of
/// `vec![false; n]` or a fresh `HashSet`).
#[derive(Clone, Debug, Default)]
pub struct VisitedSet {
    stamps: Vec<u32>,
    epoch: u32,
}

impl VisitedSet {
    /// Creates an empty set; [`VisitedSet::reset`] sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the set for a graph with `n` vertex slots.
    pub fn reset(&mut self, n: usize) {
        if self.stamps.len() < n {
            self.stamps.resize(n, 0);
            if self.epoch == 0 {
                self.epoch = 1;
                return;
            }
        }
        advance_epoch(&mut self.epoch, &mut self.stamps);
    }

    /// Whether `v` is in the set.
    #[inline]
    pub fn contains(&self, v: VertexId) -> bool {
        self.stamps[v as usize] == self.epoch
    }

    /// Inserts `v`; returns `true` when it was newly inserted.
    #[inline]
    pub fn insert(&mut self, v: VertexId) -> bool {
        let idx = v as usize;
        if self.stamps[idx] == self.epoch {
            false
        } else {
            self.stamps[idx] = self.epoch;
            true
        }
    }

    /// Number of vertex slots currently backed.
    pub fn capacity(&self) -> usize {
        self.stamps.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_field_resets_in_o1() {
        let mut field = DistanceField::new();
        field.reset(8);
        assert_eq!(field.get(3), INFINITE_DISTANCE);
        assert!(!field.is_set(3));
        field.set(3, 7);
        assert_eq!(field.get(3), 7);
        assert!(field.is_set(3));

        field.reset(8);
        assert_eq!(
            field.get(3),
            INFINITE_DISTANCE,
            "reset must clear all slots"
        );
        field.set(3, 1);
        assert_eq!(field.get(3), 1);
    }

    #[test]
    fn distance_field_grows_on_demand() {
        let mut field = DistanceField::new();
        field.reset(4);
        field.set(0, 5);
        field.reset(16);
        assert_eq!(field.capacity(), 16);
        for v in 0..16u32 {
            assert_eq!(field.get(v), INFINITE_DISTANCE, "vertex {v}");
        }
    }

    #[test]
    fn visited_set_insert_semantics() {
        let mut set = VisitedSet::new();
        set.reset(4);
        assert!(set.insert(2));
        assert!(!set.insert(2));
        assert!(set.contains(2));
        set.reset(4);
        assert!(!set.contains(2));
        assert!(set.insert(2));
    }

    #[test]
    fn epoch_wraparound_bulk_resets() {
        let mut set = VisitedSet::new();
        set.reset(4);
        set.insert(1);
        // Force the epoch to the wrap-around point.
        set.epoch = u32::MAX - 1;
        set.stamps[0] = u32::MAX - 1; // stale entry stamped "visited"
        set.reset(4); // epoch -> MAX
        assert!(!set.contains(0));
        set.insert(3);
        set.reset(4); // wraps: stamps bulk-reset, epoch -> 1
        assert_eq!(set.epoch, 1);
        assert!(!set.contains(3));
        assert!(set.insert(3));

        let mut field = DistanceField::new();
        field.reset(2);
        field.epoch = u32::MAX;
        field.stamps[1] = u32::MAX;
        field.values[1] = 9;
        assert_eq!(field.get(1), 9);
        field.reset(2);
        assert_eq!(field.epoch, 1);
        assert_eq!(field.get(1), INFINITE_DISTANCE);
    }

    #[test]
    fn fresh_structures_start_unset() {
        // Regression guard: new slots carry stamp 0, so the first active
        // epoch must not be 0.
        let mut field = DistanceField::new();
        field.reset(3);
        assert!((0..3u32).all(|v| !field.is_set(v)));
        let mut set = VisitedSet::new();
        set.reset(3);
        assert!((0..3u32).all(|v| !set.contains(v)));
    }
}
