//! Epoch-stamped scratch structures for zero-allocation query loops.
//!
//! Every online query in this workspace (the QbS guided search, with or
//! without landmarks, and the ground-truth double BFS) needs per-vertex scratch state:
//! distance fields and visited sets sized to the graph. Allocating and
//! zeroing `O(|V|)` memory per query dominates latency on large graphs —
//! the exact tax the paper's microsecond-level query times cannot afford.
//!
//! The structures here amortise that cost with the classic *epoch stamping*
//! (generation counter) trick: each slot carries a `u32` stamp, and a slot
//! is considered initialised only when its stamp equals the structure's
//! current epoch. "Clearing" the whole structure is then a single
//! `epoch += 1` — O(1) instead of O(|V|) — and the backing array is
//! allocated once and reused for the lifetime of the workspace. When the
//! epoch counter would wrap around `u32::MAX`, the slots are lazily
//! bulk-reset once every ~4 billion queries, preserving correctness.
//!
//! A [`DistanceField`] slot packs its stamp and its value into one `u64`,
//! so reading or writing a vertex's depth touches one cache line, not two.

use crate::vertex::{Distance, VertexId, INFINITE_DISTANCE};

/// Bumps `epoch`, bulk-resetting `slots` to epoch 0 on the (rare)
/// wrap-around. Epoch 0 is never active, so a zeroed slot is unset.
fn advance_epoch<T: Copy + Default>(epoch: &mut u32, slots: &mut [T]) {
    if *epoch == u32::MAX {
        slots.fill(T::default());
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
///
/// Each slot is one `u64`, `epoch << 32 | distance`: 8 bytes per vertex,
/// one cache line per access. A slot of 0 carries epoch 0, which is never
/// active, so fresh and bulk-reset slots read as unset.
#[derive(Clone, Debug, Default)]
pub struct DistanceField {
    slots: Vec<u64>,
    epoch: u32,
}

impl DistanceField {
    /// Creates an empty field; [`DistanceField::reset`] sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Clears the field for a graph with `n` vertex slots.
    pub fn reset(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize(n, 0);
            // Fresh slots carry epoch 0; make sure the active epoch differs.
            if self.epoch == 0 {
                self.epoch = 1;
                return;
            }
        }
        advance_epoch(&mut self.epoch, &mut self.slots);
    }

    /// The distance of `v`, or [`INFINITE_DISTANCE`] when unset.
    #[inline]
    pub fn get(&self, v: VertexId) -> Distance {
        let slot = self.slots[v as usize];
        if (slot >> 32) as u32 == self.epoch {
            slot as Distance
        } else {
            INFINITE_DISTANCE
        }
    }

    /// Whether `v` has been assigned a distance since the last reset.
    #[inline]
    pub fn is_set(&self, v: VertexId) -> bool {
        (self.slots[v as usize] >> 32) as u32 == self.epoch
    }

    /// Assigns the distance of `v`.
    #[inline]
    pub fn set(&mut self, v: VertexId, distance: Distance) {
        self.slots[v as usize] = (u64::from(self.epoch) << 32) | u64::from(distance);
    }

    /// Number of vertex slots currently backed.
    pub fn capacity(&self) -> usize {
        self.slots.len()
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
        field.set(1, 9);
        assert_eq!(field.get(1), 9);
        field.reset(2);
        assert_eq!(field.epoch, 1);
        assert_eq!(field.get(1), INFINITE_DISTANCE);
    }

    /// One step of splitmix64: a seeded, dependency-free operation stream.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Operations per model sequence: enough for two wrap crossings.
    const MODEL_OPS: usize = 400;

    /// Runs [`MODEL_OPS`] seeded set / get / is_set / reset /
    /// reset-with-growth operations on a fresh [`DistanceField`] and on the
    /// obvious model, a `Vec<Option<Distance>>` cleared on every reset,
    /// asserting that they agree after every step. Returns how many resets
    /// wrapped the epoch.
    ///
    /// The field's first epochs stamp some slots. Then, every 200
    /// operations, the epoch jumps to three below `u32::MAX` (a reset, as
    /// far as the model knows), so the next resets cross the wrap. Each
    /// wrap lands on those low epochs again, which is where a wrap that
    /// skipped the bulk reset would resurrect stale slots.
    fn run_against_model(seed: u64) -> u32 {
        const VALUES: [Distance; 4] = [0, 1, u32::MAX - 1, INFINITE_DISTANCE];
        let mut rng = seed;
        let mut field = DistanceField::new();
        let mut model: Vec<Option<Distance>> = vec![None; 1 + (next(&mut rng) % 8) as usize];
        field.reset(model.len());
        let mut wraps = 0;
        for op in 1..=MODEL_OPS {
            if op % 200 == 100 {
                field.epoch = u32::MAX - 3;
                model.fill(None);
            }
            let v = (next(&mut rng) % model.len() as u64) as VertexId;
            let epoch = field.epoch;
            let ctx = move || format!("seed {seed}, op {op}, vertex {v}, epoch {epoch}");
            match next(&mut rng) % 16 {
                0..=5 => {
                    let d = VALUES[(next(&mut rng) % VALUES.len() as u64) as usize];
                    field.set(v, d);
                    model[v as usize] = Some(d);
                }
                6..=9 => {
                    let want = model[v as usize].unwrap_or(INFINITE_DISTANCE);
                    assert_eq!(field.get(v), want, "get: {}", ctx());
                }
                10..=12 => {
                    let want = model[v as usize].is_some();
                    assert_eq!(field.is_set(v), want, "is_set: {}", ctx());
                }
                13 | 14 => {
                    field.reset(1 + (next(&mut rng) % model.len() as u64) as usize);
                    model.fill(None);
                }
                _ => {
                    let grown = model.len() + 1 + (next(&mut rng) % 4) as usize;
                    field.reset(grown);
                    model = vec![None; grown];
                    assert_eq!(field.capacity(), grown, "growth: {}", ctx());
                }
            }
            if field.epoch != epoch {
                wraps += u32::from(field.epoch < epoch);
                let live = (0..model.len() as VertexId).find(|&w| field.is_set(w));
                assert_eq!(live, None, "set after a reset: {}", ctx());
            }
        }
        for (v, want) in model.iter().enumerate() {
            let v = v as VertexId;
            assert_eq!(field.is_set(v), want.is_some(), "final sweep: seed {seed}");
            assert_eq!(
                field.get(v),
                want.unwrap_or(INFINITE_DISTANCE),
                "final sweep: seed {seed}"
            );
        }
        wraps
    }

    #[test]
    fn distance_field_matches_a_vec_of_options_across_the_wrap() {
        for seed in 0..64 {
            assert!(run_against_model(seed) >= 1, "seed {seed} never wrapped");
        }
    }

    /// The long variant: 2 500 sequences, a million operations and
    /// thousands of wraps. CI runs it in release with `--include-ignored`.
    #[test]
    #[ignore = "long; CI runs it in release"]
    fn distance_field_matches_a_vec_of_options_over_many_wraps() {
        let wraps: u32 = (1_000..3_500).map(run_against_model).sum();
        assert!(wraps >= 2_500, "only {wraps} wraps");
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
