//! Access-bit hotness tracking.
//!
//! §5 "Locality balancing": NUMA systems unmap pages and take faults to
//! sample accesses, which the paper deems too slow for LMPs; it proposes
//! hardware performance counters plus per-frame access bits. [`HotnessMap`]
//! models that: each access sets a counter for the (frame, accessor) pair;
//! an epoch tick halves the counters (exponential decay) so rankings follow
//! the current phase of the workload.

use crate::frame::FrameId;
use std::collections::BTreeMap;

/// Identifies who performed an access (a server id in the LMP runtime).
pub type AccessorId = u32;

/// Decaying per-frame, per-accessor access counters.
#[derive(Debug, Clone, Default)]
pub struct HotnessMap {
    /// (frame → accessor → decayed access count)
    counts: BTreeMap<FrameId, BTreeMap<AccessorId, u64>>,
    epoch: u64,
}

impl HotnessMap {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record `n` accesses to `frame` by `accessor`.
    pub fn record(&mut self, frame: FrameId, accessor: AccessorId, n: u64) {
        *self
            .counts
            .entry(frame)
            .or_default()
            .entry(accessor)
            .or_insert(0) += n;
    }

    /// Decayed access count for a (frame, accessor) pair.
    pub fn count(&self, frame: FrameId, accessor: AccessorId) -> u64 {
        self.counts
            .get(&frame)
            .and_then(|m| m.get(&accessor))
            .copied()
            .unwrap_or(0)
    }

    /// Total (all-accessor) decayed count for a frame.
    pub fn total(&self, frame: FrameId) -> u64 {
        self.counts
            .get(&frame)
            .map(|m| m.values().sum())
            .unwrap_or(0)
    }

    /// The accessor with the most accesses to `frame`, if any.
    pub fn dominant_accessor(&self, frame: FrameId) -> Option<(AccessorId, u64)> {
        let m = self.counts.get(&frame)?;
        m.iter()
            // Deterministic tie-break: lowest accessor id wins.
            .max_by_key(|(id, c)| (**c, std::cmp::Reverse(**id)))
            .map(|(id, c)| (*id, *c))
    }

    /// Advance one epoch: halve every counter, dropping entries that reach
    /// zero. Returns the number of live (frame, accessor) pairs remaining.
    pub fn tick_epoch(&mut self) -> usize {
        self.epoch += 1;
        let mut live = 0;
        self.counts.retain(|_, per_acc| {
            per_acc.retain(|_, c| {
                *c /= 2;
                *c > 0
            });
            live += per_acc.len();
            !per_acc.is_empty()
        });
        live
    }

    /// Number of epoch ticks so far.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Forget a frame entirely (it was freed or migrated away).
    pub fn forget(&mut self, frame: FrameId) {
        self.counts.remove(&frame);
    }

    /// Observed load attributed to one accessor across every frame on this
    /// node: `(frames touched, decayed access count)`. Iterates the
    /// `BTreeMap` in key order, so the result is deterministic.
    pub fn accessor_load(&self, accessor: AccessorId) -> (u64, u64) {
        let mut frames = 0;
        let mut accesses = 0;
        for per_acc in self.counts.values() {
            if let Some(c) = per_acc.get(&accessor) {
                frames += 1;
                accesses += c;
            }
        }
        (frames, accesses)
    }

    /// Number of live (frame, accessor) pairs currently tracked.
    pub fn live_pairs(&self) -> usize {
        self.counts.values().map(|per_acc| per_acc.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_query() {
        let mut h = HotnessMap::new();
        h.record(FrameId(1), 0, 5);
        h.record(FrameId(1), 1, 3);
        assert_eq!(h.count(FrameId(1), 0), 5);
        assert_eq!(h.total(FrameId(1)), 8);
        assert_eq!(h.dominant_accessor(FrameId(1)), Some((0, 5)));
    }

    #[test]
    fn decay_halves_and_drops() {
        let mut h = HotnessMap::new();
        h.record(FrameId(1), 0, 4);
        h.record(FrameId(2), 0, 1);
        h.tick_epoch();
        assert_eq!(h.count(FrameId(1), 0), 2);
        assert_eq!(h.count(FrameId(2), 0), 0);
        h.tick_epoch();
        h.tick_epoch();
        assert_eq!(h.total(FrameId(1)), 0);
        assert_eq!(h.epoch(), 3);
    }

    #[test]
    fn dominant_accessor_tie_breaks_low_id() {
        let mut h = HotnessMap::new();
        h.record(FrameId(7), 3, 5);
        h.record(FrameId(7), 1, 5);
        assert_eq!(h.dominant_accessor(FrameId(7)), Some((1, 5)));
    }

    #[test]
    fn forget_removes_frame() {
        let mut h = HotnessMap::new();
        h.record(FrameId(9), 0, 5);
        h.forget(FrameId(9));
        assert_eq!(h.total(FrameId(9)), 0);
        assert_eq!(h.dominant_accessor(FrameId(9)), None);
    }
}
