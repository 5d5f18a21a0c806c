//! Materialized frame contents.
//!
//! Timing experiments run "phantom": only byte *counts* flow through the
//! simulator, so a 96 GB vector costs nothing to model. Correctness-critical
//! machinery (migration, coherence, erasure coding, the KV store) instead
//! reads and writes real bytes through [`FrameStore`], which materializes
//! frame backing lazily. The two modes share all control-path code.

use crate::frame::{FrameId, FRAME_BYTES};
use std::collections::BTreeMap;

/// Lazily materialized byte backing for a node's frames.
#[derive(Debug, Default)]
pub struct FrameStore {
    frames: BTreeMap<FrameId, Box<[u8]>>,
}

impl FrameStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of frames currently materialized.
    pub fn materialized(&self) -> usize {
        self.frames.len()
    }

    /// Write `data` into `frame` starting at `offset`.
    ///
    /// # Panics
    /// Panics when the write would cross the frame boundary — callers split
    /// multi-frame operations, mirroring how hardware splits cache lines.
    pub fn write(&mut self, frame: FrameId, offset: u64, data: &[u8]) {
        // lmp-lint: allow(no-panic) — documented `# Panics` frame-boundary
        // contract, mirroring how hardware faults on cross-line writes.
        assert!(
            offset + data.len() as u64 <= FRAME_BYTES,
            "write crosses frame boundary: offset {offset} + {} > {FRAME_BYTES}",
            data.len()
        );
        let backing = self
            .frames
            .entry(frame)
            .or_insert_with(|| vec![0u8; FRAME_BYTES as usize].into_boxed_slice());
        backing[offset as usize..offset as usize + data.len()].copy_from_slice(data);
    }

    /// Append `len` bytes of `frame` starting at `offset` to `out`, so a
    /// multi-frame read fills one buffer. Unmaterialized frames read as
    /// zeros (fresh memory).
    ///
    /// # Panics
    /// Panics when the read would cross the frame boundary.
    pub fn read_into(&self, frame: FrameId, offset: u64, len: usize, out: &mut Vec<u8>) {
        // lmp-lint: allow(no-panic) — documented `# Panics` frame-boundary
        // contract, mirroring how hardware faults on cross-line reads.
        assert!(
            offset + len as u64 <= FRAME_BYTES,
            "read crosses frame boundary: offset {offset} + {len} > {FRAME_BYTES}"
        );
        match self.frames.get(&frame) {
            Some(b) => out.extend_from_slice(&b[offset as usize..offset as usize + len]),
            None => out.resize(out.len() + len, 0),
        }
    }

    /// Copy a whole frame's contents out (zeros if unmaterialized).
    pub fn read_frame(&self, frame: FrameId) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_BYTES as usize);
        self.read_into(frame, 0, FRAME_BYTES as usize, &mut out);
        out
    }

    /// Replace a whole frame's contents.
    ///
    /// # Panics
    /// Panics when `data` is not exactly one frame long.
    pub fn write_frame(&mut self, frame: FrameId, data: &[u8]) {
        // lmp-lint: allow(no-panic) — documented `# Panics` whole-frame
        // contract; callers size buffers from FRAME_BYTES.
        assert_eq!(data.len() as u64, FRAME_BYTES, "whole-frame write size");
        self.write(frame, 0, data);
    }

    /// Drop a frame's backing (freed or crashed away).
    pub fn discard(&mut self, frame: FrameId) {
        self.frames.remove(&frame);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(s: &FrameStore, frame: FrameId, offset: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        s.read_into(frame, offset, len, &mut out);
        out
    }

    #[test]
    fn unmaterialized_reads_zero() {
        let s = FrameStore::new();
        assert_eq!(read(&s, FrameId(0), 100, 4), vec![0; 4]);
        assert_eq!(s.materialized(), 0);
    }

    #[test]
    fn write_then_read() {
        let mut s = FrameStore::new();
        s.write(FrameId(3), 10, b"hello");
        assert_eq!(read(&s, FrameId(3), 10, 5), b"hello");
        assert_eq!(read(&s, FrameId(3), 9, 1), [0]);
        assert_eq!(s.materialized(), 1);
    }

    #[test]
    fn read_into_appends() {
        let mut s = FrameStore::new();
        s.write(FrameId(1), 0, b"ab");
        let mut out = b"x".to_vec();
        s.read_into(FrameId(1), 0, 2, &mut out);
        s.read_into(FrameId(2), 0, 2, &mut out);
        assert_eq!(out, b"xab\0\0");
    }

    #[test]
    fn frames_are_independent() {
        let mut s = FrameStore::new();
        s.write(FrameId(0), 0, b"aaa");
        s.write(FrameId(1), 0, b"bbb");
        assert_eq!(read(&s, FrameId(0), 0, 3), b"aaa");
        assert_eq!(read(&s, FrameId(1), 0, 3), b"bbb");
    }

    #[test]
    fn whole_frame_round_trip() {
        let mut s = FrameStore::new();
        let mut data = vec![0u8; FRAME_BYTES as usize];
        data[0] = 7;
        data[FRAME_BYTES as usize - 1] = 9;
        s.write_frame(FrameId(5), &data);
        assert_eq!(s.read_frame(FrameId(5)), data);
    }

    #[test]
    fn discard_resets_to_zero() {
        let mut s = FrameStore::new();
        s.write(FrameId(2), 0, b"x");
        s.discard(FrameId(2));
        assert_eq!(read(&s, FrameId(2), 0, 1), [0]);
    }

    #[test]
    #[should_panic(expected = "crosses frame boundary")]
    fn cross_boundary_write_panics() {
        let mut s = FrameStore::new();
        s.write(FrameId(0), FRAME_BYTES - 2, b"xyz");
    }

    #[test]
    #[should_panic(expected = "crosses frame boundary")]
    fn cross_boundary_read_panics() {
        let s = FrameStore::new();
        read(&s, FrameId(0), FRAME_BYTES - 1, 2);
    }
}
