//! The machine-speed reference for host metrics. A shared host runs in fast
//! and slow spells that last from seconds to minutes, longer than a run, so
//! plain host times of one workload differ by up to 2× between runs. Every
//! repetition therefore also times a fixed kernel that uses no code of the
//! program (ordered-map inserts and lookups, then a sort), once before and
//! once after the episode, and scales its host times by [`scale`]: they
//! read as host time on a machine running at the speed where the kernel
//! takes [`REFERENCE_NS`]. A change to the program moves the episode and
//! not the kernel, so it moves the scaled metrics by the same share as the
//! plain ones.

use crate::clock;
use crate::stats::mix;
use std::collections::BTreeMap;

/// The kernel's host time at the reference speed: about its median on the
/// 2-vCPU Xeon VM the benchmark was first measured on (README.md).
pub const REFERENCE_NS: f64 = 7_000_000.0;

/// How much more the workloads' host times move than the kernel's across
/// the machine's spells, as a power: over 1,500 episodes of the four
/// workloads in runs that crossed spells, log episode time rose 1.2–1.3×
/// as fast as log kernel time (README.md).
pub const SENSITIVITY: f64 = 1.3;

/// The factor that brings host times measured beside kernel runs of
/// `kernel_before` and `kernel_after` ns to the reference speed: host times
/// multiply by it, rates divide by it.
pub fn scale(kernel_before: u64, kernel_after: u64) -> f64 {
    let kernel = (kernel_before + kernel_after).max(1) as f64 / 2.0;
    (REFERENCE_NS / kernel).powf(SENSITIVITY)
}

const MAP_KEYS: u64 = 20_000;
const LOOKUPS: u64 = 40_000;
const SORTED: u64 = 32_768;

/// Run the kernel once and return its host time in ns.
pub fn kernel_ns() -> u64 {
    let start = clock::now();
    let mut map = BTreeMap::new();
    for i in 0..MAP_KEYS {
        map.insert(mix(i) & 0xffff_ffff, i);
    }
    let mut acc = 0u64;
    for i in 0..LOOKUPS {
        if let Some(v) = map.get(&(mix(i) & 0xffff_ffff)) {
            acc = acc.wrapping_add(*v);
        }
    }
    let mut values: Vec<u64> = (0..SORTED).map(|i| mix(i ^ acc)).collect();
    values.sort_unstable();
    std::hint::black_box((map, values));
    clock::ns_since(start)
}
