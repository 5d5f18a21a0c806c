//! The host clock. Every wall-clock read in the benchmark goes through
//! [`now`]; host readings feed only the host metrics and never enter
//! simulated state, sim metrics or any digest.

// lmp-lint: allow(wall-clock) — the type of a host-clock reading; only `now` makes one
pub use std::time::Instant;

/// Read the host clock.
pub fn now() -> Instant {
    // lmp-lint: allow(wall-clock) — the benchmark measures host time per op and per layer; wall time never enters simulation state or digests
    Instant::now()
}

/// Host nanoseconds from `start` to now.
pub fn ns_since(start: Instant) -> u64 {
    ns_between(start, now())
}

/// Host nanoseconds from `start` to `end`, saturating at zero.
pub fn ns_between(start: Instant, end: Instant) -> u64 {
    u64::try_from(end.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX)
}
