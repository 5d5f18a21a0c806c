//! Rate and utilization measurement over sliding windows.
//!
//! Links feed their recent utilization into the loaded-latency model, so the
//! window length directly shapes how quickly latency reacts to offered load.

use crate::time::{SimDuration, SimTime};
use crate::units::Bandwidth;
use std::collections::VecDeque;

/// Measures achieved throughput as bytes transferred in a sliding window.
#[derive(Debug, Clone)]
pub struct SlidingRate {
    window: SimDuration,
    samples: VecDeque<(SimTime, u64)>,
    in_window: u64,
}

impl SlidingRate {
    /// A meter with the given window length.
    ///
    /// # Panics
    /// Panics on a zero-length window.
    pub fn new(window: SimDuration) -> Self {
        // lmp-lint: allow(no-panic) — documented `# Panics` ctor precondition;
        // a zero-length window divides by zero.
        assert!(!window.is_zero(), "zero-length rate window");
        SlidingRate {
            window,
            samples: VecDeque::new(),
            in_window: 0,
        }
    }

    /// Record `bytes` moved at time `now`.
    pub fn record(&mut self, now: SimTime, bytes: u64) {
        self.evict(now);
        self.samples.push_back((now, bytes));
        self.in_window += bytes;
    }

    /// Bytes recorded within the window ending at `now`.
    pub fn bytes_in_window(&mut self, now: SimTime) -> u64 {
        self.evict(now);
        self.in_window
    }

    /// Achieved bandwidth over the window ending at `now`.
    pub fn rate(&mut self, now: SimTime) -> Bandwidth {
        let bytes = self.bytes_in_window(now);
        Bandwidth::measured(bytes, self.window)
    }

    fn evict(&mut self, now: SimTime) {
        // Keep samples whose age is at most the window length.
        while let Some(&(t, b)) = self.samples.front() {
            if now.saturating_duration_since(t) > self.window {
                self.samples.pop_front();
                self.in_window -= b;
            } else {
                break;
            }
        }
    }
}

/// Tracks the busy/idle state of a serial resource (a link direction, a DRAM
/// channel) and reports utilization over a sliding window.
///
/// The resource is modelled as busy until `busy_until`; callers extend the
/// busy period as they admit work.
///
/// Closed busy intervals form a ledger that is sorted and disjoint with
/// gaps (`occupy` only ever starts at or after `busy_until`, and a start
/// exactly at `busy_until` extends the open interval instead of closing
/// it). Each ledger entry carries the running total of busy nanoseconds
/// through its end, so a query is one binary search plus one subtraction
/// and two integer clips — O(log n) in the intervals held, instead of a
/// scan of the whole window.
///
/// **Eviction follows the latest query, not the earliest.** A query at
/// `now` drops every closed interval that ends at or before
/// `now - window`, and a later query at an *earlier* `now` (clients whose
/// clocks interleave) does not get them back: it counts only what
/// survived. This is the behaviour every committed digest was recorded
/// with, and it is kept as is.
#[derive(Debug, Clone)]
pub struct BusyTracker {
    window: SimDuration,
    /// Closed busy intervals, oldest first.
    intervals: VecDeque<Busy>,
    /// Running busy total through the newest closed interval (the `cum`
    /// the next closed interval builds on). Never reset by eviction.
    closed_busy: u64,
    busy_until: SimTime,
    busy_from: SimTime,
    has_open: bool,
}

/// One closed busy interval `[start, end)` of a [`BusyTracker`] ledger.
#[derive(Debug, Clone, Copy)]
struct Busy {
    start: u64,
    end: u64,
    /// Busy nanoseconds of every interval ever closed, through `end`.
    cum: u64,
}

impl BusyTracker {
    /// A tracker with the given utilization window.
    ///
    /// # Panics
    /// Panics on a zero-length window.
    pub fn new(window: SimDuration) -> Self {
        // lmp-lint: allow(no-panic) — documented `# Panics` ctor precondition;
        // a zero-length window divides by zero.
        assert!(!window.is_zero(), "zero-length utilization window");
        BusyTracker {
            window,
            intervals: VecDeque::new(),
            closed_busy: 0,
            busy_until: SimTime::ZERO,
            busy_from: SimTime::ZERO,
            has_open: false,
        }
    }

    /// The earliest instant the resource is free at or after `now`.
    pub fn free_at(&self, now: SimTime) -> SimTime {
        self.busy_until.max(now)
    }

    /// Occupy the resource for `work` starting no earlier than `now`.
    /// Returns the interval `(start, end)` the work occupies.
    pub fn occupy(&mut self, now: SimTime, work: SimDuration) -> (SimTime, SimTime) {
        let start = self.free_at(now);
        let end = start + work;
        if self.has_open && start == self.busy_until {
            // Extend the open interval.
            self.busy_until = end;
        } else {
            if self.has_open {
                let (s, e) = (self.busy_from.as_nanos(), self.busy_until.as_nanos());
                self.closed_busy += e - s;
                self.intervals.push_back(Busy {
                    start: s,
                    end: e,
                    cum: self.closed_busy,
                });
            }
            self.busy_from = start;
            self.busy_until = end;
            self.has_open = true;
        }
        (start, end)
    }

    /// Fraction of the window `[now - window, now]` the resource was busy,
    /// in `[0, 1]`. Busy time scheduled beyond `now` is not counted.
    ///
    /// Evicts closed intervals that end at or before `now - window` first;
    /// see the type docs for what that means when `now` goes backwards.
    pub fn utilization(&mut self, now: SimTime) -> f64 {
        let now_ns = now.as_nanos();
        let ws = now_ns.saturating_sub(self.window.as_nanos());
        while self.intervals.front().is_some_and(|iv| iv.end <= ws) {
            self.intervals.pop_front();
        }
        // After eviction every interval ends after `ws`, and intervals are
        // disjoint with gaps, so only the first can start before `ws` and
        // only the last one starting before `now` can run past `now`.
        let k = self.intervals.partition_point(|iv| iv.start < now_ns);
        let mut busy = 0u64;
        if k > 0 {
            let first = self.intervals[0];
            let last = self.intervals[k - 1];
            busy = last.cum
                - (first.cum - (first.end - first.start))
                - ws.saturating_sub(first.start)
                - last.end.saturating_sub(now_ns);
        }
        if self.has_open {
            let s = self.busy_from.as_nanos().max(ws);
            let e = self.busy_until.as_nanos().min(now_ns);
            busy += e.saturating_sub(s);
        }
        let span = (now_ns - ws).min(self.window.as_nanos());
        if span == 0 {
            return 0.0;
        }
        (busy as f64 / span as f64).clamp(0.0, 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }
    fn d(ns: u64) -> SimDuration {
        SimDuration::from_nanos(ns)
    }

    #[test]
    fn sliding_rate_measures_window_only() {
        let mut m = SlidingRate::new(d(100));
        m.record(t(0), 1_000);
        m.record(t(50), 500);
        assert_eq!(m.bytes_in_window(t(60)), 1_500);
        // At t=150 the t=0 sample has aged out (age 150 > 100).
        assert_eq!(m.bytes_in_window(t(150)), 500);
        // At t=151 the t=50 sample is exactly at age 101 > window.
        assert_eq!(m.bytes_in_window(t(151)), 0);
    }

    #[test]
    fn sliding_rate_bandwidth() {
        let mut m = SlidingRate::new(SimDuration::from_secs(1));
        m.record(t(0), 21_000_000_000);
        let r = m.rate(t(10));
        assert!((r.as_gbps() - 21.0).abs() < 1e-6, "{r}");
    }

    #[test]
    fn busy_tracker_serializes_work() {
        let mut b = BusyTracker::new(d(1_000));
        let (s1, e1) = b.occupy(t(0), d(10));
        assert_eq!((s1, e1), (t(0), t(10)));
        // Second job queued behind the first.
        let (s2, e2) = b.occupy(t(5), d(10));
        assert_eq!((s2, e2), (t(10), t(20)));
        // Job after idle gap starts immediately.
        let (s3, _) = b.occupy(t(100), d(10));
        assert_eq!(s3, t(100));
    }

    #[test]
    fn utilization_full_and_idle() {
        let mut b = BusyTracker::new(d(100));
        b.occupy(t(0), d(100));
        assert!((b.utilization(t(100)) - 1.0).abs() < 1e-9);
        // After a long idle stretch utilization decays to 0.
        assert!(b.utilization(t(1_000)) < 1e-9);
    }

    #[test]
    fn utilization_half_busy() {
        let mut b = BusyTracker::new(d(100));
        b.occupy(t(0), d(50));
        let u = b.utilization(t(100));
        assert!((u - 0.5).abs() < 1e-9, "u={u}");
    }

    #[test]
    fn utilization_ignores_future_busy_time() {
        let mut b = BusyTracker::new(d(100));
        b.occupy(t(0), d(1_000)); // busy far into the future
        let u = b.utilization(t(50));
        assert!((u - 1.0).abs() < 1e-9, "u={u}");
    }

    #[test]
    fn utilization_with_gaps() {
        let mut b = BusyTracker::new(d(100));
        b.occupy(t(0), d(20)); // [0,20)
        b.occupy(t(40), d(20)); // [40,60)
        b.occupy(t(80), d(20)); // [80,100)
        let u = b.utilization(t(100));
        assert!((u - 0.6).abs() < 1e-9, "u={u}");
    }

    #[test]
    fn later_query_evicts_for_earlier_queries() {
        // Pinned, not endorsed: eviction follows the latest `now` seen, so a
        // query at an earlier `now` after a later one undercounts. Every
        // committed digest was recorded with this behaviour.
        let mut b = BusyTracker::new(d(100));
        b.occupy(t(0), d(50)); // [0,50)
        b.occupy(t(200), d(10)); // closes [0,50); open [200,210)
        assert_eq!(b.utilization(t(100)), 0.5);
        // Window [60,160]: [0,50) ends before it and is evicted.
        assert_eq!(b.utilization(t(160)), 0.0);
        // Back at t=100 the evicted interval is gone for good...
        assert_eq!(b.utilization(t(100)), 0.0);
        // ...while a tracker that never saw t=160 still counts it.
        let mut fresh = BusyTracker::new(d(100));
        fresh.occupy(t(0), d(50));
        fresh.occupy(t(200), d(10));
        assert_eq!(fresh.utilization(t(100)), 0.5);
        // An interval ending exactly at the window start is evicted too.
        assert_eq!(fresh.utilization(t(150)), 0.0);
        assert_eq!(fresh.utilization(t(100)), 0.0);
    }

    #[test]
    fn utilization_clips_both_ends_of_one_interval() {
        let mut b = BusyTracker::new(d(100));
        b.occupy(t(0), d(1_000)); // [0,1000)
        b.occupy(t(2_000), d(10)); // closes it
                                   // Window [400,500] lies inside the one closed interval.
        assert_eq!(b.utilization(t(500)), 1.0);
    }

    #[test]
    fn utilization_empty_window_is_zero() {
        let mut b = BusyTracker::new(d(100));
        assert_eq!(b.utilization(t(0)), 0.0);
    }
}
