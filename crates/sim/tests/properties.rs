// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Property-based tests for the simulation kernel.

use lmp_sim::prelude::*;
use proptest::prelude::*;
use std::collections::VecDeque;

/// The linear-scan ledger `BusyTracker` used before its prefix-sum rewrite:
/// every query walks every closed interval left in the window. Kept here as
/// the reference the O(log n) ledger must match bit for bit.
struct LinearBusy {
    window: u64,
    intervals: VecDeque<(u64, u64)>,
    busy_from: u64,
    busy_until: u64,
    has_open: bool,
}

impl LinearBusy {
    fn new(window: u64) -> Self {
        LinearBusy {
            window,
            intervals: VecDeque::new(),
            busy_from: 0,
            busy_until: 0,
            has_open: false,
        }
    }

    fn occupy(&mut self, now: u64, work: u64) -> (u64, u64) {
        let start = self.busy_until.max(now);
        let end = start + work;
        if self.has_open && start == self.busy_until {
            self.busy_until = end;
        } else {
            if self.has_open {
                self.intervals.push_back((self.busy_from, self.busy_until));
            }
            self.busy_from = start;
            self.busy_until = end;
            self.has_open = true;
        }
        (start, end)
    }

    fn utilization(&mut self, now: u64) -> f64 {
        let window_start = now.saturating_sub(self.window);
        while let Some(&(_, end)) = self.intervals.front() {
            if end <= window_start {
                self.intervals.pop_front();
            } else {
                break;
            }
        }
        let mut busy = 0u64;
        for &(s, e) in &self.intervals {
            let s = s.max(window_start);
            let e = e.min(now);
            if e > s {
                busy += e - s;
            }
        }
        if self.has_open {
            let s = self.busy_from.max(window_start);
            let e = self.busy_until.min(now);
            if e > s {
                busy += e - s;
            }
        }
        let span = (now - window_start).min(self.window);
        if span == 0 {
            return 0.0;
        }
        (busy as f64 / span as f64).clamp(0.0, 1.0)
    }
}

proptest! {
    /// Events always pop in non-decreasing timestamp order, and equal
    /// timestamps pop in insertion order.
    #[test]
    fn queue_pop_order_is_total(times in proptest::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, _, idx)) = q.pop() {
            if let Some((lt, lidx)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(idx > lidx, "FIFO violated at equal timestamps");
                }
            }
            last = Some((t, idx));
        }
    }

    /// Cancelling an arbitrary subset delivers exactly the complement.
    #[test]
    fn queue_cancellation_is_exact(
        times in proptest::collection::vec(0u64..100, 1..100),
        cancel_mask in proptest::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| q.push(SimTime::from_nanos(t), i))
            .collect();
        let mut expect: Vec<usize> = Vec::new();
        for (i, id) in ids.iter().enumerate() {
            if *cancel_mask.get(i).unwrap_or(&false) {
                prop_assert!(q.cancel(*id));
            } else {
                expect.push(i);
            }
        }
        let mut got: Vec<usize> = Vec::new();
        while let Some((_, _, p)) = q.pop() {
            got.push(p);
        }
        got.sort_unstable();
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// Histogram quantiles are within ~5% relative error and bracketed by
    /// min/max for arbitrary sample sets.
    #[test]
    fn histogram_quantile_error_bounded(
        mut samples in proptest::collection::vec(1u64..1_000_000_000, 10..500),
    ) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        samples.sort_unstable();
        for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
            let got = h.quantile(q);
            prop_assert!(got >= h.min() && got <= h.max());
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let exact = samples[rank - 1] as f64;
            let err = (got as f64 - exact).abs() / exact.max(1.0);
            prop_assert!(err < 0.07, "q={q}: got {got}, exact {exact}, err {err}");
        }
    }

    /// Histogram mean/min/max/count are exact regardless of bucketing.
    #[test]
    fn histogram_moments_exact(samples in proptest::collection::vec(0u64..u32::MAX as u64, 1..200)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.count(), samples.len() as u64);
        prop_assert_eq!(h.min(), *samples.iter().min().unwrap());
        prop_assert_eq!(h.max(), *samples.iter().max().unwrap());
        let mean = samples.iter().map(|&s| s as f64).sum::<f64>() / samples.len() as f64;
        prop_assert!((h.mean() - mean).abs() < 1e-6 * mean.max(1.0));
    }

    /// The engine delivers every scheduled event exactly once, in time order.
    #[test]
    fn engine_delivers_everything_once(times in proptest::collection::vec(0u64..10_000, 1..200)) {
        let mut eng = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            eng.schedule_at(SimTime::from_nanos(t), i)
                .expect("fresh engine: every time is in the future");
        }
        let mut seen = vec![false; times.len()];
        let mut last = SimTime::ZERO;
        eng.run(|eng, i| {
            assert!(!seen[i], "event {i} delivered twice");
            seen[i] = true;
            assert!(eng.now() >= last);
            last = eng.now();
        });
        prop_assert!(seen.iter().all(|&s| s));
        prop_assert_eq!(eng.events_processed(), times.len() as u64);
    }

    /// BusyTracker utilization is always in [0, 1] and monotone in load.
    #[test]
    fn busy_utilization_bounded(
        jobs in proptest::collection::vec((0u64..10_000, 1u64..500), 1..100),
    ) {
        let mut b = BusyTracker::new(SimDuration::from_nanos(5_000));
        let mut sorted = jobs.clone();
        sorted.sort_unstable();
        let mut horizon = SimTime::ZERO;
        for (at, work) in sorted {
            let (_, end) = b.occupy(SimTime::from_nanos(at), SimDuration::from_nanos(work));
            horizon = horizon.max(end);
        }
        let u = b.utilization(horizon);
        prop_assert!((0.0..=1.0).contains(&u), "u={u}");
    }

    /// The prefix-sum ledger answers every query with the same `f64` bits
    /// as the linear scan it replaced. The op mix covers zero-length work,
    /// idle gaps longer than the window, back-to-back extensions of the
    /// open interval, and queries whose `now` goes backwards (four client
    /// clocks interleaving on one wire).
    #[test]
    fn busy_ledger_matches_linear_scan(
        window in 1u64..400,
        ops in proptest::collection::vec((0u8..6, 0u64..300, 0u64..120), 1..400),
    ) {
        let mut fast = BusyTracker::new(SimDuration::from_nanos(window));
        let mut slow = LinearBusy::new(window);
        let mut clock = 0u64;
        let mut last_end = 0u64;
        for (kind, step, work) in ops {
            // Zero-length work one time in four.
            let work = if work % 4 == 0 { 0 } else { work };
            let mut occupy_at = None;
            let mut query_at = None;
            match kind {
                // Occupy a little after the clock (may queue behind work).
                0 => {
                    clock += step / 4;
                    occupy_at = Some(clock);
                }
                // Extend back to back: start exactly where the last job ended.
                1 => occupy_at = Some(last_end),
                // Idle longer than the window, then occupy.
                2 => {
                    clock = clock.max(last_end) + window + 1 + step;
                    occupy_at = Some(clock);
                }
                // Query at the clock.
                3 => {
                    clock += step / 8;
                    query_at = Some(clock);
                }
                // Query in the past: another client's earlier clock.
                4 => query_at = Some(clock.saturating_sub(step)),
                // Query in the future, past queued work.
                _ => query_at = Some(last_end + step),
            }
            if let Some(at) = occupy_at {
                let a = fast.occupy(SimTime::from_nanos(at), SimDuration::from_nanos(work));
                let b = slow.occupy(at, work);
                prop_assert_eq!((a.0.as_nanos(), a.1.as_nanos()), b);
                last_end = b.1;
            }
            if let Some(at) = query_at {
                let u = fast.utilization(SimTime::from_nanos(at));
                let r = slow.utilization(at);
                prop_assert_eq!(u.to_bits(), r.to_bits(), "now={} u={} ref={}", at, u, r);
            }
        }
    }

    /// Transfer time scales linearly with byte count.
    #[test]
    fn bandwidth_linear(gbps in 1.0f64..200.0, kb in 1u64..1_000_000) {
        let bw = Bandwidth::from_gbps(gbps);
        let one = bw.time_to_transfer(kb * 1024).as_nanos() as f64;
        let two = bw.time_to_transfer(2 * kb * 1024).as_nanos() as f64;
        // Within rounding, doubling bytes doubles time.
        prop_assert!((two / one - 2.0).abs() < 0.01, "one={one} two={two}");
    }

    /// Forked RNG streams are reproducible.
    #[test]
    fn rng_fork_reproducible(seed in any::<u64>(), label in "[a-z]{1,12}") {
        let a = DetRng::new(seed);
        let mut f1 = a.fork(&label);
        let mut f2 = a.fork(&label);
        for _ in 0..16 {
            prop_assert_eq!(rand::RngCore::next_u64(&mut f1), rand::RngCore::next_u64(&mut f2));
        }
    }
}
