//! Spans around the calls the benchmark makes into each layer.
//!
//! A span has a name (the layer and call), a start, an end, a parent and
//! the id of the op it belongs to. Memory is fixed however long the run:
//! each layer keeps a call count, total and self time and a log2 histogram
//! of self time, and raw spans survive only as a bounded reservoir sample.
//! Self time is a span's duration minus the time its child spans cover.
//! When off, [`Tracer::enter`] and [`Tracer::exit`] return at once and
//! read no clock.

use crate::clock::{self, Instant};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Raw spans kept for the trace file.
const SAMPLE_CAP: usize = 4096;
/// log2 buckets of self time: bucket `b` holds `[2^(b-1), 2^b)` ns.
const BUCKETS: usize = 48;

/// One layer's aggregate.
#[derive(Debug, Clone)]
pub struct LayerStat {
    pub calls: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    hist: [u64; BUCKETS],
}

impl LayerStat {
    fn new() -> Self {
        LayerStat {
            calls: 0,
            total_ns: 0,
            self_ns: 0,
            hist: [0; BUCKETS],
        }
    }

    /// Mean self time per call.
    pub fn mean_self_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }

    /// Upper edge of the histogram bucket holding quantile `q` of self time.
    pub fn self_quantile_ns(&self, q: f64) -> u64 {
        let want = (q * self.calls as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, n) in self.hist.iter().enumerate() {
            seen += n;
            if seen >= want {
                return 1u64 << b;
            }
        }
        0
    }
}

#[derive(Debug, Clone, Copy)]
struct Open {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    start: Instant,
    child_ns: u64,
}

#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    name: &'static str,
    op: u64,
    id: u64,
    parent: Option<u64>,
    start_ns: u64,
    end_ns: u64,
}

/// The span recorder. One per run; spans nest strictly.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Option<Instant>,
    op: u64,
    next_id: u64,
    stack: Vec<Open>,
    layers: BTreeMap<&'static str, LayerStat>,
    sample: Vec<SpanRecord>,
    closed: u64,
    reservoir: u64,
}

impl Tracer {
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            origin: None,
            op: 0,
            next_id: 0,
            stack: Vec::new(),
            layers: BTreeMap::new(),
            sample: Vec::new(),
            closed: 0,
            reservoir: 0x2545_f491_4f6c_dd1d,
        }
    }

    pub fn on() -> Self {
        Tracer {
            enabled: true,
            ..Tracer::off()
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start a new op: spans opened from here on share its id.
    pub fn begin_op(&mut self) {
        if self.enabled {
            self.op += 1;
        }
    }

    /// Open a span named `name`, a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start = clock::now();
        self.origin.get_or_insert(start);
        let id = self.next_id;
        self.next_id += 1;
        self.stack.push(Open {
            name,
            id,
            parent: self.stack.last().map(|o| o.id),
            start,
            child_ns: 0,
        });
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end = clock::now();
        let Some(open) = self.stack.pop() else {
            return;
        };
        let dur = clock::ns_between(open.start, end);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_ns += dur;
        }
        let own = dur.saturating_sub(open.child_ns);
        let stat = self.layers.entry(open.name).or_insert_with(LayerStat::new);
        stat.calls += 1;
        stat.total_ns += dur;
        stat.self_ns += own;
        stat.hist[(64 - own.leading_zeros() as usize).min(BUCKETS - 1)] += 1;

        let origin = self.origin.unwrap_or(open.start);
        let rec = SpanRecord {
            name: open.name,
            op: self.op,
            id: open.id,
            parent: open.parent,
            start_ns: clock::ns_between(origin, open.start),
            end_ns: clock::ns_between(origin, end),
        };
        self.closed += 1;
        if self.sample.len() < SAMPLE_CAP {
            self.sample.push(rec);
        } else {
            // Reservoir sampling (xorshift64): every closed span is kept
            // with probability SAMPLE_CAP / closed.
            self.reservoir ^= self.reservoir << 13;
            self.reservoir ^= self.reservoir >> 7;
            self.reservoir ^= self.reservoir << 17;
            let slot = self.reservoir % self.closed;
            if slot < SAMPLE_CAP as u64 {
                self.sample[slot as usize] = rec;
            }
        }
    }

    /// The aggregate for one span name, if any span of it closed.
    pub fn layer(&self, name: &str) -> Option<&LayerStat> {
        self.layers.get(name)
    }

    /// Mean self time per call of `name`; 0 when it never ran.
    pub fn mean_self_ns(&self, name: &str) -> f64 {
        self.layer(name).map_or(0.0, LayerStat::mean_self_ns)
    }

    /// The per-layer table and the span sample as Chrome trace-event JSON
    /// (load it in `chrome://tracing` or Perfetto).
    pub fn to_chrome_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_closed\":{},\"layers\":{{",
            self.closed
        );
        for (i, (name, s)) in self.layers.iter().enumerate() {
            let _ = write!(
                out,
                "{}\"{name}\":{{\"calls\":{},\"total_ns\":{},\"self_ns\":{},\"self_p50_ns_le\":{},\"self_p99_ns_le\":{}}}",
                if i == 0 { "" } else { "," },
                s.calls,
                s.total_ns,
                s.self_ns,
                s.self_quantile_ns(0.5),
                s.self_quantile_ns(0.99),
            );
        }
        out.push_str("},\"traceEvents\":[");
        let mut sample = self.sample.clone();
        sample.sort_by_key(|r| (r.start_ns, r.id));
        for (i, r) in sample.iter().enumerate() {
            let parent = r.parent.map_or(-1, |p| p as i64);
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"op\":{},\"id\":{},\"parent\":{}}}}}",
                if i == 0 { "" } else { "," },
                r.name,
                r.start_ns as f64 / 1000.0,
                r.end_ns.saturating_sub(r.start_ns) as f64 / 1000.0,
                r.op,
                r.id,
                parent,
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::on();
        tr.begin_op();
        tr.enter("outer");
        tr.enter("inner");
        std::hint::black_box((0..10_000u64).sum::<u64>());
        tr.exit();
        tr.exit();
        let (outer, inner) = (tr.layer("outer").unwrap(), tr.layer("inner").unwrap());
        assert_eq!((outer.calls, inner.calls), (1, 1));
        assert_eq!(outer.total_ns, outer.self_ns + inner.total_ns);
        assert_eq!(inner.self_ns, inner.total_ns);
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::off();
        tr.enter("x");
        tr.exit();
        assert!(tr.layer("x").is_none());
    }

    #[test]
    fn memory_stays_fixed() {
        let mut tr = Tracer::on();
        for _ in 0..3 * SAMPLE_CAP {
            tr.begin_op();
            tr.enter("x");
            tr.exit();
        }
        assert_eq!(tr.sample.len(), SAMPLE_CAP);
        assert_eq!(tr.layer("x").unwrap().calls, 3 * SAMPLE_CAP as u64);
    }
}
