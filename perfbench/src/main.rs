//! The repository benchmark: one command runs a named workload from a seed,
//! checks its outputs, and prints every metric by name and unit. The last
//! line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//!
//! ```text
//! perfbench --workload <kv-zipf|scan-pushdown|tenants-qos|chaos-heal>
//!           [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run repeats one seed-determined episode (build the world, run a fixed
//! op sequence, read the layers back) until `--seconds` have passed, after
//! one uncounted warm-up episode. Each host metric is the median over the
//! repetitions, scaled to a reference machine speed measured beside every
//! repetition (`calib.rs`). Sim metrics come from the simulated clock and
//! must agree bit for bit across repetitions, which the run checks through
//! each episode's sim digest.
//! `--trace 0` reports the end-to-end metrics. `--trace 1` spends half the time untraced and half traced, checks that
//! both halves agree on the sim digest, and reports the per-layer metrics,
//! including the tracing overhead. Any failed check exits 1; bad arguments
//! exit 2.

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod calib;
mod chaos;
mod clock;
mod episode;
mod host;
mod kv;
mod scan;
mod stats;
mod tenants;
mod trace;

use episode::{Episode, Sim};
use stats::{fquantile, p99_reportable, quantile};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use trace::Tracer;

/// The end-to-end metrics, reported with `--trace 0` on every workload:
/// the ones that are defined and never 0 on all four. The simulated clock
/// is gated through the mean op latency; its p50 reads the same for every
/// seed on three workloads, so it is reported with the per-layer metrics.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("ops_per_host_s", "1/s"),
    ("host_op_ns_p50", "ns"),
    ("peak_rss_mb", "MB"),
    ("sim_op_ns_mean", "ns"),
];

/// The per-layer metrics, reported with `--trace 1` on every workload (0
/// where a workload bypasses the layer). The first group is the end-to-end
/// metrics that exist on only some workloads.
const PER_LAYER: [(&str, &str); 56] = [
    ("host_op_ns_p99", "ns"),
    ("host_op_samples", "count"),
    ("sim_op_ns_p50", "ns"),
    ("sim_op_ns_p99", "ns"),
    ("sim_op_samples", "count"),
    ("sim_gbps", "GB/s"),
    ("local_ratio", "ratio"),
    ("fail_share", "ratio"),
    ("slo_miss_share", "ratio"),
    ("kv.op.host_ns", "ns"),
    ("core.access.host_ns", "ns"),
    ("core.access.calls", "count"),
    ("core.materialize.host_ns", "ns"),
    ("core.local_ops", "count"),
    ("core.remote_ops", "count"),
    ("core.tlb.hits", "count"),
    ("core.tlb.misses", "count"),
    ("core.tlb.stale", "count"),
    ("core.tlb.hit_ratio", "ratio"),
    ("core.global.lookups", "count"),
    ("runtime.tick.host_ns", "ns"),
    ("balance.migrations", "count"),
    ("balance.skipped", "count"),
    ("mem.dram.util_max", "ratio"),
    ("mem.local_accesses", "count"),
    ("mem.remote_accesses", "count"),
    ("fabric.reads", "count"),
    ("fabric.writes", "count"),
    ("fabric.read_lat_p50_ns", "ns"),
    ("fabric.read_lat_p99_ns", "ns"),
    ("fabric.link_util_max", "ratio"),
    ("scan.query.host_ns", "ns"),
    ("compute.plan.host_ns", "ns"),
    ("compute.execute.host_ns", "ns"),
    ("compute.shipped_segments", "count"),
    ("compute.fetched_segments", "count"),
    ("compute.fabric_bytes", "B"),
    ("compute.result_bytes", "B"),
    ("compute.est_err_pct", "%"),
    ("qos.admitted", "count"),
    ("qos.rejected", "count"),
    ("qos.access_as.host_ns", "ns"),
    ("telemetry.spans", "count"),
    ("telemetry.rss_bytes_per_op", "B"),
    ("telemetry.dram_self_ns", "ns"),
    ("telemetry.fabric_self_ns", "ns"),
    ("telemetry.snapshot.host_ns", "ns"),
    ("harness.scenario.host_ns", "ns"),
    ("sim.events", "count"),
    ("sim.events_per_op", "count"),
    ("sim.events_per_host_s", "1/s"),
    ("harness.retries", "count"),
    ("harness.gave_up", "count"),
    ("harness.degraded_served", "count"),
    ("heal.auto_recoveries", "count"),
    ("trace.overhead_pct", "%"),
];

const USAGE: &str = "usage: perfbench --workload <kv-zipf|scan-pushdown|tenants-qos|chaos-heal> \
                     [--seed N] [--seconds S] [--trace 0|1]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    KvZipf,
    ScanPushdown,
    TenantsQos,
    ChaosHeal,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "kv-zipf" => Some(Workload::KvZipf),
            "scan-pushdown" => Some(Workload::ScanPushdown),
            "tenants-qos" => Some(Workload::TenantsQos),
            "chaos-heal" => Some(Workload::ChaosHeal),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::KvZipf => "kv-zipf",
            Workload::ScanPushdown => "scan-pushdown",
            Workload::TenantsQos => "tenants-qos",
            Workload::ChaosHeal => "chaos-heal",
        }
    }

    /// One repetition. `warm_up` marks the run's first, which no host
    /// metric counts and after which peak RSS is read: it builds the world
    /// once, as a user of the layers would, so repeated set-up builds do
    /// not raise the high-water mark.
    fn episode(self, seed: u64, tr: &mut Tracer, warm_up: bool) -> Result<Episode, String> {
        match self {
            Workload::KvZipf => kv::episode(seed, tr, if warm_up { 1 } else { kv::SETUP_BUILDS }),
            Workload::ScanPushdown => scan::episode(seed, tr),
            Workload::TenantsQos => tenants::episode(seed, tr),
            Workload::ChaosHeal => chaos::episode(seed, tr),
        }
    }
}

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (42u64, 10u64, false);
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The host-clock reduction of one repetition. Per-op samples are dropped
/// once reduced, so a run of any length stays in fixed memory.
#[derive(Debug)]
struct Rep {
    /// [`calib::scale`] for this repetition: host times multiply by it,
    /// rates divide by it.
    scale: f64,
    /// The reference kernel's host time beside this repetition.
    kernel_ns: f64,
    setup_ns: f64,
    ops_per_host_s: f64,
    op_ns_p50: u64,
    op_ns_p99: Option<u64>,
    ops: usize,
}

/// The repetitions of one phase of a run.
#[derive(Debug)]
struct Phase {
    reps: Vec<Rep>,
    host_layers: BTreeMap<&'static str, Vec<f64>>,
}

/// A run's first repetition, which no host metric counts: it warms the
/// process (allocator, caches, page tables), fixes the sim digest every
/// later repetition must reproduce, and its sim outcomes stand for all of
/// them. Peak RSS is read right after it, so it measures one repetition.
#[derive(Debug)]
struct WarmUp {
    episode: Episode,
    sim_digest: u64,
    peak_rss_bytes: u64,
}

fn warm_up(args: &Args) -> Result<WarmUp, String> {
    let mut episode = args.workload.episode(args.seed, &mut Tracer::off(), true)?;
    let peak_rss_bytes = host::peak_rss_bytes();
    episode.op_host_ns = Vec::new();
    Ok(WarmUp {
        sim_digest: episode.sim.sim_digest(),
        episode,
        peak_rss_bytes,
    })
}

/// Repeat the workload's episode until `until_ns` of host time have passed
/// since `start` and at least `min_reps` ran; each must reproduce
/// `sim_digest`.
fn phase(
    args: &Args,
    tr: &mut Tracer,
    start: clock::Instant,
    until_ns: u64,
    min_reps: usize,
    sim_digest: u64,
) -> Result<Phase, String> {
    let mut reps = Vec::new();
    let mut host_layers: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    while reps.len() < min_reps || clock::ns_since(start) < until_ns {
        let kernel_before = calib::kernel_ns();
        let ep = args.workload.episode(args.seed, tr, false)?;
        let kernel_after = calib::kernel_ns();
        let d = ep.sim.sim_digest();
        if d != sim_digest {
            return Err(format!(
                "determinism: repetition {} of seed {} has sim digest {d:#018x}, expected {sim_digest:#018x}",
                reps.len() + 1,
                args.seed
            ));
        }
        for &(n, v) in &ep.host_layers {
            host_layers.entry(n).or_default().push(v);
        }
        let mut ops = ep.op_host_ns;
        ops.sort_unstable();
        let (other_ops, other_ns) = ep.throughput_only;
        let count = ops.len() + other_ops as usize;
        let total: u64 = ops.iter().sum::<u64>() + other_ns;
        reps.push(Rep {
            scale: calib::scale(kernel_before, kernel_after),
            kernel_ns: (kernel_before + kernel_after) as f64 / 2.0,
            setup_ns: ep.setup_ns,
            ops_per_host_s: count as f64 * 1e9 / total.max(1) as f64,
            op_ns_p50: quantile(&ops, 0.5),
            op_ns_p99: p99_reportable(ops.len()).then(|| quantile(&ops, 0.99)),
            ops: count,
        });
    }
    Ok(Phase { reps, host_layers })
}

/// Host-clock summary of a phase: every metric is the median over the
/// repetitions of the repetition's value scaled to the reference speed
/// (`calib.rs`; measurements in README.md). `raw_*` are the same medians
/// unscaled, printed for people.
#[derive(Debug)]
struct Host {
    setup_s: f64,
    ops_per_host_s: f64,
    op_ns_p50: f64,
    op_ns_p99: Option<f64>,
    samples: usize,
    raw_ops_per_host_s: f64,
    raw_op_ns_p50: f64,
    kernel_ns: f64,
}

fn host_summary(phase: &Phase) -> Host {
    let reps = &phase.reps;
    let median = |f: &dyn Fn(&Rep) -> f64| fquantile(&reps.iter().map(f).collect::<Vec<_>>(), 0.5);
    let p99s: Option<Vec<f64>> = reps
        .iter()
        .map(|r| r.op_ns_p99.map(|v| v as f64 * r.scale))
        .collect();
    Host {
        setup_s: median(&|r| r.setup_ns * r.scale / 1e9),
        ops_per_host_s: median(&|r| r.ops_per_host_s / r.scale),
        op_ns_p50: median(&|r| r.op_ns_p50 as f64 * r.scale),
        op_ns_p99: p99s.map(|v| fquantile(&v, 0.5)),
        samples: reps.iter().map(|r| r.ops).sum(),
        raw_ops_per_host_s: median(&|r| r.ops_per_host_s),
        raw_op_ns_p50: median(&|r| r.op_ns_p50 as f64),
        kernel_ns: median(&|r| r.kernel_ns),
    }
}

/// Sim-clock summary of one episode (all episodes of a seed agree).
#[derive(Debug)]
struct SimSummary {
    op_ns_p50: u64,
    op_ns_p99: Option<u64>,
    op_ns_mean: f64,
    samples: usize,
    gbps: f64,
    local_ratio: f64,
    fail_share: f64,
    slo_miss_share: Option<f64>,
}

fn sim_summary(sim: &Sim) -> SimSummary {
    let mut ops = sim.op_ns.clone();
    ops.sort_unstable();
    let share = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    SimSummary {
        op_ns_p50: quantile(&ops, 0.5),
        op_ns_p99: p99_reportable(ops.len()).then(|| quantile(&ops, 0.99)),
        op_ns_mean: ops.iter().sum::<u64>() as f64 / ops.len().max(1) as f64,
        samples: ops.len(),
        gbps: share(sim.payload_bytes, sim.makespan_ns),
        local_ratio: share(sim.local_bytes, sim.local_bytes + sim.remote_bytes),
        fail_share: share(sim.refused, sim.attempted),
        slo_miss_share: (sim.slo_ops > 0).then(|| share(sim.slo_missed, sim.slo_ops)),
    }
}

fn fmt_opt(v: Option<impl std::fmt::Display>) -> String {
    v.map_or_else(|| "n/a".to_string(), |v| v.to_string())
}

/// The result line: `metrics` are `(name, value, unit)`. It is printed only
/// when every check passed and no op failed; anything else exits 1 first.
fn result_json(attempted: u64, metrics: &[(&str, f64, &str)]) -> String {
    let mut out =
        format!("{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{");
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            out,
            "{}\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    out.push_str("}}");
    out
}

fn run(args: &Args) -> Result<String, String> {
    let name = args.workload.name();
    println!(
        "# perfbench workload={name} seed={} seconds={} trace={}",
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# host {}", host::fingerprint());
    // The warm-up counts against `--seconds`, so a run lasts about that
    // long plus at most one episode.
    let start = clock::now();
    let budget = args.seconds * 1_000_000_000;

    if !args.trace {
        let warm = warm_up(args)?;
        let run = phase(args, &mut Tracer::off(), start, budget, 2, warm.sim_digest)?;
        let h = host_summary(&run);
        let s = sim_summary(&warm.episode.sim);
        let peak_mb = warm.peak_rss_bytes as f64 / 1e6;
        let n = run.reps.len();
        println!(
            "# sim_digest {:#018x} over {} repetitions",
            warm.sim_digest,
            n + 1
        );
        println!(
            "# [host] reference kernel {} ns (median of {n}; scaled to {} ns)",
            h.kernel_ns,
            calib::REFERENCE_NS
        );
        println!(
            "# [host] unscaled: ops_per_host_s {} host_op_ns_p50 {}",
            h.raw_ops_per_host_s, h.raw_op_ns_p50
        );
        println!("# [host] setup_s {} (median of {n})", h.setup_s);
        println!("# [host] ops_per_host_s {}", h.ops_per_host_s);
        println!(
            "# [host] host_op_ns p50 {} p99 {} (samples {})",
            h.op_ns_p50,
            fmt_opt(h.op_ns_p99),
            h.samples
        );
        println!("# [host] peak_rss_mb {peak_mb}");
        println!(
            "# [sim] sim_op_ns p50 {} p99 {} mean {} (samples {})",
            s.op_ns_p50,
            fmt_opt(s.op_ns_p99),
            s.op_ns_mean,
            s.samples
        );
        println!("# [sim] sim_gbps {} local_ratio {}", s.gbps, s.local_ratio);
        println!(
            "# [sim] fail_share {} slo_miss_share {}",
            s.fail_share,
            fmt_opt(s.slo_miss_share)
        );
        let values = [
            h.setup_s,
            h.ops_per_host_s,
            h.op_ns_p50,
            peak_mb,
            s.op_ns_mean,
        ];
        let metrics: Vec<(&str, f64, &str)> = END_TO_END
            .iter()
            .zip(values)
            .map(|(&(n, u), v)| (n, v, u))
            .collect();
        return Ok(result_json(h.samples as u64, &metrics));
    }

    let warm = warm_up(args)?;
    let untraced = phase(
        args,
        &mut Tracer::off(),
        start,
        budget / 2,
        1,
        warm.sim_digest,
    )?;
    let mut tracer = Tracer::on();
    let traced = phase(
        args,
        &mut tracer,
        clock::now(),
        budget / 2,
        1,
        warm.sim_digest,
    )?;
    let h = host_summary(&untraced);
    let ht = host_summary(&traced);
    let s = sim_summary(&warm.episode.sim);
    let overhead_pct = (h.ops_per_host_s / ht.ops_per_host_s - 1.0) * 100.0;
    println!(
        "# sim_digest {:#018x} over {} untraced + {} traced repetitions",
        warm.sim_digest,
        untraced.reps.len() + 1,
        traced.reps.len()
    );
    println!(
        "# trace overhead {overhead_pct:.2}% ({} vs {} ops/host s)",
        h.ops_per_host_s, ht.ops_per_host_s
    );

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    values.insert("host_op_ns_p99", h.op_ns_p99.unwrap_or(0.0));
    values.insert("host_op_samples", h.samples as f64);
    values.insert("sim_op_ns_p50", s.op_ns_p50 as f64);
    values.insert("sim_op_ns_p99", s.op_ns_p99.unwrap_or(0) as f64);
    values.insert("sim_op_samples", s.samples as f64);
    values.insert("sim_gbps", s.gbps);
    values.insert("local_ratio", s.local_ratio);
    values.insert("fail_share", s.fail_share);
    values.insert("slo_miss_share", s.slo_miss_share.unwrap_or(0.0));
    for &(n, _) in &PER_LAYER {
        if let Some(span) = n.strip_suffix(".host_ns") {
            values.insert(n, tracer.mean_self_ns(span));
        }
    }
    for &(n, v) in &warm.episode.sim.counters {
        values.insert(n, v);
    }
    let mut host_layers = untraced.host_layers;
    for (n, vs) in traced.host_layers {
        host_layers.entry(n).or_default().extend(vs);
    }
    for &(n, v) in &warm.episode.host_layers {
        host_layers.entry(n).or_default().push(v);
    }
    for (n, vs) in &host_layers {
        values.insert(n, fquantile(vs, 0.5));
    }
    // The traced `kv.op` span holds only the benchmark's glue around the
    // inner calls it issues itself, so its self time is not the KV
    // layer's. The KV layer's own time is the untraced `KvStore::get`/`put`
    // call minus the traced time of the pool calls it makes.
    if let Some(calls) = host_layers.get(kv::STORE_CALL) {
        let inner = tracer.mean_self_ns("core.access") + tracer.mean_self_ns("core.materialize");
        values.insert("kv.op.host_ns", fquantile(calls, 0.5) - inner);
    }
    values.insert("trace.overhead_pct", overhead_pct);

    let trace_dir = std::path::Path::new("perfbench").join("out");
    let trace_path = trace_dir.join(format!("trace-{name}-{}.json", args.seed));
    match std::fs::create_dir_all(&trace_dir)
        .and_then(|()| std::fs::write(&trace_path, tracer.to_chrome_json(name, args.seed)))
    {
        Ok(()) => println!("# spans written to {}", trace_path.display()),
        Err(e) => eprintln!("perfbench: could not write {}: {e}", trace_path.display()),
    }

    let mut metrics = Vec::new();
    for &(n, unit) in &PER_LAYER {
        let v = values.get(n).copied().unwrap_or(0.0);
        println!("# {n} {v} {unit}");
        metrics.push((n, v, unit));
    }
    Ok(result_json((h.samples + ht.samples) as u64, &metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark_json() -> String {
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).unwrap()
    }

    /// The metrics the program prints are exactly the ones BENCHMARK.json
    /// names, with the same units.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let json = benchmark_json();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "{name} [{unit}] is not in BENCHMARK.json"
            );
        }
        assert_eq!(
            json.matches("\"unit\":").count(),
            END_TO_END.len() + PER_LAYER.len()
        );
    }

    /// Every workload BENCHMARK.json lists is one the program runs.
    #[test]
    fn listed_workloads_parse() {
        let json = benchmark_json();
        let listed: Vec<&str> = json
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|rest| rest.split_once("\", \"why\"").map(|(name, _)| name))
            .collect();
        assert!(listed.len() >= 2);
        for name in listed {
            assert_eq!(Workload::parse(name).map(Workload::name), Some(name));
        }
    }
}
