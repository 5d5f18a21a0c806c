//! `chaos-heal`: one pass of the chaos scenarios at the seed, every one but
//! `hedged-flood`. The only workload that runs the sim event engine, the
//! failure detector, healing, degraded reads, retries and the invariant
//! checkers. A scenario is the op.
//!
//! Oracle: every scenario's invariants pass; repetitions of one seed must
//! agree on every scenario digest (checked by the run loop through the
//! sim digest).

use crate::clock;
use crate::episode::{Episode, Sim};
use crate::stats::{fquantile, Digest};
use crate::trace::Tracer;
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile};
use lmp_harness::prelude::{run_scenario, ChaosTrace, Scenario};
use lmp_mem::{DramProfile, FRAME_BYTES};

/// Set-up rounds per episode; the episode reports their median.
const SETUP_ROUNDS: usize = 9;

/// The scenarios an episode runs: all but `hedged-flood`, whose
/// `hedge-race-exercised` check fails at about one seed in ten (the hedge
/// races but never wins; README.md, "Findings"). With it, a run at such a
/// seed fails, and the benchmark's workloads must hold at every seed.
fn scenarios() -> Vec<Scenario> {
    Scenario::all()
        .into_iter()
        .filter(|&s| s != Scenario::HedgedFlood)
        .collect()
}

/// The rack skeleton every scenario starts from: a pool of the scenario's
/// size with telemetry attached, and its fabric. `run_scenario` builds the
/// same skeleton inside the call, then places segments and fills them; the
/// set-up times these public constructors, as the part of a scenario's
/// world the benchmark can build on its own.
fn skeleton(scenario: Scenario) -> (LogicalPool, Fabric) {
    let servers = scenario.servers();
    let mut pool = LogicalPool::new(PoolConfig {
        servers,
        capacity_per_server: 64 * FRAME_BYTES,
        shared_per_server: 48 * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 16,
    });
    pool.attach_telemetry();
    (pool, Fabric::new(LinkProfile::link1(), servers))
}

/// Simulated latency of every read the scenario's trace reports as served:
/// application reads (`op <id> read <seg>+<off> ok in <n> ns`) and the
/// reads pinned inside fault windows (`probe <i>: <seg> read in <n> ns`).
fn read_latencies(trace: &ChaosTrace) -> Vec<u64> {
    trace
        .entries()
        .iter()
        .filter_map(|(_, line)| {
            let line = line.trim_start();
            let served =
                (line.starts_with("op ") && line.contains(" read ") && line.contains(" ok in "))
                    || (line.starts_with("probe ") && line.contains(" read in "));
            if !served {
                return None;
            }
            let ns = line.strip_suffix(" ns")?;
            ns.rsplit(' ').next()?.parse().ok()
        })
        .collect()
}

pub fn episode(seed: u64, tr: &mut Tracer) -> Result<Episode, String> {
    let scenarios = scenarios();
    let rounds: Vec<f64> = (0..SETUP_ROUNDS)
        .map(|_| {
            let start = clock::now();
            for &scenario in &scenarios {
                std::hint::black_box(skeleton(scenario));
            }
            clock::ns_since(start) as f64
        })
        .collect();
    let setup_ns = fquantile(&rounds, 0.5);

    let mut op_host_ns = Vec::with_capacity(scenarios.len());
    let mut sim_ns = Vec::new();
    let mut digest = Digest::new();
    let (mut events, mut retries, mut gave_up, mut degraded, mut auto) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    for &scenario in &scenarios {
        tr.begin_op();
        let t = clock::now();
        tr.enter("harness.scenario");
        let report = run_scenario(scenario, seed);
        tr.exit();
        op_host_ns.push(clock::ns_since(t));
        if !report.passed() {
            let failed: Vec<String> = report
                .checks
                .iter()
                .filter(|c| !c.passed)
                .map(|c| format!("{}: {}", c.name, c.detail))
                .collect();
            return Err(format!(
                "chaos oracle: {} failed at seed {seed}: {}",
                scenario.name(),
                failed.join("; ")
            ));
        }
        let reads = read_latencies(&report.trace);
        for v in [
            report.digest,
            report.telemetry_digest,
            report.events,
            reads.len() as u64,
        ] {
            digest.fold(v);
        }
        sim_ns.extend(reads);
        events += report.events;
        retries += report.retries;
        gave_up += report.gave_up;
        degraded += report.degraded_served;
        auto += report.auto_recoveries;
    }
    if sim_ns.is_empty() {
        return Err("chaos: no scenario trace reported a served read".to_string());
    }
    let n = scenarios.len() as u64;
    let host_total: u64 = op_host_ns.iter().sum();
    Ok(Episode {
        setup_ns,
        op_host_ns,
        throughput_only: (0, 0),
        sim: Sim {
            digest: digest.value(),
            op_ns: sim_ns,
            attempted: n,
            counters: vec![
                ("sim.events", events as f64),
                ("sim.events_per_op", events as f64 / n as f64),
                ("harness.retries", retries as f64),
                ("harness.gave_up", gave_up as f64),
                ("harness.degraded_served", degraded as f64),
                ("heal.auto_recoveries", auto as f64),
            ],
            ..Sim::default()
        },
        host_layers: vec![(
            "sim.events_per_host_s",
            events as f64 * 1e9 / host_total.max(1) as f64,
        )],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lmp_sim::prelude::SimTime;

    #[test]
    fn read_latencies_take_served_reads_only() {
        let mut trace = ChaosTrace::new();
        let at = SimTime::from_nanos(5);
        trace.record(at, "op 3 read seg7+128 ok in 412 ns");
        trace.record(at, "op 4 write seg7+0 ok");
        trace.record(at, "op 5 read seg2 failed (link down); retry 1");
        trace.record(at, "probe 1: seg0 read in 2650 ns");
        assert_eq!(read_latencies(&trace), vec![412, 2650]);
    }
}
