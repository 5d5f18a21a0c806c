//! What one repetition of a workload produces, and the layer counters every
//! pool-based workload reads back from the layers' public accessors.

use crate::stats::Digest;
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, NodeId};
use lmp_sim::prelude::*;

/// One repetition: build the world, run the fixed op sequence, read back.
#[derive(Debug)]
pub struct Episode {
    /// Host ns spent building the world before the first op.
    pub setup_ns: f64,
    /// Host ns of each op, timed around the workload's calls only.
    pub op_host_ns: Vec<u64>,
    /// Ops that count toward `ops_per_host_s` but not toward the host
    /// latency quantiles, as (ops, total host ns): on `tenants-qos` the
    /// aggressor's, so the quantiles are the victim's, as the sim ones are.
    pub throughput_only: (u64, u64),
    /// Everything measured on the simulated clock.
    pub sim: Sim,
    /// Layer metrics measured on the host from outside, not from spans.
    pub host_layers: Vec<(&'static str, f64)>,
}

/// Simulated outcomes. A pure function of the seed: every repetition of one
/// seed, traced or not, must agree on all of it.
#[derive(Debug, Default)]
pub struct Sim {
    /// The workload's digest over its per-op outcomes.
    pub digest: u64,
    /// Simulated latency of each op, in ns.
    pub op_ns: Vec<u64>,
    /// Payload bytes the ops moved or scanned.
    pub payload_bytes: u64,
    /// Simulated span of the timed phase.
    pub makespan_ns: u64,
    /// Payload bytes served without crossing the fabric.
    pub local_bytes: u64,
    /// Payload bytes that crossed the fabric.
    pub remote_bytes: u64,
    /// Ops attempted.
    pub attempted: u64,
    /// Ops refused (admission) or failed.
    pub refused: u64,
    /// Ops the latency SLO applies to, and how many missed it (refused
    /// ops count as misses).
    pub slo_ops: u64,
    pub slo_missed: u64,
    /// Per-layer counters read from the layers after the run.
    pub counters: Vec<(&'static str, f64)>,
}

impl Sim {
    /// Digest over every sim field: equal digests mean equal sim metrics.
    pub fn sim_digest(&self) -> u64 {
        let mut d = Digest::new();
        d.fold(self.digest);
        d.fold(self.op_ns.len() as u64);
        for &ns in &self.op_ns {
            d.fold(ns);
        }
        for v in [
            self.payload_bytes,
            self.makespan_ns,
            self.local_bytes,
            self.remote_bytes,
            self.attempted,
            self.refused,
            self.slo_ops,
            self.slo_missed,
        ] {
            d.fold(v);
        }
        for (name, v) in &self.counters {
            for b in name.bytes() {
                d.fold(u64::from(b));
            }
            d.fold_f64(*v);
        }
        d.value()
    }
}

/// Translation, memory and fabric counters for the whole rack at `now`.
/// Reads only; called once, after the last op, because some readers
/// (utilization windows) advance their own bookkeeping.
pub fn rack_counters(
    pool: &mut LogicalPool,
    fabric: &mut Fabric,
    now: SimTime,
) -> Vec<(&'static str, f64)> {
    let (mut hits, mut misses, mut stale) = (0u64, 0u64, 0u64);
    let (mut mem_local, mut mem_remote) = (0u64, 0u64);
    let mut dram_util_max = 0f64;
    for s in 0..pool.servers() {
        if let Some(tlb) = pool.tlb(NodeId(s)) {
            hits += tlb.hit_count();
            misses += tlb.miss_count();
            stale += tlb.stale_count();
        }
        let node = pool.node_mut(NodeId(s));
        mem_local += node.local_access_count();
        mem_remote += node.remote_access_count();
        dram_util_max = dram_util_max.max(node.dram_mut().utilization(now));
    }
    let lookups = pool.global_map().lookup_count();
    let hist = fabric.read_latency_histogram();
    let (lat_p50, lat_p99) = (hist.p50(), hist.p99());
    let (reads, writes) = (fabric.read_count(), fabric.write_count());
    let link_util_max = rack_snapshot(pool, fabric, now)
        .gauge_max("fabric.link.utilization")
        .unwrap_or(0.0);
    let hit_ratio = if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    vec![
        ("core.tlb.hits", hits as f64),
        ("core.tlb.misses", misses as f64),
        ("core.tlb.stale", stale as f64),
        ("core.tlb.hit_ratio", hit_ratio),
        ("core.global.lookups", lookups as f64),
        ("mem.dram.util_max", dram_util_max),
        ("mem.local_accesses", mem_local as f64),
        ("mem.remote_accesses", mem_remote as f64),
        ("fabric.reads", reads as f64),
        ("fabric.writes", writes as f64),
        ("fabric.read_lat_p50_ns", lat_p50 as f64),
        ("fabric.read_lat_p99_ns", lat_p99 as f64),
        ("fabric.link_util_max", link_util_max),
    ]
}

/// A pool error as the benchmark reports it.
pub fn pool_err(what: &str) -> impl Fn(PoolError) -> String + '_ {
    move |e| format!("{what}: {e:?}")
}
