//! `tenants-qos`: the open-loop noisy-neighbour mix with QoS on and
//! telemetry attached. A victim issues 4 KiB reads and an aggressor 16 KiB
//! accesses (10% writes), each every 500 simulated ns, against one shared
//! remote server; the aggressor offers about 1.5× the wire. The victim
//! rides the high band, the aggressor the low band behind a token bucket.
//! The benchmark generates the schedule from the seed and calls
//! `access_as` itself, so each call is timed. This is the QoS, banded-link
//! and telemetry path.
//!
//! Oracle: every admitted op completes no earlier than it was due, and the
//! telemetry books balance on the final rack snapshot.

use crate::clock;
use crate::episode::{pool_err, rack_counters, Episode, Sim};
use crate::host;
use crate::stats::Digest;
use crate::trace::Tracer;
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, NodeId};
use lmp_harness::prelude::check_telemetry_conservation;
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_qos::{Band, BandWeights};
use lmp_sim::prelude::*;
use lmp_workloads::{Pattern, TraceOp, TraceSpec};
use std::sync::atomic::{AtomicBool, Ordering};

/// The victim's latency SLO, the bound the `qos` bench gates on.
pub const SLO_NS: u64 = 6_000;
/// Batches per repetition; each drains before the next begins.
const BATCHES: u64 = 40;
const OP_PERIOD_NS: u64 = 500;
const HOLDER: NodeId = NodeId(2);
/// Set once the process's first repetition has measured RSS growth.
static RSS_MEASURED: AtomicBool = AtomicBool::new(false);

struct TenantSpec {
    home: NodeId,
    band: Band,
    rate: Option<TenantRate>,
    working_set: u64,
    access_bytes: u64,
    pattern: Pattern,
    write_fraction: f64,
    ops_per_batch: u64,
}

fn tenants() -> [TenantSpec; 2] {
    [
        // Victim: steady small reads, ~8 GB/s offered.
        TenantSpec {
            home: NodeId(0),
            band: Band::High,
            rate: None,
            working_set: 4 * FRAME_BYTES,
            access_bytes: 4096,
            pattern: Pattern::Uniform,
            write_fraction: 0.0,
            ops_per_batch: 1000,
        },
        // Aggressor: bulk accesses at ~32 GB/s offered against a 21 GB/s
        // wire, admitted at ~600k ops/s; the rest is shed.
        TenantSpec {
            home: NodeId(1),
            band: Band::Low,
            rate: Some(TenantRate {
                ops_per_sec: 600_000,
                burst: 16,
            }),
            working_set: 8 * FRAME_BYTES,
            access_bytes: 16 * 1024,
            pattern: Pattern::Sequential,
            write_fraction: 0.1,
            ops_per_batch: 1500,
        },
    ]
}

pub fn episode(seed: u64, tr: &mut Tracer) -> Result<Episode, String> {
    let setup_start = clock::now();
    let specs = tenants();
    let mut pool = LogicalPool::new(PoolConfig {
        servers: 3,
        capacity_per_server: 32 * FRAME_BYTES,
        shared_per_server: 24 * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 64,
    });
    let mut fabric = Fabric::new(LinkProfile::link1(), 3);
    fabric.enable_bands(BandWeights::default());
    pool.attach_telemetry();
    let mut segments = Vec::new();
    for (i, t) in specs.iter().enumerate() {
        segments.push(
            pool.alloc(t.working_set, Placement::On(HOLDER))
                .map_err(pool_err("tenants alloc"))?,
        );
        let tenant = TenantId(i as u32);
        pool.set_tenant_band(tenant, t.band);
        if let Some(rate) = t.rate {
            pool.set_tenant_rate(tenant, rate);
        }
    }
    // The whole schedule, generated up front: per batch, every tenant's
    // ops as (offset from the batch start, tenant, op), in (due time,
    // tenant, index) order.
    let root = DetRng::new(seed);
    let mut batches: Vec<Vec<(u64, usize, TraceOp)>> = Vec::new();
    for b in 0..BATCHES {
        let mut batch = Vec::new();
        for (i, t) in specs.iter().enumerate() {
            let spec = TraceSpec {
                pattern: t.pattern,
                access_bytes: t.access_bytes,
                write_fraction: t.write_fraction,
                length: t.ops_per_batch,
            };
            let trace = spec.generate(
                t.working_set,
                root.fork_indexed("tenant", (i as u64) << 32 | b),
            );
            batch.extend(
                trace
                    .into_iter()
                    .enumerate()
                    .map(|(j, op)| (OP_PERIOD_NS * j as u64, i, op)),
            );
        }
        // Stable: ops of one tenant at one due time keep their index order.
        batch.sort_by_key(|&(offset, i, _)| (offset, i));
        batches.push(batch);
    }
    let setup_ns = clock::ns_since(setup_start) as f64;
    let rss_before = host::rss_bytes();

    let mut op_host_ns = Vec::new();
    let mut aggressor_host = (0u64, 0u64);
    let mut victim_ns = Vec::new();
    let mut digest = Digest::new();
    let (mut admitted, mut rejected) = ([0u64; 2], [0u64; 2]);
    let (mut local_bytes, mut remote_bytes, mut payload) = (0u64, 0u64, 0u64);
    let mut batch_start = SimTime::ZERO;
    for batch in &batches {
        let mut batch_end = batch_start;
        for &(offset, i, op) in batch {
            let t = &specs[i];
            let due = batch_start + SimDuration::from_nanos(offset);
            let addr = LogicalAddr::new(segments[i], op.offset);
            tr.begin_op();
            let start = clock::now();
            tr.enter("qos.access_as");
            let r = pool.access_as(
                &mut fabric,
                due,
                TenantId(i as u32),
                t.home,
                addr,
                t.access_bytes,
                op.op,
            );
            tr.exit();
            let host_ns = clock::ns_since(start);
            if i == 0 {
                op_host_ns.push(host_ns);
            } else {
                aggressor_host = (aggressor_host.0 + 1, aggressor_host.1 + host_ns);
            }
            match r {
                Ok(a) => {
                    if a.complete < due {
                        return Err(format!(
                            "tenants oracle: a tenant {i} op due at {} ns completed before it was due", due.as_nanos()
                        ));
                    }
                    admitted[i] += 1;
                    local_bytes += a.local_bytes;
                    remote_bytes += a.remote_bytes;
                    payload += t.access_bytes;
                    let lat = a.complete.duration_since(due).as_nanos();
                    if i == 0 {
                        victim_ns.push(lat);
                    }
                    batch_end = batch_end.max(a.complete);
                    digest.fold(a.complete.as_nanos());
                }
                Err(PoolError::AdmissionRejected(_)) => {
                    rejected[i] += 1;
                    digest.fold(u64::MAX);
                }
                Err(e) => return Err(format!("tenants op: {e:?}")),
            }
        }
        batch_start = batch_end;
    }
    let rss_after = host::rss_bytes();
    let ops = op_host_ns.len() as u64 + aggressor_host.0;

    tr.begin_op();
    tr.enter("telemetry.snapshot");
    let snap = rack_snapshot(&mut pool, &mut fabric, batch_start);
    tr.exit();
    let conservation = check_telemetry_conservation(&snap);
    if !conservation.passed {
        return Err(format!(
            "tenants oracle: telemetry conservation failed: {}",
            conservation.detail
        ));
    }
    digest.fold(snap.digest());

    let telemetry = pool.telemetry_mut().ok_or("tenants: telemetry detached")?;
    let spans = telemetry.spans_mut().len() as u64;
    let breakdown = telemetry.latency_breakdown();
    let accesses = (admitted[0] + admitted[1]).max(1) as f64;
    let per_access = |name: &str| breakdown.get(name).copied().unwrap_or(0) as f64 / accesses;
    let (dram_self, fabric_self) = (per_access("dram"), per_access("fabric"));
    let victim_missed = victim_ns.iter().filter(|&&ns| ns > SLO_NS).count() as u64 + rejected[0];

    let mut counters = rack_counters(&mut pool, &mut fabric, batch_start);
    counters.extend([
        ("core.access.calls", ops as f64),
        ("qos.admitted", (admitted[0] + admitted[1]) as f64),
        ("qos.rejected", (rejected[0] + rejected[1]) as f64),
        ("telemetry.spans", spans as f64),
        ("telemetry.dram_self_ns", dram_self),
        ("telemetry.fabric_self_ns", fabric_self),
    ]);
    Ok(Episode {
        setup_ns,
        op_host_ns,
        throughput_only: aggressor_host,
        sim: Sim {
            digest: digest.value(),
            op_ns: victim_ns,
            payload_bytes: payload,
            makespan_ns: batch_start.as_nanos(),
            local_bytes,
            remote_bytes,
            attempted: ops,
            refused: rejected[0] + rejected[1],
            slo_ops: admitted[0] + rejected[0],
            slo_missed: victim_missed,
            counters,
        },
        // RSS growth shows only on a fresh heap: later repetitions reuse
        // the memory the first one freed, so only the first one reports.
        host_layers: if RSS_MEASURED.swap(true, Ordering::Relaxed) {
            Vec::new()
        } else {
            vec![(
                "telemetry.rss_bytes_per_op",
                rss_after.saturating_sub(rss_before) as f64 / ops.max(1) as f64,
            )]
        },
    })
}
