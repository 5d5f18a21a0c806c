//! `scan-pushdown`: a 64 MiB vector of u64 elements (`STRIPE_FRAMES` per
//! server) is striped over four servers and filled once (the set-up), then a fixed sequence of filter
//! queries runs through the cost-based planner across the selectivity grid
//! from rotating requesters. Every other query first queues a bulk backlog
//! on the holders' up-wires. This is the bulk path: coalesced batch scans,
//! the planner's cost model and operator evaluation.
//!
//! Oracle: each query's rows are checked against a host-side evaluation of
//! the same generated data.

use crate::clock;
use crate::episode::{pool_err, rack_counters, Episode, Sim};
use crate::stats::{mix, Digest};
use crate::trace::Tracer;
use lmp_compute::{Choice, DistVector, OpOutput, Operator, Planner, Predicate, ScanParams};
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, NodeId};
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;

const SERVERS: u32 = 4;
/// Frames per stripe: 8 × 2 MiB = 16 MiB per server, 64 MiB in all.
const STRIPE_FRAMES: u64 = 8;
/// Elements are uniform in `[0, 64)`; a `Greater(t)` filter keeps
/// `(63 - t) / 64` of them: ≈ 0%, 23%, 86%, 92% and 98%. The `pushdown`
/// bench's 61% and 73% points are left out: their host time depends on the
/// seed, and with them the median query did too (README.md).
const THRESHOLDS: [u64; 5] = [63, 48, 8, 4, 0];
/// Grid passes per repetition; loaded and idle alternate, so each
/// threshold runs once idle and once loaded.
const PASSES: usize = 2;
/// Bulk bytes queued on each holder's up-wire before a loaded query.
const BACKLOG_BYTES: u64 = 256 * MIB;

pub fn episode(seed: u64, tr: &mut Tracer) -> Result<Episode, String> {
    let setup_start = clock::now();
    let mut pool = LogicalPool::new(PoolConfig {
        servers: SERVERS,
        capacity_per_server: (STRIPE_FRAMES + 2) * FRAME_BYTES,
        shared_per_server: STRIPE_FRAMES * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 64,
    });
    let mut fabric = Fabric::new(LinkProfile::link1(), SERVERS);
    let servers: Vec<NodeId> = (0..SERVERS).map(NodeId).collect();
    let total = u64::from(SERVERS) * STRIPE_FRAMES * FRAME_BYTES;
    let vector =
        DistVector::stripe_even(&mut pool, total, &servers).map_err(pool_err("scan place"))?;
    // Element values, kept as bytes for the oracle; each u64 of `mix`
    // yields eight 6-bit elements.
    let elements = (total / 8) as usize;
    let mut values = Vec::with_capacity(elements);
    let mut word = 0u64;
    for i in 0..elements {
        if i % 8 == 0 {
            word = mix(seed ^ (i as u64 / 8).wrapping_mul(0xa076_1d64_78bd_642f));
        }
        values.push(((word >> ((i % 8) * 8)) & 63) as u8);
    }
    // Filled one frame at a time through one reused buffer, so the bench's
    // own allocations stay small beside the frames the fill materializes.
    let mut values_left = values.chunks(FRAME_BYTES as usize / 8);
    let mut frame = vec![0u8; FRAME_BYTES as usize];
    for (_, seg, len) in &vector.stripes {
        for offset in (0..*len).step_by(FRAME_BYTES as usize) {
            let chunk = values_left
                .next()
                .ok_or("scan fill: stripes exceed the vector")?;
            let bytes = &mut frame[..chunk.len() * 8];
            for (element, &v) in bytes.chunks_exact_mut(8).zip(chunk) {
                element.copy_from_slice(&u64::from(v).to_le_bytes());
            }
            pool.write_bytes(LogicalAddr::new(*seg, offset), bytes)
                .map_err(pool_err("scan fill"))?;
        }
    }
    let mut above = [0u64; 64];
    for &v in &values {
        above[v as usize] += 1;
    }
    let setup_ns = clock::ns_since(setup_start) as f64;

    let mut now = SimTime::ZERO;
    let mut op_host_ns = Vec::new();
    let mut sim_ns = Vec::new();
    let mut digest = Digest::new();
    let (mut shipped, mut fetched, mut fabric_bytes, mut result_bytes, mut local_bytes) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let mut est_err_pct = Vec::new();
    for pass in 0..PASSES {
        for (ti, &threshold) in THRESHOLDS.iter().enumerate() {
            let q = pass * THRESHOLDS.len() + ti;
            let requester = NodeId((q % SERVERS as usize) as u32);
            let loaded = (ti + pass) % 2 == 1;
            let matches: u64 = above[threshold as usize + 1..].iter().sum();
            let planner = Planner::new(ScanParams::default(), matches as f64 / elements as f64);
            let op = Operator::Filter(Predicate::Greater(threshold));

            tr.begin_op();
            let t = clock::now();
            tr.enter("scan.query");
            if loaded {
                // A ring of bulk transfers among the holders: every holder's
                // up-wire carries a backlog the query must queue behind.
                let holders: Vec<NodeId> = servers
                    .iter()
                    .copied()
                    .filter(|&s| s != requester)
                    .collect();
                for (h, &src) in holders.iter().enumerate() {
                    let dst = holders[(h + 1) % holders.len()];
                    fabric.write(now, src, dst, BACKLOG_BYTES);
                }
            }
            let result = if tr.enabled() {
                tr.enter("compute.plan");
                let plan = planner.plan(&mut pool, &fabric, now, requester, &vector, op);
                tr.exit();
                plan.and_then(|plan| {
                    tr.enter("compute.execute");
                    let r = planner.execute(&mut pool, &mut fabric, now, requester, op, &plan);
                    tr.exit();
                    r.map(|(out, outcome)| (out, plan, outcome))
                })
            } else {
                planner.run(&mut pool, &mut fabric, now, requester, &vector, op)
            };
            tr.exit();
            op_host_ns.push(clock::ns_since(t));
            let (out, plan, outcome) = result.map_err(pool_err("scan query"))?;

            let OpOutput::Rows(rows) = out else {
                return Err(format!("scan oracle: query {q} returned a non-row output"));
            };
            let mut expected = values.iter().filter(|&&v| u64::from(v) > threshold);
            let same = rows.len() as u64 == matches
                && rows
                    .iter()
                    .all(|&r| expected.next().is_some_and(|&v| u64::from(v) == r));
            if !same {
                return Err(format!(
                    "scan oracle: query {q} (threshold {threshold}) returned {} rows, expected {matches}, or rows differ",
                    rows.len()
                ));
            }

            let took = outcome.complete.duration_since(now).as_nanos();
            let estimate = plan
                .segments
                .iter()
                .map(|s| {
                    if s.choice == Choice::Ship {
                        s.est_ship_ns
                    } else {
                        s.est_fetch_ns
                    }
                })
                .max()
                .unwrap_or(0);
            if took > 0 {
                est_err_pct.push((estimate as f64 - took as f64).abs() / took as f64 * 100.0);
            }
            sim_ns.push(took);
            shipped += u64::from(outcome.shipped_segments);
            fetched += u64::from(outcome.fetched_segments);
            fabric_bytes += outcome.fabric_bytes;
            result_bytes += outcome.result_bytes;
            local_bytes += outcome.local_bytes;
            for v in [
                rows.len() as u64,
                outcome.complete.as_nanos(),
                outcome.fabric_bytes,
                outcome.local_bytes,
                outcome.result_bytes,
                u64::from(outcome.shipped_segments),
                u64::from(outcome.fetched_segments),
                u64::from(outcome.stale_holders),
                estimate,
            ] {
                digest.fold(v);
            }
            now = outcome.complete;
        }
    }

    let queries = (PASSES * THRESHOLDS.len()) as u64;
    let mut counters = rack_counters(&mut pool, &mut fabric, now);
    counters.extend([
        ("compute.shipped_segments", shipped as f64),
        ("compute.fetched_segments", fetched as f64),
        ("compute.fabric_bytes", fabric_bytes as f64),
        ("compute.result_bytes", result_bytes as f64),
        (
            "compute.est_err_pct",
            est_err_pct.iter().sum::<f64>() / est_err_pct.len().max(1) as f64,
        ),
    ]);
    Ok(Episode {
        setup_ns,
        op_host_ns,
        throughput_only: (0, 0),
        sim: Sim {
            digest: digest.value(),
            op_ns: sim_ns,
            payload_bytes: queries * total,
            makespan_ns: now.as_nanos(),
            local_bytes,
            remote_bytes: fabric_bytes,
            attempted: queries,
            counters,
            ..Sim::default()
        },
        host_layers: Vec::new(),
    })
}
