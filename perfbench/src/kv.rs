//! `kv-zipf`: four closed-loop clients, one per server, drive a `KvStore`
//! (default config: 4096 × 256 B slots, zipf 1.0, 10% puts, round-robin
//! placement) while the rack runtime's balancer migrates hot segments.
//! Telemetry is off. This is the small single-op path: translation, the
//! batch-of-one access, the DRAM charge and materialized reads and writes.
//!
//! Oracle: a reference map of the last value written per key is checked
//! against every get.

use crate::clock;
use crate::episode::{pool_err, rack_counters, Episode, Sim};
use crate::stats::{fquantile, mix, Digest};
use crate::trace::Tracer;
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, MemOp, NodeId};
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;
use lmp_workloads::{KvConfig, KvStore, KvWorkload, SLOT_BYTES};

const SERVERS: u32 = 4;
/// Ops per repetition, across all four clients.
const OPS: u64 = 50_000;
/// Bytes of each stored value (the rest of the slot reads back as zeros).
const VALUE_BYTES: usize = 16;
/// Builds of the world per timed episode; set-up is their median.
pub const SETUP_BUILDS: usize = 3;
/// Host layer: mean host ns of one untraced `KvStore::get`/`put` call.
pub const STORE_CALL: &str = "kv.store_call_ns";

fn value_of(seed: u64, key: u64, version: u64) -> [u8; VALUE_BYTES] {
    let a = mix(seed ^ mix(key << 20 ^ version));
    let b = mix(a);
    let mut v = [0u8; VALUE_BYTES];
    v[..8].copy_from_slice(&a.to_le_bytes());
    v[8..].copy_from_slice(&b.to_le_bytes());
    v
}

/// The world one episode runs on, built and filled.
struct World {
    pool: LogicalPool,
    fabric: Fabric,
    store: KvStore,
    rack: RackRuntime,
    /// The last value written per key: the oracle.
    reference: Vec<[u8; VALUE_BYTES]>,
    /// When the fill completed; the clients start here.
    start: SimTime,
}

fn build(seed: u64, config: &KvConfig) -> Result<World, String> {
    let mut pool = LogicalPool::new(PoolConfig {
        servers: SERVERS,
        capacity_per_server: 16 * FRAME_BYTES,
        shared_per_server: 12 * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 64,
    });
    let mut fabric = Fabric::new(LinkProfile::link1(), SERVERS);
    let mut store = KvStore::create(&mut pool, config.clone()).map_err(pool_err("kv create"))?;
    let rack = RackRuntime::new(
        &pool,
        RuntimeConfig {
            balance_period: SimDuration::from_micros(100),
            ..RuntimeConfig::default()
        },
    );
    // Fill every slot once from its holder, so the fill leaves no remote
    // hotness behind for the balancer to act on.
    let mut reference = Vec::with_capacity(config.slots as usize);
    let mut start = SimTime::ZERO;
    for key in 0..config.slots {
        let value = value_of(seed, key, 0);
        let seg = store.segment_of(key).map_err(pool_err("kv fill"))?;
        let holder = pool
            .holder_of(seg)
            .ok_or("kv fill: slot segment has no holder")?;
        let done = store
            .put(&mut pool, &mut fabric, SimTime::ZERO, holder, key, &value)
            .map_err(pool_err("kv fill"))?;
        start = start.max(done);
        reference.push(value);
    }
    Ok(World {
        pool,
        fabric,
        store,
        rack,
        reference,
        start,
    })
}

/// One episode, building the world `builds` times (at least once) and
/// running the ops on the last build.
pub fn episode(seed: u64, tr: &mut Tracer, builds: usize) -> Result<Episode, String> {
    let config = KvConfig::default();
    let mut build_ns = Vec::with_capacity(builds);
    let mut world = None;
    for _ in 0..builds.max(1) {
        // Drop the previous build first, so one world is alive at a time.
        drop(world.take());
        let t = clock::now();
        world = Some(build(seed, &config)?);
        build_ns.push(clock::ns_since(t) as f64);
    }
    let setup_ns = fquantile(&build_ns, 0.5);
    let World {
        mut pool,
        mut fabric,
        mut store,
        mut rack,
        mut reference,
        start,
    } = world.ok_or("kv: no set-up build")?;

    let root = DetRng::new(seed);
    let mut clients: Vec<(SimTime, KvWorkload)> = (0..SERVERS)
        .map(|c| {
            (
                start,
                KvWorkload::new(&config, root.fork_indexed("kv-client", u64::from(c))),
            )
        })
        .collect();
    let (local0, remote0) = pool.access_counts();
    let mut op_host_ns = Vec::with_capacity(OPS as usize);
    let mut sim_ns = Vec::with_capacity(OPS as usize);
    let mut digest = Digest::new();
    let mut skipped = 0u64;
    let mut store_call_ns = 0u64;
    for i in 0..OPS {
        // Closed loop: the client whose previous op finished first goes next.
        let c = (0..clients.len())
            .min_by_key(|&c| (clients[c].0, c))
            .unwrap_or(0);
        let now = clients[c].0;
        let client = NodeId(c as u32);
        let (key, is_write) = clients[c].1.next_op();
        let value = value_of(seed, key, i + 1);

        tr.begin_op();
        let t = clock::now();
        tr.enter("kv.op");
        tr.enter("runtime.tick");
        let (round, _) = rack.tick(&mut pool, &mut fabric, now);
        tr.exit();
        let ticked = clock::now();
        let outcome = if tr.enabled() {
            kv_op_traced(
                &store,
                &mut pool,
                &mut fabric,
                tr,
                now,
                client,
                key,
                is_write,
                &value,
            )
        } else if is_write {
            store
                .put(&mut pool, &mut fabric, now, client, key, &value)
                .map(|done| (done, None))
        } else {
            store
                .get(&mut pool, &mut fabric, now, client, key)
                .map(|(v, done)| (done, Some(v)))
        };
        tr.exit();
        let finished = clock::now();
        op_host_ns.push(clock::ns_between(t, finished));
        store_call_ns += clock::ns_between(ticked, finished);

        let (done, read) = outcome.map_err(pool_err("kv op"))?;
        skipped += round.map_or(0, |r| r.skipped as u64);
        match read {
            None => reference[key as usize] = value,
            Some(got) => {
                let want = &reference[key as usize];
                if got.len() != SLOT_BYTES as usize
                    || got[..VALUE_BYTES] != want[..]
                    || got[VALUE_BYTES..].iter().any(|&b| b != 0)
                {
                    return Err(format!(
                        "kv oracle: get of key {key} (op {i}) returned a stale or corrupt value"
                    ));
                }
            }
        }
        let lat = done.duration_since(now).as_nanos();
        sim_ns.push(lat);
        digest.fold(c as u64);
        digest.fold(key);
        digest.fold(u64::from(is_write));
        digest.fold(done.as_nanos());
        clients[c].0 = done;
    }
    let end = clients.iter().map(|(t, _)| *t).max().unwrap_or(start);
    let (local1, remote1) = pool.access_counts();
    let (local_ops, remote_ops) = (local1 - local0, remote1 - remote0);

    let mut counters = rack_counters(&mut pool, &mut fabric, end);
    counters.extend([
        ("core.access.calls", OPS as f64),
        ("core.local_ops", local_ops as f64),
        ("core.remote_ops", remote_ops as f64),
        (
            "balance.migrations",
            rack.balancer().migration_count() as f64,
        ),
        ("balance.skipped", skipped as f64),
    ]);
    Ok(Episode {
        setup_ns,
        op_host_ns,
        throughput_only: (0, 0),
        sim: Sim {
            digest: digest.value(),
            op_ns: sim_ns,
            payload_bytes: OPS * SLOT_BYTES,
            makespan_ns: end.duration_since(start).as_nanos(),
            local_bytes: local_ops * SLOT_BYTES,
            remote_bytes: remote_ops * SLOT_BYTES,
            attempted: OPS,
            counters,
            ..Sim::default()
        },
        host_layers: if tr.enabled() {
            Vec::new()
        } else {
            vec![(STORE_CALL, store_call_ns as f64 / OPS as f64)]
        },
    })
}

/// The traced form of `KvStore::get`/`put`: the same public pool calls with
/// the same arguments, each inside its own span.
#[allow(clippy::too_many_arguments)]
fn kv_op_traced(
    store: &KvStore,
    pool: &mut LogicalPool,
    fabric: &mut Fabric,
    tr: &mut Tracer,
    now: SimTime,
    client: NodeId,
    key: u64,
    is_write: bool,
    value: &[u8],
) -> Result<(SimTime, Option<Vec<u8>>), PoolError> {
    let per_segment = KvConfig::default().slots_per_segment;
    let addr = LogicalAddr::new(store.segment_of(key)?, (key % per_segment) * SLOT_BYTES);
    let op = if is_write { MemOp::Write } else { MemOp::Read };
    tr.enter("core.access");
    let access = pool.access(fabric, now, client, addr, SLOT_BYTES, op);
    tr.exit();
    let done = access?.complete;
    if is_write {
        let mut padded = vec![0u8; SLOT_BYTES as usize];
        padded[..value.len()].copy_from_slice(value);
        tr.enter("core.materialize");
        let r = pool.write_bytes(addr, &padded);
        tr.exit();
        r.map(|()| (done, None))
    } else {
        tr.enter("core.materialize");
        let r = pool.read_bytes(addr, SLOT_BYTES);
        tr.exit();
        r.map(|v| (done, Some(v)))
    }
}
