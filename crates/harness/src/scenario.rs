// Scenario orchestration is harness code: a failed setup step or breached
// invariant must abort the run loudly, exactly like an assert in a test.
#![allow(clippy::expect_used, clippy::unwrap_used)]

//! Chaos scenarios: seeded workloads under seeded fault plans, with the
//! invariant checkers wired in.
//!
//! Each [`Scenario`] builds a small rack (5 servers; the rack-loss
//! scenario builds a 4×3 multi-rack datacenter), allocates and
//! protects segments, generates a deterministic workload, injects its
//! fault plan through the discrete-event [`Engine`], and verifies the
//! cross-layer invariants as recovery happens and again at the end. The
//! whole run is a pure function of `(scenario, seed)`: the resulting
//! [`ChaosReport`] carries a trace digest that must be identical on
//! every rerun.

use crate::invariants::{
    check_coherence_mutex, check_degraded_read, check_epoch_monotonic,
    check_lease_confirmations, check_recovery, check_telemetry_conservation,
    check_translation, check_write_amplification, CheckResult, ContentModel, WriteLedger,
};
use crate::plan::{Fault, FaultPlan};
use crate::retry::{is_retryable, RetryPolicy};
use crate::trace::ChaosTrace;
use lmp_core::prelude::*;
use lmp_fabric::{Fabric, LinkProfile, MemOp, NodeId};
use lmp_mem::{DramProfile, FRAME_BYTES};
use lmp_sim::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// The fault scenarios the chaos harness ships.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Crash the server of an unprotected segment: the loss must surface
    /// as a memory exception, never as wrong data.
    CrashUnprotected,
    /// Crash a mirrored segment's server: the replica is promoted in
    /// place, byte-identical, at the same logical address.
    CrashMirrored,
    /// Crash a parity-group member's server: the segment is rebuilt from
    /// the survivors by XOR reconstruction.
    CrashParity,
    /// Degrade one node's links mid-run: operations slow down but never
    /// fail, and latency recovers with the link.
    LinkSpike,
    /// Crashes, a restart, a port flap, and a link spike in one run, plus
    /// the coherence mutual-exclusion check.
    Combined,
    /// Crash a server under load with self-healing armed: the lease
    /// detector confirms the failure on its own, the orchestrator repairs
    /// it in throttled batches — no manual `recover()` call anywhere — and
    /// reads in the detection/repair window are served degraded from
    /// surviving redundancy, byte-identical.
    CrashAutoHeal,
    /// Port flaps shorter than the lease with self-healing armed: the
    /// detector must suspect and then clear, never confirm, and the
    /// orchestrator must perform zero recoveries.
    FlapNoHeal,
    /// A port drops in the middle of a stream of frame-spanning accesses
    /// and scatter-gather batches: accesses that hit the downed holder must
    /// fail whole — no counter, DRAM, or fabric accounting charged for a
    /// refused access — and the telemetry books must still balance.
    PortDropMidAccess,
    /// An entire rack goes dark — every host crashes and every leaf port
    /// drops in one instant. The lease detector confirms the whole
    /// failure domain on its own, the orchestrator rebuilds every
    /// protected segment from surviving racks (domain-aware placement
    /// guarantees no group lost all its copies), and the rack later
    /// returns warm under a fresh epoch, resurrecting the one
    /// unprotected segment that was written off.
    RackLoss,
    /// A bulk flood saturates a holder's up-wire, then the holder itself
    /// crashes: reads predicted past the tail deadline race a duplicate
    /// through the mirror twin and win, every race loser's completion
    /// event is cancelled through the engine, and reads inside the
    /// crash-repair window fall through the hedge to the degraded path —
    /// hedged reads keep serving while the rebuild runs.
    HedgedFlood,
}

impl Scenario {
    /// Every scenario, in the order the chaos binary runs them.
    pub fn all() -> Vec<Scenario> {
        vec![
            Scenario::CrashUnprotected,
            Scenario::CrashMirrored,
            Scenario::CrashParity,
            Scenario::LinkSpike,
            Scenario::Combined,
            Scenario::CrashAutoHeal,
            Scenario::FlapNoHeal,
            Scenario::PortDropMidAccess,
            Scenario::RackLoss,
            Scenario::HedgedFlood,
        ]
    }

    /// Stable name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            Scenario::CrashUnprotected => "crash-unprotected",
            Scenario::CrashMirrored => "crash-mirrored",
            Scenario::CrashParity => "crash-parity",
            Scenario::LinkSpike => "link-spike",
            Scenario::Combined => "combined",
            Scenario::CrashAutoHeal => "crash-auto-heal",
            Scenario::FlapNoHeal => "flap-no-heal",
            Scenario::PortDropMidAccess => "port-drop-mid-access",
            Scenario::RackLoss => "rack-loss",
            Scenario::HedgedFlood => "hedged-flood",
        }
    }

    /// Whether the scenario arms the lease detector and recovery
    /// orchestrator instead of the harness's manual recovery schedule.
    pub fn self_healing(&self) -> bool {
        matches!(
            self,
            Scenario::CrashAutoHeal
                | Scenario::FlapNoHeal
                | Scenario::RackLoss
                | Scenario::HedgedFlood
        )
    }

    /// Memory servers the scenario provisions. Most scenarios run one
    /// small rack; the rack-loss scenario needs a multi-rack datacenter
    /// (4 racks × 3 hosts) so a whole failure domain can die at once.
    pub fn servers(&self) -> u32 {
        match self {
            Scenario::RackLoss => 12,
            _ => SERVERS,
        }
    }
}

impl std::fmt::Display for Scenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Everything one chaos run produced.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Scenario name.
    pub scenario: &'static str,
    /// Seed the run was derived from.
    pub seed: u64,
    /// Digest of the full event trace (same seed ⇒ same digest).
    pub digest: u64,
    /// Digest of the final rack telemetry snapshot. Fed into the trace as
    /// well, so a drifting instrument breaks `digest` too.
    pub telemetry_digest: u64,
    /// Events the engine processed.
    pub events: u64,
    /// The full trace (for diffing divergent runs).
    pub trace: ChaosTrace,
    /// Every invariant verdict, in check order.
    pub checks: Vec<CheckResult>,
    /// Operations that ultimately succeeded.
    pub ops_ok: u64,
    /// Operations that failed with a permanent error (memory exception).
    pub ops_failed: u64,
    /// Retry attempts scheduled.
    pub retries: u64,
    /// Operations that exhausted their retry budget.
    pub gave_up: u64,
    /// Segments restored by mirror promotion.
    pub promoted: u64,
    /// Segments rebuilt from parity.
    pub reconstructed: u64,
    /// Segments whose protection was re-established.
    pub reprotected: u64,
    /// Segments lost (exceptions raised).
    pub lost: u64,
    /// Detector suspicions raised (self-healing scenarios; else 0).
    pub suspicions: u64,
    /// Detector Down confirmations (self-healing scenarios; else 0).
    pub confirmations: u64,
    /// Throttled recovery batches the orchestrator ran on its own.
    pub auto_recoveries: u64,
    /// Reads served from surviving redundancy while repair was pending.
    pub degraded_served: u64,
}

impl ChaosReport {
    /// Whether every invariant held.
    pub fn passed(&self) -> bool {
        self.checks.iter().all(|c| c.passed)
    }
}

const SERVERS: u32 = 5;
const SEG_BYTES: u64 = 2 * FRAME_BYTES;
/// Hedge probe segments ([`Scenario::HedgedFlood`]) are small so their
/// t=0 mirror copies drain the victim's up-wire well before the first
/// probe: the backlog the probes then see is the flood's alone.
const HEDGE_SEG_BYTES: u64 = 16 * 1024;
/// The hedged flood's congested holder: it homes the hedge probe
/// segments, and two bulk reads fill its up-wire from 8 µs to ~33 µs.
const FLOOD_VICTIM: NodeId = NodeId(1);
/// The node that issues the flood's bulk reads; its down-wire carries the
/// payload until ~45 µs.
///
/// Wire reservations are strict FIFO, so a flit that queues behind the
/// flood reserves every later wire on its path at the flood's drain
/// horizon, and each of those wires then fences whatever crosses it next.
/// The random workload must therefore stay off both flooded wires: the
/// sink homes no workload segment (a read from it, or a write's
/// completion flit, would carry the fence on to the requester's down
/// wire), and the victim issues no workload op (its request flits queue
/// behind the flood payload on its own up wire). Otherwise a workload op
/// that crosses them just before the 10 µs probe can fence the twin's
/// wires too — a read of a segment on the sink from the twin's home
/// fences that home's down wire — and the hedge races but never wins.
const FLOOD_SINK: NodeId = NodeId(4);
const HORIZON: SimDuration = SimDuration::from_micros(30);
const DETECTION_DELAY: SimDuration = SimDuration::from_micros(2);
const OPS: u64 = 60;

#[derive(Debug, Clone, Copy)]
struct OpSpec {
    at: SimTime,
    requester: NodeId,
    seg_idx: usize,
    offset: u64,
    len: u64,
    write: bool,
}

enum Ev {
    Fault(Fault),
    Recover(NodeId),
    Op { id: u64, attempt: u32 },
    Probe { idx: usize, seg_idx: usize, requester: NodeId },
    /// One detector sweep (self-healing scenarios only).
    HealthTick,
    /// One throttled orchestrator batch (self-healing scenarios only).
    RecoveryStep,
    /// A read pinned inside a fault window that must be served degraded
    /// (self-healing scenarios only).
    DegradedProbe { seg_idx: usize, requester: NodeId },
    /// One scatter-gather batch of frame-spanning reads across every
    /// application segment ([`Scenario::PortDropMidAccess`] only).
    BatchWave { idx: usize },
    /// One holder's pipelined stream of a batch wave drained — scheduled
    /// through `Engine::schedule_batch`, one event per holder per wave.
    HolderDone { wave: usize, holder: NodeId },
    /// One bulk transfer loading the victim holder's up-wire
    /// ([`Scenario::HedgedFlood`] only).
    Flood { from: NodeId, holder: NodeId, bytes: u64 },
    /// One latency-sensitive read served through [`hedged_read`]
    /// ([`Scenario::HedgedFlood`] only).
    HedgedProbe { idx: usize, seg_idx: usize, requester: NodeId },
    /// A hedged probe's winning payload delivered at the requester.
    HedgeDone { idx: usize },
    /// A race loser's completion — scheduled and immediately cancelled
    /// through [`Engine::cancel`]; firing means the cancellation failed.
    HedgeLoser { idx: usize },
}

/// The armed self-healing stack: detector plus orchestrator.
struct Healing {
    detector: FailureDetector,
    orchestrator: RecoveryOrchestrator,
}

struct World {
    scenario: Scenario,
    seed: u64,
    pool: LogicalPool,
    fabric: Fabric,
    pm: ProtectionManager,
    segments: Vec<SegmentId>,
    model: ContentModel,
    lost: BTreeSet<SegmentId>,
    ledger: WriteLedger,
    ops: Vec<OpSpec>,
    policy: RetryPolicy,
    trace: ChaosTrace,
    checks: Vec<CheckResult>,
    /// Crashed node → affected segments (sorted), saved until detection.
    pending_recovery: BTreeMap<u32, Vec<SegmentId>>,
    /// Rack topology (rack-loss scenario only): which hosts share a
    /// failure domain, for rack-wide fault injection and the placement
    /// independence checks.
    domains: Option<DomainMap>,
    /// Contents of segments written off as lost, kept so a warm rack
    /// rejoin that resurrects them can restore the shadow model and
    /// verify the revived bytes.
    lost_stash: BTreeMap<SegmentId, Vec<u8>>,
    /// Application segments that were protected when the run started —
    /// the population the zero-protected-losses check is scored over.
    protected_at_start: BTreeSet<SegmentId>,
    /// Losses among `protected_at_start`.
    protected_lost: u64,
    probe_latencies: Vec<u64>,
    /// Hedge probe segments and their expected contents
    /// ([`Scenario::HedgedFlood`] only; parallel vectors).
    hedge_segs: Vec<SegmentId>,
    hedge_model: Vec<Vec<u8>>,
    hedge_not_needed: u64,
    hedge_raced: u64,
    hedge_wins: u64,
    hedge_no_twin: u64,
    hedge_degraded: u64,
    hedge_mismatches: u64,
    hedge_cancels: u64,
    hedge_cancels_ok: u64,
    hedge_losers_fired: u64,
    healing: Option<Healing>,
    health_events: Vec<HealthEvent>,
    telemetry_digest: u64,
    degraded_served: u64,
    degraded_mismatches: u64,
    batch_ok: u64,
    batch_failed: u64,
    atomicity_violations: u64,
    ops_ok: u64,
    ops_failed: u64,
    retries: u64,
    gave_up: u64,
    promoted: u64,
    reconstructed: u64,
    reprotected: u64,
    lost_count: u64,
}

/// Deterministic payload for write op `id`.
fn write_data(seed: u64, id: u64, len: usize) -> Vec<u8> {
    let mut rng = DetRng::new(seed).fork_indexed("write-data", id);
    (0..len).map(|_| rng.below(256) as u8).collect()
}

impl World {
    fn build(scenario: Scenario, seed: u64) -> (World, FaultPlan) {
        let servers = scenario.servers();
        let config = PoolConfig {
            servers,
            capacity_per_server: 64 * FRAME_BYTES,
            shared_per_server: 48 * FRAME_BYTES,
            dram: DramProfile::xeon_gold_5120(),
            tlb_capacity: 16,
        };
        let mut pool = LogicalPool::new(config);
        pool.attach_telemetry();
        let mut fabric = Fabric::new(LinkProfile::link1(), servers);
        let domains = (scenario == Scenario::RackLoss).then(|| DomainMap::uniform(4, 3));
        let mut pm = match &domains {
            Some(d) => {
                ProtectionManager::with_policy(PlacementPolicy::DomainAware(d.clone()))
            }
            None => ProtectionManager::new(),
        };
        let mut model = ContentModel::new();
        let mut segments = Vec::new();
        let rng = DetRng::new(seed).fork("chaos-setup");

        // Application segments: (home server, protection).
        #[derive(Clone, Copy, PartialEq)]
        enum Prot {
            None,
            Mirror,
            Parity,
        }
        let layout: Vec<(u32, Prot)> = match scenario {
            Scenario::CrashUnprotected => {
                vec![(0, Prot::None), (1, Prot::None), (2, Prot::None)]
            }
            Scenario::CrashMirrored => {
                vec![(0, Prot::Mirror), (1, Prot::Mirror), (2, Prot::None)]
            }
            Scenario::CrashParity => {
                vec![(0, Prot::Parity), (1, Prot::Parity), (4, Prot::None)]
            }
            Scenario::LinkSpike => {
                vec![(0, Prot::None), (1, Prot::None), (2, Prot::None)]
            }
            Scenario::Combined => vec![
                (0, Prot::Mirror),
                (1, Prot::Parity),
                (2, Prot::Parity),
                (3, Prot::None),
            ],
            // Node 0 hosts one mirrored and one parity segment, so its
            // crash queues two repairs — enough to watch batch-1 throttling
            // spread recovery over multiple ticks.
            Scenario::CrashAutoHeal => vec![
                (0, Prot::Mirror),
                (0, Prot::Parity),
                (1, Prot::Parity),
                (2, Prot::None),
            ],
            // The flapped nodes (1 and 3) host protected segments so
            // degraded reads can route around the flap.
            Scenario::FlapNoHeal => vec![
                (1, Prot::Mirror),
                (3, Prot::Parity),
                (4, Prot::Parity),
                (2, Prot::None),
            ],
            // Every segment remote to the batch requester (node 0); node 1
            // is the one whose port drops mid-run.
            Scenario::PortDropMidAccess => {
                vec![(1, Prot::None), (2, Prot::None), (3, Prot::None)]
            }
            // Rack 0 (hosts 0–2) homes a mirrored, a parity, and an
            // unprotected segment, so its blackout exercises every
            // protection path at once; the second parity member lives in
            // rack 1 so the group spans racks even before placement runs.
            Scenario::RackLoss => vec![
                (0, Prot::Mirror),
                (1, Prot::Parity),
                (3, Prot::Parity),
                (2, Prot::None),
            ],
            // The flood victim (node 1) homes only the small hedge probe
            // segments, added below; the workload segments stay off it so
            // the flood and crash windows are entirely the hedges' story.
            // Nodes 3 and 4 stay empty: both mirror twins land on node 3
            // (the lowest-id freest host), and node 4 sinks the flood.
            // Neither homes workload data — see [`FLOOD_SINK`].
            Scenario::HedgedFlood => {
                vec![(0, Prot::None), (2, Prot::None), (2, Prot::None)]
            }
        };
        for (i, &(home, _)) in layout.iter().enumerate() {
            let seg = pool
                .alloc(SEG_BYTES, Placement::On(NodeId(home)))
                .expect("setup capacity");
            let mut content_rng = rng.fork_indexed("content", i as u64);
            let data: Vec<u8> = (0..SEG_BYTES).map(|_| content_rng.below(256) as u8).collect();
            pool.write_bytes(LogicalAddr::new(seg, 0), &data)
                .expect("setup write");
            model.insert(seg, data);
            segments.push(seg);
        }
        if scenario == Scenario::RackLoss {
            // Filler allocations leave rack 0 the freest failure domain:
            // a host-only policy would pack the redundancy right next to
            // its primaries (the contrast check proves that loses data),
            // while the domain-aware policy is forced across racks.
            for h in 3..servers {
                pool.alloc(8 * FRAME_BYTES, Placement::On(NodeId(h)))
                    .expect("setup filler");
            }
        }
        for (i, &(_, prot)) in layout.iter().enumerate() {
            if prot == Prot::Mirror {
                pm.mirror(&mut pool, &mut fabric, SimTime::ZERO, segments[i])
                    .expect("setup mirror");
            }
        }
        let parity_members: Vec<SegmentId> = layout
            .iter()
            .enumerate()
            .filter(|(_, &(_, p))| p == Prot::Parity)
            .map(|(i, _)| segments[i])
            .collect();
        if !parity_members.is_empty() {
            pm.protect_parity(&mut pool, &mut fabric, SimTime::ZERO, &parity_members)
                .expect("setup parity");
        }
        let mut hedge_segs = Vec::new();
        let mut hedge_model: Vec<Vec<u8>> = Vec::new();
        if scenario == Scenario::HedgedFlood {
            // Two small mirrored segments homed on the flood victim; the
            // hedged probes read these. Kept out of `segments` so the
            // random workload (whose offsets assume SEG_BYTES) never
            // touches them.
            for i in 0..2u64 {
                let seg = pool
                    .alloc(HEDGE_SEG_BYTES, Placement::On(FLOOD_VICTIM))
                    .expect("setup hedge segment");
                let mut content_rng = rng.fork_indexed("hedge-content", i);
                let data: Vec<u8> = (0..HEDGE_SEG_BYTES)
                    .map(|_| content_rng.below(256) as u8)
                    .collect();
                pool.write_bytes(LogicalAddr::new(seg, 0), &data)
                    .expect("setup hedge write");
                pm.mirror(&mut pool, &mut fabric, SimTime::ZERO, seg)
                    .expect("setup hedge mirror");
                hedge_segs.push(seg);
                hedge_model.push(data);
            }
        }

        // The fault plan, explicit per scenario but timed/derived from the
        // seed where it does not change which paths are exercised.
        let mut plan = FaultPlan::new();
        let us = |n: u64| SimTime::from_nanos(n * 1000);
        match scenario {
            Scenario::CrashUnprotected | Scenario::CrashMirrored | Scenario::CrashParity => {
                plan.push(us(5), Fault::ServerCrash(NodeId(0)));
                plan.push(us(20), Fault::ServerRestart(NodeId(0)));
            }
            Scenario::LinkSpike => {
                plan.push(
                    us(8),
                    Fault::LinkDegrade {
                        node: NodeId(1),
                        factor: 8.0,
                    },
                );
                plan.push(us(16), Fault::LinkRestore(NodeId(1)));
            }
            Scenario::Combined => {
                plan.push(us(4), Fault::ServerCrash(NodeId(0)));
                plan.push(us(10), Fault::ServerCrash(NodeId(1)));
                plan.push(us(13), Fault::PortDown(NodeId(2)));
                plan.push(us(14), Fault::PortUp(NodeId(2)));
                plan.push(
                    us(16),
                    Fault::LinkDegrade {
                        node: NodeId(4),
                        factor: 6.0,
                    },
                );
                plan.push(us(18), Fault::ServerRestart(NodeId(0)));
                plan.push(us(20), Fault::ServerRestart(NodeId(1)));
                plan.push(us(22), Fault::LinkRestore(NodeId(4)));
            }
            Scenario::CrashAutoHeal => {
                plan.push(us(5), Fault::ServerCrash(NodeId(0)));
                // Cold restart well after the repairs finish; the detector
                // rejoins the node under a fresh epoch.
                plan.push(us(24), Fault::ServerRestart(NodeId(0)));
            }
            Scenario::FlapNoHeal => {
                // Both flaps are shorter than the 3 µs lease: long enough
                // to cross the 2-miss suspicion threshold, never long
                // enough to confirm.
                plan.push(us(6), Fault::PortDown(NodeId(1)));
                plan.push(SimTime::from_nanos(7_500), Fault::PortUp(NodeId(1)));
                plan.push(us(14), Fault::PortDown(NodeId(3)));
                plan.push(us(15), Fault::PortUp(NodeId(3)));
            }
            Scenario::PortDropMidAccess => {
                plan.push(us(10), Fault::PortDown(NodeId(1)));
                plan.push(us(18), Fault::PortUp(NodeId(1)));
            }
            Scenario::RackLoss => {
                // One event kills the whole failure domain; power returns
                // well after the orchestrator has rebuilt from survivors.
                plan.push(us(5), Fault::RackDown(0));
                plan.push(us(20), Fault::RackUp(0));
            }
            Scenario::HedgedFlood => {
                // The flood (scheduled as engine events) runs 8–33 µs;
                // mid-flood the victim crashes outright, and rejoins cold
                // after the orchestrator has promoted both twins.
                plan.push(us(12), Fault::ServerCrash(FLOOD_VICTIM));
                plan.push(us(24), Fault::ServerRestart(FLOOD_VICTIM));
            }
        }

        // The seeded workload. In the hedged flood the victim issues
        // nothing (see [`FLOOD_SINK`]); every other scenario draws from
        // all servers.
        let requesters: Vec<NodeId> = (0..servers)
            .map(NodeId)
            .filter(|&n| scenario != Scenario::HedgedFlood || n != FLOOD_VICTIM)
            .collect();
        let mut wl = rng.fork("workload");
        let ops = (0..OPS)
            .map(|_| {
                let at = SimTime::from_nanos(wl.below(HORIZON.as_nanos()));
                let requester = requesters[wl.below(requesters.len() as u64) as usize];
                let seg_idx = wl.below(segments.len() as u64) as usize;
                // The port-drop scenario issues only frame-spanning ops
                // (len > FRAME_BYTES guarantees a two-chunk walk), so every
                // refused access is a multi-frame one — the shape whose
                // accounting used to be inflated on partial failure.
                let len = if scenario == Scenario::PortDropMidAccess {
                    FRAME_BYTES + 8 + wl.below(FRAME_BYTES - 16)
                } else {
                    8 + wl.below(120)
                };
                let offset = wl.below(SEG_BYTES - len);
                let write = wl.chance(0.5);
                OpSpec {
                    at,
                    requester,
                    seg_idx,
                    offset,
                    len,
                    write,
                }
            })
            .collect();

        let protected_at_start: BTreeSet<SegmentId> = segments
            .iter()
            .copied()
            .filter(|s| pm.is_protected(*s))
            .collect();
        let world = World {
            scenario,
            seed,
            pool,
            fabric,
            pm,
            segments,
            model,
            lost: BTreeSet::new(),
            ledger: WriteLedger::new(),
            ops,
            policy: RetryPolicy::default_chaos(),
            trace: ChaosTrace::new(),
            checks: Vec::new(),
            pending_recovery: BTreeMap::new(),
            domains,
            lost_stash: BTreeMap::new(),
            protected_at_start,
            protected_lost: 0,
            probe_latencies: Vec::new(),
            hedge_segs,
            hedge_model,
            hedge_not_needed: 0,
            hedge_raced: 0,
            hedge_wins: 0,
            hedge_no_twin: 0,
            hedge_degraded: 0,
            hedge_mismatches: 0,
            hedge_cancels: 0,
            hedge_cancels_ok: 0,
            hedge_losers_fired: 0,
            healing: scenario.self_healing().then(|| Healing {
                detector: FailureDetector::new(
                    HealthConfig::default_chaos(),
                    servers,
                    SimTime::ZERO,
                ),
                orchestrator: RecoveryOrchestrator::new(),
            }),
            health_events: Vec::new(),
            telemetry_digest: 0,
            degraded_served: 0,
            degraded_mismatches: 0,
            batch_ok: 0,
            batch_failed: 0,
            atomicity_violations: 0,
            ops_ok: 0,
            ops_failed: 0,
            retries: 0,
            gave_up: 0,
            promoted: 0,
            reconstructed: 0,
            reprotected: 0,
            lost_count: 0,
        };
        (world, plan)
    }

    fn handle(&mut self, eng: &mut Engine<Ev>, ev: Ev) {
        let now = eng.now();
        match ev {
            Ev::Fault(f) => {
                self.trace.record(now, format!("fault: {f}"));
                match f {
                    Fault::ServerCrash(n) => {
                        let mut affected = self.pool.crash_server(n);
                        affected.sort_unstable();
                        self.fabric.set_port_down(n, true);
                        self.trace
                            .record(now, format!("  affected: {affected:?}"));
                        if self.healing.is_none() {
                            // Manual mode: the harness plays the operator
                            // and schedules recovery itself. With healing
                            // armed the detector owns the whole response.
                            self.pending_recovery.insert(n.0, affected);
                            eng.schedule_after(DETECTION_DELAY, Ev::Recover(n));
                        }
                    }
                    Fault::ServerRestart(n) => {
                        self.fabric.set_port_down(n, false);
                        match &mut self.healing {
                            Some(h) => {
                                // A cold restart: memory is gone, so the
                                // epoch rule drops any leftover mappings
                                // instead of resurrecting them.
                                let Healing {
                                    detector,
                                    orchestrator,
                                } = h;
                                let claimed = detector.membership().incarnation(n);
                                let out = orchestrator.admit_rejoin(
                                    &mut self.pool,
                                    detector.membership(),
                                    n,
                                    claimed,
                                    false,
                                );
                                self.trace.record(
                                    now,
                                    format!(
                                        "  cold rejoin {n}: resurrected={} dropped={:?}",
                                        out.resurrected, out.dropped
                                    ),
                                );
                            }
                            None => self.pool.restart_server(n),
                        }
                    }
                    Fault::LinkDegrade { node, factor } => {
                        self.fabric.degrade_node(node, factor);
                    }
                    Fault::LinkRestore(n) => {
                        self.fabric.restore_node(n);
                    }
                    Fault::PortDown(n) => {
                        self.fabric.set_port_down(n, true);
                    }
                    Fault::PortUp(n) => {
                        self.fabric.set_port_down(n, false);
                    }
                    Fault::RackDown(r) => {
                        // ToR and PDU gone at once: every host in the rack
                        // crashes and its port drops in the same instant.
                        // DRAM is retained (the crash model keeps memory),
                        // so a later RackUp can warm-rejoin.
                        let hosts = self
                            .domains
                            .as_ref()
                            .map_or_else(Vec::new, |d| d.hosts_in(r));
                        for n in hosts {
                            let mut affected = self.pool.crash_server(n);
                            affected.sort_unstable();
                            self.fabric.set_port_down(n, true);
                            self.trace
                                .record(now, format!("  {n} affected: {affected:?}"));
                            if self.healing.is_none() {
                                self.pending_recovery.insert(n.0, affected);
                                eng.schedule_after(DETECTION_DELAY, Ev::Recover(n));
                            }
                        }
                    }
                    Fault::RackUp(r) => {
                        // Power restored: ports come back first, then each
                        // host announces a warm rejoin. The epoch rule
                        // decides whether the retained memory is honored.
                        let hosts = self
                            .domains
                            .as_ref()
                            .map_or_else(Vec::new, |d| d.hosts_in(r));
                        for &n in &hosts {
                            self.fabric.set_port_down(n, false);
                        }
                        match &mut self.healing {
                            Some(h) => {
                                let Healing {
                                    detector,
                                    orchestrator,
                                } = h;
                                let claimed = detector.membership().epoch();
                                for &n in &hosts {
                                    let out = orchestrator.admit_rejoin(
                                        &mut self.pool,
                                        detector.membership(),
                                        n,
                                        claimed,
                                        true,
                                    );
                                    self.trace.record(
                                        now,
                                        format!(
                                            "  warm rejoin {n}: resurrected={} dropped={:?}",
                                            out.resurrected, out.dropped
                                        ),
                                    );
                                }
                            }
                            None => {
                                for &n in &hosts {
                                    self.pool.revive_server(n);
                                }
                            }
                        }
                        // A warm resurrection brings back segments that
                        // were written off while the rack was dark:
                        // restore the shadow model for any stashed
                        // segment that resolves again, so post-rejoin
                        // reads are verified byte-for-byte.
                        let stash = std::mem::take(&mut self.lost_stash);
                        for (seg, data) in stash {
                            if self.pool.read_bytes(LogicalAddr::new(seg, 0), 1).is_ok() {
                                self.lost.remove(&seg);
                                self.model.insert(seg, data);
                                self.trace.record(
                                    now,
                                    format!("  {seg} resurrected with contents intact"),
                                );
                            } else {
                                self.lost_stash.insert(seg, data);
                            }
                        }
                    }
                }
            }
            Ev::Recover(n) => {
                let affected = self
                    .pending_recovery
                    .remove(&n.0)
                    .expect("recover without crash");
                // Application segments split by whether protection covers
                // them; replicas and parity segments are the protection
                // layer's own business.
                let protected: Vec<SegmentId> = affected
                    .iter()
                    .copied()
                    .filter(|s| self.model.contains_key(s) && self.pm.is_protected(*s))
                    .collect();
                let unprotected: Vec<SegmentId> = affected
                    .iter()
                    .copied()
                    .filter(|s| self.model.contains_key(s) && !self.pm.is_protected(*s))
                    .collect();
                let report =
                    self.pm
                        .recover(&mut self.pool, &mut self.fabric, now, n, &affected);
                self.trace.record(
                    now,
                    format!(
                        "recover {n}: promoted {:?} reconstructed {:?} reprotected {:?} lost {:?}",
                        report.promoted, report.reconstructed, report.reprotected, report.lost
                    ),
                );
                let check =
                    check_recovery(&self.pool, &report, &protected, &unprotected, &self.model);
                self.trace.record(now, format!("  check: {check}"));
                self.checks.push(check);
                self.promoted += report.promoted.len() as u64;
                self.reconstructed += report.reconstructed.len() as u64;
                self.reprotected += report.reprotected.len() as u64;
                self.lost_count += report.lost.len() as u64;
                self.note_lost(&report.lost);
            }
            Ev::Op { id, attempt } => self.run_op(eng, id, attempt),
            Ev::Probe {
                idx,
                seg_idx,
                requester,
            } => {
                let seg = self.segments[seg_idx];
                let a = self
                    .pool
                    .access(
                        &mut self.fabric,
                        now,
                        requester,
                        LogicalAddr::new(seg, 0),
                        64,
                        MemOp::Read,
                    )
                    .expect("probe target must stay healthy");
                let lat = a.complete.duration_since(now).as_nanos();
                self.trace
                    .record(now, format!("probe {idx}: {seg} read in {lat} ns"));
                self.probe_latencies.push(lat);
            }
            Ev::HealthTick => {
                let Some(h) = &mut self.healing else { return };
                let events = h.detector.probe_tick(&mut self.fabric, now);
                for hev in &events {
                    self.trace.record(now, format!("health: {hev:?}"));
                    if let HealthEvent::ConfirmedDown { node, epoch, .. } = hev {
                        let queued =
                            h.orchestrator.on_confirmed_down(&self.pool, *node, *epoch);
                        self.trace
                            .record(now, format!("  queued {queued} segments for repair"));
                        eng.schedule_after(
                            h.detector.config().recovery_tick,
                            Ev::RecoveryStep,
                        );
                    }
                }
                self.health_events.extend(events);
            }
            Ev::RecoveryStep => {
                let Some(h) = &mut self.healing else { return };
                let batch = h.detector.config().recovery_batch;
                let done =
                    h.orchestrator
                        .step(&mut self.pool, &mut self.fabric, &mut self.pm, now, batch);
                let mut lost_this_step: Vec<SegmentId> = Vec::new();
                for t in &done {
                    self.trace.record(
                        now,
                        format!(
                            "auto-recover {} epoch {}: promoted {:?} reconstructed {:?} \
                             reprotected {:?} lost {:?}",
                            t.node,
                            t.epoch,
                            t.report.promoted,
                            t.report.reconstructed,
                            t.report.reprotected,
                            t.report.lost
                        ),
                    );
                    self.promoted += t.report.promoted.len() as u64;
                    self.reconstructed += t.report.reconstructed.len() as u64;
                    self.reprotected += t.report.reprotected.len() as u64;
                    self.lost_count += t.report.lost.len() as u64;
                    lost_this_step.extend_from_slice(&t.report.lost);
                }
                if h.orchestrator.has_pending() {
                    eng.schedule_after(h.detector.config().recovery_tick, Ev::RecoveryStep);
                }
                self.note_lost(&lost_this_step);
            }
            Ev::DegradedProbe { seg_idx, requester } => {
                let seg = self.segments[seg_idx];
                let addr = LogicalAddr::new(seg, 16);
                match self
                    .pool
                    .access(&mut self.fabric, now, requester, addr, 96, MemOp::Read)
                {
                    Ok(_) => {
                        self.trace.record(
                            now,
                            format!("degraded probe {seg}: primary healthy"),
                        );
                    }
                    Err(_) => {
                        if !self.serve_degraded(now, "degraded probe", requester, seg, 16, 96) {
                            self.checks.push(CheckResult::fail(
                                "degraded-window-exercised",
                                format!("probe of {seg} unservable mid-fault"),
                            ));
                        }
                    }
                }
            }
            Ev::BatchWave { idx } => {
                // One scatter-gather batch of frame-spanning reads over
                // every application segment. Waves inside the port-down
                // window must fail whole: one downed holder refuses the
                // entire batch, and not a single counter, DRAM access, or
                // fabric transfer may have been charged for it.
                let counts = self.pool.access_counts();
                let fab = (self.fabric.read_count(), self.fabric.write_count());
                let ops: Vec<BatchOp> = self
                    .segments
                    .iter()
                    .map(|&s| BatchOp::read(LogicalAddr::new(s, FRAME_BYTES - 512), 1024))
                    .collect();
                match self
                    .pool
                    .access_batch(&mut self.fabric, now, NodeId(0), &ops)
                {
                    Ok(r) => {
                        self.batch_ok += 1;
                        self.trace.record(
                            now,
                            format!(
                                "batch wave {idx}: {} ops, {} remote bytes, done {}",
                                r.ops.len(),
                                r.remote_bytes,
                                r.complete
                            ),
                        );
                        // One completion event per holder, inserted as a
                        // single batch — the per-holder lists the access
                        // engine produces feed the kernel directly.
                        let ids = schedule_holder_completions(eng, &r, |holder, _| {
                            Ev::HolderDone { wave: idx, holder }
                        })
                        .expect("holder completions are never before now");
                        if ids.len() != r.holder_done.len() {
                            self.checks.push(CheckResult::fail(
                                "holder-completion-batch",
                                format!(
                                    "wave {idx}: {} holders, {} events",
                                    r.holder_done.len(),
                                    ids.len()
                                ),
                            ));
                        }
                    }
                    Err(e) => {
                        self.batch_failed += 1;
                        if self.pool.access_counts() != counts
                            || (self.fabric.read_count(), self.fabric.write_count()) != fab
                        {
                            self.atomicity_violations += 1;
                        }
                        self.trace
                            .record(now, format!("batch wave {idx}: failed whole ({e})"));
                    }
                }
            }
            Ev::HolderDone { wave, holder } => {
                // The stream-drain instant is part of the determinism
                // contract: it lands in the trace, so any kernel that
                // reorders or re-times holder completions breaks digests.
                self.trace
                    .record(now, format!("batch wave {wave}: holder {holder} drained"));
            }
            Ev::Flood { from, holder, bytes } => {
                match self.fabric.try_read(now, from, holder, bytes) {
                    Ok(c) => self.trace.record(
                        now,
                        format!("flood: {bytes} B {holder}->{from} drains at {}", c.complete),
                    ),
                    Err(e) => self.trace.record(now, format!("flood refused: {e}")),
                }
            }
            Ev::HedgedProbe {
                idx,
                seg_idx,
                requester,
            } => self.run_hedged_probe(eng, idx, seg_idx, requester),
            Ev::HedgeDone { idx } => {
                self.trace
                    .record(now, format!("hedged probe {idx}: winner delivered"));
            }
            Ev::HedgeLoser { idx } => {
                self.hedge_losers_fired += 1;
                self.trace.record(
                    now,
                    format!("hedged probe {idx}: cancelled loser fired anyway"),
                );
            }
        }
    }

    /// [`Scenario::HedgedFlood`] only: one latency-sensitive 4 KiB read
    /// through the hedging policy. A raced probe schedules the winner's
    /// delivery and the loser's would-be completion, then cancels the
    /// loser through the engine — the cancellation half of the race
    /// contract ([`HedgeOutcome::loser_done`]).
    fn run_hedged_probe(
        &mut self,
        eng: &mut Engine<Ev>,
        idx: usize,
        seg_idx: usize,
        requester: NodeId,
    ) {
        let now = eng.now();
        let seg = self.hedge_segs[seg_idx];
        // Median-based deadline: the flood pushes a tail of workload reads
        // out by tens of µs, which would drag a p99 deadline along with
        // it; the median stays at the uncongested service time.
        let cfg = HedgeConfig {
            floor: SimDuration::from_micros(2),
            quantile: 0.5,
            multiplier: 1.0,
        };
        let out = match hedged_read(
            &mut self.pool,
            &self.pm,
            &mut self.fabric,
            now,
            requester,
            LogicalAddr::new(seg, 0),
            4096,
            &cfg,
        ) {
            Ok(out) => out,
            Err(e) => {
                self.checks.push(CheckResult::fail(
                    "hedged-probe-served",
                    format!("probe {idx} of {seg}: {e}"),
                ));
                return;
            }
        };
        match &out {
            HedgeOutcome::NotNeeded { complete } => {
                self.hedge_not_needed += 1;
                self.trace.record(
                    now,
                    format!("hedged probe {idx}: {seg} inside deadline, done {complete}"),
                );
            }
            HedgeOutcome::Raced {
                winner,
                complete,
                primary_done,
                hedge_done,
                ..
            } => {
                self.hedge_raced += 1;
                if *winner == HedgeWinner::Hedge {
                    self.hedge_wins += 1;
                }
                self.trace.record(
                    now,
                    format!(
                        "hedged probe {idx}: {seg} raced, {winner:?} won \
                         (primary@{primary_done} hedge@{hedge_done}), done {complete}"
                    ),
                );
                eng.schedule_at(*complete, Ev::HedgeDone { idx })
                    .expect("winner completion is never before now");
                let loser_at = out.loser_done().expect("raced outcome has a loser");
                let id = eng
                    .schedule_at(loser_at, Ev::HedgeLoser { idx })
                    .expect("loser cancellation is never before now");
                self.hedge_cancels += 1;
                if eng.cancel(id) {
                    self.hedge_cancels_ok += 1;
                }
            }
            HedgeOutcome::NoTwin { complete } => {
                self.hedge_no_twin += 1;
                self.trace.record(
                    now,
                    format!("hedged probe {idx}: {seg} has no live twin, done {complete}"),
                );
            }
            HedgeOutcome::PrimaryFailed { read } => {
                let expect = &self.hedge_model[seg_idx][..4096];
                let check = check_degraded_read(expect, read);
                if !check.passed {
                    self.hedge_mismatches += 1;
                    self.checks.push(check);
                }
                self.hedge_degraded += 1;
                self.degraded_served += 1;
                if let Some(t) = self.pool.telemetry_mut() {
                    t.note_degraded_read();
                }
                self.trace.record(
                    now,
                    format!(
                        "hedged probe {idx}: {seg} primary dead, served degraded via {:?}",
                        read.source
                    ),
                );
            }
        }
    }

    fn run_op(&mut self, eng: &mut Engine<Ev>, id: u64, attempt: u32) {
        let now = eng.now();
        let spec = self.ops[id as usize];
        let seg = self.segments[spec.seg_idx];
        let addr = LogicalAddr::new(seg, spec.offset);
        let kind = if spec.write { "write" } else { "read" };
        let result: Result<(), PoolError> = if spec.write {
            if self.pool.node(spec.requester).is_failed() {
                Err(PoolError::ServerDown(spec.requester))
            } else {
                let data = write_data(self.seed, id, spec.len as usize);
                self.pm
                    .write(&mut self.pool, addr, &data)
                    .map(|amp| {
                        self.ledger.record(amp, self.pm.is_protected(seg));
                        if let Some(m) = self.model.get_mut(&seg) {
                            m[spec.offset as usize..(spec.offset + spec.len) as usize]
                                .copy_from_slice(&data);
                        } else {
                            self.checks.push(CheckResult::fail(
                                "exception-surfacing",
                                format!("write to lost {seg} succeeded"),
                            ));
                        }
                    })
            }
        } else {
            // Accounting snapshot: a refused access must charge nothing.
            let counts = self.pool.access_counts();
            let fab = (self.fabric.read_count(), self.fabric.write_count());
            self.pool
                .access(
                    &mut self.fabric,
                    now,
                    spec.requester,
                    addr,
                    spec.len,
                    MemOp::Read,
                )
                .inspect_err(|_| {
                    if self.pool.access_counts() != counts
                        || (self.fabric.read_count(), self.fabric.write_count()) != fab
                    {
                        self.atomicity_violations += 1;
                    }
                })
                .map(|a| {
                    match self.model.get(&seg) {
                        Some(m) => {
                            let expect = &m[spec.offset as usize..(spec.offset + spec.len) as usize];
                            let got = self
                                .pool
                                .read_bytes(addr, spec.len)
                                .expect("readable after successful access");
                            if got != expect {
                                self.checks.push(CheckResult::fail(
                                    "translation-consistency",
                                    format!("op {id}: stale bytes read from {seg}"),
                                ));
                            }
                        }
                        None => self.checks.push(CheckResult::fail(
                            "exception-surfacing",
                            format!("read of lost {seg} succeeded"),
                        )),
                    }
                    let lat = a.complete.duration_since(now).as_nanos();
                    self.trace
                        .record(now, format!("op {id} read {seg}+{} ok in {lat} ns", spec.offset));
                })
        };
        match result {
            Ok(()) => {
                self.ops_ok += 1;
                if spec.write {
                    self.trace
                        .record(now, format!("op {id} write {seg}+{} ok", spec.offset));
                }
            }
            Err(e) if is_retryable(&e) => {
                if !spec.write
                    && self.serve_degraded(
                        now,
                        &format!("op {id}"),
                        spec.requester,
                        seg,
                        spec.offset,
                        spec.len,
                    )
                {
                    self.ops_ok += 1;
                } else if self.policy.may_retry(spec.at, now, attempt) {
                    self.retries += 1;
                    self.trace.record(
                        now,
                        format!("op {id} {kind} {seg} failed ({e}); retry {}", attempt + 1),
                    );
                    eng.schedule_after(self.policy.backoff_after(attempt), Ev::Op {
                        id,
                        attempt: attempt + 1,
                    });
                } else {
                    self.gave_up += 1;
                    self.trace.record(
                        now,
                        format!("op {id} {kind} {seg} gave up after {} attempts ({e})", attempt + 1),
                    );
                }
            }
            Err(e) => {
                self.ops_failed += 1;
                self.trace
                    .record(now, format!("op {id} {kind} {seg} exception: {e}"));
            }
        }
    }

    /// Book a recovery report's losses: the shadow model entry moves to
    /// the stash (a warm rack rejoin may resurrect it), and losses among
    /// the initially-protected population are counted separately — under
    /// domain-aware placement that counter must stay at zero.
    fn note_lost(&mut self, lost: &[SegmentId]) {
        for seg in lost {
            if self.protected_at_start.contains(seg) {
                self.protected_lost += 1;
            }
            if let Some(data) = self.model.remove(seg) {
                self.lost_stash.insert(*seg, data);
            }
            self.lost.insert(*seg);
        }
    }

    /// Self-healing scenarios only: a read that hit a transient fault is
    /// served from surviving redundancy (mirror twin or on-the-fly parity
    /// XOR) instead of waiting out the repair. Returns whether the read
    /// was served; the bytes are compared against the shadow model.
    fn serve_degraded(
        &mut self,
        now: SimTime,
        what: &str,
        requester: NodeId,
        seg: SegmentId,
        offset: u64,
        len: u64,
    ) -> bool {
        if self.healing.is_none() || !self.pm.is_protected(seg) {
            return false;
        }
        let Some(m) = self.model.get(&seg) else {
            return false;
        };
        let expect = m[offset as usize..(offset + len) as usize].to_vec();
        match self.pm.read_degraded(
            &self.pool,
            &mut self.fabric,
            now,
            requester,
            LogicalAddr::new(seg, offset),
            len,
        ) {
            Ok(r) => {
                let check = check_degraded_read(&expect, &r);
                if !check.passed {
                    self.degraded_mismatches += 1;
                    self.checks.push(check);
                }
                self.degraded_served += 1;
                if let Some(t) = self.pool.telemetry_mut() {
                    t.note_degraded_read();
                }
                self.trace.record(
                    now,
                    format!(
                        "{what} read {seg}+{offset} served degraded via {:?}",
                        r.source
                    ),
                );
                true
            }
            Err(_) => false,
        }
    }

    fn final_checks(&mut self) {
        let t = check_translation(&mut self.pool, &self.model);
        self.checks.push(t);
        self.checks.push(check_write_amplification(&self.ledger));
        let expect = |name: &'static str, cond: bool, detail: String| {
            if cond {
                CheckResult::pass(name)
            } else {
                CheckResult::fail(name, detail)
            }
        };
        if let Some(h) = &self.healing {
            self.checks.push(check_lease_confirmations(
                h.detector.probe_log(),
                &self.health_events,
                h.detector.config().lease,
            ));
            self.checks.push(check_epoch_monotonic(&self.health_events));
            self.checks.push(expect(
                "degraded-read-identity",
                self.degraded_mismatches == 0,
                format!("{} degraded reads diverged from the model", self.degraded_mismatches),
            ));
        }
        match self.scenario {
            Scenario::CrashUnprotected => {
                self.checks.push(expect(
                    "exception-surfacing",
                    self.lost_count >= 1
                        && self
                            .lost
                            .iter()
                            .all(|s| self.pool.read_bytes(LogicalAddr::new(*s, 0), 1).is_err()),
                    format!("lost={} but reads of lost segments succeed", self.lost_count),
                ));
            }
            Scenario::CrashMirrored => {
                self.checks.push(expect(
                    "mirror-promotion-exercised",
                    self.promoted >= 1 && self.lost_count == 0,
                    format!("promoted={} lost={}", self.promoted, self.lost_count),
                ));
            }
            Scenario::CrashParity => {
                self.checks.push(expect(
                    "parity-reconstruction-exercised",
                    self.reconstructed >= 1 && self.lost_count == 0,
                    format!("reconstructed={} lost={}", self.reconstructed, self.lost_count),
                ));
            }
            Scenario::LinkSpike => {
                self.checks.push(expect(
                    "no-failures-under-degradation",
                    self.ops_failed == 0 && self.gave_up == 0,
                    format!("ops_failed={} gave_up={}", self.ops_failed, self.gave_up),
                ));
                let p = &self.probe_latencies;
                self.checks.push(expect(
                    "link-degradation-latency",
                    p.len() == 3 && p[1] >= 2 * p[0] && p[2] < p[1],
                    format!("probe latencies (before/during/after): {p:?}"),
                ));
            }
            Scenario::Combined => {
                self.checks.push(expect(
                    "all-recovery-paths-exercised",
                    self.promoted >= 1 && self.reconstructed >= 1 && self.retries >= 1,
                    format!(
                        "promoted={} reconstructed={} retries={}",
                        self.promoted, self.reconstructed, self.retries
                    ),
                ));
                self.checks
                    .push(check_coherence_mutex(self.seed, 4, 300));
            }
            Scenario::CrashAutoHeal => {
                let h = self.healing.as_ref().expect("self-healing armed");
                self.checks.push(expect(
                    "autonomous-detection-and-repair",
                    h.detector.confirmation_count() >= 1
                        && h.orchestrator.recovery_count() >= 2
                        && self.promoted >= 1
                        && self.reconstructed >= 1
                        && self.lost_count == 0,
                    format!(
                        "confirmations={} batches={} promoted={} reconstructed={} lost={}",
                        h.detector.confirmation_count(),
                        h.orchestrator.recovery_count(),
                        self.promoted,
                        self.reconstructed,
                        self.lost_count
                    ),
                ));
                self.checks.push(expect(
                    "rejoin-under-fresh-epoch",
                    h.detector.epoch() == 2 && !self.pool.node(NodeId(0)).is_failed(),
                    format!(
                        "epoch={} node0 failed={}",
                        h.detector.epoch(),
                        self.pool.node(NodeId(0)).is_failed()
                    ),
                ));
                self.checks.push(expect(
                    "degraded-window-exercised",
                    self.degraded_served >= 2,
                    format!("degraded_served={}", self.degraded_served),
                ));
            }
            Scenario::FlapNoHeal => {
                let h = self.healing.as_ref().expect("self-healing armed");
                self.checks.push(expect(
                    "flaps-never-confirm",
                    h.detector.suspicion_count() >= 2
                        && h.detector.confirmation_count() == 0
                        && h.orchestrator.recovery_count() == 0
                        && h.detector.epoch() == 0
                        && self.lost_count == 0,
                    format!(
                        "suspicions={} confirmations={} batches={} epoch={} lost={}",
                        h.detector.suspicion_count(),
                        h.detector.confirmation_count(),
                        h.orchestrator.recovery_count(),
                        h.detector.epoch(),
                        self.lost_count
                    ),
                ));
                self.checks.push(expect(
                    "degraded-routes-around-flap",
                    self.degraded_served >= 2,
                    format!("degraded_served={}", self.degraded_served),
                ));
            }
            Scenario::PortDropMidAccess => {
                self.checks.push(expect(
                    "batch-window-exercised",
                    self.batch_ok >= 2 && self.batch_failed >= 1,
                    format!(
                        "batch_ok={} batch_failed={}",
                        self.batch_ok, self.batch_failed
                    ),
                ));
                self.checks.push(expect(
                    "atomic-failure-accounting",
                    self.atomicity_violations == 0,
                    format!(
                        "{} refused accesses left charged counters behind",
                        self.atomicity_violations
                    ),
                ));
            }
            Scenario::RackLoss => {
                let h = self.healing.as_ref().expect("self-healing armed");
                let domains = self.domains.clone().expect("rack topology");
                // The whole failure domain was confirmed and every
                // protected segment was rebuilt from surviving racks.
                self.checks.push(expect(
                    "rack-loss-detected-and-healed",
                    h.detector.confirmation_count() == 3
                        && self.promoted >= 1
                        && self.reconstructed >= 1
                        && self.protected_lost == 0,
                    format!(
                        "confirmations={} promoted={} reconstructed={} protected_lost={}",
                        h.detector.confirmation_count(),
                        self.promoted,
                        self.reconstructed,
                        self.protected_lost
                    ),
                ));
                // Warm rejoin under fresh epochs: all three hosts are
                // back, and the unprotected segment that was written off
                // resurrected with its contents.
                self.checks.push(expect(
                    "rack-rejoin-under-fresh-epoch",
                    h.detector.epoch() == 6
                        && domains
                            .hosts_in(0)
                            .iter()
                            .all(|&n| !self.pool.node(n).is_failed())
                        && self.lost.is_empty(),
                    format!(
                        "epoch={} still_lost={:?}",
                        h.detector.epoch(),
                        self.lost
                    ),
                ));
                self.checks.push(expect(
                    "degraded-window-exercised",
                    self.degraded_served >= 2,
                    format!("degraded_served={}", self.degraded_served),
                ));
                // Post-heal placement independence: every surviving
                // protection group spans racks again.
                let mut independent = true;
                let mut detail = String::new();
                for &seg in &self.segments {
                    let Some(home) = self.pool.holder_of(seg) else {
                        continue;
                    };
                    let mut partners: Vec<NodeId> = Vec::new();
                    if let Some(rep) = self.pm.replica(seg) {
                        partners.extend(self.pool.holder_of(rep));
                    }
                    if let Some(gid) = self.pm.group_of(seg) {
                        for &m in self.pm.group_members(gid).unwrap_or(&[]) {
                            if m != seg {
                                partners.extend(self.pool.holder_of(m));
                            }
                        }
                        if let Some(p) = self.pm.parity_segment(gid) {
                            partners.extend(self.pool.holder_of(p));
                        }
                    }
                    for p in partners {
                        if domains.same_rack(home, p) {
                            independent = false;
                            detail.push_str(&format!("{seg}: {home} and {p} share a rack; "));
                        }
                    }
                }
                self.checks
                    .push(expect("post-heal-rack-independence", independent, detail));
                // The contrast half of the acceptance: the identical
                // topology under host-only placement packs redundancy
                // into rack 0 and demonstrably loses protected segments.
                self.checks.push(host_only_contrast());
            }
            Scenario::HedgedFlood => {
                let h = self.healing.as_ref().expect("self-healing armed");
                // The fast path never hedged, the flood window raced and
                // the hedge won (the twin dodged the backlog), and no
                // probe found its twin missing.
                self.checks.push(expect(
                    "hedge-race-exercised",
                    self.hedge_not_needed >= 1
                        && self.hedge_raced >= 1
                        && self.hedge_wins >= 1
                        && self.hedge_no_twin == 0,
                    format!(
                        "not_needed={} raced={} wins={} no_twin={}",
                        self.hedge_not_needed,
                        self.hedge_raced,
                        self.hedge_wins,
                        self.hedge_no_twin
                    ),
                ));
                // Every race loser's completion event was cancelled
                // through the engine, and none ever fired.
                self.checks.push(expect(
                    "hedge-cancel-honored",
                    self.hedge_cancels >= 1
                        && self.hedge_cancels_ok == self.hedge_cancels
                        && self.hedge_losers_fired == 0,
                    format!(
                        "cancels={} ok={} losers_fired={}",
                        self.hedge_cancels, self.hedge_cancels_ok, self.hedge_losers_fired
                    ),
                ));
                // Inside the crash-repair window the hedge fell through
                // to the degraded path byte-identically, while the
                // detector and orchestrator rebuilt both twins.
                self.checks.push(expect(
                    "hedged-serves-during-rebuild",
                    self.hedge_degraded >= 1
                        && self.hedge_mismatches == 0
                        && h.detector.confirmation_count() >= 1
                        && self.promoted >= 2
                        && self.lost_count == 0,
                    format!(
                        "degraded={} mismatches={} confirmations={} promoted={} lost={}",
                        self.hedge_degraded,
                        self.hedge_mismatches,
                        h.detector.confirmation_count(),
                        self.promoted,
                        self.lost_count
                    ),
                ));
            }
        }
        // Telemetry roll-up: the snapshot digest becomes part of the trace
        // (and therefore of the determinism contract), and the instrument
        // books must balance.
        let end = SimTime::ZERO + HORIZON;
        let snap = rack_snapshot(&mut self.pool, &mut self.fabric, end);
        self.telemetry_digest = snap.digest();
        self.trace
            .record(end, format!("telemetry digest {:016x}", self.telemetry_digest));
        self.checks.push(check_telemetry_conservation(&snap));
        let counted_degraded = snap.counter("pool.degraded_reads", &[]);
        if counted_degraded != self.degraded_served {
            self.checks.push(CheckResult::fail(
                "telemetry-conservation",
                format!(
                    "pool.degraded_reads {counted_degraded} != served {}",
                    self.degraded_served
                ),
            ));
        }
    }
}

/// The contrast half of the rack-loss acceptance: the same 4×3
/// topology, the same segments and filler capacities, and the same
/// rack-0 blackout — but under the host-only placement policy. The
/// fillers make rack 0 the freest domain, so host-only placement packs
/// the mirror replica and the parity block next to their primaries,
/// and the blackout must then lose protected segments. Passing proves
/// the domain-aware policy is what saves them in the main run.
fn host_only_contrast() -> CheckResult {
    let config = PoolConfig {
        servers: 12,
        capacity_per_server: 64 * FRAME_BYTES,
        shared_per_server: 48 * FRAME_BYTES,
        dram: DramProfile::xeon_gold_5120(),
        tlb_capacity: 16,
    };
    let mut pool = LogicalPool::new(config);
    let mut fabric = Fabric::new(LinkProfile::link1(), 12);
    let domains = DomainMap::uniform(4, 3);
    let mut pm = ProtectionManager::new();
    let homes = [0u32, 1, 3, 2];
    let mut segs = Vec::new();
    for &h in &homes {
        let seg = pool
            .alloc(SEG_BYTES, Placement::On(NodeId(h)))
            .expect("contrast alloc");
        segs.push(seg);
    }
    for h in 3..12u32 {
        pool.alloc(8 * FRAME_BYTES, Placement::On(NodeId(h)))
            .expect("contrast filler");
    }
    pm.mirror(&mut pool, &mut fabric, SimTime::ZERO, segs[0])
        .expect("contrast mirror");
    pm.protect_parity(&mut pool, &mut fabric, SimTime::ZERO, &[segs[1], segs[2]])
        .expect("contrast parity");
    let replica = pm.replica(segs[0]).expect("contrast mirrored");
    let colocated = pool
        .holder_of(replica)
        .is_some_and(|r| domains.same_rack(NodeId(0), r));
    // Blackout rack 0, then run the same per-node recovery the
    // orchestrator would.
    let mut crashed = Vec::new();
    for n in domains.hosts_in(0) {
        let mut affected = pool.crash_server(n);
        affected.sort_unstable();
        crashed.push((n, affected));
    }
    let mut lost_protected = 0u64;
    for (n, affected) in crashed {
        let report = pm.recover(
            &mut pool,
            &mut fabric,
            SimTime::from_nanos(8_000),
            n,
            &affected,
        );
        lost_protected += report
            .lost
            .iter()
            .filter(|s| segs[..3].contains(s))
            .count() as u64;
    }
    if colocated && lost_protected >= 1 {
        CheckResult::pass("host-only-contrast")
    } else {
        CheckResult::fail(
            "host-only-contrast",
            format!("colocated={colocated} lost_protected={lost_protected}"),
        )
    }
}

/// Run one scenario under one seed. Pure: same inputs ⇒ same report,
/// including the trace digest.
pub fn run_scenario(scenario: Scenario, seed: u64) -> ChaosReport {
    let (mut world, plan) = World::build(scenario, seed);
    let mut eng: Engine<Ev> = Engine::new();
    for pf in plan.iter() {
        eng.schedule_at(pf.at, Ev::Fault(pf.fault))
            .expect("fault plan times are within the horizon");
    }
    for (id, spec) in world.ops.iter().enumerate() {
        eng.schedule_at(spec.at, Ev::Op {
            id: id as u64,
            attempt: 0,
        })
        .expect("op times are within the horizon");
    }
    if scenario.self_healing() {
        // Detector sweeps at the configured cadence across the horizon.
        // Faults are scheduled first, so a fault and a sweep landing on
        // the same instant resolve fault-first (FIFO tie-break).
        let interval = HealthConfig::default_chaos().probe_interval;
        let end = SimTime::ZERO + HORIZON;
        // HedgedFlood arms the detector only from the crash instant. A
        // pre-crash sweep has nothing to detect, but its probe flits chain
        // through the flooded wires and — because wire reservations are
        // strict FIFO — fence *every* wire's free-at time at the flood's
        // drain horizon, erasing the congested-primary / idle-twin
        // asymmetry the hedge race exists to exploit.
        let start = if scenario == Scenario::HedgedFlood {
            SimTime::from_nanos(12_000)
        } else {
            SimTime::ZERO
        };
        let mut t = start + interval;
        while t <= end {
            eng.schedule_at(t, Ev::HealthTick)
                .expect("sweep times are within the horizon");
            t += interval;
        }
    }
    if scenario == Scenario::CrashAutoHeal {
        // Reads pinned inside the crash→repair window, issued from a
        // healthy requester, must be served from surviving redundancy:
        // seg0 via its mirror twin, seg1 via on-the-fly parity XOR.
        for (at_ns, seg_idx) in [(6_200u64, 0usize), (7_200, 1)] {
            eng.schedule_at(SimTime::from_nanos(at_ns), Ev::DegradedProbe {
                seg_idx,
                requester: NodeId(4),
            })
            .expect("probe times are within the horizon");
        }
    }
    if scenario == Scenario::RackLoss {
        // Reads pinned inside the rack-dark window, issued from surviving
        // racks: seg0 via its cross-rack mirror twin, seg1 via on-the-fly
        // parity XOR from the surviving member and parity block.
        for (at_ns, seg_idx, req) in [(6_200u64, 0usize, 6u32), (7_200, 1, 9)] {
            eng.schedule_at(SimTime::from_nanos(at_ns), Ev::DegradedProbe {
                seg_idx,
                requester: NodeId(req),
            })
            .expect("probe times are within the horizon");
        }
    }
    if scenario == Scenario::FlapNoHeal {
        // One read inside each sub-lease flap window: the primary's port
        // is down, so the read must route around the flap degraded even
        // though no recovery ever runs.
        for (at_ns, seg_idx) in [(6_700u64, 0usize), (14_700, 1)] {
            eng.schedule_at(SimTime::from_nanos(at_ns), Ev::DegradedProbe {
                seg_idx,
                requester: NodeId(0),
            })
            .expect("probe times are within the horizon");
        }
    }
    if scenario == Scenario::PortDropMidAccess {
        // Scatter-gather waves before, twice inside, and after the
        // port-down window (10–18 µs).
        for (idx, at_us) in [5u64, 12, 14, 20].into_iter().enumerate() {
            eng.schedule_at(SimTime::from_nanos(at_us * 1000), Ev::BatchWave { idx })
                .expect("wave times are within the horizon");
        }
    }
    if scenario == Scenario::HedgedFlood {
        // Two bulk reads load the victim's up-wire back to back
        // (~12.5 µs each at link1 speed, so busy until ~33 µs), then the
        // victim crashes at 12 µs and rejoins cold at 24 µs. Probes: one
        // before the flood (fast path, no hedge), one inside it (race;
        // the twin wins), one inside the crash-repair window (degraded),
        // and one after promotion and rejoin (fast path again).
        for at_us in [8u64, 9] {
            eng.schedule_at(SimTime::from_nanos(at_us * 1000), Ev::Flood {
                from: FLOOD_SINK,
                holder: FLOOD_VICTIM,
                bytes: 256 * 1024,
            })
            .expect("flood times are within the horizon");
        }
        for (idx, (at_ns, seg_idx)) in [(4_000u64, 0usize), (10_000, 0), (14_000, 1), (26_000, 1)]
            .into_iter()
            .enumerate()
        {
            eng.schedule_at(SimTime::from_nanos(at_ns), Ev::HedgedProbe {
                idx,
                seg_idx,
                requester: NodeId(0),
            })
            .expect("probe times are within the horizon");
        }
    }
    if scenario == Scenario::LinkSpike {
        // Latency probes before, during, and after the spike window; the
        // probed segment is homed on the degraded node.
        for (idx, at_us) in [4u64, 12, 20].into_iter().enumerate() {
            eng.schedule_at(SimTime::from_nanos(at_us * 1000), Ev::Probe {
                idx,
                seg_idx: 1,
                requester: NodeId(0),
            })
            .expect("probe times are within the horizon");
        }
    }
    eng.run(|e, ev| world.handle(e, ev));
    world.final_checks();
    ChaosReport {
        scenario: scenario.name(),
        seed,
        digest: world.trace.digest(),
        telemetry_digest: world.telemetry_digest,
        events: eng.events_processed(),
        trace: world.trace,
        checks: world.checks,
        ops_ok: world.ops_ok,
        ops_failed: world.ops_failed,
        retries: world.retries,
        gave_up: world.gave_up,
        promoted: world.promoted,
        reconstructed: world.reconstructed,
        reprotected: world.reprotected,
        lost: world.lost_count,
        suspicions: world
            .healing
            .as_ref()
            .map_or(0, |h| h.detector.suspicion_count()),
        confirmations: world
            .healing
            .as_ref()
            .map_or(0, |h| h.detector.confirmation_count()),
        auto_recoveries: world
            .healing
            .as_ref()
            .map_or(0, |h| h.orchestrator.recovery_count()),
        degraded_served: world.degraded_served,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_scenario_passes_and_is_deterministic() {
        for s in Scenario::all() {
            let a = run_scenario(s, 42);
            for c in &a.checks {
                assert!(c.passed, "[{} seed 42] {c}", a.scenario);
            }
            let b = run_scenario(s, 42);
            assert_eq!(a.digest, b.digest, "{}: same seed, different trace", a.scenario);
            assert_eq!(
                a.telemetry_digest, b.telemetry_digest,
                "{}: same seed, different telemetry",
                a.scenario
            );
            assert!(a.trace.diff(&b.trace).is_none());
        }
    }

    #[test]
    fn different_seeds_change_the_trace() {
        let a = run_scenario(Scenario::CrashMirrored, 1);
        let b = run_scenario(Scenario::CrashMirrored, 2);
        assert_ne!(a.digest, b.digest);
    }

    #[test]
    fn combined_exercises_retries_and_both_repairs() {
        let r = run_scenario(Scenario::Combined, 7);
        assert!(r.passed(), "{:#?}", r.checks);
        assert!(r.promoted >= 1);
        assert!(r.reconstructed >= 1);
        assert!(r.retries >= 1);
    }
}
