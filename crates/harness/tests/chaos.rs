// Test/driver code: unwrap/expect on known-good setup is acceptable here.
#![allow(clippy::unwrap_used, clippy::expect_used)]

//! Integration tests: every recovery path in `lmp-core::failure` is
//! exercised end-to-end through the chaos harness, deterministically.
//!
//! Each test runs a full scenario — engine, fault plan, retries,
//! recovery, invariant checkers — and pins both the verdict and the
//! determinism contract (same seed ⇒ identical trace digest).

use lmp_harness::prelude::*;

fn run_twice(scenario: Scenario, seed: u64) -> ChaosReport {
    let a = run_scenario(scenario, seed);
    let b = run_scenario(scenario, seed);
    assert_eq!(
        a.digest, b.digest,
        "{scenario} seed {seed} diverged: {:?}",
        a.trace.diff(&b.trace)
    );
    assert!(
        a.passed(),
        "{scenario} seed {seed} failed checks:\n{}",
        a.checks
            .iter()
            .filter(|c| !c.passed)
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    a
}

/// Exception path: an unprotected segment dies with its server and the
/// loss surfaces as recoverable errors, never a panic.
#[test]
fn exception_path_crash_unprotected() {
    for seed in [3, 17, 404] {
        let r = run_twice(Scenario::CrashUnprotected, seed);
        assert_eq!(r.lost, 1, "seed {seed}: exactly the victim segment is lost");
        assert_eq!(r.promoted + r.reconstructed, 0);
        assert!(r.ops_failed > 0, "seed {seed}: loss must surface to ops");
    }
}

/// Mirror promotion path: the replica takes over byte-identically and a
/// fresh replica is re-established.
#[test]
fn mirror_promotion_path() {
    for seed in [1, 42, 1000] {
        let r = run_twice(Scenario::CrashMirrored, seed);
        assert!(r.promoted >= 1, "seed {seed}: no mirror was promoted");
        assert_eq!(r.lost, 0, "seed {seed}: mirrored data must survive");
    }
}

/// Parity reconstruction path: XOR over the survivors rebuilds the
/// victim byte-identically.
#[test]
fn parity_reconstruction_path() {
    for seed in [2, 42, 777] {
        let r = run_twice(Scenario::CrashParity, seed);
        assert!(r.reconstructed >= 1, "seed {seed}: nothing was reconstructed");
        assert_eq!(r.lost, 0, "seed {seed}: parity-protected data must survive");
    }
}

/// Link degradation slows accesses but never loses data or fails ops.
#[test]
fn link_spike_is_loss_free() {
    for seed in [5, 42] {
        let r = run_twice(Scenario::LinkSpike, seed);
        assert_eq!(r.ops_failed, 0, "seed {seed}: latency must not become loss");
        assert_eq!(r.lost, 0);
    }
}

/// The combined scenario drives every repair path plus retries in one run.
#[test]
fn combined_exercises_all_paths() {
    let r = run_twice(Scenario::Combined, 42);
    assert!(r.promoted >= 1);
    assert!(r.reconstructed >= 1);
    assert!(r.retries > 0, "port flaps must force retries");
}

/// Self-healing closes the loop on its own: the lease detector confirms
/// the crash, the orchestrator repairs in throttled batches (no manual
/// `recover()` anywhere), degraded reads bridge the window byte-identically,
/// and nothing protected is lost.
#[test]
fn auto_heal_closes_the_loop_without_manual_recovery() {
    for seed in [11, 42, 2024] {
        let r = run_twice(Scenario::CrashAutoHeal, seed);
        assert!(r.confirmations >= 1, "seed {seed}: crash never confirmed");
        assert!(
            r.auto_recoveries >= 2,
            "seed {seed}: repair was not throttled across batches"
        );
        assert_eq!(r.lost, 0, "seed {seed}: protected data must self-heal");
        assert!(r.promoted >= 1 && r.reconstructed >= 1, "seed {seed}");
        assert!(
            r.degraded_served >= 2,
            "seed {seed}: reads in the repair window must be served degraded"
        );
    }
}

/// Port flaps shorter than the lease are absorbed: suspicion, then a
/// clearing beat — never a confirmation, never a recovery.
#[test]
fn flaps_do_not_trigger_spurious_recovery() {
    for seed in [7, 42, 555] {
        let r = run_twice(Scenario::FlapNoHeal, seed);
        assert!(r.suspicions >= 2, "seed {seed}: flaps must raise suspicion");
        assert_eq!(r.confirmations, 0, "seed {seed}: flap confirmed as crash");
        assert_eq!(r.auto_recoveries, 0, "seed {seed}: spurious recovery ran");
        assert_eq!(r.lost, 0, "seed {seed}");
        assert!(
            r.degraded_served >= 2,
            "seed {seed}: flapped reads must route around the down port"
        );
    }
}

/// Fault plans themselves replay: same seed and config produce the same
/// schedule, different seeds produce a different one.
#[test]
fn fault_plan_generation_replays() {
    let cfg = PlanConfig::default();
    let a = FaultPlan::generate(9, &cfg);
    let b = FaultPlan::generate(9, &cfg);
    assert_eq!(
        a.iter().collect::<Vec<_>>(),
        b.iter().collect::<Vec<_>>()
    );
    let c = FaultPlan::generate(10, &cfg);
    assert_ne!(
        a.iter().collect::<Vec<_>>(),
        c.iter().collect::<Vec<_>>()
    );
}

/// Different seeds explore different schedules — the harness is not
/// accidentally ignoring its seed.
#[test]
fn seeds_vary_the_trace() {
    let digests: Vec<u64> = (0..4)
        .map(|s| run_scenario(Scenario::Combined, s).digest)
        .collect();
    let mut unique = digests.clone();
    unique.sort_unstable();
    unique.dedup();
    assert_eq!(unique.len(), digests.len(), "digest collision across seeds");
}

/// Hedged flood at the seeds whose random workload used to cross the
/// flooded wires before the in-flood probe (the victim's own reads queued
/// behind the flood, or a read of the flood sink's segment): the strict
/// FIFO wires carried the flood's drain horizon onto the mirror twin's
/// path, so the hedge raced but never won. The hedge must now win.
#[test]
fn hedged_flood_twin_wins_at_former_fence_seeds() {
    for seed in [9, 19] {
        let r = run_twice(Scenario::HedgedFlood, seed);
        let raced_won = r
            .trace
            .entries()
            .iter()
            .any(|(_, e)| e.contains("raced, Hedge won"));
        assert!(raced_won, "seed {seed}: no probe raced and won on the twin");
    }
}
