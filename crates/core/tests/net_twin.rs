//! Differential twin tests: a recorded loopback-TCP run, replayed as a
//! fixed-fate schedule in the event engine, must reproduce the transport
//! run's protocol state exactly.
//!
//! The argument is inductive. Both runtimes share genesis (same
//! seed/hash-seed derivation, same node factory), churn arbitration
//! (`apply_churn_plan` over the same lateness-filtered knowledge), RNG
//! streams (pure functions of `(seed, node, round)`) and inbox order
//! (global send order). The only free variable — each message's fate — is
//! pinned by the recorded [`MessageTrace`]. So if round `t` starts from
//! equal states, round `t` ends in equal states; wall-clock scheduling has
//! nowhere left to hide. These assertions hold on any machine at any load:
//! a slow CI merely records different (still valid) fates.

use std::time::Duration;

use tsa_adversary::{RandomChurnAdversary, TargetedSwarmAdversary};
use tsa_core::{AsyncMaintenanceHarness, MaintenanceParams, NetMaintenanceHarness};
use tsa_sim::{Adversary, NullAdversary};

fn small_params(n: usize) -> MaintenanceParams {
    MaintenanceParams::new(n)
        .with_c(1.5)
        .with_tau(4)
        .with_replication(2)
}

/// Runs the transport, replays its trace in the event engine, and demands
/// an identical protocol-state outcome: report, membership, and every
/// node's full observable snapshot.
fn assert_twin_reproduces<A: Adversary>(
    label: &str,
    params: MaintenanceParams,
    seed: u64,
    rounds: u64,
    make_adversary: impl Fn() -> A,
) {
    let mut real = NetMaintenanceHarness::assemble(
        params,
        make_adversary(),
        seed,
        params.paper_churn_rules(),
        params.paper_lateness(),
        Duration::from_millis(15),
    );
    real.run(rounds);
    let trace = real.trace();
    assert_eq!(
        trace.len() as u64,
        real.net_stats().sent,
        "{label}/{seed}: one fate per sent message"
    );

    let mut twin = AsyncMaintenanceHarness::assemble_replay(
        params,
        make_adversary(),
        seed,
        params.paper_churn_rules(),
        params.paper_lateness(),
        trace,
    );
    twin.run(rounds);

    assert_eq!(
        real.simulator().member_ids(),
        twin.simulator().member_ids(),
        "{label}/{seed}: membership diverged"
    );
    assert_eq!(
        serde_json::to_string(&real.report()).unwrap(),
        serde_json::to_string(&twin.report()).unwrap(),
        "{label}/{seed}: health report diverged"
    );
    assert_eq!(
        serde_json::to_string(&real.snapshots()).unwrap(),
        serde_json::to_string(&twin.snapshots()).unwrap(),
        "{label}/{seed}: node snapshots diverged"
    );
}

#[test]
fn churn_free_runs_twin_exactly() {
    let params = small_params(16);
    let rounds = params.bootstrap_rounds() + 6;
    for seed in [11, 23] {
        assert_twin_reproduces("null", params, seed, rounds, || NullAdversary);
    }
}

#[test]
fn random_churn_runs_twin_exactly() {
    let params = small_params(16);
    let rounds = params.bootstrap_rounds() + 8;
    for seed in [5, 42] {
        assert_twin_reproduces("random-churn", params, seed, rounds, || {
            RandomChurnAdversary::new(2, seed)
        });
    }
}

#[test]
fn targeted_swarm_runs_twin_exactly() {
    let params = small_params(16);
    let rounds = params.bootstrap_rounds() + 8;
    for seed in [7, 31] {
        assert_twin_reproduces("targeted-swarm", params, seed, rounds, || {
            TargetedSwarmAdversary::new(2, seed)
        });
    }
}
