//! The fault-injection half of the differential twin contract, plus the
//! zero-fault anchors.
//!
//! `net_twin.rs` pins the fault-free twin: a recorded loopback-TCP run
//! replays bit-for-bit through the event engine. This file extends the same
//! inductive argument to *injected* faults and byzantine nodes: fault
//! decisions are pure functions of `(seed, seq)` and byzantine role
//! assignment is a pure function of the node id, so a transport run under a
//! non-empty [`FaultPlan`] and a byzantine population, trace-replayed under
//! the *same* plan and parameters, must land on identical protocol state —
//! report, membership, every node snapshot, and the fault counters
//! themselves.
//!
//! The anchors pin the other direction: byzantine fraction 0 and the empty
//! plan must be byte-identical to runs that never heard of the fault layer,
//! on all three engines — otherwise merely *wiring in* the feature would
//! silently shift every committed baseline.

use std::sync::Arc;
use std::time::Duration;

use tsa_adversary::RandomChurnAdversary;
use tsa_core::{
    AsyncMaintenanceHarness, ByzantineSpec, MaintenanceHarness, MaintenanceParams, MisbehaviorKind,
    NetMaintenanceHarness,
};
use tsa_event::{FaultAction, FaultPlan, FaultRule, LatencyModel, NetModel, RoundWindow};
use tsa_obs::{ObsHandle, ObsRecorder};
use tsa_sim::{NullAdversary, PARALLEL_WORK_THRESHOLD};

fn small_params(n: usize) -> MaintenanceParams {
    MaintenanceParams::new(n)
        .with_c(1.5)
        .with_tau(4)
        .with_replication(2)
}

/// A mixed plan exercising all four actions, so each twin pin covers drop,
/// delay, duplicate and mutate in one trace.
fn mixed_plan() -> FaultPlan {
    FaultPlan::new()
        .with_rule(
            FaultRule::every(FaultAction::Drop)
                .with_prob(0.04)
                .in_window(RoundWindow::starting_at(2)),
        )
        .with_rule(FaultRule::every(FaultAction::Delay { ticks: 1500 }).with_prob(0.05))
        .with_rule(FaultRule::every(FaultAction::Duplicate).with_prob(0.05))
        .with_rule(FaultRule::every(FaultAction::Mutate).with_prob(0.05))
}

/// Report + snapshots, serialized: the byte-identity fingerprint every
/// assertion in this file compares.
fn fingerprint(report: &impl serde::Serialize, snapshots: &impl serde::Serialize) -> String {
    format!(
        "{}|{}",
        serde_json::to_string(report).unwrap(),
        serde_json::to_string(snapshots).unwrap(),
    )
}

/// Runs the transport under `plan` + byzantine `spec`, replays its trace in
/// the event engine under the same plan, and demands identical protocol
/// state and fault counters.
fn assert_faulted_twin(kind: MisbehaviorKind, seed: u64) {
    let params = small_params(16).with_byzantine(ByzantineSpec::fraction(1, 8, kind));
    let rounds = params.bootstrap_rounds() + 4;
    let plan = mixed_plan();

    let mut real = NetMaintenanceHarness::assemble(
        params,
        NullAdversary,
        seed,
        params.paper_churn_rules(),
        params.paper_lateness(),
        Duration::from_millis(15),
    );
    real.set_faults(plan.clone());
    real.run(rounds);
    let label = kind.label();
    assert!(
        real.fault_stats().total() > 0,
        "{label}/{seed}: the plan must actually inject faults"
    );
    let trace = real.trace();
    assert_eq!(
        trace.len() as u64,
        real.net_stats().sent,
        "{label}/{seed}: one fate per sent message, duplicates included"
    );

    let mut twin = AsyncMaintenanceHarness::assemble_replay(
        params,
        NullAdversary,
        seed,
        params.paper_churn_rules(),
        params.paper_lateness(),
        trace,
    );
    twin.set_faults(plan);
    twin.run(rounds);

    assert_eq!(
        real.simulator().member_ids(),
        twin.simulator().member_ids(),
        "{label}/{seed}: membership diverged"
    );
    assert_eq!(
        fingerprint(&real.report(), &real.snapshots()),
        fingerprint(&twin.report(), &twin.snapshots()),
        "{label}/{seed}: protocol state diverged"
    );
    assert_eq!(
        real.fault_stats(),
        twin.fault_stats(),
        "{label}/{seed}: the engines took different fault decisions"
    );
}

#[test]
fn stale_claim_runs_twin_exactly_under_faults() {
    for seed in [11, 37] {
        assert_faulted_twin(MisbehaviorKind::StaleClaims, seed);
    }
}

#[test]
fn selective_forward_runs_twin_exactly_under_faults() {
    for seed in [17, 41] {
        assert_faulted_twin(MisbehaviorKind::SelectiveForward, seed);
    }
}

#[test]
fn bogus_reply_runs_twin_exactly_under_faults() {
    for seed in [29, 43] {
        assert_faulted_twin(MisbehaviorKind::BogusReplies, seed);
    }
}

#[test]
fn forged_position_runs_twin_exactly_under_faults() {
    assert_faulted_twin(MisbehaviorKind::ForgedPosition, 23);
}

// ---------------------------------------------------------------------------
// Zero-fault anchors: fraction 0 and the empty plan are invisible.
// ---------------------------------------------------------------------------

#[test]
fn fraction_zero_is_invisible_on_the_round_engine() {
    let params = small_params(24);
    let seed = 7;
    let rounds = 6;
    let run = |params: MaintenanceParams| {
        let mut h = MaintenanceHarness::assemble(
            params,
            NullAdversary,
            seed,
            params.paper_churn_rules(),
            params.paper_lateness(),
        );
        h.run_bootstrap();
        h.run(rounds);
        fingerprint(&h.report(), &h.snapshots())
    };
    let honest = run(params);
    for kind in MisbehaviorKind::ALL {
        assert_eq!(
            run(params.with_byzantine(ByzantineSpec::fraction(0, 8, kind))),
            honest,
            "a 0/8 {} population must be byte-invisible",
            kind.label()
        );
    }
}

#[test]
fn the_empty_plan_and_fraction_zero_are_invisible_on_the_event_engine() {
    let seed = 9;
    let rounds = 6;
    let net = NetModel {
        latency: LatencyModel::uniform(100, 1800),
        jitter: 200,
        loss: 0.02,
    };
    let run = |params: MaintenanceParams, plan: Option<FaultPlan>| {
        let mut h = AsyncMaintenanceHarness::assemble(
            params,
            NullAdversary,
            seed,
            params.paper_churn_rules(),
            params.paper_lateness(),
            net,
        );
        if let Some(plan) = plan {
            h.set_faults(plan);
        }
        h.run_bootstrap();
        h.run(rounds);
        let total = h.fault_stats().total();
        (fingerprint(&h.report(), &h.snapshots()), total)
    };
    let params = small_params(24);
    let (honest, _) = run(params, None);
    let (empty_plan, injected) = run(params, Some(FaultPlan::default()));
    assert_eq!(empty_plan, honest, "the empty plan must be byte-invisible");
    assert_eq!(injected, 0, "and must inject nothing");
    let (zero_fraction, _) = run(
        params.with_byzantine(ByzantineSpec::fraction(
            0,
            8,
            MisbehaviorKind::ForgedPosition,
        )),
        None,
    );
    assert_eq!(
        zero_fraction, honest,
        "a zero byzantine fraction must be byte-invisible"
    );
}

#[test]
fn the_empty_plan_and_fraction_zero_are_invisible_on_the_transport_replay() {
    // Wall-clock transport runs are not repeatable, so the transport anchor
    // pins the deterministic half: one honest recorded trace, replayed under
    // plain parameters, under fraction 0, and under the empty plan, must
    // land on identical protocol state each time.
    let params = small_params(16);
    let seed = 13;
    let rounds = params.bootstrap_rounds() + 4;
    let mut real = NetMaintenanceHarness::assemble(
        params,
        NullAdversary,
        seed,
        params.paper_churn_rules(),
        params.paper_lateness(),
        Duration::from_millis(15),
    );
    real.run(rounds);
    let trace = real.trace();

    let replay = |params: MaintenanceParams, plan: Option<FaultPlan>| {
        let mut twin = AsyncMaintenanceHarness::assemble_replay(
            params,
            NullAdversary,
            seed,
            params.paper_churn_rules(),
            params.paper_lateness(),
            trace.clone(),
        );
        if let Some(plan) = plan {
            twin.set_faults(plan);
        }
        twin.run(rounds);
        fingerprint(&twin.report(), &twin.snapshots())
    };
    let plain = replay(params, None);
    assert_eq!(
        plain,
        fingerprint(&real.report(), &real.snapshots()),
        "the plain replay reproduces the transport"
    );
    assert_eq!(
        replay(params, Some(FaultPlan::default())),
        plain,
        "the empty plan must be byte-invisible in replay"
    );
    assert_eq!(
        replay(
            params.with_byzantine(ByzantineSpec::fraction(0, 8, MisbehaviorKind::StaleClaims)),
            None,
        ),
        plain,
        "a zero byzantine fraction must be byte-invisible in replay"
    );
}

/// The event engine computes each round in parallel once it has
/// [`PARALLEL_WORK_THRESHOLD`] work items, and a maintained n = 48 overlay
/// delivers far more messages than that per round. Under a lossy, jittered
/// network, random churn and the mixed fault plan, a recorded run — report,
/// snapshots, metrics digest, deterministic obs snapshot — and the replay of
/// its trace must be byte-identical at thread caps 1, 2 and 4.
#[test]
fn faulted_lossy_event_runs_and_their_replays_ignore_the_thread_cap() {
    let params = small_params(48);
    let rounds = params.bootstrap_rounds() + 4;
    let net = NetModel {
        latency: LatencyModel::uniform(100, 1800),
        jitter: 300,
        loss: 0.03,
    };
    let run = |cap: usize| {
        rayon::with_thread_cap(cap, || {
            let mut rec = AsyncMaintenanceHarness::assemble(
                params,
                RandomChurnAdversary::new(1, 5),
                5,
                params.paper_churn_rules(),
                params.paper_lateness(),
                net,
            );
            rec.set_faults(mixed_plan());
            rec.simulator_mut().record_trace();
            let obs = Arc::new(ObsRecorder::new());
            rec.set_obs(ObsHandle::new(obs.clone()));
            rec.run(rounds);
            let delivered = rec.last_metrics().unwrap().messages_delivered;
            assert!(
                delivered >= PARALLEL_WORK_THRESHOLD,
                "only {delivered} deliveries: the round would compute serially"
            );
            assert!(rec.fault_stats().total() > 0 && rec.net_stats().lost > 0);
            let recorded = fingerprint(&rec.report(), &rec.snapshots());

            let trace = rec.simulator_mut().take_trace().unwrap();
            let mut rep = AsyncMaintenanceHarness::assemble_replay(
                params,
                RandomChurnAdversary::new(1, 5),
                5,
                params.paper_churn_rules(),
                params.paper_lateness(),
                trace,
            );
            rep.set_faults(mixed_plan());
            rep.run(rounds);
            assert_eq!(
                fingerprint(&rep.report(), &rep.snapshots()),
                recorded,
                "cap {cap}: the replay must reproduce the recording"
            );
            (
                recorded,
                serde_json::to_string(&rec.metrics_summary()).unwrap(),
                serde_json::to_string(&obs.det_snapshot()).unwrap(),
            )
        })
    };
    let baseline = run(1);
    for cap in [2, 4] {
        assert_eq!(run(cap), baseline, "divergence under thread cap {cap}");
    }
}
