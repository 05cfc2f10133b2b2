//! The event engine's two message paths: a message that arrives by the next
//! round boundary goes straight onto the next batch, a later one waits in
//! the calendar queue. Under a model whose delays straddle boundaries
//! (`uniform(500, 2500)` plus jitter, loss and a fault-plan Delay rule) both
//! paths are busy every round, and together they must deliver exactly what
//! the recorded fate trace says, in send order, with the in-flight
//! high-water mark counting both.

use tsa_event::{
    EventConfig, EventSimulator, FaultAction, FaultAdapter, FaultPlan, FaultRule, LatencyModel,
    MessageFate, MessageTrace, NetModel,
};
use tsa_sim::prelude::*;
use tsa_sim::SimConfig;

const NODES: u64 = 10;
/// Messages each node sends per round, to distinct receivers.
const FANOUT: u64 = 3;
const ROUNDS: u64 = 24;

/// Sends `FANOUT` messages a round whose payload is the message's own global
/// sequence number: the membership is fixed and every node sends the same
/// count, so `seq = (round · NODES + id) · FANOUT + i`. Records every
/// received `(round, seq)`.
#[derive(Default)]
struct SeqSender {
    received: Vec<(Round, u64)>,
}

impl Process for SeqSender {
    type Msg = u64;
    fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Envelope<u64>]) {
        let t = ctx.round();
        self.received
            .extend(inbox.iter().map(|env| (t, env.payload)));
        let me = ctx.id().raw();
        for i in 0..FANOUT {
            let seq = (t * NODES + me) * FANOUT + i;
            ctx.send(NodeId((me + 1 + i) % NODES), seq);
        }
    }
}

const ADAPTER: FaultAdapter<u64> = FaultAdapter {
    kind_of: |_| 0,
    mutate: |_, _| false,
};

fn send_round(seq: u64) -> Round {
    seq / (NODES * FANOUT)
}

/// One run: the per-node receive logs, the in-flight count after every
/// round, the peak queue depth and the recorded trace (when recording).
struct Run {
    received: Vec<Vec<(Round, u64)>>,
    in_flight: Vec<u64>,
    peak_queue_depth: u64,
    trace: Option<MessageTrace>,
}

fn run(replay: Option<MessageTrace>) -> Run {
    let net = NetModel {
        latency: LatencyModel::uniform(500, 2500),
        jitter: 300,
        loss: 0.02,
    };
    let config = EventConfig::new(SimConfig::default().with_seed(17), net);
    let mut sim = EventSimulator::new(config, NullAdversary, Box::new(|_, _| SeqSender::default()));
    let plan = FaultPlan::new()
        .with_rule(FaultRule::every(FaultAction::Delay { ticks: 700 }).with_prob(0.3));
    sim.set_faults(plan, ADAPTER);
    let recording = replay.is_none();
    match replay {
        Some(trace) => sim.set_replay(trace),
        None => sim.record_trace(),
    }
    sim.seed_nodes(NODES as usize);
    let mut in_flight = Vec::new();
    for _ in 0..ROUNDS {
        sim.step();
        in_flight.push(sim.in_flight_count() as u64);
    }
    Run {
        received: sim.nodes().map(|(_, node)| node.received.clone()).collect(),
        in_flight,
        peak_queue_depth: sim.peak_queue_depth(),
        trace: if recording { sim.take_trace() } else { None },
    }
}

#[test]
fn both_paths_deliver_exactly_the_recorded_fates_in_send_order() {
    let recorded = run(None);
    let trace = recorded
        .trace
        .clone()
        .expect("recording run keeps its trace");
    let sent = ROUNDS * NODES * FANOUT;
    assert_eq!(trace.len() as u64, sent);

    // Every inbox is in send (= seq) order, and every message arrives at
    // exactly the boundary its recorded fate names.
    let mut arrived = vec![false; sent as usize];
    for log in &recorded.received {
        for pair in log.windows(2) {
            if pair[0].0 == pair[1].0 {
                assert!(pair[0].1 < pair[1].1, "inbox out of seq order: {pair:?}");
            }
        }
        for &(round, seq) in log {
            assert_eq!(
                trace.fate(seq),
                Some(MessageFate::Delivered { at_round: round }),
                "seq {seq} read at round {round}"
            );
            assert!(!arrived[seq as usize], "seq {seq} read twice");
            arrived[seq as usize] = true;
        }
    }
    // …and every delivered fate due within the run was read.
    let mut next_boundary = 0u64;
    let mut queued = 0u64;
    for seq in 0..sent {
        match trace.fate(seq).unwrap() {
            MessageFate::Lost => assert!(!arrived[seq as usize]),
            MessageFate::Delivered { at_round } => {
                assert_eq!(arrived[seq as usize], at_round < ROUNDS, "seq {seq}");
                let t = send_round(seq);
                if at_round == t + 1 {
                    next_boundary += 1;
                } else {
                    queued += 1;
                }
            }
        }
    }
    assert!(
        next_boundary > sent / 10 && queued > sent / 10,
        "the model must keep both paths busy: {next_boundary} direct, {queued} queued"
    );

    // In flight after round r: sent by r and read after it, on either path.
    let expected: Vec<u64> = (0..ROUNDS)
        .map(|r| {
            (0..sent)
                .filter(|&seq| match trace.fate(seq).unwrap() {
                    MessageFate::Delivered { at_round } => send_round(seq) <= r && at_round > r,
                    MessageFate::Lost => false,
                })
                .count() as u64
        })
        .collect();
    assert_eq!(recorded.in_flight, expected);
    assert_eq!(
        recorded.peak_queue_depth,
        *expected.iter().max().unwrap(),
        "peak queue depth counts queued and directly routed messages"
    );

    // Replaying the trace reproduces the run.
    let replayed = run(Some(trace));
    assert_eq!(replayed.received, recorded.received);
    assert_eq!(replayed.in_flight, recorded.in_flight);
    assert_eq!(replayed.peak_queue_depth, recorded.peak_queue_depth);
}
