//! # tsa-event — deterministic virtual-time asynchronous execution
//!
//! The paper proves overlay maintenance in a *synchronous round* model; this
//! crate asks the robustness question that model cannot: does the
//! two-steps-ahead maintenance survive *bounded-delay asynchrony*, where
//! every message individually samples a latency, jitters across round
//! boundaries, or is lost outright?
//!
//! * [`EventSimulator`] is a discrete-event engine over a virtual tick clock
//!   ([`TICKS_PER_ROUND`] ticks per protocol round) with a calendar
//!   (timing-wheel) event queue ([`queue::CalendarQueue`]) popping in the
//!   total order `(time, seq, node)`;
//! * [`LatencyModel`] / [`NetModel`] are ChaCha8-seeded per-message
//!   latency/jitter/loss models — every message's fate is a pure function of
//!   `(master seed, send sequence number)` (derived in 64-message
//!   [`FateBlock`] batches that amortize the RNG key schedule), so identical
//!   seeds give byte-identical traces at any thread/host configuration;
//! * [`Topology`] makes the network addressable by link: one global model,
//!   regional partitions ([`RegionAssign`] is a pure function of the node
//!   id) joined by a possibly slow/lossy — and [`PartitionSchedule`]d —
//!   bridge, or explicit per-link overrides;
//! * [`MessageTrace`] records the fate of every message (lost, or delivered
//!   at which round) on one engine and replays it as a fixed schedule on
//!   another — the bridge the `tsa-net` loopback transport uses to twin a
//!   wall-clock run with a deterministic replay;
//! * [`FaultPlan`] is a serde-round-trippable fault-injection language:
//!   ordered rules of (round window, sender/receiver/region selector,
//!   message kind) → (drop | delay | duplicate | mutate), decided by pure
//!   functions of `(seed, seq)` so the same plan injects byte-identical
//!   faults on this engine and on the loopback transport;
//! * [`ExecutionModel`] is the serde-round-trippable selector the
//!   `tsa-scenario` / `tsa-sweep` stack uses to pick an engine per scenario
//!   (default: the synchronous round model).
//!
//! [`EventSimulator`] is the scheduler core of `tsa-sim`
//! ([`Engine`](tsa_sim::Engine)) under the [`Queued`] delivery policy, so it
//! runs the *same* node logic — any [`ProtocolStep`](tsa_sim::ProtocolStep)
//! (which every [`Process`](tsa_sim::Process) implements) — through the same
//! churn, delivery, compute and collect code as the lockstep round engine:
//! an event run whose delays never exceed one round reproduces it bit for
//! bit.
//!
//! ```
//! use tsa_event::{EventConfig, EventSimulator, LatencyModel, NetModel};
//! use tsa_sim::prelude::*;
//!
//! // A trivial protocol: every node pings node 0 each activation.
//! struct Pinger;
//! impl Process for Pinger {
//!     type Msg = ();
//!     fn on_round(&mut self, ctx: &mut Ctx<'_, ()>, _inbox: &[Envelope<()>]) {
//!         ctx.send(NodeId(0), ());
//!     }
//! }
//!
//! let config = EventConfig::new(
//!     SimConfig::default().with_seed(7),
//!     NetModel::new(LatencyModel::uniform(200, 2500)), // delays straddle rounds
//! );
//! let mut sim = EventSimulator::new(config, NullAdversary, Box::new(|_, _| Pinger));
//! sim.seed_nodes(8);
//! sim.run(6);
//! assert_eq!(sim.node_count(), 8);
//! assert!(sim.metrics().total_messages() > 0);
//! ```

#![deny(missing_docs)]

pub mod engine;
pub mod fault;
pub mod model;
pub mod queue;
pub mod trace;

pub use engine::{EventConfig, EventSimulator, NetStats, Queued};
pub use fault::{
    FaultAction, FaultAdapter, FaultCoins, FaultDecision, FaultInjector, FaultPlan, FaultRule,
    FaultStats, NodeSelector, RoundWindow,
};
pub use model::{
    ExecutionModel, FateBlock, LatencyModel, LinkOverride, NetModel, PartitionSchedule,
    RegionAssign, RegionEntry, Topology, FATE_BLOCK_LANES,
};
pub use trace::{MessageFate, MessageTrace};

/// Virtual ticks per protocol round: the resolution at which latencies,
/// jitter and the round cadence are expressed. A latency of
/// `TICKS_PER_ROUND` is exactly the synchronous model's one-round delay.
pub const TICKS_PER_ROUND: u64 = 1000;

#[cfg(test)]
mod tests {
    use super::*;
    use tsa_sim::prelude::*;
    use tsa_sim::{SimConfig, Simulator};

    /// The round engine's own test protocol: flood a counter to the two
    /// numerically adjacent identifiers each round.
    #[derive(Default)]
    struct Ping {
        heard: Vec<u64>,
    }

    impl Process for Ping {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, inbox: &[Envelope<u64>]) {
            for env in inbox {
                self.heard.push(env.payload);
            }
            // The payload tags the sender, so per-inbox *order* is part of
            // every fingerprint: a delivery-order divergence between the
            // engines cannot hide behind identical payloads.
            let me = ctx.id().raw();
            let tag = (me << 32) | ctx.round();
            ctx.send(NodeId(me.wrapping_add(1)), tag);
            if me > 0 {
                ctx.send(NodeId(me - 1), tag);
            }
        }
        fn state_digest(&self) -> u64 {
            self.heard.len() as u64
        }
    }

    fn event_sim(net: NetModel, seed: u64) -> EventSimulator<Ping, NullAdversary> {
        let config = EventConfig::new(SimConfig::default().with_seed(seed), net);
        EventSimulator::new(config, NullAdversary, Box::new(|_, _| Ping::default()))
    }

    /// The trace fingerprint two engines must agree on: per-node heard
    /// sequences, the latest comm graph, and the whole metrics history.
    fn fingerprint(
        heard: Vec<(NodeId, Vec<u64>)>,
        edges: Vec<(NodeId, NodeId)>,
        metrics: &tsa_sim::MetricsHistory,
    ) -> String {
        format!("{heard:?}|{edges:?}|{:?}", metrics.rounds())
    }

    fn round_engine_fingerprint(seed: u64, n: usize, rounds: u64) -> String {
        let config = SimConfig::default().with_seed(seed).with_parallel(false);
        let mut sim = Simulator::new(config, NullAdversary, Box::new(|_, _| Ping::default()));
        sim.seed_nodes(n);
        sim.run(rounds);
        let heard = sim
            .member_ids()
            .iter()
            .map(|&id| (id, sim.node(id).unwrap().heard.clone()))
            .collect();
        let edges = sim.records().last().unwrap().graph.edges.clone();
        fingerprint(heard, edges, sim.metrics())
    }

    fn event_engine_fingerprint(net: NetModel, seed: u64, n: usize, rounds: u64) -> String {
        let mut sim = event_sim(net, seed);
        sim.seed_nodes(n);
        sim.run(rounds);
        let heard = sim
            .member_ids()
            .iter()
            .map(|&id| (id, sim.node(id).unwrap().heard.clone()))
            .collect();
        let edges = sim.records().last().unwrap().graph.edges.clone();
        fingerprint(heard, edges, sim.metrics())
    }

    #[test]
    fn sub_round_delays_reproduce_the_round_engine_exactly() {
        // Any constant delay of at most one round is the synchronous model.
        for ticks in [0, 1, 500, TICKS_PER_ROUND] {
            let net = NetModel::new(LatencyModel::constant(ticks));
            assert_eq!(
                event_engine_fingerprint(net, 11, 12, 6),
                round_engine_fingerprint(11, 12, 6),
                "constant {ticks}-tick delay must match the round engine"
            );
        }
        // ... and so is sub-round jitter on a zero base.
        let jittered = NetModel {
            latency: LatencyModel::constant(0),
            jitter: TICKS_PER_ROUND,
            loss: 0.0,
        };
        assert_eq!(
            event_engine_fingerprint(jittered, 11, 12, 6),
            round_engine_fingerprint(11, 12, 6),
            "sub-round jitter must not change the trace"
        );
    }

    #[test]
    fn traces_are_a_pure_function_of_the_seed() {
        let net = NetModel {
            latency: LatencyModel::uniform(100, 3500),
            jitter: 400,
            loss: 0.05,
        };
        let a = event_engine_fingerprint(net, 5, 16, 8);
        let b = event_engine_fingerprint(net, 5, 16, 8);
        assert_eq!(a, b, "same seed, same trace");
        let c = event_engine_fingerprint(net, 6, 16, 8);
        assert_ne!(a, c, "different seeds diverge");
    }

    #[test]
    fn a_recorded_lossy_run_replays_bit_for_bit() {
        // Record the fates of a jittery, lossy run, then replay them in an
        // engine whose own network model would deliver instantly: the fixed
        // fate schedule alone must reproduce the recorded trace.
        let net = NetModel {
            latency: LatencyModel::uniform(100, 3500),
            jitter: 400,
            loss: 0.05,
        };
        let mut rec = event_sim(net, 5);
        rec.record_trace();
        rec.seed_nodes(16);
        rec.run(8);
        let trace = rec.take_trace().unwrap();
        assert_eq!(trace.len() as u64, rec.net_stats().sent);
        assert_eq!(trace.lost_count() as u64, rec.net_stats().lost);

        let mut rep = event_sim(NetModel::new(LatencyModel::constant(0)), 5);
        rep.set_replay(trace);
        rep.seed_nodes(16);
        rep.run(8);

        let fp = |sim: &EventSimulator<Ping, NullAdversary>| {
            let heard = sim
                .member_ids()
                .iter()
                .map(|&id| (id, sim.node(id).unwrap().heard.clone()))
                .collect();
            let edges = sim.records().last().unwrap().graph.edges.clone();
            fingerprint(heard, edges, sim.metrics())
        };
        assert_eq!(fp(&rep), fp(&rec), "replay must reproduce the recording");
        assert_eq!(rep.net_stats().sent, rec.net_stats().sent);
        assert_eq!(rep.net_stats().lost, rec.net_stats().lost);
    }

    #[test]
    fn traces_ignore_the_ambient_thread_budget() {
        // A thread cap (as imposed on sweep workers) must not perturb a
        // single bit.
        let net = NetModel {
            latency: LatencyModel::pareto(100, 800, 1, 20_000),
            jitter: 100,
            loss: 0.02,
        };
        let baseline = event_engine_fingerprint(net, 9, 16, 8);
        for cap in [1usize, 2, 4] {
            let capped = rayon::with_thread_cap(cap, || event_engine_fingerprint(net, 9, 16, 8));
            assert_eq!(capped, baseline, "divergence under thread cap {cap}");
        }
    }

    fn event_sim_topo(topology: Topology, seed: u64) -> EventSimulator<Ping, NullAdversary> {
        let config = EventConfig::with_topology(SimConfig::default().with_seed(seed), topology);
        EventSimulator::new(config, NullAdversary, Box::new(|_, _| Ping::default()))
    }

    fn topo_fingerprint(topology: Topology, seed: u64, n: usize, rounds: u64) -> String {
        let mut sim = event_sim_topo(topology, seed);
        sim.seed_nodes(n);
        sim.run(rounds);
        let heard = sim
            .member_ids()
            .iter()
            .map(|&id| (id, sim.node(id).unwrap().heard.clone()))
            .collect();
        let edges = sim.records().last().unwrap().graph.edges.clone();
        fingerprint(heard, edges, sim.metrics())
    }

    #[test]
    fn equal_model_topologies_reproduce_the_global_trace() {
        // The trace-level half of the topology equivalence bridge: a
        // regional split whose intra and inter models agree, and a per-link
        // topology with no overrides, are the global network bit for bit —
        // loss coins, delays and delivery order included.
        let net = NetModel {
            latency: LatencyModel::uniform(100, 2800),
            jitter: 300,
            loss: 0.05,
        };
        let global = topo_fingerprint(Topology::global(net), 13, 16, 8);
        for assign in [
            RegionAssign::halves(8),
            RegionAssign::bands(4, 3),
            RegionAssign::explicit(1, [(0, 0), (7, 2)]),
        ] {
            assert_eq!(
                topo_fingerprint(Topology::regions(assign.clone(), net, net), 13, 16, 8),
                global,
                "intra == inter must be the global network ({})",
                assign.label()
            );
        }
        assert_eq!(
            topo_fingerprint(Topology::per_link(net, Vec::new()), 13, 16, 8),
            global,
            "no overrides must be the global network"
        );
    }

    #[test]
    fn a_severed_bridge_cuts_cross_region_traffic_only() {
        // 4 nodes in two halves {0,1} | {2,3}; the Ping protocol talks to
        // id ± 1, so the only cross links are 1 → 2 and 2 → 1. A bridge
        // with loss 1.0 must kill exactly those messages.
        let intra = NetModel::new(LatencyModel::constant(0));
        let cut = NetModel {
            latency: LatencyModel::constant(0),
            jitter: 0,
            loss: 1.0,
        };
        let mut sim = event_sim_topo(Topology::regions(RegionAssign::halves(2), intra, cut), 5);
        sim.seed_nodes(4);
        sim.run(6);
        let stats = sim.net_stats();
        assert!(stats.bridge_sent > 0, "cross sends are attempted");
        assert_eq!(stats.bridge_lost, stats.bridge_sent, "and all are lost");
        assert_eq!(stats.lost, stats.bridge_lost, "intra traffic is untouched");
        // Node 2 can only ever hear node 3 (tag high bits = sender id).
        let heard = &sim.node(NodeId(2)).unwrap().heard;
        assert!(!heard.is_empty());
        assert!(heard.iter().all(|tag| tag >> 32 == 3));
        // The comm graph still records the *attempted* cross edges — the
        // halves still try to talk, which is what cross_region_edges
        // measures (2 directed edges: 1→2 and 2→1).
        assert_eq!(sim.cross_region_edges(), 2);
    }

    #[test]
    fn a_scheduled_partition_heals_on_time() {
        // Bridge severed for sends of rounds [1, 3): node 2 must hear node
        // 1's round-0, round-3 and round-4 tags, and nothing in between.
        let intra = NetModel::new(LatencyModel::constant(0));
        let cut = NetModel {
            latency: LatencyModel::constant(0),
            jitter: 0,
            loss: 1.0,
        };
        let mut sim = event_sim_topo(
            Topology::regions_with_schedule(
                RegionAssign::halves(2),
                intra,
                cut,
                PartitionSchedule::window(1, 3),
            ),
            5,
        );
        sim.seed_nodes(4);
        sim.run(6);
        let from_one: Vec<u64> = sim
            .node(NodeId(2))
            .unwrap()
            .heard
            .iter()
            .filter(|tag| *tag >> 32 == 1)
            .map(|tag| tag & 0xFFFF_FFFF)
            .collect();
        assert_eq!(from_one, vec![0, 3, 4], "severed exactly during [1, 3)");
        let stats = sim.net_stats();
        assert!(stats.bridge_lost > 0 && stats.bridge_lost < stats.bridge_sent);
    }

    #[test]
    fn multi_round_delays_straddle_boundaries() {
        // A constant 2.5-round delay: messages sent in round t arrive in
        // round t + 3 (the first boundary past 2500 ticks).
        let net = NetModel::new(LatencyModel::constant(2 * TICKS_PER_ROUND + 500));
        let mut sim = event_sim(net, 3);
        sim.seed_nodes(4);
        sim.run(3);
        assert_eq!(
            sim.metrics().rounds()[2].messages_delivered,
            0,
            "nothing can arrive before round 3"
        );
        sim.step();
        assert!(
            sim.metrics().rounds()[3].messages_delivered > 0,
            "round-0 sends arrive at round 3"
        );
        assert!(sim.in_flight_count() > 0);
        assert_eq!(sim.net_stats().max_delay_ticks, 2500);
    }

    #[test]
    fn loss_drops_messages_and_counts_them() {
        let net = NetModel {
            latency: LatencyModel::constant(0),
            jitter: 0,
            loss: 0.25,
        };
        let mut sim = event_sim(net, 8);
        sim.seed_nodes(16);
        sim.run(10);
        let stats = sim.net_stats();
        assert!(stats.lost > 0, "a 25% loss rate must drop something");
        assert!(stats.lost < stats.sent / 2, "but not half the traffic");
        // The edge nodes also ping the nonexistent ids -1/n, which count as
        // receiver-departed drops (exactly as in the round engine).
        let dropped: usize = sim
            .metrics()
            .rounds()
            .iter()
            .map(|m| m.messages_dropped)
            .sum();
        assert_eq!(
            dropped as u64,
            stats.lost + stats.dropped_departed,
            "every drop is charged to metrics"
        );
        let delivered: usize = sim
            .metrics()
            .rounds()
            .iter()
            .map(|m| m.messages_delivered)
            .sum();
        assert_eq!(
            delivered as u64 + stats.lost + stats.dropped_departed + sim.in_flight_count() as u64,
            stats.sent,
            "every sent message is delivered, lost, dropped, or still queued"
        );
    }

    #[test]
    fn churn_works_at_round_boundaries() {
        use tsa_sim::ChurnRules;

        struct OneShotChurn;
        impl Adversary for OneShotChurn {
            fn plan(&mut self, round: Round, view: &KnowledgeView<'_>) -> ChurnPlan {
                if round == 2 {
                    let bootstrap = *view.eligible_bootstraps().last().unwrap();
                    ChurnPlan {
                        departures: vec![NodeId(0)],
                        joins: vec![JoinPlan { bootstrap }],
                    }
                } else {
                    ChurnPlan::none()
                }
            }
        }
        let sim_config = SimConfig::default().with_churn_rules(ChurnRules {
            max_events: Some(10),
            window: 4,
            ..ChurnRules::default()
        });
        let config = EventConfig::new(sim_config, NetModel::new(LatencyModel::constant(0)));
        let mut sim = EventSimulator::new(config, OneShotChurn, Box::new(|_, _| Ping::default()));
        sim.seed_nodes(4);
        sim.run(3);
        assert!(!sim.member_ids().contains(&NodeId(0)), "node 0 departed");
        assert_eq!(sim.node_count(), 4, "one left, one joined");
        let outcome = sim.last_churn_outcome();
        assert_eq!(outcome.departed, vec![NodeId(0)]);
        assert_eq!(sim.joined_at(outcome.joined[0].0), Some(2));
        // Messages addressed to node 0 before its departure are dropped.
        sim.step();
        assert!(sim.net_stats().dropped_departed > 0);
    }

    #[test]
    fn history_window_trims_records() {
        let sim_config = SimConfig::default().with_history_window(3);
        let config = EventConfig::new(sim_config, NetModel::new(LatencyModel::constant(0)));
        let mut sim = EventSimulator::new(config, NullAdversary, Box::new(|_, _| Ping::default()));
        sim.seed_nodes(2);
        sim.run(10);
        assert_eq!(sim.records().len(), 3);
        assert_eq!(sim.records()[0].graph.round, 7);
        assert!(sim.comm_graph_at(9).is_some());
        assert!(sim.comm_graph_at(5).is_none());
    }
}
