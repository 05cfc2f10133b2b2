//! # tsa-net — the overlay on a real transport
//!
//! The round engine and the event engine prove the two-steps-ahead
//! maintenance protocol correct under controlled schedulers; this crate runs
//! the *same unmodified node logic* ([`ProtocolStep`](tsa_sim::ProtocolStep))
//! over real in-process sockets, and bounds the wall-clock nondeterminism it
//! introduces with a deterministic twin:
//!
//! * [`codec`] — a length-prefixed binary wire format for the workspace's
//!   serde value trees: deterministic encoding, incremental partial-read
//!   decoding, and hostile-input rejection (size bounds, depth caps, no
//!   panics);
//! * [`NetRunner`] — the loopback-TCP runtime: the shared scheduler core
//!   under the [`Sockets`] delivery policy — one listener per node, a single
//!   poller thread, and wall-clock rounds of a configured duration;
//! * every message's fate is recorded in a
//!   [`MessageTrace`](tsa_event::MessageTrace); replaying the trace in the
//!   [`EventSimulator`](tsa_event::EventSimulator) reproduces the transport
//!   run inside the deterministic model, which is what the differential twin
//!   tests in `tsa-core` verify.
//!
//! ```
//! use std::time::Duration;
//! use tsa_net::{NetConfig, NetRunner};
//! use tsa_sim::prelude::*;
//!
//! // A trivial protocol: every node pings node 0 each activation.
//! struct Pinger;
//! impl Process for Pinger {
//!     type Msg = u64;
//!     fn on_round(&mut self, ctx: &mut Ctx<'_, u64>, _inbox: &[Envelope<u64>]) {
//!         ctx.send(NodeId(0), ctx.round());
//!     }
//! }
//!
//! let config = NetConfig::new(SimConfig::default().with_seed(7))
//!     .with_round_duration(Duration::from_millis(5));
//! let mut net = NetRunner::new(config, NullAdversary, Box::new(|_, _| Pinger));
//! net.seed_nodes(4);
//! net.run(3);
//! assert_eq!(net.node_count(), 4);
//! assert!(net.wire_stats().frames_sent > 0);
//! ```

#![deny(missing_docs)]

pub mod codec;
pub mod runner;

pub use codec::{
    decode_value, decode_wire_value, encode_frame, encode_value, encode_wire_frame, CodecError,
    FrameDecoder, DEFAULT_MAX_FRAME, FRAME_HEADER_LEN,
};
pub use runner::{NetConfig, NetRunner, Sockets, WireStats};

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use tsa_sim::prelude::*;
    use tsa_sim::SimConfig;

    /// The same flood protocol the event engine tests use: talk to the two
    /// numerically adjacent identifiers, tag payloads with (sender, round).
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

    fn runner(seed: u64) -> NetRunner<Ping, NullAdversary> {
        let config = NetConfig::new(SimConfig::default().with_seed(seed))
            .with_round_duration(Duration::from_millis(10));
        NetRunner::new(config, NullAdversary, Box::new(|_, _| Ping::default()))
    }

    #[test]
    fn round_durations_round_trip_exactly() {
        for d in [
            Duration::from_nanos(1),
            Duration::from_millis(15),
            Duration::from_millis(20),
        ] {
            let config = NetConfig::new(SimConfig::default()).with_round_duration(d);
            assert_eq!(config.round_duration(), d);
        }
    }

    #[test]
    fn loopback_messages_actually_arrive() {
        let mut net = runner(3);
        net.seed_nodes(4);
        net.run(5);
        // Node 1 talks to nodes 0 and 2 every round; on a 10 ms round the
        // loopback comfortably delivers round-t sends by round t+1, so by
        // round 5 node 1 has heard from both neighbors repeatedly.
        let heard = &net.node(NodeId(1)).unwrap().heard;
        assert!(
            heard.len() >= 4,
            "expected steady neighbor traffic, heard {}",
            heard.len()
        );
        let stats = net.net_stats();
        let wire = net.wire_stats();
        assert_eq!(
            stats.sent,
            5 * 7,
            "4 nodes × 2 sends − edge node, × 5 rounds"
        );
        assert!(wire.frames_sent > 0);
        assert!(wire.bytes_sent > wire.frames_sent * 4, "frames have bodies");
        // The edge sends (node 3 → 4, node 0 → u64::MAX wrap) never connect.
        assert!(
            stats.lost >= 5,
            "nonexistent receivers are lost at the wire"
        );
    }

    #[test]
    fn the_trace_accounts_for_every_message() {
        let mut net = runner(4);
        net.seed_nodes(4);
        net.run(4);
        let trace = net.trace();
        assert_eq!(trace.len() as u64, net.net_stats().sent);
        let delivered: usize = net
            .metrics()
            .rounds()
            .iter()
            .map(|m| m.messages_delivered)
            .sum();
        assert_eq!(
            trace.delivered_count(),
            delivered + net.net_stats().dropped_departed as usize
        );
    }

    #[test]
    fn departures_tear_down_the_socket_state() {
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
        let sim = SimConfig::default().with_churn_rules(ChurnRules {
            max_events: Some(10),
            window: 4,
            ..ChurnRules::default()
        });
        let config = NetConfig::new(sim).with_round_duration(Duration::from_millis(10));
        let mut net = NetRunner::new(config, OneShotChurn, Box::new(|_, _| Ping::default()));
        net.seed_nodes(4);
        net.run(3);
        assert!(!net.member_ids().contains(&NodeId(0)), "node 0 departed");
        assert_eq!(net.node_count(), 4, "one left, one joined");
        let outcome = net.last_churn_outcome();
        assert_eq!(outcome.departed, vec![NodeId(0)]);
        assert_eq!(net.joined_at(outcome.joined[0].0), Some(2));
        // Node 1 keeps sending to the departed node 0: those messages die
        // at the closed socket (or as receiver-departed drops if a stale
        // stream buffered them), never in an inbox.
        net.run(2);
        let stats = net.net_stats();
        assert!(stats.lost + stats.dropped_departed > 5);
    }
}
