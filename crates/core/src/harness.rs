//! One harness for every scheduler: the maintenance protocol, an adversary
//! and an engine wired together, plus the routability / health reporting
//! used by the experiments.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::time::Duration;

use tsa_event::{
    EventConfig, FaultPlan, FaultStats, LatencyModel, MessageTrace, NetModel, NetStats, Queued,
    Topology,
};
use tsa_net::{NetConfig, Sockets, WireStats};
use tsa_obs::ObsHandle;
use tsa_overlay::{Lds, OverlayGraph, Position};
use tsa_sim::{
    Adversary, ChurnRules, Delivery, Engine, Lateness, MetricsHistory, MetricsMode, MetricsSummary,
    NextRound, NodeFactory, NodeId, Round, RoundMetrics, SimConfig,
};

use crate::messages::ProtocolMsg;
use crate::node::ProtocolNode;
use crate::params::MaintenanceParams;
use crate::snapshot::NodeSnapshot;

/// Health report of the maintained overlay at one instant.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct MaintenanceReport {
    /// The round the report was taken after.
    pub round: Round,
    /// The overlay epoch that round belongs to.
    pub epoch: u64,
    /// Nodes currently in the network.
    pub node_count: usize,
    /// Nodes that count as mature.
    pub mature_count: usize,
    /// Mature nodes that hold a non-empty neighbour set for the current epoch.
    pub participating: usize,
    /// `participating / mature_count`.
    pub participation_rate: f64,
    /// Whether the actual neighbour graph over participating nodes is
    /// connected.
    pub connected: bool,
    /// Fraction of participating nodes in the largest component.
    pub largest_component_fraction: f64,
    /// Mean degree of participating nodes.
    pub mean_degree: f64,
    /// Smallest swarm size of the *ideal* overlay over participating nodes
    /// (empty swarms make the overlay unroutable).
    pub min_swarm_size: usize,
    /// Maximum messages received by one node in the most recent round.
    pub max_congestion: usize,
}

impl MaintenanceReport {
    /// The routability criterion used by the experiments: every mature node is
    /// wired in, the graph is connected, and no swarm is empty.
    pub fn is_routable(&self) -> bool {
        self.connected && self.participation_rate > 0.9 && self.min_swarm_size > 0
    }
}

/// The maintenance protocol running inside one scheduler against an
/// adversary: the scheduler core under the delivery policy `D`. The
/// [`MaintenanceHarness`], [`AsyncMaintenanceHarness`] and
/// [`NetMaintenanceHarness`] aliases pick the round engine, the event engine
/// and the loopback transport; everything but assembly and the policy's own
/// counters is shared, so "healthy" means the same thing under every
/// engine.
pub struct Harness<A: Adversary, D> {
    engine: Engine<ProtocolNode, A, D>,
    params: MaintenanceParams,
    /// The harness's own grip on the observability sink (the engine holds a
    /// clone): the protocol-level probes — sampling ages — live here, above
    /// the engine.
    obs: ObsHandle,
}

/// The maintenance protocol on the round-synchronous simulator.
pub type MaintenanceHarness<A> = Harness<A, NextRound>;

/// The maintenance protocol on the virtual-time event engine, where every
/// message individually samples a latency (plus jitter) and may be lost. An
/// event run whose delays never exceed one round is bit-identical to the
/// round harness at the same seed; everything beyond that measures how much
/// asynchrony the two-steps-ahead maintenance actually tolerates.
pub type AsyncMaintenanceHarness<A> = Harness<A, Queued<ProtocolNode>>;

/// The maintenance protocol over loopback TCP: real length-prefixed frames,
/// scheduled by the wall clock. The harness records every message's fate;
/// replaying the recorded [`MessageTrace`] through
/// [`AsyncMaintenanceHarness::assemble_replay`] re-executes the run
/// deterministically, which is how the twin tests pin the transport to the
/// model.
pub type NetMaintenanceHarness<A> = Harness<A, Sockets<ProtocolNode>>;

/// The genesis [`SimConfig`] shared by every harness: same seed/hash-seed
/// derivation, same history window — so the scheduler policies start from
/// bit-identical worlds.
fn harness_sim_config(seed: u64, churn_rules: ChurnRules, lateness: Lateness) -> SimConfig {
    SimConfig::default()
        .with_seed(seed)
        .with_churn_rules(churn_rules)
        .with_lateness(lateness)
        .with_parallel(true)
        .with_history_window(64)
}

/// The node factory shared by every harness: genesis nodes (round 0) know
/// the initial member set, later joiners know nothing.
fn harness_factory(params: MaintenanceParams) -> NodeFactory<ProtocolNode> {
    let n = params.overlay.n;
    let genesis: Arc<Vec<NodeId>> = Arc::new((0..n as u64).map(NodeId).collect());
    Box::new(move |id, round| {
        let genesis_ref = if round == 0 {
            Some(genesis.clone())
        } else {
            None
        };
        let mut node = ProtocolNode::new(params, genesis_ref);
        // The byzantine role is a pure function of the id, so every engine
        // (and a rejoining id) assigns it identically.
        if let Some(spec) = params.byzantine {
            if spec.is_byzantine(id) {
                node.set_byzantine(Some(spec.kind));
            }
        }
        node
    })
}

impl<A: Adversary, D: Delivery<ProtocolNode>> Harness<A, D> {
    /// Builds the engine from `config`, seeds the genesis nodes and wraps
    /// it — the part of assembly every scheduler shares.
    fn from_config(params: MaintenanceParams, adversary: A, config: D::Config) -> Self {
        let mut engine = Engine::<_, _, D>::new(config, adversary, harness_factory(params));
        engine.seed_nodes(params.overlay.n);
        Harness {
            engine,
            params,
            obs: ObsHandle::off(),
        }
    }

    /// Attaches an observability sink to the engine and the harness-level
    /// probes (pass [`ObsHandle::off`] to detach).
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.engine.set_obs(obs.clone());
        self.obs = obs;
    }

    /// Selects how the engine retains per-round metrics. Call before
    /// running.
    pub fn set_metrics_mode(&mut self, mode: MetricsMode) {
        self.engine.set_metrics_mode(mode);
    }

    /// The whole-run metrics digest, identical under both metrics modes.
    pub fn metrics_summary(&self) -> MetricsSummary {
        self.engine.metrics_summary()
    }

    /// The most recent round's metrics, under either metrics mode.
    pub fn last_metrics(&self) -> Option<&RoundMetrics> {
        self.engine.last_metrics()
    }

    /// The protocol parameters.
    pub fn params(&self) -> &MaintenanceParams {
        &self.params
    }

    /// The current round.
    pub fn round(&self) -> Round {
        self.engine.round()
    }

    /// The current overlay epoch.
    pub fn epoch(&self) -> u64 {
        self.engine.round() / 2
    }

    /// Number of nodes currently in the network.
    pub fn node_count(&self) -> usize {
        self.engine.node_count()
    }

    /// Runs `rounds` rounds.
    pub fn run(&mut self, rounds: u64) {
        if self.obs.is_on() {
            // The engine's own `run` bypasses the harness-level probes.
            for _ in 0..rounds {
                self.step();
            }
        } else {
            self.engine.run(rounds);
        }
    }

    /// Runs the full churn-free bootstrap phase.
    pub fn run_bootstrap(&mut self) {
        self.run(self.params.bootstrap_rounds());
    }

    /// Executes a single round.
    pub fn step(&mut self) {
        self.engine.step();
        if self.obs.is_on() {
            self.probe_repair_sample_ages();
        }
    }

    /// Records the age — in maturity ages — of every sample surfaced by
    /// neighbour repair this round, keyed by the sampled node's region under
    /// the engine's topology (region 0 for engines without regions, which
    /// keeps a [`Topology::Global`](tsa_event::Topology::Global) event run
    /// bit-identical to the round harness's probe).
    fn probe_repair_sample_ages(&self) {
        let t = self.engine.round().saturating_sub(1);
        let maturity = self.params.maturity_age().max(1);
        for (_, node) in self.engine.nodes() {
            for &owner in node.repair_samples() {
                if let Some(joined) = self.engine.joined_at(owner) {
                    let age = t.saturating_sub(joined) / maturity;
                    let region = self.engine.region_of(owner).unwrap_or(0);
                    self.obs
                        .observe_region("proto.repair_sample_age", region, age);
                }
            }
        }
    }

    /// Direct access to the underlying engine.
    pub fn simulator(&self) -> &Engine<ProtocolNode, A, D> {
        &self.engine
    }

    /// Mutable access to the underlying engine, for its policy's controls
    /// (trace recording, say). Stepping it directly bypasses the harness's
    /// probes.
    pub fn simulator_mut(&mut self) -> &mut Engine<ProtocolNode, A, D> {
        &mut self.engine
    }

    /// The per-round message metrics (congestion, Lemma 24).
    pub fn metrics(&self) -> &MetricsHistory {
        self.engine.metrics()
    }

    /// Distinct directed communication edges of the last round that crossed
    /// a region boundary of the engine's topology (0 without regions).
    pub fn cross_region_edges(&self) -> usize {
        self.engine.cross_region_edges()
    }

    /// Snapshots of every node's observable state.
    pub fn snapshots(&self) -> Vec<(NodeId, NodeSnapshot)> {
        let now = self.engine.round().saturating_sub(1);
        self.engine
            .nodes()
            .map(|(id, node)| (id, node.snapshot(now)))
            .collect()
    }

    /// The health report for the most recently completed round.
    pub fn report(&self) -> MaintenanceReport {
        let round = self.engine.round().saturating_sub(1);
        let snapshots = self.snapshots();
        build_report(
            &self.params,
            self.engine.config().hash_seed,
            round,
            &snapshots,
            self.engine
                .last_metrics()
                .map(|m| m.max_received_per_node)
                .unwrap_or(0),
        )
    }

    /// Per-node connect counts of the last round, keyed by node — the quantity
    /// bounded by Lemma 22.
    pub fn connect_load(&self) -> HashMap<NodeId, usize> {
        self.snapshots()
            .into_iter()
            .map(|(id, s)| (id, s.stats.connects_received_last_round))
            .collect()
    }

    /// The current positions (ideal overlay) of all participating mature
    /// nodes, for analyses that need them.
    pub fn ideal_positions(&self) -> Vec<(NodeId, Position)> {
        let epoch = self.epoch();
        let hash_seed = self.engine.config().hash_seed;
        self.snapshots()
            .into_iter()
            .filter(|(_, s)| s.mature && s.participating)
            .map(|(id, _)| {
                (
                    id,
                    Position::new(tsa_sim::rng::position_hash(hash_seed, id, epoch)),
                )
            })
            .collect()
    }
}

impl<A: Adversary> Harness<A, NextRound> {
    /// Wires the protocol, an adversary and the simulator together from fully
    /// explicit parts. This is the low-level entry point the `tsa-scenario`
    /// builder sits on; experiments should prefer `tsa_scenario::Scenario`.
    pub fn assemble(
        params: MaintenanceParams,
        adversary: A,
        seed: u64,
        churn_rules: ChurnRules,
        lateness: Lateness,
    ) -> Self {
        let config = harness_sim_config(seed, churn_rules, lateness);
        Harness::from_config(params, adversary, config)
    }
}

impl<A: Adversary> Harness<A, Queued<ProtocolNode>> {
    /// Wires the protocol, an adversary, the event engine and a network
    /// model together from fully explicit parts — the async counterpart of
    /// [`MaintenanceHarness::assemble`], sharing its genesis configuration
    /// bit for bit.
    pub fn assemble(
        params: MaintenanceParams,
        adversary: A,
        seed: u64,
        churn_rules: ChurnRules,
        lateness: Lateness,
        net: NetModel,
    ) -> Self {
        let topology = Topology::Global(net);
        Self::assemble_with_topology(params, adversary, seed, churn_rules, lateness, topology)
    }

    /// [`AsyncMaintenanceHarness::assemble`] over an explicit link
    /// [`Topology`] instead of a link-uniform model — regional partitions,
    /// scheduled bridges, per-link overrides. A [`Topology::Global`]
    /// topology is `assemble` bit for bit.
    pub fn assemble_with_topology(
        params: MaintenanceParams,
        adversary: A,
        seed: u64,
        churn_rules: ChurnRules,
        lateness: Lateness,
        topology: Topology,
    ) -> Self {
        let sim = harness_sim_config(seed, churn_rules, lateness);
        Harness::from_config(params, adversary, EventConfig::with_topology(sim, topology))
    }

    /// Assembles the deterministic twin of a recorded transport run: the
    /// same genesis as [`assemble`](AsyncMaintenanceHarness::assemble), but
    /// every message's fate — lost, or delivered at which round boundary —
    /// comes verbatim from `trace` instead of a sampled network model. Used
    /// to replay a `tsa-net` loopback run inside the event engine and prove
    /// the two executions coincide.
    pub fn assemble_replay(
        params: MaintenanceParams,
        adversary: A,
        seed: u64,
        churn_rules: ChurnRules,
        lateness: Lateness,
        trace: MessageTrace,
    ) -> Self {
        // The model itself is never consulted under replay; zero latency is
        // just the canonical placeholder.
        let net = NetModel::new(LatencyModel::constant(0));
        let mut harness = Self::assemble(params, adversary, seed, churn_rules, lateness, net);
        harness.engine.set_replay(trace);
        harness
    }

    /// Installs a fault-injection plan (wired to the protocol's message
    /// adapter). Call before the first round. Composes with
    /// [`assemble_replay`](AsyncMaintenanceHarness::assemble_replay): under
    /// replay, drop/delay fates come from the trace while mutations and
    /// duplicates are re-applied, keeping the twin byte-aligned.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.engine.set_faults(plan, ProtocolMsg::fault_adapter());
    }

    /// Whole-run counters of injected faults.
    pub fn fault_stats(&self) -> FaultStats {
        self.engine.fault_stats()
    }

    /// Whole-run counters of the network model's effects (loss, delays).
    pub fn net_stats(&self) -> NetStats {
        self.engine.net_stats()
    }
}

impl<A: Adversary> Harness<A, Sockets<ProtocolNode>> {
    /// Wires the protocol, an adversary and the loopback transport together
    /// — the transport counterpart of [`MaintenanceHarness::assemble`],
    /// sharing its genesis configuration bit for bit. `round_duration` is
    /// the wall-clock length of one protocol round; on loopback a few
    /// milliseconds comfortably deliver each round's sends by the next
    /// boundary.
    pub fn assemble(
        params: MaintenanceParams,
        adversary: A,
        seed: u64,
        churn_rules: ChurnRules,
        lateness: Lateness,
        round_duration: Duration,
    ) -> Self {
        let sim = harness_sim_config(seed, churn_rules, lateness);
        let config = NetConfig::new(sim).with_round_duration(round_duration);
        Harness::from_config(params, adversary, config)
    }

    /// Installs a fault-injection plan (wired to the protocol's message
    /// adapter). Call before the first round. The same plan installed on an
    /// [`AsyncMaintenanceHarness`] takes byte-identical decisions, because
    /// both engines assign the same sequence numbers.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.engine.set_faults(plan, ProtocolMsg::fault_adapter());
    }

    /// Whole-run counters of injected faults.
    pub fn fault_stats(&self) -> FaultStats {
        self.engine.fault_stats()
    }

    /// Network-effect counters, comparable with the event engine's.
    pub fn net_stats(&self) -> NetStats {
        self.engine.net_stats()
    }

    /// Actual wire traffic counters (frames and bytes on the loopback).
    pub fn wire_stats(&self) -> WireStats {
        self.engine.wire_stats()
    }

    /// The per-message fate trace recorded so far — feed it to
    /// [`AsyncMaintenanceHarness::assemble_replay`] to re-execute this run
    /// deterministically.
    pub fn trace(&self) -> MessageTrace {
        self.engine.trace()
    }
}

/// Builds the [`MaintenanceReport`] for one instant of a maintained overlay.
fn build_report(
    params: &MaintenanceParams,
    hash_seed: u64,
    round: Round,
    snapshots: &[(NodeId, NodeSnapshot)],
    max_congestion: usize,
) -> MaintenanceReport {
    let epoch = round / 2;
    let node_count = snapshots.len();
    // Single pass: count the mature nodes and keep the participating
    // subset (no intermediate reference vectors, no set clones).
    let mut mature_count = 0usize;
    let mut participating: Vec<(NodeId, &NodeSnapshot)> = Vec::new();
    for (id, snap) in snapshots {
        if snap.mature {
            mature_count += 1;
            if snap.participating {
                participating.push((*id, snap));
            }
        }
    }
    let participating_ids: HashSet<NodeId> = participating.iter().map(|(id, _)| *id).collect();

    // The actual neighbour graph over participating nodes.
    let mut graph = OverlayGraph::with_vertices(participating_ids.iter().copied());
    for (id, snap) in &participating {
        for n in &snap.neighbors {
            if participating_ids.contains(n) {
                graph.add_edge(*id, *n);
            }
        }
    }
    let connected = !participating.is_empty() && graph.is_connected();
    let largest = if participating.is_empty() {
        0.0
    } else {
        graph.largest_component_fraction()
    };
    let mean_degree = if participating.is_empty() {
        0.0
    } else {
        participating.iter().map(|(_, s)| s.degree()).sum::<usize>() as f64
            / participating.len() as f64
    };

    // Ideal overlay over participating nodes: the smallest swarm size
    // determines whether routing can still make progress everywhere.
    let min_swarm_size = if participating.is_empty() {
        0
    } else {
        let lds = Lds::from_hash(
            params.overlay,
            participating_ids.iter().copied(),
            hash_seed,
            epoch,
        );
        lds.goodness_stats(&participating_ids, 0.75).min_swarm_size
    };

    let participation_rate = if mature_count == 0 {
        0.0
    } else {
        participating.len() as f64 / mature_count as f64
    };

    MaintenanceReport {
        round,
        epoch,
        node_count,
        mature_count,
        participating: participating.len(),
        participation_rate,
        connected,
        largest_component_fraction: largest,
        mean_degree,
        min_swarm_size,
        max_congestion,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tsa_sim::NullAdversary;

    fn small_params() -> MaintenanceParams {
        MaintenanceParams::new(48)
            .with_c(1.5)
            .with_tau(4)
            .with_replication(2)
    }

    fn without_churn(params: MaintenanceParams, seed: u64) -> MaintenanceHarness<NullAdversary> {
        MaintenanceHarness::assemble(
            params,
            NullAdversary,
            seed,
            params.paper_churn_rules(),
            params.paper_lateness(),
        )
    }

    #[test]
    fn bootstrap_produces_a_connected_participating_overlay() {
        let params = small_params();
        let mut h = without_churn(params, 1);
        h.run_bootstrap();
        // Run a couple of epochs beyond the bootstrap so the overlay is fully
        // CREATE-driven rather than genesis-driven.
        h.run(6);
        let report = h.report();
        assert_eq!(report.node_count, 48);
        assert_eq!(report.mature_count, 48);
        assert!(
            report.participation_rate > 0.95,
            "participation {} too low: {report:?}",
            report.participation_rate
        );
        assert!(report.connected, "overlay must be connected: {report:?}");
        assert!(report.min_swarm_size > 0);
        assert!(report.is_routable());
    }

    #[test]
    fn overlay_is_rebuilt_every_epoch() {
        let params = small_params();
        let mut h = without_churn(params, 2);
        h.run_bootstrap();
        h.run(4);
        let a = h.ideal_positions();
        h.run(2);
        let b = h.ideal_positions();
        let map_a: HashMap<NodeId, Position> = a.into_iter().collect();
        let moved = b
            .iter()
            .filter(|(id, p)| {
                map_a
                    .get(id)
                    .map(|q| q.distance(*p) > 1e-9)
                    .unwrap_or(false)
            })
            .count();
        assert!(
            moved > 40,
            "positions must be completely re-drawn every epoch, only {moved} moved"
        );
    }

    #[test]
    fn report_before_any_round_is_safe() {
        let params = small_params();
        let h = without_churn(params, 3);
        let report = h.report();
        assert_eq!(report.node_count, 48);
        // Nothing has run yet, so nobody participates.
        assert!(!report.is_routable() || report.participating > 0);
    }

    #[test]
    fn zero_latency_async_report_matches_the_round_harness() {
        let params = small_params();
        let mut sync = without_churn(params, 17);
        sync.run_bootstrap();
        sync.run(6);

        let mut asynch = AsyncMaintenanceHarness::assemble(
            params,
            NullAdversary,
            17,
            params.paper_churn_rules(),
            params.paper_lateness(),
            NetModel::new(LatencyModel::constant(0)),
        );
        asynch.run_bootstrap();
        asynch.run(6);

        assert_eq!(
            serde_json::to_string(&sync.report()).unwrap(),
            serde_json::to_string(&asynch.report()).unwrap(),
            "a zero-delay event run is the round model"
        );
        assert_eq!(sync.metrics().summary(), asynch.metrics().summary());
    }

    #[test]
    fn bounded_asynchrony_keeps_the_overlay_routable() {
        // Uniform delays up to a round and a half: messages straddle at
        // most one extra boundary. The maintenance protocol holds two steps
        // ahead, so the overlay must stay routable.
        let params = small_params();
        let mut h = AsyncMaintenanceHarness::assemble(
            params,
            NullAdversary,
            3,
            params.paper_churn_rules(),
            params.paper_lateness(),
            NetModel::new(LatencyModel::uniform(0, 1500)),
        );
        h.run_bootstrap();
        h.run(8);
        let report = h.report();
        assert_eq!(report.node_count, 48);
        assert!(
            report.is_routable(),
            "sub-round asynchrony must not break the overlay: {report:?}"
        );
    }

    #[test]
    fn the_overlay_survives_a_real_transport() {
        // A small overlay, bootstrap plus a few maintained rounds, entirely
        // over loopback sockets: the protocol must come out routable, and
        // real frames must have moved.
        let params = MaintenanceParams::new(16)
            .with_c(1.5)
            .with_tau(4)
            .with_replication(2);
        let mut h = NetMaintenanceHarness::assemble(
            params,
            NullAdversary,
            17,
            params.paper_churn_rules(),
            params.paper_lateness(),
            Duration::from_millis(15),
        );
        h.run_bootstrap();
        h.run(4);
        let report = h.report();
        assert_eq!(report.node_count, 16);
        assert!(
            report.is_routable(),
            "the loopback transport must sustain the overlay: {report:?}"
        );
        let wire = h.wire_stats();
        assert!(wire.frames_sent > 0 && wire.frames_received > 0);
        assert_eq!(h.trace().len() as u64, h.net_stats().sent);
    }
}
