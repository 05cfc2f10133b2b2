//! The scheduler core shared by every execution engine.
//!
//! The core realizes the model of Section 1.1:
//!
//! * time proceeds in synchronous rounds;
//! * at the beginning of round `t` the adversary removes `O_t ⊂ V_{t-1}` (those
//!   nodes receive none of this round's messages) and proposes joins `J_t`,
//!   each via a bootstrap node that has been in the network for at least
//!   `min_bootstrap_age` rounds;
//! * every surviving node then receives the messages delivered to it, computes,
//!   and sends;
//! * the communication graph `G_t` (who messaged whom) is archived and exposed
//!   to the adversary with lateness `a`, node-state digests with lateness `b`.
//!
//! Every round runs the same four phases — churn → deliver → compute →
//! collect — in one [`Engine`]. What differs between the schedulers is only
//! *how a message travels* from the collect phase of one round to the deliver
//! phase of a later one, and that is a [`Delivery`] policy:
//!
//! * [`NextRound`] — the round engine ([`Simulator`]): every message sent in
//!   round `t` is read in round `t + 1`;
//! * `tsa-event`'s `Queued` — a calendar queue under per-message latency,
//!   loss and fault injection on a virtual clock;
//! * `tsa-net`'s `Sockets` — real frames over loopback TCP on a wall clock.
//!
//! The policy routes each node's outbox during the sequential collect, in
//! id order, so sequence numbers, fates and fault decisions are assigned in
//! exactly the same order whether the compute phase ran on one thread or
//! many.
//!
//! # Hot-path design
//!
//! The round loop performs **no steady-state heap allocation** and runs its
//! compute phase **in parallel** without changing a single output bit (see
//! the "Performance model" chapter of DESIGN.md):
//!
//! * node slots live in a `Vec` sorted by identifier (identifiers are
//!   assigned monotonically, so joins append in order and the sort is free);
//! * delivery groups the policy's batch (in global send order) by receiver
//!   with a stable counting scatter (count → prefix-sum → move into the
//!   second buffer) and hands every node a contiguous *slice* of it — no
//!   per-node inbox vectors and no sort scratch;
//! * every node owns a reusable outbox buffer that is re-wrapped via
//!   [`Outbox::from_vec`](crate::Outbox::from_vec) each round; departing
//!   nodes donate their buffers to a spare pool that joining nodes draw from;
//! * round records (communication graphs, digests) trimmed out of a bounded
//!   history window are recycled as the scratch for new rounds;
//! * the compute phase runs on [`rayon::for_each_index_mut`], a work-stealing
//!   loop at node granularity whose worker count follows the
//!   `TSA_THREADS` / [`rayon::with_thread_cap`] budget, so sweep workers and
//!   the engine never multiply into `workers × cores` threads. Per-node
//!   RNG streams depend only on `(seed, node, round)`, which makes parallel
//!   and sequential execution bit-for-bit identical.

use std::collections::BTreeMap;
use std::ops::{Deref, DerefMut};

use tsa_obs::ObsHandle;

use crate::adversary::Adversary;
use crate::churn::{apply_churn_plan, ChurnBudget, ChurnOutcome, PlanScratch};
use crate::config::SimConfig;
use crate::ids::{NodeId, Round};
use crate::knowledge::{CommGraph, KnowledgeView, MemberInfo, RoundRecord};
use crate::message::Envelope;
use crate::metrics::{
    record_round_obs, MetricsHistory, MetricsMode, MetricsSummary, RoundMetrics,
    RoundMetricsBuilder, StreamingMetrics,
};
use crate::node::{run_activation, ProtocolStep};

/// Rounds with fewer work items (nodes or delivered messages) than this run
/// their compute phase serially no matter the thread budget: the scoped
/// workers cost tens of microseconds to spawn and join, which would dominate
/// a round with little to do (the budget can change wall-clock only, never
/// an output bit, so this gate is free to be a heuristic).
pub const PARALLEL_WORK_THRESHOLD: usize = 2048;

/// The observability span names of one scheduler's phases.
#[derive(Clone, Copy, Debug)]
pub struct PhaseSpans {
    /// The churn phase.
    pub churn: &'static str,
    /// The deliver phase (the policy's batch, the scatter, sponsorships).
    pub deliver: &'static str,
    /// The compute phase; `None` folds it into the collect span.
    pub compute: Option<&'static str>,
    /// The collect phase (metrics, comm graph, routing every outbox).
    pub collect: &'static str,
}

/// How messages travel from the round that sends them to the round that
/// reads them — the one thing the schedulers do differently.
///
/// The [`Engine`] calls the hooks in a fixed order each round:
/// [`begin_round`](Self::begin_round), then [`depart`](Self::depart) /
/// [`join`](Self::join) for the churn it applies, then
/// [`deliver`](Self::deliver) and [`undeliverable`](Self::undeliverable),
/// then — after the compute phase — [`route`](Self::route) once per node in
/// id order, and finally [`end_round`](Self::end_round).
pub trait Delivery<P: ProtocolStep>: Sized {
    /// The scheduler's configuration: the shared [`SimConfig`] plus whatever
    /// the policy needs.
    type Config;

    /// The scheduler's phase span names.
    const SPANS: PhaseSpans;

    /// Splits a configuration into the shared part and the policy.
    fn build(config: Self::Config) -> (SimConfig, Self);

    /// Round `t` starts (before churn).
    fn begin_round(&mut self, _t: Round) {}

    /// Node `id` became a member (a genesis node or an accepted joiner).
    fn join(&mut self, _id: NodeId) {}

    /// Node `id` departed at the start of round `t`. Returns the number of
    /// messages that die with it, charged as drops of round `t`.
    fn depart(&mut self, _id: NodeId, _t: Round) -> usize {
        0
    }

    /// Appends round `t`'s deliverable messages to `batch` in global send
    /// order. Returns the number of messages the policy itself dropped.
    fn deliver(&mut self, t: Round, batch: &mut Vec<Envelope<P::Msg>>) -> usize;

    /// `count` messages of the batch found their receiver departed.
    fn undeliverable(&mut self, _count: usize) {}

    /// Takes node `from`'s round-`t` sends out of `out`. A policy that reads
    /// every message one round later pushes them onto `next`, which becomes
    /// round `t + 1`'s batch. Returns the number of messages lost on the way.
    fn route(
        &mut self,
        t: Round,
        from: NodeId,
        out: &mut Vec<(NodeId, P::Msg)>,
        next: &mut Vec<Envelope<P::Msg>>,
        obs: &ObsHandle,
    ) -> usize;

    /// Round `t` ends, after its metrics row went to `obs`.
    fn end_round(&mut self, _t: Round, _obs: &ObsHandle) {}

    /// Messages the policy holds that no activation has read yet.
    fn pending(&self) -> usize {
        0
    }

    /// The region of node `id` under the policy's topology, if it has one.
    fn region_of(&self, _id: NodeId) -> Option<u32> {
        None
    }
}

/// The round engine's delivery policy: every message sent in round `t` is
/// read in round `t + 1`, through a double buffer (the collect phase fills
/// the buffer the next deliver phase scatters).
#[derive(Clone, Copy, Debug, Default)]
pub struct NextRound;

impl<P: ProtocolStep> Delivery<P> for NextRound {
    type Config = SimConfig;

    const SPANS: PhaseSpans = PhaseSpans {
        churn: "sim.churn",
        deliver: "sim.deliver",
        compute: Some("sim.compute"),
        collect: "sim.scatter",
    };

    fn build(config: SimConfig) -> (SimConfig, Self) {
        (config, NextRound)
    }

    fn deliver(&mut self, _t: Round, _batch: &mut Vec<Envelope<P::Msg>>) -> usize {
        // Last round's collect already filled the batch.
        0
    }

    fn route(
        &mut self,
        t: Round,
        from: NodeId,
        out: &mut Vec<(NodeId, P::Msg)>,
        next: &mut Vec<Envelope<P::Msg>>,
        _obs: &ObsHandle,
    ) -> usize {
        for (to, payload) in out.drain(..) {
            next.push(Envelope::new(from, to, t, payload));
        }
        0
    }
}

/// A node in the engine: its protocol state plus per-round scratch that is
/// reused across rounds (outbox buffer, inbox/sponsorship ranges, digest).
struct NodeSlot<P: ProtocolStep> {
    id: NodeId,
    joined_at: Round,
    process: P,
    /// Reusable outbox buffer; routed by the policy each round.
    out: Vec<(NodeId, P::Msg)>,
    /// State digest captured at the end of the last compute phase.
    digest: u64,
    /// This round's inbox: `inboxes[inbox_start..inbox_start + inbox_len]`.
    inbox_start: usize,
    inbox_len: usize,
    /// This round's sponsorships: a range of `sponsored_ids`.
    sponsored_start: usize,
    sponsored_len: usize,
}

/// Creates the protocol state for a node that joins the network.
///
/// The factory receives the new node's identifier and the round it joins in.
/// It must not embed any knowledge of other nodes (a joining node knows
/// nothing until somebody messages it); protocol-level configuration is fine.
pub type NodeFactory<P> = Box<dyn Fn(NodeId, Round) -> P + Send>;

/// The scheduler core: membership, churn, delivery scatter, parallel
/// compute, sequential collect, history and metrics — everything the
/// schedulers share — over a [`Delivery`] policy `D`.
///
/// The engine dereferences to its policy, so a policy's own accessors (queue
/// depth, network counters, fault controls) read as engine methods.
pub struct Engine<P: ProtocolStep, A: Adversary, D> {
    config: SimConfig,
    adversary: A,
    factory: NodeFactory<P>,
    policy: D,
    /// Node slots, sorted by identifier (the append-only id sequence keeps
    /// joins in order; departures preserve order).
    slots: Vec<NodeSlot<P>>,
    members: BTreeMap<NodeId, MemberInfo>,
    /// The messages the next deliver phase scatters, in global send order.
    batch: Vec<Envelope<P::Msg>>,
    /// This round's inboxes: the scattered batch, grouped by receiver.
    inboxes: Vec<Envelope<P::Msg>>,
    /// Scratch: `(bootstrap, joiner)` pairs of the current round, sorted by
    /// bootstrap node.
    sponsored_pairs: Vec<(NodeId, NodeId)>,
    /// Scratch: joiner ids grouped contiguously per bootstrap node; slots
    /// reference ranges of this vector.
    sponsored_ids: Vec<NodeId>,
    /// Outbox buffers donated by departed nodes, reused by joining nodes.
    spare_outboxes: Vec<Vec<(NodeId, P::Msg)>>,
    /// Scratch: each batch envelope's receiver slot index (or the drop
    /// sentinel), computed during the delivery scatter.
    route_slots: Vec<usize>,
    /// Scratch: per-slot write cursors of the delivery scatter.
    route_cursors: Vec<usize>,
    /// Scratch for per-node distinct-receiver computation.
    dedup_scratch: Vec<NodeId>,
    /// Scratch for churn-plan validation (departure dedup, join fan-in).
    plan_scratch: PlanScratch,
    /// Round records trimmed out of the history window, recycled as scratch.
    spare_records: Vec<RoundRecord>,
    records: Vec<RoundRecord>,
    metrics: MetricsHistory,
    /// When set, finished rounds fold into these O(1) accumulators instead
    /// of growing the history ([`MetricsMode::Streaming`]).
    streaming: Option<StreamingMetrics>,
    /// Observability sink; [`ObsHandle::off`] by default, so the round loop
    /// pays one branch per probe and nothing else.
    obs: ObsHandle,
    budget: ChurnBudget,
    round: Round,
    next_id: u64,
    last_outcome: ChurnOutcome,
}

/// The round-synchronous simulator: the scheduler core under the
/// [`NextRound`] policy.
pub type Simulator<P, A> = Engine<P, A, NextRound>;

impl<P: ProtocolStep, A: Adversary, D> Deref for Engine<P, A, D> {
    type Target = D;

    fn deref(&self) -> &D {
        &self.policy
    }
}

impl<P: ProtocolStep, A: Adversary, D> DerefMut for Engine<P, A, D> {
    fn deref_mut(&mut self) -> &mut D {
        &mut self.policy
    }
}

impl<P: ProtocolStep, A: Adversary, D: Delivery<P>> Engine<P, A, D> {
    /// Creates an empty engine. Populate the initial node set `V_0` with
    /// [`Engine::seed_nodes`] before stepping.
    pub fn new(config: D::Config, adversary: A, factory: NodeFactory<P>) -> Self {
        let (config, policy) = D::build(config);
        Engine {
            config,
            adversary,
            factory,
            policy,
            slots: Vec::new(),
            members: BTreeMap::new(),
            batch: Vec::new(),
            inboxes: Vec::new(),
            sponsored_pairs: Vec::new(),
            sponsored_ids: Vec::new(),
            spare_outboxes: Vec::new(),
            route_slots: Vec::new(),
            route_cursors: Vec::new(),
            dedup_scratch: Vec::new(),
            plan_scratch: PlanScratch::default(),
            spare_records: Vec::new(),
            records: Vec::new(),
            metrics: MetricsHistory::new(),
            streaming: None,
            obs: ObsHandle::off(),
            budget: ChurnBudget::new(),
            round: 0,
            next_id: 0,
            last_outcome: ChurnOutcome::default(),
        }
    }

    /// Creates `count` initial nodes (the churn-free initial set `V_0`).
    /// Returns their identifiers.
    pub fn seed_nodes(&mut self, count: usize) -> Vec<NodeId> {
        let mut ids = Vec::with_capacity(count);
        self.slots.reserve(count);
        for _ in 0..count {
            let id = NodeId(self.next_id);
            self.next_id += 1;
            self.members.insert(
                id,
                MemberInfo {
                    joined_at: self.round,
                },
            );
            self.spawn_slot(id, self.round);
            ids.push(id);
        }
        ids
    }

    /// Materializes the engine-side slot (process + scratch) for a node that
    /// is already a member, and tells the policy.
    fn spawn_slot(&mut self, id: NodeId, round: Round) {
        let process = (self.factory)(id, round);
        let out = self.spare_outboxes.pop().unwrap_or_default();
        self.slots.push(NodeSlot {
            id,
            joined_at: round,
            process,
            out,
            digest: 0,
            inbox_start: 0,
            inbox_len: 0,
            sponsored_start: 0,
            sponsored_len: 0,
        });
        self.policy.join(id);
    }

    /// The slot index of `id`, if it is a current member.
    fn slot_index(&self, id: NodeId) -> Option<usize> {
        self.slots.binary_search_by_key(&id, |s| s.id).ok()
    }

    /// The current round (the next round to be executed).
    pub fn round(&self) -> Round {
        self.round
    }

    /// The shared simulation configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Number of nodes currently in the network.
    pub fn node_count(&self) -> usize {
        self.slots.len()
    }

    /// Identifiers of all current members, in ascending order.
    pub fn member_ids(&self) -> Vec<NodeId> {
        self.slots.iter().map(|s| s.id).collect()
    }

    /// The round a current member joined, if it exists.
    pub fn joined_at(&self, id: NodeId) -> Option<Round> {
        self.members.get(&id).map(|m| m.joined_at)
    }

    /// Immutable access to a node's protocol state.
    pub fn node(&self, id: NodeId) -> Option<&P> {
        self.slot_index(id).map(|i| &self.slots[i].process)
    }

    /// Iterates over `(id, protocol state)` pairs of all current members.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &P)> {
        self.slots.iter().map(|s| (s.id, &s.process))
    }

    /// Metrics collected so far. Empty under [`MetricsMode::Streaming`] —
    /// use [`metrics_summary`](Self::metrics_summary) /
    /// [`last_metrics`](Self::last_metrics) for mode-independent access.
    pub fn metrics(&self) -> &MetricsHistory {
        &self.metrics
    }

    /// Attaches an observability sink (or detaches it with
    /// [`ObsHandle::off`]). Safe to call at any point; recording starts with
    /// the next round.
    pub fn set_obs(&mut self, obs: ObsHandle) {
        self.obs = obs;
    }

    /// Selects how finished rounds are retained. Call before running:
    /// switching to `Streaming` starts fresh accumulators and leaves any
    /// already-recorded history rows where they are.
    pub fn set_metrics_mode(&mut self, mode: MetricsMode) {
        self.streaming = match mode {
            MetricsMode::Full => None,
            MetricsMode::Streaming => Some(StreamingMetrics::new()),
        };
    }

    /// The whole-run metrics digest, identical under both metrics modes.
    pub fn metrics_summary(&self) -> MetricsSummary {
        match &self.streaming {
            Some(s) => s.summary(),
            None => self.metrics.summary(),
        }
    }

    /// The most recent round's metrics, under either metrics mode.
    pub fn last_metrics(&self) -> Option<&RoundMetrics> {
        match &self.streaming {
            Some(s) => s.last(),
            None => self.metrics.last(),
        }
    }

    /// Archived round records (communication graphs and digests).
    pub fn records(&self) -> &[RoundRecord] {
        &self.records
    }

    /// The communication graph of `round`, if still archived.
    pub fn comm_graph_at(&self, round: Round) -> Option<&CommGraph> {
        self.records
            .iter()
            .find(|r| r.graph.round == round)
            .map(|r| &r.graph)
    }

    /// The region of node `id` under the policy's topology (`None` when the
    /// policy has no regions).
    pub fn region_of(&self, id: NodeId) -> Option<u32> {
        self.policy.region_of(id)
    }

    /// Number of distinct directed edges in the most recent archived
    /// communication graph that cross a region boundary of the policy's
    /// topology — the quantity that shows whether the two halves of a
    /// partition are still talking. 0 when the policy has no regions or
    /// nothing is archived yet.
    pub fn cross_region_edges(&self) -> usize {
        self.records.last().map_or(0, |rec| {
            rec.graph
                .edges
                .iter()
                .filter(
                    |&&(from, to)| match (self.region_of(from), self.region_of(to)) {
                        (Some(a), Some(b)) => a != b,
                        _ => false,
                    },
                )
                .count()
        })
    }

    /// The churn outcome of the most recently executed round.
    pub fn last_churn_outcome(&self) -> &ChurnOutcome {
        &self.last_outcome
    }

    /// Number of messages sent but not yet read by any activation.
    pub fn in_flight_count(&self) -> usize {
        self.batch.len() + self.policy.pending()
    }

    /// The adversary, for post-run inspection.
    pub fn adversary(&self) -> &A {
        &self.adversary
    }

    /// Executes `rounds` rounds.
    pub fn run(&mut self, rounds: u64) {
        if self.streaming.is_none() {
            self.metrics.reserve(rounds as usize);
        }
        for _ in 0..rounds {
            self.step();
        }
    }

    /// Executes a single round: churn → deliver → compute → collect.
    pub fn step(&mut self) {
        let t = self.round;
        let mut mb = RoundMetricsBuilder::new(t);
        self.policy.begin_round(t);

        // Phase 1: adversarial churn (suppressed during the bootstrap phase).
        // The previous round's outcome buffers are recycled.
        let span = self.obs.span_start();
        let mut outcome = std::mem::take(&mut self.last_outcome);
        outcome.departed.clear();
        outcome.joined.clear();
        outcome.rejected_departures.clear();
        outcome.rejected_joins.clear();
        let mut dropped = 0usize;
        if t >= self.config.churn_rules.bootstrap_rounds {
            let rules = self.config.churn_rules;
            let plan = {
                let view = KnowledgeView::new(
                    t,
                    self.config.lateness,
                    &self.records,
                    &self.members,
                    self.budget.remaining(t, &rules),
                    rules.min_bootstrap_age,
                );
                self.adversary.plan(t, &view)
            };
            // The shared arbiter validates the plan against budget and join
            // rules and updates the membership; the engine half follows:
            // departed slots donate their outbox buffers to the spare pool,
            // accepted joiners get fresh slots.
            apply_churn_plan(
                t,
                plan,
                &rules,
                &mut self.budget,
                &mut self.members,
                &mut self.next_id,
                &mut self.plan_scratch,
                &mut outcome,
            );
            for &id in outcome.departed.iter() {
                let idx = self.slot_index(id).expect("departed node has a slot");
                let mut out = self.slots.remove(idx).out;
                out.clear();
                self.spare_outboxes.push(out);
                dropped += self.policy.depart(id, t);
            }
            for &(id, _bootstrap) in outcome.joined.iter() {
                self.spawn_slot(id, t);
            }
        }
        mb.record_churn(outcome.departed.len(), outcome.joined.len());
        self.obs.span_end(D::SPANS.churn, span);

        // Phase 2: deliver the policy's batch to surviving receivers, then
        // hand every bootstrap node the joiners it sponsored.
        let span = self.obs.span_start();
        dropped += self.policy.deliver(t, &mut self.batch);
        let undeliverable = self.scatter();
        self.policy.undeliverable(undeliverable);
        dropped += undeliverable;
        self.group_sponsored(&outcome.joined);
        mb.record_node_count(self.slots.len());
        self.obs.span_end(D::SPANS.deliver, span);

        // Phase 3: compute. Every node steps exactly once; its RNG stream
        // depends only on (seed, id, round), so parallel and sequential
        // execution produce identical results. Work is stolen at node
        // granularity; the worker count honours the TSA_THREADS /
        // with_thread_cap budget so nested parallelism (e.g. under a sweep
        // worker) stays within the machine.
        let seed = self.config.seed;
        let hash_seed = self.config.hash_seed;
        let record_digests = self.config.record_digests;
        let work_items = self.slots.len().max(self.inboxes.len());
        let threads = if self.config.parallel && work_items >= PARALLEL_WORK_THRESHOLD {
            rayon::current_num_threads()
        } else {
            1
        };
        let span = self.obs.span_start();
        {
            let inboxes = &self.inboxes;
            let sponsored_ids = &self.sponsored_ids;
            rayon::for_each_index_mut(&mut self.slots, threads, |_, slot| {
                let inbox = &inboxes[slot.inbox_start..slot.inbox_start + slot.inbox_len];
                let sponsored =
                    &sponsored_ids[slot.sponsored_start..slot.sponsored_start + slot.sponsored_len];
                let (out, digest) = run_activation(
                    &mut slot.process,
                    slot.id,
                    t,
                    slot.joined_at,
                    sponsored,
                    seed,
                    hash_seed,
                    inbox,
                    std::mem::take(&mut slot.out),
                    record_digests,
                );
                slot.out = out;
                slot.digest = digest;
            });
        }
        let span = match D::SPANS.compute {
            Some(name) => {
                self.obs.span_end(name, span);
                self.obs.span_start()
            }
            None => span,
        };

        // Phase 4: collect, sequentially in id order: record the
        // communication graph and per-node metrics, and let the policy
        // route every outbox. All buffers are reused, so the steady state
        // allocates nothing.
        let mut rec = self.spare_records.pop().unwrap_or_default();
        rec.graph.round = t;
        let mut lost = 0usize;
        {
            let scratch = &mut self.dedup_scratch;
            let obs = &self.obs;
            let obs_on = obs.is_on();
            for slot in self.slots.iter_mut() {
                mb.record_received(slot.id, slot.inbox_len);
                if obs_on {
                    // Per-node inbox sizes: messages this activation read.
                    obs.observe("proto.inbox_len", slot.inbox_len as u64);
                }
                scratch.clear();
                scratch.extend(slot.out.iter().map(|(to, _)| *to));
                scratch.sort_unstable();
                scratch.dedup();
                mb.record_sent(slot.id, slot.out.len(), scratch.len());
                for &to in scratch.iter() {
                    rec.graph.edges.push((slot.id, to));
                }
                if record_digests {
                    rec.digests.push((slot.id, slot.digest));
                }
                lost += self
                    .policy
                    .route(t, slot.id, &mut slot.out, &mut self.batch, obs);
                rec.graph.members.push(slot.id);
            }
        }
        // Receiver-departed drops are charged to the delivery round, losses
        // on the way to the sending round.
        mb.record_dropped(dropped + lost);
        rec.graph.edges.sort_unstable();
        rec.graph.edges.dedup();
        self.archive(rec);
        self.obs.span_end(D::SPANS.collect, span);

        let row = mb.finish();
        if self.obs.is_on() {
            record_round_obs(&self.obs, &row);
        }
        self.policy.end_round(t, &self.obs);
        match &mut self.streaming {
            Some(s) => s.push(row),
            None => self.metrics.push(row),
        }
        self.last_outcome = outcome;
        self.round += 1;
    }

    /// Moves the batch into `inboxes` as a stable counting scatter: locate
    /// each envelope's receiver slot (binary search), prefix-sum the counts
    /// into per-slot ranges, then move every delivered envelope into its
    /// range. Each node's inbox is then one contiguous slice, grouped in
    /// slot (= id) order with send order preserved within each group —
    /// exactly what a stable sort by receiver would produce, but with no
    /// sort scratch. Returns the number of envelopes whose receiver is no
    /// longer a member.
    fn scatter(&mut self) -> usize {
        const DROP: usize = usize::MAX;
        for slot in self.slots.iter_mut() {
            slot.inbox_len = 0;
        }
        let mut dropped = 0usize;
        self.route_slots.clear();
        for env in self.batch.iter() {
            match self.slots.binary_search_by_key(&env.to, |s| s.id) {
                Ok(idx) => {
                    self.slots[idx].inbox_len += 1;
                    self.route_slots.push(idx);
                }
                Err(_) => {
                    dropped += 1;
                    self.route_slots.push(DROP);
                }
            }
        }
        let mut delivered = 0usize;
        self.route_cursors.clear();
        for slot in self.slots.iter_mut() {
            slot.inbox_start = delivered;
            self.route_cursors.push(delivered);
            delivered += slot.inbox_len;
        }
        self.inboxes.clear();
        self.inboxes.reserve(delivered);
        {
            let spare = self.inboxes.spare_capacity_mut();
            for (env, &slot_idx) in self.batch.drain(..).zip(self.route_slots.iter()) {
                if slot_idx == DROP {
                    continue; // receiver departed before delivery
                }
                let cursor = &mut self.route_cursors[slot_idx];
                spare[*cursor].write(env);
                *cursor += 1;
            }
        }
        // SAFETY: the prefix sums partition 0..delivered into disjoint
        // per-slot ranges; every non-dropped envelope was written through
        // exactly one cursor, and each cursor advanced exactly `inbox_len`
        // times within its slot's range — so all `delivered` spare elements
        // are initialized.
        unsafe {
            self.inboxes.set_len(delivered);
        }
        dropped
    }

    /// Groups this round's joiners contiguously by bootstrap node (the
    /// stable sort keeps joiners in join order within each bootstrap) and
    /// points every bootstrap slot at its range.
    fn group_sponsored(&mut self, joined: &[(NodeId, NodeId)]) {
        for slot in self.slots.iter_mut() {
            slot.sponsored_start = 0;
            slot.sponsored_len = 0;
        }
        self.sponsored_pairs.clear();
        self.sponsored_pairs.extend(
            joined
                .iter()
                .map(|&(joiner, bootstrap)| (bootstrap, joiner)),
        );
        self.sponsored_pairs
            .sort_by_key(|&(bootstrap, _)| bootstrap);
        self.sponsored_ids.clear();
        self.sponsored_ids
            .extend(self.sponsored_pairs.iter().map(|&(_, joiner)| joiner));
        let mut s = 0usize;
        let mut k = 0usize;
        while k < self.sponsored_pairs.len() {
            let bootstrap = self.sponsored_pairs[k].0;
            let run_start = k;
            while k < self.sponsored_pairs.len() && self.sponsored_pairs[k].0 == bootstrap {
                k += 1;
            }
            while s < self.slots.len() && self.slots[s].id < bootstrap {
                s += 1;
            }
            if s < self.slots.len() && self.slots[s].id == bootstrap {
                self.slots[s].sponsored_start = run_start;
                self.slots[s].sponsored_len = k - run_start;
            }
        }
    }

    /// Archives a finished round's record, trimming the history window and
    /// recycling trimmed records as scratch.
    fn archive(&mut self, rec: RoundRecord) {
        self.records.push(rec);
        if let Some(window) = self.config.history_window {
            while self.records.len() > window {
                let mut old = self.records.remove(0);
                old.graph.edges.clear();
                old.graph.members.clear();
                old.digests.clear();
                self.spare_records.push(old);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::NullAdversary;
    use crate::churn::{ChurnPlan, ChurnRules, JoinPlan};
    use crate::knowledge::Lateness;
    use crate::node::{Ctx, Process};

    /// A protocol where every node floods a counter to the two numerically
    /// adjacent identifiers each round.
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
            let round = ctx.round();
            ctx.send(NodeId(me.wrapping_add(1)), round);
            if me > 0 {
                ctx.send(NodeId(me - 1), round);
            }
        }
        fn state_digest(&self) -> u64 {
            self.heard.len() as u64
        }
    }

    fn sim(parallel: bool) -> Simulator<Ping, NullAdversary> {
        let config = SimConfig::default().with_seed(1).with_parallel(parallel);
        Simulator::new(config, NullAdversary, Box::new(|_, _| Ping::default()))
    }

    #[test]
    fn messages_take_exactly_one_round() {
        let mut s = sim(false);
        s.seed_nodes(4);
        s.step();
        // Round 0: everyone sent, nobody received yet.
        assert_eq!(s.metrics().rounds()[0].messages_delivered, 0);
        assert!(s.in_flight_count() > 0);
        s.step();
        assert!(s.metrics().rounds()[1].messages_delivered > 0);
        // Node 1 heard from node 0 and node 2.
        assert_eq!(s.node(NodeId(1)).unwrap().heard.len(), 2);
    }

    #[test]
    fn sequential_and_parallel_runs_are_identical() {
        let mut a = sim(false);
        let mut b = sim(true);
        a.seed_nodes(16);
        b.seed_nodes(16);
        a.run(6);
        b.run(6);
        for id in a.member_ids() {
            assert_eq!(
                a.node(id).unwrap().heard,
                b.node(id).unwrap().heard,
                "divergence at {id}"
            );
        }
        assert_eq!(a.metrics().total_messages(), b.metrics().total_messages());
    }

    #[test]
    fn parallel_runs_are_identical_across_thread_budgets() {
        // The determinism contract of the parallel compute phase: with the
        // thread budget pinned at 1, 2 and 4 workers, a fixed-seed run is
        // bit-for-bit identical (inboxes, metrics, comm graphs, digests).
        let run_with_cap = |cap: usize| {
            rayon::with_thread_cap(cap, || {
                let config = SimConfig::default().with_seed(9).with_parallel(true);
                let mut s = Simulator::new(config, NullAdversary, Box::new(|_, _| Ping::default()));
                // Enough nodes that the in-flight volume crosses the
                // parallel work threshold, so capped workers really run.
                s.seed_nodes(1200);
                s.run(6);
                let heard: Vec<Vec<u64>> = s
                    .member_ids()
                    .iter()
                    .map(|&id| s.node(id).unwrap().heard.clone())
                    .collect();
                let edges = s.records().last().unwrap().graph.edges.clone();
                (heard, edges, s.metrics().total_messages())
            })
        };
        let baseline = run_with_cap(1);
        for cap in [2usize, 4] {
            assert_eq!(run_with_cap(cap), baseline, "divergence at {cap} threads");
        }
    }

    #[test]
    fn steady_state_rounds_do_not_grow_scratch_buffers() {
        // After a warm-up round at a fixed node count, the reusable buffers
        // must have reached their steady-state capacities: further rounds
        // reuse them instead of growing them.
        let config = SimConfig::default()
            .with_seed(3)
            .with_history_window(4)
            .with_parallel(false);
        let mut s = Simulator::new(config, NullAdversary, Box::new(|_, _| Ping::default()));
        s.seed_nodes(32);
        s.run(3);
        let caps = |s: &Simulator<Ping, NullAdversary>| {
            (
                s.batch.capacity(),
                s.inboxes.capacity(),
                s.dedup_scratch.capacity(),
                s.slots
                    .iter()
                    .map(|slot| slot.out.capacity())
                    .sum::<usize>(),
            )
        };
        let warm = caps(&s);
        s.run(20);
        assert_eq!(caps(&s), warm, "steady-state rounds must not reallocate");
        assert_eq!(s.records().len(), 4, "window bounds the archive");
    }

    #[test]
    fn comm_graph_records_edges() {
        let mut s = sim(false);
        s.seed_nodes(3);
        s.step();
        let g = s.comm_graph_at(0).unwrap();
        assert!(g.edges.contains(&(NodeId(0), NodeId(1))));
        assert!(g.edges.contains(&(NodeId(1), NodeId(0))));
        assert_eq!(g.members.len(), 3);
    }

    struct OneShotChurn;
    impl Adversary for OneShotChurn {
        fn plan(&mut self, round: Round, view: &KnowledgeView<'_>) -> ChurnPlan {
            if round == 2 {
                // Pick a bootstrap node that is not the one we churn out.
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

    #[test]
    fn churn_removes_and_adds_nodes() {
        let config = SimConfig::default().with_churn_rules(ChurnRules {
            max_events: Some(10),
            window: 4,
            ..ChurnRules::default()
        });
        let mut s = Simulator::new(config, OneShotChurn, Box::new(|_, _| Ping::default()));
        s.seed_nodes(4);
        s.run(3);
        assert!(!s.member_ids().contains(&NodeId(0)), "node 0 departed");
        assert_eq!(s.node_count(), 4, "one left, one joined");
        let outcome = s.last_churn_outcome();
        assert_eq!(outcome.departed, vec![NodeId(0)]);
        assert_eq!(outcome.joined.len(), 1);
        assert!(s.joined_at(outcome.joined[0].0) == Some(2));
    }

    #[test]
    fn departed_nodes_do_not_receive_messages() {
        let config = SimConfig::default().with_churn_rules(ChurnRules {
            max_events: Some(10),
            window: 4,
            ..ChurnRules::default()
        });
        let mut s = Simulator::new(config, OneShotChurn, Box::new(|_, _| Ping::default()));
        s.seed_nodes(4);
        s.run(4);
        // Messages addressed to node 0 in round 1 were dropped in round 2.
        assert!(s.metrics().rounds()[2].messages_dropped > 0);
    }

    struct GreedyChurn;
    impl Adversary for GreedyChurn {
        fn plan(&mut self, _round: Round, view: &KnowledgeView<'_>) -> ChurnPlan {
            // Try to delete every node, every round.
            ChurnPlan {
                departures: view.members().map(|(id, _)| id).collect(),
                joins: Vec::new(),
            }
        }
    }

    #[test]
    fn engine_enforces_churn_budget() {
        let config = SimConfig::default().with_churn_rules(ChurnRules {
            max_events: Some(2),
            window: 100,
            ..ChurnRules::default()
        });
        let mut s = Simulator::new(config, GreedyChurn, Box::new(|_, _| Ping::default()));
        s.seed_nodes(10);
        s.run(5);
        assert_eq!(s.node_count(), 8, "only 2 departures fit the budget");
        assert!(s.last_churn_outcome().had_rejections());
    }

    struct FreshBootstrapChurn;
    impl Adversary for FreshBootstrapChurn {
        fn plan(&mut self, round: Round, _view: &KnowledgeView<'_>) -> ChurnPlan {
            if round == 1 {
                // Node 0 joined at round 0, so at round 1 it is too fresh to
                // bootstrap anyone (min age 2).
                ChurnPlan {
                    departures: vec![],
                    joins: vec![JoinPlan {
                        bootstrap: NodeId(0),
                    }],
                }
            } else {
                ChurnPlan::none()
            }
        }
    }

    #[test]
    fn engine_enforces_bootstrap_age() {
        let config = SimConfig::default().with_churn_rules(ChurnRules {
            max_events: Some(100),
            window: 10,
            min_bootstrap_age: 2,
            ..ChurnRules::default()
        });
        let mut s = Simulator::new(
            config,
            FreshBootstrapChurn,
            Box::new(|_, _| Ping::default()),
        );
        s.seed_nodes(2);
        s.run(2);
        assert_eq!(s.node_count(), 2, "join via too-fresh bootstrap rejected");
        assert_eq!(s.last_churn_outcome().rejected_joins.len(), 1);
    }

    #[test]
    fn bootstrap_phase_suppresses_churn() {
        let config = SimConfig::default().with_churn_rules(ChurnRules {
            max_events: Some(100),
            window: 10,
            bootstrap_rounds: 3,
            ..ChurnRules::default()
        });
        let mut s = Simulator::new(config, GreedyChurn, Box::new(|_, _| Ping::default()));
        s.seed_nodes(5);
        s.run(3);
        assert_eq!(s.node_count(), 5, "no churn during the bootstrap phase");
        s.step();
        assert!(
            s.node_count() < 5,
            "churn resumes after the bootstrap phase"
        );
    }

    #[test]
    fn history_window_trims_records() {
        let config = SimConfig::default().with_history_window(3);
        let mut s = Simulator::new(config, NullAdversary, Box::new(|_, _| Ping::default()));
        s.seed_nodes(2);
        s.run(10);
        assert_eq!(s.records().len(), 3);
        assert_eq!(s.records()[0].graph.round, 7);
    }

    #[test]
    fn sponsored_nodes_are_visible_to_their_bootstrap() {
        // Protocol that records sponsorships.
        #[derive(Default)]
        struct Sponsor {
            sponsored: Vec<NodeId>,
        }
        impl Process for Sponsor {
            type Msg = ();
            fn on_round(&mut self, ctx: &mut Ctx<'_, ()>, _inbox: &[Envelope<()>]) {
                self.sponsored.extend_from_slice(ctx.sponsored());
            }
        }
        struct JoinOnce;
        impl Adversary for JoinOnce {
            fn plan(&mut self, round: Round, _v: &KnowledgeView<'_>) -> ChurnPlan {
                if round == 3 {
                    ChurnPlan {
                        departures: vec![],
                        joins: vec![JoinPlan {
                            bootstrap: NodeId(0),
                        }],
                    }
                } else {
                    ChurnPlan::none()
                }
            }
        }
        let config = SimConfig::default().with_churn_rules(ChurnRules {
            max_events: Some(10),
            window: 10,
            ..ChurnRules::default()
        });
        let mut s = Simulator::new(config, JoinOnce, Box::new(|_, _| Sponsor::default()));
        s.seed_nodes(2);
        s.run(4);
        assert_eq!(s.node(NodeId(0)).unwrap().sponsored.len(), 1);
        assert!(s.node(NodeId(1)).unwrap().sponsored.is_empty());
    }

    #[test]
    fn lateness_config_is_respected_end_to_end() {
        // An adversary that asserts it cannot see the most recent topology.
        struct Checker;
        impl Adversary for Checker {
            fn plan(&mut self, round: Round, view: &KnowledgeView<'_>) -> ChurnPlan {
                if round >= 3 {
                    assert!(view.topology_at(round - 1).is_none());
                    assert!(view.topology_at(round - 2).is_some());
                }
                ChurnPlan::none()
            }
        }
        let config = SimConfig::default().with_lateness(Lateness {
            topology: 2,
            state: 50,
        });
        let mut s = Simulator::new(config, Checker, Box::new(|_, _| Ping::default()));
        s.seed_nodes(3);
        s.run(6);
    }
}
