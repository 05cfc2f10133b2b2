//! The maintenance-protocol node: `A_LDS` (Listing 3) + `A_RANDOM` (Listing 4).
//!
//! Every node executes the same state machine on top of the round-synchronous
//! simulator. Overlay epoch `e` spans the even round `2e` (forwarding step of
//! `A_ROUTING` on the overlay `D_e`) and the odd round `2e + 1` (handover from
//! `D_e` to `D_{e+1}` plus neighbour introductions for `D_{e+1}`).
//!
//! The life of a (re-)join request started by a mature node `u` in epoch `s`:
//!
//! 1. even round `2s`: `u` computes the future position `h(v, s+λ+1)` for
//!    itself and every fresh node `v` it sponsors and sends the first
//!    forwarding copies towards the trajectory point `x_1`;
//! 2. the copies alternate forwarding (even rounds, current overlay) and
//!    handover (odd rounds, next overlay) steps, reaching the swarm of the
//!    target position after `λ` forwarding steps, in even round `2(s+λ)`;
//! 3. the swarm members spread the announcement (`AnnounceJoin`) to every
//!    current member whose position falls in the three responsibility
//!    intervals of the announced position;
//! 4. odd round `2(s+λ)+1`: every member that collected announcements
//!    introduces future neighbours to each other (`Create` messages);
//! 5. even round `2(s+λ+1)`: the `Create` messages arrive and form the
//!    neighbour sets of `D_{s+λ+1}` — the overlay has been rebuilt from
//!    scratch, two rounds after the adversary last saw anything about it.
//!
//! In parallel, `A_RANDOM` floats tokens (mature node identifiers) to uniform
//! random members via the same routing pipeline; fresh nodes spend tokens to
//! send `Connect` requests so that `Θ(δ)` mature nodes know them and keep
//! re-injecting them into the overlay.
//!
//! Deviations from the paper (documented in DESIGN.md): the bootstrap
//! construction of `D_0 … D_λ` is realized by letting the initial ("genesis")
//! nodes derive their neighbourhoods from the known initial member set during
//! the churn-free bootstrap phase, and token pools are small bounded FIFOs
//! instead of being cleared every round.

use std::collections::HashSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use rand::Rng;

use tsa_sim::{Ctx, Envelope, NodeId, Process, Round};

use crate::byzantine::MisbehaviorKind;
use crate::messages::ProtocolMsg;
use crate::params::MaintenanceParams;
use crate::snapshot::{NodeSnapshot, NodeStats};

/// A neighbour entry: identifier plus position in the relevant epoch.
pub(crate) type Neighbor = (NodeId, f64);

/// Ring distance on `[0,1)` for raw `f64` positions (hot path; avoids going
/// through the `Position` newtype for every comparison).
#[inline]
pub(crate) fn ring_distance(a: f64, b: f64) -> f64 {
    let d = (a - b).abs();
    if d <= 0.5 {
        d
    } else {
        1.0 - d
    }
}

/// The node state machine of the maintenance protocol.
pub struct ProtocolNode {
    params: MaintenanceParams,
    /// The initial member set, available only to genesis nodes and only used
    /// for epochs `< genesis_epochs` (the bootstrap substitute).
    genesis: Option<Arc<Vec<NodeId>>>,
    joined_at: Option<Round>,
    /// Neighbour set of the current overlay epoch.
    d_neighbors: Vec<Neighbor>,
    /// Epoch `d_neighbors` belongs to.
    d_epoch: u64,
    /// This node's own position in `d_epoch`.
    d_position: f64,
    /// Announced `(node, position)` pairs for the *next* epoch, collected
    /// during the current odd round (the `H_t` variable of Listing 3).
    h_entries: Vec<Neighbor>,
    /// Token pool (identifiers of mature nodes), bounded FIFO.
    tokens: Vec<NodeId>,
    /// Connect slots (`c_1 … c_{2δ}` of Listing 4).
    slots: Vec<Option<NodeId>>,
    /// Token owners this node spent on neighbor repair in its last round
    /// (the samples behind the per-region sampling-age probe). Engine-side
    /// state only — deliberately not part of [`NodeStats`] or the snapshot,
    /// so artifacts are unaffected.
    repair_sampled: Vec<NodeId>,
    /// Statistics for the experiments.
    stats: NodeStats,
    /// When `Some`, the node runs this misbehavior instead of the honest
    /// protocol (`None` leaves the honest path untouched).
    byzantine: Option<MisbehaviorKind>,
    /// Working buffers of the activations.
    scratch: Scratch,
}

/// The working buffers of one activation, cleared and refilled every round:
/// once they reach their high-water capacity, a steady-state activation
/// allocates nothing.
#[derive(Default)]
struct Scratch {
    /// Route copies handled this round.
    seen: HashSet<RouteKey, BuildHasherDefault<KeyHasher>>,
    /// Nodes introduced (even round) or announced (odd round) so far.
    ids: HashSet<NodeId, BuildHasherDefault<KeyHasher>>,
    /// Delivered joins `(node, target epoch, position)` and tokens
    /// `(receiver, owner)`, sent after every relay.
    announcements: Vec<(NodeId, u64, f64)>,
    token_deliveries: Vec<(NodeId, NodeId)>,
    /// This node and the fresh nodes it sponsors.
    joiners: Vec<NodeId>,
    /// The receivers of one step: a swarm, the members responsible for an
    /// announced position, or the tokens picked from the pool.
    members: Vec<NodeId>,
    /// `(clockwise offset, member)` pairs of the sampling delivery rule.
    offsets: Vec<(f64, NodeId)>,
    /// The inbox a selective forwarder lets through.
    censored: Vec<Envelope<ProtocolMsg>>,
}

impl ProtocolNode {
    /// Creates a node. `genesis` is `Some(initial member set)` for nodes
    /// created before the simulation starts and `None` for nodes churned in
    /// later.
    pub fn new(params: MaintenanceParams, genesis: Option<Arc<Vec<NodeId>>>) -> Self {
        let slots = vec![None; params.connect_slots()];
        ProtocolNode {
            params,
            genesis,
            joined_at: None,
            d_neighbors: Vec::new(),
            d_epoch: u64::MAX,
            d_position: 0.0,
            h_entries: Vec::new(),
            tokens: Vec::new(),
            slots,
            repair_sampled: Vec::new(),
            stats: NodeStats::default(),
            byzantine: None,
            scratch: Scratch::default(),
        }
    }

    /// Assigns (or clears) the node's byzantine role. Call before its first
    /// round; the harness factory does this from
    /// [`MaintenanceParams::byzantine`].
    pub fn set_byzantine(&mut self, kind: Option<MisbehaviorKind>) {
        self.byzantine = kind;
    }

    /// The node's byzantine role, if any.
    pub fn byzantine_kind(&self) -> Option<MisbehaviorKind> {
        self.byzantine
    }

    /// The protocol parameters.
    pub fn params(&self) -> &MaintenanceParams {
        &self.params
    }

    /// `true` if this node was part of the initial network.
    pub fn is_genesis(&self) -> bool {
        self.genesis.is_some()
    }

    /// The node's age in rounds (0 before its first round).
    pub fn age(&self, now: Round) -> Round {
        self.joined_at.map(|j| now.saturating_sub(j)).unwrap_or(0)
    }

    /// `true` if the node counts as *mature* at `now` (genesis nodes are
    /// mature from the start; others after `λ' = 2λ + 4` rounds).
    pub fn is_mature(&self, now: Round) -> bool {
        self.is_genesis() || self.age(now) >= self.params.maturity_age()
    }

    /// `true` if the node currently holds a neighbour set for epoch `epoch`
    /// (i.e. it is actually wired into the overlay).
    pub fn participates(&self, epoch: u64) -> bool {
        self.d_epoch == epoch && !self.d_neighbors.is_empty()
    }

    /// The token owners this node spent on neighbor repair in its last
    /// round (empty when it did not repair). The per-region sampling-age
    /// probe reads these after every step.
    pub fn repair_samples(&self) -> &[NodeId] {
        &self.repair_sampled
    }

    /// A copy of the node's observable state for analysis.
    pub fn snapshot(&self, now: Round) -> NodeSnapshot {
        NodeSnapshot {
            joined_at: self.joined_at.unwrap_or(now),
            mature: self.is_mature(now),
            genesis: self.is_genesis(),
            epoch: self.d_epoch,
            participating: !self.d_neighbors.is_empty(),
            neighbors: self.d_neighbors.iter().map(|(id, _)| *id).collect(),
            tokens_on_hand: self.tokens.len(),
            slots_used: self.slots.iter().filter(|s| s.is_some()).count(),
            stats: self.stats.clone(),
        }
    }

    // ------------------------------------------------------------------
    // Neighbourhood helpers
    // ------------------------------------------------------------------

    /// `true` if the bootstrap substitute applies to `epoch` for this node.
    fn genesis_applies(&self, epoch: u64) -> bool {
        self.genesis.is_some() && epoch < self.params.genesis_epochs
    }

    /// Computes the Definition-5 neighbour set of this node for a genesis
    /// epoch directly from the initial member set.
    fn genesis_neighbors(&self, ctx: &Ctx<'_, ProtocolMsg>, epoch: u64) -> Vec<Neighbor> {
        let Some(genesis) = &self.genesis else {
            return Vec::new();
        };
        let own = ctx.position_hash(ctx.id(), epoch);
        let mut out = Vec::new();
        for &v in genesis.iter() {
            if v == ctx.id() {
                continue;
            }
            let p = ctx.position_hash(v, epoch);
            if self.are_neighbors(own, p) {
                out.push((v, p));
            }
        }
        out
    }

    /// Appends to `out` the members of overlay epoch `epoch` within `radius`
    /// of `point` that this node knows of. For the current epoch
    /// (`d_epoch`) those are its neighbours and itself; for the next one,
    /// the collected announcements, or genesis knowledge during bootstrap.
    fn members_near(
        &self,
        ctx: &Ctx<'_, ProtocolMsg>,
        epoch: u64,
        point: f64,
        radius: f64,
        out: &mut Vec<NodeId>,
    ) {
        let near = |p: f64| ring_distance(p, point) <= radius;
        let current = epoch == self.d_epoch;
        match (&self.genesis, current) {
            (Some(g), false) if self.genesis_applies(epoch) => {
                out.extend(g.iter().filter(|&&v| near(ctx.position_hash(v, epoch))));
            }
            (_, false) => out.extend(self.h_entries.iter().filter(|n| near(n.1)).map(|n| n.0)),
            (_, true) => out.extend(self.d_neighbors.iter().filter(|n| near(n.1)).map(|n| n.0)),
        }
        if current && near(self.d_position) {
            out.push(ctx.id());
        }
    }

    /// The three responsibility intervals of a position `p` in the next
    /// overlay, expressed as `(center, radius)` pairs: `⟨p ± 2cλ/n⟩`,
    /// `⟨p/2 ± 3cλ/2n⟩`, `⟨(p+1)/2 ± 3cλ/2n⟩`.
    fn responsibility(&self, p: f64) -> [(f64, f64); 3] {
        [
            (p, self.params.overlay.list_radius()),
            (p / 2.0, self.params.overlay.debruijn_radius()),
            ((p + 1.0) / 2.0, self.params.overlay.debruijn_radius()),
        ]
    }

    /// `true` if a node at position `q` is a Definition-5 neighbour (in either
    /// direction) of a node at position `p`.
    fn are_neighbors(&self, p: f64, q: f64) -> bool {
        let list_r = self.params.overlay.list_radius();
        let db_r = self.params.overlay.debruijn_radius();
        ring_distance(p, q) <= list_r
            || ring_distance(p / 2.0, q) <= db_r
            || ring_distance((p + 1.0) / 2.0, q) <= db_r
            || ring_distance(q / 2.0, p) <= db_r
            || ring_distance((q + 1.0) / 2.0, p) <= db_r
    }

    /// The `i`-th most significant bit (1-indexed) of `target`'s λ-bit prefix.
    fn target_bit(&self, target: f64, i: u32) -> u8 {
        let lambda = self.params.lambda();
        let bits = (target * (1u64 << lambda) as f64) as u64;
        let bits = bits.min((1u64 << lambda) - 1);
        ((bits >> (lambda - i)) & 1) as u8
    }

    // ------------------------------------------------------------------
    // Even round: forwarding, delivery, join/token emission (Listing 3 even
    // block + Listing 4).
    // ------------------------------------------------------------------

    fn even_round(
        &mut self,
        ctx: &mut Ctx<'_, ProtocolMsg>,
        inbox: &[Envelope<ProtocolMsg>],
        epoch: u64,
        s: &mut Scratch,
    ) {
        let lambda = self.params.lambda();
        let swarm_r = self.params.swarm_radius();

        // (1) Assemble this epoch's neighbour set from the CREATE messages
        //     (or from genesis knowledge during the bootstrap phase).
        //     A node introduced more than once keeps its first introduction.
        s.ids.clear();
        self.d_neighbors.clear();
        self.d_neighbors
            .extend(inbox.iter().filter_map(|env| match env.payload {
                ProtocolMsg::Create {
                    node,
                    epoch: e,
                    position,
                } if e == epoch && node != ctx.id() && s.ids.insert(node) => Some((node, position)),
                _ => None,
            }));
        self.d_neighbors.sort_unstable_by_key(|a| a.0);
        self.stats.creates_received += self.d_neighbors.len();
        if self.genesis_applies(epoch) {
            self.d_neighbors = self.genesis_neighbors(ctx, epoch);
        }
        self.d_epoch = epoch;
        self.d_position = ctx.position_hash(ctx.id(), epoch);
        let participating = !self.d_neighbors.is_empty();
        if participating {
            self.stats.epochs_participated += 1;
        }

        // (2) Advance in-flight route messages (forwarding step) and deliver
        //     completed ones. Deduplicate copies of the same logical message.
        s.seen.clear();
        s.announcements.clear();
        s.token_deliveries.clear();
        for env in inbox {
            let Some((key, _)) = route_copy(&env.payload) else {
                continue;
            };
            self.stats.route_copies_received += 1;
            if !participating || !s.seen.insert(key) {
                continue;
            }
            // The key's last field is the copy's trajectory step.
            let delivered = key.3 >= lambda;
            match env.payload {
                ProtocolMsg::RouteJoin {
                    node, target_epoch, ..
                } => {
                    let target = ctx.position_hash(node, target_epoch);
                    if delivered {
                        // Delivered: spread the announcement (Listing 3 line 10).
                        s.announcements.push((node, target_epoch, target));
                    } else {
                        self.forward(ctx, epoch, env.payload, target, &mut s.members);
                    }
                }
                ProtocolMsg::RouteToken {
                    owner,
                    delta,
                    target,
                    ..
                } => {
                    if delivered {
                        // Sampling delivery rule (Listing 2): pick the swarm
                        // member with exactly `delta` members clockwise
                        // between the target point and itself.
                        s.members.clear();
                        self.members_near(ctx, epoch, target, swarm_r, &mut s.members);
                        if let Some(receiver) = delta_select(
                            ctx,
                            epoch,
                            &s.members,
                            target,
                            delta as usize,
                            &mut s.offsets,
                        ) {
                            s.token_deliveries.push((receiver, owner));
                        }
                    } else {
                        self.forward(ctx, epoch, env.payload, target, &mut s.members);
                    }
                }
                _ => {}
            }
        }

        // Spread announcements to every current member responsible for the
        // announced position (Listing 3 line 10).
        for &(node, target_epoch, position) in &s.announcements {
            self.stats.joins_delivered += 1;
            s.members.clear();
            for (center, radius) in self.responsibility(position) {
                self.members_near(ctx, epoch, center, radius, &mut s.members);
            }
            s.members.sort_unstable();
            s.members.dedup();
            for &to in &s.members {
                ctx.send(
                    to,
                    ProtocolMsg::AnnounceJoin {
                        node,
                        epoch: target_epoch,
                        position,
                    },
                );
            }
        }
        for &(to, owner) in &s.token_deliveries {
            ctx.send(to, ProtocolMsg::Token { owner });
        }

        // (3) Start new join requests for this node and every fresh node it
        //     currently sponsors (Listing 3 lines 14-17), plus the per-round
        //     token emission of A_RANDOM (Listing 4). A fresh request is a
        //     step-0 copy at this node's own position.
        if participating && self.is_mature(ctx.round()) {
            let own = self.d_position;
            let target_epoch = epoch + lambda as u64 + 1;
            s.joiners.clear();
            s.joiners.push(ctx.id());
            s.joiners.extend(self.slots.iter().flatten());
            s.joiners.sort_unstable();
            s.joiners.dedup();
            for &node in &s.joiners {
                self.stats.joins_started += 1;
                let target = ctx.position_hash(node, target_epoch);
                let request = ProtocolMsg::RouteJoin {
                    node,
                    target_epoch,
                    step: 0,
                    point: own,
                };
                self.forward(ctx, epoch, request, target, &mut s.members);
            }

            // Token emission: τ tokens carrying this node's identifier, each
            // routed to a uniformly random point with a uniform offset Δ.
            let max_delta = (2.0 * self.params.overlay.c * lambda as f64).round() as u32;
            for _ in 0..self.params.tau {
                let target: f64 = ctx.rng.gen();
                let delta: u32 = ctx.rng.gen_range(0..=max_delta);
                let token = ProtocolMsg::RouteToken {
                    owner: ctx.id(),
                    delta,
                    target,
                    step: 0,
                    point: own,
                };
                self.forward(ctx, epoch, token, target, &mut s.members);
            }
        }
    }

    /// One forwarding step of `A_ROUTING` (Listing 1) on the current overlay:
    /// the route copy `msg` at trajectory step `s` and point `p` moves to
    /// point `(p + b) / 2`, where `b` is bit `s + 1` of `target`, and is sent
    /// to up to `r` members of that point's swarm as a step-`s + 1` copy.
    /// `members` is the scratch buffer for that swarm.
    fn forward(
        &self,
        ctx: &mut Ctx<'_, ProtocolMsg>,
        epoch: u64,
        mut msg: ProtocolMsg,
        target: f64,
        members: &mut Vec<NodeId>,
    ) {
        let (ProtocolMsg::RouteJoin { step, point, .. }
        | ProtocolMsg::RouteToken { step, point, .. }) = &mut msg
        else {
            return;
        };
        *step += 1;
        *point = (*point + self.target_bit(target, *step) as f64) / 2.0;
        members.clear();
        self.members_near(ctx, epoch, *point, self.params.swarm_radius(), members);
        for &to in choose_up_to(members, self.params.replication, &mut ctx.rng) {
            ctx.send(to, msg);
        }
    }

    // ------------------------------------------------------------------
    // Odd round: handover and introductions (Listing 3 odd block).
    // ------------------------------------------------------------------

    fn odd_round(
        &mut self,
        ctx: &mut Ctx<'_, ProtocolMsg>,
        inbox: &[Envelope<ProtocolMsg>],
        epoch: u64,
        s: &mut Scratch,
    ) {
        let swarm_r = self.params.swarm_radius();
        let next_epoch = epoch + 1;

        // (1) Collect announcements into H_t, the first one per node.
        self.h_entries.clear();
        s.ids.clear();
        for env in inbox {
            if let ProtocolMsg::AnnounceJoin {
                node,
                epoch: e,
                position,
            } = env.payload
            {
                if e == next_epoch {
                    self.stats.announces_received += 1;
                    if s.ids.insert(node) {
                        self.h_entries.push((node, position));
                    }
                }
            }
        }
        self.h_entries.sort_unstable_by_key(|a| a.0);

        // (2) Handover step: every route copy received this round moves to the
        //     next overlay's swarm at its current trajectory point.
        s.seen.clear();
        for env in inbox {
            let Some((key, point)) = route_copy(&env.payload) else {
                continue;
            };
            self.stats.route_copies_received += 1;
            if !s.seen.insert(key) {
                continue;
            }
            s.members.clear();
            self.members_near(ctx, next_epoch, point, swarm_r, &mut s.members);
            for &to in choose_up_to(&mut s.members, self.params.replication, &mut ctx.rng) {
                ctx.send(to, env.payload);
            }
        }

        // (3) Introductions: for every pair of announced nodes that will be
        //     neighbours in D_{next_epoch}, send each of them the other's
        //     identifier and position (Listing 3 lines 25-26).
        for (i, &(v, pv)) in self.h_entries.iter().enumerate() {
            for &(w, pw) in self.h_entries.iter().skip(i + 1) {
                if self.are_neighbors(pv, pw) {
                    ctx.send(
                        w,
                        ProtocolMsg::Create {
                            node: v,
                            epoch: next_epoch,
                            position: pv,
                        },
                    );
                    ctx.send(
                        v,
                        ProtocolMsg::Create {
                            node: w,
                            epoch: next_epoch,
                            position: pw,
                        },
                    );
                }
            }
        }
        self.h_entries.clear();
    }

    // ------------------------------------------------------------------
    // A_RANDOM bookkeeping executed every round (Listing 4).
    // ------------------------------------------------------------------

    fn random_overlay_round(
        &mut self,
        ctx: &mut Ctx<'_, ProtocolMsg>,
        inbox: &[Envelope<ProtocolMsg>],
        picks: &mut Vec<NodeId>,
    ) {
        let now = ctx.round();
        let delta = self.params.delta;
        self.stats.connects_received_last_round = 0;
        self.stats.tokens_received_last_round = 0;
        self.repair_sampled.clear();

        // Reset connect slots at the start of every round (Listing 4 line 35).
        for s in self.slots.iter_mut() {
            *s = None;
        }

        // Process CONNECT and directly delivered TOKEN messages.
        for env in inbox {
            match env.payload {
                ProtocolMsg::Connect { node } => {
                    self.stats.connects_received += 1;
                    self.stats.connects_received_last_round += 1;
                    // A uniformly random free slot: the k-th of `free`.
                    let free = self.slots.iter().filter(|s| s.is_none()).count();
                    if free > 0 {
                        let k = ctx.rng.gen_range(0..free);
                        let slot = self.slots.iter_mut().filter(|s| s.is_none()).nth(k);
                        *slot.expect("k < free") = Some(node);
                    }
                }
                ProtocolMsg::Token { owner } => {
                    self.stats.tokens_received += 1;
                    self.stats.tokens_received_last_round += 1;
                    // A mature node keeps the token with probability 1/2 and
                    // otherwise forwards it to a random connect slot
                    // (Listing 4, token forwarding step); fresh nodes always
                    // keep what they are given.
                    if self.is_mature(now) && ctx.rng.gen::<bool>() {
                        let slot = ctx.rng.gen_range(0..self.slots.len().max(1));
                        if let Some(Some(fresh)) = self.slots.get(slot) {
                            ctx.send(*fresh, ProtocolMsg::Token { owner });
                        }
                        // otherwise: dropped, preserving token independence.
                    } else {
                        self.tokens.push(owner);
                    }
                }
                _ => {}
            }
        }

        // Bound the token pool (freshness substitute for the paper's
        // clear-every-round rule).
        let cap = 4 * self.params.tau.max(delta);
        if self.tokens.len() > cap {
            let excess = self.tokens.len() - cap;
            self.tokens.drain(..excess);
        }

        // Handle nodes that joined via this node this round: send CONNECTs on
        // their behalf and supply them with tokens (Listing 4 "Upon v joining").
        for &new_node in ctx.sponsored() {
            for &owner in pick_tokens(&self.tokens, delta, &mut ctx.rng, picks) {
                ctx.send(owner, ProtocolMsg::Connect { node: new_node });
            }
            for &owner in pick_tokens(&self.tokens, delta, &mut ctx.rng, picks) {
                ctx.send(new_node, ProtocolMsg::Token { owner });
            }
            // Make sure the newcomer is sponsored into the overlay even before
            // its CONNECTs land: keep it in one of our own slots.
            if let Some(slot) = self.slots.iter_mut().find(|s| s.is_none()) {
                *slot = Some(new_node);
            }
        }

        // Fresh nodes (and mature nodes that fell out of the overlay) spend
        // tokens to stay known by Θ(δ) mature nodes.
        let integrated = self.participates(now / 2);
        if !self.is_mature(now) || !integrated {
            for &owner in pick_tokens(&self.tokens, delta, &mut ctx.rng, picks) {
                self.repair_sampled.push(owner);
                ctx.send(owner, ProtocolMsg::Connect { node: ctx.id() });
            }
        }
    }

    // ------------------------------------------------------------------
    // Byzantine roles
    // ------------------------------------------------------------------

    /// One honest activation: the even/odd maintenance round plus the
    /// random-overlay round, exactly as the paper specifies.
    fn honest_round(
        &mut self,
        ctx: &mut Ctx<'_, ProtocolMsg>,
        inbox: &[Envelope<ProtocolMsg>],
        epoch: u64,
        s: &mut Scratch,
    ) {
        if ctx.round() % 2 == 0 {
            self.even_round(ctx, inbox, epoch, s);
        } else {
            self.odd_round(ctx, inbox, epoch, s);
        }
        self.random_overlay_round(ctx, inbox, &mut s.members);
    }

    /// One byzantine activation: the honest machinery still runs — the node
    /// keeps the protocol's cadence, state shape and RNG consumption — but
    /// the misbehavior wraps it: selective forwarding censors the inbox
    /// before the honest code reads it, the other kinds rewrite the claims
    /// the honest code queued before they reach the network.
    fn byzantine_round(
        &mut self,
        ctx: &mut Ctx<'_, ProtocolMsg>,
        inbox: &[Envelope<ProtocolMsg>],
        epoch: u64,
        kind: MisbehaviorKind,
        s: &mut Scratch,
    ) {
        if kind == MisbehaviorKind::SelectiveForward {
            let mut censored = std::mem::take(&mut s.censored);
            censored.clear();
            censored.extend_from_slice(inbox);
            censored.retain(|env| route_copy(&env.payload).is_none());
            self.honest_round(ctx, &censored, epoch, s);
            s.censored = censored;
        } else {
            self.honest_round(ctx, inbox, epoch, s);
        }

        let me = ctx.id();
        let mut sent = std::mem::take(ctx.queued_mut());
        match kind {
            // The censorship already happened on the inbound side.
            MisbehaviorKind::SelectiveForward => {}
            // Claims two epochs stale: exactly the staleness the
            // two-steps-ahead rebuild is supposed to outrun.
            MisbehaviorKind::StaleClaims => {
                for (_, msg) in sent.iter_mut() {
                    if let ProtocolMsg::Create {
                        node,
                        epoch,
                        position,
                    }
                    | ProtocolMsg::AnnounceJoin {
                        node,
                        epoch,
                        position,
                    } = msg
                    {
                        *position = ctx.position_hash(*node, epoch.saturating_sub(2));
                    }
                }
            }
            // Antipodal positions: maximally wrong, still in [0,1).
            MisbehaviorKind::ForgedPosition => {
                for (_, msg) in sent.iter_mut() {
                    if let ProtocolMsg::Create { position, .. }
                    | ProtocolMsg::AnnounceJoin { position, .. } = msg
                    {
                        *position = (*position + 0.5) % 1.0;
                    }
                }
            }
            // Introductions and tokens all name the byzantine node itself:
            // every CREATE/CONNECT-machinery reply funnels edges to it.
            MisbehaviorKind::BogusReplies => {
                for (_, msg) in sent.iter_mut() {
                    match msg {
                        ProtocolMsg::Create { node, .. } => *node = me,
                        ProtocolMsg::Token { owner } => *owner = me,
                        _ => {}
                    }
                }
            }
        }
        *ctx.queued_mut() = sent;
    }
}

impl Process for ProtocolNode {
    type Msg = ProtocolMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, ProtocolMsg>, inbox: &[Envelope<ProtocolMsg>]) {
        if self.joined_at.is_none() {
            self.joined_at = Some(ctx.round());
        }
        let epoch = ctx.round() / 2;
        let mut scratch = std::mem::take(&mut self.scratch);
        match self.byzantine {
            None => self.honest_round(ctx, inbox, epoch, &mut scratch),
            Some(kind) => self.byzantine_round(ctx, inbox, epoch, kind, &mut scratch),
        }
        self.scratch = scratch;
        self.stats.last_round = ctx.round();
        self.stats.messages_sent += ctx.queued();
    }

    fn state_digest(&self) -> u64 {
        // A weak digest: the adversary may eventually learn how connected a
        // node is, but never its future positions.
        (self.d_neighbors.len() as u64) << 32 | self.tokens.len() as u64
    }
}

/// Identifies one logical route message, so that the replicas of it that
/// different swarm members forward are handled once: the kind (0 = join,
/// 1 = token), the routed node or token owner, the join's target epoch or
/// the token's offset Δ, and the trajectory step.
type RouteKey = (u8, NodeId, u64, u32);

/// The dedup key (whose last field is the step) and the trajectory point of
/// a `RouteJoin`/`RouteToken` copy; `None` for every other message.
fn route_copy(msg: &ProtocolMsg) -> Option<(RouteKey, f64)> {
    match *msg {
        ProtocolMsg::RouteJoin {
            node,
            target_epoch,
            step,
            point,
        } => Some(((0, node, target_epoch, step), point)),
        ProtocolMsg::RouteToken {
            owner,
            delta,
            step,
            point,
            ..
        } => Some(((1, owner, delta as u64, step), point)),
        _ => None,
    }
}

/// FxHash's rotate-multiply step, far cheaper than SipHash on small keys. Its
/// sets are only asked for membership, never iterated, so it cannot move an
/// output bit.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b as u64));
    }
    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

/// Chooses up to `count` distinct elements of `candidates` uniformly at
/// random by a partial Fisher–Yates that moves them to the front. It draws
/// exactly what `rand`'s `SliceRandom::choose_multiple` draws (nothing when
/// every candidate is taken), so picks, their order and the RNG stream match.
fn choose_up_to(candidates: &mut [NodeId], count: usize, mut rng: impl Rng) -> &[NodeId] {
    let len = candidates.len();
    if len <= count {
        return candidates;
    }
    for i in 0..count {
        let j = i + rng.gen_range(0..len - i);
        candidates.swap(i, j);
    }
    &candidates[..count]
}

/// Picks `count` tokens uniformly at random (with replacement across calls but
/// without replacement within one call) from the pool, using `distinct` as
/// the buffer of the pool's distinct owners.
fn pick_tokens<'b>(
    pool: &[NodeId],
    count: usize,
    rng: impl Rng,
    distinct: &'b mut Vec<NodeId>,
) -> &'b [NodeId] {
    distinct.clear();
    distinct.extend_from_slice(pool);
    distinct.sort_unstable();
    distinct.dedup();
    choose_up_to(distinct, count, rng)
}

/// The `A_SAMPLING` delivery rule: among `members` (the known swarm of
/// `target`), select the node with exactly `delta` members clockwise between
/// `target` and itself.
fn delta_select(
    ctx: &Ctx<'_, ProtocolMsg>,
    epoch: u64,
    members: &[NodeId],
    target: f64,
    delta: usize,
    right: &mut Vec<(f64, NodeId)>,
) -> Option<NodeId> {
    right.clear();
    for &id in members {
        let offset = (ctx.position_hash(id, epoch) - target).rem_euclid(1.0);
        if offset <= 0.5 {
            right.push((offset, id));
        }
    }
    right.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
    right.get(delta).map(|(_, id)| *id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn params() -> MaintenanceParams {
        MaintenanceParams::new(64)
    }

    fn genesis(n: u64) -> Arc<Vec<NodeId>> {
        Arc::new((0..n).map(NodeId).collect())
    }

    #[test]
    fn ring_distance_matches_position_type() {
        assert!((ring_distance(0.1, 0.9) - 0.2).abs() < 1e-12);
        assert!((ring_distance(0.3, 0.4) - 0.1).abs() < 1e-12);
        assert_eq!(ring_distance(0.5, 0.5), 0.0);
    }

    #[test]
    fn choose_up_to_caps_at_candidates() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut c: Vec<NodeId> = (0..3).map(NodeId).collect();
        assert_eq!(choose_up_to(&mut c, 5, &mut rng).len(), 3);
        assert_eq!(choose_up_to(&mut c, 2, &mut rng).len(), 2);
        let picked = choose_up_to(&mut c.clone(), 2, &mut rng).to_vec();
        assert!(picked.iter().all(|id| c.contains(id)));
    }

    #[test]
    fn pick_tokens_deduplicates() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut buf = Vec::new();
        let pool = vec![NodeId(1), NodeId(1), NodeId(2)];
        let picked = pick_tokens(&pool, 5, &mut rng, &mut buf);
        assert_eq!(picked, [NodeId(1), NodeId(2)]);
        assert!(pick_tokens(&[], 3, &mut rng, &mut buf).is_empty());
    }

    /// The allocating samplers the in-place ones replaced: a copy when every
    /// candidate is taken, `rand`'s `choose_multiple` otherwise.
    fn reference_choose(candidates: &[NodeId], count: usize, rng: &mut ChaCha8Rng) -> Vec<NodeId> {
        use rand::seq::SliceRandom;
        if candidates.len() <= count {
            return candidates.to_vec();
        }
        candidates.choose_multiple(rng, count).copied().collect()
    }

    fn reference_pick(pool: &[NodeId], count: usize, rng: &mut ChaCha8Rng) -> Vec<NodeId> {
        let mut distinct = pool.to_vec();
        distinct.sort();
        distinct.dedup();
        reference_choose(&distinct, count, rng)
    }

    #[test]
    fn in_place_samplers_draw_exactly_like_choose_multiple() {
        use rand::RngCore;
        let mut buf = Vec::new();
        for len in 0..=12u64 {
            let candidates: Vec<NodeId> = (0..len).map(|i| NodeId(100 + 7 * i)).collect();
            // A pool with duplicates, in no particular order.
            let pool: Vec<NodeId> = (0..len).map(|i| NodeId((i * 5) % (len / 2 + 1))).collect();
            for count in 0..=4 {
                let seed = len * 8 + count as u64;
                let (mut old, mut new) = (
                    ChaCha8Rng::seed_from_u64(seed),
                    ChaCha8Rng::seed_from_u64(seed),
                );
                let expected = reference_choose(&candidates, count, &mut old);
                let mut scratch = candidates.clone();
                assert_eq!(
                    choose_up_to(&mut scratch, count, &mut new),
                    expected,
                    "len {len}, count {count}"
                );
                assert_eq!(old.next_u64(), new.next_u64(), "len {len}, count {count}");

                let expected = reference_pick(&pool, count, &mut old);
                assert_eq!(
                    pick_tokens(&pool, count, &mut new, &mut buf),
                    expected,
                    "pool {pool:?}, count {count}"
                );
                assert_eq!(
                    old.next_u64(),
                    new.next_u64(),
                    "pool {pool:?}, count {count}"
                );
            }
        }
    }

    #[test]
    fn maturity_rules() {
        let p = params();
        let mut node = ProtocolNode::new(p, None);
        node.joined_at = Some(10);
        assert!(!node.is_mature(10));
        assert!(!node.is_mature(10 + p.maturity_age() - 1));
        assert!(node.is_mature(10 + p.maturity_age()));
        let g = ProtocolNode::new(p, Some(genesis(4)));
        assert!(g.is_mature(0), "genesis nodes are mature immediately");
        assert!(g.is_genesis());
    }

    #[test]
    fn genesis_neighbors_match_definition_5() {
        let p = params();
        let g = genesis(64);
        let node = ProtocolNode::new(p, Some(g.clone()));
        let ctx: Ctx<'_, ProtocolMsg> = Ctx::new(NodeId(0), 0, &[], 7, 7);
        let neighbors = node.genesis_neighbors(&ctx, 0);
        assert!(!neighbors.is_empty(), "a genesis node must have neighbours");
        let own = ctx.position_hash(NodeId(0), 0);
        for (id, pos) in &neighbors {
            assert_ne!(*id, NodeId(0));
            assert!(
                node.are_neighbors(own, *pos),
                "genesis neighbour {id} at {pos} is not a Definition-5 neighbour"
            );
        }
    }

    #[test]
    fn snapshot_reflects_state() {
        let p = params();
        let mut node = ProtocolNode::new(p, Some(genesis(8)));
        node.joined_at = Some(0);
        node.d_neighbors = vec![(NodeId(1), 0.5)];
        node.d_epoch = 3;
        node.tokens = vec![NodeId(2), NodeId(3)];
        let snap = node.snapshot(6);
        assert!(snap.mature);
        assert!(snap.genesis);
        assert!(snap.participating);
        assert_eq!(snap.epoch, 3);
        assert_eq!(snap.neighbors, vec![NodeId(1)]);
        assert_eq!(snap.tokens_on_hand, 2);
    }

    #[test]
    fn target_bits_follow_binary_expansion() {
        let p = params();
        let node = ProtocolNode::new(p, None);
        // 0.75 = 0.11 in binary: the first two bits are 1.
        assert_eq!(node.target_bit(0.75, 1), 1);
        assert_eq!(node.target_bit(0.75, 2), 1);
        assert_eq!(node.target_bit(0.25, 1), 0);
        assert_eq!(node.target_bit(0.25, 2), 1);
    }

    #[test]
    fn delta_select_orders_clockwise() {
        let p = params();
        let node = ProtocolNode::new(p, Some(genesis(4)));
        let ctx: Ctx<'_, ProtocolMsg> = Ctx::new(NodeId(0), 0, &[], 3, 3);
        // Build the member set from the hash positions themselves so ordering
        // is well-defined.
        let members: Vec<NodeId> = (0..4).map(NodeId).collect();
        let target = 0.0;
        let mut buf = Vec::new();
        let first = delta_select(&ctx, 0, &members, target, 0, &mut buf);
        let second = delta_select(&ctx, 0, &members, target, 1, &mut buf);
        assert!(first.is_some());
        if let (Some(a), Some(b)) = (first, second) {
            assert_ne!(a, b);
            let pa = (ctx.position_hash(a, 0) - target).rem_euclid(1.0);
            let pb = (ctx.position_hash(b, 0) - target).rem_euclid(1.0);
            assert!(pa <= pb, "delta ordering must be clockwise");
        }
        let _ = node;
    }

    #[test]
    fn first_round_sets_join_round_and_emits_messages() {
        let p = params();
        let g = genesis(64);
        let mut node = ProtocolNode::new(p, Some(g));
        let mut ctx: Ctx<'_, ProtocolMsg> = Ctx::new(NodeId(0), 0, &[], 11, 11);
        node.on_round(&mut ctx, &[]);
        assert_eq!(node.joined_at, Some(0));
        assert!(node.participates(0), "genesis node participates in epoch 0");
        assert!(
            ctx.queued() > 0,
            "a participating mature node must start join requests and tokens"
        );
    }

    #[test]
    fn non_genesis_node_is_idle_until_contacted() {
        let p = params();
        let mut node = ProtocolNode::new(p, None);
        let mut ctx: Ctx<'_, ProtocolMsg> = Ctx::new(NodeId(99), 4, &[], 11, 11);
        node.on_round(&mut ctx, &[]);
        // No tokens, no neighbours: nothing can be sent yet.
        assert_eq!(ctx.queued(), 0);
        assert!(!node.participates(2));
    }

    #[test]
    fn fresh_node_spends_tokens_on_connects() {
        let p = params();
        let mut node = ProtocolNode::new(p, None);
        let inbox = vec![
            Envelope::new(
                NodeId(1),
                NodeId(99),
                3,
                ProtocolMsg::Token { owner: NodeId(5) },
            ),
            Envelope::new(
                NodeId(1),
                NodeId(99),
                3,
                ProtocolMsg::Token { owner: NodeId(6) },
            ),
        ];
        let mut ctx: Ctx<'_, ProtocolMsg> = Ctx::new(NodeId(99), 4, &[], 11, 11);
        node.on_round(&mut ctx, &inbox);
        let out = ctx.into_outbox();
        let connects: Vec<&(NodeId, ProtocolMsg)> = out
            .iter()
            .filter(|(_, m)| matches!(m, ProtocolMsg::Connect { .. }))
            .collect();
        assert!(
            !connects.is_empty(),
            "a fresh node with tokens must send CONNECTs"
        );
        for (to, _) in connects {
            assert!([NodeId(5), NodeId(6)].contains(to));
        }
    }

    #[test]
    fn mature_node_assigns_connects_to_slots() {
        let p = params();
        let g = genesis(64);
        let mut node = ProtocolNode::new(p, Some(g));
        node.joined_at = Some(0);
        let inbox = vec![Envelope::new(
            NodeId(77),
            NodeId(0),
            9,
            ProtocolMsg::Connect { node: NodeId(77) },
        )];
        let mut ctx: Ctx<'_, ProtocolMsg> = Ctx::new(NodeId(0), 10, &[], 11, 11);
        node.on_round(&mut ctx, &inbox);
        assert_eq!(node.snapshot(10).slots_used, 1);
        assert_eq!(node.snapshot(10).stats.connects_received, 1);
    }

    #[test]
    fn sponsor_supplies_newcomer_with_tokens_and_connects() {
        let p = params();
        let g = genesis(64);
        let mut node = ProtocolNode::new(p, Some(g));
        node.joined_at = Some(0);
        node.tokens = vec![NodeId(3), NodeId(4), NodeId(5)];
        let sponsored = vec![NodeId(200)];
        let mut ctx: Ctx<'_, ProtocolMsg> = Ctx::new(NodeId(0), 31, &sponsored, 11, 11);
        node.on_round(&mut ctx, &[]);
        let out = ctx.into_outbox();
        let tokens_to_newcomer = out
            .iter()
            .filter(|(to, m)| *to == NodeId(200) && matches!(m, ProtocolMsg::Token { .. }))
            .count();
        let connects_for_newcomer = out
            .iter()
            .filter(|(_, m)| matches!(m, ProtocolMsg::Connect { node } if *node == NodeId(200)))
            .count();
        assert!(tokens_to_newcomer > 0, "the sponsor must supply tokens");
        assert!(
            connects_for_newcomer > 0,
            "the sponsor must announce the newcomer"
        );
    }
    /// Two copies of every message in `msgs`, from two different senders.
    fn two_copies_each(
        to: NodeId,
        sent_at: Round,
        msgs: &[ProtocolMsg],
    ) -> Vec<Envelope<ProtocolMsg>> {
        msgs.iter()
            .flat_map(|&m| {
                [
                    Envelope::new(NodeId(1), to, sent_at, m),
                    Envelope::new(NodeId(2), to, sent_at, m),
                ]
            })
            .collect()
    }

    /// Asserts that the copies `is_copy` picks out of `out` went to at least
    /// one and at most `r` receivers, each exactly once.
    fn assert_forwarded_once(
        out: &[(NodeId, ProtocolMsg)],
        r: usize,
        is_copy: impl Fn(&ProtocolMsg) -> bool,
    ) {
        let mut receivers: Vec<NodeId> = out
            .iter()
            .filter(|(_, m)| is_copy(m))
            .map(|(to, _)| *to)
            .collect();
        assert!(!receivers.is_empty(), "the copy must be forwarded");
        assert!(receivers.len() <= r, "{receivers:?} exceeds r = {r}");
        receivers.sort();
        receivers.dedup();
        assert_eq!(
            receivers.len(),
            out.iter().filter(|(_, m)| is_copy(m)).count()
        );
    }

    #[test]
    fn even_round_forwards_replicated_route_copies_once() {
        let p = params();
        let mut node = ProtocolNode::new(p, Some(genesis(64)));
        // Round 2 is the even round of genesis epoch 1.
        let mut ctx: Ctx<'_, ProtocolMsg> = Ctx::new(NodeId(0), 2, &[], 11, 11);
        let own = ctx.position_hash(NodeId(0), 1);
        // A step-2 copy whose next trajectory point is this node's own
        // position, so its swarm (which contains the node) is non-empty.
        let at_own = |target: f64| 2.0 * own - node.target_bit(target, 3) as f64;
        let join_target = ctx.position_hash(NodeId(42), 9);
        let token_target = 0.6;
        let inbox = two_copies_each(
            NodeId(0),
            1,
            &[
                ProtocolMsg::RouteJoin {
                    node: NodeId(42),
                    target_epoch: 9,
                    step: 2,
                    point: at_own(join_target),
                },
                ProtocolMsg::RouteToken {
                    owner: NodeId(43),
                    delta: 1,
                    target: token_target,
                    step: 2,
                    point: at_own(token_target),
                },
            ],
        );
        node.on_round(&mut ctx, &inbox);
        assert_eq!(node.stats.route_copies_received, 4);
        let out = ctx.into_outbox();
        let r = p.replication;
        assert_forwarded_once(
            &out,
            r,
            |m| matches!(m, ProtocolMsg::RouteJoin { node, step: 3, .. } if *node == NodeId(42)),
        );
        assert_forwarded_once(
            &out,
            r,
            |m| matches!(m, ProtocolMsg::RouteToken { owner, step: 3, .. } if *owner == NodeId(43)),
        );
    }

    #[test]
    fn odd_round_hands_replicated_route_copies_over_once() {
        let p = params();
        let mut node = ProtocolNode::new(p, Some(genesis(64)));
        // Round 3 hands epoch 1's copies over to genesis epoch 2; a point at
        // node 5's epoch-2 position has a non-empty swarm.
        let mut ctx: Ctx<'_, ProtocolMsg> = Ctx::new(NodeId(0), 3, &[], 11, 11);
        let point = ctx.position_hash(NodeId(5), 2);
        let inbox = two_copies_each(
            NodeId(0),
            2,
            &[
                ProtocolMsg::RouteJoin {
                    node: NodeId(42),
                    target_epoch: 9,
                    step: 2,
                    point,
                },
                ProtocolMsg::RouteToken {
                    owner: NodeId(43),
                    delta: 1,
                    target: 0.6,
                    step: 2,
                    point,
                },
            ],
        );
        node.on_round(&mut ctx, &inbox);
        assert_eq!(node.stats.route_copies_received, 4);
        let out = ctx.into_outbox();
        let r = p.replication;
        assert_forwarded_once(
            &out,
            r,
            |m| matches!(m, ProtocolMsg::RouteJoin { node, step: 2, .. } if *node == NodeId(42)),
        );
        assert_forwarded_once(
            &out,
            r,
            |m| matches!(m, ProtocolMsg::RouteToken { owner, step: 2, .. } if *owner == NodeId(43)),
        );
    }

    #[test]
    fn a_route_join_at_step_lambda_is_announced_not_forwarded() {
        let p = params();
        let mut node = ProtocolNode::new(p, Some(genesis(64)));
        let mut ctx: Ctx<'_, ProtocolMsg> = Ctx::new(NodeId(0), 2, &[], 11, 11);
        let own = ctx.position_hash(NodeId(0), 1);
        // A joiner whose announced position this node is responsible for.
        let joiner = (100..)
            .map(NodeId)
            .find(|&v| ring_distance(ctx.position_hash(v, 9), own) <= p.overlay.list_radius())
            .expect("some identifier hashes next to this node");
        let inbox = vec![Envelope::new(
            NodeId(1),
            NodeId(0),
            1,
            ProtocolMsg::RouteJoin {
                node: joiner,
                target_epoch: 9,
                step: p.lambda(),
                point: 0.5,
            },
        )];
        node.on_round(&mut ctx, &inbox);
        assert_eq!(node.stats.joins_delivered, 1);
        let out = ctx.into_outbox();
        assert!(out.iter().any(|(_, m)| matches!(
            m,
            ProtocolMsg::AnnounceJoin { node, epoch: 9, .. } if *node == joiner
        )));
        assert!(!out
            .iter()
            .any(|(_, m)| matches!(m, ProtocolMsg::RouteJoin { node, .. } if *node == joiner)));
    }
}
