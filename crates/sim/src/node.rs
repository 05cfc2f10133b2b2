//! The node behaviour trait and the per-round execution context.
//!
//! A protocol (for example the maintenance protocol of Section 5) is a type
//! implementing [`Process`]. In every synchronous round the engine calls
//! [`Process::on_round`] with all messages delivered this round and a
//! [`Ctx`] through which the node can inspect its environment and send
//! messages that will arrive in the next round.

use rand_chacha::ChaCha8Rng;

use crate::ids::{NodeId, Round};
use crate::message::{Envelope, Outbox};
use crate::rng;

/// Everything a node may legally observe and do in a single round.
///
/// The context deliberately exposes *only* information the paper's model grants
/// a node: its own identifier, the current round, the identifiers of nodes that
/// just joined via it (the "bootstrap receives a reference" rule of Section
/// 1.1), a private random stream, and the shared position hash `h`.
pub struct Ctx<'a, M> {
    id: NodeId,
    round: Round,
    joined_at: Round,
    sponsored: &'a [NodeId],
    hash_seed: u64,
    /// Deterministic per-`(seed, node, round)` random stream.
    pub rng: ChaCha8Rng,
    outbox: Outbox<M>,
}

impl<'a, M> Ctx<'a, M> {
    /// Creates a context for one node and one round. Used by the engine and by
    /// unit tests that drive a `Process` by hand.
    pub fn new(
        id: NodeId,
        round: Round,
        joined_at: Round,
        sponsored: &'a [NodeId],
        seed: u64,
        hash_seed: u64,
    ) -> Self {
        Self::with_outbox(
            id,
            round,
            joined_at,
            sponsored,
            seed,
            hash_seed,
            Outbox::new(),
        )
    }

    /// Like [`Ctx::new`], but sends into a caller-provided outbox — usually
    /// one wrapping a buffer recycled from an earlier round via
    /// [`Outbox::from_vec`], so the steady-state round loop allocates nothing.
    pub fn with_outbox(
        id: NodeId,
        round: Round,
        joined_at: Round,
        sponsored: &'a [NodeId],
        seed: u64,
        hash_seed: u64,
        outbox: Outbox<M>,
    ) -> Self {
        Ctx {
            id,
            round,
            joined_at,
            sponsored,
            hash_seed,
            rng: rng::node_round_rng(seed, id, round),
            outbox,
        }
    }

    /// This node's identifier.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The current round `t`.
    #[inline]
    pub fn round(&self) -> Round {
        self.round
    }

    /// The round in which this node joined the network.
    #[inline]
    pub fn joined_at(&self) -> Round {
        self.joined_at
    }

    /// Number of completed rounds this node has been part of the network.
    #[inline]
    pub fn age(&self) -> Round {
        self.round - self.joined_at
    }

    /// `true` if this is the node's very first round (it joined this round and
    /// therefore knows no other identifiers yet unless told by its sponsor).
    #[inline]
    pub fn is_first_round(&self) -> bool {
        self.round == self.joined_at
    }

    /// The nodes that joined the network via this node in the current round.
    ///
    /// Per the model, the bootstrap node "receives a reference" to each joiner;
    /// the joiner itself learns nothing until somebody messages it.
    #[inline]
    pub fn sponsored(&self) -> &[NodeId] {
        self.sponsored
    }

    /// Evaluates the shared uniform hash `h(v, epoch) ∈ [0,1)` of Section 5.
    ///
    /// Any node can evaluate the hash for any identifier it knows; the
    /// adversary cannot evaluate it at all.
    #[inline]
    pub fn position_hash(&self, node: NodeId, epoch: u64) -> f64 {
        rng::position_hash(self.hash_seed, node, epoch)
    }

    /// Sends `payload` to `to`; it will be delivered at the start of round
    /// `t + 1` if `to` is still in the network.
    #[inline]
    pub fn send(&mut self, to: NodeId, payload: M) {
        self.outbox.send(to, payload);
    }

    /// Sends a clone of `payload` to every node in `targets`.
    pub fn broadcast<I>(&mut self, targets: I, payload: M)
    where
        M: Clone,
        I: IntoIterator<Item = NodeId>,
    {
        self.outbox.broadcast(targets, payload);
    }

    /// Number of messages queued so far this round (congestion self-check).
    pub fn queued(&self) -> usize {
        self.outbox.len()
    }

    /// Mutable access to the queued `(receiver, payload)` pairs — the hook a
    /// byzantine node uses to rewrite what its honest machinery queued.
    pub fn queued_mut(&mut self) -> &mut Vec<(NodeId, M)> {
        self.outbox.queued_mut()
    }

    /// Consumes the context and returns the outbox (engine internal).
    pub fn into_outbox(self) -> Outbox<M> {
        self.outbox
    }
}

/// A node-local protocol executed by the simulator.
///
/// Implementors hold all node-local state. The engine guarantees that
/// `on_round` is called exactly once per round for every node currently in the
/// network, with every message addressed to it that was sent in the previous
/// round by a node that still existed at sending time.
pub trait Process: Send + 'static {
    /// The protocol message type.
    type Msg: Clone + Send + Sync + 'static;

    /// Executes one synchronous round: receive, compute, send.
    fn on_round(&mut self, ctx: &mut Ctx<'_, Self::Msg>, inbox: &[Envelope<Self::Msg>]);

    /// A compact digest of the node's internal state, made visible to the
    /// adversary only with lateness `b` (Section 1.1). The default of `0`
    /// reveals nothing.
    fn state_digest(&self) -> u64 {
        0
    }
}

/// The transport-agnostic node protocol step that every execution engine
/// schedules.
///
/// One *activation* consumes the messages delivered to the node since it last
/// ran and emits new messages through the [`Ctx`]. Which messages those are —
/// and *when* the activation happens — is a scheduler policy, not protocol
/// logic:
///
/// * the round-synchronous [`Simulator`](crate::Simulator) activates every
///   node exactly once per round with the messages sent to it one round
///   earlier;
/// * `tsa-event`'s virtual-time engine activates nodes at the round boundaries
///   of its virtual clock with whatever messages the latency/jitter/loss
///   models delivered in between.
///
/// Every [`Process`] implements `ProtocolStep` automatically (an activation
/// of a round-synchronous protocol *is* its round), so the same node logic
/// runs unchanged under both engines. Protocols that only ever run under the
/// event engine may implement `ProtocolStep` directly.
pub trait ProtocolStep: Send + 'static {
    /// The protocol message type.
    type Msg: Clone + Send + Sync + 'static;

    /// Executes one activation: receive, compute, send.
    fn on_activation(&mut self, ctx: &mut Ctx<'_, Self::Msg>, inbox: &[Envelope<Self::Msg>]);

    /// A compact digest of the node's internal state, made visible to the
    /// adversary only with lateness `b` (Section 1.1). The default of `0`
    /// reveals nothing.
    fn state_digest(&self) -> u64 {
        0
    }
}

impl<P: Process> ProtocolStep for P {
    type Msg = P::Msg;

    fn on_activation(&mut self, ctx: &mut Ctx<'_, Self::Msg>, inbox: &[Envelope<Self::Msg>]) {
        self.on_round(ctx, inbox);
    }

    fn state_digest(&self) -> u64 {
        Process::state_digest(self)
    }
}

/// Runs one node activation — the single protocol step shared by every
/// execution engine. The scheduler core's compute phase calls exactly this
/// under every delivery policy, which is what makes the engines scheduler
/// policies over the *same* protocol rather than protocol copies.
///
/// `out` is a recycled buffer (cleared on wrap) that becomes the activation's
/// outbox; the emitted `(receiver, payload)` pairs are returned together with
/// the node's state digest (`0` unless `record_digest`). The activation's RNG
/// stream depends only on `(seed, id, round)`, so *where* and *in which
/// order* activations of a round execute can never change an output bit.
#[allow(clippy::too_many_arguments)]
pub fn run_activation<P: ProtocolStep>(
    process: &mut P,
    id: NodeId,
    round: Round,
    joined_at: Round,
    sponsored: &[NodeId],
    seed: u64,
    hash_seed: u64,
    inbox: &[Envelope<P::Msg>],
    out: Vec<(NodeId, P::Msg)>,
    record_digest: bool,
) -> (Vec<(NodeId, P::Msg)>, u64) {
    let outbox = Outbox::from_vec(out);
    let mut ctx: Ctx<'_, P::Msg> =
        Ctx::with_outbox(id, round, joined_at, sponsored, seed, hash_seed, outbox);
    process.on_activation(&mut ctx, inbox);
    let digest = if record_digest {
        process.state_digest()
    } else {
        0
    };
    (ctx.into_outbox().into_inner(), digest)
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo;
    impl Process for Echo {
        type Msg = u32;
        fn on_round(&mut self, ctx: &mut Ctx<'_, u32>, inbox: &[Envelope<u32>]) {
            for env in inbox {
                ctx.send(env.from, env.payload + 1);
            }
        }
    }

    #[test]
    fn ctx_reports_identity_and_age() {
        let sponsored = vec![NodeId(9)];
        let ctx: Ctx<'_, u32> = Ctx::new(NodeId(1), 10, 4, &sponsored, 0, 0);
        assert_eq!(ctx.id(), NodeId(1));
        assert_eq!(ctx.round(), 10);
        assert_eq!(ctx.age(), 6);
        assert!(!ctx.is_first_round());
        assert_eq!(ctx.sponsored(), &[NodeId(9)]);
    }

    #[test]
    fn first_round_detection() {
        let ctx: Ctx<'_, u32> = Ctx::new(NodeId(1), 4, 4, &[], 0, 0);
        assert!(ctx.is_first_round());
        assert_eq!(ctx.age(), 0);
    }

    #[test]
    fn echo_process_replies_through_ctx() {
        let mut e = Echo;
        let mut ctx = Ctx::new(NodeId(2), 5, 0, &[], 1, 1);
        let inbox = vec![Envelope::new(NodeId(7), NodeId(2), 4, 41)];
        e.on_round(&mut ctx, &inbox);
        let out = ctx.into_outbox().into_inner();
        assert_eq!(out, vec![(NodeId(7), 42)]);
    }

    #[test]
    fn position_hash_is_consistent_across_ctxs() {
        let a: Ctx<'_, ()> = Ctx::new(NodeId(1), 0, 0, &[], 0, 77);
        let b: Ctx<'_, ()> = Ctx::new(NodeId(2), 9, 0, &[], 5, 77);
        assert_eq!(a.position_hash(NodeId(3), 4), b.position_hash(NodeId(3), 4));
    }
}
