//! The deterministic virtual-time discrete-event engine.
//!
//! # Model
//!
//! Virtual time is measured in integer *ticks*;
//! [`TICKS_PER_ROUND`] ticks make one protocol round.
//! Nodes keep the synchronous cadence of the paper's model — every node
//! activates once per round boundary of the virtual clock, with the same
//! per-`(seed, node, round)` RNG streams as the lockstep engine — but the
//! *network* between them is asynchronous: each message individually samples
//! a latency (plus jitter) from the [`NetModel`] and may be lost. A message
//! whose arrival tick has passed is handed to its receiver at the next round
//! boundary ("round-boundary delivery"), so a delay of at most one round
//! reproduces the synchronous model's one-round message delay exactly, while
//! longer or spread-out delays let messages straddle epochs — the asynchrony
//! the two-steps-ahead maintenance protocol was never proved against.
//!
//! # One core, one policy
//!
//! [`EventSimulator`] is the scheduler core of `tsa-sim`
//! ([`Engine`]) under the [`Queued`] delivery policy. Churn
//! (through the shared arbiter, against the same lateness-filtered
//! knowledge), the delivery scatter, the compute phase and the collect
//! phase are the round engine's own code; `Queued` contributes only the
//! network between the boundaries.
//!
//! # Event queue and determinism
//!
//! Pending deliveries live in a [`CalendarQueue`](crate::queue) — a timing
//! wheel with one bucket per round window — whose pop order is exactly the
//! total order `(arrival tick, sequence number, receiver)`. The sequence
//! number is the message's global send index, assigned while the core's
//! sequential collect routes each outbox in id order, which makes the order
//! total and *stable* no matter how many threads computed the round. Each
//! boundary's deliverable batch is re-sorted into send order before it
//! reaches the inboxes (residual jitter within one boundary has no semantic
//! meaning), so every inbox is filled exactly like the lockstep engine's.
//! Message fates are pure functions of `(master seed, sequence number)`, so
//! identical seeds give byte-identical traces at any thread/host
//! configuration — including under `TSA_THREADS` caps and inside parallel
//! sweep workers. See the "Execution models" chapter of DESIGN.md for the
//! full argument.

use tsa_obs::ObsHandle;
use tsa_sim::{Delivery, Engine, Envelope, NodeId, PhaseSpans, ProtocolStep, Round, SimConfig};

use crate::fault::{FaultAdapter, FaultDecision, FaultInjector, FaultPlan, FaultStats};
use crate::model::{FateBlock, NetModel, Topology};
use crate::queue::{CalendarQueue, Pending};
use crate::trace::{MessageFate, MessageTrace};
use crate::TICKS_PER_ROUND;

/// Configuration of an event-driven run: the shared simulation knobs (seed,
/// lateness, churn rules, parallel compute, history window) plus the network
/// topology and clock resolution.
#[derive(Clone, Debug)]
pub struct EventConfig {
    /// The shared simulation configuration. Seeds and hash seeds are derived
    /// exactly as in the lockstep engine, so a zero-delay event run and a
    /// round run of the same seed are bit-identical.
    pub sim: SimConfig,
    /// The link topology: which per-message latency/jitter/loss model each
    /// directed `(sender, receiver)` link runs at each round. A scalar
    /// [`NetModel`] is the [`Topology::Global`] special case.
    pub topology: Topology,
    /// Virtual ticks per protocol round (defaults to
    /// [`TICKS_PER_ROUND`]).
    pub ticks_per_round: u64,
}

impl EventConfig {
    /// An event configuration over `sim` with the link-uniform network model
    /// `net` at the default clock resolution.
    pub fn new(sim: SimConfig, net: NetModel) -> Self {
        EventConfig::with_topology(sim, Topology::Global(net))
    }

    /// An event configuration over `sim` with an explicit link topology at
    /// the default clock resolution.
    pub fn with_topology(sim: SimConfig, topology: Topology) -> Self {
        EventConfig {
            sim,
            topology,
            ticks_per_round: TICKS_PER_ROUND,
        }
    }
}

/// Whole-run counters of the network model's effects.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct NetStats {
    /// Messages handed to the network.
    pub sent: u64,
    /// Messages dropped by the loss model.
    pub lost: u64,
    /// Messages dropped because the receiver departed before delivery.
    pub dropped_departed: u64,
    /// Largest sampled per-message delay, in ticks.
    pub max_delay_ticks: u64,
    /// Sum of all sampled delays, in ticks (mean = `/ (sent - lost)`).
    pub total_delay_ticks: u64,
    /// Messages handed to the network whose link crossed a region boundary
    /// of a [`Topology::Regions`] (0 for other topologies).
    pub bridge_sent: u64,
    /// Cross-region messages dropped by the loss model.
    pub bridge_lost: u64,
}

/// The event engine's delivery policy: a calendar queue under per-message
/// latency, jitter and loss drawn from a [`Topology`], plus optional fault
/// injection and fate-trace recording or replay.
pub struct Queued<P: ProtocolStep> {
    topology: Topology,
    ticks_per_round: u64,
    seed: u64,
    /// The tick of the current (between steps: the next) round boundary.
    /// Saturates: a hostile `ticks_per_round` can pin the clock at the end
    /// of time but never wrap it back to the past (which would reorder the
    /// queue).
    now: u64,
    /// The event queue: pending deliveries, earliest `(arrival, seq)` first.
    queue: CalendarQueue<P::Msg>,
    /// Scratch: the current boundary's deliverable batch, re-sorted into
    /// global send order before it reaches the inboxes.
    deliverable: Vec<Pending<P::Msg>>,
    /// Global send sequence number: the identity of a message for the
    /// network model's per-message streams.
    seq: u64,
    /// The cached network fate block for the current 64-message window of
    /// `seq` (sequence numbers are monotone, so one generation serves the
    /// whole window).
    fate_block: Option<FateBlock>,
    /// High-water mark of the event queue depth, sampled once per boundary.
    peak_queue_depth: u64,
    stats: NetStats,
    /// The counters at the start of the current round (obs deltas).
    round_start: NetStats,
    /// When `Some`, every routed message's fate is recorded here (this
    /// engine acting as the recording twin).
    trace: Option<MessageTrace>,
    /// When `Some`, message fates are read from this schedule instead of
    /// being sampled from the network model (this engine acting as the
    /// replaying twin of a recorded run).
    replay: Option<MessageTrace>,
    /// When `Some`, every outgoing message is matched against the fault
    /// plan as it is routed (decisions are pure functions of `(seed, seq)`,
    /// identical on the loopback transport).
    faults: Option<FaultInjector<P::Msg>>,
}

/// The virtual-time event simulator: the scheduler core under the
/// [`Queued`] policy.
pub type EventSimulator<P, A> = Engine<P, A, Queued<P>>;

impl<P: ProtocolStep> Queued<P> {
    /// The current virtual time in ticks (the tick of the next boundary).
    pub fn virtual_time(&self) -> u64 {
        self.now
    }

    /// High-water mark of the event queue depth over the whole run, sampled
    /// at each round boundary after dispatch (when the queue is fullest).
    pub fn peak_queue_depth(&self) -> u64 {
        self.peak_queue_depth
    }

    /// Whole-run counters of the network model's effects.
    pub fn net_stats(&self) -> NetStats {
        self.stats
    }

    /// Starts recording a per-message fate trace. Call before the first
    /// step; retrieve the result with [`take_trace`](Queued::take_trace).
    pub fn record_trace(&mut self) {
        self.trace = Some(MessageTrace::new());
    }

    /// Takes the recorded fate trace, ending recording.
    pub fn take_trace(&mut self) -> Option<MessageTrace> {
        self.trace.take()
    }

    /// Replays `trace` as a fixed fate schedule: from now on, message fates
    /// come from the trace (by send sequence number) instead of the network
    /// model. A step panics if a message is sent beyond the end of the
    /// trace — under a faithful twin the replayed run sends exactly the
    /// recorded messages, so running out of trace means the executions
    /// diverged.
    pub fn set_replay(&mut self, trace: MessageTrace) {
        self.replay = Some(trace);
    }

    /// Installs a fault-injection plan and the protocol's message adapter.
    /// Call before the first step. Decisions are pure functions of
    /// `(seed, seq)`; the same plan injects the same faults on the loopback
    /// transport. When combined with [`set_replay`](Queued::set_replay),
    /// Drop and Delay decisions defer to the trace (which already encodes
    /// every fate) while Duplicate and Mutate are re-applied to keep
    /// sequence numbers and payload bytes aligned with the recording.
    pub fn set_faults(&mut self, plan: FaultPlan, adapter: FaultAdapter<P::Msg>) {
        self.faults = Some(FaultInjector::new(plan, adapter, self.seed));
    }

    /// Whole-run counters of injected faults.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
            .as_ref()
            .map_or_else(FaultStats::default, FaultInjector::stats)
    }

    /// Hands one message (sequence number `seq`) to the network: a fault
    /// drop, a sample from the network model plus any fault delay, or —
    /// when replaying a recorded twin run — the fixed schedule's entry.
    /// Returns `true` if the message was lost.
    fn send(
        &mut self,
        t: Round,
        seq: u64,
        env: Envelope<P::Msg>,
        fault_drop: bool,
        extra_delay: u64,
    ) -> bool {
        self.stats.sent += 1;
        // The effective model of this message is a pure function of
        // (round, sender, receiver); the fate stream it consumes is seeded
        // from (seed, seq) alone, so two topologies resolving this link to
        // equal models take identical branches here.
        let (net, cross) = self.topology.resolve(t, env.from, env.to);
        if cross {
            self.stats.bridge_sent += 1;
        }
        let delay = if fault_drop {
            None
        } else {
            match &self.replay {
                None => {
                    // One fate block serves 64 consecutive sequence numbers;
                    // regenerate only when `seq` crosses a window boundary.
                    let seed = self.seed;
                    let fates = &mut self.fate_block;
                    let block = match fates {
                        Some(b) if b.covers(seed, seq) => &*b,
                        _ => &*fates.insert(FateBlock::containing(seed, seq)),
                    };
                    net.route_with(block, seq)
                        .map(|d| d.saturating_add(extra_delay))
                }
                Some(tr) => match tr.fate(seq) {
                    Some(MessageFate::Lost) => None,
                    Some(MessageFate::Delivered { at_round }) => {
                        // Delivered at boundary `at_round` means an arrival
                        // tick at exactly that boundary (saturating, like
                        // every other tick product).
                        assert!(
                            at_round > t,
                            "replay trace delivers seq {seq} at round {at_round}, not after \
                             its send round {t}"
                        );
                        Some(
                            at_round
                                .saturating_mul(self.ticks_per_round)
                                .saturating_sub(self.now),
                        )
                    }
                    None => panic!(
                        "replay trace exhausted at seq {seq}: the replayed execution \
                         diverged from the recording"
                    ),
                },
            }
        };
        match delay {
            None => {
                self.stats.lost += 1;
                if cross {
                    self.stats.bridge_lost += 1;
                }
                if let Some(tr) = self.trace.as_mut() {
                    tr.record(seq, MessageFate::Lost);
                }
                true
            }
            Some(delay) => {
                self.stats.max_delay_ticks = self.stats.max_delay_ticks.max(delay);
                self.stats.total_delay_ticks = self.stats.total_delay_ticks.saturating_add(delay);
                let arrival = self.now.saturating_add(delay);
                if let Some(tr) = self.trace.as_mut() {
                    // The boundary that will read this message: the first
                    // one at or past the arrival tick, and never the
                    // sending round's own.
                    let at_round = arrival
                        .div_ceil(self.ticks_per_round)
                        .max(t.saturating_add(1));
                    tr.record(seq, MessageFate::Delivered { at_round });
                }
                self.queue.push(Pending { arrival, seq, env });
                false
            }
        }
    }
}

impl<P: ProtocolStep> Delivery<P> for Queued<P> {
    type Config = EventConfig;

    const SPANS: PhaseSpans = PhaseSpans {
        churn: "event.churn",
        deliver: "event.pop",
        compute: None,
        collect: "event.dispatch",
    };

    fn build(config: EventConfig) -> (SimConfig, Self) {
        assert!(config.ticks_per_round > 0, "ticks_per_round must be > 0");
        let policy = Queued {
            topology: config.topology,
            ticks_per_round: config.ticks_per_round,
            seed: config.sim.seed,
            now: 0,
            queue: CalendarQueue::new(config.ticks_per_round),
            deliverable: Vec::new(),
            seq: 0,
            fate_block: None,
            peak_queue_depth: 0,
            stats: NetStats::default(),
            round_start: NetStats::default(),
            trace: None,
            replay: None,
            faults: None,
        };
        (config.sim, policy)
    }

    fn begin_round(&mut self, _t: Round) {
        self.round_start = self.stats;
        if let Some(f) = self.faults.as_mut() {
            f.begin_round();
        }
    }

    /// Hands over every message that has arrived by this boundary's tick. A
    /// delay of `d ∈ [0, ticks_per_round]` for a message sent at boundary
    /// `t - 1` lands at `(t-1)·T + d ≤ t·T` and is therefore read here,
    /// which is the synchronous model's one-round delay; larger delays
    /// straddle further boundaries. The batch is re-sorted into global
    /// *send* order: within one boundary the residual arrival jitter has no
    /// semantic meaning (every message of the batch is read by the same
    /// activation), and send order is exactly the lockstep engine's
    /// delivery order — this is what makes any sub-round network model,
    /// jitter included, bit-identical to the round engine.
    fn deliver(&mut self, _t: Round, batch: &mut Vec<Envelope<P::Msg>>) -> usize {
        // The wheel moves whole due buckets with a bulk append (unordered);
        // the by-seq sort below is the only order the inboxes ever see.
        self.queue
            .drain_at_or_before(self.now, &mut self.deliverable);
        self.deliverable.sort_unstable_by_key(|p| p.seq);
        batch.extend(self.deliverable.drain(..).map(|p| p.env));
        0
    }

    fn undeliverable(&mut self, count: usize) {
        self.stats.dropped_departed += count as u64;
    }

    fn route(
        &mut self,
        t: Round,
        from: NodeId,
        out: &mut Vec<(NodeId, P::Msg)>,
        _next: &mut Vec<Envelope<P::Msg>>,
        obs: &ObsHandle,
    ) -> usize {
        let span = obs.span_start();
        let mut lost = 0;
        for (to, mut payload) in out.drain(..) {
            // Fault-plan decision on the sequence number this message is
            // about to take — a pure function of (seed, seq), so the
            // loopback transport takes the identical branch for the
            // identical frame.
            let decision = match self.faults.as_mut() {
                None => FaultDecision::Pass,
                Some(f) => f.decide(self.seq, t, from, to, &mut payload),
            };
            // When replaying a recorded trace, Drop and Delay are already
            // encoded in the fates; only Mutate (payload bytes) and
            // Duplicate (sequence alignment) re-apply.
            let (fault_drop, extra_delay) = match decision {
                _ if self.replay.is_some() => (false, 0),
                FaultDecision::Drop => (true, 0),
                FaultDecision::Delay(ticks) => (false, ticks),
                _ => (false, 0),
            };
            // The duplicate copy consumes the next sequence number and takes
            // its own network fate, with no fault decision of its own.
            let dup = (decision == FaultDecision::Duplicate).then(|| payload.clone());
            for payload in std::iter::once(payload).chain(dup) {
                let seq = self.seq;
                self.seq += 1;
                let env = Envelope::new(from, to, t, payload);
                lost += usize::from(self.send(t, seq, env, fault_drop, extra_delay));
            }
        }
        obs.span_end("event.fate", span);
        lost
    }

    fn end_round(&mut self, t: Round, obs: &ObsHandle) {
        self.peak_queue_depth = self.peak_queue_depth.max(self.queue.len() as u64);
        self.now = t.saturating_add(1).saturating_mul(self.ticks_per_round);
        if !obs.is_on() {
            return;
        }
        // Scheduler-specific (but still deterministic) counters: the network
        // model's per-round effects and the queue depth.
        let (d, s) = (&self.stats, &self.round_start);
        obs.add("event.net_sent", d.sent - s.sent);
        obs.add("event.net_lost", d.lost - s.lost);
        obs.add(
            "event.dropped_departed",
            d.dropped_departed - s.dropped_departed,
        );
        obs.add("event.bridge_sent", d.bridge_sent - s.bridge_sent);
        obs.add("event.bridge_lost", d.bridge_lost - s.bridge_lost);
        obs.observe("event.queue_len", self.queue.len() as u64);
        // Fault counters only exist when a plan is installed, so fault-free
        // runs keep their exact historical obs output.
        if let Some(f) = &self.faults {
            f.record_obs(obs);
        }
    }

    fn pending(&self) -> usize {
        self.queue.len()
    }

    fn region_of(&self, id: NodeId) -> Option<u32> {
        self.topology.region_of(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::LatencyModel;
    use tsa_sim::prelude::*;

    // The queue's ordering contract (pop order, overflow handling, clamped
    // late pushes) is tested in `crate::queue` and held against a reference
    // `BinaryHeap` by `tests/queue_props.rs`; here we only pin the engine's
    // overflow behavior at the clock level.

    struct Pinger;
    impl Process for Pinger {
        type Msg = ();
        fn on_round(&mut self, ctx: &mut Ctx<'_, ()>, _inbox: &[Envelope<()>]) {
            ctx.send(NodeId(0), ());
        }
    }

    #[test]
    fn virtual_time_saturates_instead_of_wrapping() {
        let mut config = EventConfig::new(
            SimConfig::default().with_seed(1),
            NetModel::new(LatencyModel::constant(0)),
        );
        config.ticks_per_round = u64::MAX;
        let mut sim = EventSimulator::new(config, NullAdversary, Box::new(|_, _| Pinger));
        sim.seed_nodes(2);
        // From round 1 on, round × u64::MAX ticks saturates; without the
        // saturation the clock would wrap to 0 and re-deliver the past.
        sim.run(3);
        assert_eq!(sim.virtual_time(), u64::MAX);
        assert!(sim.metrics().rounds().len() == 3);
    }
}
