//! The fault-injection plan language.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultRule`]s. Every message the
//! engine hands to the network is matched against the rules in order — by
//! round window, sender/receiver selector and message kind — and the first
//! rule that matches *and* whose probability coin fires decides the
//! message's fault: dropped, delayed, duplicated or mutated. Unmatched
//! messages pass through untouched.
//!
//! # Determinism
//!
//! A rule's probability coin is one lane of a private ChaCha8 block keyed on
//! `(master seed, seq / 64, rule index)` — 64 consecutive sequence numbers
//! share one stream, never any shared RNG state — so the decision for a
//! message is a pure function of `(seed, seq)` and the plan itself. The same
//! plan therefore injects the same faults into the same messages on the
//! event engine and on the loopback transport (which assign identical
//! sequence numbers), at any thread cap, on any host; both engines cache the
//! current block in a [`FaultCoins`] so the key schedule runs once per 64
//! messages instead of once per message. Mutation entropy comes from the
//! same domain-separated label, so a mutated payload is byte-identical
//! across engines too.
//!
//! # Fault semantics at the two boundaries
//!
//! * **Drop** — the message never reaches the network (counted as `lost`).
//! * **Delay** — extra ticks on top of the sampled network delay
//!   (`tsa-event`), or the frame is held back for the equivalent number of
//!   whole rounds before it is written (`tsa-net`).
//! * **Duplicate** — a second copy is sent to the same receiver; the copy
//!   consumes the next sequence number and then takes its own independent
//!   network fate.
//! * **Mutate** — the payload is corrupted in place through the protocol's
//!   [`FaultAdapter`] before it is sent. Mutation may touch payload *claims*
//!   (positions, trajectory points) but never the receiver, the message
//!   kind, or the number of messages — those are delivery facts the twin
//!   trace depends on.
//!
//! When the event engine replays a recorded transport trace, Drop and Delay
//! decisions are skipped (the trace already encodes every fate) while
//! Duplicate and Mutate are re-applied, which keeps the sequence-number
//! assignment and the payload bytes of the replay aligned with the
//! recording.

use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use tsa_obs::ObsHandle;
use tsa_sim::rng::mix;
use tsa_sim::{NodeId, Round};

use crate::model::{unit_f64, RegionAssign};

/// Domain-separation label of the per-message fault streams.
const FAULT_LABEL: u64 = 0x4641_554C_5450_4C4E; // "FAULTPLN"

/// Consecutive sequence numbers served by one cached coin block.
const COIN_BLOCK_LANES: u64 = 64;

/// A cache of per-rule probability-coin blocks.
///
/// Rule `idx`'s coin for message `seq` is lane `seq % 64` of a ChaCha8
/// block keyed on `(seed, seq / 64, rule index)`. Hot loops hand out
/// sequence numbers monotonically, so caching the current block per rule
/// amortizes the RNG key schedule over 64 messages. The coin values are a
/// pure function of `(seed, seq, idx)` — the cache changes *when* blocks
/// are generated, never *what* a coin is, so a throwaway cache and a
/// long-lived one make [`FaultPlan::decide_with`] agree exactly.
#[derive(Clone, Debug)]
pub struct FaultCoins {
    seed: u64,
    /// Per-rule `(block index, lanes)`. `u64::MAX` marks an unfilled entry
    /// (unreachable as a real index: `seq / 64 ≤ 2^58`).
    blocks: Vec<(u64, Box<[u64; COIN_BLOCK_LANES as usize]>)>,
}

impl FaultCoins {
    /// An empty cache for runs under `seed`.
    pub fn new(seed: u64) -> Self {
        FaultCoins {
            seed,
            blocks: Vec::new(),
        }
    }

    /// The raw coin word of `(seq, rule idx)`, from the cached block when
    /// it is current, regenerating it otherwise.
    fn word(&mut self, seq: u64, idx: usize) -> u64 {
        let block = seq / COIN_BLOCK_LANES;
        while self.blocks.len() <= idx {
            self.blocks
                .push((u64::MAX, Box::new([0u64; COIN_BLOCK_LANES as usize])));
        }
        let entry = &mut self.blocks[idx];
        if entry.0 != block {
            let mut rng =
                ChaCha8Rng::seed_from_u64(mix(&[self.seed, block, FAULT_LABEL, idx as u64]));
            for w in entry.1.iter_mut() {
                *w = rng.next_u64();
            }
            entry.0 = block;
        }
        entry.1[(seq % COIN_BLOCK_LANES) as usize]
    }
}

/// A half-open round window `[from, until)`. `until = u64::MAX` means
/// "forever"; the default window matches every round.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct RoundWindow {
    /// First round the window covers.
    pub from: Round,
    /// First round past the window (exclusive).
    pub until: Round,
}

impl RoundWindow {
    /// The window covering every round.
    pub fn all() -> Self {
        RoundWindow {
            from: 0,
            until: u64::MAX,
        }
    }

    /// The window `[from, ∞)`.
    pub fn starting_at(from: Round) -> Self {
        RoundWindow {
            from,
            until: u64::MAX,
        }
    }

    /// The window `[from, until)`. An empty or inverted window matches
    /// nothing.
    pub fn between(from: Round, until: Round) -> Self {
        RoundWindow { from, until }
    }

    /// `true` if this is the match-everything window (the serde default).
    pub fn is_all(&self) -> bool {
        *self == RoundWindow::all()
    }

    /// `true` if `round` falls inside the window.
    pub fn contains(&self, round: Round) -> bool {
        self.from <= round && round < self.until
    }

    /// A compact label, e.g. `@8..` or `@8..20`; empty for the full window.
    pub fn label(&self) -> String {
        if self.is_all() {
            String::new()
        } else if self.until == u64::MAX {
            format!("@{}..", self.from)
        } else {
            format!("@{}..{}", self.from, self.until)
        }
    }
}

impl Default for RoundWindow {
    fn default() -> Self {
        RoundWindow::all()
    }
}

/// Selects the senders or receivers a rule applies to. Every variant is a
/// pure function of the node id, so selection is identical on every host
/// and at every thread configuration.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub enum NodeSelector {
    /// Matches every node.
    #[default]
    Any,
    /// Matches exactly one node id.
    Id {
        /// The raw node id to match.
        id: u64,
    },
    /// Matches every node a [`RegionAssign`] places in `region`.
    Region {
        /// The region assignment to evaluate.
        assign: RegionAssign,
        /// The region whose members match.
        region: u32,
    },
}

impl NodeSelector {
    /// `true` if this is the match-everything selector (the serde default).
    pub fn is_any(&self) -> bool {
        matches!(self, NodeSelector::Any)
    }

    /// `true` if the selector matches `node`.
    pub fn matches(&self, node: NodeId) -> bool {
        match self {
            NodeSelector::Any => true,
            NodeSelector::Id { id } => node.raw() == *id,
            NodeSelector::Region { assign, region } => assign.region_of(node) == *region,
        }
    }

    /// A compact label, e.g. `*`, `#5`, `r1`.
    pub fn label(&self) -> String {
        match self {
            NodeSelector::Any => "*".to_string(),
            NodeSelector::Id { id } => format!("#{id}"),
            NodeSelector::Region { region, .. } => format!("r{region}"),
        }
    }
}

/// What happens to a message matched by a rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultAction {
    /// The message never reaches the network.
    Drop,
    /// The message is held back.
    Delay {
        /// Extra delay in virtual ticks
        /// ([`TICKS_PER_ROUND`](crate::TICKS_PER_ROUND) ticks per round).
        /// The transport rounds the hold-back up to whole rounds.
        ticks: u64,
    },
    /// A second copy is sent to the same receiver (it consumes the next
    /// sequence number and takes its own network fate).
    Duplicate,
    /// The payload is corrupted in place through the protocol's
    /// [`FaultAdapter`] before sending.
    Mutate,
}

impl FaultAction {
    /// A one-letter label: `d`rop, de`l`ay, d`u`plicate, `m`utate.
    pub fn letter(&self) -> char {
        match self {
            FaultAction::Drop => 'd',
            FaultAction::Delay { .. } => 'l',
            FaultAction::Duplicate => 'u',
            FaultAction::Mutate => 'm',
        }
    }
}

/// One ordered rule of a [`FaultPlan`]: a match (window, sender, receiver,
/// kinds) and the action taken when the match fires.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FaultRule {
    /// Rounds the rule is active in (default: every round).
    #[serde(default, skip_serializing_if = "RoundWindow::is_all")]
    pub window: RoundWindow,
    /// Senders the rule applies to (default: every sender).
    #[serde(default, skip_serializing_if = "NodeSelector::is_any")]
    pub from: NodeSelector,
    /// Receivers the rule applies to (default: every receiver).
    #[serde(default, skip_serializing_if = "NodeSelector::is_any")]
    pub to: NodeSelector,
    /// Message-kind tags the rule applies to (the protocol's
    /// [`FaultAdapter::kind_of`] tags); empty means every kind.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub kinds: Vec<u8>,
    /// Probability the rule fires when it matches; `None` means always
    /// (probability 1). The coin is a pure function of
    /// `(seed, seq, rule index)`.
    #[serde(default, skip_serializing_if = "Option::is_none")]
    pub prob: Option<f64>,
    /// The action taken when the rule fires.
    pub action: FaultAction,
}

impl FaultRule {
    /// An unconditional rule: every message, every round, probability 1.
    pub fn every(action: FaultAction) -> Self {
        FaultRule {
            window: RoundWindow::all(),
            from: NodeSelector::Any,
            to: NodeSelector::Any,
            kinds: Vec::new(),
            prob: None,
            action,
        }
    }

    /// The effective firing probability (`None` means 1).
    pub fn fire_prob(&self) -> f64 {
        self.prob.unwrap_or(1.0)
    }

    /// Restricts the rule to a round window.
    pub fn in_window(mut self, window: RoundWindow) -> Self {
        self.window = window;
        self
    }

    /// Restricts the rule to matching senders.
    pub fn from(mut self, from: NodeSelector) -> Self {
        self.from = from;
        self
    }

    /// Restricts the rule to matching receivers.
    pub fn to(mut self, to: NodeSelector) -> Self {
        self.to = to;
        self
    }

    /// Restricts the rule to the given message-kind tags.
    pub fn kinds(mut self, kinds: impl IntoIterator<Item = u8>) -> Self {
        self.kinds = kinds.into_iter().collect();
        self
    }

    /// Sets the firing probability.
    pub fn with_prob(mut self, prob: f64) -> Self {
        self.prob = Some(prob);
        self
    }

    /// `true` if the rule's static match (window, selectors, kinds) covers
    /// the message — the probability coin is separate.
    fn matches(&self, round: Round, from: NodeId, to: NodeId, kind: u8) -> bool {
        self.window.contains(round)
            && self.from.matches(from)
            && self.to.matches(to)
            && (self.kinds.is_empty() || self.kinds.contains(&kind))
    }
}

/// The decision a [`FaultPlan`] makes for one message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDecision {
    /// No rule fired: the message is untouched.
    Pass,
    /// The message never reaches the network.
    Drop,
    /// The message is held back by the given number of extra ticks.
    Delay(u64),
    /// A second copy is sent (consuming the next sequence number).
    Duplicate,
    /// The payload is corrupted in place before sending.
    Mutate,
}

/// A serde-round-trippable fault-injection plan: ordered rules applied at
/// the delivery boundary of the event engine and the frame boundary of the
/// loopback transport. The default plan is empty and injects nothing.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// The rules, in priority order (first match that fires wins).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// The empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Appends a rule.
    pub fn with_rule(mut self, rule: FaultRule) -> Self {
        self.rules.push(rule);
        self
    }

    /// `true` if the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Decides the fault for message `seq` sent in `round` from `from` to
    /// `to` with kind tag `kind`, drawing coins from `coins` (seeded with
    /// the run's master seed).
    ///
    /// A pure function: the rules are scanned in order, each matching rule
    /// flips its private coin (one lane of the `(seed, seq / 64, rule
    /// index)` block — no shared stream), and the first rule whose coin
    /// fires decides. Hostile plans (empty, overlapping windows, all-match
    /// selectors) degrade to ordinary rule priority and can never panic. A
    /// cache reused across messages and a fresh one per message decide
    /// identically; engines go through [`FaultInjector`].
    // The negated comparisons are deliberate: they send NaN probabilities
    // into the never-fires arm instead of the always-fires one.
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    pub fn decide_with(
        &self,
        coins: &mut FaultCoins,
        seq: u64,
        round: Round,
        from: NodeId,
        to: NodeId,
        kind: u8,
    ) -> FaultDecision {
        for (idx, rule) in self.rules.iter().enumerate() {
            if !rule.matches(round, from, to, kind) {
                continue;
            }
            let prob = rule.fire_prob();
            // Written so NaN falls into the never-fires arm.
            if !(prob >= 1.0) {
                if !(prob > 0.0) {
                    continue;
                }
                if unit_f64(coins.word(seq, idx)) >= prob {
                    continue;
                }
            }
            return match rule.action {
                FaultAction::Drop => FaultDecision::Drop,
                FaultAction::Delay { ticks } => FaultDecision::Delay(ticks),
                FaultAction::Duplicate => FaultDecision::Duplicate,
                FaultAction::Mutate => FaultDecision::Mutate,
            };
        }
        FaultDecision::Pass
    }

    /// The entropy word a [`FaultAdapter::mutate`] receives for message
    /// `seq`: a pure function of `(seed, seq)`, shared by both engines so a
    /// mutated payload is byte-identical across them.
    pub fn mutation_entropy(seed: u64, seq: u64) -> u64 {
        mix(&[seed, seq, FAULT_LABEL])
    }

    /// A compact label for tables and sweep axes, e.g. `f0` (empty) or
    /// `fd*l*` (one drop rule, one delay rule).
    pub fn label(&self) -> String {
        if self.rules.is_empty() {
            return "f0".to_string();
        }
        let mut label = "f".to_string();
        for rule in &self.rules {
            label.push(rule.action.letter());
            label.push_str(&rule.to.label());
        }
        label
    }
}

/// The engine-side bridge between the generic fault machinery and a concrete
/// protocol message type: plain function pointers, so the engines need no
/// extra trait bounds and the adapter is trivially `Copy`.
pub struct FaultAdapter<M> {
    /// Maps a message to the kind tag [`FaultRule::kinds`] matches against.
    pub kind_of: fn(&M) -> u8,
    /// Corrupts a payload in place using the given entropy word; returns
    /// `true` if anything changed. Must only touch payload claims — never
    /// anything that decides where or whether the message is delivered.
    pub mutate: fn(&mut M, u64) -> bool,
}

impl<M> Clone for FaultAdapter<M> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<M> Copy for FaultAdapter<M> {}

impl<M> std::fmt::Debug for FaultAdapter<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultAdapter").finish_non_exhaustive()
    }
}

/// Whole-run counters of injected faults. Deliberately separate from
/// [`NetStats`](crate::NetStats) so existing serialized artifacts are
/// untouched by the fault layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultStats {
    /// Messages dropped by a fault rule.
    pub dropped: u64,
    /// Messages delayed by a fault rule.
    pub delayed: u64,
    /// Messages duplicated by a fault rule.
    pub duplicated: u64,
    /// Messages whose payload a fault rule mutated.
    pub mutated: u64,
}

impl FaultStats {
    /// Total number of injected faults.
    pub fn total(&self) -> u64 {
        self.dropped + self.delayed + self.duplicated + self.mutated
    }
}

/// A fault plan installed on an engine: the plan, the protocol's adapter,
/// the coin cache and the counters. Both the event engine and the loopback
/// transport take every fault decision through
/// [`decide`](FaultInjector::decide), so a plan counts and mutates
/// identically on both.
pub struct FaultInjector<M> {
    plan: FaultPlan,
    adapter: FaultAdapter<M>,
    coins: FaultCoins,
    stats: FaultStats,
    /// The counters at the start of the current round (obs deltas).
    round_start: FaultStats,
}

impl<M> FaultInjector<M> {
    /// Installs `plan` for runs under master seed `seed`.
    pub fn new(plan: FaultPlan, adapter: FaultAdapter<M>, seed: u64) -> Self {
        FaultInjector {
            plan,
            adapter,
            coins: FaultCoins::new(seed),
            stats: FaultStats::default(),
            round_start: FaultStats::default(),
        }
    }

    /// Decides the fault for message `seq`, sent in `round` from `from` to
    /// `to`, and counts it; a [`FaultDecision::Mutate`] corrupts `payload`
    /// in place with the entropy of `(seed, seq)`.
    pub fn decide(
        &mut self,
        seq: u64,
        round: Round,
        from: NodeId,
        to: NodeId,
        payload: &mut M,
    ) -> FaultDecision {
        let kind = (self.adapter.kind_of)(payload);
        let decision = self
            .plan
            .decide_with(&mut self.coins, seq, round, from, to, kind);
        match decision {
            FaultDecision::Pass => {}
            FaultDecision::Drop => self.stats.dropped += 1,
            FaultDecision::Delay(_) => self.stats.delayed += 1,
            FaultDecision::Duplicate => self.stats.duplicated += 1,
            FaultDecision::Mutate => {
                let entropy = FaultPlan::mutation_entropy(self.coins.seed, seq);
                if (self.adapter.mutate)(payload, entropy) {
                    self.stats.mutated += 1;
                }
            }
        }
        decision
    }

    /// Whole-run counters of injected faults.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Marks the start of a round for [`record_obs`](Self::record_obs).
    pub fn begin_round(&mut self) {
        self.round_start = self.stats;
    }

    /// Adds the faults injected since [`begin_round`](Self::begin_round) to
    /// the `proto.fault_*` counters.
    pub fn record_obs(&self, obs: &ObsHandle) {
        let (f, s) = (&self.stats, &self.round_start);
        obs.add("proto.fault_dropped", f.dropped - s.dropped);
        obs.add("proto.fault_delayed", f.delayed - s.delayed);
        obs.add("proto.fault_duplicated", f.duplicated - s.duplicated);
        obs.add("proto.fault_mutated", f.mutated - s.mutated);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-shot decision with a fresh coin cache.
    fn decide(
        plan: &FaultPlan,
        seed: u64,
        seq: u64,
        round: Round,
        from: NodeId,
        to: NodeId,
        kind: u8,
    ) -> FaultDecision {
        plan.decide_with(&mut FaultCoins::new(seed), seq, round, from, to, kind)
    }

    fn drop_all() -> FaultPlan {
        FaultPlan::new().with_rule(FaultRule::every(FaultAction::Drop))
    }

    #[test]
    fn the_empty_plan_passes_everything() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        for seq in 0..64 {
            assert_eq!(
                decide(&plan, 7, seq, 3, NodeId(1), NodeId(2), 0),
                FaultDecision::Pass
            );
        }
    }

    #[test]
    fn first_matching_rule_wins() {
        let plan = FaultPlan::new()
            .with_rule(FaultRule::every(FaultAction::Drop).kinds([2]))
            .with_rule(FaultRule::every(FaultAction::Mutate));
        assert_eq!(
            decide(&plan, 1, 0, 0, NodeId(0), NodeId(1), 2),
            FaultDecision::Drop,
            "kind 2 hits the drop rule first"
        );
        assert_eq!(
            decide(&plan, 1, 0, 0, NodeId(0), NodeId(1), 3),
            FaultDecision::Mutate,
            "other kinds fall through to the catch-all"
        );
    }

    #[test]
    fn decisions_are_pure_functions_of_seed_and_seq() {
        let plan = FaultPlan::new()
            .with_rule(FaultRule::every(FaultAction::Drop).with_prob(0.5))
            .with_rule(FaultRule::every(FaultAction::Delay { ticks: 700 }).with_prob(0.5));
        let first: Vec<FaultDecision> = (0..256)
            .map(|seq| decide(&plan, 42, seq, 5, NodeId(3), NodeId(4), 1))
            .collect();
        let second: Vec<FaultDecision> = (0..256)
            .map(|seq| decide(&plan, 42, seq, 5, NodeId(3), NodeId(4), 1))
            .collect();
        assert_eq!(first, second, "same inputs, same decisions");
        assert!(
            first.contains(&FaultDecision::Drop)
                && first.contains(&FaultDecision::Delay(700))
                && first.contains(&FaultDecision::Pass),
            "a 0.5/0.5 two-rule plan exercises all three outcomes: {first:?}"
        );
        let other_seed: Vec<FaultDecision> = (0..256)
            .map(|seq| decide(&plan, 43, seq, 5, NodeId(3), NodeId(4), 1))
            .collect();
        assert_ne!(first, other_seed, "the seed matters");
    }

    #[test]
    fn selectors_and_windows_restrict_the_match() {
        let plan = FaultPlan::new().with_rule(
            FaultRule::every(FaultAction::Drop)
                .in_window(RoundWindow::between(10, 20))
                .from(NodeSelector::Id { id: 5 })
                .to(NodeSelector::Region {
                    assign: RegionAssign::halves(8),
                    region: 0,
                }),
        );
        let hit = decide(&plan, 1, 0, 15, NodeId(5), NodeId(3), 0);
        assert_eq!(hit, FaultDecision::Drop);
        assert_eq!(
            decide(&plan, 1, 0, 9, NodeId(5), NodeId(3), 0),
            FaultDecision::Pass,
            "before the window"
        );
        assert_eq!(
            decide(&plan, 1, 0, 20, NodeId(5), NodeId(3), 0),
            FaultDecision::Pass,
            "the window end is exclusive"
        );
        assert_eq!(
            decide(&plan, 1, 0, 15, NodeId(6), NodeId(3), 0),
            FaultDecision::Pass,
            "wrong sender"
        );
        assert_eq!(
            decide(&plan, 1, 0, 15, NodeId(5), NodeId(9), 0),
            FaultDecision::Pass,
            "receiver in the wrong region"
        );
    }

    #[test]
    fn degenerate_probabilities_never_panic() {
        for prob in [0.0, -1.0, 2.0, f64::NAN] {
            let plan =
                FaultPlan::new().with_rule(FaultRule::every(FaultAction::Drop).with_prob(prob));
            // NaN and non-positive probabilities never fire; ≥ 1 always does.
            let d = decide(&plan, 1, 0, 0, NodeId(0), NodeId(1), 0);
            if prob >= 1.0 {
                assert_eq!(d, FaultDecision::Drop);
            } else {
                assert_eq!(d, FaultDecision::Pass);
            }
        }
    }

    #[test]
    fn plans_round_trip_through_serde() {
        let plan = FaultPlan::new()
            .with_rule(
                FaultRule::every(FaultAction::Delay { ticks: 1500 })
                    .in_window(RoundWindow::starting_at(4))
                    .kinds([2, 3])
                    .with_prob(0.25),
            )
            .with_rule(FaultRule::every(FaultAction::Mutate).to(NodeSelector::Id { id: 7 }));
        let json = serde_json::to_string(&plan).expect("plan serializes");
        let back: FaultPlan = serde_json::from_str(&json).expect("plan deserializes");
        assert_eq!(plan, back);
        let json2 = serde_json::to_string(&back).expect("plan re-serializes");
        assert_eq!(json, json2, "serialization is byte-stable");
    }

    #[test]
    fn default_fields_are_skipped_in_json() {
        let plan = drop_all();
        let json = serde_json::to_string(&plan).expect("plan serializes");
        assert_eq!(
            json, r#"{"rules":[{"action":"Drop"}]}"#,
            "every defaulted field stays off the wire"
        );
        let empty = serde_json::to_string(&FaultPlan::default()).expect("serializes");
        assert_eq!(empty, "{}", "the empty plan is an empty object");
    }

    #[test]
    fn labels_are_compact() {
        assert_eq!(FaultPlan::default().label(), "f0");
        assert_eq!(drop_all().label(), "fd*");
        let plan = FaultPlan::new()
            .with_rule(FaultRule::every(FaultAction::Delay { ticks: 5 }))
            .with_rule(FaultRule::every(FaultAction::Mutate).to(NodeSelector::Id { id: 3 }));
        assert_eq!(plan.label(), "fl*m#3");
        assert_eq!(RoundWindow::all().label(), "");
        assert_eq!(RoundWindow::starting_at(8).label(), "@8..");
        assert_eq!(RoundWindow::between(8, 20).label(), "@8..20");
    }

    #[test]
    fn mutation_entropy_is_stable_and_seq_sensitive() {
        assert_eq!(
            FaultPlan::mutation_entropy(9, 100),
            FaultPlan::mutation_entropy(9, 100)
        );
        assert_ne!(
            FaultPlan::mutation_entropy(9, 100),
            FaultPlan::mutation_entropy(9, 101)
        );
    }
}
