//! The calendar (timing-wheel) event queue behind the event engine.
//!
//! # Why not a binary heap
//!
//! The engine's delivery pattern is extremely structured: events are pushed
//! with arrival ticks at most a few round-windows ahead of the virtual clock
//! and are drained in whole round-boundary batches. A binary heap pays
//! `O(log n)` pointer-chasing comparisons per push *and* per pop for a
//! generality the workload never uses. A calendar queue instead hashes each
//! event into the bucket covering its arrival window (`arrival /
//! bucket_width`), keeps a small ring of near-future buckets plus an
//! overflow list for far-future events, and sorts a bucket only when it is
//! actually popped from — `O(1)` amortized per operation for round-shaped
//! workloads.
//!
//! # Ordering contract
//!
//! [`CalendarQueue::pop_at_or_before`] yields events in exactly the total
//! order the engine's original `BinaryHeap<Pending>` popped them:
//! ascending `(arrival, seq, receiver)`. Bucket indices are monotone in the
//! arrival tick, late pushes whose natural bucket has already been drained
//! are clamped into the current bucket (where the in-bucket sort restores
//! their key order), and overflow events are folded back into the ring
//! *whenever the wheel horizon advances over them* — never only when the
//! ring empties, which would let a fresh in-ring push overtake an earlier
//! overflow event. `crates/event/tests/queue_props.rs` holds this
//! equivalence against a reference heap under dense, sparse, far-future and
//! duplicate-arrival tick distributions.
//!
//! All tick arithmetic saturates: an event at `arrival = u64::MAX` (a
//! hostile `FaultAction::Delay` plan) parks in the overflow list instead of
//! wrapping into the past and reordering the queue, and folds back into the
//! ring once the wheel catches up — the in-ring test compares bucket
//! *distances* rather than a `cur + WHEEL_SLOTS` horizon, so even bucket
//! `u64::MAX` (width 1) is reachable rather than stuck beyond a horizon
//! that saturates at `u64::MAX`.

use std::cmp::Ordering;

use tsa_sim::{Envelope, NodeId};

/// Number of near-future buckets kept in the ring. One bucket per round
/// window (the engine sets `bucket_width = ticks_per_round`), so the ring
/// covers 64 rounds of look-ahead before events spill to overflow.
const WHEEL_SLOTS: u64 = 64;

/// One message in flight: its arrival tick, global send sequence number and
/// envelope. The queue orders by `(arrival, seq, receiver)`; `seq` is unique
/// in a live engine, so the order is total and delivery is deterministic.
pub struct Pending<M> {
    /// The virtual tick at which the message becomes deliverable.
    pub arrival: u64,
    /// The message's global send index.
    pub seq: u64,
    /// The envelope handed to the receiver's inbox.
    pub env: Envelope<M>,
}

impl<M> Pending<M> {
    /// The total-order key: `(arrival, seq, receiver)`.
    pub fn cmp_key(&self) -> (u64, u64, NodeId) {
        (self.arrival, self.seq, self.env.to)
    }
}

impl<M> PartialEq for Pending<M> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key() == other.cmp_key()
    }
}
impl<M> Eq for Pending<M> {}
impl<M> PartialOrd for Pending<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Pending<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: `BinaryHeap` is a max-heap, the earliest event pops
        // first. Kept on `Pending` so a reference heap (tests, benches)
        // still orders exactly like the calendar queue.
        other.cmp_key().cmp(&self.cmp_key())
    }
}

/// One wheel slot: its events plus a lazily-maintained sort flag. A fully
/// drained bucket hands its buffer to the queue's single spare (see
/// [`CalendarQueue::push`]), so the ring never holds more than the live
/// windows' worth of capacity.
struct Bucket<M> {
    /// The slot's events; sorted *descending* by key when `sorted` is set,
    /// so the minimum pops from the tail in O(1).
    items: Vec<Pending<M>>,
    sorted: bool,
}

impl<M> Default for Bucket<M> {
    fn default() -> Self {
        Bucket {
            items: Vec::new(),
            sorted: true,
        }
    }
}

/// A calendar queue over [`Pending`] events, keyed on the arrival tick.
///
/// See the module docs for the layout and the ordering contract.
pub struct CalendarQueue<M> {
    /// Ticks covered by one bucket (the engine's `ticks_per_round`; ≥ 1).
    width: u64,
    /// The ring of near-future buckets; absolute bucket `b` lives in slot
    /// `b % WHEEL_SLOTS` while `b < cur + WHEEL_SLOTS`.
    ring: Vec<Bucket<M>>,
    /// The absolute index of the earliest live bucket. Monotone.
    cur: u64,
    /// Events currently in the ring.
    ring_len: usize,
    /// Far-future events (arrival beyond the ring horizon), unordered.
    overflow: Vec<Pending<M>>,
    /// Smallest absolute bucket index present in `overflow`, `None` when
    /// the overflow list is empty. An `Option` rather than a `u64::MAX`
    /// sentinel: at width 1 an event at `arrival = u64::MAX` really lives
    /// in bucket `u64::MAX`, and a sentinel collision there once made
    /// `seek_to_live_bucket` spin forever.
    overflow_min: Option<u64>,
    /// The buffer of the most recently drained bucket, taken by the next
    /// push into an unallocated bucket. One spare instead of one retained
    /// buffer per slot: a round-shaped workload keeps one or two buckets
    /// live, and 64 slots each holding a full round of events would be
    /// dead weight.
    spare: Vec<Pending<M>>,
}

impl<M> CalendarQueue<M> {
    /// A queue whose buckets each cover `bucket_width` ticks (clamped to at
    /// least 1).
    pub fn new(bucket_width: u64) -> Self {
        CalendarQueue {
            width: bucket_width.max(1),
            ring: (0..WHEEL_SLOTS).map(|_| Bucket::default()).collect(),
            cur: 0,
            ring_len: 0,
            overflow: Vec::new(),
            overflow_min: None,
            spare: Vec::new(),
        }
    }

    /// Number of queued events.
    pub fn len(&self) -> usize {
        self.ring_len + self.overflow.len()
    }

    /// `true` when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The absolute bucket index covering `arrival`, clamped so that a late
    /// push (arrival before the current bucket's window) lands in the
    /// current bucket, where the in-bucket sort restores its key order.
    fn bucket_of(&self, arrival: u64) -> u64 {
        (arrival / self.width).max(self.cur)
    }

    /// Whether absolute bucket `b` currently falls inside the ring. The
    /// check compares the *distance* from `cur` (saturating, for the
    /// clamped-late-push case where `b` sits below `cur`): a
    /// `b < cur + WHEEL_SLOTS` horizon comparison would saturate at
    /// `u64::MAX` near the top of the tick range and never admit bucket
    /// `u64::MAX` itself.
    fn in_ring(&self, b: u64) -> bool {
        b.saturating_sub(self.cur) < WHEEL_SLOTS
    }

    /// Queues an event.
    pub fn push(&mut self, p: Pending<M>) {
        let b = self.bucket_of(p.arrival);
        if self.in_ring(b) {
            self.push_ring(b, p);
        } else {
            self.overflow_min = Some(self.overflow_min.map_or(b, |m| m.min(b)));
            self.overflow.push(p);
        }
    }

    /// Files an event into ring bucket `b`. A bucket without a buffer takes
    /// the spare one.
    fn push_ring(&mut self, b: u64, p: Pending<M>) {
        let slot = &mut self.ring[(b % WHEEL_SLOTS) as usize];
        if slot.items.capacity() == 0 {
            slot.items = std::mem::take(&mut self.spare);
        }
        slot.items.push(p);
        slot.sorted = false;
        self.ring_len += 1;
    }

    /// Folds every overflow event whose bucket has come inside the ring
    /// horizon back into the ring, and recomputes the overflow minimum.
    fn refill_from_overflow(&mut self) {
        let mut min: Option<u64> = None;
        let mut i = 0;
        while i < self.overflow.len() {
            let b = self.bucket_of(self.overflow[i].arrival);
            if self.in_ring(b) {
                let p = self.overflow.swap_remove(i);
                self.push_ring(b, p);
            } else {
                min = Some(min.map_or(b, |m| m.min(b)));
                i += 1;
            }
        }
        self.overflow_min = min;
    }

    /// Advances `cur` to the earliest non-empty bucket, folding overflow
    /// events back into the ring as the horizon moves over them. Returns
    /// `false` when the queue is empty.
    fn seek_to_live_bucket(&mut self) -> bool {
        loop {
            if self.overflow_min.is_some_and(|m| self.in_ring(m)) {
                self.refill_from_overflow();
            }
            if self.ring_len == 0 {
                let Some(min) = self.overflow_min else {
                    return false;
                };
                // Everything queued is far-future: jump the wheel straight
                // to the earliest overflow bucket (cur is monotone, the
                // overflow minimum is always at or past the old horizon).
                // The next iteration's refill then folds that bucket into
                // the ring — `in_ring` admits it even at `u64::MAX` — so
                // `ring_len` becomes nonzero and the loop terminates.
                self.cur = self.cur.max(min);
                continue;
            }
            if !self.ring[(self.cur % WHEEL_SLOTS) as usize]
                .items
                .is_empty()
            {
                return true;
            }
            self.cur += 1;
        }
    }

    /// Pops the minimum-key event if its arrival tick is at or before
    /// `now` — exactly the events and exactly the order a
    /// `BinaryHeap<Pending>` would yield with
    /// `heap.peek().arrival <= now` / `heap.pop()`.
    pub fn pop_at_or_before(&mut self, now: u64) -> Option<Pending<M>> {
        if !self.seek_to_live_bucket() {
            return None;
        }
        let bucket = &mut self.ring[(self.cur % WHEEL_SLOTS) as usize];
        if !bucket.sorted {
            // Descending, so the global minimum sits at the tail. The
            // current bucket holds the smallest keys in the whole queue:
            // later ring buckets and overflow events cover strictly later
            // arrival windows, and late pushes were clamped into this one.
            bucket
                .items
                .sort_unstable_by_key(|p| std::cmp::Reverse(p.cmp_key()));
            bucket.sorted = true;
        }
        if bucket.items.last()?.arrival > now {
            return None;
        }
        self.ring_len -= 1;
        let p = bucket.items.pop();
        if bucket.items.is_empty() {
            self.spare = std::mem::take(&mut bucket.items);
        }
        p
    }

    /// Moves every event with `arrival <= now` into `out`, in **unspecified
    /// order** (the engine re-sorts its deliverable batch by `seq` anyway).
    /// Whole due buckets are appended with a bulk move and never key-sorted;
    /// use [`pop_at_or_before`](Self::pop_at_or_before) when the pop order
    /// itself matters.
    pub fn drain_at_or_before(&mut self, now: u64, out: &mut Vec<Pending<M>>) {
        loop {
            if !self.seek_to_live_bucket() {
                return;
            }
            let width = self.width;
            let bucket = &mut self.ring[(self.cur % WHEEL_SLOTS) as usize];
            // The current bucket's window ends at (cur + 1) · width − 1;
            // if that is within `now` the whole bucket is due (clamped late
            // pushes are even earlier) and moves without any sort. Checked
            // arithmetic throughout: near the top of the tick range the
            // true end meets or exceeds `u64::MAX`, and a clamped
            // `u64::MAX − 1` end would bulk-move an `arrival = u64::MAX`
            // event one tick early.
            let bucket_end = self
                .cur
                .checked_add(1)
                .and_then(|b| b.checked_mul(width))
                .map_or(u64::MAX, |e| e - 1);
            if bucket_end <= now {
                self.ring_len -= bucket.items.len();
                out.append(&mut bucket.items);
                bucket.sorted = true;
                self.spare = std::mem::take(&mut bucket.items);
                continue;
            }
            // Partially due bucket: sort once, then peel the due tail.
            if !bucket.sorted {
                bucket
                    .items
                    .sort_unstable_by_key(|p| std::cmp::Reverse(p.cmp_key()));
                bucket.sorted = true;
            }
            while bucket.items.last().is_some_and(|p| p.arrival <= now) {
                out.push(bucket.items.pop().expect("tail checked above"));
                self.ring_len -= 1;
            }
            if bucket.items.is_empty() {
                self.spare = std::mem::take(&mut bucket.items);
            }
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pending(arrival: u64, seq: u64, to: u64) -> Pending<u64> {
        Pending {
            arrival,
            seq,
            env: Envelope::new(NodeId(0), NodeId(to), 0, 0),
        }
    }

    fn drain_keys(q: &mut CalendarQueue<u64>, now: u64) -> Vec<(u64, u64, NodeId)> {
        std::iter::from_fn(|| q.pop_at_or_before(now))
            .map(|p| p.cmp_key())
            .collect()
    }

    #[test]
    fn pops_by_arrival_then_seq_then_receiver() {
        // The queue's total order is (arrival, seq, receiver): earlier
        // arrivals first, ties broken by global send index, and — though a
        // live engine never produces two events with one seq — the receiver
        // keeps even hand-crafted duplicates deterministic.
        let mut q = CalendarQueue::new(2);
        for (a, s, r) in [(5, 9, 1), (5, 2, 9), (3, 7, 0), (5, 2, 3), (1, 50, 4)] {
            q.push(pending(a, s, r));
        }
        assert_eq!(
            drain_keys(&mut q, u64::MAX),
            vec![
                (1, 50, NodeId(4)),
                (3, 7, NodeId(0)),
                (5, 2, NodeId(3)),
                (5, 2, NodeId(9)),
                (5, 9, NodeId(1)),
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn pop_respects_the_now_cutoff() {
        let mut q = CalendarQueue::new(10);
        q.push(pending(15, 0, 0));
        q.push(pending(5, 1, 0));
        assert_eq!(q.pop_at_or_before(10).unwrap().arrival, 5);
        assert!(q.pop_at_or_before(10).is_none(), "15 is after the cutoff");
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop_at_or_before(15).unwrap().arrival, 15);
    }

    #[test]
    fn overflow_events_come_back_in_order_as_the_horizon_advances() {
        // Regression shape: an event lands in overflow (beyond the ring),
        // then the wheel advances far enough that a *later* event is pushed
        // straight into the ring. The overflow event must still pop first.
        let w = 1u64;
        let mut q = CalendarQueue::new(w);
        q.push(pending(0, 0, 0));
        q.push(pending(WHEEL_SLOTS + 1, 1, 0)); // beyond horizon -> overflow
        assert_eq!(q.pop_at_or_before(0).unwrap().seq, 0);
        // Drain attempts advance the wheel; push a ring event *later* than
        // the overflow one.
        assert!(q.pop_at_or_before(WHEEL_SLOTS).is_none());
        q.push(pending(WHEEL_SLOTS + 2, 2, 0));
        assert_eq!(q.pop_at_or_before(u64::MAX).unwrap().seq, 1);
        assert_eq!(q.pop_at_or_before(u64::MAX).unwrap().seq, 2);
    }

    #[test]
    fn late_pushes_clamp_into_the_current_bucket_and_pop_first() {
        let mut q = CalendarQueue::new(1);
        q.push(pending(100, 0, 0));
        assert!(q.pop_at_or_before(99).is_none()); // advances cur to 100
        q.push(pending(3, 1, 0)); // natural bucket long drained
        assert_eq!(q.pop_at_or_before(u64::MAX).unwrap().seq, 1);
        assert_eq!(q.pop_at_or_before(u64::MAX).unwrap().seq, 0);
    }

    #[test]
    fn saturating_far_future_arrivals_never_wrap() {
        let mut q = CalendarQueue::new(1000);
        q.push(pending(u64::MAX, 7, 0));
        q.push(pending(0, 1, 0));
        assert_eq!(q.pop_at_or_before(0).unwrap().seq, 1);
        assert!(q.pop_at_or_before(u64::MAX - 1).is_none());
        assert_eq!(q.pop_at_or_before(u64::MAX).unwrap().seq, 7);
    }

    #[test]
    fn width_one_saturated_arrival_pops_instead_of_hanging() {
        // Regression: at width 1 an arrival of u64::MAX lives in bucket
        // u64::MAX, which collided with the old overflow-min empty sentinel
        // and could never satisfy a `< cur + WHEEL_SLOTS` horizon check that
        // saturates at u64::MAX — pop_at_or_before(u64::MAX) spun forever.
        let mut q = CalendarQueue::new(1);
        q.push(pending(u64::MAX, 0, 0));
        assert!(q.pop_at_or_before(u64::MAX - 1).is_none());
        assert_eq!(q.pop_at_or_before(u64::MAX).unwrap().seq, 0);
        assert!(q.is_empty());
        assert!(q.pop_at_or_before(u64::MAX).is_none());
    }

    #[test]
    fn width_one_pops_in_order_near_saturation() {
        // Buckets u64::MAX - 2 and u64::MAX both sit past any reachable
        // horizon; the wheel must jump to the first and still admit the
        // second, in key order.
        let mut q = CalendarQueue::new(1);
        q.push(pending(u64::MAX, 1, 0));
        q.push(pending(u64::MAX - 2, 0, 0));
        assert_eq!(q.pop_at_or_before(u64::MAX).unwrap().seq, 0);
        assert_eq!(q.pop_at_or_before(u64::MAX).unwrap().seq, 1);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_near_saturation_keeps_the_not_yet_due_max_arrival() {
        // Regression: the bulk-move bucket end was computed saturating then
        // minus one, clamping the last bucket's end to u64::MAX - 1, so
        // drain_at_or_before(u64::MAX - 1) moved an arrival = u64::MAX
        // event one tick early. Width 1000 exercises the saturated-multiply
        // arm (both events share the final partial bucket).
        let mut q = CalendarQueue::new(1000);
        q.push(pending(u64::MAX, 0, 0));
        q.push(pending(u64::MAX - 1, 1, 0));
        let mut out = Vec::new();
        q.drain_at_or_before(u64::MAX - 1, &mut out);
        assert_eq!(out.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![1]);
        assert_eq!(q.len(), 1);
        out.clear();
        q.drain_at_or_before(u64::MAX, &mut out);
        assert_eq!(out.iter().map(|p| p.seq).collect::<Vec<_>>(), vec![0]);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_at_width_one_respects_the_saturated_bucket_end() {
        // The saturated-add arm: at width 1 the final bucket IS u64::MAX,
        // whose inclusive end is u64::MAX, not u64::MAX - 1.
        let mut q = CalendarQueue::new(1);
        q.push(pending(u64::MAX, 0, 0));
        let mut out = Vec::new();
        q.drain_at_or_before(u64::MAX - 1, &mut out);
        assert!(out.is_empty(), "arrival u64::MAX is not yet due");
        q.drain_at_or_before(u64::MAX, &mut out);
        assert_eq!(out.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn drain_moves_exactly_the_due_set() {
        let mut q = CalendarQueue::new(4);
        let mut reference = Vec::new();
        for (a, s) in [(0, 0), (3, 1), (4, 2), (7, 3), (8, 4), (1000, 5)] {
            q.push(pending(a, s, 0));
            reference.push((a, s));
        }
        let mut out = Vec::new();
        q.drain_at_or_before(7, &mut out);
        let mut got: Vec<u64> = out.iter().map(|p| p.seq).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(q.len(), 2);
        // The remainder still pops in key order.
        assert_eq!(
            drain_keys(&mut q, u64::MAX)
                .iter()
                .map(|k| k.1)
                .collect::<Vec<_>>(),
            vec![4, 5]
        );
    }

    #[test]
    fn drained_buckets_share_one_spare_instead_of_hoarding_capacity() {
        // 200 rounds of one-round-latency traffic: each round's batch
        // arrives by the next boundary (a full-round delay lands on the next
        // window's first tick, so two buckets can be live at once). Were
        // drained buckets to keep their buffers, all 64 slots would end up
        // holding a full batch each.
        let mut q = CalendarQueue::new(1000);
        let mut out = Vec::new();
        let mut seq = 0;
        let mut largest = 0;
        for round in 0..200u64 {
            let batch = 100 + (round * 37 % 101);
            largest = largest.max(batch as usize);
            for _ in 0..batch {
                q.push(pending(round * 1000 + 1 + seq % 1000, seq, 0));
                seq += 1;
            }
            out.clear();
            q.drain_at_or_before((round + 1) * 1000, &mut out);
        }
        let held = q.spare.capacity() + q.ring.iter().map(|b| b.items.capacity()).sum::<usize>();
        assert!(
            held <= 3 * largest,
            "{held} slots held for batches of at most {largest}"
        );
    }

    #[test]
    fn equal_keys_compare_equal_across_payloads() {
        let a = pending(4, 4, 4);
        let b = Pending {
            arrival: 4,
            seq: 4,
            env: Envelope::new(NodeId(7), NodeId(4), 3, 999),
        };
        assert!(a == b, "ordering ignores everything but the key");
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
    }
}
