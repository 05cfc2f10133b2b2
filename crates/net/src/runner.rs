//! The loopback-TCP transport runtime.
//!
//! # Runtime model
//!
//! [`NetRunner`] is the scheduler core of `tsa-sim`
//! ([`Engine`]) under the [`Sockets`] delivery policy —
//! the third policy over the workspace's transport-agnostic
//! [`Process`] node logic, after the lockstep round engine and the
//! virtual-time event engine, and the first one where messages travel as
//! real bytes. Every node owns a loopback TCP listener; activations still
//! happen on the synchronous cadence of the paper's model, but the cadence
//! is now *wall-clock*: each round lasts the configured round duration, and
//! the network between the boundaries is the operating system.
//!
//! Two threads run the show: the caller's thread is the *coordinator*
//! (churn, activations, sends — the compute phase stays on this thread, so
//! the poller keeps a core within each round's window), and one *poller*
//! thread owns every
//! listener and accepted connection, decoding frames into a shared hub of
//! inboxes as they arrive. There is no tokio and no thread-per-node —
//! `std::net` nonblocking sockets and a `64 KiB` read buffer are enough for
//! an in-process overlay.
//!
//! # Determinism boundary
//!
//! Wall-clock time and OS scheduling decide *when* a frame lands, and
//! therefore which round boundary reads it — that is the only
//! nondeterminism. Everything else is the shared core: churn goes through
//! the same arbiter against the same lateness-filtered knowledge,
//! per-activation RNG streams depend only on `(seed, node, round)`, frames
//! are written in the core's sequential collect (so sequence numbers mean
//! the same message as in the event engine), and inboxes are re-sorted into
//! global send order before every activation. The runner records each
//! message's fate in a [`MessageTrace`]; replaying that trace in an
//! [`EventSimulator`](tsa_event::EventSimulator) re-executes the run inside
//! the deterministic model — the differential tests in `tsa-core` prove the
//! replay reproduces the transport run's protocol state exactly.

use std::collections::BTreeMap;
use std::io::{self, Read as _, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use tsa_event::{
    FaultAdapter, FaultDecision, FaultInjector, FaultPlan, FaultStats, MessageFate, MessageTrace,
    NetStats, TICKS_PER_ROUND,
};
use tsa_obs::ObsHandle;
use tsa_sim::{Delivery, Engine, Envelope, NodeId, PhaseSpans, Process, Round, SimConfig};

use crate::codec::{decode_wire_value, encode_wire_frame, FrameDecoder, DEFAULT_MAX_FRAME};

/// Configuration of a loopback transport run.
#[derive(Clone, Debug)]
pub struct NetConfig {
    /// The shared simulation knobs: seed, hash seed, lateness, churn rules,
    /// history window. Seeds are used exactly as in the other two engines,
    /// so the same protocol run is comparable across all three.
    pub sim: SimConfig,
    /// Wall-clock duration of one round. The default 20 ms is comfortably
    /// longer than a loopback round-trip and short enough that tests stay
    /// fast. Delays are counted in the event engine's ticks
    /// ([`TICKS_PER_ROUND`] per round) whatever the duration.
    pub round_duration: Duration,
    /// Upper bound on a single frame's payload, enforced by the decoder.
    pub max_frame: usize,
}

impl NetConfig {
    /// A transport configuration over `sim` with the default 20 ms round.
    pub fn new(sim: SimConfig) -> Self {
        NetConfig {
            sim,
            round_duration: Duration::from_millis(20),
            max_frame: DEFAULT_MAX_FRAME,
        }
    }

    /// Sets the wall-clock duration of one round.
    pub fn with_round_duration(mut self, duration: Duration) -> Self {
        self.round_duration = duration;
        self
    }

    /// The wall-clock duration of one round.
    pub fn round_duration(&self) -> Duration {
        self.round_duration
    }
}

/// Whole-run counters of actual wire traffic (frames and bytes, headers
/// included), on both sides of the loopback.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct WireStats {
    /// Frames successfully written to a socket.
    pub frames_sent: u64,
    /// Bytes written, length prefixes included.
    pub bytes_sent: u64,
    /// Frames decoded by the poller.
    pub frames_received: u64,
    /// Bytes read by the poller.
    pub bytes_received: u64,
}

/// One node's decoded-but-unread messages: `(send seq, envelope)` pairs in
/// arrival order, re-sorted into global send order at the round boundary.
type InboxBatch<M> = Vec<(u64, Envelope<M>)>;

/// Messages the poller has decoded but no activation has read yet.
struct Hub<M> {
    /// Per-node pending messages, keyed by the *listener owner* (the socket
    /// a frame arrived on decides its receiver).
    inboxes: BTreeMap<NodeId, InboxBatch<M>>,
    /// Sequence numbers of frames that arrived for a node with no inbox
    /// (departed between the sender's records and delivery).
    dead_letters: Vec<u64>,
    frames_received: u64,
    bytes_received: u64,
}

impl<M> Default for Hub<M> {
    fn default() -> Self {
        Hub {
            inboxes: BTreeMap::new(),
            dead_letters: Vec::new(),
            frames_received: 0,
            bytes_received: 0,
        }
    }
}

/// Coordinator → poller control messages.
enum Ctl {
    Register(NodeId, TcpListener),
    Unregister(NodeId),
    Shutdown,
}

/// One accepted connection on the poller: the listener owner it delivers
/// to, the nonblocking stream, and its incremental frame decoder.
struct Conn {
    owner: NodeId,
    stream: TcpStream,
    decoder: FrameDecoder,
}

/// The poller loop: accept on every registered listener, read every
/// connection, decode frames into the hub. Runs until shutdown.
fn poll_loop<M: serde::Deserialize>(
    ctl: mpsc::Receiver<Ctl>,
    hub: Arc<Mutex<Hub<M>>>,
    max_frame: usize,
) {
    let mut listeners: Vec<(NodeId, TcpListener)> = Vec::new();
    let mut conns: Vec<Conn> = Vec::new();
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        loop {
            match ctl.try_recv() {
                Ok(Ctl::Register(id, listener)) => listeners.push((id, listener)),
                Ok(Ctl::Unregister(id)) => {
                    listeners.retain(|(owner, _)| *owner != id);
                    conns.retain(|c| c.owner != id);
                }
                Ok(Ctl::Shutdown) | Err(mpsc::TryRecvError::Disconnected) => return,
                Err(mpsc::TryRecvError::Empty) => break,
            }
        }
        let mut active = false;
        for (owner, listener) in listeners.iter() {
            loop {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if stream.set_nonblocking(true).is_err() {
                            continue;
                        }
                        conns.push(Conn {
                            owner: *owner,
                            stream,
                            decoder: FrameDecoder::with_max_frame(max_frame),
                        });
                        active = true;
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
        }
        let mut i = 0;
        while i < conns.len() {
            let mut drop_conn = false;
            loop {
                match conns[i].stream.read(&mut buf) {
                    Ok(0) => {
                        drop_conn = true;
                        break;
                    }
                    Ok(n) => {
                        active = true;
                        let conn = &mut conns[i];
                        conn.decoder.push(&buf[..n]);
                        let mut hub = hub.lock().expect("hub lock poisoned");
                        hub.bytes_received += n as u64;
                        loop {
                            match conn.decoder.next_frame() {
                                Ok(Some(value)) => match decode_wire_value::<M>(&value) {
                                    Ok((seq, env)) => {
                                        hub.frames_received += 1;
                                        match hub.inboxes.get_mut(&conn.owner) {
                                            Some(inbox) => inbox.push((seq, env)),
                                            None => hub.dead_letters.push(seq),
                                        }
                                    }
                                    // A frame that decodes but is not a wire
                                    // envelope: the peer is broken, cut it.
                                    Err(_) => {
                                        drop_conn = true;
                                        break;
                                    }
                                },
                                Ok(None) => break,
                                // Oversized or malformed stream: the offset
                                // is meaningless from here on, cut it.
                                Err(_) => {
                                    drop_conn = true;
                                    break;
                                }
                            }
                        }
                        if drop_conn {
                            break;
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        drop_conn = true;
                        break;
                    }
                }
            }
            if drop_conn {
                conns.swap_remove(i);
            } else {
                i += 1;
            }
        }
        if !active {
            thread::sleep(Duration::from_micros(200));
        }
    }
}

/// The transport's delivery policy: one loopback listener per node, frames
/// written to per-link streams, a poller thread decoding them into a hub,
/// and every message's fate recorded for twin replay.
pub struct Sockets<P: Process> {
    round_duration: Duration,
    seed: u64,
    /// Listener addresses of live nodes, for the sender side.
    addrs: BTreeMap<NodeId, SocketAddr>,
    /// Cached outgoing streams, one per directed `(sender, receiver)` link.
    conns: BTreeMap<(NodeId, NodeId), TcpStream>,
    hub: Arc<Mutex<Hub<P::Msg>>>,
    ctl: mpsc::Sender<Ctl>,
    poller: Option<thread::JoinHandle<()>>,
    /// Global send sequence number, assigned exactly as in the event engine:
    /// in the core's collect order.
    seq: u64,
    /// Recorded fates; a message is `Lost` until its delivery is observed.
    fates: MessageTrace,
    /// Scratch: the current boundary's hub snapshot, sorted into global
    /// send order.
    incoming: InboxBatch<P::Msg>,
    encode_scratch: Vec<u8>,
    stats: NetStats,
    wire_sent_frames: u64,
    wire_sent_bytes: u64,
    /// Wire counters at the start of the current round (obs deltas).
    wire_start: (u64, u64),
    /// When `Some`, every outgoing frame is matched against the fault plan
    /// before it is written (the same pure `(seed, seq)` decisions the
    /// event engine takes).
    faults: Option<FaultInjector<P::Msg>>,
    /// Fault-delayed frames: `(release round, seq, envelope)`, written to
    /// the wire at the boundary whose round reaches `release`.
    held: Vec<(Round, u64, Envelope<P::Msg>)>,
    /// When the current round's wall-clock budget runs out.
    deadline: Instant,
}

/// The loopback transport runtime: the scheduler core under the
/// [`Sockets`] policy — real sockets under the unmodified protocol logic.
pub type NetRunner<P, A> = Engine<P, A, Sockets<P>>;

impl<P> Sockets<P>
where
    P: Process,
    P::Msg: serde::Serialize + serde::Deserialize,
{
    /// Network-effect counters, comparable with the event engine's: `sent`
    /// and `dropped_departed` mean the same thing; `lost` counts messages
    /// that never made it onto the wire (no route, connect or write
    /// failure); delay ticks are delivery-boundary quantized.
    pub fn net_stats(&self) -> NetStats {
        self.stats
    }

    /// Actual wire traffic counters.
    pub fn wire_stats(&self) -> WireStats {
        let hub = self.hub.lock().expect("hub lock poisoned");
        WireStats {
            frames_sent: self.wire_sent_frames,
            bytes_sent: self.wire_sent_bytes,
            frames_received: hub.frames_received,
            bytes_received: hub.bytes_received,
        }
    }

    /// The fate trace recorded so far: one entry per sent message, in send
    /// order. Messages still in flight (written but never read by an
    /// activation) are `Lost`, which is exactly how a replay must treat
    /// them — they influenced nobody.
    pub fn trace(&self) -> MessageTrace {
        self.fates.clone()
    }

    /// Installs a fault-injection plan and the protocol's message adapter.
    /// Call before the first step. Decisions are pure functions of
    /// `(seed, seq)` — identical to the event engine's for the same plan —
    /// and are taken at the frame boundary: dropped frames never reach the
    /// wire, delayed frames are held back whole rounds, duplicated frames
    /// consume the next sequence number, mutated frames are corrupted
    /// before encoding.
    pub fn set_faults(&mut self, plan: FaultPlan, adapter: FaultAdapter<P::Msg>) {
        self.faults = Some(FaultInjector::new(plan, adapter, self.seed));
    }

    /// Whole-run counters of injected faults.
    pub fn fault_stats(&self) -> FaultStats {
        self.faults
            .as_ref()
            .map_or_else(FaultStats::default, FaultInjector::stats)
    }

    /// Writes one framed message to its receiver's socket, connecting (and
    /// caching the stream) on first use. Returns false if the message never
    /// made it onto the wire.
    fn write_frame(&mut self, seq: u64, env: &Envelope<P::Msg>) -> bool {
        let Some(&addr) = self.addrs.get(&env.to) else {
            // No such member (departed, or an id that never existed):
            // nothing to connect to.
            return false;
        };
        let key = (env.from, env.to);
        if let std::collections::btree_map::Entry::Vacant(entry) = self.conns.entry(key) {
            match TcpStream::connect(addr) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    entry.insert(stream);
                }
                Err(_) => return false,
            }
        }
        self.encode_scratch.clear();
        let len = encode_wire_frame(seq, env, &mut self.encode_scratch);
        let stream = self.conns.get_mut(&key).expect("stream just cached");
        match stream.write_all(&self.encode_scratch) {
            Ok(()) => {
                self.wire_sent_frames += 1;
                self.wire_sent_bytes += len as u64;
                true
            }
            Err(_) => {
                self.conns.remove(&key);
                false
            }
        }
    }
}

impl<P> Delivery<P> for Sockets<P>
where
    P: Process,
    P::Msg: serde::Serialize + serde::Deserialize,
{
    type Config = NetConfig;

    const SPANS: PhaseSpans = PhaseSpans {
        churn: "net.churn",
        deliver: "net.poll",
        compute: None,
        collect: "net.encode",
    };

    /// Starts the poller thread.
    fn build(config: NetConfig) -> (SimConfig, Self) {
        let hub: Arc<Mutex<Hub<P::Msg>>> = Arc::new(Mutex::new(Hub::default()));
        let (ctl, ctl_rx) = mpsc::channel();
        let poller_hub = Arc::clone(&hub);
        let max_frame = config.max_frame;
        let poller = thread::Builder::new()
            .name("tsa-net-poller".into())
            .spawn(move || poll_loop::<P::Msg>(ctl_rx, poller_hub, max_frame))
            .expect("spawn poller thread");
        let policy = Sockets {
            round_duration: config.round_duration,
            seed: config.sim.seed,
            addrs: BTreeMap::new(),
            conns: BTreeMap::new(),
            hub,
            ctl,
            poller: Some(poller),
            seq: 0,
            fates: MessageTrace::new(),
            incoming: Vec::new(),
            encode_scratch: Vec::new(),
            stats: NetStats::default(),
            wire_sent_frames: 0,
            wire_sent_bytes: 0,
            wire_start: (0, 0),
            faults: None,
            held: Vec::new(),
            deadline: Instant::now(),
        };
        // The transport computes on the coordinator thread alone: a round
        // is a wall-clock window, and the poller needs a core to drain the
        // sockets before the next boundary reads them.
        (config.sim.with_parallel(false), policy)
    }

    fn begin_round(&mut self, _t: Round) {
        self.deadline = Instant::now() + self.round_duration;
        self.wire_start = (self.wire_sent_frames, self.wire_sent_bytes);
        if let Some(f) = self.faults.as_mut() {
            f.begin_round();
        }
    }

    /// Binds the member's listener and opens its hub inbox.
    fn join(&mut self, id: NodeId) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
        listener
            .set_nonblocking(true)
            .expect("nonblocking listener");
        let addr = listener.local_addr().expect("listener address");
        self.addrs.insert(id, addr);
        self.hub
            .lock()
            .expect("hub lock poisoned")
            .inboxes
            .insert(id, Vec::new());
        self.ctl
            .send(Ctl::Register(id, listener))
            .expect("poller alive");
    }

    /// Tears down a departed member's listener, hub inbox and cached
    /// streams; frames it never read become receiver-departed drops at
    /// round `t` (exactly when the event engine would drop them).
    fn depart(&mut self, id: NodeId, t: Round) -> usize {
        self.addrs.remove(&id);
        self.conns.retain(|(from, to), _| *from != id && *to != id);
        self.ctl.send(Ctl::Unregister(id)).expect("poller alive");
        let pending = self
            .hub
            .lock()
            .expect("hub lock poisoned")
            .inboxes
            .remove(&id)
            .unwrap_or_default();
        for &(seq, _) in &pending {
            self.fates
                .record(seq, MessageFate::Delivered { at_round: t });
        }
        self.stats.dropped_departed += pending.len() as u64;
        pending.len()
    }

    /// Snapshots the hub: everything the poller decoded before this
    /// instant is this boundary's batch, re-sorted into global send order
    /// exactly like the event engine's, so residual arrival jitter has no
    /// meaning. Fault-held frames whose hold has expired then go onto the
    /// wire, to be read one round later — `delay_rounds` past their
    /// original delivery boundary. Frames whose hold outlives the run stay
    /// recorded as `Lost`, which is how the replaying twin must treat them.
    fn deliver(&mut self, t: Round, batch: &mut Vec<Envelope<P::Msg>>) -> usize {
        let mut dropped = 0usize;
        {
            let mut hub = self.hub.lock().expect("hub lock poisoned");
            let hub = &mut *hub;
            for seq in hub.dead_letters.drain(..) {
                self.fates
                    .record(seq, MessageFate::Delivered { at_round: t });
                self.stats.dropped_departed += 1;
                dropped += 1;
            }
            // The socket a frame arrived on decides its receiver.
            for (&owner, inbox) in hub.inboxes.iter_mut() {
                self.incoming.extend(
                    inbox
                        .drain(..)
                        .map(|(seq, env)| (seq, Envelope { to: owner, ..env })),
                );
            }
        }
        self.incoming.sort_unstable_by_key(|&(seq, _)| seq);
        for (seq, env) in self.incoming.drain(..) {
            self.fates
                .record(seq, MessageFate::Delivered { at_round: t });
            let delay = t
                .saturating_sub(env.sent_at)
                .saturating_mul(TICKS_PER_ROUND);
            self.stats.max_delay_ticks = self.stats.max_delay_ticks.max(delay);
            self.stats.total_delay_ticks = self.stats.total_delay_ticks.saturating_add(delay);
            batch.push(env);
        }
        if !self.held.is_empty() {
            let mut held = std::mem::take(&mut self.held);
            held.retain(|(release, seq, env)| {
                if *release > t {
                    return true;
                }
                if !self.write_frame(*seq, env) {
                    dropped += 1;
                    self.stats.lost += 1;
                }
                false
            });
            self.held = held;
        }
        dropped
    }

    /// Writes node `from`'s sends to the wire, in send order. Sequence
    /// numbers are assigned here, in exactly the order the event engine
    /// assigns them, so `seq` means the same message in both runtimes.
    fn route(
        &mut self,
        t: Round,
        from: NodeId,
        out: &mut Vec<(NodeId, P::Msg)>,
        _next: &mut Vec<Envelope<P::Msg>>,
        _obs: &ObsHandle,
    ) -> usize {
        let mut lost = 0;
        for (to, mut payload) in out.drain(..) {
            // Fault-plan decision on the sequence number this frame is about
            // to take — the same pure function of (seed, seq) the event
            // engine evaluates for the identical message.
            let decision = match self.faults.as_mut() {
                None => FaultDecision::Pass,
                Some(f) => f.decide(self.seq, t, from, to, &mut payload),
            };
            let (fault_drop, delay_rounds) = match decision {
                FaultDecision::Drop => (true, 0),
                // The transport's clock is the round cadence: the hold-back
                // is the tick delay rounded up to whole rounds, at least one.
                FaultDecision::Delay(ticks) => (false, ticks.div_ceil(TICKS_PER_ROUND).max(1)),
                _ => (false, 0),
            };
            // The duplicate copy consumes the next sequence number and takes
            // its own wire fate, with no fault decision of its own.
            let dup = (decision == FaultDecision::Duplicate).then(|| payload.clone());
            for payload in std::iter::once(payload).chain(dup) {
                let seq = self.seq;
                self.seq += 1;
                self.stats.sent += 1;
                // Lost until proven delivered: overwritten when a later
                // boundary (or none) reads the frame.
                self.fates.record(seq, MessageFate::Lost);
                let env = Envelope::new(from, to, t, payload);
                let on_its_way = if fault_drop {
                    // Never reaches the wire; counted exactly like the event
                    // engine counts a fault drop.
                    false
                } else if delay_rounds > 0 {
                    self.held.push((t.saturating_add(delay_rounds), seq, env));
                    true
                } else {
                    self.write_frame(seq, &env)
                };
                if !on_its_way {
                    lost += 1;
                    self.stats.lost += 1;
                }
            }
        }
        lost
    }

    /// Records the wire counters, then sleeps out the round's wall-clock
    /// budget — the window in which the poller turns this round's writes
    /// into the next boundary's deliveries.
    fn end_round(&mut self, _t: Round, obs: &ObsHandle) {
        if obs.is_on() {
            // Wire-level counters: deterministic functions of the protocol
            // traffic (frame counts and encoded bytes), not of scheduling.
            obs.add("net.wire_frames", self.wire_sent_frames - self.wire_start.0);
            obs.add("net.wire_bytes", self.wire_sent_bytes - self.wire_start.1);
            // Fault counters only exist when a plan is installed, so
            // fault-free runs keep their exact historical obs output.
            if let Some(f) = &self.faults {
                f.record_obs(obs);
            }
        }
        let span = obs.span_start();
        let now = Instant::now();
        if now < self.deadline {
            thread::sleep(self.deadline - now);
        }
        obs.span_end("net.barrier", span);
    }
}

impl<P: Process> Drop for Sockets<P> {
    fn drop(&mut self) {
        let _ = self.ctl.send(Ctl::Shutdown);
        if let Some(handle) = self.poller.take() {
            let _ = handle.join();
        }
    }
}
