//! `wire`: the transport's frame codec over real protocol traffic.
//!
//! Set-up runs a `steady_round`-shaped window per input seed on the round
//! engine with every node wrapped in [`Capture`], which copies each inbox it
//! is handed after the bootstrap. The timed part then codes every captured
//! inbox as one connection's stream, on one thread: `encode_wire_frame` for
//! each message, then `FrameDecoder` fed in socket-sized reads +
//! `decode_wire_value`. Every decoded frame must equal the message it came
//! from.

use std::sync::{Arc, Mutex};

use serde::Serialize;
use tsa_adversary::RandomChurnAdversary;
use tsa_bench::experiment_params;
use tsa_core::{ProtocolMsg, ProtocolNode};
use tsa_net::codec::{decode_wire_value, encode_wire_frame, FrameDecoder};
use tsa_sim::{Ctx, Envelope, NodeId, Process, SimConfig, Simulator};

use crate::steady::{adversary, N};
use crate::trace::Tracer;
use crate::util::{digest_json, median, series_line, spread_line, sub_seed, SUB_SEEDS};
use crate::{alloc, Outcome, RunOpts};

/// Epochs of traffic captured after the bootstrap, per input seed.
const CAPTURE_EPOCHS: u64 = 2;

/// Bytes handed to the decoder per push: one socket read.
const READ_CHUNK: usize = 64 * 1024;

/// Captured inboxes: `(round, receiver, inbox)`.
type Sink = Arc<Mutex<Vec<(u64, NodeId, Vec<Envelope<ProtocolMsg>>)>>>;

/// A protocol node that copies every inbox it receives from `from_round` on
/// into a shared sink, then runs the node unchanged.
struct Capture {
    node: ProtocolNode,
    sink: Sink,
    from_round: u64,
}

impl Process for Capture {
    type Msg = ProtocolMsg;

    fn on_round(&mut self, ctx: &mut Ctx<'_, ProtocolMsg>, inbox: &[Envelope<ProtocolMsg>]) {
        if ctx.round() >= self.from_round && !inbox.is_empty() {
            self.sink.lock().expect("capture sink lock").push((
                ctx.round(),
                ctx.id(),
                inbox.to_vec(),
            ));
        }
        self.node.on_round(ctx, inbox);
    }

    fn state_digest(&self) -> u64 {
        Process::state_digest(&self.node)
    }
}

/// One receiver's inbox of one round: the frames one connection carries.
type Inbox = Vec<Envelope<ProtocolMsg>>;

/// One epoch of captured traffic: every inbox of its two rounds, in
/// (round, receiver) order.
type Epoch = Vec<Inbox>;

/// Runs the capture window: the same genesis, churn rules, lateness and
/// adversary as `steady_round`, on the round engine. Returns the captured
/// epochs and the set-up's duration.
fn capture(tr: &mut Tracer, seed: u64, epochs: u64) -> (Vec<Epoch>, u64) {
    let setup = tr.enter("core.setup");
    let params = experiment_params(N);
    let bootstrap = params.bootstrap_rounds();
    // Epochs start on an even round, as in the steady windows.
    let from_round = bootstrap + bootstrap % 2;
    let sink: Sink = Arc::new(Mutex::new(Vec::new()));
    let (mut sim, _) = tr.time("core.assemble", || {
        let config = SimConfig::default()
            .with_seed(seed)
            .with_churn_rules(params.paper_churn_rules())
            .with_lateness(params.paper_lateness())
            .with_parallel(true)
            .with_history_window(64);
        let genesis = Arc::new((0..N as u64).map(NodeId).collect::<Vec<_>>());
        let factory_sink = sink.clone();
        let mut sim: Simulator<Capture, RandomChurnAdversary> = Simulator::new(
            config,
            adversary(&params, seed),
            Box::new(move |_, round| Capture {
                node: ProtocolNode::new(params, (round == 0).then(|| genesis.clone())),
                sink: factory_sink.clone(),
                from_round,
            }),
        );
        sim.seed_nodes(N);
        sim
    });
    tr.time("core.bootstrap", || sim.run(from_round));
    tr.time("wire.capture", || sim.run(2 * epochs));
    let setup_ns = tr.exit(setup);

    let mut captured = std::mem::take(&mut *sink.lock().expect("capture sink lock"));
    captured.sort_by_key(|(round, to, _)| (*round, *to));
    let mut out: Vec<Epoch> = vec![Vec::new(); epochs as usize];
    for (round, _, inbox) in captured {
        out[((round - from_round) / 2) as usize].push(inbox);
    }
    (out, setup_ns)
}

/// Per-pass totals: encoded bytes (headers included), encode and decode
/// nanoseconds, and frames that failed to round-trip.
#[derive(Clone, Copy, Default)]
struct Coded {
    bytes: u64,
    encode_ns: u64,
    decode_ns: u64,
    failed: u64,
}

/// Codes one inbox the way one transport connection does: encode each
/// frame into the connection's write buffer, then feed the bytes to a
/// `FrameDecoder` in socket-sized reads and decode every frame. Every
/// decoded frame must equal the message it came from, sequence number
/// included.
fn code_inbox(
    tr: &mut Tracer,
    first_seq: u64,
    inbox: &Inbox,
    buf: &mut Vec<u8>,
    decoded: &mut Vec<(u64, Envelope<ProtocolMsg>)>,
) -> Coded {
    buf.clear();
    decoded.clear();
    let (bytes, encode_ns) = tr.time("net.encode_batch", || {
        let mut bytes = 0u64;
        for (env, seq) in inbox.iter().zip(first_seq..) {
            bytes += encode_wire_frame(seq, env, buf) as u64;
        }
        bytes
    });
    let (_, decode_ns) = tr.time("net.decode_batch", || {
        let mut decoder = FrameDecoder::new();
        for chunk in buf.chunks(READ_CHUNK) {
            decoder.push(chunk);
            while let Ok(Some(value)) = decoder.next_frame() {
                match decode_wire_value::<ProtocolMsg>(&value) {
                    Ok(frame) => decoded.push(frame),
                    Err(_) => break,
                }
            }
        }
    });
    let matched = inbox
        .iter()
        .zip(decoded.iter())
        .zip(first_seq..)
        .filter(|((env, (seq, got)), want)| seq == want && got == *env)
        .count();
    Coded {
        bytes,
        encode_ns,
        decode_ns,
        failed: (inbox.len() - matched) as u64,
    }
}

/// One codec pass over every captured epoch.
struct Pass {
    /// Totals over the pass.
    total: Coded,
    /// Codec nanoseconds (encode + decode) of each epoch.
    epoch_ns: Vec<u64>,
    /// Allocations and bytes, when counted.
    allocs: (u64, u64),
}

fn pass(
    tr: &mut Tracer,
    epochs: &[Epoch],
    buf: &mut Vec<u8>,
    decoded: &mut Vec<(u64, Envelope<ProtocolMsg>)>,
    counting: bool,
) -> Pass {
    let mut p = Pass {
        total: Coded::default(),
        epoch_ns: Vec::new(),
        allocs: (0, 0),
    };
    let mut seq = 0u64;
    alloc::set_counting(counting);
    let (a0, b0) = alloc::totals();
    for epoch in epochs {
        let mut ns = 0;
        for inbox in epoch {
            let c = code_inbox(tr, seq, inbox, buf, decoded);
            seq += inbox.len() as u64;
            ns += c.encode_ns + c.decode_ns;
            p.total.bytes += c.bytes;
            p.total.encode_ns += c.encode_ns;
            p.total.decode_ns += c.decode_ns;
            p.total.failed += c.failed;
        }
        p.epoch_ns.push(ns);
    }
    let (a1, b1) = alloc::totals();
    alloc::set_counting(false);
    p.allocs = (a1 - a0, b1 - b0);
    p
}

pub fn run(opts: &RunOpts, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (inputs, per_input) = if opts.smoke {
        (1, 1)
    } else {
        (SUB_SEEDS, CAPTURE_EPOCHS)
    };

    let mut setup_ns = Vec::new();
    let mut epochs: Vec<Epoch> = Vec::new();
    for k in 0..inputs {
        let (captured, ns) = capture(tr, sub_seed(opts.seed, k), per_input);
        setup_ns.push(ns);
        epochs.extend(captured);
    }
    let msgs: usize = epochs.iter().flatten().map(Vec::len).sum();
    let rounds = 2 * epochs.len() as u64;

    let mut buf = Vec::new();
    let mut decoded = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let started = std::time::Instant::now();
    if opts.trace {
        // A warm-up pass grows every buffer to its steady size, a plain pass
        // gives the call timings, and a pass with allocation counting gives
        // the allocations and the other side of the overhead ratio.
        for counting in [false, false, true] {
            passes.push(pass(tr, &epochs, &mut buf, &mut decoded, counting));
        }
    } else {
        while passes.len() < 2 || started.elapsed().as_secs_f64() < opts.seconds {
            passes.push(pass(tr, &epochs, &mut buf, &mut decoded, false));
        }
    }
    for p in &passes {
        out.attempted += msgs as u64;
        out.failed += p.total.failed;
    }
    if out.failed > 0 {
        out.problems
            .push(format!("{} frame(s) failed to round-trip", out.failed));
    }
    let bytes = passes[0].total.bytes;
    if passes.iter().any(|p| p.total.bytes != bytes) {
        out.problems
            .push("encoded size differs between passes".to_string());
    }

    let sizes: Vec<Vec<u64>> = epochs
        .iter()
        .map(|e| e.iter().map(|inbox| inbox.len() as u64).collect())
        .collect();
    out.digest = digest_json(&[sizes.to_value(), bytes.to_value()]);
    out.notes.push(format!(
        "{} captured epoch(s) at n={N} from {inputs} input(s): {msgs} messages, {bytes} bytes per pass, {} passes",
        epochs.len(),
        passes.len()
    ));
    let msgs = msgs.max(1) as f64;
    if opts.trace {
        let (plain, counted) = (&passes[1], &passes[2]);
        out.metrics.set(
            "net.encode_ns_per_msg",
            plain.total.encode_ns as f64 / msgs,
            "ns",
        );
        out.metrics.set(
            "net.decode_ns_per_msg",
            plain.total.decode_ns as f64 / msgs,
            "ns",
        );
        out.metrics
            .set("net.bytes_per_msg", bytes as f64 / msgs, "B");
        out.metrics.set(
            "net.allocs_per_msg",
            counted.allocs.0 as f64 / msgs,
            "count",
        );
        out.metrics.set(
            "alloc.per_round",
            counted.allocs.0 as f64 / rounds as f64,
            "count",
        );
        out.metrics.set(
            "alloc.bytes_per_round",
            counted.allocs.1 as f64 / rounds as f64,
            "B",
        );
        let total = |p: &Pass| p.epoch_ns.iter().sum::<u64>() as f64;
        out.metrics.set(
            "obs.overhead_frac",
            total(counted) / total(plain) - 1.0,
            "ratio",
        );
    } else {
        let op_ms: Vec<f64> = passes
            .iter()
            .flat_map(|p| p.epoch_ns.iter().map(|&ns| ns as f64 / 1e6))
            .collect();
        let pass_rate: Vec<f64> = passes
            .iter()
            .map(|p| rounds as f64 / (p.epoch_ns.iter().sum::<u64>() as f64 / 1e9))
            .collect();
        let setup_s: Vec<f64> = setup_ns.iter().map(|&ns| ns as f64 / 1e9).collect();
        out.notes.push(series_line("rounds/s per pass", &pass_rate));
        out.notes.push(spread_line("epoch codec ms", &op_ms));
        out.notes.push(spread_line("setup s", &setup_s));
        out.metrics.set("setup_s", median(&setup_s), "s");
        // Throughput over every timed pass of the run, slow ones included.
        let total_ns: u64 = passes.iter().flat_map(|p| &p.epoch_ns).sum();
        out.metrics.set(
            "rounds_per_s",
            (rounds * passes.len() as u64) as f64 / (total_ns as f64 / 1e9),
            "1/s",
        );
        out.metrics.set("op_ms_p50", median(&op_ms), "ms");
    }
    out
}
