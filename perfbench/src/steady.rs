//! `steady_round` and `steady_event`: the maintained overlay in steady state.
//!
//! One *window* is a fresh harness — assemble, bootstrap, one alignment round
//! so epochs start on an even round — followed by a fixed number of
//! post-bootstrap epochs. Windows repeat, each identical (same seed), until
//! the run's time is up: a faster program runs more windows, never a longer
//! or smaller network. Each epoch is two timed `step()` calls; its `report()`
//! health check is timed on its own, outside the epoch.

use std::sync::Arc;
use std::time::Instant;

use serde::Serialize;
use tsa_adversary::RandomChurnAdversary;
use tsa_bench::experiment_params;
use tsa_core::{AsyncMaintenanceHarness, MaintenanceHarness, MaintenanceParams, MaintenanceReport};
use tsa_dash::JournalRecorder;
use tsa_obs::{DetSnapshot, ObsHandle, TimingSnapshot};
use tsa_scenario::{LatencyModel, NetModel};
use tsa_sim::{MetricsHistory, RoundMetrics};

use crate::trace::Tracer;
use crate::util::{digest_json, median, series_line, spread_line, sub_seed, Metrics, SUB_SEEDS};
use crate::{alloc, Outcome, RunOpts};

/// Network size of the steady workloads.
pub const N: usize = 48;

/// Post-bootstrap epochs in one window.
pub const EPOCHS: u64 = 16;

/// The churn adversary of every steady window: one departure and one join,
/// once per churn window `T`. Under the paper's rules (at most `n/16`
/// events per `T` rounds; 3 at n=48) that is the fastest cadence at which
/// joins keep pace with departures; a faster one spends the budget on
/// departures and the network shrinks over the window.
pub fn adversary(params: &MaintenanceParams, seed: u64) -> RandomChurnAdversary {
    RandomChurnAdversary::new(1, seed).with_period(params.paper_churn_rules().window)
}

/// The event engine's network: sub-round uniform latency (100..900 of the
/// 1000 ticks in a round), no loss, so every message lands before the next
/// round boundary and the protocol trace equals the round engine's.
pub fn event_net() -> NetModel {
    NetModel::new(LatencyModel::uniform(100, 900))
}

/// What the steady workloads need from either harness.
pub trait Harness {
    fn assemble(seed: u64) -> Self;
    fn run_bootstrap(&mut self);
    fn step(&mut self);
    fn round(&self) -> u64;
    fn node_count(&self) -> usize;
    fn report(&self) -> MaintenanceReport;
    fn metrics(&self) -> &MetricsHistory;
    fn set_obs(&mut self, obs: ObsHandle);
    /// Scheduler counters beyond the protocol's: `(name, value)` pairs.
    fn engine_counts(&self) -> Vec<(&'static str, u64)>;
}

type RoundHarness = MaintenanceHarness<RandomChurnAdversary>;
type EventHarness = AsyncMaintenanceHarness<RandomChurnAdversary>;

impl Harness for RoundHarness {
    fn assemble(seed: u64) -> Self {
        let params = experiment_params(N);
        MaintenanceHarness::assemble(
            params,
            adversary(&params, seed),
            seed,
            params.paper_churn_rules(),
            params.paper_lateness(),
        )
    }
    fn run_bootstrap(&mut self) {
        MaintenanceHarness::run_bootstrap(self)
    }
    fn step(&mut self) {
        MaintenanceHarness::step(self)
    }
    fn round(&self) -> u64 {
        MaintenanceHarness::round(self)
    }
    fn node_count(&self) -> usize {
        MaintenanceHarness::node_count(self)
    }
    fn report(&self) -> MaintenanceReport {
        MaintenanceHarness::report(self)
    }
    fn metrics(&self) -> &MetricsHistory {
        MaintenanceHarness::metrics(self)
    }
    fn set_obs(&mut self, obs: ObsHandle) {
        MaintenanceHarness::set_obs(self, obs)
    }
    fn engine_counts(&self) -> Vec<(&'static str, u64)> {
        Vec::new()
    }
}

impl Harness for EventHarness {
    fn assemble(seed: u64) -> Self {
        let params = experiment_params(N);
        AsyncMaintenanceHarness::assemble(
            params,
            adversary(&params, seed),
            seed,
            params.paper_churn_rules(),
            params.paper_lateness(),
            event_net(),
        )
    }
    fn run_bootstrap(&mut self) {
        AsyncMaintenanceHarness::run_bootstrap(self)
    }
    fn step(&mut self) {
        AsyncMaintenanceHarness::step(self)
    }
    fn round(&self) -> u64 {
        AsyncMaintenanceHarness::round(self)
    }
    fn node_count(&self) -> usize {
        AsyncMaintenanceHarness::node_count(self)
    }
    fn report(&self) -> MaintenanceReport {
        AsyncMaintenanceHarness::report(self)
    }
    fn metrics(&self) -> &MetricsHistory {
        AsyncMaintenanceHarness::metrics(self)
    }
    fn set_obs(&mut self, obs: ObsHandle) {
        AsyncMaintenanceHarness::set_obs(self, obs)
    }
    fn engine_counts(&self) -> Vec<(&'static str, u64)> {
        let s = self.net_stats();
        vec![
            ("event.sent", s.sent),
            ("event.lost", s.lost),
            ("event.dropped_departed", s.dropped_departed),
            ("event.total_delay_ticks", s.total_delay_ticks),
            (
                "event.peak_queue_depth",
                self.simulator().peak_queue_depth(),
            ),
        ]
    }
}

/// Everything one window measured.
struct Window {
    setup_ns: u64,
    assemble_ns: u64,
    bootstrap_ns: u64,
    epoch_ns: Vec<u64>,
    step_even_ns: Vec<u64>,
    step_odd_ns: Vec<u64>,
    report_ns: Vec<u64>,
    unroutable_epochs: u64,
    nodes_start: usize,
    nodes_end: usize,
    /// The window's per-round metric rows.
    rows: Vec<RoundMetrics>,
    /// Scheduler counters at the window's start and end.
    counts_start: Vec<(&'static str, u64)>,
    counts_end: Vec<(&'static str, u64)>,
    final_report: MaintenanceReport,
    /// Allocations and bytes over the window's epochs (traced windows).
    allocs: (u64, u64),
    /// The flight recorder's view of the window (traced windows).
    obs: Option<(DetSnapshot, TimingSnapshot)>,
}

impl Window {
    fn rounds(&self) -> u64 {
        self.rows.len() as u64
    }

    /// The protocol-level statistics, identical on both engines at one
    /// seed: the window's metrics digest, its per-round rows and the final
    /// health report.
    fn proto_parts(&self) -> Vec<serde::Value> {
        let mut history = MetricsHistory::new();
        for row in &self.rows {
            history.push(row.clone());
        }
        vec![
            history.summary().to_value(),
            self.rows.to_value(),
            self.final_report.to_value(),
        ]
    }

    /// Every deterministic count of the window: the protocol-level parts
    /// plus the scheduler's own counters.
    fn all_parts(&self) -> Vec<serde::Value> {
        let mut parts = self.proto_parts();
        let counts: Vec<(String, u64)> = self
            .counts_end
            .iter()
            .map(|(name, v)| (name.to_string(), *v))
            .collect();
        parts.push(counts.to_value());
        parts
    }

    fn count_delta(&self, name: &str) -> u64 {
        count(&self.counts_end, name) - count(&self.counts_start, name)
    }
}

fn count(counts: &[(&'static str, u64)], name: &str) -> u64 {
    counts
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, v)| *v)
        .unwrap_or(0)
}

/// Runs one window. With `observe`, a `JournalRecorder` is attached after
/// the bootstrap and allocations are counted over the epochs.
fn window<H: Harness>(tr: &mut Tracer, seed: u64, epochs: u64, observe: bool) -> Window {
    let setup = tr.enter("core.setup");
    let (mut h, assemble_ns) = tr.time("core.assemble", || H::assemble(seed));
    let (_, bootstrap_ns) = tr.time("core.bootstrap", || {
        h.run_bootstrap();
        if h.round() % 2 == 1 {
            h.step();
        }
    });
    let setup_ns = tr.exit(setup);

    let recorder = observe.then(|| {
        let created = Instant::now();
        let rec = Arc::new(JournalRecorder::new());
        h.set_obs(ObsHandle::new(rec.clone()));
        (rec, created)
    });
    let first_row = h.metrics().rounds().len();
    let nodes_start = h.node_count();
    let counts_start = h.engine_counts();

    let (mut epoch_ns, mut step_even_ns, mut step_odd_ns, mut report_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut unroutable_epochs = 0;
    let mut final_report = None;
    alloc::set_counting(observe);
    let (a0, b0) = alloc::totals();
    for _ in 0..epochs {
        let epoch = tr.enter("core.epoch");
        let (_, even) = tr.time("core.step.even", || h.step());
        let (_, odd) = tr.time("core.step.odd", || h.step());
        epoch_ns.push(tr.exit(epoch));
        step_even_ns.push(even);
        step_odd_ns.push(odd);
        // The health check sits outside the epoch; its allocations are not
        // the protocol's.
        alloc::set_counting(false);
        let (report, ns) = tr.time("core.report", || h.report());
        alloc::set_counting(observe);
        report_ns.push(ns);
        if !report.is_routable() {
            unroutable_epochs += 1;
        }
        final_report = Some(report);
    }
    let (a1, b1) = alloc::totals();
    alloc::set_counting(false);
    let obs = recorder.map(|(rec, created)| {
        tr.import("engine phases", created, &rec.slices());
        h.set_obs(ObsHandle::off());
        (rec.det_snapshot(), rec.timing_snapshot())
    });
    Window {
        setup_ns,
        assemble_ns,
        bootstrap_ns,
        epoch_ns,
        step_even_ns,
        step_odd_ns,
        report_ns,
        unroutable_epochs,
        nodes_start,
        nodes_end: h.node_count(),
        rows: h.metrics().rounds()[first_row..].to_vec(),
        counts_start,
        counts_end: h.engine_counts(),
        final_report: final_report.expect("a window has at least one epoch"),
        allocs: (a1 - a0, b1 - b0),
        obs,
    }
}

/// Protocol rounds per second of epoch time over `windows`.
fn rounds_per_s<'a>(windows: impl IntoIterator<Item = &'a Window> + Clone) -> f64 {
    let rounds: u64 = windows.clone().into_iter().map(Window::rounds).sum();
    let ns: u64 = windows.into_iter().flat_map(|w| &w.epoch_ns).sum();
    rounds as f64 / (ns as f64 / 1e9)
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ms_all(ns: impl IntoIterator<Item = u64>) -> Vec<f64> {
    ns.into_iter().map(ms).collect()
}

/// Runs a steady workload on harness `H`: whole cycles of one window per
/// sub-seed until the time is up, so every run weighs the same networks
/// equally however fast the program is.
pub fn run<H: Harness>(opts: &RunOpts, tr: &mut Tracer, engine: &str) -> Outcome {
    let epochs = if opts.smoke { 2 } else { EPOCHS };
    let mut out = Outcome::default();
    let mut cycles: Vec<Vec<Window>> = Vec::new();
    let started = Instant::now();
    if opts.trace {
        // One plain window for the call timings and the untraced side of
        // the overhead ratio, then one observed window, at sub-seed 0.
        let seed = sub_seed(opts.seed, 0);
        cycles.push(vec![window::<H>(tr, seed, epochs, false)]);
        cycles.push(vec![window::<H>(tr, seed, epochs, true)]);
    } else {
        while cycles.len() < 2 || started.elapsed().as_secs_f64() < opts.seconds {
            cycles.push(
                (0..SUB_SEEDS)
                    .map(|k| window::<H>(tr, sub_seed(opts.seed, k), epochs, false))
                    .collect(),
            );
        }
    }

    // Correctness: every epoch routable, every cycle the same simulation.
    let digest = |cycle: &[Window]| {
        digest_json(
            &cycle
                .iter()
                .map(|w| digest_json(&w.all_parts()).to_value())
                .collect::<Vec<_>>(),
        )
    };
    let first = digest(&cycles[0]);
    for (i, cycle) in cycles.iter().enumerate() {
        if digest(cycle) != first {
            out.problems.push(format!(
                "cycle {i} simulated differently from cycle 0 at the same seeds"
            ));
        }
        for w in cycle {
            out.attempted += epochs;
            out.failed += w.unroutable_epochs;
        }
    }
    if out.failed > 0 {
        out.problems
            .push(format!("{} epoch(s) ended unroutable", out.failed));
    }
    out.digest = first;
    out.proto_digest = Some(digest_json(
        &cycles[0]
            .iter()
            .map(|w| digest_json(&w.proto_parts()).to_value())
            .collect::<Vec<_>>(),
    ));
    let nodes: Vec<String> = cycles[0]
        .iter()
        .map(|w| format!("{}->{}", w.nodes_start, w.nodes_end))
        .collect();
    let churn: usize = cycles[0]
        .iter()
        .flat_map(|w| &w.rows)
        .map(|r| r.departures + r.joins)
        .sum();
    out.notes.push(format!(
        "{engine} engine, n={N}, {} window(s) of {epochs} epochs per cycle; nodes per window {}; {churn} churn event(s) per cycle",
        cycles[0].len(),
        nodes.join(" "),
    ));

    if opts.trace {
        out.metrics = layer_metrics(&cycles[0][0], &cycles[1][0], engine);
    } else {
        let windows = || cycles.iter().flatten();
        let epoch_ms: Vec<f64> = ms_all(windows().flat_map(|w| w.epoch_ns.clone()));
        let setup_s: Vec<f64> = windows().map(|w| w.setup_ns as f64 / 1e9).collect();
        let cycle_rate: Vec<f64> = cycles.iter().map(rounds_per_s).collect();
        out.metrics.set("setup_s", median(&setup_s), "s");
        // Throughput over every timed epoch of the run, slow ones included.
        out.metrics
            .set("rounds_per_s", rounds_per_s(cycles.iter().flatten()), "1/s");
        out.metrics.set("op_ms_p50", median(&epoch_ms), "ms");
        out.notes
            .push(format!("{} cycle(s) of {SUB_SEEDS} windows", cycles.len()));
        out.notes
            .push(series_line("rounds/s per cycle", &cycle_rate));
        out.notes.push(spread_line("epoch ms", &epoch_ms));
        out.notes.push(spread_line("setup s", &setup_s));
        out.notes.push(format!(
            "report() median {:.3} ms",
            median(&ms_all(windows().flat_map(|w| w.report_ns.clone())))
        ));
    }
    out
}

/// The per-layer metrics of a traced run: call timings from the plain
/// window, engine phases, counts and allocations from the observed one.
fn layer_metrics(plain: &Window, observed: &Window, engine: &str) -> Metrics {
    let mut m = Metrics::default();
    let rounds = observed.rounds().max(1) as f64;
    m.set(
        "core.assemble_ms",
        median(&[ms(plain.assemble_ns), ms(observed.assemble_ns)]),
        "ms",
    );
    m.set(
        "core.bootstrap_ms",
        median(&[ms(plain.bootstrap_ns), ms(observed.bootstrap_ns)]),
        "ms",
    );
    m.set(
        "core.step_even_ms_p50",
        median(&ms_all(plain.step_even_ns.clone())),
        "ms",
    );
    m.set(
        "core.step_odd_ms_p50",
        median(&ms_all(plain.step_odd_ns.clone())),
        "ms",
    );
    m.set(
        "core.report_ms",
        median(&ms_all(plain.report_ns.clone())),
        "ms",
    );
    m.set("sim.nodes_start", observed.nodes_start as f64, "count");
    m.set("sim.nodes_end", observed.nodes_end as f64, "count");
    m.set(
        "alloc.per_round",
        observed.allocs.0 as f64 / rounds,
        "count",
    );
    m.set(
        "alloc.bytes_per_round",
        observed.allocs.1 as f64 / rounds,
        "B",
    );
    let overhead =
        median(&ms_all(observed.epoch_ns.clone())) / median(&ms_all(plain.epoch_ns.clone())) - 1.0;
    m.set("obs.overhead_frac", overhead, "ratio");

    let (det, timing) = observed
        .obs
        .as_ref()
        .expect("observed window has a recorder");
    let span_ns = |name: &str| {
        timing
            .spans
            .iter()
            .find(|s| s.name == name)
            .map(|s| s.total_ns)
            .unwrap_or(0) as f64
    };
    if engine == "round" {
        for phase in ["churn", "deliver", "compute", "scatter"] {
            m.set(
                &format!("sim.{phase}_ns"),
                span_ns(&format!("sim.{phase}")) / rounds,
                "ns",
            );
        }
        let sent: usize = observed.rows.iter().map(|r| r.messages_sent).sum();
        m.set("sim.msgs_per_round", sent as f64 / rounds, "count");
        let max_inbox = det.histogram("proto.inbox_len").map(|h| h.max).unwrap_or(0);
        m.set("sim.max_inbox", max_inbox as f64, "count");
    } else {
        let sent = observed.count_delta("event.sent");
        let delivered = det.counter("proto.delivered").max(1);
        m.set(
            "event.pop_ns_per_event",
            span_ns("event.pop") / delivered as f64,
            "ns",
        );
        m.set(
            "event.fate_ns_per_msg",
            span_ns("event.fate") / sent.max(1) as f64,
            "ns",
        );
        m.set(
            "event.dispatch_ns",
            span_ns("event.dispatch") / rounds,
            "ns",
        );
        m.set("event.sent_per_round", sent as f64 / rounds, "count");
        m.set(
            "event.peak_queue_depth",
            count(&observed.counts_end, "event.peak_queue_depth") as f64,
            "count",
        );
    }
    m
}
