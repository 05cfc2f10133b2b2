//! The repository benchmark.
//!
//! ```text
//! tsa-perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--smoke]
//! ```
//!
//! Four workloads, each run in its own process (`--workload all` spawns one
//! child per workload): `steady_round`, `steady_event`, `wire` and
//! `sweep_mixed` (see `perfbench/README.md` for what each measures and
//! why). Inputs are a pure function of `--seed` (default 1). A run measures
//! for about `--seconds` (default 10) in whole fixed-size windows, checks
//! the program's outputs, prints a human-readable report including a digest
//! of the simulated statistics, and ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! With `--trace 0` the metrics are the end-to-end ones, measured with
//! tracing off; with `--trace 1` they are the per-layer ones, from a run
//! with bench-side spans, a `JournalRecorder` and the counting allocator
//! attached. `--smoke` shrinks every workload to a seconds-long run.

mod alloc;
mod steady;
mod sweep;
mod trace;
mod util;
mod wire;

use std::process::{Command, ExitCode};

use trace::Tracer;
use util::{peak_rss_mb, Metrics};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] = ["steady_round", "steady_event", "wire", "sweep_mixed"];

/// The seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// The measuring time used when `--seconds` is not given.
const DEFAULT_SECONDS: f64 = 10.0;

/// Worker threads: the workloads run on at most two cores.
const THREADS: usize = 2;

/// The end-to-end metrics every untraced run reports, with their units.
/// The tail latency (p90 of the same operations) is printed in the report
/// but not gated: on a shared two-core host it spread too far between runs.
const END_TO_END: [(&str, &str); 4] = [
    ("rounds_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics every traced run reports, with their units. A
/// layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 31] = [
    ("core.assemble_ms", "ms"),
    ("core.bootstrap_ms", "ms"),
    ("core.step_even_ms_p50", "ms"),
    ("core.step_odd_ms_p50", "ms"),
    ("core.report_ms", "ms"),
    ("sim.churn_ns", "ns"),
    ("sim.deliver_ns", "ns"),
    ("sim.compute_ns", "ns"),
    ("sim.scatter_ns", "ns"),
    ("sim.msgs_per_round", "count"),
    ("sim.max_inbox", "count"),
    ("sim.nodes_start", "count"),
    ("sim.nodes_end", "count"),
    ("event.pop_ns_per_event", "ns"),
    ("event.fate_ns_per_msg", "ns"),
    ("event.dispatch_ns", "ns"),
    ("event.sent_per_round", "count"),
    ("event.peak_queue_depth", "count"),
    ("net.encode_ns_per_msg", "ns"),
    ("net.decode_ns_per_msg", "ns"),
    ("net.bytes_per_msg", "B"),
    ("net.allocs_per_msg", "count"),
    ("sweep.busy_s.maintained", "s"),
    ("sweep.busy_s.routing", "s"),
    ("sweep.busy_s.sampling", "s"),
    ("sweep.busy_s.baseline", "s"),
    ("sweep.busy_frac", "ratio"),
    ("sweep.cells", "count"),
    ("alloc.per_round", "count"),
    ("alloc.bytes_per_round", "B"),
    ("obs.overhead_frac", "ratio"),
];

/// Command-line options shared by every workload.
#[derive(Clone, Debug)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted and failed (what an operation is depends on the
    /// workload: an epoch, a frame, a sweep cell).
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks; empty when every check held.
    pub problems: Vec<String>,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Metrics,
    /// Digest of every deterministic statistic the run simulated.
    pub digest: u64,
    /// Digest of the protocol-level statistics only, where the workload
    /// runs the protocol (equal on both engines at one seed).
    pub proto_digest: Option<u64>,
    /// Human-readable lines for the report.
    pub notes: Vec<String>,
}

const USAGE: &str = "\
usage: tsa-perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--smoke]

  --workload NAME  steady_round | steady_event | wire | sweep_mixed | all (default: all)
  --seed N         workload seed; the same seed gives the same inputs (default: 1)
  --seconds S      measuring time per workload, in whole windows (default: 10)
  --trace 0|1      0: end-to-end metrics, tracing off (default)
                   1: per-layer metrics from a traced run; writes a Perfetto
                      trace next to the executable under perfbench-trace/
  --smoke          seconds-long run of the same code paths, ignoring --seconds
                   (used by the benchmark's own tests)

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.";

fn parse_args() -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        workload: "all".to_string(),
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => opts.workload = value("--workload")?,
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                opts.seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => opts.smoke = true,
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if opts.workload != "all" && !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("unknown workload {}", opts.workload));
    }
    if opts.smoke {
        // Every loop runs its minimum: a seconds-long run.
        opts.seconds = 0.0;
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(msg) if msg.is_empty() => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("tsa-perfbench: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if opts.workload == "all" {
        return run_all(&opts);
    }
    let mut tracer = Tracer::new(opts.trace);
    let mut out = rayon::with_thread_cap(THREADS, || match opts.workload.as_str() {
        "steady_round" => {
            steady::run::<tsa_core::MaintenanceHarness<_>>(&opts, &mut tracer, "round")
        }
        "steady_event" => {
            steady::run::<tsa_core::AsyncMaintenanceHarness<_>>(&opts, &mut tracer, "event")
        }
        "wire" => wire::run(&opts, &mut tracer),
        "sweep_mixed" => sweep::run(&opts, &mut tracer),
        _ => unreachable!("workload names are validated by parse_args"),
    });
    if opts.trace {
        out.metrics = conform(&out.metrics, &PER_LAYER, &mut Vec::new());
    } else {
        out.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
        out.metrics = conform(&out.metrics, &END_TO_END, &mut out.problems);
    }
    if out.attempted == 0 {
        out.problems.push("no operation was attempted".to_string());
    }
    report(&opts, &out, &tracer);
    ExitCode::SUCCESS
}

/// Exactly the metrics of `declared`, in their declared units. A missing
/// one reads 0 and is reported in `missing`.
fn conform(
    metrics: &Metrics,
    declared: &[(&str, &'static str)],
    missing: &mut Vec<String>,
) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in declared {
        let value = match metrics.0.get(name) {
            Some(&(value, _)) => value,
            None => {
                missing.push(format!("metric {name} was not measured"));
                0.0
            }
        };
        out.set(name, value, unit);
    }
    out
}

/// Prints the human-readable report and the final JSON line.
fn report(opts: &RunOpts, out: &Outcome, tracer: &Tracer) {
    println!(
        "== {} (seed {}, {}{})",
        opts.workload,
        opts.seed,
        if opts.trace { "traced" } else { "untraced" },
        if opts.smoke { ", smoke" } else { "" }
    );
    for note in &out.notes {
        println!("  {note}");
    }
    println!("  digest {:016x}", out.digest);
    if let Some(proto) = out.proto_digest {
        println!("  proto_digest {proto:016x}");
    }
    for (name, (value, unit)) in &out.metrics.0 {
        println!("  {name:<28} {value:>16.4} {unit}");
    }
    if tracer.recording() {
        println!("  self time per layer (span, count, total ms, self ms):");
        for (name, (count, total, own)) in tracer.self_times() {
            println!(
                "    {name:<24} {count:>7} {:>12.3} {:>12.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        write_trace(opts, tracer);
    }
    for problem in &out.problems {
        println!("  CHECK FAILED: {problem}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.problems.is_empty(),
        out.attempted.max(1),
        out.failed,
        out.metrics.to_json()
    );
}

/// Writes the traced run's spans as a Perfetto trace next to the executable.
fn write_trace(opts: &RunOpts, tracer: &Tracer) {
    let Some(dir) = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|p| p.join("perfbench-trace")))
    else {
        return;
    };
    let path = dir.join(format!("{}.seed{}.trace.json", opts.workload, opts.seed));
    match std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, tracer.to_perfetto(&opts.workload)))
    {
        Ok(()) => println!("  trace written to {}", path.display()),
        Err(err) => eprintln!("warning: could not write {}: {err}", path.display()),
    }
}

/// Runs every workload in its own child process, forwards their reports,
/// and ends with one JSON line whose metrics are `<workload>.<metric>`.
fn run_all(opts: &RunOpts) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(err) => {
            eprintln!("tsa-perfbench: cannot locate own executable: {err}");
            return ExitCode::FAILURE;
        }
    };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics: Vec<String> = Vec::new();
    for workload in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", workload])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &opts.seconds.to_string()])
            .args(["--trace", if opts.trace { "1" } else { "0" }]);
        if opts.smoke {
            cmd.arg("--smoke");
        }
        let output = match cmd.output() {
            Ok(output) if output.status.success() => output,
            Ok(output) => {
                eprint!("{}", String::from_utf8_lossy(&output.stderr));
                eprintln!(
                    "tsa-perfbench: workload {workload} failed: {}",
                    output.status
                );
                return ExitCode::FAILURE;
            }
            Err(err) => {
                eprintln!("tsa-perfbench: cannot run workload {workload}: {err}");
                return ExitCode::FAILURE;
            }
        };
        eprint!("{}", String::from_utf8_lossy(&output.stderr));
        let stdout = String::from_utf8_lossy(&output.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines.pop().unwrap_or_default();
        for line in lines {
            println!("{line}");
        }
        let Ok(result) = serde_json::parse_value(last) else {
            eprintln!("tsa-perfbench: workload {workload} printed no result line");
            return ExitCode::FAILURE;
        };
        correct &= result.get("correct").and_then(|v| v.as_bool()) == Some(true);
        let count = |key: &str| match result.get(key) {
            Some(serde::Value::UInt(v)) => *v,
            _ => 0,
        };
        attempted += count("attempted");
        failed += count("failed");
        if let Some(serde::Value::Object(entries)) = result.get("metrics") {
            for (name, value) in entries {
                metrics.push(format!(
                    "\"{workload}.{name}\": {}",
                    value.to_json_compact()
                ));
            }
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
