//! `sweep_mixed`: a fixed, mixed grid through `SweepRunner`.
//!
//! The grid is what the `exp_*` binaries run: maintained cells that pay for
//! assembly, bootstrap and a few measured rounds, next to one-shot routing,
//! sampling and Table-1 baseline cells. It runs on two workers and never
//! with a shard file, so no run can resume cells from an earlier one.

use std::time::Instant;

use serde::Serialize;
use tsa_bench::{experiment_spec, workload_spec};
use tsa_core::MaintenanceReport;
use tsa_dash::SpanSlice;
use tsa_scenario::{AdversarySpec, BaselineKind, ChurnSpec, Scenario, ScenarioKind};
use tsa_sweep::{RoundsSpec, SweepRun, SweepRunner, SweepSpec};

use crate::trace::Tracer;
use crate::util::{digest_json, median, series_line, spread_line, sub_seed, Metrics};
use crate::{alloc, Outcome, RunOpts, THREADS};

/// Measured rounds of each maintained cell, after its bootstrap.
const MAINTAINED_ROUNDS: u64 = 4;

/// Grid set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;

/// The grid's sweeps, each homogeneous in cell kind. Cell seeds start at
/// the run's first sub-seed, so runs at different seeds share no cell.
pub fn grid(seed: u64) -> Vec<SweepSpec> {
    let first = sub_seed(seed, 0);
    let mut maintained = experiment_spec(24);
    maintained.adversary = AdversarySpec::random(1, first);
    let baselines = [
        BaselineKind::HdGraph,
        BaselineKind::Spartan,
        BaselineKind::ChordSwarm,
        BaselineKind::StaticLds,
    ];
    vec![
        SweepSpec::new("maintained", maintained)
            .over_n([48, 32, 24])
            .rounds(RoundsSpec::Fixed(MAINTAINED_ROUNDS))
            .seeds(first, 2),
        SweepSpec::new("routing", workload_spec(ScenarioKind::Routing, 64))
            .over_n([256, 64])
            .seeds(first, 2),
        SweepSpec::new("sampling", workload_spec(ScenarioKind::Sampling, 64))
            .over_n([256, 64])
            .seeds(first, 2),
        SweepSpec::new(
            "baseline",
            workload_spec(ScenarioKind::Baseline(BaselineKind::HdGraph), 128),
        )
        .over_kinds(baselines.map(ScenarioKind::Baseline))
        .over_churn([ChurnSpec::fraction(1, 4)])
        .over_adversaries([
            AdversarySpec::random(1, first),
            AdversarySpec::targeted(1, first),
        ])
        .seeds(first, 1),
    ]
}

/// The grid's set-up, replayed outside the runner: enumerate every sweep,
/// then assemble and bootstrap each maintained cell the way its sweep cell
/// does before its measured rounds. Returns the bootstrapped cells' reports
/// and the summed nanoseconds of the assemble, bootstrap and report calls.
fn set_up(tr: &mut Tracer, seed: u64) -> (Vec<MaintenanceReport>, [u64; 3]) {
    let mut reports = Vec::new();
    let mut ns = [0u64; 3];
    for spec in grid(seed) {
        for cell in spec.enumerate() {
            if matches!(cell.spec.kind, ScenarioKind::MaintainedLds) {
                let (mut run, assemble) =
                    tr.time("core.assemble", || Scenario::from_spec(cell.spec).build());
                let (_, bootstrap) = tr.time("core.bootstrap", || run.run_bootstrap());
                let (report, report_ns) = tr.time("core.report", || run.harness().report());
                for (total, add) in ns.iter_mut().zip([assemble, bootstrap, report_ns]) {
                    *total += add;
                }
                reports.push(report);
            }
        }
    }
    (reports, ns)
}

/// One grid: every sweep in turn, two workers, no shard file.
struct Grid {
    runs: Vec<SweepRun>,
    /// When each sweep started (its cell offsets count from about here).
    starts: Vec<Instant>,
    ns: u64,
}

fn run_grid(tr: &mut Tracer, seed: u64) -> Grid {
    let open = tr.enter("sweep.grid");
    let mut runs = Vec::new();
    let mut starts = Vec::new();
    for spec in grid(seed) {
        starts.push(Instant::now());
        let (run, _) = tr.time("sweep.run", || {
            SweepRunner::new(spec).threads(THREADS).run()
        });
        runs.push(run);
    }
    let ns = tr.exit(open);
    Grid { runs, starts, ns }
}

impl Grid {
    fn cells(&self) -> usize {
        self.runs.iter().map(|r| r.records.len()).sum()
    }

    /// Simulated rounds: bootstrap plus measured rounds of every maintained
    /// cell (one-shot cells simulate no rounds).
    fn rounds(&self) -> u64 {
        self.runs
            .iter()
            .flat_map(|r| &r.records)
            .filter_map(|rec| {
                rec.outcome
                    .maintenance
                    .as_ref()
                    .map(|_| rec.outcome.spec.maintenance_params().bootstrap_rounds() + rec.rounds)
            })
            .sum()
    }

    /// The digest of every cell's compact outcome, in grid order.
    fn digest(&self) -> u64 {
        let records: Vec<serde::Value> = self
            .runs
            .iter()
            .flat_map(|r| &r.records)
            .map(|rec| rec.outcome.to_compact().to_value())
            .collect();
        digest_json(&records)
    }

    /// Failed cells: a resumed or missing cell, a cell without its kind's
    /// result, or a maintained cell that ended unroutable.
    fn failures(&self) -> (u64, Vec<String>) {
        let mut failed = 0;
        let mut problems = Vec::new();
        for run in &self.runs {
            let expected = run.spec.cell_count();
            if run.resumed != 0 || run.executed != expected || run.records.len() != expected {
                problems.push(format!(
                    "sweep '{}' resumed {} and executed {} of {expected} cells",
                    run.spec.name, run.resumed, run.executed
                ));
                failed += expected.saturating_sub(run.executed) as u64;
            }
            for rec in &run.records {
                let o = &rec.outcome;
                let ok = match o.spec.kind {
                    ScenarioKind::MaintainedLds => o.is_routable(),
                    ScenarioKind::Routing => o.routing.as_ref().is_some_and(|r| r.total > 0),
                    ScenarioKind::Sampling => o.sampling.as_ref().is_some_and(|s| s.attempts > 0),
                    ScenarioKind::Baseline(_) => o.baseline.is_some(),
                };
                if !ok {
                    failed += 1;
                    problems.push(format!("cell {} of '{}' failed", rec.cell, run.spec.name));
                }
            }
        }
        (failed, problems)
    }
}

pub fn run(opts: &RunOpts, tr: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let setups = if opts.smoke || opts.trace { 1 } else { SETUPS };
    let mut setup_s = Vec::new();
    let mut call_ns = [0u64; 3];
    for _ in 0..setups {
        let open = tr.enter("core.setup");
        let (reports, ns) = set_up(tr, opts.seed);
        call_ns = ns;
        setup_s.push(tr.exit(open) as f64 / 1e9);
        let unroutable = reports.iter().filter(|r| !r.is_routable()).count();
        if unroutable > 0 {
            out.problems.push(format!(
                "{unroutable} maintained cell(s) unroutable after bootstrap"
            ));
        }
    }

    let mut grids = Vec::new();
    let started = Instant::now();
    if opts.trace {
        // One plain grid for the untraced side of the overhead ratio, then
        // one with allocation counting and the cell placements imported.
        grids.push(run_grid(tr, opts.seed));
        alloc::set_counting(true);
        let (a0, b0) = alloc::totals();
        grids.push(run_grid(tr, opts.seed));
        let (a1, b1) = alloc::totals();
        alloc::set_counting(false);
        out.metrics = layer_metrics(&grids[0], &grids[1], (a1 - a0, b1 - b0));
        for (name, ns) in ["core.assemble_ms", "core.bootstrap_ms", "core.report_ms"]
            .into_iter()
            .zip(call_ns)
        {
            out.metrics.set(name, ns as f64 / 1e6, "ms");
        }
        for (run, &start) in grids[1].runs.iter().zip(&grids[1].starts) {
            for worker in 0..run.threads as u64 {
                let slices: Vec<SpanSlice> = run
                    .cell_timings
                    .iter()
                    .filter(|t| t.worker == worker)
                    .map(|t| SpanSlice {
                        name: format!("sweep.cell.{}", run.spec.name),
                        start_us: t.start_us,
                        dur_us: t.dur_us,
                    })
                    .collect();
                tr.import(
                    &format!("{} worker {worker}", run.spec.name),
                    start,
                    &slices,
                );
            }
        }
    } else {
        let min_grids = if opts.smoke { 1 } else { 2 };
        while grids.len() < min_grids || started.elapsed().as_secs_f64() < opts.seconds {
            grids.push(run_grid(tr, opts.seed));
        }
    }

    let first = grids[0].digest();
    for (i, g) in grids.iter().enumerate() {
        let (failed, problems) = g.failures();
        out.attempted += g.cells() as u64;
        out.failed += failed;
        out.problems.extend(problems);
        if g.digest() != first {
            out.problems
                .push(format!("grid {i} produced different outcomes from grid 0"));
        }
    }
    out.digest = first;
    let grid_s: Vec<f64> = grids.iter().map(|g| g.ns as f64 / 1e9).collect();
    out.notes.push(format!(
        "{} grid(s) of {} cells on {THREADS} workers, {} maintained rounds each; grid_s median {:.3}",
        grids.len(),
        grids[0].cells(),
        grids[0].rounds(),
        median(&grid_s)
    ));
    if !opts.trace {
        let grid_ms: Vec<f64> = grid_s.iter().map(|s| s * 1e3).collect();
        out.notes.push(series_line("grid ms", &grid_ms));
        out.notes.push(spread_line("grid ms", &grid_ms));
        out.notes.push(spread_line("setup s", &setup_s));
        out.metrics.set("setup_s", median(&setup_s), "s");
        // Throughput over every grid of the run, slow ones included.
        let rounds: u64 = grids.iter().map(Grid::rounds).sum();
        let total_s: f64 = grid_s.iter().sum();
        out.metrics
            .set("rounds_per_s", rounds as f64 / total_s, "1/s");
        out.metrics.set("op_ms_p50", median(&grid_ms), "ms");
    }
    out
}

fn layer_metrics(plain: &Grid, observed: &Grid, allocs: (u64, u64)) -> Metrics {
    let mut m = Metrics::default();
    for run in &observed.runs {
        let busy_us: u64 = run.cell_timings.iter().map(|t| t.dur_us).sum();
        m.set(
            &format!("sweep.busy_s.{}", run.spec.name),
            busy_us as f64 / 1e6,
            "s",
        );
    }
    let busy_us: u64 = observed
        .runs
        .iter()
        .flat_map(|r| &r.cell_timings)
        .map(|t| t.dur_us)
        .sum();
    let busy_s = busy_us as f64 / 1e6;
    let grid_s = observed.ns as f64 / 1e9;
    m.set(
        "sweep.busy_frac",
        busy_s / (grid_s * THREADS as f64),
        "ratio",
    );
    m.set("sweep.cells", observed.cells() as f64, "count");
    let rounds = observed.rounds().max(1) as f64;
    m.set("alloc.per_round", allocs.0 as f64 / rounds, "count");
    m.set("alloc.bytes_per_round", allocs.1 as f64 / rounds, "B");
    m.set(
        "obs.overhead_frac",
        observed.ns as f64 / plain.ns as f64 - 1.0,
        "ratio",
    );
    m
}
