//! Smoke tests of the benchmark binary: every workload in `--smoke` mode,
//! untraced and traced. They check the result line's shape, that a run is a
//! pure function of its seed (identical digests and deterministic counts),
//! that the event engine simulates exactly what the round engine does at one
//! seed, and that `sweep_mixed` writes no shard file it could resume from.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_tsa-perfbench");
const WORKLOADS: [&str; 4] = ["steady_round", "steady_event", "wire", "sweep_mixed"];
const END_TO_END: [&str; 4] = ["op_ms_p50", "peak_rss_mb", "rounds_per_s", "setup_s"];

/// What one smoke run printed.
struct Run {
    digest: String,
    proto_digest: Option<String>,
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
}

/// A fresh, empty working directory for one run.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn smoke(workload: &str, seed: u64, trace: bool, cwd: &Path) -> Run {
    let out = Command::new(BIN)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--smoke",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .current_dir(cwd)
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{workload} failed:\n{stdout}");
    let field = |key: &str| {
        stdout
            .lines()
            .find_map(|l| l.trim().strip_prefix(key))
            .map(|v| v.trim().to_string())
    };
    let result = serde_json::parse_value(stdout.lines().last().expect("a result line"))
        .expect("the last line is JSON");
    let uint = |key: &str| match result.get(key) {
        Some(serde::Value::UInt(v)) => *v,
        other => panic!("{key} is not a whole number: {other:?}"),
    };
    let mut metrics = BTreeMap::new();
    if let Some(serde::Value::Object(entries)) = result.get("metrics") {
        for (name, m) in entries {
            let value = match m.get("value") {
                Some(serde::Value::Float(v)) => *v,
                Some(serde::Value::UInt(v)) => *v as f64,
                Some(serde::Value::Int(v)) => *v as f64,
                other => panic!("{name} has no numeric value: {other:?}"),
            };
            assert!(m.get("unit").is_some(), "{name} has no unit");
            metrics.insert(name.clone(), value);
        }
    }
    Run {
        digest: field("digest ").expect("a digest line"),
        proto_digest: field("proto_digest "),
        correct: result.get("correct").and_then(|v| v.as_bool()) == Some(true),
        attempted: uint("attempted"),
        failed: uint("failed"),
        metrics,
    }
}

#[test]
fn untraced_runs_are_correct_and_repeat_their_digests() {
    let cwd = scratch_dir("untraced");
    for workload in WORKLOADS {
        let a = smoke(workload, 3, false, &cwd);
        let b = smoke(workload, 3, false, &cwd);
        assert!(a.correct && b.correct, "{workload} failed a check");
        assert!(a.attempted >= 1 && a.failed == 0, "{workload} had failures");
        assert_eq!(
            a.digest, b.digest,
            "{workload} is not a pure function of its seed"
        );
        let names: Vec<&str> = a.metrics.keys().map(String::as_str).collect();
        assert_eq!(names, END_TO_END, "{workload} reports the wrong metrics");
        for (name, value) in &a.metrics {
            assert!(*value > 0.0, "{workload}: {name} reads {value}");
        }
    }
    // Neither the sweep nor anything else left a shard (or any file) in the
    // working directory that a later run could resume from.
    let left: Vec<_> = std::fs::read_dir(&cwd).expect("cwd lists").collect();
    assert!(
        left.is_empty(),
        "runs wrote into the working directory: {left:?}"
    );
}

#[test]
fn seeds_change_the_inputs() {
    let cwd = scratch_dir("seeds");
    for workload in ["steady_round", "sweep_mixed"] {
        let a = smoke(workload, 3, false, &cwd);
        let b = smoke(workload, 4, false, &cwd);
        assert_ne!(a.digest, b.digest, "{workload} ignores --seed");
    }
}

#[test]
fn event_engine_simulates_what_the_round_engine_does() {
    let cwd = scratch_dir("engines");
    for seed in [3, 11] {
        let round = smoke("steady_round", seed, false, &cwd);
        let event = smoke("steady_event", seed, false, &cwd);
        assert!(round.proto_digest.is_some());
        assert_eq!(
            round.proto_digest, event.proto_digest,
            "sub-round event run diverged from the round engine at seed {seed}"
        );
    }
}

#[test]
fn traced_runs_report_every_layer_and_repeat_their_counts() {
    let cwd = scratch_dir("traced");
    let counts = [
        ("steady_round", "sim.msgs_per_round"),
        ("steady_event", "event.sent_per_round"),
        ("steady_event", "event.peak_queue_depth"),
        ("wire", "net.bytes_per_msg"),
        ("sweep_mixed", "sweep.cells"),
    ];
    let mut reference: Option<Vec<String>> = None;
    for workload in WORKLOADS {
        let a = smoke(workload, 5, true, &cwd);
        let b = smoke(workload, 5, true, &cwd);
        assert!(a.correct && b.correct, "{workload} failed a check");
        assert_eq!(
            a.digest, b.digest,
            "{workload} is not a pure function of its seed"
        );
        let names: Vec<String> = a.metrics.keys().cloned().collect();
        assert!(names.contains(&"obs.overhead_frac".to_string()));
        assert_eq!(
            reference.get_or_insert_with(|| names.clone()),
            &names,
            "{workload} reports a different per-layer set"
        );
        for (w, name) in counts {
            if w == workload {
                assert!(a.metrics[name] > 0.0, "{workload}: {name} is 0");
                assert_eq!(
                    a.metrics[name], b.metrics[name],
                    "{workload}: {name} differs"
                );
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--seed", "x"][..],
        &["--trace", "2"][..],
        &["--seconds"][..],
    ] {
        let out = Command::new(BIN).args(args).output().expect("binary runs");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
    let help = Command::new(BIN)
        .arg("--help")
        .output()
        .expect("binary runs");
    assert!(help.status.success());
    assert!(String::from_utf8_lossy(&help.stdout).contains("--seed"));
}
