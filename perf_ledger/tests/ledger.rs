//! Self-tests of the benchmark at tiny scale: every metric named in
//! `BENCHMARK.json` is printed with its unit, outputs repeat across runs
//! and between traced and untraced runs, the correctness gates pass on
//! more than one seed, and a corrupted output fails the run.

use serde::value::Value;
use std::path::PathBuf;
use std::process::Command;

const WORKLOADS: [&str; 3] = ["city-plan", "gateway-churn", "health-epochs"];

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// The parsed output of one tiny run: exit success, every stdout line.
struct Run {
    success: bool,
    lines: Vec<Value>,
}

impl Run {
    fn result(&self) -> &Value {
        self.lines.last().expect("a result line")
    }

    fn line_with(&self, key: &str) -> &Value {
        self.lines.iter().find(|l| l.get(key).is_some()).unwrap_or_else(|| panic!("no {key} line"))
    }

    fn correct(&self) -> bool {
        self.result().get("correct") == Some(&Value::Bool(true))
    }
}

fn run(workload: &str, seed: Option<u64>, trace: bool, extra: &[&str]) -> Run {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_perf_ledger"));
    cmd.current_dir(repo_root())
        .args(["--workload", workload, "--seconds", "1", "--scale", "tiny"])
        .args(["--trace", if trace { "1" } else { "0" }])
        .args(extra);
    if let Some(seed) = seed {
        cmd.args(["--seed", &seed.to_string()]);
    }
    let out = cmd.output().expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines = stdout
        .lines()
        .map(|l| serde_json::from_str(l).unwrap_or_else(|e| panic!("line is not JSON ({e}): {l}")))
        .collect();
    Run { success: out.status.success(), lines }
}

/// `(name, unit)` of every metric in one `BENCHMARK.json` table.
fn declared(table: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let bench: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    let text_of = |v: Option<&Value>| match v {
        Some(Value::Str(s)) => s.clone(),
        other => panic!("expected a string, got {other:?}"),
    };
    bench
        .get(table)
        .and_then(Value::as_seq)
        .expect("metric table")
        .iter()
        .map(|m| (text_of(m.get("name")), text_of(m.get("unit"))))
        .collect()
}

fn printed(run: &Run) -> Vec<(String, String)> {
    let metrics = run.result().get("metrics").and_then(Value::as_map).expect("metrics object");
    metrics
        .iter()
        .map(|(name, m)| match (m.get("value"), m.get("unit")) {
            (Some(Value::Float(_) | Value::Int(_) | Value::UInt(_)), Some(Value::Str(unit))) => {
                (name.clone(), unit.clone())
            }
            other => panic!("metric {name} is not {{value, unit}}: {other:?}"),
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for workload in WORKLOADS {
        for (trace, table) in [(false, "end_to_end"), (true, "per_layer")] {
            let r = run(workload, Some(5), trace, &[]);
            assert!(r.success && r.correct(), "{workload} trace={trace} failed");
            assert_eq!(printed(&r), declared(table), "{workload} trace={trace}");
            let env = r.line_with("env").get("env").expect("env header");
            for key in ["nproc", "jobs", "seed", "rustc", "profile", "commit", "source_digest"] {
                assert!(env.get(key).is_some(), "{workload}: header lacks {key}");
            }
        }
    }
}

#[test]
fn outputs_repeat_across_runs_traced_or_not() {
    for workload in WORKLOADS {
        let digest = |r: &Run| r.line_with("outputs_digest").get("outputs_digest").cloned();
        let untraced = run(workload, Some(7), false, &[]);
        let again = run(workload, Some(7), false, &[]);
        let traced = run(workload, Some(7), true, &[]);
        assert!(untraced.correct() && again.correct() && traced.correct(), "{workload}");
        assert_eq!(digest(&untraced), digest(&again), "{workload}: reruns differ");
        assert_eq!(digest(&untraced), digest(&traced), "{workload}: traced run differs");
        assert_ne!(
            digest(&untraced),
            digest(&run(workload, Some(8), false, &[])),
            "{workload}: seed ignored"
        );
    }
}

#[test]
fn gates_pass_on_the_default_and_a_second_seed() {
    for workload in WORKLOADS {
        for seed in [None, Some(2)] {
            for trace in [false, true] {
                let r = run(workload, seed, trace, &[]);
                assert!(r.success && r.correct(), "{workload} seed={seed:?} trace={trace}");
            }
        }
    }
}

#[test]
fn a_corrupted_output_fails_the_run() {
    for workload in WORKLOADS {
        for trace in [false, true] {
            let r = run(workload, Some(9), trace, &["--corrupt"]);
            assert!(!r.success, "{workload} trace={trace}: corrupted run exited 0");
            assert!(!r.correct(), "{workload} trace={trace}: corrupted run claimed correct");
        }
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--seconds", "3"][..],
        &["--workload", "city-plan", "--trace", "2"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perf_ledger"))
            .current_dir(repo_root())
            .args(args)
            .output()
            .expect("the benchmark binary runs");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
