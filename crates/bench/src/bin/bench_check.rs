//! `bench_check` — the benchmark regression gate.
//!
//! Compares freshly produced `BENCH_*.json` reports against the committed
//! baselines and fails (non-zero exit) when any timing series regressed
//! beyond the tolerance. Timing fields are recognised generically: every
//! numeric field whose key carries an `ns` segment (`median_delta_ns`,
//! `median_ns_per_schedule`) is compared as lower-is-better, so the gate
//! keeps working as the tracked bench binaries grow new scenarios and
//! fields.
//!
//! ```sh
//! cargo run --release -p wsan-bench --bin bench_check -- \
//!     --fresh /tmp/bench-fresh [--baseline .] [--tolerance 1.5] [--min-ns 10000]
//! ```
//!
//! * `--fresh DIR` — directory holding the freshly generated reports,
//! * `--baseline DIR` — directory holding the committed baselines
//!   (default `.`, the repo root),
//! * `--tolerance X` — fail when `fresh > X * baseline` (default 1.5),
//! * `--min-ns N` — ignore fields whose baseline is below N nanoseconds;
//!   sub-threshold timings are dominated by scheduler noise (default 10000).
//!
//! The gate is advisory in CI (timing on shared runners is noisy) but
//! authoritative enough locally to catch order-of-magnitude mistakes.

use serde::value::Value;
use std::path::Path;
use std::process::ExitCode;
use wsan_bench::harness::flag_value;
use wsan_bench::{run_main, BenchError};

/// The tracked reports the gate knows about.
const REPORTS: &[&str] =
    &["BENCH_scheduler.json", "BENCH_sim.json", "BENCH_gateway.json", "BENCH_graph.json"];

struct Options {
    fresh: std::path::PathBuf,
    baseline: std::path::PathBuf,
    tolerance: f64,
    min_ns: f64,
}

fn parse_args() -> Result<Options, BenchError> {
    const USAGE: &str = "supported: --fresh DIR --baseline DIR --tolerance X --min-ns N";
    let mut opts = Options {
        fresh: std::path::PathBuf::new(),
        baseline: std::path::PathBuf::from("."),
        tolerance: 1.5,
        min_ns: 10_000.0,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--fresh" => opts.fresh = flag_value("--fresh", args.next(), USAGE)?,
            "--baseline" => opts.baseline = flag_value("--baseline", args.next(), USAGE)?,
            "--tolerance" => opts.tolerance = flag_value("--tolerance", args.next(), USAGE)?,
            "--min-ns" => opts.min_ns = flag_value("--min-ns", args.next(), USAGE)?,
            other => return Err(BenchError::Usage(format!("unknown argument '{other}'; {USAGE}"))),
        }
    }
    if opts.fresh.as_os_str().is_empty() {
        return Err(BenchError::Usage(format!("--fresh DIR is required; {USAGE}")));
    }
    if opts.tolerance.is_nan() || opts.tolerance <= 1.0 {
        return Err(BenchError::Usage("--tolerance must be > 1.0".to_string()));
    }
    Ok(opts)
}

/// One compared timing field.
struct Comparison {
    path: String,
    baseline: f64,
    fresh: f64,
}

impl Comparison {
    fn ratio(&self) -> f64 {
        if self.baseline <= 0.0 {
            f64::INFINITY
        } else {
            self.fresh / self.baseline
        }
    }
}

fn numeric(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// True for keys carrying a nanosecond timing: any `_`-separated segment
/// equal to `ns` (`median_delta_ns`, `median_ns_per_schedule`), so
/// throughput fields like `admissions_per_sec` never match.
fn is_ns_key(key: &str) -> bool {
    key.split('_').any(|segment| segment == "ns")
}

/// Walks `baseline` and `fresh` in lockstep (maps matched by key, arrays
/// by index — the tracked bins emit scenarios deterministically) and
/// collects every numeric field whose key has an `ns` segment.
fn collect(path: &str, baseline: &Value, fresh: &Value, out: &mut Vec<Comparison>) {
    match (baseline, fresh) {
        (Value::Map(b), Value::Map(f)) => {
            for (key, bv) in b {
                let Some(fv) = f.iter().find(|(k, _)| k == key).map(|(_, v)| v) else {
                    continue;
                };
                let child = if path.is_empty() { key.clone() } else { format!("{path}.{key}") };
                if is_ns_key(key) {
                    if let (Some(bn), Some(fn_)) = (numeric(bv), numeric(fv)) {
                        out.push(Comparison { path: child, baseline: bn, fresh: fn_ });
                        continue;
                    }
                }
                collect(&child, bv, fv, out);
            }
        }
        (Value::Seq(b), Value::Seq(f)) => {
            for (i, (bv, fv)) in b.iter().zip(f.iter()).enumerate() {
                // Prefer the element's own name for readable paths.
                let label = bv
                    .get("name")
                    .and_then(|n| match n {
                        Value::Str(s) => Some(s.clone()),
                        _ => None,
                    })
                    .unwrap_or_else(|| i.to_string());
                collect(&format!("{path}[{label}]"), bv, fv, out);
            }
        }
        _ => {}
    }
}

/// Compares one report pair; returns the regressed fields.
fn check_report(
    name: &str,
    baseline_dir: &Path,
    fresh_dir: &Path,
    tolerance: f64,
    min_ns: f64,
) -> Result<Vec<Comparison>, BenchError> {
    let read = |path: &Path| -> Result<Value, BenchError> {
        let raw = std::fs::read_to_string(path)
            .map_err(|e| BenchError::Run(format!("cannot read {}: {e}", path.display())))?;
        serde_json::from_str(&raw)
            .map_err(|e| BenchError::Run(format!("cannot parse {}: {e}", path.display())))
    };
    let baseline = read(&baseline_dir.join(name))?;
    let fresh = read(&fresh_dir.join(name))?;
    if baseline.get("schema") != fresh.get("schema") {
        return Err(BenchError::Run(format!("{name}: schema tag mismatch")));
    }
    let mut comparisons = Vec::new();
    collect("", &baseline, &fresh, &mut comparisons);
    if comparisons.is_empty() {
        return Err(BenchError::Run(format!("{name}: no comparable ns timing fields found")));
    }
    let mut regressed = Vec::new();
    let mut checked = 0usize;
    for c in comparisons {
        if c.baseline < min_ns {
            continue;
        }
        checked += 1;
        if c.fresh > c.baseline * tolerance {
            println!(
                "  REGRESSED {name}:{} — {:.0} ns -> {:.0} ns ({:.2}x > {tolerance}x)",
                c.path,
                c.baseline,
                c.fresh,
                c.ratio()
            );
            regressed.push(c);
        }
    }
    println!(
        "{name}: {checked} timing field(s) checked, {} regressed (tolerance {tolerance}x)",
        regressed.len()
    );
    Ok(regressed)
}

fn main() -> ExitCode {
    run_main(|| {
        let opts = parse_args()?;
        let mut total_regressed = 0usize;
        let mut compared = 0usize;
        for name in REPORTS {
            if !opts.baseline.join(name).exists() {
                println!("{name}: no committed baseline, skipping");
                continue;
            }
            if !opts.fresh.join(name).exists() {
                println!("{name}: not present in {}, skipping", opts.fresh.display());
                continue;
            }
            compared += 1;
            total_regressed +=
                check_report(name, &opts.baseline, &opts.fresh, opts.tolerance, opts.min_ns)?.len();
        }
        if compared == 0 {
            return Err(BenchError::Run("no report pairs to compare".to_string()));
        }
        if total_regressed > 0 {
            return Err(BenchError::Run(format!(
                "{total_regressed} timing field(s) regressed beyond {}x",
                opts.tolerance
            )));
        }
        println!("bench_check: OK ({compared} report(s), no regression)");
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(json: &str) -> Value {
        serde_json::from_str(json).unwrap()
    }

    #[test]
    fn collects_only_ns_fields_and_labels_paths() {
        let baseline = parse(
            r#"{"schema":"s/1","iters":3,
                "scenarios":[{"name":"dense","median_ns":1000,"per_sec":9.0,
                              "median_ns_per_placement":120,
                              "admissions_per_sec":5000,
                              "algos":[{"name":"RC","run_ns":50}]}]}"#,
        );
        let fresh = parse(
            r#"{"schema":"s/1","iters":3,
                "scenarios":[{"name":"dense","median_ns":2000,"per_sec":4.0,
                              "median_ns_per_placement":130,
                              "admissions_per_sec":2500,
                              "algos":[{"name":"RC","run_ns":75}]}]}"#,
        );
        let mut out = Vec::new();
        collect("", &baseline, &fresh, &mut out);
        let paths: Vec<&str> = out.iter().map(|c| c.path.as_str()).collect();
        assert_eq!(
            paths,
            vec![
                "scenarios[dense].median_ns",
                "scenarios[dense].median_ns_per_placement",
                "scenarios[dense].algos[RC].run_ns",
            ]
        );
        assert_eq!(out[0].fresh, 2000.0);
        assert!((out[0].ratio() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn null_and_missing_fields_are_skipped() {
        let baseline = parse(r#"{"a_ns":null,"b_ns":100,"c_ns":7}"#);
        let fresh = parse(r#"{"a_ns":5,"b_ns":null}"#);
        let mut out = Vec::new();
        collect("", &baseline, &fresh, &mut out);
        assert!(out.is_empty(), "only both-numeric pairs compare");
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let dir = std::env::temp_dir().join("wsan-bench-check");
        let _ = std::fs::remove_dir_all(&dir);
        let base = dir.join("base");
        let fresh = dir.join("fresh");
        std::fs::create_dir_all(&base).unwrap();
        std::fs::create_dir_all(&fresh).unwrap();
        let report = |ns: u64| {
            format!(r#"{{"schema":"wsan.sim_bench/1","scenarios":[{{"name":"x","run_ns":{ns}}}]}}"#)
        };
        std::fs::write(base.join("BENCH_sim.json"), report(100_000)).unwrap();
        std::fs::write(fresh.join("BENCH_sim.json"), report(120_000)).unwrap();
        let ok = check_report("BENCH_sim.json", &base, &fresh, 1.5, 10_000.0).unwrap();
        assert!(ok.is_empty());
        std::fs::write(fresh.join("BENCH_sim.json"), report(200_000)).unwrap();
        let bad = check_report("BENCH_sim.json", &base, &fresh, 1.5, 10_000.0).unwrap();
        assert_eq!(bad.len(), 1);
        // below the noise floor nothing is compared, so nothing regresses
        std::fs::write(base.join("BENCH_sim.json"), report(500)).unwrap();
        std::fs::write(fresh.join("BENCH_sim.json"), report(5_000)).unwrap();
        let noisy = check_report("BENCH_sim.json", &base, &fresh, 1.5, 10_000.0).unwrap();
        assert!(noisy.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }
}
