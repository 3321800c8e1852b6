//! The one harness behind the tracked benchmark binaries (`sched_bench`,
//! `sim_bench`, `graph_bench`, `gateway_bench`).
//!
//! Each binary writes one `BENCH_*.json` report comparing an optimized
//! path against its oracle. They share everything but the workload: the
//! `--iters N --seed S --quick --out PATH` flags ([`BenchArgs`]), the
//! warm-up-then-time loop ([`time_runs`]), the median ([`median_ns`]) and
//! the report writer ([`BenchArgs::write_report`]).

use crate::{results_dir, write_err, BenchError};
use serde::Serialize;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

/// Parses the value following `flag`, reporting a missing or malformed
/// value as a [`BenchError::Usage`] that ends with `usage`.
///
/// # Errors
///
/// Returns [`BenchError::Usage`] when `raw` is `None` or does not parse.
pub fn flag_value<T>(flag: &str, raw: Option<String>, usage: &str) -> Result<T, BenchError>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let raw = raw.ok_or_else(|| BenchError::Usage(format!("{flag} needs a value; {usage}")))?;
    raw.parse().map_err(|e| {
        BenchError::Usage(format!("{flag} got malformed value '{raw}' ({e}); {usage}"))
    })
}

/// Options common to every tracked bench binary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    /// Timed runs per measured variant.
    pub iters: usize,
    /// Workload seed.
    pub seed: u64,
    /// Report path; `None` writes `results/<default file>`.
    pub out: Option<PathBuf>,
}

impl BenchArgs {
    /// Parses `std::env::args`: `--iters N` (default `default_iters`),
    /// `--seed S` (default 42), `--quick` (caps iterations at
    /// `quick_iters`) and `--out PATH`.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Usage`] on malformed arguments.
    pub fn try_parse(default_iters: usize, quick_iters: usize) -> Result<Self, BenchError> {
        Self::try_parse_from(std::env::args().skip(1), default_iters, quick_iters)
    }

    /// [`BenchArgs::try_parse`] over an explicit argument list.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Usage`] on malformed arguments.
    pub fn try_parse_from(
        args: impl IntoIterator<Item = String>,
        default_iters: usize,
        quick_iters: usize,
    ) -> Result<Self, BenchError> {
        const USAGE: &str = "supported: --iters N --seed S --quick --out PATH";
        let mut opts = BenchArgs { iters: default_iters, seed: 42, out: None };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--iters" => opts.iters = flag_value("--iters", args.next(), USAGE)?,
                "--seed" => opts.seed = flag_value("--seed", args.next(), USAGE)?,
                "--out" => opts.out = Some(flag_value("--out", args.next(), USAGE)?),
                "--quick" => opts.iters = opts.iters.min(quick_iters),
                other => {
                    return Err(BenchError::Usage(format!("unknown argument {other}; {USAGE}")))
                }
            }
        }
        if opts.iters == 0 {
            return Err(BenchError::Usage(format!("--iters must be at least 1; {USAGE}")));
        }
        Ok(opts)
    }

    /// Writes `report` as pretty JSON to `--out`, or to `default_file`
    /// under the results directory.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Io`] when the report cannot be written.
    pub fn write_report(
        &self,
        default_file: &str,
        report: &impl Serialize,
    ) -> Result<(), BenchError> {
        let path = self.out.clone().unwrap_or_else(|| results_dir().join(default_file));
        wsan_expr::table::write_json(&path, report).map_err(write_err(&path))?;
        println!("report written to {}", path.display());
        Ok(())
    }
}

/// Runs `op` once and returns the elapsed wall-clock in nanoseconds (at
/// least 1, so ratios of timings stay finite) with its result.
pub fn timed<T>(op: impl FnOnce() -> T) -> (u64, T) {
    let started = Instant::now();
    let out = black_box(op());
    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    (ns.max(1), out)
}

/// Runs `op` once untimed as a warm-up, then `iters` times under the
/// clock. Returns the median nanoseconds of the timed runs and the
/// warm-up result.
///
/// Every timed run must reproduce the warm-up result exactly: the timed
/// operations are seeded and deterministic, so a difference is a bug in
/// the code under measurement, never noise. Each timed result is dropped
/// after the clock stops, so the next run can reuse its memory.
///
/// # Errors
///
/// Returns [`BenchError::Run`] naming `what` when a timed run's result
/// differs from the warm-up's.
pub fn time_runs<T: PartialEq>(
    what: &str,
    iters: usize,
    mut op: impl FnMut() -> T,
) -> Result<(u64, T), BenchError> {
    let warm = black_box(op());
    let mut samples = Vec::with_capacity(iters);
    for _ in 0..iters {
        let (ns, out) = timed(&mut op);
        samples.push(ns);
        if out != warm {
            return Err(BenchError::Run(format!("{what}: result changed between runs")));
        }
    }
    Ok((median_ns(&mut samples), warm))
}

/// Median of a sample set, destructively (sorts the slice). Even-length
/// samples take the lower middle — stable under the small counts the
/// `--quick` runs use.
///
/// # Panics
///
/// On an empty sample set.
pub fn median_ns(samples: &mut [u64]) -> u64 {
    assert!(!samples.is_empty(), "median of no samples");
    samples.sort_unstable();
    samples[(samples.len() - 1) / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<BenchArgs, BenchError> {
        BenchArgs::try_parse_from(args.iter().map(|s| s.to_string()), 30, 3)
    }

    #[test]
    fn parses_every_flag_and_quick_caps_iterations() {
        assert_eq!(parse(&[]).unwrap(), BenchArgs { iters: 30, seed: 42, out: None });
        let o = parse(&["--iters", "7", "--seed", "9", "--out", "x.json"]).unwrap();
        assert_eq!(o, BenchArgs { iters: 7, seed: 9, out: Some(PathBuf::from("x.json")) });
        assert_eq!(parse(&["--quick"]).unwrap().iters, 3);
        assert_eq!(parse(&["--iters", "2", "--quick"]).unwrap().iters, 2);
    }

    #[test]
    fn malformed_arguments_are_usage_errors() {
        for bad in [
            &["--iters"][..],
            &["--iters", "many"],
            &["--iters", "0"],
            &["--seed", "-1"],
            &["--frobnicate"],
        ] {
            assert!(matches!(parse(bad), Err(BenchError::Usage(_))), "{bad:?}");
        }
    }

    #[test]
    fn median_takes_lower_middle() {
        assert_eq!(median_ns(&mut [5]), 5);
        assert_eq!(median_ns(&mut [4, 1, 3, 2]), 2);
        assert_eq!(median_ns(&mut [9, 1, 5]), 5);
    }

    #[test]
    fn time_runs_warms_up_then_times_and_rejects_drift() {
        let mut calls = 0;
        let (ns, warm) = time_runs("steady", 4, || {
            calls += 1;
            7
        })
        .unwrap();
        assert_eq!((calls, warm), (5, 7), "one warm-up plus four timed runs");
        assert!(ns >= 1);
        let mut n = 0;
        let drift = time_runs("drifting", 3, || {
            n += 1;
            n
        });
        assert!(matches!(drift, Err(BenchError::Run(msg)) if msg.contains("drifting")));
    }
}
