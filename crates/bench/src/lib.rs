//! Shared plumbing for the figure-regeneration binaries.
//!
//! Each `src/bin/figN*.rs` binary reproduces one or more figures of the
//! paper's evaluation: it prints the same series the figure plots and dumps
//! a machine-readable copy under `results/`. All figure binaries accept:
//!
//! * `--sets N` — flow sets per configuration point (default: the paper's
//!   100; lower it for a quick pass),
//! * `--seed S` — base seed (default 1),
//! * `--quick` — shorthand for a fast smoke-scale run,
//! * `--jobs N` — campaign worker threads (0 = one per core),
//! * `--resume` — resume from the figure's checkpoint manifest instead of
//!   recomputing finished sweep points.
//!
//! The tracked `*_bench` binaries take the flags of [`harness`] instead.
//!
//! Binaries exit non-zero with a diagnostic on malformed arguments or
//! failed runs instead of panicking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod harness;
pub mod sched;

use harness::flag_value;
use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Why a figure binary stopped.
#[derive(Debug)]
#[non_exhaustive]
pub enum BenchError {
    /// Malformed command-line arguments.
    Usage(String),
    /// A result or log file could not be written.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The experiment itself failed.
    Run(String),
}

impl fmt::Display for BenchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BenchError::Usage(msg) => write!(f, "{msg}"),
            BenchError::Io { path, source } => {
                write!(f, "cannot write {}: {source}", path.display())
            }
            BenchError::Run(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for BenchError {}

impl From<wsan_expr::campaign::CampaignError> for BenchError {
    fn from(e: wsan_expr::campaign::CampaignError) -> Self {
        BenchError::Run(e.to_string())
    }
}

/// Maps a result-file write error onto the offending path.
pub fn write_err(path: impl AsRef<Path>) -> impl FnOnce(std::io::Error) -> BenchError {
    let path = path.as_ref().to_path_buf();
    move |source| BenchError::Io { path, source }
}

/// Options common to every figure binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOptions {
    /// Flow sets (or repetitions) per configuration point.
    pub sets: usize,
    /// Base seed for workload generation.
    pub seed: u64,
    /// Quick mode: shrink the heaviest dimensions.
    pub quick: bool,
    /// Campaign worker threads (0 = one per core).
    pub jobs: usize,
    /// Resume from the figure's checkpoint manifest.
    pub resume: bool,
}

impl RunOptions {
    /// Parses `std::env::args`-style arguments.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Usage`] on malformed arguments.
    pub fn try_parse(default_sets: usize) -> Result<Self, BenchError> {
        Self::try_parse_from(std::env::args().skip(1), default_sets)
    }

    /// [`RunOptions::try_parse`] over an explicit argument list.
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::Usage`] on malformed arguments.
    pub fn try_parse_from(
        args: impl IntoIterator<Item = String>,
        default_sets: usize,
    ) -> Result<Self, BenchError> {
        const USAGE: &str = "supported: --sets N --seed S --quick --jobs N --resume";
        let mut options =
            RunOptions { sets: default_sets, seed: 1, quick: false, jobs: 0, resume: false };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--sets" => options.sets = flag_value("--sets", args.next(), USAGE)?,
                "--seed" => options.seed = flag_value("--seed", args.next(), USAGE)?,
                "--jobs" => options.jobs = flag_value("--jobs", args.next(), USAGE)?,
                "--resume" => options.resume = true,
                "--quick" => {
                    options.quick = true;
                    options.sets = options.sets.min(10);
                }
                other => {
                    return Err(BenchError::Usage(format!("unknown argument {other}; {USAGE}")))
                }
            }
        }
        Ok(options)
    }

    /// The catalog-facing view of these options.
    pub fn sweep(&self) -> wsan_expr::campaigns::SweepOptions {
        wsan_expr::campaigns::SweepOptions { sets: self.sets, seed: self.seed, quick: self.quick }
    }

    /// Campaign engine configuration for the named figure: workers and
    /// resume flag from the command line, checkpoints under
    /// `results/<name>.manifest.jsonl`.
    pub fn campaign(&self, name: &str) -> wsan_expr::campaign::CampaignConfig {
        wsan_expr::campaign::CampaignConfig {
            jobs: self.jobs,
            window: 0,
            manifest: Some(results_dir().join(format!("{name}.manifest.jsonl"))),
            resume: self.resume,
        }
    }
}

/// Runs a figure binary's fallible body, reporting errors on stderr with a
/// non-zero exit code instead of a panic backtrace.
pub fn run_main(body: impl FnOnce() -> Result<(), BenchError>) -> ExitCode {
    match body() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The directory figure outputs are written to.
pub fn results_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(
        std::env::var("WSAN_RESULTS_DIR").unwrap_or_else(|_| "results".to_string()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str], default_sets: usize) -> Result<RunOptions, BenchError> {
        RunOptions::try_parse_from(args.iter().map(|s| s.to_string()), default_sets)
    }

    #[test]
    fn defaults_without_args() {
        let o = parse(&[], 100).unwrap();
        assert_eq!(o, RunOptions { sets: 100, seed: 1, quick: false, jobs: 0, resume: false });
    }

    #[test]
    fn parses_all_flags() {
        let o = parse(&["--sets", "7", "--seed", "9", "--jobs", "3", "--resume"], 100).unwrap();
        assert_eq!(o, RunOptions { sets: 7, seed: 9, quick: false, jobs: 3, resume: true });
        assert_eq!(o.sweep().seed, 9);
    }

    #[test]
    fn quick_caps_sets() {
        let o = parse(&["--quick"], 100).unwrap();
        assert!(o.quick);
        assert_eq!(o.sets, 10);
    }

    #[test]
    fn malformed_arguments_are_usage_errors_not_panics() {
        assert!(matches!(parse(&["--sets"], 5), Err(BenchError::Usage(_))));
        assert!(matches!(parse(&["--sets", "many"], 5), Err(BenchError::Usage(_))));
        assert!(matches!(parse(&["--frobnicate"], 5), Err(BenchError::Usage(_))));
    }

    #[test]
    fn results_dir_honours_env() {
        std::env::set_var("WSAN_RESULTS_DIR", "/tmp/wsan-results-test");
        assert_eq!(results_dir(), std::path::PathBuf::from("/tmp/wsan-results-test"));
        std::env::remove_var("WSAN_RESULTS_DIR");
        assert_eq!(results_dir(), std::path::PathBuf::from("results"));
    }

    #[test]
    fn campaign_config_points_at_the_results_manifest() {
        let o = parse(&["--jobs", "2", "--resume"], 5).unwrap();
        let cfg = o.campaign("fig6");
        assert_eq!(cfg.jobs, 2);
        assert!(cfg.resume);
        assert!(cfg.manifest.as_deref().is_some_and(|p| p.ends_with("fig6.manifest.jsonl")));
    }
}
