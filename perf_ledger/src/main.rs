//! `perf_ledger` — end-to-end and per-layer benchmark of the wsan stack.
//!
//! ```sh
//! cargo run --release --offline --manifest-path perf_ledger/Cargo.toml -- \
//!     --workload city-plan --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Three closed-loop workloads, each loading a different layer:
//! `city-plan` (graph and shard planning), `gateway-churn` (the
//! incremental scheduler behind the JSONL service and its journal) and
//! `health-epochs` (simulator, classifier and recovery). Every run does a
//! fixed amount of work: `--seconds` only sets the op count through the
//! workload's nominal rate, never a clock-bounded loop. `--trace 0`
//! prints the end-to-end metrics; `--trace 1` re-runs the ops step by
//! step under a span recorder and prints the per-layer metrics.
//!
//! Output: an environment header line, a line of deterministic output
//! digests, with `--trace 1` a stage-split line, and last one JSON object
//! `{"correct","attempted","failed","metrics"}`. Correctness gates run
//! outside the timed region; a failed gate prints `"correct": false` and
//! exits with status 1. See `perf_ledger/README.md` for the workloads,
//! metrics and the layer map.

mod city;
mod gateway;
mod health;
mod trace;

use serde::value::Value;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use trace::Tracer;

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics, printed by every untraced run: name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
    ("residual_pdr", "ratio"),
];

/// Per-layer metrics, printed by every traced run: name and unit. A layer
/// that a workload does not call reads 0 there.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("net.plants.generate_s", "s"),
    ("net.graph.reuse_graph_ms", "ms"),
    ("net.graph.comm_graph_ms", "ms"),
    ("core.shard.plan_ms", "ms"),
    ("core.shard.build_problem_ms", "ms"),
    ("core.shard.stitch_ms", "ms"),
    ("core.shard.validate_ms", "ms"),
    ("core.shard.hop_bytes", "bytes/op"),
    ("core.shard.colors", "count/op"),
    ("core.shard.entries", "count/op"),
    ("expr.sharding.pool_speedup", "ratio"),
    ("core.sched.schedule_ms", "ms"),
    ("core.gateway.admit_ms", "ms"),
    ("core.gateway.admit_p90_ms", "ms"),
    ("core.gateway.suffix_share", "ratio"),
    ("core.gateway.full_share", "ratio"),
    ("core.gateway.replaced_flows", "count/op"),
    ("core.gateway.reschedules", "count/op"),
    ("core.gateway.evicted", "count/op"),
    ("core.gateway.refused", "count/op"),
    ("core.gateway.journal.append_ms", "ms"),
    ("core.gateway.service_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.busy_slot_share", "ratio"),
    ("sim.slots", "count/op"),
    ("detect.classify_ms", "ms"),
    ("detect.links_classified", "count/op"),
    ("detect.reuse_degraded", "count/op"),
    ("core.recovery.recover_ms", "ms"),
    ("core.recovery.reschedules", "count/op"),
    ("core.recovery.moved_transmissions", "count/op"),
    ("core.recovery.shed_flows", "count/op"),
    ("trace.op_ms", "ms"),
    ("trace.overhead", "ratio"),
];

/// The workloads, by their command-line names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CityPlan,
    GatewayChurn,
    HealthEpochs,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            "city-plan" => Some(Workload::CityPlan),
            "gateway-churn" => Some(Workload::GatewayChurn),
            "health-epochs" => Some(Workload::HealthEpochs),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::CityPlan => "city-plan",
            Workload::GatewayChurn => "gateway-churn",
            Workload::HealthEpochs => "health-epochs",
        }
    }

    /// Worker threads the workload's program calls may use.
    fn jobs(self) -> usize {
        match self {
            Workload::CityPlan => city::JOBS,
            Workload::GatewayChurn | Workload::HealthEpochs => 1,
        }
    }
}

/// Command-line options.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Shrinks every workload to a few ops on small inputs (self-tests).
    pub tiny: bool,
    /// Flips one bit of a checked output before its gate (self-tests: the
    /// run must then fail).
    pub corrupt: bool,
    /// Directory for temporary files (journals, span dumps), relative to
    /// the working directory.
    pub work_dir: PathBuf,
}

const USAGE: &str = "usage: perf_ledger --workload city-plan|gateway-churn|health-epochs \
                     [--seed N] [--seconds N] [--trace 0|1] [--scale full|tiny] [--corrupt]";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut opts = Opts {
        workload: Workload::CityPlan,
        seed: DEFAULT_SEED,
        seconds: 15,
        trace: false,
        tiny: false,
        corrupt: false,
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut workload = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value; {USAGE}"));
        match flag.as_str() {
            "--workload" => {
                let raw = value()?;
                workload = Some(
                    Workload::parse(raw)
                        .ok_or_else(|| format!("unknown workload '{raw}'; {USAGE}"))?,
                );
            }
            "--seed" => opts.seed = parse_num(flag, value()?)?,
            "--seconds" => opts.seconds = parse_num(flag, value()?)?,
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got '{other}'")),
                }
            }
            "--scale" => {
                opts.tiny = match value()?.as_str() {
                    "full" => false,
                    "tiny" => true,
                    other => return Err(format!("--scale takes full or tiny, got '{other}'")),
                }
            }
            "--corrupt" => opts.corrupt = true,
            other => return Err(format!("unknown argument '{other}'; {USAGE}")),
        }
    }
    opts.workload = workload.ok_or_else(|| format!("--workload is required; {USAGE}"))?;
    if opts.seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(opts)
}

fn parse_num(flag: &str, raw: &str) -> Result<u64, String> {
    raw.parse().map_err(|_| format!("{flag} got malformed value '{raw}'"))
}

/// What a workload run hands back.
pub struct Outcome {
    /// Timed ops.
    pub attempted: u64,
    /// Timed ops that errored unexpectedly.
    pub failed: u64,
    /// Measured metrics by name (units come from the tables above).
    pub metrics: Vec<(&'static str, f64)>,
    /// Failed correctness gates, one message each.
    pub gate_errors: Vec<String>,
    /// Digest of every deterministic output of the run (per-op digests,
    /// outcomes and counts): the same seed must reproduce it, traced or
    /// not.
    pub outputs_digest: u64,
    /// The traced pass's span recorder (`--trace 1` only).
    pub tracer: Option<Tracer>,
}

/// Incremental FNV-1a digest over deterministic outputs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn eat_bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn eat(&mut self, v: u64) {
        self.eat_bytes(&v.to_le_bytes());
    }

    pub fn eat_str(&mut self, s: &str) {
        self.eat(s.len() as u64);
        self.eat_bytes(s.as_bytes());
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

/// Splitmix64 mixer deriving independent per-op seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut x = seed ^ salt.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Op count for a run: the workload's nominal rate times `--seconds`.
/// Fixed by the arguments alone, never by the clock.
pub fn op_count(opts: &Opts, per_second: u64) -> usize {
    (opts.seconds * per_second) as usize
}

/// The `rep`-th of `reps` consecutive, near-equal chunks of `0..n`. Runs
/// interleave their set-up repetitions with these chunks of timed ops, so
/// both sample the whole run rather than one stretch of it.
pub fn chunk(n: usize, reps: usize, rep: usize) -> std::ops::Range<usize> {
    n * rep / reps..n * (rep + 1) / reps
}

/// Runs `f` and returns its result with the seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = std::time::Instant::now();
    let out = f();
    (out, started.elapsed().as_secs_f64())
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// `rustc --version`, or "unknown" when no compiler is on the PATH.
fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit when the run starts in a git work tree.
fn git_commit() -> Option<String> {
    if !Path::new(".git").exists() {
        return None;
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
}

/// FNV digest of the program's sources (`crates/**/*.rs`, manifests and
/// lock file), identifying the code under test where no commit is known.
fn source_digest() -> u64 {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                out.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut d = Digest::default();
    for f in files {
        d.eat_str(&f.to_string_lossy());
        d.eat_bytes(&std::fs::read(&f).unwrap_or_default());
    }
    d.value()
}

fn env_header(opts: &Opts) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = git_commit().map_or(Value::Null, Value::Str);
    let env = Value::Map(vec![
        ("workload".into(), Value::Str(opts.workload.name().into())),
        ("seed".into(), Value::UInt(opts.seed)),
        ("default_seed".into(), Value::UInt(DEFAULT_SEED)),
        ("seconds".into(), Value::UInt(opts.seconds)),
        ("trace".into(), Value::Bool(opts.trace)),
        ("scale".into(), Value::Str(if opts.tiny { "tiny" } else { "full" }.into())),
        ("nproc".into(), Value::UInt(nproc as u64)),
        ("jobs".into(), Value::UInt(opts.workload.jobs() as u64)),
        ("rustc".into(), Value::Str(rustc_version())),
        (
            "profile".into(),
            Value::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into()),
        ),
        ("commit".into(), commit),
        ("source_digest".into(), Value::Str(format!("{:016x}", source_digest()))),
    ]);
    to_json(&Value::Map(vec![("env".into(), env)]))
}

fn to_json(v: &Value) -> String {
    serde_json::to_string(v).expect("a Value always serializes")
}

/// The stage split of the traced pass: each stage's share of the total
/// traced op time, and its median self time per op.
fn stage_line(tracer: &Tracer) -> String {
    let per_op = tracer.self_by_op();
    let mut names: Vec<&'static str> = tracer.spans().iter().map(|s| s.name).collect();
    names.sort_unstable();
    names.dedup();
    let total: u64 = per_op.values().flat_map(|m| m.values()).sum();
    let stages: Vec<Value> = names
        .iter()
        .map(|name| {
            let ns: u64 = per_op.values().filter_map(|m| m.get(name)).sum();
            Value::Map(vec![
                ("stage".into(), Value::Str((*name).into())),
                ("share".into(), Value::Float(ns as f64 / total.max(1) as f64)),
                ("median_self_ms".into(), Value::Float(trace::stage_median_ms(&per_op, name))),
            ])
        })
        .collect();
    to_json(&Value::Map(vec![("stages".into(), Value::Seq(stages))]))
}

fn result_line(correct: bool, outcome: &Outcome, table: &[(&str, &str)]) -> String {
    let metrics: Vec<(String, Value)> = table
        .iter()
        .map(|&(name, unit)| {
            let value = outcome.metrics.iter().find(|(n, _)| *n == name).map_or(0.0, |m| m.1);
            let entry = Value::Map(vec![
                ("value".into(), Value::Float(value)),
                ("unit".into(), Value::Str(unit.into())),
            ]);
            (name.to_string(), entry)
        })
        .collect();
    to_json(&Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::UInt(outcome.attempted)),
        ("failed".into(), Value::UInt(outcome.failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]))
}

fn run(opts: &Opts) -> Result<bool, String> {
    let header = env_header(opts);
    println!("{header}");
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.work_dir.display()))?;
    let mut outcome = match opts.workload {
        Workload::CityPlan => city::run(opts)?,
        Workload::GatewayChurn => gateway::run(opts)?,
        Workload::HealthEpochs => health::run(opts)?,
    };
    if let Some(tracer) = &outcome.tracer {
        if let Err(e) = tracer.check_self_sums() {
            outcome.gate_errors.push(e);
        }
        println!("{}", stage_line(tracer));
        let path =
            opts.work_dir.join(format!("spans-{}-seed{}.jsonl", opts.workload.name(), opts.seed));
        tracer
            .write_jsonl(&path, &header)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let table = if opts.trace {
        PER_LAYER
    } else {
        outcome.metrics.push(("peak_rss_mb", peak_rss_mb()?));
        for &(name, _) in END_TO_END {
            if !outcome.metrics.iter().any(|(n, _)| *n == name) {
                outcome.gate_errors.push(format!("end-to-end metric {name} was not measured"));
            }
        }
        END_TO_END
    };
    let digest = format!("{:016x}", outcome.outputs_digest);
    println!("{}", to_json(&Value::Map(vec![("outputs_digest".into(), Value::Str(digest))])));
    for e in &outcome.gate_errors {
        eprintln!("gate failed: {e}");
    }
    let correct = outcome.gate_errors.is_empty();
    println!("{}", result_line(correct, &outcome, table));
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&opts) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}
