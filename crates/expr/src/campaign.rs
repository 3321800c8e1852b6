//! Deterministic, resumable, work-stealing campaign engine.
//!
//! A *campaign* is an ordered list of independent sweep points. The engine
//! runs them across a worker pool and streams each result — in the original
//! point order — through a caller-supplied aggregator, so the aggregate
//! output of a parallel run is byte-identical to a sequential one:
//!
//! * **Sharding**: workers claim points work-stealing style (an atomic
//!   cursor), so uneven point costs balance automatically. Each point's
//!   seeding is the caller's job — derive it from the point itself, never
//!   from the worker that happens to run it.
//! * **Bounded memory**: out-of-order results wait in a reorder buffer
//!   whose size is capped by [`CampaignConfig::window`]; workers block
//!   before claiming a point that would overflow it.
//! * **Checkpointing**: with a manifest path set, every finished point is
//!   appended to a JSONL manifest (flushed per line). A later run with
//!   [`CampaignConfig::resume`] replays those results instead of
//!   recomputing them; a truncated trailing line (killed mid-write) is
//!   ignored and that point simply re-runs.
//! * **Cooperative cancellation**: the first failing point poisons the
//!   pool; workers stop claiming, in-flight successes are still
//!   checkpointed (so the work is not lost), and the earliest observed
//!   failure is reported.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One sweep point: a unique key (the manifest identity) plus the input the
/// runner needs.
#[derive(Debug, Clone)]
pub struct PointSpec<I> {
    /// Stable identity of the point within its campaign. Resumption matches
    /// checkpointed results by this key, so it must encode everything that
    /// distinguishes the point (panel, x value, seed index, …).
    pub key: String,
    /// Input handed to the point runner.
    pub input: I,
}

impl<I> PointSpec<I> {
    /// Creates a point spec.
    pub fn new(key: impl Into<String>, input: I) -> Self {
        PointSpec { key: key.into(), input }
    }
}

/// Execution knobs of a campaign run.
#[derive(Debug, Clone, Default)]
pub struct CampaignConfig {
    /// Worker threads; `0` selects `available_parallelism`. `1` runs
    /// sequentially on the calling thread.
    pub jobs: usize,
    /// Reorder-buffer bound in points; `0` selects `max(4 × jobs, 8)`.
    /// Values below `jobs` are raised to `jobs` (smaller windows would
    /// stall the pool).
    pub window: usize,
    /// Checkpoint manifest path (`*.manifest.jsonl`). `None` disables
    /// checkpointing.
    pub manifest: Option<PathBuf>,
    /// Replay results already present in the manifest instead of re-running
    /// their points. Without this flag an existing manifest is overwritten.
    pub resume: bool,
}

/// Why a campaign run stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CampaignError {
    /// A point's runner returned an error (or panicked).
    Point {
        /// Key of the earliest failing point observed.
        key: String,
        /// The runner's error message (or panic payload).
        message: String,
    },
    /// The manifest could not be read or written.
    Io {
        /// Manifest path.
        path: PathBuf,
        /// Underlying error rendering.
        message: String,
    },
    /// The manifest exists but does not belong to this campaign (different
    /// name, point set, or format).
    Manifest {
        /// Manifest path.
        path: PathBuf,
        /// What mismatched.
        message: String,
    },
    /// Two points share a key, so manifest identities would collide.
    DuplicateKey {
        /// The offending key.
        key: String,
    },
    /// The requested campaign name is not in the catalog.
    UnknownCampaign {
        /// The unknown name.
        name: String,
    },
    /// Building or serializing the campaign's aggregate failed.
    Aggregate {
        /// What went wrong.
        message: String,
    },
}

impl std::fmt::Display for CampaignError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CampaignError::Point { key, message } => {
                write!(f, "campaign point '{key}' failed: {message}")
            }
            CampaignError::Io { path, message } => {
                write!(f, "manifest I/O error at {}: {message}", path.display())
            }
            CampaignError::Manifest { path, message } => {
                write!(f, "manifest {} does not match this campaign: {message}", path.display())
            }
            CampaignError::DuplicateKey { key } => {
                write!(f, "duplicate campaign point key '{key}'")
            }
            CampaignError::UnknownCampaign { name } => {
                write!(f, "unknown campaign '{name}'")
            }
            CampaignError::Aggregate { message } => {
                write!(f, "campaign aggregation failed: {message}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

/// What a finished campaign run did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignSummary {
    /// Total points in the campaign.
    pub total: usize,
    /// Points actually executed this run.
    pub executed: usize,
    /// Points replayed from the manifest.
    pub resumed: usize,
}

/// First line of a manifest file; identifies the campaign the checkpointed
/// results belong to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ManifestHeader {
    format: String,
    version: u64,
    campaign: String,
    fingerprint: u64,
    points: u64,
}

const MANIFEST_FORMAT: &str = "wsan-campaign-manifest";
const MANIFEST_VERSION: u64 = 1;

/// FNV-1a 64 over the campaign name and every point key, in order. Resuming
/// against a manifest whose fingerprint differs is refused: the checkpoint
/// belongs to a different sweep.
fn fingerprint<I>(name: &str, points: &[PointSpec<I>]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(name.as_bytes());
    eat(b"\n");
    for p in points {
        eat(p.key.as_bytes());
        eat(b"\n");
    }
    hash
}

/// Open manifest handle used for appending checkpoints.
struct Checkpointer {
    file: std::fs::File,
    path: PathBuf,
}

impl Checkpointer {
    /// Appends one `(key, result)` line and flushes it, so a killed process
    /// loses at most the line being written. Returns the result so callers
    /// can keep using it without cloning.
    fn append<R: Serialize>(&mut self, key: &str, result: R) -> Result<R, CampaignError> {
        let pair = (key.to_string(), result);
        let line = serde_json::to_string(&pair).map_err(|e| CampaignError::Manifest {
            path: self.path.clone(),
            message: format!("cannot serialize point '{key}': {e}"),
        })?;
        let (_, result) = pair;
        let io_err = |e: std::io::Error| CampaignError::Io {
            path: self.path.clone(),
            message: e.to_string(),
        };
        self.file.write_all(line.as_bytes()).map_err(io_err)?;
        self.file.write_all(b"\n").map_err(io_err)?;
        self.file.flush().map_err(io_err)?;
        Ok(result)
    }
}

/// Parses an existing manifest into `original index → result`, matching
/// lines by point key. Unparseable lines (a truncated tail from a killed
/// run) and unknown or repeated keys are skipped — their points re-run.
fn load_manifest<R: Deserialize>(
    path: &Path,
    text: &str,
    expect_fingerprint: u64,
    key_index: &BTreeMap<&str, usize>,
) -> Result<BTreeMap<usize, R>, CampaignError> {
    let mut lines = text.lines();
    let header_line = lines.next().unwrap_or("");
    let header: ManifestHeader =
        serde_json::from_str(header_line).map_err(|_| CampaignError::Manifest {
            path: path.to_path_buf(),
            message: "missing or unreadable header line".to_string(),
        })?;
    if header.format != MANIFEST_FORMAT || header.version != MANIFEST_VERSION {
        return Err(CampaignError::Manifest {
            path: path.to_path_buf(),
            message: format!("unsupported format {}/{}", header.format, header.version),
        });
    }
    if header.fingerprint != expect_fingerprint {
        return Err(CampaignError::Manifest {
            path: path.to_path_buf(),
            message: format!(
                "fingerprint {:016x} does not match this campaign's {:016x} \
                 (different name or point set) — delete the manifest or drop --resume",
                header.fingerprint, expect_fingerprint
            ),
        });
    }
    let mut resumed = BTreeMap::new();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let Ok((key, result)) = serde_json::from_str::<(String, R)>(line) else {
            continue;
        };
        if let Some(&idx) = key_index.get(key.as_str()) {
            resumed.entry(idx).or_insert(result);
        }
    }
    Ok(resumed)
}

/// Prepares the manifest for this run: loads resumable results (when
/// `resume` is set and the file exists) and opens the file for appending,
/// writing a fresh header when starting over.
fn open_manifest<I, R: Deserialize>(
    name: &str,
    points: &[PointSpec<I>],
    cfg: &CampaignConfig,
    key_index: &BTreeMap<&str, usize>,
) -> Result<(Option<Checkpointer>, BTreeMap<usize, R>), CampaignError> {
    let Some(path) = &cfg.manifest else {
        return Ok((None, BTreeMap::new()));
    };
    let fp = fingerprint(name, points);
    let mut resumed = BTreeMap::new();
    let mut fresh = true;
    if cfg.resume {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                resumed = load_manifest(path, &text, fp, key_index)?;
                fresh = false;
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(CampaignError::Io { path: path.clone(), message: e.to_string() }),
        }
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .map_err(|e| CampaignError::Io { path: path.clone(), message: e.to_string() })?;
        }
    }
    let file = std::fs::OpenOptions::new()
        .create(true)
        .append(!fresh)
        .write(true)
        .truncate(fresh)
        .open(path)
        .map_err(|e| CampaignError::Io { path: path.clone(), message: e.to_string() })?;
    let mut ckpt = Checkpointer { file, path: path.clone() };
    if fresh {
        let header = ManifestHeader {
            format: MANIFEST_FORMAT.to_string(),
            version: MANIFEST_VERSION,
            campaign: name.to_string(),
            fingerprint: fp,
            points: points.len() as u64,
        };
        let line = serde_json::to_string(&header).map_err(|e| CampaignError::Manifest {
            path: ckpt.path.clone(),
            message: e.to_string(),
        })?;
        let io_err =
            |e: std::io::Error| CampaignError::Io { path: path.clone(), message: e.to_string() };
        ckpt.file.write_all(line.as_bytes()).map_err(io_err)?;
        ckpt.file.write_all(b"\n").map_err(io_err)?;
        ckpt.file.flush().map_err(io_err)?;
    }
    Ok((Some(ckpt), resumed))
}

/// Throughput instruments, created only when global metrics are enabled.
struct CampaignMetrics {
    executed: wsan_obs::Counter,
    resumed: wsan_obs::Counter,
    in_flight: wsan_obs::Gauge,
    checkpoint_lag: wsan_obs::Gauge,
    points_per_sec: wsan_obs::Gauge,
}

impl CampaignMetrics {
    fn new() -> Self {
        let reg = wsan_obs::global_metrics();
        CampaignMetrics {
            executed: reg.counter("campaign.points.executed"),
            resumed: reg.counter("campaign.points.resumed"),
            in_flight: reg.gauge("campaign.in_flight"),
            checkpoint_lag: reg.gauge("campaign.checkpoint_lag"),
            points_per_sec: reg.gauge("campaign.points_per_sec"),
        }
    }
}

/// Runs `run_point` once, converting a panic into an `Err` so one exploding
/// sweep point cancels the campaign instead of aborting the process.
fn run_caught<I, R, F>(run_point: &F, point: &PointSpec<I>) -> Result<R, String>
where
    F: Fn(&PointSpec<I>) -> Result<R, String>,
{
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_point(point))) {
        Ok(result) => result,
        Err(payload) => Err(wsan_net::parallel::payload_message(payload.as_ref())),
    }
}

/// Runs a campaign: executes every point of `points` not already
/// checkpointed, streaming results through `consume` in the original point
/// order (resumed results included), and returns what was done.
///
/// `consume` sees exactly the same sequence regardless of `cfg.jobs`, so
/// any aggregate built from it is bit-identical between sequential,
/// parallel, and resumed runs.
///
/// # Errors
///
/// [`CampaignError::Point`] carries the earliest failing point observed
/// before the pool drained; manifest problems surface as
/// [`CampaignError::Io`] / [`CampaignError::Manifest`].
pub fn run<I, R, F, A>(
    name: &str,
    points: &[PointSpec<I>],
    cfg: &CampaignConfig,
    run_point: F,
    mut consume: A,
) -> Result<CampaignSummary, CampaignError>
where
    I: Sync,
    R: Send + Serialize + Deserialize,
    F: Fn(&PointSpec<I>) -> Result<R, String> + Sync,
    A: FnMut(&PointSpec<I>, R),
{
    let started = Instant::now();
    let mut key_index: BTreeMap<&str, usize> = BTreeMap::new();
    for (i, p) in points.iter().enumerate() {
        if key_index.insert(p.key.as_str(), i).is_some() {
            return Err(CampaignError::DuplicateKey { key: p.key.clone() });
        }
    }
    let metrics = wsan_obs::metrics_enabled().then(CampaignMetrics::new);
    let (mut ckpt, mut resumed_map) = open_manifest::<I, R>(name, points, cfg, &key_index)?;
    let todo: Vec<usize> = (0..points.len()).filter(|i| !resumed_map.contains_key(i)).collect();
    let jobs = if cfg.jobs == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        cfg.jobs
    }
    .min(todo.len().max(1));

    if wsan_obs::enabled(wsan_obs::Level::Info) {
        wsan_obs::event(
            wsan_obs::Level::Info,
            "wsan_expr::campaign",
            "campaign starting",
            &[
                wsan_obs::kv("campaign", name),
                wsan_obs::kv("points", points.len()),
                wsan_obs::kv("resumed", resumed_map.len()),
                wsan_obs::kv("jobs", jobs),
            ],
        );
    }

    let mut executed = 0usize;
    let mut resumed_count = 0usize;

    if jobs <= 1 || todo.len() <= 1 {
        for (idx, point) in points.iter().enumerate() {
            if let Some(result) = resumed_map.remove(&idx) {
                resumed_count += 1;
                consume(point, result);
                continue;
            }
            let result = run_caught(&run_point, point)
                .map_err(|message| CampaignError::Point { key: point.key.clone(), message })?;
            let result = match &mut ckpt {
                Some(c) => c.append(&point.key, result)?,
                None => result,
            };
            executed += 1;
            consume(point, result);
        }
        finish_metrics(metrics.as_ref(), executed, resumed_count, started);
        return Ok(CampaignSummary { total: points.len(), executed, resumed: resumed_count });
    }

    let window = if cfg.window == 0 { (jobs * 4).max(8) } else { cfg.window.max(jobs) };
    let pos_of: BTreeMap<usize, usize> = todo.iter().enumerate().map(|(p, &i)| (i, p)).collect();
    let next = AtomicUsize::new(0);
    let poisoned = AtomicBool::new(false);
    // number of fresh (non-resumed) results consumed in order; workers wait
    // on it before claiming a position beyond the reorder window
    let gate: (Mutex<usize>, Condvar) = (Mutex::new(0), Condvar::new());
    let (sender, receiver) = mpsc::channel::<(usize, Result<R, String>)>();

    let mut failure: Option<(usize, String)> = None;
    let mut ckpt_error: Option<CampaignError> = None;

    std::thread::scope(|scope| {
        for _ in 0..jobs {
            let sender = sender.clone();
            let next = &next;
            let poisoned = &poisoned;
            let gate = &gate;
            let todo = &todo;
            let run_point = &run_point;
            scope.spawn(move || {
                loop {
                    if poisoned.load(Ordering::Relaxed) {
                        break;
                    }
                    let pos = next.fetch_add(1, Ordering::Relaxed);
                    if pos >= todo.len() {
                        break;
                    }
                    {
                        let (lock, cv) = gate;
                        let mut consumed = lock.lock().unwrap_or_else(|e| e.into_inner());
                        while pos >= *consumed + window && !poisoned.load(Ordering::Relaxed) {
                            // the timeout is a safety net for the poison
                            // wakeup; normal progress comes from notify_all
                            let (guard, _) = cv
                                .wait_timeout(consumed, Duration::from_millis(50))
                                .unwrap_or_else(|e| e.into_inner());
                            consumed = guard;
                        }
                    }
                    if poisoned.load(Ordering::Relaxed) {
                        break;
                    }
                    let result = run_caught(run_point, &points[todo[pos]]);
                    if result.is_err() {
                        poisoned.store(true, Ordering::Relaxed);
                        gate.1.notify_all();
                    }
                    if sender.send((pos, result)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(sender);

        // the aggregator runs on the calling thread: consume any leading
        // resumed points, then fold in fresh results as they arrive
        let mut buffer: BTreeMap<usize, R> = BTreeMap::new();
        let mut orig_next = 0usize;
        let mut fresh_consumed = 0usize;
        let advance_ready = |orig_next: &mut usize,
                             fresh_consumed: &mut usize,
                             buffer: &mut BTreeMap<usize, R>,
                             resumed_map: &mut BTreeMap<usize, R>,
                             consume: &mut A,
                             resumed_count: &mut usize| {
            while *orig_next < points.len() {
                if let Some(result) = resumed_map.remove(orig_next) {
                    *resumed_count += 1;
                    consume(&points[*orig_next], result);
                    *orig_next += 1;
                    continue;
                }
                let pos = pos_of[orig_next];
                let Some(result) = buffer.remove(&pos) else {
                    break;
                };
                consume(&points[*orig_next], result);
                *orig_next += 1;
                *fresh_consumed += 1;
                let (lock, cv) = &gate;
                *lock.lock().unwrap_or_else(|e| e.into_inner()) = *fresh_consumed;
                cv.notify_all();
            }
        };
        advance_ready(
            &mut orig_next,
            &mut fresh_consumed,
            &mut buffer,
            &mut resumed_map,
            &mut consume,
            &mut resumed_count,
        );
        for (pos, result) in receiver.iter() {
            match result {
                Ok(result) => {
                    // checkpoint immediately — even out of order, and even
                    // after a failure elsewhere: finished work stays saved
                    let result = match &mut ckpt {
                        Some(c) if ckpt_error.is_none() => {
                            match c.append(&points[todo[pos]].key, result) {
                                Ok(result) => result,
                                Err(e) => {
                                    ckpt_error = Some(e);
                                    poisoned.store(true, Ordering::Relaxed);
                                    gate.1.notify_all();
                                    continue;
                                }
                            }
                        }
                        _ => result,
                    };
                    executed += 1;
                    buffer.insert(pos, result);
                }
                Err(message) => {
                    if failure.as_ref().is_none_or(|(p, _)| pos < *p) {
                        failure = Some((pos, message));
                    }
                }
            }
            advance_ready(
                &mut orig_next,
                &mut fresh_consumed,
                &mut buffer,
                &mut resumed_map,
                &mut consume,
                &mut resumed_count,
            );
            if let Some(m) = &metrics {
                let claimed = next.load(Ordering::Relaxed).min(todo.len());
                m.in_flight.set(claimed.saturating_sub(executed) as f64);
                m.checkpoint_lag.set(buffer.len() as f64);
            }
        }
    });

    finish_metrics(metrics.as_ref(), executed, resumed_count, started);
    if let Some(e) = ckpt_error {
        return Err(e);
    }
    if let Some((pos, message)) = failure {
        return Err(CampaignError::Point { key: points[todo[pos]].key.clone(), message });
    }
    Ok(CampaignSummary { total: points.len(), executed, resumed: resumed_count })
}

/// Final metric updates of a campaign run.
fn finish_metrics(
    metrics: Option<&CampaignMetrics>,
    executed: usize,
    resumed: usize,
    started: Instant,
) {
    let Some(m) = metrics else { return };
    m.executed.add(executed as u64);
    m.resumed.add(resumed as u64);
    m.in_flight.set(0.0);
    m.checkpoint_lag.set(0.0);
    let secs = started.elapsed().as_secs_f64();
    m.points_per_sec.set(if secs > 0.0 { executed as f64 / secs } else { 0.0 });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(n: usize) -> Vec<PointSpec<u64>> {
        (0..n).map(|i| PointSpec::new(format!("p{i}"), i as u64)).collect()
    }

    fn square(p: &PointSpec<u64>) -> Result<u64, String> {
        Ok(p.input * p.input)
    }

    fn collect(cfg: &CampaignConfig, n: usize) -> (Vec<(String, u64)>, CampaignSummary) {
        let mut out = Vec::new();
        let summary = run("squares", &specs(n), cfg, square, |p, r| {
            out.push((p.key.clone(), r));
        })
        .unwrap();
        (out, summary)
    }

    #[test]
    fn sequential_and_parallel_agree() {
        let (seq, s1) = collect(&CampaignConfig { jobs: 1, ..Default::default() }, 25);
        let (par, s2) = collect(&CampaignConfig { jobs: 4, window: 4, ..Default::default() }, 25);
        assert_eq!(seq, par);
        assert_eq!(s1.executed, 25);
        assert_eq!(s2.executed, 25);
        assert_eq!(s2.resumed, 0);
    }

    #[test]
    fn duplicate_keys_are_rejected() {
        let points = vec![PointSpec::new("same", 1u64), PointSpec::new("same", 2u64)];
        let err =
            run("dup", &points, &CampaignConfig::default(), square, |_, _: u64| {}).unwrap_err();
        assert!(matches!(err, CampaignError::DuplicateKey { .. }));
    }

    #[test]
    fn failing_point_cancels_and_reports_its_key() {
        let points = specs(40);
        let ran = AtomicUsize::new(0);
        let err = run(
            "fails",
            &points,
            &CampaignConfig { jobs: 4, window: 4, ..Default::default() },
            |p| {
                ran.fetch_add(1, Ordering::SeqCst);
                if p.input == 0 {
                    Err("boom".to_string())
                } else {
                    std::thread::sleep(Duration::from_millis(5));
                    Ok(p.input)
                }
            },
            |_, _: u64| {},
        )
        .unwrap_err();
        match err {
            CampaignError::Point { key, message } => {
                assert_eq!(key, "p0");
                assert_eq!(message, "boom");
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(ran.load(Ordering::SeqCst) < 40, "pool kept claiming points after the failure");
    }

    #[test]
    fn panicking_point_is_reported_not_propagated() {
        let points = specs(3);
        let err = run(
            "panics",
            &points,
            &CampaignConfig { jobs: 2, ..Default::default() },
            |p| {
                if p.input == 1 {
                    panic!("kapow");
                }
                Ok(p.input)
            },
            |_, _: u64| {},
        )
        .unwrap_err();
        match err {
            CampaignError::Point { message, .. } => assert!(message.contains("kapow")),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn manifest_round_trips_and_resume_skips_done_points() {
        let dir = std::env::temp_dir().join("wsan-campaign-roundtrip");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = dir.join("sq.manifest.jsonl");
        let cfg =
            CampaignConfig { jobs: 1, manifest: Some(manifest.clone()), ..Default::default() };
        let (first, s1) = collect(&cfg, 10);
        assert_eq!(s1.executed, 10);
        // resume over a complete manifest: nothing re-runs
        let cfg2 = CampaignConfig { resume: true, ..cfg };
        let mut out = Vec::new();
        let s2 = run(
            "squares",
            &specs(10),
            &cfg2,
            |_| -> Result<u64, String> { Err("must not re-run".into()) },
            |p, r| out.push((p.key.clone(), r)),
        )
        .unwrap();
        assert_eq!(s2.executed, 0);
        assert_eq!(s2.resumed, 10);
        assert_eq!(out, first);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn resume_refuses_a_foreign_manifest() {
        let dir = std::env::temp_dir().join("wsan-campaign-foreign");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = dir.join("m.manifest.jsonl");
        let cfg = CampaignConfig { jobs: 1, manifest: Some(manifest), ..Default::default() };
        collect(&cfg, 5);
        let cfg2 = CampaignConfig { resume: true, ..cfg };
        // same name, different point set → fingerprint mismatch
        let err = run("squares", &specs(6), &cfg2, square, |_, _: u64| {}).unwrap_err();
        assert!(matches!(err, CampaignError::Manifest { .. }), "got {err:?}");
        let _ = std::fs::remove_dir_all(std::env::temp_dir().join("wsan-campaign-foreign"));
    }

    #[test]
    fn truncated_manifest_line_just_reruns_that_point() {
        let dir = std::env::temp_dir().join("wsan-campaign-truncated");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = dir.join("m.manifest.jsonl");
        let cfg =
            CampaignConfig { jobs: 1, manifest: Some(manifest.clone()), ..Default::default() };
        let (full, _) = collect(&cfg, 6);
        // chop the final line in half, as a kill mid-write would
        let text = std::fs::read_to_string(&manifest).unwrap();
        let cut = text.trim_end().len() - 4;
        std::fs::write(&manifest, &text[..cut]).unwrap();
        let cfg2 = CampaignConfig { resume: true, ..cfg };
        let mut out = Vec::new();
        let summary = run("squares", &specs(6), &cfg2, square, |p, r| {
            out.push((p.key.clone(), r));
        })
        .unwrap();
        assert_eq!(summary.resumed, 5);
        assert_eq!(summary.executed, 1);
        assert_eq!(out, full);
        let _ = std::fs::remove_dir_all(dir);
    }
}
