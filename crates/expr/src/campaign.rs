//! Deterministic, resumable campaign engine.
//!
//! A *campaign* is an ordered list of independent sweep points. The engine
//! runs them on the workspace's worker pool
//! ([`wsan_net::parallel::parallel_for_each_ordered`]) and streams each
//! result — in the original point order — through a caller-supplied
//! aggregator, so the aggregate output of a parallel run is byte-identical
//! to a sequential one:
//!
//! * **Sharding**: workers claim points in order as they free up, so
//!   uneven point costs balance automatically. Each point's seeding is the
//!   caller's job — derive it from the point itself, never from the worker
//!   that happens to run it.
//! * **Bounded memory**: a worker claims a point only while fewer than
//!   `max(4 × jobs, 8)` fresh results wait to be consumed.
//! * **Checkpointing**: with a manifest path set, every finished point is
//!   appended to a JSONL manifest as soon as it finishes, through a
//!   [`wsan_net::linelog::LineLog`], which `fsync`s each line. The first
//!   line is a header naming the campaign's format version and
//!   fingerprint; every further line is one `[key, result]` pair. A later
//!   run with [`CampaignConfig::resume`] replays those results instead of
//!   recomputing them; a torn trailing line (killed mid-write), or any
//!   line that does not parse, is skipped and that point simply re-runs.
//!   [`drop_checkpoints`] rewrites a manifest without chosen checkpoints,
//!   atomically.
//! * **Cooperative cancellation**: the first failing point stops the pool;
//!   workers stop claiming, in-flight successes are still checkpointed (so
//!   the work is not lost), and the earliest failure is reported.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;
use wsan_net::fnv::Fnv1a;
use wsan_net::linelog::{self, Line, LineLog};
use wsan_net::parallel::{parallel_for_each_ordered, worker_count};

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
    let mut hash = Fnv1a::new();
    for part in std::iter::once(name).chain(points.iter().map(|p| p.key.as_str())) {
        hash.write(part.as_bytes());
        hash.write(b"\n");
    }
    hash.finish()
}

/// Open manifest handle used for appending checkpoints.
struct Checkpointer {
    log: LineLog,
    /// The first failed write. Nothing is written after it, and it is the
    /// run's error.
    failed: Option<CampaignError>,
}

impl Checkpointer {
    /// Durably appends one `(key, result)` line unless an earlier write
    /// failed. A failure is kept for the run's error; its message stops the
    /// pool.
    fn checkpoint<R: Serialize>(&mut self, key: &str, result: &R) -> Result<(), String> {
        if self.failed.is_some() {
            return Ok(());
        }
        let line = serde_json::to_string(&(key, result)).map_err(|e| CampaignError::Manifest {
            path: self.log.path().to_path_buf(),
            message: format!("cannot serialize point '{key}': {e}"),
        });
        let written =
            line.and_then(|line| self.log.append(line).map_err(io_error(self.log.path())));
        written.map_err(|e| {
            let message = e.to_string();
            self.failed = Some(e);
            message
        })
    }
}

fn io_error(path: &Path) -> impl FnOnce(std::io::Error) -> CampaignError + '_ {
    move |e| CampaignError::Io { path: path.to_path_buf(), message: e.to_string() }
}

/// A manifest line as `T`, or `None` when it is not UTF-8 JSON of that
/// shape.
fn parse_line<T: Deserialize>(line: &Line) -> Option<T> {
    serde_json::from_str(std::str::from_utf8(&line.bytes).ok()?).ok()
}

/// Parses a manifest's complete lines into `original index → result`,
/// matching lines by point key. Unparseable lines and unknown or repeated
/// keys are skipped — their points re-run.
fn load_manifest<R: Deserialize>(
    path: &Path,
    lines: &[Line],
    expect_fingerprint: u64,
    key_index: &BTreeMap<&str, usize>,
) -> Result<BTreeMap<usize, R>, CampaignError> {
    let header: ManifestHeader =
        lines.first().and_then(parse_line).ok_or_else(|| CampaignError::Manifest {
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
    for (key, result) in lines[1..].iter().filter_map(parse_line::<(String, R)>) {
        if let Some(&idx) = key_index.get(key.as_str()) {
            resumed.entry(idx).or_insert(result);
        }
    }
    Ok(resumed)
}

/// Prepares the manifest for this run: loads resumable results (when
/// `resume` is set and the file exists) and keeps the log open for
/// appending after them, or writes a fresh header when starting over.
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
    if cfg.resume {
        match LineLog::open(path) {
            Ok((log, lines)) => {
                let resumed = load_manifest(path, &lines, fp, key_index)?;
                return Ok((Some(Checkpointer { log, failed: None }), resumed));
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => return Err(io_error(path)(e)),
        }
    }
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(io_error(path))?;
        }
    }
    let header = ManifestHeader {
        format: MANIFEST_FORMAT.to_string(),
        version: MANIFEST_VERSION,
        campaign: name.to_string(),
        fingerprint: fp,
        points: points.len() as u64,
    };
    let line = serde_json::to_string(&header)
        .map_err(|e| CampaignError::Manifest { path: path.clone(), message: e.to_string() })?;
    let log = LineLog::create(path, line).map_err(io_error(path))?;
    Ok((Some(Checkpointer { log, failed: None }), BTreeMap::new()))
}

/// Rewrites the manifest at `path` without the checkpoints whose result
/// `drop` selects, so their points re-run on the next resume. The header
/// and every other complete line stay as they were; a torn tail goes. The
/// rewrite is atomic, and a missing manifest has nothing to drop. Returns
/// how many checkpoints were dropped.
///
/// # Errors
///
/// [`CampaignError::Io`] when the manifest cannot be read or rewritten.
pub fn drop_checkpoints<R: Deserialize>(
    path: &Path,
    drop: impl Fn(&R) -> bool,
) -> Result<usize, CampaignError> {
    let lines = match LineLog::open(path) {
        Ok((_, lines)) => lines,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(io_error(path)(e)),
    };
    let dropped = |line: &Line| parse_line::<(String, R)>(line).is_some_and(|(_, r)| drop(&r));
    let kept: Vec<&[u8]> = lines
        .iter()
        .enumerate()
        .filter(|&(i, line)| i == 0 || !dropped(line))
        .map(|(_, line)| line.bytes.as_slice())
        .collect();
    let count = lines.len() - kept.len();
    if count > 0 {
        linelog::rewrite(path, kept).map_err(io_error(path))?;
    }
    Ok(count)
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

/// Runs a campaign: executes every point of `points` not already
/// checkpointed, on `cfg.jobs` workers, streaming results through `consume`
/// in the original point order (resumed results included), and returns
/// what was done.
///
/// `consume` runs on the calling thread and sees exactly the same sequence
/// regardless of `cfg.jobs`, so any aggregate built from it is
/// bit-identical between sequential, parallel, and resumed runs.
///
/// # Errors
///
/// [`CampaignError::Point`] carries the earliest failing point (a panic
/// counts, with its message); manifest problems surface as
/// [`CampaignError::Io`] / [`CampaignError::Manifest`], and a failed
/// checkpoint write takes priority over a failed point.
///
/// # Panics
///
/// A panic in `consume` stops the workers and is re-raised.
pub fn run<I, R, F, A>(
    name: &str,
    points: &[PointSpec<I>],
    cfg: &CampaignConfig,
    run_point: F,
    consume: A,
) -> Result<CampaignSummary, CampaignError>
where
    I: Sync,
    R: Send + Serialize + Deserialize,
    F: Fn(&PointSpec<I>) -> Result<R, String> + Sync,
    A: FnMut(&PointSpec<I>, R),
{
    run_logged(name, points, cfg, |log| log, run_point, consume)
}

/// [`run`], with the manifest's log passed through `wrap` once it is open:
/// the seam through which a test fails a checkpoint.
fn run_logged<I, R, F, A>(
    name: &str,
    points: &[PointSpec<I>],
    cfg: &CampaignConfig,
    wrap: impl FnOnce(LineLog) -> LineLog,
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
    let (ckpt, resumed_map) = open_manifest::<I, R>(name, points, cfg, &key_index)?;
    let todo: Vec<usize> = (0..points.len()).filter(|i| !resumed_map.contains_key(i)).collect();
    let jobs = worker_count(cfg.jobs).min(todo.len().max(1));

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

    // a panic under this lock can only come from serializing a result,
    // before any byte of its line is written
    let ckpt = ckpt.map(|c| Mutex::new(Checkpointer { log: wrap(c.log), ..c }));
    let (claimed, executed) = (AtomicUsize::new(0), AtomicUsize::new(0));
    // runs on a worker; checkpoints in completion order, even after another
    // point failed, so finished work stays saved
    let run_fresh = |pos: usize| -> Result<R, String> {
        let point = &points[todo[pos]];
        claimed.fetch_add(1, Ordering::Relaxed);
        let result = run_point(point)?;
        if let Some(ckpt) = &ckpt {
            ckpt.lock().unwrap_or_else(PoisonError::into_inner).checkpoint(&point.key, &result)?;
        }
        executed.fetch_add(1, Ordering::Relaxed);
        Ok(result)
    };
    // runs on this thread: replays the resumed points before `end`, then
    // consumes the fresh result at `end`
    let mut resumed = resumed_map.into_iter().peekable();
    let (mut replayed, mut consumed) = (0usize, 0usize);
    let mut deliver = |end: usize, fresh: Option<R>| {
        while let Some((idx, result)) = resumed.next_if(|(idx, _)| *idx < end) {
            replayed += 1;
            consume(&points[idx], result);
        }
        if let Some(result) = fresh {
            consume(&points[end], result);
            consumed += 1;
            if let Some(m) = &metrics {
                let done = executed.load(Ordering::Relaxed);
                m.in_flight.set(claimed.load(Ordering::Relaxed).saturating_sub(done) as f64);
                m.checkpoint_lag.set((done - consumed) as f64);
            }
        }
    };
    let window = (jobs * 4).max(8);
    let outcome = parallel_for_each_ordered(todo.len(), jobs, window, run_fresh, |pos, result| {
        deliver(todo[pos], Some(result))
    });
    if outcome.is_ok() {
        deliver(points.len(), None);
    }

    let executed = executed.into_inner();
    if let Some(m) = &metrics {
        m.executed.add(executed as u64);
        m.resumed.add(replayed as u64);
        m.in_flight.set(0.0);
        m.checkpoint_lag.set(0.0);
        let secs = started.elapsed().as_secs_f64();
        m.points_per_sec.set(if secs > 0.0 { executed as f64 / secs } else { 0.0 });
    }
    if let Some(e) =
        ckpt.and_then(|c| c.into_inner().unwrap_or_else(PoisonError::into_inner).failed)
    {
        return Err(e);
    }
    outcome.map_err(|(pos, message)| CampaignError::Point {
        key: points[todo[pos]].key.clone(),
        message,
    })?;
    Ok(CampaignSummary { total: points.len(), executed, resumed: replayed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use wsan_net::linelog::{FailingFile, Fault};

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
        let (par, s2) = collect(&CampaignConfig { jobs: 4, ..Default::default() }, 25);
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
            &CampaignConfig { jobs: 4, ..Default::default() },
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
        // the re-run point's checkpoint replaced the torn line instead of
        // being glued onto it, so a second resume replays every point
        let mut again = Vec::new();
        let summary = run(
            "squares",
            &specs(6),
            &cfg2,
            |_| -> Result<u64, String> { Err("must not re-run".into()) },
            |p, r| again.push((p.key.clone(), r)),
        )
        .unwrap();
        assert_eq!((summary.executed, summary.resumed), (0, 6));
        assert_eq!(again, full);
        assert_eq!(std::fs::read_to_string(&manifest).unwrap().lines().count(), 7);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// The on-disk bytes of a manifest are its compatibility contract: a
    /// manifest written by one build must resume on another.
    #[test]
    fn a_six_point_manifest_keeps_its_exact_bytes() {
        let dir = std::env::temp_dir().join("wsan-campaign-pin");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = dir.join("m.manifest.jsonl");
        let cfg =
            CampaignConfig { jobs: 1, manifest: Some(manifest.clone()), ..Default::default() };
        collect(&cfg, 6);
        assert_eq!(
            std::fs::read_to_string(&manifest).unwrap(),
            concat!(
                r#"{"format":"wsan-campaign-manifest","version":1,"campaign":"squares","fingerprint":380079420831793498,"points":6}"#,
                "\n",
                r#"["p0",0]"#,
                "\n",
                r#"["p1",1]"#,
                "\n",
                r#"["p2",4]"#,
                "\n",
                r#"["p3",9]"#,
                "\n",
                r#"["p4",16]"#,
                "\n",
                r#"["p5",25]"#,
                "\n",
            )
        );
        let _ = std::fs::remove_dir_all(dir);
    }

    /// Truncating the manifest at every byte, as a crash could leave it:
    /// a cut inside the header is a typed error, and every other cut
    /// resumes the checkpoints it still holds whole, re-runs the rest, and
    /// hands the consumer the uninterrupted sequence.
    #[test]
    fn a_crash_at_any_byte_resumes_to_the_uninterrupted_sequence() {
        let dir = std::env::temp_dir().join("wsan-campaign-crash-sweep");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = dir.join("m.manifest.jsonl");
        let cfg =
            CampaignConfig { jobs: 1, manifest: Some(manifest.clone()), ..Default::default() };
        let (full, _) = collect(&cfg, 6);
        let bytes = std::fs::read(&manifest).unwrap();
        let header_end = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        let resume = CampaignConfig { resume: true, ..cfg };
        for cut in 0..=bytes.len() {
            std::fs::write(&manifest, &bytes[..cut]).unwrap();
            let mut out = Vec::new();
            let outcome = run("squares", &specs(6), &resume, square, |p, r| {
                out.push((p.key.clone(), r));
            });
            if cut < header_end {
                assert!(
                    matches!(outcome, Err(CampaignError::Manifest { .. })),
                    "cut {cut}: {outcome:?}"
                );
                continue;
            }
            let whole = bytes[..cut].iter().filter(|&&b| b == b'\n').count() - 1;
            let summary = outcome.unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert_eq!((summary.resumed, summary.executed), (whole, 6 - whole), "cut {cut}");
            assert_eq!(out, full, "cut {cut}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn dropped_checkpoints_re_run_on_resume() {
        let dir = std::env::temp_dir().join("wsan-campaign-drop");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = dir.join("m.manifest.jsonl");
        assert_eq!(drop_checkpoints(&manifest, |_: &u64| true), Ok(0));
        let cfg =
            CampaignConfig { jobs: 1, manifest: Some(manifest.clone()), ..Default::default() };
        let (full, _) = collect(&cfg, 6);
        let whole = std::fs::read_to_string(&manifest).unwrap();
        assert_eq!(drop_checkpoints(&manifest, |r: &u64| r % 2 == 1), Ok(3));
        // the header, then p0, p2 and p4
        let lines: Vec<&str> = whole.lines().collect();
        let kept: String = [0, 1, 3, 5].iter().flat_map(|&i| [lines[i], "\n"]).collect();
        assert_eq!(std::fs::read_to_string(&manifest).unwrap(), kept);
        let mut out = Vec::new();
        let resume = CampaignConfig { resume: true, ..cfg };
        let summary = run("squares", &specs(6), &resume, square, |p, r| {
            out.push((p.key.clone(), r));
        })
        .unwrap();
        assert_eq!((summary.resumed, summary.executed), (3, 3));
        assert_eq!(out, full);
        let _ = std::fs::remove_dir_all(dir);
    }

    /// A checkpoint whose write or sync fails stops the run with an I/O
    /// error and leaves no bytes of itself behind: a resume replays exactly
    /// the checkpoints written before it, runs the rest and ends with the
    /// uninterrupted run's manifest.
    #[test]
    fn a_failed_checkpoint_leaves_the_manifest_resumable() {
        let dir = std::env::temp_dir().join("wsan-campaign-failed-checkpoint");
        let _ = std::fs::remove_dir_all(&dir);
        let manifest = dir.join("m.manifest.jsonl");
        let cfg =
            CampaignConfig { jobs: 1, manifest: Some(manifest.clone()), ..Default::default() };
        let (full, _) = collect(&cfg, 6);
        let whole = std::fs::read(&manifest).unwrap();
        let ends: Vec<usize> =
            whole.iter().enumerate().filter(|&(_, &b)| b == b'\n').map(|(i, _)| i + 1).collect();
        // the header and the checkpoints of p0 and p1
        let (kept, p0_p1) = (ends[2], (ends[2] - ends[0]) as u64);
        // p0 and p1 land, then p2 fails part-way through its write, or at
        // its sync
        for fault in [Fault::WriteAfter(p0_p1 + 3), Fault::SyncAfter(2)] {
            let wrap = |log: LineLog| log.map_file(|f| Box::new(FailingFile::new(f, fault, false)));
            let err = run_logged("squares", &specs(6), &cfg, wrap, square, |_, _| {}).unwrap_err();
            assert!(matches!(err, CampaignError::Io { .. }), "{fault:?}: {err}");
            assert_eq!(std::fs::read(&manifest).unwrap(), whole[..kept], "{fault:?}");
            let resume = CampaignConfig { resume: true, ..cfg.clone() };
            let mut out = Vec::new();
            let summary = run("squares", &specs(6), &resume, square, |p, r| {
                out.push((p.key.clone(), r));
            })
            .unwrap();
            assert_eq!((summary.resumed, summary.executed), (2, 4), "{fault:?}");
            assert_eq!(out, full, "{fault:?}");
            assert_eq!(std::fs::read(&manifest).unwrap(), whole, "{fault:?}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn panicking_consumer_is_re_raised_not_hung() {
        // Run from a spawned thread so that a hang fails this test instead
        // of the suite.
        let (done, outcome) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let raised = std::panic::catch_unwind(|| {
                let cfg = CampaignConfig { jobs: 2, ..Default::default() };
                run("consumer-panics", &specs(40), &cfg, square, |_, _: u64| {
                    panic!("consumer exploded")
                })
            });
            let _ = done.send(raised.is_err());
        });
        assert_eq!(
            outcome.recv_timeout(Duration::from_secs(10)),
            Ok(true),
            "the consumer's panic must be re-raised within 10 s"
        );
    }
}
