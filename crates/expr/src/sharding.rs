//! Parallel multi-gateway sharded scheduling.
//!
//! `wsan_core::shard` provides the pure pieces — partition, per-shard
//! problem construction, stitching, whole-network validation. This module
//! drives them: the per-shard schedule jobs fan out over
//! [`wsan_net::parallel::parallel_map_with`], whose results come back in
//! shard order, so a city-scale plant schedules on all cores and still
//! produces a byte-identical stitched schedule — or the same typed error —
//! for `--jobs 1` and `--jobs N`.

use crate::Algorithm;
use serde::{Deserialize, Serialize};
use std::time::Instant;
use wsan_core::shard::{
    build_problem, plan, schedule_shard, stitch, validate_stitched, ShardConfig, ShardError,
    ShardPart, ShardPlan,
};
use wsan_core::{Schedule, SchedulerConfig};
use wsan_net::parallel::parallel_map_with;
use wsan_net::plants::Plant;
use wsan_net::ChannelSet;

/// Why a sharded run failed.
#[derive(Debug)]
#[non_exhaustive]
pub enum ShardedError {
    /// Partitioning, flow generation, scheduling, or stitching failed.
    Shard(ShardError),
    /// The stitched schedule failed whole-network validation — a bug in
    /// the partition/coloring/stitch pipeline, never expected in a release.
    Invalid {
        /// Number of interference violations found.
        violations: usize,
    },
}

impl std::fmt::Display for ShardedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardedError::Shard(e) => write!(f, "{e}"),
            ShardedError::Invalid { violations } => {
                write!(f, "stitched schedule failed validation with {violations} violation(s)")
            }
        }
    }
}

impl std::error::Error for ShardedError {}

impl From<ShardError> for ShardedError {
    fn from(e: ShardError) -> Self {
        ShardedError::Shard(e)
    }
}

/// Measured outcome of one sharded scheduling run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardedReport {
    /// Plant name.
    pub plant: String,
    /// Nodes in the plant.
    pub nodes: usize,
    /// Shards (= gateways) the plant was partitioned into.
    pub shards: usize,
    /// Spectrum colors the shard conflict graph needed.
    pub colors: usize,
    /// Total flows scheduled across all shards.
    pub flows: usize,
    /// Entries in the stitched whole-network schedule.
    pub entries: usize,
    /// Stitched hyperperiod in slots.
    pub horizon: u32,
    /// FNV-1a digest of the stitched schedule (determinism pin).
    pub digest: u64,
    /// Wall-clock of the parallel partition+schedule phase, nanoseconds.
    pub schedule_ns: u64,
    /// Wall-clock of stitching, nanoseconds.
    pub stitch_ns: u64,
    /// Wall-clock of whole-network validation, nanoseconds.
    pub validate_ns: u64,
}

/// A stitched whole-network schedule plus its plan and measurements.
#[derive(Debug)]
pub struct ShardedOutcome {
    /// The validated whole-network schedule.
    pub schedule: Schedule,
    /// The partition and spectrum plan that produced it.
    pub plan: ShardPlan,
    /// Timings and shape.
    pub report: ShardedReport,
}

/// Partitions `plant` into `cfg.shards` gateway shards, schedules every
/// shard with `algorithm` on `jobs` workers, stitches the results, and
/// validates the stitched schedule against the whole plant.
///
/// Deterministic in `(plant, channels, cfg, algorithm)`: the stitched
/// schedule (and its `digest`) is byte-identical for any `jobs`.
///
/// # Errors
///
/// [`ShardedError`] when any stage fails; `Invalid` in particular means
/// the pipeline itself is buggy (the validator exists so that such a bug
/// can never ship a schedule silently).
pub fn schedule_sharded(
    plant: &Plant,
    channels: &ChannelSet,
    cfg: &ShardConfig,
    algorithm: &Algorithm,
    jobs: usize,
) -> Result<ShardedOutcome, ShardedError> {
    let started = Instant::now();
    let plan = plan(plant, channels, cfg, jobs)?;
    let scheduler = algorithm.build();
    let sched_cfg = SchedulerConfig::default();
    // The shards already spread over the pool; give each shard's internal
    // distance extraction the workers left over so a one-shard run on a
    // big plant still uses every core without oversubscribing a
    // many-shard run.
    let effective = if jobs == 0 {
        std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
    } else {
        jobs
    };
    let inner_jobs = (effective / cfg.shards.max(1)).max(1);
    // In shard order, so the first failing shard by index is reported
    // whatever the worker count.
    let parts = parallel_map_with(cfg.shards, jobs, |shard| {
        let problem = build_problem(plant, channels, &plan, cfg, shard, inner_jobs)?;
        let schedule = schedule_shard(&problem, scheduler.as_ref(), &sched_cfg)?;
        Ok(ShardPart {
            shard,
            flow_count: problem.flows.len(),
            local_to_global: problem.local_to_global,
            offset_base: problem.offset_base,
            schedule,
        })
    })
    .into_iter()
    .collect::<Result<Vec<ShardPart>, ShardError>>()?;
    let schedule_ns = elapsed_ns(started);

    let stitch_started = Instant::now();
    let schedule = stitch(plant.node_count(), channels.len(), &parts)?;
    let stitch_ns = elapsed_ns(stitch_started);

    let validate_started = Instant::now();
    validate_stitched(plant, channels, cfg.reuse_floor, &schedule)
        .map_err(|v| ShardedError::Invalid { violations: v.len() })?;
    let validate_ns = elapsed_ns(validate_started);

    let report = ShardedReport {
        plant: plant.name().to_string(),
        nodes: plant.node_count(),
        shards: cfg.shards,
        colors: plan.color_count,
        flows: parts.iter().map(|p| p.flow_count).sum(),
        entries: schedule.entry_count(),
        horizon: schedule.horizon(),
        digest: schedule_digest(&schedule),
        schedule_ns,
        stitch_ns,
        validate_ns,
    };
    Ok(ShardedOutcome { schedule, plan, report })
}

/// FNV-1a digest over a schedule's dimensions and entries, in placement
/// order — equal digests ⇒ byte-identical schedules for all practical
/// purposes (used to pin `--jobs 1` vs `--jobs N` determinism).
pub fn schedule_digest(schedule: &Schedule) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(u64::from(schedule.horizon()));
    eat(schedule.channel_count() as u64);
    eat(schedule.node_count() as u64);
    for entry in schedule.entries() {
        eat(u64::from(entry.slot));
        eat(entry.offset as u64);
        eat(entry.tx.flow.index() as u64);
        eat(u64::from(entry.tx.job_index));
        eat(entry.tx.link.tx.index() as u64);
        eat(entry.tx.link.rx.index() as u64);
        eat(u64::from(entry.tx.seq));
        eat(u64::from(entry.tx.attempt));
    }
    h
}

fn elapsed_ns(from: Instant) -> u64 {
    u64::try_from(from.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsan_net::plants::{generate, PlantConfig};
    use wsan_net::propagation::PropagationModel;
    use wsan_net::ChannelId;

    fn small_plant() -> Plant {
        let cfg = PlantConfig {
            name: "sharding-test".to_string(),
            buildings_x: 2,
            buildings_y: 2,
            floors: 2,
            nodes_per_floor: 10,
            building_width_m: 40.0,
            building_depth_m: 20.0,
            street_gap_m: 12.0,
            model: PropagationModel::default(),
            channel_offset_sigma_db: 1.5,
        };
        generate(&cfg, 3)
    }

    #[test]
    fn sharded_schedule_is_identical_across_job_counts() {
        let plant = small_plant();
        let channels = ChannelId::all();
        let cfg = ShardConfig::new(3, 11, 4);
        let algo = Algorithm::Rc { rho_t: 2 };
        let seq = schedule_sharded(&plant, &channels, &cfg, &algo, 1).unwrap();
        let par = schedule_sharded(&plant, &channels, &cfg, &algo, 4).unwrap();
        assert_eq!(seq.schedule, par.schedule);
        assert_eq!(seq.report.digest, par.report.digest);
        assert_eq!(seq.plan, par.plan);
        assert!(seq.report.entries > 0);
        assert_eq!(seq.report.shards, 3);
    }

    #[test]
    fn unschedulable_shard_is_a_typed_error_at_any_job_count() {
        // NR on two channels cannot fit 40 flows in a 200-node shard
        let plant = generate(&PlantConfig::city("city-200", 200), 3);
        let channels = ChannelId::range(11, 12).unwrap();
        let cfg = ShardConfig { reuse_floor: None, ..ShardConfig::new(2, 5, 40) };
        for jobs in [1, 2] {
            let err = schedule_sharded(&plant, &channels, &cfg, &Algorithm::Nr, jobs).unwrap_err();
            assert!(
                matches!(err, ShardedError::Shard(ShardError::Schedule { shard: 0, .. })),
                "jobs {jobs}: {err:?}"
            );
        }
    }

    #[test]
    fn sharded_run_validates_and_reports_shape() {
        let plant = small_plant();
        let channels = ChannelId::all();
        let cfg = ShardConfig::new(2, 5, 4);
        let out = schedule_sharded(&plant, &channels, &cfg, &Algorithm::Nr, 2).unwrap();
        assert_eq!(out.report.nodes, plant.node_count());
        assert_eq!(out.report.flows, 8);
        assert!(out.report.colors >= 1);
        assert_eq!(out.schedule.node_count(), plant.node_count());
    }
}
