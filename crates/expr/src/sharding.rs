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
use wsan_net::fnv::Fnv1a;
use wsan_net::parallel::{parallel_map_with, worker_count};
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
    /// Wall-clock of everything before stitching, nanoseconds: the plan,
    /// every per-shard problem build and every per-shard schedule. (The
    /// name is older than that split; reports on disk carry it.)
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
/// [`ShardedError`] when any stage fails. An `algorithm` that may reuse a
/// cell closer than `cfg.reuse_floor` (see [`Algorithm::reuse_floor`]),
/// or at all when the floor is `None`, is refused before planning with
/// [`ShardError::Config`]. `Invalid` means the pipeline itself is buggy
/// (the validator exists so that such a bug can never ship a schedule
/// silently).
pub fn schedule_sharded(
    plant: &Plant,
    channels: &ChannelSet,
    cfg: &ShardConfig,
    algorithm: &Algorithm,
    jobs: usize,
) -> Result<ShardedOutcome, ShardedError> {
    check_floor(algorithm, cfg.reuse_floor)?;
    let started = Instant::now();
    let plan = plan(plant, channels, cfg, jobs)?;
    let scheduler = algorithm.build();
    let sched_cfg = SchedulerConfig::default();
    // The shards already spread over the pool; give each shard's internal
    // distance extraction the workers left over so a one-shard run on a
    // big plant still uses every core without oversubscribing a
    // many-shard run.
    let inner_jobs = (worker_count(jobs) / cfg.shards.max(1)).max(1);
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

/// Refuses an algorithm that may reuse a cell closer than `reuse_floor`,
/// the floor the shard coloring and the stitched validator enforce: its
/// schedules could only fail validation.
fn check_floor(algorithm: &Algorithm, reuse_floor: Option<u32>) -> Result<(), ShardError> {
    let Some(rho) = algorithm.reuse_floor() else {
        return Ok(());
    };
    let reason = match reuse_floor {
        Some(floor) if rho >= floor => return Ok(()),
        Some(floor) => format!(
            "{algorithm} may reuse a cell at hop distance {rho}, below the reuse floor {floor}"
        ),
        None => format!(
            "{algorithm} may reuse a cell at hop distance {rho}, but the reuse floor allows none"
        ),
    };
    Err(ShardError::Config { reason })
}

/// FNV-1a digest over a schedule's dimensions and entries, in placement
/// order — equal digests ⇒ byte-identical schedules for all practical
/// purposes (used to pin `--jobs 1` vs `--jobs N` determinism).
pub fn schedule_digest(schedule: &Schedule) -> u64 {
    let mut h = Fnv1a::new();
    let mut eat = |v: u64| h.write(&v.to_le_bytes());
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
    h.finish()
}

fn elapsed_ns(from: Instant) -> u64 {
    u64::try_from(from.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsan_net::plants::{generate, PlantConfig};
    use wsan_net::propagation::PropagationModel;
    use wsan_net::{ChannelId, Prr};

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

    /// What a sharded run must end in.
    #[derive(Debug)]
    enum Expect {
        Config,
        Channels { colors: usize, channels: usize },
        Flows { shard: usize },
        Schedule { shard: usize },
        Valid { digest: u64 },
    }

    fn ends_as(result: &Result<ShardedOutcome, ShardedError>, expect: &Expect) -> bool {
        let Err(ShardedError::Shard(error)) = result else {
            return matches!((result, expect), (Ok(out), Expect::Valid { digest })
                if out.report.digest == *digest);
        };
        match (error, expect) {
            (ShardError::Config { .. }, Expect::Config) => true,
            (
                ShardError::Channels { colors, channels },
                Expect::Channels { colors: c, channels: m },
            ) => (colors, channels) == (c, m),
            (ShardError::Flows { shard, .. }, Expect::Flows { shard: s })
            | (ShardError::Schedule { shard, .. }, Expect::Schedule { shard: s }) => shard == s,
            _ => false,
        }
    }

    /// Adversarial configurations end in a typed error or a validated
    /// schedule, never a panic, at one worker and at two. The digests pin
    /// the schedules these configurations produced before algorithms were
    /// checked against the reuse floor.
    #[test]
    fn adversarial_shard_configs_end_in_pinned_outcomes() {
        let plant = generate(&PlantConfig::city("city-200", 200), 3);
        let n = plant.node_count();
        let (all, narrow) = (ChannelId::all(), ChannelId::range(11, 14).unwrap());
        let one = ChannelId::range(11, 11).unwrap();
        let rc = Algorithm::Rc { rho_t: 2 };
        let ra = Algorithm::Ra { rho: 2 };
        let base = |shards, flows| ShardConfig::new(shards, 1, flows);
        let floor = |reuse_floor| ShardConfig { reuse_floor, ..ShardConfig::new(2, 0, 30) };
        let prr = |t| ShardConfig { prr_t: Prr::new(t).unwrap(), ..base(2, 4) };
        let cases = [
            ("shards = nodes", &all, base(n, 1), rc, Expect::Channels { colors: 30, channels: 16 }),
            ("0 shards", &all, base(0, 4), rc, Expect::Config),
            ("nodes + 1 shards", &all, base(n + 1, 4), rc, Expect::Config),
            ("one channel", &one, base(2, 4), rc, Expect::Channels { colors: 2, channels: 1 }),
            ("prr_t 1.0", &all, prr(1.0), rc, Expect::Config),
            (
                "NR, 16 shards",
                &all,
                ShardConfig { reuse_floor: None, ..base(16, 4) },
                Algorithm::Nr,
                Expect::Flows { shard: 8 },
            ),
            ("500 flows, 2 shards", &all, base(2, 500), rc, Expect::Schedule { shard: 0 }),
            ("1 shard", &all, base(1, 4), rc, Expect::Valid { digest: 0xd259_5b93_44c1_5ea3 }),
            (
                "floor Some(0)",
                &all,
                ShardConfig { reuse_floor: Some(0), ..base(2, 4) },
                rc,
                Expect::Valid { digest: 0x407f_f3b4_05c0_480f },
            ),
            ("prr_t 0", &all, prr(0.0), rc, Expect::Valid { digest: 0x3938_e02e_c73b_053a }),
            // an algorithm reusing below the floor, or at all under NR
            ("RA 2, floor 3", &narrow, floor(Some(3)), ra, Expect::Config),
            ("RA 2, no reuse", &narrow, floor(None), ra, Expect::Config),
            ("RC 2, floor 3", &narrow, floor(Some(3)), rc, Expect::Config),
            // NR under any floor, and matched floors, run as before
            (
                "NR, floor 3",
                &narrow,
                floor(Some(3)),
                Algorithm::Nr,
                Expect::Valid { digest: 0x37dd_7b70_e08c_6bd3 },
            ),
            (
                "NR, no reuse",
                &narrow,
                floor(None),
                Algorithm::Nr,
                Expect::Valid { digest: 0x37dd_7b70_e08c_6bd3 },
            ),
            (
                "RA 2, floor 2",
                &narrow,
                floor(Some(2)),
                ra,
                Expect::Valid { digest: 0x15fc_671e_d647_8a7f },
            ),
        ];
        for (name, channels, cfg, algo, expect) in &cases {
            for jobs in [1, 2] {
                let result = schedule_sharded(&plant, channels, cfg, algo, jobs);
                assert!(
                    ends_as(&result, expect),
                    "{name}, jobs {jobs}: expected {expect:?}, got {:?}",
                    result.map(|out| out.report)
                );
            }
        }
    }

    /// An algorithm at or above the floor is accepted, and the refusal
    /// names the algorithm and both distances.
    #[test]
    fn floor_check_accepts_stricter_algorithms_and_explains_refusals() {
        assert!(check_floor(&Algorithm::Rc { rho_t: 3 }, Some(2)).is_ok());
        assert!(check_floor(&Algorithm::Nr, Some(5)).is_ok());
        assert!(check_floor(&Algorithm::Nr, None).is_ok());
        let err = check_floor(&Algorithm::RcLite { rho_t: 2 }, Some(3)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "shard configuration invalid: RC-lite may reuse a cell at hop distance 2, below the \
             reuse floor 3"
        );
        assert!(matches!(
            check_floor(&Algorithm::Ra { rho: 4 }, None),
            Err(ShardError::Config { .. })
        ));
    }
}
