//! Named catalog of the paper's sweeps as campaign-engine point lists.
//!
//! Each entry decomposes one evaluation (Figs. 1–6, 8–11, fault sweep)
//! into independent [`PointSpec`]s whose seeds derive from the point — not
//! from the worker that runs it — and aggregates the streamed results back
//! into the same shapes the figure binaries print. The figure binaries and
//! the `wsan campaign` subcommand both route through here, so a sweep can
//! be sharded over cores, interrupted, and resumed identically everywhere.

use crate::campaign::{run, CampaignConfig, CampaignError, CampaignSummary, PointSpec};
use crate::schedulable::{ratio_at, RatioPoint, WorkloadConfig};
use crate::{detection, efficiency, exectime, recovery, reliability, table, Algorithm};
use serde::{Deserialize, Serialize};
use wsan_flow::{FlowSetConfig, FlowSetGenerator, PeriodRange, TrafficPattern};
use wsan_net::{testbeds, ChannelId, Prr, Topology};

/// Every campaign the catalog knows, in `run_named` dispatch order.
pub const NAMES: &[&str] = &[
    "smoke",
    "schedulable",
    "efficiency",
    "exectime",
    "reliability",
    "detection",
    "faults",
    "churn",
    "scale",
];

/// Scale knobs shared by every catalog campaign (mirrors the figure
/// binaries' `--sets/--seed/--quick`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepOptions {
    /// Flow sets (or repetitions) per configuration point; `0` selects the
    /// campaign's paper-scale default.
    pub sets: usize,
    /// Base seed.
    pub seed: u64,
    /// Quick mode: shrink the heaviest dimensions (and cap `sets` at 10).
    pub quick: bool,
}

impl Default for SweepOptions {
    fn default() -> Self {
        SweepOptions { sets: 0, seed: 1, quick: false }
    }
}

impl SweepOptions {
    /// Effective per-point set count given the campaign's default.
    fn sets_or(&self, default: usize) -> usize {
        let sets = if self.sets == 0 { default } else { self.sets };
        if self.quick {
            sets.min(10)
        } else {
            sets
        }
    }
}

/// Aggregate JSON plus the run's execution summary.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Pretty-printed aggregate, byte-identical for sequential, parallel,
    /// and resumed runs of the same campaign at the same seed.
    pub json: String,
    /// What the engine executed vs. replayed.
    pub summary: CampaignSummary,
}

/// Runs a catalog campaign by name and serializes its aggregate.
///
/// # Errors
///
/// [`CampaignError::UnknownCampaign`] for names outside [`NAMES`];
/// otherwise whatever the engine reports.
pub fn run_named(
    name: &str,
    opts: &SweepOptions,
    cfg: &CampaignConfig,
) -> Result<CampaignOutcome, CampaignError> {
    fn outcome<T: Serialize>(
        (value, summary): (T, CampaignSummary),
    ) -> Result<CampaignOutcome, CampaignError> {
        let json = table::to_json_pretty(&value)
            .map_err(|e| CampaignError::Aggregate { message: e.to_string() })?;
        Ok(CampaignOutcome { json, summary })
    }
    match name {
        "smoke" => outcome(smoke(opts, cfg)?),
        "schedulable" => outcome(schedulable(opts, cfg)?),
        "efficiency" => outcome(efficiency_rows(opts, cfg)?),
        "exectime" => outcome(exectime_points(opts, cfg)?),
        "reliability" => outcome(reliability_sets(opts, cfg)?),
        "detection" => outcome(detection_runs(opts, cfg)?),
        "faults" => outcome(faults(opts, cfg)?),
        "churn" => outcome(churn(opts, cfg)?),
        "scale" => outcome(scale(opts, cfg)?),
        other => Err(CampaignError::UnknownCampaign { name: other.to_string() }),
    }
}

/// Gateway flow-churn episodes: each point runs a seeded
/// admit/remove/re-rate/retire stream against an online RC gateway and
/// fails hard if any post-operation schedule differs from a fresh
/// recompute of the same flow set (see [`crate::churn`]).
pub fn churn(
    opts: &SweepOptions,
    cfg: &CampaignConfig,
) -> Result<(Vec<crate::churn::ChurnRecord>, CampaignSummary), CampaignError> {
    let sets = opts.sets_or(8);
    let ops = if opts.quick { 25 } else { 60 };
    let points: Vec<PointSpec<crate::churn::ChurnConfig>> = (0..sets)
        .map(|i| {
            let seed = opts.seed.wrapping_add(i as u64);
            PointSpec::new(format!("s{seed}"), crate::churn::ChurnConfig { ops, seed, rho_t: 2 })
        })
        .collect();
    let mut out = Vec::new();
    let summary = run(
        "churn",
        &points,
        cfg,
        |p| {
            let rec = crate::churn::episode(&p.input);
            if rec.oracle_mismatches > 0 {
                return Err(format!(
                    "{} delta/oracle mismatch(es) at seed {}",
                    rec.oracle_mismatches, rec.seed
                ));
            }
            Ok(rec)
        },
        |_, r| out.push(r),
    )?;
    Ok((out, summary))
}

/// A tiny three-point schedulability sweep on the small WUSTL topology —
/// seconds, not minutes — used by the golden-digest tests and the CI
/// interrupt/resume smoke.
pub fn smoke(
    opts: &SweepOptions,
    cfg: &CampaignConfig,
) -> Result<(Vec<RatioPoint>, CampaignSummary), CampaignError> {
    let topo = testbeds::wustl(2);
    let wl = WorkloadConfig {
        flow_sets: opts.sets_or(4),
        seed: opts.seed,
        ..WorkloadConfig::new(
            8,
            PeriodRange::new(0, 2).expect("constant range is valid"),
            TrafficPattern::PeerToPeer,
        )
    };
    let points: Vec<PointSpec<usize>> =
        [3usize, 4, 5].iter().map(|&m| PointSpec::new(format!("m{m}"), m)).collect();
    let mut out = Vec::new();
    let summary = run(
        "smoke",
        &points,
        cfg,
        |p| {
            Ok(RatioPoint {
                x: p.input,
                ratios: ratio_at(&topo, p.input, &Algorithm::paper_suite(), &wl)
                    .into_iter()
                    .map(|(a, r)| (a.to_string(), r))
                    .collect(),
            })
        },
        |_, r| out.push(r),
    )?;
    Ok((out, summary))
}

/// One series of schedulable-ratio points (one figure panel).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PanelSeries {
    /// Panel name (`fig1a` … `fig3b`).
    pub panel: String,
    /// Human-readable description of the panel's configuration.
    pub title: String,
    /// The swept axis's label (`#ch` or `#flows`).
    pub x_label: String,
    /// Ratio points in sweep order.
    pub points: Vec<RatioPoint>,
}

/// What one schedulable-ratio point evaluates: `m` channels on `topo` with
/// the point's workload; `x` is the panel's swept-axis value.
struct SchedInput<'a> {
    panel: &'static str,
    topo: &'a Topology,
    m: usize,
    x: usize,
    workload: WorkloadConfig,
}

/// How one figure panel sweeps: channel panels vary `m` at a fixed flow
/// count, flow panels vary the flow count at fixed `m`.
enum PanelSweep {
    Channels { flows: usize },
    Flows { m: usize, counts: &'static [usize] },
}

/// Figures 1–3: the eight schedulable-ratio panels as one campaign, one
/// point per (panel, x value).
pub fn schedulable(
    opts: &SweepOptions,
    cfg: &CampaignConfig,
) -> Result<(Vec<PanelSeries>, CampaignSummary), CampaignError> {
    let indriya = testbeds::indriya(1);
    let wustl = testbeds::wustl(1);
    let p_short = PeriodRange::new(0, 2).expect("constant range is valid");
    let p_wide = PeriodRange::new(-1, 3).expect("constant range is valid");
    let cen = TrafficPattern::Centralized;
    let p2p = TrafficPattern::PeerToPeer;
    let sets = opts.sets_or(100);
    let channel_counts: &[usize] = &[3, 4, 5, 6, 7, 8];

    type PanelDef<'a> = (&'static str, &'a Topology, TrafficPattern, PeriodRange, PanelSweep);
    let defs: Vec<PanelDef<'_>> = vec![
        ("fig1a", &indriya, cen, p_short, PanelSweep::Channels { flows: 60 }),
        ("fig1b", &indriya, cen, p_wide, PanelSweep::Channels { flows: 55 }),
        (
            "fig1c",
            &indriya,
            cen,
            p_short,
            PanelSweep::Flows { m: 4, counts: &[30, 40, 50, 60, 70, 80] },
        ),
        ("fig2a", &indriya, p2p, p_short, PanelSweep::Channels { flows: 90 }),
        ("fig2b", &indriya, p2p, p_wide, PanelSweep::Channels { flows: 100 }),
        (
            "fig2c",
            &indriya,
            p2p,
            p_short,
            PanelSweep::Flows { m: 4, counts: &[40, 60, 80, 100, 120, 140] },
        ),
        ("fig3a", &wustl, p2p, p_short, PanelSweep::Channels { flows: 130 }),
        (
            "fig3b",
            &wustl,
            p2p,
            p_short,
            PanelSweep::Flows { m: 4, counts: &[60, 90, 120, 150, 180] },
        ),
    ];

    let mut panels: Vec<PanelSeries> = Vec::new();
    let mut points: Vec<PointSpec<SchedInput<'_>>> = Vec::new();
    for (name, topo, pattern, periods, sweep) in &defs {
        let wl = |flows: usize| WorkloadConfig {
            flow_sets: sets,
            seed: opts.seed,
            ..WorkloadConfig::new(flows, *periods, *pattern)
        };
        let (title, x_label) = match sweep {
            PanelSweep::Channels { flows } => (
                format!(
                    "{name}: {flows} flows, {pattern:?}, P={periods}, topology {}",
                    topo.name()
                ),
                "#ch",
            ),
            PanelSweep::Flows { m, .. } => (
                format!("{name}: {m} channels, {pattern:?}, P={periods}, topology {}", topo.name()),
                "#flows",
            ),
        };
        panels.push(PanelSeries {
            panel: name.to_string(),
            title,
            x_label: x_label.to_string(),
            points: Vec::new(),
        });
        match sweep {
            PanelSweep::Channels { flows } => {
                for &m in channel_counts {
                    points.push(PointSpec::new(
                        format!("{name}/m{m}"),
                        SchedInput { panel: name, topo, m, x: m, workload: wl(*flows) },
                    ));
                }
            }
            PanelSweep::Flows { m, counts } => {
                for &n in *counts {
                    points.push(PointSpec::new(
                        format!("{name}/n{n}"),
                        SchedInput { panel: name, topo, m: *m, x: n, workload: wl(n) },
                    ));
                }
            }
        }
    }

    let summary = run(
        "schedulable",
        &points,
        cfg,
        |p| {
            Ok(RatioPoint {
                x: p.input.x,
                ratios: ratio_at(
                    p.input.topo,
                    p.input.m,
                    &Algorithm::paper_suite(),
                    &p.input.workload,
                )
                .into_iter()
                .map(|(a, r)| (a.to_string(), r))
                .collect(),
            })
        },
        |p, r| {
            if let Some(series) = panels.iter_mut().find(|s| s.panel == p.input.panel) {
                series.points.push(r);
            }
        },
    )?;
    Ok((panels, summary))
}

/// One (pattern, channel count, algorithm) efficiency row of Figs. 4–5.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EfficiencyRow {
    /// Traffic pattern of the workload.
    pub pattern: String,
    /// Channel count used.
    pub channels: usize,
    /// Algorithm measured.
    pub algorithm: String,
    /// Flow sets that were schedulable (and therefore counted).
    pub schedulable_sets: usize,
    /// Proportions for 1, 2, 3, 4+ transmissions per channel.
    pub tx_per_channel: Vec<f64>,
    /// Proportions for reuse hop counts 2, 3, 4+ (index 0 ↔ 2 hops).
    pub reuse_hops: Vec<f64>,
}

/// Figures 4–5: Tx/channel and reuse hop-count distributions, one point
/// per (pattern, channel count), flattened into rows.
pub fn efficiency_rows(
    opts: &SweepOptions,
    cfg: &CampaignConfig,
) -> Result<(Vec<EfficiencyRow>, CampaignSummary), CampaignError> {
    let topo = testbeds::indriya(1);
    let algos = [Algorithm::Ra { rho: 2 }, Algorithm::Rc { rho_t: 2 }];
    let sets = opts.sets_or(100);
    let mut points = Vec::new();
    for (pattern, flows) in [(TrafficPattern::Centralized, 16), (TrafficPattern::PeerToPeer, 60)] {
        for m in [3usize, 4, 5, 6, 7, 8] {
            points.push(PointSpec::new(format!("{pattern:?}/m{m}"), (pattern, flows, m)));
        }
    }
    let mut rows = Vec::new();
    let summary = run(
        "efficiency",
        &points,
        cfg,
        |p| {
            let (pattern, flows, m) = p.input;
            let wl = WorkloadConfig {
                flow_sets: sets,
                seed: opts.seed,
                ..WorkloadConfig::new(
                    flows,
                    PeriodRange::new(0, 2).expect("constant range is valid"),
                    pattern,
                )
            };
            Ok(efficiency::evaluate(&topo, m, &algos, &wl)
                .into_iter()
                .map(|result| {
                    let tx = result.metrics.tx_per_channel.proportions_with_tail(4);
                    let hop_hist = &result.metrics.reuse_hop_count;
                    let reuse_hops = if hop_hist.total() == 0 {
                        vec![0.0; 3]
                    } else {
                        let h = hop_hist.proportions_with_tail(4);
                        vec![h[2], h[3], h[4]]
                    };
                    EfficiencyRow {
                        pattern: format!("{pattern:?}"),
                        channels: m,
                        algorithm: result.algorithm.to_string(),
                        schedulable_sets: result.schedulable_sets,
                        tx_per_channel: tx[1..].to_vec(),
                        reuse_hops,
                    }
                })
                .collect::<Vec<_>>())
        },
        |_, r: Vec<EfficiencyRow>| rows.extend(r),
    )?;
    Ok((rows, summary))
}

/// Figure 6: scheduler execution time, one point per flow count.
pub fn exectime_points(
    opts: &SweepOptions,
    cfg: &CampaignConfig,
) -> Result<(Vec<exectime::TimingPoint>, CampaignSummary), CampaignError> {
    let topo = testbeds::indriya(1);
    let wl = WorkloadConfig {
        flow_sets: opts.sets_or(20),
        seed: opts.seed,
        ..WorkloadConfig::new(
            0,
            PeriodRange::new(0, 2).expect("constant range is valid"),
            TrafficPattern::PeerToPeer,
        )
    };
    let points: Vec<PointSpec<usize>> = [40usize, 60, 80, 100, 120, 140, 160]
        .iter()
        .map(|&n| PointSpec::new(format!("n{n}"), n))
        .collect();
    let mut out = Vec::new();
    let summary = run(
        "exectime",
        &points,
        cfg,
        |p| {
            exectime::measure(&topo, 5, &[p.input], &Algorithm::paper_suite(), &wl)
                .into_iter()
                .next()
                .ok_or_else(|| "no timing point produced".to_string())
        },
        |_, r| out.push(r),
    )?;
    Ok((out, summary))
}

/// Figures 8–9: network reliability, one point per flow set.
pub fn reliability_sets(
    opts: &SweepOptions,
    cfg: &CampaignConfig,
) -> Result<(Vec<reliability::FlowSetReliability>, CampaignSummary), CampaignError> {
    let topo = testbeds::wustl(1);
    let channels = ChannelId::range(11, 14).expect("2.4 GHz channels");
    let rel = reliability::ReliabilityConfig {
        flow_sets: opts.sets_or(5),
        flow_count: if opts.quick { 25 } else { 50 },
        repetitions: if opts.quick { 30 } else { 100 },
        seed: opts.seed,
        ..reliability::ReliabilityConfig::default()
    };
    let points: Vec<PointSpec<usize>> =
        (0..rel.flow_sets).map(|i| PointSpec::new(format!("set{i}"), i)).collect();
    let mut out = Vec::new();
    let summary = run(
        "reliability",
        &points,
        cfg,
        |p| reliability::evaluate_set(&topo, &channels, &Algorithm::paper_suite(), &rel, p.input),
        |_, r| out.push(r),
    )?;
    Ok((out, summary))
}

/// Figures 10–11: reuse-degradation detection, one point per algorithm.
pub fn detection_runs(
    opts: &SweepOptions,
    cfg: &CampaignConfig,
) -> Result<(Vec<detection::DetectionRun>, CampaignSummary), CampaignError> {
    let topo = testbeds::wustl(1);
    let channels = ChannelId::range(11, 14).expect("2.4 GHz channels");
    let det = detection::DetectionConfig {
        epochs: if opts.quick { 2 } else { 6 },
        window_reps: if opts.quick { 5 } else { 10 },
        flow_count: if opts.quick { 60 } else { 110 },
        seed: opts.seed,
        ..detection::DetectionConfig::default()
    };
    let algos = [Algorithm::Ra { rho: 2 }, Algorithm::Rc { rho_t: 2 }];
    let points: Vec<PointSpec<Algorithm>> =
        algos.iter().map(|&a| PointSpec::new(a.to_string(), a)).collect();
    let mut out = Vec::new();
    let summary = run(
        "detection",
        &points,
        cfg,
        |p| detection::evaluate_algo(&topo, &channels, p.input, &det),
        |_, r| out.extend(r),
    )?;
    Ok((out, summary))
}

/// What one fault-sweep point computed: the fault-free baseline for a
/// `…/baseline` point, one intensity outcome otherwise. `skipped` carries
/// the scheduler's error when the algorithm cannot schedule the workload
/// at all (matching the figure binary, which skips such algorithms instead
/// of failing the whole sweep).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPointOutcome {
    /// Why the point was skipped, if it was.
    pub skipped: Option<String>,
    /// Fault-free network PDR (baseline points only).
    pub baseline_pdr: Option<f64>,
    /// The intensity outcome (intensity points only).
    pub point: Option<recovery::CampaignPoint>,
}

/// What one fault-sweep point evaluates.
enum FaultKind {
    Baseline,
    Intensity(usize),
}

/// The fault-intensity sweep, one point per (algorithm, intensity) plus a
/// baseline point per algorithm.
pub fn faults(
    opts: &SweepOptions,
    cfg: &CampaignConfig,
) -> Result<(Vec<recovery::CampaignResult>, CampaignSummary), CampaignError> {
    let topo = testbeds::wustl(1);
    let channels = ChannelId::range(11, 14).expect("2.4 GHz channels");
    let comm = topo.comm_graph(&channels, Prr::new(0.9).expect("0.9 is a valid PRR"));
    let flow_count = if opts.quick { 30 } else { 60 };
    let fsc = FlowSetConfig::new(
        flow_count,
        PeriodRange::new(0, 0).expect("constant range is valid"),
        TrafficPattern::PeerToPeer,
    );
    let set = FlowSetGenerator::new(opts.seed)
        .generate(&comm, &fsc)
        .map_err(|e| CampaignError::Aggregate { message: format!("workload generation: {e}") })?;
    let sup = recovery::SupervisorConfig {
        seed: opts.seed,
        epochs: if opts.quick { 3 } else { 6 },
        samples_per_epoch: if opts.quick { 6 } else { 12 },
        window_reps: if opts.quick { 3 } else { 5 },
        ..recovery::SupervisorConfig::default()
    };
    let intensities: &[usize] = if opts.quick { &[0, 1, 2, 4] } else { &[0, 1, 2, 4, 8, 12] };

    let mut points: Vec<PointSpec<(Algorithm, FaultKind)>> = Vec::new();
    for algo in [Algorithm::Nr, Algorithm::Rc { rho_t: 2 }] {
        points.push(PointSpec::new(format!("{algo}/baseline"), (algo, FaultKind::Baseline)));
        for &k in intensities {
            points.push(PointSpec::new(format!("{algo}/k{k}"), (algo, FaultKind::Intensity(k))));
        }
    }
    let mut results: Vec<recovery::CampaignResult> = Vec::new();
    let summary = run(
        "faults",
        &points,
        cfg,
        |p| {
            let (algo, kind) = &p.input;
            let computed = match kind {
                FaultKind::Baseline => {
                    recovery::baseline_pdr(&topo, &channels, &set, *algo, &sup).map(|pdr| {
                        FaultPointOutcome { skipped: None, baseline_pdr: Some(pdr), point: None }
                    })
                }
                FaultKind::Intensity(k) => recovery::intensity_point(
                    &topo, &channels, &set, *algo, &sup, *k,
                )
                .map(|point| FaultPointOutcome {
                    skipped: None,
                    baseline_pdr: None,
                    point: Some(point),
                }),
            };
            // an unschedulable workload skips the algorithm, as the figure
            // binary does; other failures cancel the campaign
            match computed {
                Ok(outcome) => Ok(outcome),
                Err(recovery::RecoveryError::Schedule(e)) => Ok(FaultPointOutcome {
                    skipped: Some(e.to_string()),
                    baseline_pdr: None,
                    point: None,
                }),
                Err(e) => Err(e.to_string()),
            }
        },
        |p, r: FaultPointOutcome| {
            let (algo, _) = &p.input;
            if let Some(pdr) = r.baseline_pdr {
                results.push(recovery::CampaignResult {
                    algorithm: algo.to_string(),
                    flows: set.len(),
                    seed: sup.seed,
                    baseline_pdr: pdr,
                    points: Vec::new(),
                });
            } else if let Some(point) = r.point {
                if let Some(result) =
                    results.iter_mut().rev().find(|c| c.algorithm == algo.to_string())
                {
                    result.points.push(point);
                }
            }
        },
    )?;
    Ok((results, summary))
}

/// One city-scale sharded scheduling measurement: a generated plant of
/// `nodes` nodes partitioned into `shards` gateways.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleRecord {
    /// Target plant size the generator was asked for.
    pub target_nodes: usize,
    /// Shards the plant was partitioned into.
    pub shards: usize,
    /// Algorithm used inside every shard.
    pub algorithm: String,
    /// Whether every shard admitted its full flow set. `false` is a data
    /// point, not a failure: at 5k/10k nodes the no-reuse baseline runs
    /// out of slots where the reuse algorithms still fit, and that gap is
    /// exactly the sweep's schedulability series.
    pub schedulable: bool,
    /// The sharded run's shape and timings; `None` when unschedulable.
    pub report: Option<crate::sharding::ShardedReport>,
}

/// City-scale sweep: plant size × shard count, each point generating a
/// plant, scheduling it shard-parallel-free (shards are scheduled
/// sequentially inside the point — the campaign pool already parallelizes
/// across points), stitching, and validating the whole network. The
/// stitched-schedule digest in each record pins determinism across runs
/// and job counts.
pub fn scale(
    opts: &SweepOptions,
    cfg: &CampaignConfig,
) -> Result<(Vec<ScaleRecord>, CampaignSummary), CampaignError> {
    let node_targets: &[usize] = if opts.quick { &[120, 240] } else { &[300, 600, 1200] };
    let shard_counts: &[usize] = if opts.quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let mut points = Vec::new();
    for &nodes in node_targets {
        for &shards in shard_counts {
            points.push(PointSpec::new(
                format!("n{nodes}/k{shards}"),
                (nodes, shards, Algorithm::Rc { rho_t: 2 }),
            ));
        }
    }
    // The 10k-node reach: the paper stops at testbed scale; these points
    // carry its RC/RA/NR comparison to plant sizes only the capped-distance
    // graph core can hold. Shards fixed at 8 — the node-count axis is the
    // question here, the shard axis is swept above.
    if !opts.quick {
        for nodes in [5_000usize, 10_000] {
            for algo in Algorithm::paper_suite() {
                points.push(PointSpec::new(format!("n{nodes}/k8/{algo}"), (nodes, 8, algo)));
            }
        }
    }
    let mut out = Vec::new();
    let summary = run(
        "scale",
        &points,
        cfg,
        |p| {
            let (nodes, shards, algo) = p.input;
            let plant_cfg = wsan_net::plants::PlantConfig::city(format!("city-{nodes}"), nodes);
            let plant = wsan_net::plants::generate(&plant_cfg, opts.seed);
            let shard_cfg = wsan_core::shard::ShardConfig {
                flows_per_shard: if opts.quick { 3 } else { 6 },
                ..wsan_core::shard::ShardConfig::new(shards, opts.seed, 0)
            };
            let channels = ChannelId::all();
            match crate::sharding::schedule_sharded(&plant, &channels, &shard_cfg, &algo, 1) {
                Ok(outcome) => Ok(ScaleRecord {
                    target_nodes: nodes,
                    shards,
                    algorithm: algo.to_string(),
                    schedulable: true,
                    report: Some(outcome.report),
                }),
                // An admission failure is the schedulability result itself,
                // not a campaign error — record it so a sweep that includes
                // the no-reuse baseline still completes.
                Err(crate::sharding::ShardedError::Shard(
                    wsan_core::shard::ShardError::Schedule { .. },
                )) => Ok(ScaleRecord {
                    target_nodes: nodes,
                    shards,
                    algorithm: algo.to_string(),
                    schedulable: false,
                    report: None,
                }),
                Err(e) => Err(e.to_string()),
            }
        },
        |_, r| out.push(r),
    )?;
    Ok((out, summary))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_campaign_runs_and_matches_sequentially() {
        let opts = SweepOptions { sets: 2, seed: 7, ..SweepOptions::default() };
        let (seq, s1) = smoke(&opts, &CampaignConfig { jobs: 1, ..Default::default() }).unwrap();
        let (par, s2) = smoke(&opts, &CampaignConfig { jobs: 3, ..Default::default() }).unwrap();
        assert_eq!(seq, par);
        assert_eq!(s1.total, 3);
        assert_eq!(s2.executed, 3);
        for point in &seq {
            assert_eq!(point.ratios.len(), 3);
        }
    }

    #[test]
    fn unknown_campaign_is_a_typed_error() {
        let err =
            run_named("nope", &SweepOptions::default(), &CampaignConfig::default()).unwrap_err();
        assert!(matches!(err, CampaignError::UnknownCampaign { .. }));
    }
}
