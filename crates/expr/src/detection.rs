//! Detection-policy experiments (Figs. 10, 11): classifying links whose
//! reliability degrades under channel reuse, with and without external
//! WiFi interference.

use crate::schedulable::set_seed;
use crate::Algorithm;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use wsan_core::NetworkModel;
use wsan_detect::{DetectionPolicy, EpochReport};
use wsan_flow::{FlowSetConfig, FlowSetGenerator, PeriodRange, TrafficPattern};
use wsan_net::{ChannelSet, DirectedLink, Position, Prr, Topology};
use wsan_sim::{CaptureModel, LinkCondition, SimConfig, Simulator, WifiInterferer};

/// Parameters of the detection experiment.
#[derive(Debug, Clone)]
pub struct DetectionConfig {
    /// Flows in the workload. The paper uses 50 peer-to-peer flows at 1 s;
    /// our synthetic topology has shorter routes, so the default is denser
    /// (110 flows) to put the conservative scheduler under comparable
    /// pressure — at 50 flows RC's laxity never goes negative and it
    /// (correctly) introduces no reuse at all.
    pub flow_count: usize,
    /// Health-report epochs (paper: 6).
    pub epochs: usize,
    /// PRR samples per link per condition per epoch (paper: 18).
    pub samples_per_epoch: u32,
    /// Schedule repetitions aggregated into one PRR sample.
    pub window_reps: u32,
    /// Base seed.
    pub seed: u64,
    /// Capture model.
    pub capture: CaptureModel,
    /// Detection policy (`PRR_t`, α).
    pub policy: DetectionPolicy,
    /// Effective WiFi interferer power (dBm).
    pub wifi_power_dbm: f64,
    /// WiFi duty cycle.
    pub wifi_duty: f64,
    /// `PRR_t` for the communication graph.
    pub prr_threshold: f64,
}

impl Default for DetectionConfig {
    fn default() -> Self {
        DetectionConfig {
            flow_count: 110,
            epochs: 6,
            samples_per_epoch: 18,
            window_reps: 10,
            seed: 0xFEED,
            capture: CaptureModel::default(),
            policy: DetectionPolicy::default(),
            wifi_power_dbm: -3.0,
            wifi_duty: 0.10,
            prr_threshold: 0.9,
        }
    }
}

/// Outcome of the detection experiment for one scheduler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionRun {
    /// Algorithm name.
    pub algorithm: String,
    /// Number of links associated with channel reuse in the schedule.
    pub links_with_reuse: usize,
    /// Per-epoch reports in the clean environment.
    pub clean: Vec<EpochReport>,
    /// Per-epoch reports under WiFi interference.
    pub interfered: Vec<EpochReport>,
}

impl DetectionRun {
    /// Links rejected (reuse-degraded) in at least one epoch of the given
    /// environment.
    pub fn ever_rejected(&self, interfered: bool) -> Vec<DirectedLink> {
        let epochs = if interfered { &self.interfered } else { &self.clean };
        let mut out = Vec::new();
        for epoch in epochs {
            for link in epoch.rejected() {
                if !out.contains(&link) {
                    out.push(link);
                }
            }
        }
        out.sort();
        out
    }
}

/// One interferer per floor, placed at the floor's node centroid — the
/// synthetic analogue of the paper's three Raspberry-Pi pairs.
pub fn per_floor_interferers(
    topology: &Topology,
    power_dbm: f64,
    duty: f64,
) -> Vec<WifiInterferer> {
    let model = topology.propagation_model().cloned().unwrap_or_default();
    let mut floors: BTreeMap<i64, (f64, f64, f64, usize)> = BTreeMap::new();
    for node in topology.nodes() {
        let p = topology.position(node);
        let floor = (p.z / model.floor_height_m).round() as i64;
        let e = floors.entry(floor).or_insert((0.0, 0.0, 0.0, 0));
        e.0 += p.x;
        e.1 += p.y;
        e.2 += p.z;
        e.3 += 1;
    }
    floors
        .values()
        .map(|&(x, y, z, n)| {
            let c = n as f64;
            WifiInterferer::wifi_channel_1(Position::new(x / c, y / c, z / c), power_dbm, duty)
        })
        .collect()
}

/// Runs the detection experiment for each algorithm: schedule the workload,
/// execute it epoch by epoch in a clean environment and again under WiFi
/// interference, and classify every reuse-involved link each epoch.
///
/// Algorithms whose schedule fails are skipped (the paper's workload is
/// schedulable by both RA and RC).
pub fn evaluate(
    topology: &Topology,
    channels: &ChannelSet,
    algorithms: &[Algorithm],
    cfg: &DetectionConfig,
) -> Vec<DetectionRun> {
    algorithms
        .iter()
        .filter_map(|&algo| {
            evaluate_algo(topology, channels, algo, cfg).unwrap_or_else(|e| panic!("{e}"))
        })
        .collect()
}

/// Campaign-engine variant of [`evaluate`] for a single algorithm, with the
/// panicking paths turned into errors. `Ok(None)` means the algorithm could
/// not schedule the workload (skipped, matching [`evaluate`]).
///
/// # Errors
///
/// Returns a message when the workload cannot be generated or the
/// simulator rejects its inputs.
pub fn evaluate_algo(
    topology: &Topology,
    channels: &ChannelSet,
    algo: Algorithm,
    cfg: &DetectionConfig,
) -> Result<Option<DetectionRun>, String> {
    let prr = Prr::new(cfg.prr_threshold).map_err(|e| e.to_string())?;
    let comm = topology.comm_graph(channels, prr);
    let model = NetworkModel::new(topology, channels);
    let fsc = FlowSetConfig::new(
        cfg.flow_count,
        PeriodRange::new(0, 0).expect("constant range is valid"),
        TrafficPattern::PeerToPeer,
    );
    let set = FlowSetGenerator::new(cfg.seed)
        .generate(&comm, &fsc)
        .map_err(|e| format!("workload generation failed: {e}"))?;
    let interferers = per_floor_interferers(topology, cfg.wifi_power_dbm, cfg.wifi_duty);
    let Ok(schedule) = algo.build().schedule(&set, &model) else {
        return Ok(None);
    };
    let sim = Simulator::try_new(topology, channels, &set, &schedule).map_err(|e| e.to_string())?;
    let reps = cfg.samples_per_epoch * cfg.window_reps;
    let run_env = |wifi: bool| -> Result<Vec<EpochReport>, String> {
        (0..cfg.epochs)
            .map(|epoch| {
                let report = sim
                    .try_run(&SimConfig {
                        seed: set_seed(cfg.seed, epoch + if wifi { 1000 } else { 0 }),
                        repetitions: reps,
                        window_reps: cfg.window_reps,
                        capture: cfg.capture,
                        interferers: if wifi { interferers.clone() } else { Vec::new() },
                        discovery_probes: 1,
                        ..SimConfig::default()
                    })
                    .map_err(|e| e.to_string())?;
                let samples = report.links_with_reuse().into_iter().map(|link| {
                    (
                        link,
                        report.prr_distribution(link, LinkCondition::Reuse),
                        report.prr_distribution(link, LinkCondition::ContentionFree),
                    )
                });
                Ok(EpochReport::evaluate(epoch, &cfg.policy, samples))
            })
            .collect()
    };
    let clean = run_env(false)?;
    let interfered = run_env(true)?;
    let links_with_reuse = clean
        .iter()
        .chain(&interfered)
        .flat_map(|e| e.records.iter().map(|r| r.link))
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    Ok(Some(DetectionRun { algorithm: algo.to_string(), links_with_reuse, clean, interfered }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use wsan_net::{testbeds, ChannelId};

    #[test]
    fn interferers_land_one_per_floor() {
        let topo = testbeds::wustl(1);
        let ws = per_floor_interferers(&topo, 6.0, 0.3);
        assert_eq!(ws.len(), 3);
        let mut zs: Vec<f64> = ws.iter().map(|w| w.position.z).collect();
        zs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(zs[0] < zs[1] && zs[1] < zs[2]);
    }

    #[test]
    fn detection_experiment_runs_end_to_end() {
        let topo = testbeds::wustl(5);
        let channels = ChannelId::range(11, 14).unwrap();
        let cfg = DetectionConfig {
            flow_count: 15,
            epochs: 2,
            samples_per_epoch: 6,
            window_reps: 4,
            ..DetectionConfig::default()
        };
        let runs = evaluate(&topo, &channels, &[Algorithm::Ra { rho: 2 }], &cfg);
        assert_eq!(runs.len(), 1);
        let run = &runs[0];
        assert_eq!(run.clean.len(), 2);
        assert_eq!(run.interfered.len(), 2);
        // the schedule decides which links reuse; both environments see the
        // same schedule, so reuse-involved links overlap heavily
        assert!(run.links_with_reuse > 0 || run.clean.iter().all(|e| e.records.is_empty()));
    }
}
