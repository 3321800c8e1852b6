//! Simulation configuration: capture model, fading, and run parameters.

use crate::faults::FaultPlan;
use crate::WifiInterferer;
use serde::{Deserialize, Serialize};

/// The capture-effect model: the probability that a reception survives
/// concurrent same-channel interference, as a logistic function of the
/// signal-to-interference(+external) ratio at the receiver.
///
/// `P(capture) = 1 / (1 + exp(−(SIR_dB − threshold_db) / slope_db))`
///
/// Above the threshold the intended frame captures the radio and the
/// reception behaves like an interference-free one; near and below it the
/// success probability collapses. Interference powers of multiple
/// concurrent senders are summed in linear (mW) space — interference is
/// cumulative, which is why scheduling *fewer* transmissions per channel is
/// one of the paper's explicit reliability levers (§IV-C).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CaptureModel {
    /// SIR at which the capture probability is 0.5, in dB. The co-channel
    /// rejection of an ideal 802.15.4 receiver is ≈3 dB, but a successful
    /// slot needs data *and* acknowledgement to survive, and deployed
    /// radios capture less cleanly, so the effective default is higher.
    pub threshold_db: f64,
    /// Logistic slope in dB.
    pub slope_db: f64,
    /// Per-reception temporal fading applied to the SIR.
    pub fading: FadingModel,
}

impl Default for CaptureModel {
    fn default() -> Self {
        CaptureModel { threshold_db: 8.0, slope_db: 2.5, fading: FadingModel::Rayleigh }
    }
}

impl CaptureModel {
    /// Probability that the intended frame is captured at `sir_db`.
    pub fn capture_probability(&self, sir_db: f64) -> f64 {
        let x = (sir_db - self.threshold_db) / self.slope_db;
        1.0 / (1.0 + (-x).exp())
    }
}

/// Per-reception temporal fading of the signal-to-interference ratio.
///
/// The topology's shadowing is frozen — it is what the PRR tables measured —
/// but the *relative* power of the signal and interference paths fluctuates
/// slot to slot with multipath fading. This fluctuation is what occasionally
/// drops an on-average-safe SIR below the capture threshold, producing the
/// paper's signature of stable *median* PDR but degraded *worst-case* PDR
/// under aggressive reuse.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FadingModel {
    /// No temporal fading: the SIR is deterministic (useful for unit tests
    /// and idealized studies).
    None,
    /// Gaussian (log-normal) fading of the SIR with the given standard
    /// deviation in dB.
    LogNormal {
        /// Standard deviation of the dB-domain fade.
        sigma_db: f64,
    },
    /// Independent Rayleigh fading on the signal and interference paths:
    /// both powers are scaled by unit-mean exponential draws, so the SIR
    /// perturbation is the dB-ratio of two exponentials. This is the
    /// classic narrowband indoor multipath model; its heavy lower tail
    /// (a ≥10 dB SIR drop roughly 9 % of the time) is what makes marginal
    /// channel reuse genuinely risky on real deployments.
    Rayleigh,
    /// Rician fading on both paths: a dominant (line-of-sight-ish)
    /// component plus scattered multipath, with power ratio `k_factor`.
    /// Lighter tails than Rayleigh — the right default for static indoor
    /// industrial links, where deep fades are possible but uncommon.
    Rician {
        /// Ratio of dominant to scattered power (linear, not dB).
        k_factor: f64,
    },
}

impl FadingModel {
    /// Draws one SIR perturbation in dB.
    pub fn sample_db<R: rand::Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            FadingModel::None => 0.0,
            FadingModel::LogNormal { sigma_db } => gaussian(rng) * sigma_db,
            FadingModel::Rayleigh => {
                let s: f64 = -(rng.gen_range(f64::EPSILON..1.0f64)).ln();
                let i: f64 = -(rng.gen_range(f64::EPSILON..1.0f64)).ln();
                10.0 * (s / i).log10()
            }
            FadingModel::Rician { k_factor } => {
                let s = rician_power(rng, k_factor);
                let i = rician_power(rng, k_factor);
                10.0 * (s / i).log10()
            }
        }
    }
}

/// Unit-mean Rician power draw: `|v + σ·CN(0,1)|²` with
/// `v² = K/(K+1)`, `2σ² = 1/(K+1)`.
fn rician_power<R: rand::Rng + ?Sized>(rng: &mut R, k: f64) -> f64 {
    let k = k.max(0.0);
    let v = (k / (k + 1.0)).sqrt();
    let sigma = (1.0 / (2.0 * (k + 1.0))).sqrt();
    let re = v + sigma * gaussian(rng);
    let im = sigma * gaussian(rng);
    (re * re + im * im).max(1e-12)
}

/// Standard normal draw via Box–Muller.
fn gaussian<R: rand::Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Parameters of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// RNG seed; the same configuration and seed reproduce bit-identical
    /// reports.
    pub seed: u64,
    /// Number of times the schedule (one hyperperiod) is executed
    /// back-to-back (the paper runs each schedule 100 times).
    pub repetitions: u32,
    /// Repetitions aggregated into one PRR sample for the per-link
    /// condition statistics (a WirelessHART health-report granule).
    pub window_reps: u32,
    /// Capture-effect model.
    pub capture: CaptureModel,
    /// External interference sources (empty = clean environment).
    pub interferers: Vec<WifiInterferer>,
    /// Neighbor-discovery probe packets per scheduled link per repetition.
    ///
    /// WirelessHART nodes broadcast periodic neighbor-discovery packets in
    /// all channels, and the network manager reserves slots for them (§VI).
    /// Probes are contention-free by construction, so they feed the
    /// contention-free PRR distribution of every link — including links
    /// whose every *data* slot is shared under channel reuse.
    pub discovery_probes: u32,
    /// Scripted faults injected during the run (crashes, link collapses,
    /// roaming interferers). An empty plan — the default — leaves the
    /// simulation bit-identical to a build without fault support.
    pub faults: FaultPlan,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            seed: 0xC0FFEE,
            repetitions: 100,
            window_reps: 10,
            capture: CaptureModel::default(),
            interferers: Vec::new(),
            discovery_probes: 1,
            faults: FaultPlan::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn capture_probability_is_monotone_in_sir() {
        let m = CaptureModel::default();
        let mut last = 0.0;
        for sir in -20..30 {
            let p = m.capture_probability(f64::from(sir));
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= last);
            last = p;
        }
    }

    #[test]
    fn capture_probability_anchors() {
        let m = CaptureModel { threshold_db: 4.0, slope_db: 2.0, fading: FadingModel::None };
        assert!((m.capture_probability(4.0) - 0.5).abs() < 1e-12);
        assert!(m.capture_probability(20.0) > 0.999);
        assert!(m.capture_probability(-15.0) < 0.001);
    }

    #[test]
    fn default_config_is_clean_environment() {
        let c = SimConfig::default();
        assert!(c.interferers.is_empty());
        assert_eq!(c.repetitions, 100);
    }

    #[test]
    fn no_fading_is_zero() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..10 {
            assert_eq!(FadingModel::None.sample_db(&mut rng), 0.0);
        }
    }

    #[test]
    fn lognormal_fading_matches_sigma() {
        let mut rng = StdRng::seed_from_u64(2);
        let sigma = 6.0;
        let draws: Vec<f64> = (0..20_000)
            .map(|_| FadingModel::LogNormal { sigma_db: sigma }.sample_db(&mut rng))
            .collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / draws.len() as f64;
        assert!(mean.abs() < 0.2, "mean {mean}");
        assert!((var.sqrt() - sigma).abs() < 0.2, "sd {}", var.sqrt());
    }

    #[test]
    fn rayleigh_fading_has_heavy_lower_tail() {
        let mut rng = StdRng::seed_from_u64(3);
        let draws: Vec<f64> =
            (0..100_000).map(|_| FadingModel::Rayleigh.sample_db(&mut rng)).collect();
        // symmetric around 0 dB
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!(mean.abs() < 0.2, "mean {mean}");
        // P(fade < -10 dB) for the ratio of two unit exponentials is
        // r/(1+r) at r = 0.1 ≈ 0.0909
        let deep = draws.iter().filter(|&&d| d < -10.0).count() as f64 / draws.len() as f64;
        assert!((deep - 0.0909).abs() < 0.01, "deep-fade rate {deep}");
    }
}
