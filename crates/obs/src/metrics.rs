//! Metrics: counters, gauges, fixed-bucket histograms, and HDR quantile
//! histograms, registered by name and snapshotted into serde-serializable
//! reports. Latencies go into quantile histograms
//! ([`HdrHistogram::record_nanos`]), under names that end in their unit.
//!
//! Handles are cheap `Arc`-backed clones; recording is lock-free atomics.
//! Instrument *creation* goes through a [`Registry`] (a short write-lock),
//! so callers create handles once per run and record through them in hot
//! loops. The global registry is gated by [`set_metrics_enabled`]: when
//! disabled (the default), callers skip building their handle structs and
//! pay nothing.

use crate::hdr::{HdrHistogram, HdrSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// A monotonically increasing `u64` counter.
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins `f64` gauge (stored as bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

#[derive(Debug)]
struct HistogramInner {
    /// Upper bounds of the finite buckets, strictly increasing; an implicit
    /// overflow bucket catches everything above the last bound.
    bounds: Vec<f64>,
    /// One slot per finite bucket plus the overflow bucket.
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observed values, accumulated as f64 bits via CAS.
    sum_bits: AtomicU64,
}

/// A histogram with fixed bucket upper bounds set at creation.
///
/// An observation lands in the first bucket whose upper bound is `>=` the
/// value; values above every bound land in the implicit overflow bucket.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn new(mut bounds: Vec<f64>) -> Self {
        bounds.retain(|b| b.is_finite());
        bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite bounds"));
        bounds.dedup();
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Histogram(Arc::new(HistogramInner {
            bounds,
            buckets,
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
        }))
    }

    /// Records one observation. NaN observations are dropped.
    pub fn observe(&self, v: f64) {
        if v.is_nan() {
            return;
        }
        let inner = &self.0;
        let idx = inner.bounds.partition_point(|&b| b < v);
        inner.buckets[idx].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        let mut cur = inner.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + v).to_bits();
            match inner.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Number of observations recorded so far.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    fn snapshot(&self) -> HistogramSnapshot {
        let inner = &self.0;
        HistogramSnapshot {
            bounds: inner.bounds.clone(),
            buckets: inner.buckets.iter().map(|b| b.load(Ordering::Relaxed)).collect(),
            count: inner.count.load(Ordering::Relaxed),
            sum: f64::from_bits(inner.sum_bits.load(Ordering::Relaxed)),
        }
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, Histogram>,
    quantiles: BTreeMap<String, HdrHistogram>,
}

/// A named collection of instruments.
///
/// `counter`/`gauge`/`histogram`/`quantile` return the existing instrument
/// when the name was already registered (for histograms, the registered
/// bounds win), so independent call sites agree on one instrument per
/// name.
#[derive(Default)]
pub struct Registry {
    inner: RwLock<RegistryInner>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns the counter registered under `name`, creating it on first
    /// use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.write().expect("registry lock poisoned");
        inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Counter(Arc::new(AtomicU64::new(0))))
            .clone()
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.write().expect("registry lock poisoned");
        inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Gauge(Arc::new(AtomicU64::new(0f64.to_bits()))))
            .clone()
    }

    /// Returns the histogram registered under `name`, creating it with the
    /// given finite bucket upper bounds on first use (an overflow bucket is
    /// implicit). Later calls reuse the originally registered bounds.
    pub fn histogram(&self, name: &str, bounds: &[f64]) -> Histogram {
        let mut inner = self.inner.write().expect("registry lock poisoned");
        inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Histogram::new(bounds.to_vec()))
            .clone()
    }

    /// Returns the HDR quantile histogram registered under `name`, creating
    /// it on first use. All quantile histograms share one fixed log-linear
    /// layout (see [`HdrHistogram`]), so no bounds are supplied.
    pub fn quantile(&self, name: &str) -> HdrHistogram {
        let mut inner = self.inner.write().expect("registry lock poisoned");
        inner.quantiles.entry(name.to_string()).or_default().clone()
    }

    /// Captures the current value of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.read().expect("registry lock poisoned");
        MetricsSnapshot {
            counters: inner.counters.iter().map(|(k, c)| (k.clone(), c.get())).collect(),
            gauges: inner.gauges.iter().map(|(k, g)| (k.clone(), g.get())).collect(),
            histograms: inner.histograms.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect(),
            quantiles: inner.quantiles.iter().map(|(k, h)| (k.clone(), h.snapshot())).collect(),
        }
    }

    /// Drops every registered instrument (used by tests; live handles keep
    /// recording into detached instruments).
    pub fn clear(&self) {
        *self.inner.write().expect("registry lock poisoned") = RegistryInner::default();
    }
}

/// Point-in-time state of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Finite bucket upper bounds, strictly increasing.
    pub bounds: Vec<f64>,
    /// Per-bucket observation counts; one entry per bound plus the final
    /// overflow bucket.
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
}

impl HistogramSnapshot {
    /// Mean of the observed values, or `None` before any observation.
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }
}

/// Serializable snapshot of a whole [`Registry`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, f64>,
    /// Histogram states by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// HDR quantile-histogram states by name (p50/p90/p99/p999).
    pub quantiles: BTreeMap<String, HdrSnapshot>,
}

static METRICS_ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns global metrics collection on or off (default: off). Components
/// check [`metrics_enabled`] before creating their instrument handles, so
/// disabled runs never touch the registry.
pub fn set_metrics_enabled(enabled: bool) {
    METRICS_ENABLED.store(enabled, Ordering::Release);
}

/// Whether global metrics collection is on.
#[inline]
pub fn metrics_enabled() -> bool {
    METRICS_ENABLED.load(Ordering::Relaxed)
}

/// The process-global registry (exists regardless of the enabled flag;
/// the flag only gates whether components bother to use it).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let reg = Registry::new();
        let c = reg.counter("tx");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // same name returns the same underlying instrument
        assert_eq!(reg.counter("tx").get(), 5);

        let g = reg.gauge("prr");
        g.set(0.93);
        assert_eq!(reg.gauge("prr").get(), 0.93);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        let reg = Registry::new();
        let h = reg.histogram("lat", &[1.0, 2.0, 5.0]);
        // exactly on a bound lands in that bound's bucket (le semantics)
        h.observe(1.0);
        h.observe(0.5);
        h.observe(2.0);
        h.observe(2.0001);
        h.observe(100.0); // overflow
        h.observe(f64::NAN); // dropped
        let snap = reg.snapshot().histograms["lat"].clone();
        assert_eq!(snap.bounds, vec![1.0, 2.0, 5.0]);
        assert_eq!(snap.buckets, vec![2, 1, 1, 1]);
        assert_eq!(snap.count, 5);
        assert!((snap.sum - 105.5001).abs() < 1e-9);
        assert!((snap.mean().unwrap() - 105.5001 / 5.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_bounds_are_sorted_and_deduped() {
        let reg = Registry::new();
        let h = reg.histogram("h", &[5.0, 1.0, 5.0, f64::INFINITY]);
        h.observe(3.0);
        let snap = reg.snapshot().histograms["h"].clone();
        assert_eq!(snap.bounds, vec![1.0, 5.0]);
        assert_eq!(snap.buckets, vec![0, 1, 0]);
    }

    #[test]
    fn quantile_records_durations() {
        let reg = Registry::new();
        let q = reg.quantile("phase_ns");
        q.record_nanos(std::time::Duration::from_nanos(250));
        reg.quantile("phase_ns").record_nanos(std::time::Duration::from_micros(3));
        let snap = &reg.snapshot().quantiles["phase_ns"];
        assert_eq!(snap.count, 2);
        assert_eq!(snap.sum, 3_250);
        assert_eq!((snap.min, snap.max), (250, 3_000));
    }

    #[test]
    fn snapshot_is_independent_of_later_recording() {
        let reg = Registry::new();
        let c = reg.counter("n");
        c.inc();
        let snap = reg.snapshot();
        c.inc();
        assert_eq!(snap.counters["n"], 1);
        assert_eq!(reg.snapshot().counters["n"], 2);
    }

    #[test]
    fn enabled_flag_defaults_off() {
        // Other tests must not flip the global flag; components rely on the
        // off default to skip instrumentation.
        assert!(!metrics_enabled() || METRICS_ENABLED.load(Ordering::Relaxed));
    }
}
