//! Zero-dependency observability for the WSAN stack.
//!
//! Four facilities share this crate:
//!
//! - **Tracing** ([`trace`]): structured spans and events with key/value
//!   fields, dispatched through a process-global [`Subscriber`]. Bundled
//!   subscribers: [`NullSubscriber`] (discard), [`StderrSubscriber`]
//!   (pretty lines), and [`JsonLinesSubscriber`] (one JSON object per
//!   record). With no subscriber installed — the default — every emission
//!   site costs one relaxed atomic load.
//! - **Metrics** ([`metrics`]): named counters, gauges, fixed-bucket
//!   histograms, HDR quantile histograms ([`hdr`], p50/p90/p99/p999), and
//!   monotonic timers in a [`Registry`], snapshotting to
//!   serde-serializable [`MetricsSnapshot`] reports. The global registry
//!   is gated by [`set_metrics_enabled`] (default off), so components skip
//!   instrument creation entirely on uninstrumented runs.
//! - **Span/request context** ([`trace`]): every entered span gets a
//!   process-unique [`SpanId`] with parent/child causality, and
//!   [`request_scope`] binds a [`RequestId`] that every span and event in
//!   the scope carries.
//! - **Flight recorder** ([`flightrec`]): a fixed-capacity lock-free ring
//!   of the most recent span/event records, armed globally with
//!   [`flightrec::arm`], dumped as JSONL on failure or on demand, and
//!   exportable as Chrome `trace_event` JSON for Perfetto.
//!
//! Both facilities are off by default, and instrumented code gates on
//! [`enabled`] / [`metrics_enabled`] before doing any work, so a seeded
//! simulation with observability disabled is bit-identical to an
//! uninstrumented build.
//!
//! ```
//! use std::sync::Arc;
//! use wsan_obs::{kv, Level};
//!
//! // tracing: install a subscriber, then emit spans and events
//! let sink = wsan_obs::SharedBuffer::new();
//! wsan_obs::install(Arc::new(wsan_obs::JsonLinesSubscriber::new(Level::Debug, sink.clone())));
//! {
//!     let _span = wsan_obs::span(Level::Info, "schedule", vec![kv("flows", 12u64)]);
//!     wsan_obs::event(Level::Info, "example", "placed", &[kv("slot", 3u64)]);
//! }
//! wsan_obs::uninstall();
//! assert!(sink.contents().contains("\"placed\""));
//!
//! // metrics: record through cheap handles, snapshot at the end
//! let registry = wsan_obs::metrics::Registry::new();
//! registry.counter("sim.tx").add(7);
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counters["sim.tx"], 7);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod flightrec;
pub mod hdr;
pub mod metrics;
pub mod subscribers;
pub mod trace;

pub use flightrec::{chrome_trace, FlightRecord, FlightRecorder};
pub use hdr::{HdrHistogram, HdrSnapshot};
pub use metrics::{
    global as global_metrics, metrics_enabled, set_metrics_enabled, Counter, Gauge, Histogram,
    MetricsSnapshot, Registry, Timer,
};
pub use subscribers::{JsonLinesSubscriber, NullSubscriber, SharedBuffer, StderrSubscriber};
pub use trace::{
    current_request, enabled, event, flush, install, kv, next_request_id, request_scope, span,
    uninstall, EventRecord, Field, FieldValue, Level, RequestId, SpanGuard, SpanId, SpanRecord,
    Subscriber,
};
