//! `gps-telemetry` — zero-dependency observability for the GPS stack.
//!
//! Every runtime layer of GPS (execution engine, eval cache, interactive
//! loop, MVCC store, durability layer, session service) reports through the
//! same three primitives:
//!
//! * [`Counter`] / [`Gauge`] — lock-free relaxed atomics;
//! * [`Histogram`] — a fixed log2-bucket latency distribution recorded
//!   either directly or through a [`TimerGuard`] RAII span;
//!
//! all owned by a sharable [`MetricsRegistry`] that registers them by name,
//! plus a bounded ring-buffer [`EventLog`] for
//! structured audit events (session open/step/close, stage/publish,
//! checkpoint, recovery, epoch retirement).
//!
//! The registry exports one coherent [`MetricsSnapshot`] with two renderers
//! — [`MetricsSnapshot::to_json`] and
//! [`MetricsSnapshot::to_prometheus_text`] (Prometheus text exposition
//! format) — and ships tiny std-only validators
//! ([`validate_json`], [`validate_prometheus_text`]) so exporter drift can
//! fail CI without pulling in a parser dependency.
//!
//! ## The disabled path costs one branch
//!
//! Instrument-everything only works if the un-instrumented configuration
//! stays free.  Handles vended by [`MetricsRegistry::disabled`] carry no
//! allocation: [`Counter::inc`] is a `None` check, and
//! [`Histogram::start_timer`] never calls `Instant::now()`.  Metric values
//! must never influence control flow, so a workload run with metrics enabled
//! produces byte-identical results to the same run with metrics disabled
//! (conformance-tested at the workspace root).
//!
//! ## Example
//!
//! ```
//! use gps_telemetry::MetricsRegistry;
//!
//! let registry = MetricsRegistry::enabled();
//! let requests = registry.counter("gps_demo_requests_total");
//! let latency = registry.histogram("gps_demo_latency_ns");
//!
//! for _ in 0..3 {
//!     let _span = latency.start_timer();
//!     requests.inc();
//! }
//!
//! let snapshot = registry.snapshot();
//! assert_eq!(snapshot.counter("gps_demo_requests_total"), Some(3));
//! assert!(registry.to_prometheus_text().contains("gps_demo_latency_ns_count 3"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod export;
pub mod metric;
pub mod registry;

pub use event::{Event, EventLog};
pub use export::{validate_json, validate_prometheus_text};
pub use metric::{Counter, Gauge, Histogram, HistogramSnapshot, TimerGuard, HISTOGRAM_BUCKETS};
pub use registry::{MetricsRegistry, MetricsSnapshot};
