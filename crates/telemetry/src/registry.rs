//! The sharable [`MetricsRegistry`]: namespaced registration of counters,
//! gauges and histograms, the audit [`EventLog`], and coherent snapshots.
//!
//! One registry is threaded through the whole engine behind an
//! `Arc<MetricsRegistry>` (see `GpsBuilder::metrics` in `gps-core`).
//! Registration is idempotent per name: asking twice for
//! `gps_rpq_cache_hits_total` returns handles over the same cell, so layers
//! that are rebuilt per epoch (caches, evaluators) keep extending the same
//! series instead of resetting it.

use crate::event::{Event, EventLog};
use crate::export;
use crate::metric::{Counter, Gauge, Histogram, HistogramCore, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

/// Default audit-event retention of an enabled registry.
const DEFAULT_EVENT_CAPACITY: usize = 1024;

#[derive(Debug, Default)]
struct MetricsMap {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<HistogramCore>>,
}

#[derive(Debug)]
struct Inner {
    metrics: Mutex<MetricsMap>,
    events: EventLog,
}

/// The metrics and audit-event registry.
///
/// [`MetricsRegistry::disabled`] (the engine default) vends no-op handles —
/// every recording costs ~one branch and snapshots are empty.
/// [`MetricsRegistry::enabled`] vends live handles deduplicated by full
/// metric name.  Registration takes a short mutex; recording is lock-free —
/// callers are expected to register once at construction and keep the
/// handles (the pre-bound `*Metrics` structs in each crate).
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Option<Inner>,
}

impl MetricsRegistry {
    /// The no-op registry: every handle is disabled, every export empty.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A live registry with the default event retention.
    pub fn enabled() -> Self {
        Self::with_event_capacity(DEFAULT_EVENT_CAPACITY)
    }

    /// A live registry retaining the most recent `event_capacity` audit
    /// events.
    fn with_event_capacity(event_capacity: usize) -> Self {
        Self {
            inner: Some(Inner {
                metrics: Mutex::new(MetricsMap::default()),
                events: EventLog::new(event_capacity),
            }),
        }
    }

    /// Whether handles vended by this registry record anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The counter registered under `name` (created on first use; disabled
    /// handle when the registry is disabled).
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner {
            None => Counter::disabled(),
            Some(inner) => {
                let mut map = inner.metrics.lock().expect("metrics map poisoned");
                check_name(name, &map, Kind::Counter);
                let cell = map
                    .counters
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0)));
                Counter::from_cell(Arc::clone(cell))
            }
        }
    }

    /// The gauge registered under `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        match &self.inner {
            None => Gauge::disabled(),
            Some(inner) => {
                let mut map = inner.metrics.lock().expect("metrics map poisoned");
                check_name(name, &map, Kind::Gauge);
                let cell = map
                    .gauges
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(AtomicU64::new(0)));
                Gauge::from_cell(Arc::clone(cell))
            }
        }
    }

    /// The histogram registered under `name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner {
            None => Histogram::disabled(),
            Some(inner) => {
                let mut map = inner.metrics.lock().expect("metrics map poisoned");
                check_name(name, &map, Kind::Histogram);
                let cell = map
                    .histograms
                    .entry(name.to_string())
                    .or_insert_with(|| Arc::new(HistogramCore::new()));
                Histogram::from_cell(Arc::clone(cell))
            }
        }
    }

    /// Records an audit event; `fields` is only invoked when the registry is
    /// enabled, so a disabled registry never pays for formatting.
    pub fn event_with<F>(&self, kind: &str, fields: F)
    where
        F: FnOnce() -> Vec<(String, String)>,
    {
        if let Some(inner) = &self.inner {
            inner.events.record(kind, fields());
        }
    }

    /// The retained audit events, oldest first (empty when disabled).
    pub fn events(&self) -> Vec<Event> {
        self.inner
            .as_ref()
            .map_or_else(Vec::new, |inner| inner.events.snapshot())
    }

    /// A coherent point-in-time snapshot of every metric and the event log.
    pub fn snapshot(&self) -> MetricsSnapshot {
        match &self.inner {
            None => MetricsSnapshot::default(),
            Some(inner) => {
                let map = inner.metrics.lock().expect("metrics map poisoned");
                MetricsSnapshot {
                    counters: map
                        .counters
                        .iter()
                        .map(|(name, cell)| {
                            (
                                name.clone(),
                                cell.load(std::sync::atomic::Ordering::Relaxed),
                            )
                        })
                        .collect(),
                    gauges: map
                        .gauges
                        .iter()
                        .map(|(name, cell)| {
                            (
                                name.clone(),
                                cell.load(std::sync::atomic::Ordering::Relaxed),
                            )
                        })
                        .collect(),
                    histograms: map
                        .histograms
                        .iter()
                        .map(|(name, cell)| (name.clone(), cell.snapshot()))
                        .collect(),
                    events: inner.events.snapshot(),
                }
            }
        }
    }

    /// [`MetricsSnapshot::to_json`] of the current state.
    pub fn to_json(&self) -> String {
        self.snapshot().to_json()
    }

    /// [`MetricsSnapshot::to_prometheus_text`] of the current state.
    pub fn to_prometheus_text(&self) -> String {
        self.snapshot().to_prometheus_text()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Counter,
    Gauge,
    Histogram,
}

/// `[a-zA-Z_][a-zA-Z0-9_]*` — the (label-free) Prometheus metric name
/// grammar, minus the colon we never use.
fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .enumerate()
            .all(|(i, c)| c == '_' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit()))
}

fn check_name(name: &str, map: &MetricsMap, kind: Kind) {
    assert!(valid_name(name), "invalid metric name {name:?}");
    let clash = match kind {
        Kind::Counter => map.gauges.contains_key(name) || map.histograms.contains_key(name),
        Kind::Gauge => map.counters.contains_key(name) || map.histograms.contains_key(name),
        Kind::Histogram => map.counters.contains_key(name) || map.gauges.contains_key(name),
    };
    assert!(!clash, "metric {name:?} already registered as another kind");
}

/// A point-in-time copy of a registry: sorted metric series plus the
/// retained audit events.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, u64)>,
    /// Histogram distributions, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
    /// Retained audit events, oldest first.
    pub events: Vec<Event>,
}

impl MetricsSnapshot {
    /// The value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// The value of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The distribution of histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Renders the snapshot as a JSON document — see [`crate::export`].
    pub fn to_json(&self) -> String {
        export::snapshot_to_json(self)
    }

    /// Renders the metrics in the Prometheus text exposition format — see
    /// [`crate::export`].  Events are not representable there; export them
    /// through [`to_json`](Self::to_json) or [`MetricsRegistry::events`].
    pub fn to_prometheus_text(&self) -> String {
        export::snapshot_to_prometheus_text(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_vends_noop_handles_and_empty_snapshots() {
        let registry = MetricsRegistry::disabled();
        assert!(!registry.is_enabled());
        let counter = registry.counter("gps_test_total");
        counter.inc();
        assert_eq!(counter.get(), 0);
        registry.event_with("never", || panic!("fields must not be built"));
        assert!(registry.events().is_empty());
        assert_eq!(registry.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn registration_is_idempotent_per_name() {
        let registry = MetricsRegistry::enabled();
        let a = registry.counter("gps_shared_total");
        let b = registry.counter("gps_shared_total");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2, "both handles share one cell");
        let h1 = registry.histogram("gps_latency_ns");
        let h2 = registry.histogram("gps_latency_ns");
        h1.record(1);
        h2.record(2);
        assert_eq!(h1.count(), 2);
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        MetricsRegistry::enabled().counter("bad name");
    }

    #[test]
    #[should_panic(expected = "already registered as another kind")]
    fn cross_kind_collisions_are_rejected() {
        let registry = MetricsRegistry::enabled();
        registry.counter("gps_thing");
        registry.gauge("gps_thing");
    }

    #[test]
    fn snapshot_is_sorted_and_reads_back() {
        let registry = MetricsRegistry::enabled();
        registry.counter("gps_b_total").add(2);
        registry.counter("gps_a_total").inc();
        registry.gauge("gps_live").set(4);
        registry.histogram("gps_lat_ns").record(100);
        registry.event_with("publish", || vec![("epoch".into(), "1".into())]);

        let snapshot = registry.snapshot();
        let names: Vec<&str> = snapshot.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["gps_a_total", "gps_b_total"]);
        assert_eq!(snapshot.counter("gps_a_total"), Some(1));
        assert_eq!(snapshot.gauge("gps_live"), Some(4));
        assert_eq!(snapshot.histogram("gps_lat_ns").unwrap().count, 1);
        assert_eq!(snapshot.events.len(), 1);
        assert_eq!(snapshot.counter("gps_missing"), None);
    }

    #[test]
    fn concurrent_registration_and_recording_is_consistent() {
        let registry = Arc::new(MetricsRegistry::enabled());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let registry = Arc::clone(&registry);
                scope.spawn(move || {
                    let counter = registry.counter("gps_races_total");
                    let histogram = registry.histogram("gps_race_ns");
                    for i in 0..1_000 {
                        counter.inc();
                        histogram.record(i);
                    }
                });
            }
        });
        let snapshot = registry.snapshot();
        assert_eq!(snapshot.counter("gps_races_total"), Some(8_000));
        assert_eq!(snapshot.histogram("gps_race_ns").unwrap().count, 8_000);
    }
}
