//! The metric names this benchmark defines, with their units, and the values
//! one run reports under them.  `BENCHMARK.json` lists the same names; a
//! test holds the two together.

use crate::stats::{mean, median, percentile, quartiles};
use crate::workload::Samples;
use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric: what `--trace 0` prints.
/// Each is measured on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("eval_cold_p50_ms", "ms"),
    ("peak_heap_mb", "MB"),
];

/// `(name, unit)` of every per-layer metric: what `--trace 1` prints.  The
/// prefix names the crate.  A metric that does not apply to a workload, or
/// whose sample is too small for the percentile, reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    // gps-core: the requests a client of the service sends.
    ("core.ops_per_s", "1/s"),
    ("core.session_p50_ms", "ms"),
    ("core.step_p50_us", "us"),
    ("core.step_p95_us", "us"),
    ("core.sessions_per_s", "1/s"),
    ("core.publish_p50_ms", "ms"),
    ("core.publish_p95_ms", "ms"),
    ("core.first_read_p50_us", "us"),
    ("core.recovery_p50_ms", "ms"),
    ("core.open_us", "us"),
    ("core.close_us", "us"),
    ("core.step_overhead_us", "us"),
    ("core.retire_ms", "ms"),
    ("core.publish_unattributed_ratio", "ratio"),
    ("core.live_epochs_max", "count"),
    ("core.sessions_per_s.w2", "1/s"),
    // gps-automata
    ("automata.parse_us", "us"),
    ("automata.compile_us", "us"),
    ("automata.dfa_states", "count"),
    // gps-learner
    ("learner.learn_us", "us"),
    ("learner.learn_calls", "count"),
    ("learner.hypothesis_changes_per_session", "count"),
    // gps-interactive
    ("interactive.interactions_per_session", "count"),
    ("interactive.goal_reached_ratio", "ratio"),
    ("interactive.refresh_us", "us"),
    ("interactive.propose_us", "us"),
    ("interactive.user_us", "us"),
    ("interactive.pruned_fraction_final", "ratio"),
    ("interactive.zooms_per_session", "count"),
    ("interactive.path_validations_per_session", "count"),
    ("interactive.interactions_per_session.degree", "count"),
    ("interactive.interactions_per_session.random", "count"),
    ("interactive.step_unattributed_ratio", "ratio"),
    // gps-rpq
    ("rpq.cache.hit_ratio", "ratio"),
    ("rpq.cache.evictions", "count"),
    ("rpq.words.build_ms", "ms"),
    ("rpq.migrate_us", "us"),
    ("rpq.inherit_words_us", "us"),
    ("rpq.tier.carried", "count"),
    ("rpq.tier.reseeded", "count"),
    ("rpq.tier.delete_reseeded", "count"),
    ("rpq.tier.recomputed", "count"),
    // gps-exec
    ("exec.eval_us", "us"),
    ("exec.eval_calls", "count"),
    ("exec.spelling_counts_us", "us"),
    ("exec.resume_us", "us"),
    ("exec.index_patch_ms", "ms"),
    ("exec.index_build_ms", "ms"),
    ("exec.plan_forward_ratio", "ratio"),
    // gps-graph
    ("graph.apply_us", "us"),
    ("graph.compact_ms", "ms"),
    ("graph.csr_build_ms", "ms"),
    ("graph.snapshot_bytes", "bytes"),
    // gps-store
    ("store.append_us", "us"),
    ("store.commit_us", "us"),
    ("store.fsync_us", "us"),
    ("store.checkpoint_ms", "ms"),
    ("store.checkpoints", "count"),
    ("store.wal_bytes", "bytes"),
    ("store.checkpoint_bytes", "bytes"),
    ("store.bytes_per_op", "bytes"),
    ("store.recover.decode_ms", "ms"),
    ("store.recover.replay_ms", "ms"),
    ("store.recover.replayed_publishes", "count"),
    // gps-telemetry
    ("telemetry.overhead_ratio", "ratio"),
    ("telemetry.export_us", "us"),
    // the benchmark's own cost
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.timer_ns", "ns"),
];

/// One reported value and the number of samples behind it (0 for a count or
/// a ratio that has none).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Value {
    pub value: f64,
    pub samples: usize,
}

/// Values by metric name.
#[derive(Debug, Default)]
pub struct Report(BTreeMap<&'static str, Value>);

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        self.0.insert(name, Value { value, samples });
    }

    /// A percentile the sample may not support: 0 when it does not.
    pub fn set_percentile(&mut self, name: &'static str, samples: &[f64], p: f64) {
        self.set(name, percentile(samples, p).unwrap_or(0.0), samples.len());
    }

    pub fn get(&self, name: &str) -> Option<Value> {
        self.0.get(name).copied()
    }

    /// The values of `table`'s metrics in table order; a metric nothing set
    /// reads 0 (it does not apply to this workload).
    pub fn rows<'a>(
        &'a self,
        table: &'a [(&'static str, &'static str)],
    ) -> impl Iterator<Item = (&'static str, &'static str, Value)> + 'a {
        table.iter().map(|&(name, unit)| {
            let value = self.get(name).unwrap_or(Value {
                value: 0.0,
                samples: 0,
            });
            (name, unit, value)
        })
    }
}

/// The end-to-end metrics of one untraced run.
pub fn end_to_end(samples: &Samples, setup_s: &[f64]) -> Report {
    let mut report = Report::default();
    report.set(
        "setup_s",
        median(setup_s).expect("set-up ran at least once"),
        setup_s.len(),
    );
    // Medians proper, not nearest-rank percentiles: every workload has the
    // twenty operations that make them steady, and a run cut short still
    // reports the number it has.
    let (op_p50_ms, operations) = samples.op_p50_ms();
    report.set("op_p50_ms", op_p50_ms, operations);
    report.set(
        "eval_cold_p50_ms",
        median(&samples.eval_ms).unwrap_or(0.0),
        samples.eval_ms.len(),
    );
    report.set("peak_heap_mb", samples.prefix_peak_heap_mb, 0);
    report
}

/// The client-visible request metrics and exact counts of one run: the
/// `core.*`, `interactive.*` counts, `rpq.tier.*` and `store.*` byte rows.
pub fn requests(samples: &Samples, report: &mut Report) {
    let s = samples;
    // The reciprocal of the mean operation latency: a slow tail the median
    // hides (checkpoints, evictions, stalls) still lowers it.
    report.set(
        "core.ops_per_s",
        s.ops as f64 / s.op_s.max(f64::MIN_POSITIVE),
        s.ops,
    );
    report.set_percentile("core.session_p50_ms", &s.session_ms, 50.0);
    report.set_percentile("core.step_p50_us", &s.step_us, 50.0);
    report.set_percentile("core.step_p95_us", &s.step_us, 95.0);
    report.set_percentile("core.publish_p50_ms", &s.publish_ms, 50.0);
    report.set_percentile("core.publish_p95_ms", &s.publish_ms, 95.0);
    report.set_percentile("core.first_read_p50_us", &s.first_read_us, 50.0);
    report.set_percentile("core.recovery_p50_ms", &s.recovery_ms, 50.0);
    report.set("core.open_us", mean(&s.open_us), s.open_us.len());
    report.set("core.close_us", mean(&s.close_us), s.close_us.len());
    if s.sessions > 0 {
        let session_s: f64 = s.session_ms.iter().sum::<f64>() / 1e3;
        report.set(
            "core.sessions_per_s",
            s.sessions as f64 / session_s,
            s.sessions,
        );
    }
    report.set("core.live_epochs_max", s.live_epochs_max as f64, 0);

    let p = &s.prefix;
    if p.sessions > 0 {
        let per_session = |count: f64| count / p.sessions as f64;
        report.set(
            "interactive.interactions_per_session",
            per_session(p.interactions as f64),
            p.sessions,
        );
        report.set(
            "interactive.goal_reached_ratio",
            per_session(p.reached as f64),
            p.sessions,
        );
        report.set(
            "interactive.zooms_per_session",
            per_session(p.zooms as f64),
            p.sessions,
        );
        report.set(
            "interactive.path_validations_per_session",
            per_session(p.validations as f64),
            p.sessions,
        );
        report.set(
            "interactive.pruned_fraction_final",
            per_session(p.pruned_fraction),
            p.sessions,
        );
    }
    report.set("rpq.tier.carried", p.carried as f64, 0);
    report.set("rpq.tier.reseeded", p.reseeded as f64, 0);
    report.set("rpq.tier.delete_reseeded", p.delete_reseeded as f64, 0);
    report.set("rpq.tier.recomputed", p.recomputed as f64, 0);
    report.set("store.checkpoints", s.checkpoints as f64, 0);
    report.set("store.wal_bytes", s.wal_bytes as f64, 0);
    report.set("store.checkpoint_bytes", s.checkpoint_bytes as f64, 0);
    if s.wal_bytes > 0 {
        // Over the whole run, which ends a fixed distance past a checkpoint,
        // so checkpoint bytes are amortised over whole intervals.
        let ops = s.updates * crate::workload::OPS_PER_UPDATE as u64;
        report.set(
            "store.bytes_per_op",
            (s.wal_bytes + s.checkpoint_bytes) as f64 / ops as f64,
            ops as usize,
        );
    }
    if !s.recovery_ms.is_empty() {
        report.set(
            "store.recover.replayed_publishes",
            s.replayed_publishes as f64 / s.recovery_ms.len() as f64,
            s.recovery_ms.len(),
        );
    }
}

/// One line per metric: name, value, unit, sample count.  With `only_set`,
/// metrics the run never measured are left out instead of reading 0.
pub fn print_rows(report: &Report, table: &[(&'static str, &'static str)], only_set: bool) {
    for (name, unit, value) in report.rows(table) {
        if only_set && report.get(name).is_none() {
            continue;
        }
        if value.samples > 0 {
            println!(
                "{name:<44} {:>16.4} {unit:<6} n={}",
                value.value, value.samples
            );
        } else {
            println!("{name:<44} {:>16.4} {unit}", value.value);
        }
    }
}

/// The spread of the operation latency inside this run, for the report.
pub fn print_spread(samples: &Samples) {
    for (what, unit, latencies) in [
        ("update + first read", "ms", &samples.op_ms),
        ("step, positive label", "us", &samples.positive_step_us),
        ("step, negative label", "us", &samples.negative_step_us),
    ] {
        if let Some((q1, q2, q3)) = quartiles(latencies) {
            println!(
                "{what}: quartiles {q1:.4} / {q2:.4} / {q3:.4} {unit} over {} samples",
                latencies.len()
            );
        }
    }
}

/// The result line: one JSON object, the last line of standard output.
pub fn result_line(
    samples: &Samples,
    report: &Report,
    table: &[(&'static str, &'static str)],
) -> String {
    let metrics: Vec<String> = report
        .rows(table)
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value.value)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        samples.failed == 0,
        samples.attempted,
        samples.failed,
        metrics.join(", ")
    )
}

/// A float as JSON: every digit Rust prints, never `NaN` or `inf`.
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(*name), "{name} is listed twice");
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn the_result_line_lists_every_metric_of_its_table() {
        let samples = Samples {
            attempted: 3,
            ..Samples::default()
        };
        let mut report = Report::default();
        report.set("setup_s", 1.25, 1);
        let line = result_line(&samples, &report, END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}"));
        assert!(line.contains("\"peak_heap_mb\": {\"value\": 0.0, \"unit\": \"MB\"}"));
        assert_eq!(json_number(f64::NAN), "0.0");
    }
}
