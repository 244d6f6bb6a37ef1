//! Exporters and their drift guards.
//!
//! Two renderers over [`MetricsSnapshot`]:
//!
//! * [`snapshot_to_json`] — one JSON document with counters, gauges,
//!   histograms (cumulative buckets) and the audit events;
//! * [`snapshot_to_prometheus_text`] — the Prometheus text exposition
//!   format (`# TYPE` comments, `_bucket{le="..."}` / `_sum` / `_count`
//!   series for histograms).
//!
//! Both are deterministic: series are emitted in sorted name order and
//! histograms only spell buckets up to the highest non-empty one, so equal
//! workloads export equal bytes.
//!
//! The module also ships two tiny std-only validators —
//! [`validate_json`] (a full recursive-descent JSON parser) and
//! [`validate_prometheus_text`] (a line validator of the exposition
//! grammar) — used by `tests/telemetry_conformance.rs` on both exports
//! after real traffic, so that exporter drift fails CI without adding a
//! parser dependency.

use crate::metric::HistogramSnapshot;
use crate::registry::MetricsSnapshot;
use std::fmt::Write as _;

// ---------------------------------------------------------------------------
// JSON rendering
// ---------------------------------------------------------------------------

/// Escapes `s` into a JSON string literal (without the quotes).
fn escape_json(s: &str, out: &mut String) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// The cumulative `(le, count)` pairs a histogram exports: every bucket up
/// to the highest non-empty one, then `+Inf`.  `le` is rendered as a string
/// so `+Inf` needs no special casing downstream.
fn cumulative_buckets(histogram: &HistogramSnapshot) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    let mut running = 0;
    if let Some(highest) = histogram.highest_nonempty() {
        for (index, count) in histogram.buckets.iter().enumerate().take(highest + 1) {
            running += count;
            out.push((HistogramSnapshot::upper_bound(index).to_string(), running));
        }
    }
    out.push(("+Inf".to_string(), histogram.count));
    out
}

/// Renders `snapshot` as one JSON document.
pub fn snapshot_to_json(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"counters\": {");
    for (i, (name, value)) in snapshot.counters.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    \"");
        escape_json(name, &mut out);
        let _ = write!(out, "\": {value}");
    }
    out.push_str("\n  },\n  \"gauges\": {");
    for (i, (name, value)) in snapshot.gauges.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    \"");
        escape_json(name, &mut out);
        let _ = write!(out, "\": {value}");
    }
    out.push_str("\n  },\n  \"histograms\": {");
    for (i, (name, histogram)) in snapshot.histograms.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    \"");
        escape_json(name, &mut out);
        let _ = write!(
            out,
            "\": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
            histogram.count, histogram.sum
        );
        for (j, (le, count)) in cumulative_buckets(histogram).iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            let _ = write!(out, "{{\"le\": \"{le}\", \"count\": {count}}}");
        }
        out.push_str("]}");
    }
    out.push_str("\n  },\n  \"events\": [");
    for (i, event) in snapshot.events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "\n    {{\"seq\": {}, \"kind\": \"", event.seq);
        escape_json(&event.kind, &mut out);
        out.push_str("\", \"fields\": {");
        for (j, (key, value)) in event.fields.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push('"');
            escape_json(key, &mut out);
            out.push_str("\": \"");
            escape_json(value, &mut out);
            out.push('"');
        }
        out.push_str("}}");
    }
    out.push_str("\n  ]\n}\n");
    out
}

// ---------------------------------------------------------------------------
// Prometheus text exposition rendering
// ---------------------------------------------------------------------------

/// Renders the metrics of `snapshot` in the Prometheus text exposition
/// format.  Events have no representation there and are omitted.
pub fn snapshot_to_prometheus_text(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for (name, value) in &snapshot.counters {
        let _ = writeln!(out, "# TYPE {name} counter");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, value) in &snapshot.gauges {
        let _ = writeln!(out, "# TYPE {name} gauge");
        let _ = writeln!(out, "{name} {value}");
    }
    for (name, histogram) in &snapshot.histograms {
        let _ = writeln!(out, "# TYPE {name} histogram");
        for (le, count) in cumulative_buckets(histogram) {
            let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {count}");
        }
        let _ = writeln!(out, "{name}_sum {}", histogram.sum);
        let _ = writeln!(out, "{name}_count {}", histogram.count);
    }
    out
}

// ---------------------------------------------------------------------------
// JSON validation
// ---------------------------------------------------------------------------

/// Validates that `text` is one well-formed JSON document (full
/// recursive-descent grammar check; values are not retained).
pub fn validate_json(text: &str) -> Result<(), String> {
    let mut parser = JsonParser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    parser.skip_ws();
    parser.value(0)?;
    parser.skip_ws();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing bytes at offset {}", parser.pos));
    }
    Ok(())
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

const MAX_JSON_DEPTH: usize = 128;

impl JsonParser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at offset {}",
                byte as char, self.pos
            ))
        }
    }

    fn literal(&mut self, word: &str) -> Result<(), String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(format!("expected {word:?} at offset {}", self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<(), String> {
        if depth > MAX_JSON_DEPTH {
            return Err("nesting too deep".to_string());
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => self.string(),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            other => Err(format!("unexpected {other:?} at offset {}", self.pos)),
        }
    }

    fn object(&mut self, depth: usize) -> Result<(), String> {
        self.expect(b'{')?;
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            self.value(depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<(), String> {
        self.expect(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value(depth + 1)?;
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(());
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn string(&mut self) -> Result<(), String> {
        self.expect(b'"')?;
        loop {
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(());
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't') => {
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            for _ in 0..4 {
                                match self.peek() {
                                    Some(c) if c.is_ascii_hexdigit() => self.pos += 1,
                                    _ => {
                                        return Err(format!(
                                            "bad \\u escape at offset {}",
                                            self.pos
                                        ))
                                    }
                                }
                            }
                        }
                        other => return Err(format!("bad escape {other:?}")),
                    }
                }
                Some(c) if c < 0x20 => {
                    return Err(format!("raw control byte in string at offset {}", self.pos))
                }
                Some(_) => self.pos += 1,
            }
        }
    }

    fn number(&mut self) -> Result<(), String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            _ => return Err(format!("bad number at offset {start}")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(format!("bad fraction at offset {}", self.pos));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(format!("bad exponent at offset {}", self.pos));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Prometheus text validation
// ---------------------------------------------------------------------------

/// Validates `text` against the Prometheus text exposition grammar:
/// well-formed `# TYPE` / `# HELP` comments, metric names matching
/// `[a-zA-Z_:][a-zA-Z0-9_:]*`, quoted+escaped label values, finite or
/// `+Inf`/`-Inf`/`NaN` sample values — and, strictly, that every sample
/// belongs to a `# TYPE`-declared family (histogram samples may carry the
/// `_bucket`/`_sum`/`_count` suffixes, and `_bucket` lines must have an
/// `le` label).  Our exporter always declares, so an undeclared sample is
/// drift.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    let mut families: std::collections::BTreeMap<String, String> = Default::default();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            match parts.next() {
                Some("TYPE") => {
                    let name = parts
                        .next()
                        .ok_or(format!("line {lineno}: TYPE without a name"))?;
                    if !valid_metric_name(name) {
                        return Err(format!("line {lineno}: bad metric name {name:?}"));
                    }
                    let kind = parts
                        .next()
                        .ok_or(format!("line {lineno}: TYPE without a kind"))?;
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return Err(format!("line {lineno}: unknown TYPE {kind:?}"));
                    }
                    if families
                        .insert(name.to_string(), kind.to_string())
                        .is_some()
                    {
                        return Err(format!("line {lineno}: duplicate TYPE for {name}"));
                    }
                }
                Some("HELP") => {
                    let name = parts
                        .next()
                        .ok_or(format!("line {lineno}: HELP without a name"))?;
                    if !valid_metric_name(name) {
                        return Err(format!("line {lineno}: bad metric name {name:?}"));
                    }
                }
                // Other comments are legal and ignored.
                _ => {}
            }
            continue;
        }
        validate_sample_line(line, lineno, &families)?;
    }
    Ok(())
}

fn valid_metric_name(name: &str) -> bool {
    !name.is_empty()
        && name.chars().enumerate().all(|(i, c)| {
            c == '_' || c == ':' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit())
        })
}

fn valid_label_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .enumerate()
            .all(|(i, c)| c == '_' || c.is_ascii_alphabetic() || (i > 0 && c.is_ascii_digit()))
}

/// The family a sample belongs to, resolving histogram suffixes.
fn family_of<'a>(
    name: &'a str,
    families: &std::collections::BTreeMap<String, String>,
) -> Option<(&'a str, String)> {
    if let Some(kind) = families.get(name) {
        return Some((name, kind.clone()));
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            if let Some(kind) = families.get(stem) {
                if kind == "histogram" || kind == "summary" {
                    return Some((stem, kind.clone()));
                }
            }
        }
    }
    None
}

fn validate_sample_line(
    line: &str,
    lineno: usize,
    families: &std::collections::BTreeMap<String, String>,
) -> Result<(), String> {
    // Metric name.
    let name_end = line
        .find(|c: char| !(c == '_' || c == ':' || c.is_ascii_alphanumeric()))
        .unwrap_or(line.len());
    let name = &line[..name_end];
    if !valid_metric_name(name) {
        return Err(format!("line {lineno}: bad sample name {name:?}"));
    }
    let mut rest = &line[name_end..];

    // Optional label block.
    let mut labels: Vec<(String, String)> = Vec::new();
    if let Some(stripped) = rest.strip_prefix('{') {
        let close = stripped
            .find('}')
            .ok_or(format!("line {lineno}: unterminated label block"))?;
        let block = &stripped[..close];
        rest = &stripped[close + 1..];
        for pair in block.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or(format!("line {lineno}: label without '='"))?;
            if !valid_label_name(key) {
                return Err(format!("line {lineno}: bad label name {key:?}"));
            }
            let value = value
                .strip_prefix('"')
                .and_then(|v| v.strip_suffix('"'))
                .ok_or(format!("line {lineno}: unquoted label value"))?;
            let mut chars = value.chars();
            while let Some(c) = chars.next() {
                if c == '\\' && !matches!(chars.next(), Some('\\' | '"' | 'n')) {
                    return Err(format!("line {lineno}: bad escape in label value"));
                }
            }
            labels.push((key.to_string(), value.to_string()));
        }
    }

    // Value (and optional timestamp).
    let mut tokens = rest.split_whitespace();
    let value = tokens
        .next()
        .ok_or(format!("line {lineno}: sample without a value"))?;
    let numeric = matches!(value, "+Inf" | "-Inf" | "NaN") || value.parse::<f64>().is_ok();
    if !numeric {
        return Err(format!("line {lineno}: unparseable value {value:?}"));
    }
    if let Some(timestamp) = tokens.next() {
        if timestamp.parse::<i64>().is_err() {
            return Err(format!("line {lineno}: bad timestamp {timestamp:?}"));
        }
    }
    if tokens.next().is_some() {
        return Err(format!("line {lineno}: trailing tokens"));
    }

    // Family membership.
    let (_, kind) =
        family_of(name, families).ok_or(format!("line {lineno}: sample {name:?} has no # TYPE"))?;
    if kind == "histogram" && name.ends_with("_bucket") && !labels.iter().any(|(k, _)| k == "le") {
        return Err(format!("line {lineno}: histogram bucket without le label"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::MetricsRegistry;

    fn populated() -> MetricsRegistry {
        let registry = MetricsRegistry::enabled();
        registry.counter("gps_requests_total").add(3);
        registry.gauge("gps_active").set(2);
        let histogram = registry.histogram("gps_latency_ns");
        histogram.record(0);
        histogram.record(5);
        histogram.record(1_000);
        registry.event_with("publish", || {
            vec![
                ("epoch".into(), "1".into()),
                ("note".into(), "quote\" and \\slash".into()),
            ]
        });
        registry
    }

    #[test]
    fn json_export_validates_and_carries_everything() {
        let json = populated().to_json();
        validate_json(&json).expect("exported JSON parses");
        assert!(json.contains("\"gps_requests_total\": 3"));
        assert!(json.contains("\"gps_active\": 2"));
        assert!(json.contains("\"le\": \"+Inf\", \"count\": 3"));
        assert!(json.contains("\"kind\": \"publish\""));
        assert!(json.contains("quote\\\" and \\\\slash"));
    }

    #[test]
    fn prometheus_export_validates_and_is_cumulative() {
        let text = populated().to_prometheus_text();
        validate_prometheus_text(&text).expect("exported text validates");
        assert!(text.contains("# TYPE gps_requests_total counter"));
        assert!(text.contains("gps_requests_total 3"));
        assert!(text.contains("# TYPE gps_latency_ns histogram"));
        // 0 → bucket 0; 5 → bucket [4,7]; 1000 → bucket [512,1023].
        assert!(text.contains("gps_latency_ns_bucket{le=\"0\"} 1"));
        assert!(text.contains("gps_latency_ns_bucket{le=\"7\"} 2"));
        assert!(text.contains("gps_latency_ns_bucket{le=\"1023\"} 3"));
        assert!(text.contains("gps_latency_ns_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("gps_latency_ns_sum 1005"));
        assert!(text.contains("gps_latency_ns_count 3"));
    }

    #[test]
    fn empty_snapshot_exports_validate() {
        let registry = MetricsRegistry::disabled();
        validate_json(&registry.to_json()).unwrap();
        validate_prometheus_text(&registry.to_prometheus_text()).unwrap();
    }

    #[test]
    fn exports_are_deterministic() {
        let a = populated();
        let b = populated();
        assert_eq!(a.to_json(), b.to_json());
        assert_eq!(a.to_prometheus_text(), b.to_prometheus_text());
    }

    #[test]
    fn json_validator_accepts_the_grammar() {
        for good in [
            "null",
            "true",
            " [1, 2.5, -3e2, \"x\\u0041\", {\"k\": []}] ",
            "{\"a\": {\"b\": [false, null]}}",
            "-0.5",
        ] {
            validate_json(good).unwrap_or_else(|e| panic!("{good:?}: {e}"));
        }
    }

    #[test]
    fn json_validator_rejects_malformed_documents() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\" 1}",
            "{'a': 1}",
            "01",
            "1.",
            "\"unterminated",
            "nulll",
            "[1] garbage",
            "{\"a\": 1,}",
        ] {
            assert!(validate_json(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn prometheus_validator_rejects_drift() {
        for bad in [
            // Sample without a TYPE declaration.
            "gps_x 1\n",
            // Unknown kind.
            "# TYPE gps_x widget\ngps_x 1\n",
            // Duplicate family.
            "# TYPE gps_x counter\n# TYPE gps_x counter\ngps_x 1\n",
            // Unparseable value.
            "# TYPE gps_x counter\ngps_x one\n",
            // Histogram bucket without le.
            "# TYPE gps_h histogram\ngps_h_bucket 1\n",
            // Unquoted label value.
            "# TYPE gps_x counter\ngps_x{l=v} 1\n",
            // Bad metric name.
            "# TYPE 1bad counter\n",
        ] {
            assert!(
                validate_prometheus_text(bad).is_err(),
                "{bad:?} should fail"
            );
        }
    }

    #[test]
    fn prometheus_validator_accepts_the_grammar() {
        let good = "\n# HELP gps_x a counter\n# TYPE gps_x counter\ngps_x{shard=\"a\",zone=\"eu\"} 1 1700000000\n# TYPE gps_h histogram\ngps_h_bucket{le=\"+Inf\"} 0\ngps_h_sum 0\ngps_h_count 0\n";
        validate_prometheus_text(good).unwrap();
    }
}
