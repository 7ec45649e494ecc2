//! Exporters over [`MetricsSnapshot`]: a deterministic JSON document
//! (`fleet_stress --metrics-out`) and the Prometheus text exposition
//! format, plus [`validate_prometheus`], the format lint CI gates the
//! export on.
//!
//! Both exporters consume the snapshot's sorted metric order verbatim and
//! format every number deterministically, so exporting the same snapshot
//! twice yields identical bytes.

use std::io::{self, Write};

use crate::registry::{MetricId, MetricsSnapshot};

/// Schema version of the metrics JSON document.
pub const METRICS_JSON_SCHEMA: u32 = 1;

/// Quantiles exported for histograms and sketches, as `(label, q)`.
const EXPORT_QUANTILES: [(&str, f64); 3] = [("0.5", 0.50), ("0.95", 0.95), ("0.99", 0.99)];

/// Escape a string for embedding in a JSON string literal.
pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_labels(id: &MetricId) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in id.labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)));
    }
    out.push('}');
    out
}

/// Deterministic f64 rendering: integers without a trailing `.0` ambiguity
/// concern (Rust's shortest-roundtrip formatting is platform-independent),
/// non-finite values as `null` (JSON has no NaN/Inf).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

impl MetricsSnapshot {
    /// Write the snapshot as a deterministic JSON document.
    pub fn write_json<W: Write>(&self, mut out: W) -> io::Result<()> {
        writeln!(out, "{{")?;
        writeln!(out, "  \"schema\": {METRICS_JSON_SCHEMA},")?;
        writeln!(out, "  \"counters\": [")?;
        for (i, (id, value)) in self.counters.iter().enumerate() {
            let comma = if i + 1 < self.counters.len() { "," } else { "" };
            writeln!(
                out,
                "    {{\"name\": \"{}\", \"labels\": {}, \"value\": {}}}{}",
                escape_json(&id.name),
                json_labels(id),
                value,
                comma
            )?;
        }
        writeln!(out, "  ],")?;
        writeln!(out, "  \"gauges\": [")?;
        for (i, (id, value)) in self.gauges.iter().enumerate() {
            let comma = if i + 1 < self.gauges.len() { "," } else { "" };
            writeln!(
                out,
                "    {{\"name\": \"{}\", \"labels\": {}, \"value\": {}}}{}",
                escape_json(&id.name),
                json_labels(id),
                json_f64(*value),
                comma
            )?;
        }
        writeln!(out, "  ],")?;
        writeln!(out, "  \"histograms\": [")?;
        for (i, (id, hist)) in self.histograms.iter().enumerate() {
            let comma = if i + 1 < self.histograms.len() { "," } else { "" };
            writeln!(
                out,
                "    {{\"name\": \"{}\", \"labels\": {}, \"count\": {}, \"mean_ns\": {}, \
                 \"max_ns\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}}}{}",
                escape_json(&id.name),
                json_labels(id),
                hist.count(),
                json_f64(hist.mean_ns()),
                hist.max_ns(),
                hist.quantile_upper_bound_ns(0.50),
                hist.quantile_upper_bound_ns(0.95),
                hist.quantile_upper_bound_ns(0.99),
                comma
            )?;
        }
        writeln!(out, "  ],")?;
        writeln!(out, "  \"sketches\": [")?;
        for (i, (id, sketch)) in self.sketches.iter().enumerate() {
            let comma = if i + 1 < self.sketches.len() { "," } else { "" };
            writeln!(
                out,
                "    {{\"name\": \"{}\", \"labels\": {}, \"count\": {}, \"sum_ns\": {}, \
                 \"mean_ns\": {}, \"min_ns\": {}, \"max_ns\": {}, \"p50_ns\": {}, \
                 \"p95_ns\": {}, \"p99_ns\": {}}}{}",
                escape_json(&id.name),
                json_labels(id),
                sketch.count(),
                sketch.sum_ns(),
                json_f64(sketch.mean_ns()),
                sketch.min_ns(),
                sketch.max_ns(),
                sketch.quantile_ns(0.50),
                sketch.quantile_ns(0.95),
                sketch.quantile_ns(0.99),
                comma
            )?;
        }
        writeln!(out, "  ]")?;
        writeln!(out, "}}")?;
        Ok(())
    }

    /// The JSON document as a `String`.
    pub fn to_json(&self) -> String {
        let mut out = Vec::new();
        self.write_json(&mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("exporter emits UTF-8")
    }

    /// Write the snapshot in the Prometheus text exposition format.
    /// Counters and gauges export directly; histograms and sketches export
    /// as summaries (`{quantile="..."}` samples plus `_sum`/`_count`). The
    /// snapshot is sorted by name, so label variants of one metric are
    /// adjacent and share a single `# TYPE` line (the format forbids
    /// repeating it).
    pub fn write_prometheus<W: Write>(&self, mut out: W) -> io::Result<()> {
        let mut last_type_line = String::new();
        let mut type_line = |out: &mut W, name: &str, kind: &str| -> io::Result<()> {
            let line = format!("# TYPE {name} {kind}");
            if line != last_type_line {
                writeln!(out, "{line}")?;
                last_type_line = line;
            }
            Ok(())
        };
        for (id, value) in &self.counters {
            let name = prom_name(&id.name);
            type_line(&mut out, &name, "counter")?;
            writeln!(out, "{name}{} {value}", prom_labels(id, None))?;
        }
        for (id, value) in &self.gauges {
            let name = prom_name(&id.name);
            type_line(&mut out, &name, "gauge")?;
            writeln!(out, "{name}{} {}", prom_labels(id, None), prom_f64(*value))?;
        }
        for (id, hist) in &self.histograms {
            let name = prom_name(&id.name);
            type_line(&mut out, &name, "summary")?;
            for (q_label, q) in EXPORT_QUANTILES {
                writeln!(
                    out,
                    "{name}{} {}",
                    prom_labels(id, Some(q_label)),
                    hist.quantile_upper_bound_ns(q)
                )?;
            }
            let sum_ns = (hist.mean_ns() * hist.count() as f64).round() as u64;
            writeln!(out, "{name}_sum{} {sum_ns}", prom_labels(id, None))?;
            writeln!(out, "{name}_count{} {}", prom_labels(id, None), hist.count())?;
        }
        for (id, sketch) in &self.sketches {
            let name = prom_name(&id.name);
            type_line(&mut out, &name, "summary")?;
            for (q_label, q) in EXPORT_QUANTILES {
                writeln!(
                    out,
                    "{name}{} {}",
                    prom_labels(id, Some(q_label)),
                    sketch.quantile_ns(q)
                )?;
            }
            writeln!(out, "{name}_sum{} {}", prom_labels(id, None), sketch.sum_ns())?;
            writeln!(out, "{name}_count{} {}", prom_labels(id, None), sketch.count())?;
        }
        Ok(())
    }

    /// The Prometheus exposition document as a `String`.
    pub fn to_prometheus(&self) -> String {
        let mut out = Vec::new();
        self.write_prometheus(&mut out).expect("writing to a Vec cannot fail");
        String::from_utf8(out).expect("exporter emits UTF-8")
    }
}

/// Sanitise a metric name to the Prometheus charset
/// (`[a-zA-Z_:][a-zA-Z0-9_:]*`).
fn prom_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' || c == ':' { c } else { '_' })
        .collect();
    if matches!(out.chars().next(), None | Some('0'..='9')) {
        out.insert(0, '_');
    }
    out
}

/// Sanitise a label name (`[a-zA-Z_][a-zA-Z0-9_]*`).
fn prom_label_name(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' })
        .collect();
    if matches!(out.chars().next(), None | Some('0'..='9')) {
        out.insert(0, '_');
    }
    out
}

/// Escape a label value per the exposition format.
fn prom_label_value(value: &str) -> String {
    value.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

fn prom_labels(id: &MetricId, quantile: Option<&str>) -> String {
    if id.labels.is_empty() && quantile.is_none() {
        return String::new();
    }
    let mut parts: Vec<String> = id
        .labels
        .iter()
        .map(|(k, v)| format!("{}=\"{}\"", prom_label_name(k), prom_label_value(v)))
        .collect();
    if let Some(q) = quantile {
        parts.push(format!("quantile=\"{q}\""));
    }
    format!("{{{}}}", parts.join(","))
}

fn prom_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

/// Lint a Prometheus text-exposition document. Checks every line is a
/// well-formed comment (`# HELP` / `# TYPE` with a known type) or sample
/// (`name{labels} value`), with valid metric/label charsets and balanced,
/// properly-quoted label syntax. Returns `Err` with the first offending
/// line and reason. This is the gate CI runs over the exported text.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    const TYPES: [&str; 5] = ["counter", "gauge", "histogram", "summary", "untyped"];
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let comment = comment.trim_start();
            if let Some(rest) = comment.strip_prefix("TYPE ") {
                let mut parts = rest.split_whitespace();
                let name = parts.next().unwrap_or("");
                let kind = parts.next().unwrap_or("");
                if !is_valid_metric_name(name) {
                    return Err(format!("line {lineno}: invalid metric name in TYPE: {line}"));
                }
                if !TYPES.contains(&kind) {
                    return Err(format!("line {lineno}: unknown metric type {kind:?}: {line}"));
                }
            }
            // HELP and free-form comments are permitted by the format.
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_part, rest) = match line.find(['{', ' ']) {
            Some(pos) => (&line[..pos], &line[pos..]),
            None => return Err(format!("line {lineno}: sample without value: {line}")),
        };
        if !is_valid_metric_name(name_part) {
            return Err(format!("line {lineno}: invalid metric name {name_part:?}: {line}"));
        }
        let rest = if let Some(labels) = rest.strip_prefix('{') {
            let close = labels
                .find('}')
                .ok_or_else(|| format!("line {lineno}: unclosed label braces: {line}"))?;
            validate_label_block(&labels[..close])
                .map_err(|e| format!("line {lineno}: {e}: {line}"))?;
            &labels[close + 1..]
        } else {
            rest
        };
        let mut fields = rest.split_whitespace();
        let value = fields
            .next()
            .ok_or_else(|| format!("line {lineno}: sample without value: {line}"))?;
        let value_ok =
            value.parse::<f64>().is_ok() || matches!(value, "NaN" | "+Inf" | "-Inf" | "Inf");
        if !value_ok {
            return Err(format!("line {lineno}: unparseable sample value {value:?}: {line}"));
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {lineno}: unparseable timestamp {ts:?}: {line}"));
            }
        }
        if fields.next().is_some() {
            return Err(format!("line {lineno}: trailing tokens after sample: {line}"));
        }
    }
    Ok(())
}

fn is_valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_valid_label_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn validate_label_block(block: &str) -> Result<(), String> {
    if block.is_empty() {
        return Ok(());
    }
    for pair in block.split(',') {
        let pair = pair.trim();
        if pair.is_empty() {
            continue; // trailing comma is tolerated by scrapers
        }
        let (k, v) = pair
            .split_once('=')
            .ok_or_else(|| format!("label pair without '=': {pair:?}"))?;
        if !is_valid_label_name(k) {
            return Err(format!("invalid label name {k:?}"));
        }
        if !(v.len() >= 2 && v.starts_with('"') && v.ends_with('"')) {
            return Err(format!("label value not quoted: {v:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::TelemetryRegistry;

    fn sample_snapshot() -> MetricsSnapshot {
        let reg = TelemetryRegistry::new();
        reg.counter("decisions_total", &[("worker", "0")]).add(42);
        reg.gauge("cache_hit_rate", &[]).set(0.75);
        let h = reg.histogram("policy_latency_ns", &[]);
        for ns in [100u64, 200, 400, 800] {
            h.record(ns);
        }
        let s = reg.sketch("sojourn_ns", &[("family", "burst")]);
        for ns in [1_000u64, 2_000, 50_000] {
            s.record(ns);
        }
        reg.snapshot()
    }

    #[test]
    fn json_export_is_stable_and_complete() {
        let snap = sample_snapshot();
        let a = snap.to_json();
        let b = snap.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"decisions_total\""));
        assert!(a.contains("\"value\": 42"));
        assert!(a.contains("\"cache_hit_rate\""));
        assert!(a.contains("\"sojourn_ns\""));
        assert!(a.contains("\"schema\": 1"));
    }

    #[test]
    fn prometheus_export_passes_the_lint() {
        let snap = sample_snapshot();
        let text = snap.to_prometheus();
        validate_prometheus(&text).expect("export must satisfy its own lint");
        assert!(text.contains("# TYPE decisions_total counter"));
        assert!(text.contains("decisions_total{worker=\"0\"} 42"));
        assert!(text.contains("# TYPE sojourn_ns summary"));
        assert!(text.contains("sojourn_ns_count{family=\"burst\"} 3"));
    }

    #[test]
    fn lint_rejects_malformed_documents() {
        assert!(validate_prometheus("9bad_name 1").is_err());
        assert!(validate_prometheus("name{unclosed=\"x\" 1").is_err());
        assert!(validate_prometheus("name not_a_number").is_err());
        assert!(validate_prometheus("# TYPE name nonsense").is_err());
        assert!(validate_prometheus("name{k=unquoted} 1").is_err());
        assert!(validate_prometheus("ok_name{k=\"v\"} 1.5\n# TYPE ok_name gauge").is_ok());
    }

    #[test]
    fn names_are_sanitised() {
        assert_eq!(prom_name("driver.latency-ns"), "driver_latency_ns");
        assert_eq!(prom_name("0weird"), "_0weird");
        assert_eq!(prom_label_name("sub-strate"), "sub_strate");
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
