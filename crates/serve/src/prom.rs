//! In-tree Prometheus text exposition (format 0.0.4) encoder and a strict
//! lint used by tests and the CI integration stage.
//!
//! The serving layer renders its whole `/metrics` page through [`PromText`]:
//! `# HELP` / `# TYPE` headers, label escaping per the exposition spec
//! (`\\`, `\"`, `\n`), canonical `NaN` / `+Inf` / `-Inf` value tokens, and
//! histogram families emitted as cumulative `_bucket{le=...}` series ending
//! in `le="+Inf"` plus `_sum` / `_count`. [`lint`] re-parses a rendered page
//! and checks the invariants a scraper relies on — well-formed lines, legal
//! metric and label names, closed quotes, parseable values, monotone
//! cumulative buckets, and `+Inf == _count` agreement — so the fuzz suite
//! can hammer the encoder with hostile labels and values.

use crate::telemetry::{bucket_upper_bound_ns, HistogramSnapshot, LATENCY_BUCKETS};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Escape a label value per the exposition format: backslash, double quote
/// and newline must be escaped; everything else passes through.
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(ch),
        }
    }
    out
}

/// Render a sample value. Prometheus requires the canonical spellings for
/// the non-finite values; finite values use Rust's shortest round-trip
/// float formatting, which the scraper side parses exactly.
pub fn format_value(v: f64) -> String {
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

/// Metric kinds the serving layer emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone counter.
    Counter,
    /// Point-in-time value.
    Gauge,
    /// Cumulative-bucket histogram.
    Histogram,
}

impl MetricKind {
    fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// Incremental writer for one text exposition page.
#[derive(Debug, Default)]
pub struct PromText {
    out: String,
}

impl PromText {
    /// An empty page.
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a metric family: emits the `# HELP` and `# TYPE` headers.
    /// `help` is free text (newlines and backslashes are escaped).
    pub fn family(&mut self, name: &str, kind: MetricKind, help: &str) {
        let help = help.replace('\\', "\\\\").replace('\n', "\\n");
        let _ = writeln!(self.out, "# HELP {name} {help}");
        let _ = writeln!(self.out, "# TYPE {name} {}", kind.name());
    }

    /// Emit one sample line, e.g. `name{label="value"} 1.5`.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        self.out.push_str(name);
        self.render_labels(labels, None);
        self.out.push(' ');
        self.out.push_str(&format_value(value));
        self.out.push('\n');
    }

    /// Emit a full histogram family body for `name` (the `family` header
    /// with [`MetricKind::Histogram`] must come first): cumulative
    /// `name_bucket{le=...}` series (trailing all-empty buckets are
    /// trimmed, `le="+Inf"` always present and equal to the count),
    /// `name_sum` in seconds, and `name_count`.
    pub fn histogram(&mut self, name: &str, labels: &[(&str, &str)], snap: &HistogramSnapshot) {
        let last_used = snap
            .buckets
            .iter()
            .rposition(|&c| c > 0)
            .map_or(0, |i| i + 1)
            .min(LATENCY_BUCKETS - 1);
        let mut cum = 0u64;
        for i in 0..last_used {
            cum += snap.buckets[i];
            // Bounds are powers of two in ns, exposed in seconds.
            let le = match bucket_upper_bound_ns(i) {
                Some(ns) => format!("{}", ns as f64 * 1e-9),
                None => break,
            };
            self.out.push_str(name);
            self.out.push_str("_bucket");
            self.render_labels(labels, Some(&le));
            let _ = writeln!(self.out, " {cum}");
        }
        self.out.push_str(name);
        self.out.push_str("_bucket");
        self.render_labels(labels, Some("+Inf"));
        let _ = writeln!(self.out, " {}", snap.count);
        self.out.push_str(name);
        self.out.push_str("_sum");
        self.render_labels(labels, None);
        let _ = writeln!(self.out, " {}", format_value(snap.sum_ns as f64 * 1e-9));
        self.out.push_str(name);
        self.out.push_str("_count");
        self.render_labels(labels, None);
        let _ = writeln!(self.out, " {}", snap.count);
    }

    fn render_labels(&mut self, labels: &[(&str, &str)], le: Option<&str>) {
        if labels.is_empty() && le.is_none() {
            return;
        }
        self.out.push('{');
        let mut first = true;
        for (k, v) in labels {
            if !first {
                self.out.push(',');
            }
            first = false;
            let _ = write!(self.out, "{k}=\"{}\"", escape_label_value(v));
        }
        if let Some(le) = le {
            if !first {
                self.out.push(',');
            }
            let _ = write!(self.out, "le=\"{le}\"");
        }
        self.out.push('}');
    }

    /// Finish the page. The exposition format requires it to end in a
    /// newline (every writer method already emits one per line).
    pub fn into_string(self) -> String {
        self.out
    }
}

// ---------------------------------------------------------------------------
// Lint: strict re-parse of a rendered page
// ---------------------------------------------------------------------------

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

/// (labels, rest-after-closing-brace) from a parsed `{...}` block.
type ParsedLabels<'a> = (Vec<(String, String)>, &'a str);

/// Parse one `{...}` label block starting after the metric name. Returns
/// (labels, rest-after-closing-brace) or a description of the problem.
fn parse_labels(s: &str) -> Result<ParsedLabels<'_>, String> {
    let mut labels = Vec::new();
    let mut rest = &s[1..]; // caller guarantees s starts with '{'
    loop {
        rest = rest.trim_start_matches(' ');
        if let Some(after) = rest.strip_prefix('}') {
            return Ok((labels, after));
        }
        let eq = rest
            .find('=')
            .ok_or_else(|| format!("label without '=' near {rest:?}"))?;
        let name = rest[..eq].trim();
        if !is_valid_label_name(name) {
            return Err(format!("invalid label name {name:?}"));
        }
        rest = &rest[eq + 1..];
        let mut chars = rest.char_indices();
        match chars.next() {
            Some((_, '"')) => {}
            _ => return Err(format!("label {name:?} value is not quoted")),
        }
        let mut value = String::new();
        let mut end = None;
        let mut escaped = false;
        for (i, ch) in chars {
            if escaped {
                match ch {
                    '\\' => value.push('\\'),
                    '"' => value.push('"'),
                    'n' => value.push('\n'),
                    _ => return Err(format!("illegal escape \\{ch} in label {name:?}")),
                }
                escaped = false;
            } else if ch == '\\' {
                escaped = true;
            } else if ch == '"' {
                end = Some(i);
                break;
            } else if ch == '\n' {
                return Err(format!("unescaped newline in label {name:?}"));
            } else {
                value.push(ch);
            }
        }
        let end = end.ok_or_else(|| format!("unterminated value for label {name:?}"))?;
        labels.push((name.to_string(), value));
        rest = &rest[end + 1..];
        if let Some(after) = rest.strip_prefix(',') {
            rest = after;
        } else if !rest.starts_with('}') {
            return Err(format!("expected ',' or '}}' after label {name:?}"));
        }
    }
}

fn parse_value(s: &str) -> Result<f64, String> {
    match s {
        "NaN" => Ok(f64::NAN),
        "+Inf" => Ok(f64::INFINITY),
        "-Inf" => Ok(f64::NEG_INFINITY),
        other => other
            .parse::<f64>()
            .map_err(|e| format!("unparseable value {other:?}: {e}")),
    }
}

/// Key identifying one histogram series: base name + non-`le` labels.
fn series_key(base: &str, labels: &[(String, String)]) -> String {
    let mut key = base.to_string();
    for (k, v) in labels {
        if k != "le" {
            key.push('|');
            key.push_str(k);
            key.push('=');
            key.push_str(v);
        }
    }
    key
}

/// Strictly validate a text exposition page: line shapes, metric / label
/// name charsets, quoting and escapes, value syntax, `TYPE`-before-samples,
/// and for every histogram series the cumulative-bucket invariants (counts
/// monotone in `le`, `le` bounds strictly increasing, terminal `le="+Inf"`
/// present and equal to the matching `_count`). Returns the first violation
/// with its line number.
pub fn lint(text: &str) -> Result<(), String> {
    if !text.is_empty() && !text.ends_with('\n') {
        return Err("exposition must end with a newline".to_string());
    }
    let mut types: HashMap<String, String> = HashMap::new();
    // Per histogram series: ascending (le, cumulative count) plus sum/count.
    let mut buckets: HashMap<String, Vec<(f64, f64)>> = HashMap::new();
    let mut counts: HashMap<String, f64> = HashMap::new();
    let mut bucket_lines: HashMap<String, usize> = HashMap::new();

    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let fail = |msg: String| Err(format!("line {lineno}: {msg}"));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            match keyword {
                "HELP" if parts.next().is_none_or(|n| !is_valid_metric_name(n)) => {
                    return fail(format!("HELP with invalid metric name: {line:?}"));
                }
                "HELP" => {}
                "TYPE" => {
                    let name = parts.next().unwrap_or("");
                    if !is_valid_metric_name(name) {
                        return fail(format!("TYPE with invalid metric name: {line:?}"));
                    }
                    let kind = parts.next().unwrap_or("");
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "histogram" | "summary" | "untyped"
                    ) {
                        return fail(format!("unknown metric type {kind:?}"));
                    }
                    types.insert(name.to_string(), kind.to_string());
                }
                _ => {} // free-form comment
            }
            continue;
        }
        if line.starts_with('#') {
            continue; // comment without the canonical space
        }

        // Sample line: name[{labels}] value
        let name_end = line
            .find(['{', ' '])
            .ok_or_else(|| format!("line {lineno}: sample without a value: {line:?}"))?;
        let name = &line[..name_end];
        if !is_valid_metric_name(name) {
            return fail(format!("invalid metric name {name:?}"));
        }
        let (labels, rest) = if line[name_end..].starts_with('{') {
            match parse_labels(&line[name_end..]) {
                Ok(parsed) => parsed,
                Err(e) => return fail(e),
            }
        } else {
            (Vec::new(), &line[name_end..])
        };
        let value_str = rest.trim();
        if value_str.is_empty() {
            return fail(format!("sample {name:?} has no value"));
        }
        // Timestamps (a second field) are legal in the format but this
        // encoder never emits them; reject so drift is caught.
        if value_str.contains(' ') {
            return fail(format!("unexpected extra field in {line:?}"));
        }
        let value = match parse_value(value_str) {
            Ok(v) => v,
            Err(e) => return fail(e),
        };

        // Histogram bookkeeping.
        if let Some(base) = name.strip_suffix("_bucket") {
            if types.get(base).map(String::as_str) == Some("histogram") {
                let le = labels
                    .iter()
                    .find(|(k, _)| k == "le")
                    .map(|(_, v)| v.as_str())
                    .ok_or_else(|| format!("line {lineno}: {name} without an le label"))?;
                let bound = match parse_value(le) {
                    Ok(b) => b,
                    Err(e) => return fail(format!("bad le bound: {e}")),
                };
                if value.is_nan() || value < 0.0 {
                    return fail(format!("bucket count {value} is not a count"));
                }
                let key = series_key(base, &labels);
                let series = buckets.entry(key.clone()).or_default();
                if let Some(&(prev_le, prev_cum)) = series.last() {
                    if bound <= prev_le {
                        return fail(format!("le bounds not increasing: {bound} after {prev_le}"));
                    }
                    if value < prev_cum {
                        return fail(format!(
                            "cumulative bucket counts decreased: {value} after {prev_cum}"
                        ));
                    }
                }
                series.push((bound, value));
                bucket_lines.insert(key, lineno);
            }
        } else if let Some(base) = name.strip_suffix("_count") {
            if types.get(base).map(String::as_str) == Some("histogram") {
                counts.insert(series_key(base, &labels), value);
            }
        }
    }

    for (key, series) in &buckets {
        let lineno = bucket_lines.get(key).copied().unwrap_or(0);
        let Some(&(last_le, last_cum)) = series.last() else {
            continue;
        };
        if last_le != f64::INFINITY {
            return Err(format!(
                "line {lineno}: histogram series {key:?} does not end with le=\"+Inf\""
            ));
        }
        match counts.get(key) {
            Some(&count) if count == last_cum => {}
            Some(&count) => {
                return Err(format!(
                    "line {lineno}: {key:?} +Inf bucket {last_cum} != _count {count}"
                ));
            }
            None => {
                return Err(format!(
                    "line {lineno}: histogram series {key:?} has no _count sample"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::LatencyHistogram;

    #[test]
    fn escapes_and_values_render_canonically() {
        assert_eq!(escape_label_value(r#"a\b"c"#), r#"a\\b\"c"#);
        assert_eq!(escape_label_value("two\nlines"), "two\\nlines");
        assert_eq!(format_value(f64::NAN), "NaN");
        assert_eq!(format_value(f64::INFINITY), "+Inf");
        assert_eq!(format_value(f64::NEG_INFINITY), "-Inf");
        assert_eq!(format_value(1.5), "1.5");
        assert_eq!(format_value(0.0), "0");
    }

    #[test]
    fn counter_page_renders_and_lints() {
        let mut page = PromText::new();
        page.family("dtdbd_requests_total", MetricKind::Counter, "Requests.");
        page.sample(
            "dtdbd_requests_total",
            &[("arch", "TextCNN-S"), ("worker", "0")],
            42.0,
        );
        page.family("dtdbd_ready", MetricKind::Gauge, "Readiness flag.");
        page.sample("dtdbd_ready", &[], 1.0);
        let text = page.into_string();
        assert!(text.contains("# TYPE dtdbd_requests_total counter"));
        assert!(text.contains("dtdbd_requests_total{arch=\"TextCNN-S\",worker=\"0\"} 42"));
        assert!(text.contains("dtdbd_ready 1"));
        lint(&text).expect("valid page");
    }

    #[test]
    fn histogram_family_is_cumulative_and_consistent() {
        let h = LatencyHistogram::new();
        h.record_ns(700);
        h.record_ns(700);
        h.record_ns(1_000_000);
        let mut page = PromText::new();
        page.family(
            "dtdbd_stage_seconds",
            MetricKind::Histogram,
            "Stage latency.",
        );
        page.histogram(
            "dtdbd_stage_seconds",
            &[("stage", "inference")],
            &h.snapshot(),
        );
        let text = page.into_string();
        lint(&text).expect("valid histogram");
        assert!(text.contains("le=\"+Inf\"} 3"));
        assert!(text.contains("dtdbd_stage_seconds_count{stage=\"inference\"} 3"));
        // The 700ns pair lands in the [512, 1024) ns bucket => le 1.024e-6.
        assert!(
            text.contains("le=\"0.000001024\"} 2"),
            "cumulative 700ns bucket missing:\n{text}"
        );
    }

    #[test]
    fn lint_rejects_broken_pages() {
        let cases: [(&str, &str); 7] = [
            ("no newline", "metric 1"),
            ("bad name", "9metric 1\n"),
            ("unquoted label", "m{l=x} 1\n"),
            ("unterminated label", "m{l=\"x} 1\n"),
            ("bad value", "m 1.2.3\n"),
            (
                "non-monotone buckets",
                "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_count 5\n",
            ),
            (
                "inf/count mismatch",
                "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_count 4\nh_sum 0\n",
            ),
        ];
        for (what, page) in cases {
            assert!(lint(page).is_err(), "lint must reject: {what}");
        }
        lint("").expect("empty page is fine");
    }
}
