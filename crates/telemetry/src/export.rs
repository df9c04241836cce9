//! Exporters: Prometheus-style text exposition and Chrome
//! `trace_event` JSON (loadable in Perfetto / `chrome://tracing`).
//!
//! Both exporters render from the deterministic snapshot orders
//! ([`MetricsRegistry::snapshot`](crate::MetricsRegistry::snapshot),
//! [`Tracer::finished`](crate::Tracer::finished)) with a fixed float
//! format, so equal inputs always produce byte-identical output.

use std::fmt::Write as _;

use crate::metrics::{MetricSnapshot, MetricValue};
use crate::trace::SpanRecord;

/// Shortest round-trip rendering of a float (`1.0`, `0.125`, `1e-7`);
/// non-finite values use the Prometheus spellings.
fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v:?}")
    }
}

fn fmt_labels(labels: &[(String, String)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> =
        labels.iter().map(|(k, v)| format!("{k}=\"{}\"", escape_label(v))).collect();
    format!("{{{}}}", inner.join(","))
}

/// Escapes a label value for the text exposition. Beyond the three
/// escapes the Prometheus format defines (`\\`, `\"`, `\n`), every
/// other control character is rendered as a deterministic `\uXXXX`
/// spelling — raw control bytes would corrupt line framing and fail
/// [`lint_prometheus`]. Non-ASCII text passes through as UTF-8, which
/// the format allows.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c.is_control() => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Renders metric snapshots in the Prometheus text exposition format:
/// a `# TYPE` comment per metric family, then one sample line per
/// labeled series; histograms expand into cumulative `_bucket{le=...}`
/// lines plus `_sum` and `_count`.
pub fn prometheus_text(metrics: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    let mut last_family: Option<(&str, &str)> = None;
    for m in metrics {
        let kind = match &m.value {
            MetricValue::Counter(_) => "counter",
            MetricValue::Gauge(_) => "gauge",
            MetricValue::Histogram(_) => "histogram",
        };
        if last_family != Some((m.name.as_str(), kind)) {
            let _ = writeln!(out, "# TYPE {} {}", m.name, kind);
            last_family = Some((m.name.as_str(), kind));
        }
        match &m.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{}{} {}", m.name, fmt_labels(&m.labels), v);
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{}{} {}", m.name, fmt_labels(&m.labels), fmt_f64(*v));
            }
            MetricValue::Histogram(h) => {
                // Cumulative counts keyed by upper bound; buckets
                // sharing a bound (negative + zero both end at 0.0)
                // merge into one line, and a trailing `+Inf` line always
                // closes the family.
                let mut cumulative = 0u64;
                let mut lines: Vec<(f64, u64)> = Vec::new();
                for b in &h.buckets {
                    cumulative += b.count;
                    match lines.last_mut() {
                        Some((le, c)) if *le == b.upper => *c = cumulative,
                        _ => lines.push((b.upper, cumulative)),
                    }
                }
                if lines.last().map(|(le, _)| *le) != Some(f64::INFINITY) {
                    lines.push((f64::INFINITY, h.count));
                }
                for (le, c) in lines {
                    let mut labels = m.labels.clone();
                    labels.push(("le".to_string(), fmt_f64(le)));
                    let _ = writeln!(out, "{}_bucket{} {}", m.name, fmt_labels(&labels), c);
                }
                let _ = writeln!(out, "{}_sum{} {}", m.name, fmt_labels(&m.labels), fmt_f64(h.sum));
                let _ = writeln!(out, "{}_count{} {}", m.name, fmt_labels(&m.labels), h.count);
            }
        }
    }
    out
}

/// Validates a Prometheus text exposition: every line is either a
/// `# TYPE name counter|gauge|histogram` comment or a
/// `name{key="value",...} number` sample whose name was declared by a
/// preceding `# TYPE` line (modulo `_bucket`/`_sum`/`_count`
/// suffixes). Returns the first offense. This is the format-lint CI
/// runs over every exposition the stack emits.
pub fn lint_prometheus(text: &str) -> Result<(), String> {
    use crate::metrics::valid_metric_name;
    let mut declared: Vec<String> = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        let err = |msg: &str| Err(format!("line {}: {msg}: {line:?}", ln + 1));
        if line.is_empty() {
            continue;
        }
        if line.chars().any(|c| c.is_control()) {
            return err("raw control character");
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split(' ');
            let (Some(name), Some(kind), None) = (parts.next(), parts.next(), parts.next()) else {
                return err("malformed TYPE comment");
            };
            if !valid_metric_name(name) {
                return err("invalid metric name in TYPE comment");
            }
            if !matches!(kind, "counter" | "gauge" | "histogram") {
                return err("unknown metric kind");
            }
            declared.push(name.to_string());
            continue;
        }
        if line.starts_with('#') {
            continue; // other comments are legal
        }
        // Sample line: name[{labels}] value
        let (series, value) = match line.rsplit_once(' ') {
            Some(parts) => parts,
            None => return err("sample line has no value"),
        };
        if value.parse::<f64>().is_err()
            && !matches!(value, "+Inf" | "-Inf" | "NaN")
            && value.parse::<u64>().is_err()
        {
            return err("unparsable sample value");
        }
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                let Some(body) = labels.strip_suffix('}') else {
                    return err("unterminated label set");
                };
                for pair in split_label_pairs(body) {
                    let Some((k, v)) = pair.split_once('=') else {
                        return err("label without '='");
                    };
                    if !valid_metric_name(k) {
                        return err("invalid label key");
                    }
                    if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                        return err("unquoted label value");
                    }
                }
                name
            }
            None => series,
        };
        if !valid_metric_name(name) {
            return err("invalid metric name");
        }
        let family = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        if !declared.iter().any(|d| d == name || d == family) {
            return err("sample not declared by a TYPE comment");
        }
    }
    Ok(())
}

/// Splits a label body on commas that are outside quoted values.
fn split_label_pairs(body: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut in_quotes = false;
    let mut escaped = false;
    for c in body.chars() {
        match c {
            '\\' if in_quotes && !escaped => {
                escaped = true;
                cur.push(c);
            }
            '"' if !escaped => {
                in_quotes = !in_quotes;
                cur.push(c);
            }
            ',' if !in_quotes => {
                out.push(std::mem::take(&mut cur));
            }
            _ => {
                escaped = false;
                cur.push(c);
            }
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Escapes `s` for the inside of a JSON string literal (the caller
/// writes the surrounding quotes): `"`, `\` and every control
/// character below U+0020; everything else passes through as UTF-8.
/// The one JSON escaper in the workspace — [`chrome_trace_json`] and
/// `reason_bench::json::Json::render` both write strings through it.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Microseconds with a fixed 3-decimal format — Chrome's `ts`/`dur`
/// unit, deterministic to the last byte.
fn fmt_us(seconds: f64) -> String {
    format!("{:.3}", seconds * 1e6)
}

/// Renders spans as Chrome `trace_event` JSON (one complete `"ph":"X"`
/// event per span), loadable in Perfetto or `chrome://tracing`. Tracks
/// map to `tid`s; labels land in `args`.
pub fn chrome_trace_json(spans: &[SpanRecord]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"reason\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":1,\"tid\":{}",
            json_escape(&s.name),
            fmt_us(s.start_s),
            fmt_us(s.end_s - s.start_s),
            s.track
        );
        out.push_str(",\"args\":{");
        for (j, (k, v)) in s.labels.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{}\":\"{}\"", json_escape(k), json_escape(v));
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsRegistry;
    use crate::trace::Tracer;
    use crate::VirtualClock;

    fn sample_registry() -> MetricsRegistry {
        let reg = MetricsRegistry::new();
        reg.counter("queries_total", &[("route", "exact")]).add(3);
        reg.counter("queries_total", &[("route", "approx")]).add(1);
        reg.gauge("store_bytes", &[]).set(4096.0);
        let h = reg.histogram("latency_modeled", &[("shard", "0")]);
        h.record(1e-3);
        h.record(2e-3);
        reg
    }

    #[test]
    fn prometheus_exposition_passes_its_own_lint() {
        let text = prometheus_text(&sample_registry().snapshot());
        assert!(text.contains("# TYPE queries_total counter"));
        assert!(text.contains("queries_total{route=\"exact\"} 3"));
        assert!(text.contains("latency_modeled_count{shard=\"0\"} 2"));
        assert!(text.contains("le=\"+Inf\""));
        lint_prometheus(&text).expect("exposition is well-formed");
    }

    #[test]
    fn lint_rejects_malformed_expositions() {
        assert!(lint_prometheus("queries_total 3\n").is_err(), "undeclared sample");
        assert!(lint_prometheus("# TYPE x widget\nx 1\n").is_err(), "unknown kind");
        assert!(
            lint_prometheus("# TYPE ok counter\nok{k=unquoted} 1\n").is_err(),
            "unquoted label value"
        );
        assert!(lint_prometheus("# TYPE ok counter\nok notanumber\n").is_err());
        assert!(lint_prometheus("# TYPE ok counter\nok{a=\"b\"} 1\n").is_ok());
    }

    #[test]
    fn exposition_is_deterministic() {
        let a = prometheus_text(&sample_registry().snapshot());
        let b = prometheus_text(&sample_registry().snapshot());
        assert_eq!(a, b);
    }

    #[test]
    fn chrome_trace_renders_labeled_events() {
        let clock = VirtualClock::shared();
        let tracer = Tracer::new(clock.clone());
        let g = tracer.span_on(2, "query", &[("shard", "2"), ("tenant", "kb-a")]);
        clock.set(0.0015);
        g.end();
        let json = chrome_trace_json(&tracer.finished());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"query\""));
        assert!(json.contains("\"tid\":2"));
        assert!(json.contains("\"dur\":1500.000"));
        assert!(json.contains("\"tenant\":\"kb-a\""));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn hostile_label_values_stay_lintable() {
        let reg = MetricsRegistry::new();
        // Control characters, quotes, backslashes, and non-ASCII — the
        // kind of tenant names an adversarial client sends.
        reg.counter("queries_total", &[("tenant", "a\r\nb\tc\u{7}d")]).inc();
        reg.counter("queries_total", &[("tenant", "q\"uo\\te")]).inc();
        reg.counter("queries_total", &[("tenant", "héllo→世界")]).inc();
        let text = prometheus_text(&reg.snapshot());
        lint_prometheus(&text).unwrap_or_else(|e| panic!("unlintable exposition: {e}\n{text}"));
        assert!(!text.chars().any(|c| c.is_control() && c != '\n'), "no raw control bytes");
        assert!(text.contains("a\\r\\nb\\tc\\u0007d"));
        assert!(text.contains("q\\\"uo\\\\te"));
        assert!(text.contains("héllo→世界"), "UTF-8 passes through unescaped");
    }

    #[test]
    fn lint_rejects_raw_control_characters() {
        assert!(lint_prometheus("# TYPE ok counter\nok{a=\"x\ry\"} 1\n").is_err());
        assert!(lint_prometheus("# TYPE ok counter\nok{a=\"x\u{1}y\"} 1\n").is_err());
    }

    #[test]
    fn chrome_trace_escapes_hostile_names_and_labels() {
        let clock = VirtualClock::shared();
        let tracer = Tracer::new(clock.clone());
        let g = tracer.span_on(0, "bad\"name\\with\nctrl\u{1}", &[("k\t", "v\r→世界")]);
        clock.set(1e-3);
        g.end();
        let json = chrome_trace_json(&tracer.finished());
        // Raw control bytes would make the JSON unparsable; everything
        // below 0x20 must come out escaped.
        assert!(!json.chars().any(|c| c.is_control() && c != '\n'), "raw control byte in {json:?}");
        assert!(json.contains("bad\\\"name\\\\with\\nctrl\\u0001"));
        assert!(json.contains("\"k\\t\":\"v\\r→世界\""));
        // Quotes balance after unescaping — a cheap structural check
        // that escaping did not break string framing.
        let unescaped_quotes =
            json.as_bytes().windows(2).filter(|w| w[0] != b'\\' && w[1] == b'"').count();
        assert_eq!(unescaped_quotes % 2, 0, "unescaped quotes pair up");
    }

    #[test]
    fn chrome_trace_is_deterministic_per_seed() {
        let render = || {
            let clock = VirtualClock::shared();
            let tracer = Tracer::new(clock.clone());
            let root = tracer.span_on(0, "root", &[]);
            clock.set(0.25);
            let child = tracer.span_on(0, "child", &[("k", "v")]);
            clock.set(0.5);
            child.end();
            root.end();
            chrome_trace_json(&tracer.finished())
        };
        assert_eq!(render(), render());
    }
}
