//! Export formats.
//!
//! Metrics render to Prometheus-style text exposition; spans render to
//! JSON-lines and to the chrome://tracing `trace_event` array format.
//! The Prometheus text ships with a parser so round-trips are testable
//! and downstream tools can re-ingest a dump; the span formats are plain
//! JSON, read back by any JSON reader.
//!
//! Determinism: rendering iterates pre-sorted snapshots and formats
//! numbers via shortest-roundtrip `Display`, so equal inputs produce
//! byte-identical text.

use crate::metrics::{MetricSample, SampleValue};
use crate::trace::SpanRecord;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which clock(s) a span export includes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimeMode {
    /// Virtual ticks only: byte-identical across same-seed runs.
    Stable,
    /// Virtual ticks plus wall-clock micros.
    Full,
}

fn fmt_num(out: &mut String, v: f64) {
    if v.is_finite() && v == v.trunc() && v.abs() < 1e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

fn fmt_labels(out: &mut String, labels: &[(String, String)], extra: Option<(&str, String)>) {
    if labels.is_empty() && extra.is_none() {
        return;
    }
    out.push('{');
    let mut first = true;
    for (k, v) in labels {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some((k, v)) = extra {
        if !first {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{v}\"");
    }
    out.push('}');
}

fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render metric samples as Prometheus text exposition. Histograms use the
/// conventional `_bucket{le=...}` / `_sum` / `_count` series.
pub fn to_prometheus(samples: &[MetricSample]) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for s in samples {
        let name = s.id.name.as_str();
        if last_name != Some(name) {
            let kind = match &s.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# TYPE {name} {kind}");
            last_name = Some(name);
        }
        match &s.value {
            SampleValue::Counter(v) => {
                out.push_str(name);
                fmt_labels(&mut out, &s.id.labels, None);
                let _ = writeln!(out, " {v}");
            }
            SampleValue::Gauge(v) => {
                out.push_str(name);
                fmt_labels(&mut out, &s.id.labels, None);
                out.push(' ');
                fmt_num(&mut out, *v);
                out.push('\n');
            }
            SampleValue::Histogram(h) => {
                let mut cum = 0u64;
                for (upper, count) in &h.buckets {
                    cum += count;
                    let mut le = String::new();
                    fmt_num(&mut le, *upper);
                    let _ = write!(out, "{name}_bucket");
                    fmt_labels(&mut out, &s.id.labels, Some(("le", le)));
                    let _ = writeln!(out, " {cum}");
                }
                let _ = write!(out, "{name}_bucket");
                fmt_labels(&mut out, &s.id.labels, Some(("le", "+Inf".to_string())));
                let _ = writeln!(out, " {}", h.count);
                let _ = write!(out, "{name}_sum");
                fmt_labels(&mut out, &s.id.labels, None);
                out.push(' ');
                fmt_num(&mut out, h.sum);
                out.push('\n');
                let _ = write!(out, "{name}_count");
                fmt_labels(&mut out, &s.id.labels, None);
                let _ = writeln!(out, " {}", h.count);
            }
        }
    }
    out
}

/// One parsed Prometheus sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct PromSample {
    /// Sample name (including any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: BTreeMap<String, String>,
    /// The sample value.
    pub value: f64,
}

/// Parse Prometheus text exposition back into raw sample lines
/// (`# TYPE`/comment lines are skipped).
pub fn parse_prometheus(text: &str) -> Result<Vec<PromSample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |msg: &str| format!("line {}: {msg}: {line}", lineno + 1);
        let (name_labels, value) = line.rsplit_once(' ').ok_or_else(|| err("missing value"))?;
        let value = match value {
            "+Inf" => f64::INFINITY,
            "-Inf" => f64::NEG_INFINITY,
            v => v.parse::<f64>().map_err(|_| err("bad value"))?,
        };
        let (name, labels) = match name_labels.split_once('{') {
            None => (name_labels.to_string(), BTreeMap::new()),
            Some((name, rest)) => {
                let body = rest
                    .strip_suffix('}')
                    .ok_or_else(|| err("unterminated label set"))?;
                let mut labels = BTreeMap::new();
                let mut chars = body.chars().peekable();
                while chars.peek().is_some() {
                    let mut key = String::new();
                    for c in chars.by_ref() {
                        if c == '=' {
                            break;
                        }
                        key.push(c);
                    }
                    if chars.next() != Some('"') {
                        return Err(err("expected opening quote"));
                    }
                    let mut val = String::new();
                    let mut escaped = false;
                    for c in chars.by_ref() {
                        if escaped {
                            val.push(match c {
                                'n' => '\n',
                                other => other,
                            });
                            escaped = false;
                        } else if c == '\\' {
                            escaped = true;
                        } else if c == '"' {
                            break;
                        } else {
                            val.push(c);
                        }
                    }
                    labels.insert(key, val);
                    if chars.peek() == Some(&',') {
                        chars.next();
                    }
                }
                (name.to_string(), labels)
            }
        };
        samples.push(PromSample {
            name,
            labels,
            value,
        });
    }
    Ok(samples)
}

fn escape_json(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

fn span_to_json(out: &mut String, s: &SpanRecord, mode: TimeMode) {
    let _ = write!(out, "{{\"id\":{},\"parent\":", s.id);
    match s.parent {
        Some(p) => {
            let _ = write!(out, "{p}");
        }
        None => out.push_str("null"),
    }
    out.push_str(",\"name\":");
    escape_json(out, &s.name);
    out.push_str(",\"labels\":{");
    for (i, (k, v)) in s.labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        escape_json(out, k);
        out.push(':');
        escape_json(out, v);
    }
    let _ = write!(out, "}},\"seq\":{},\"start_tick\":{}", s.seq, s.start_tick);
    if let Some(end) = s.end_tick {
        let _ = write!(out, ",\"end_tick\":{end}");
    }
    if mode == TimeMode::Full {
        if let Some(wall) = s.wall {
            let _ = write!(out, ",\"wall_us\":{}", wall.as_micros());
        }
        if s.volatile {
            out.push_str(",\"volatile\":true");
        }
    }
    out.push('}');
}

/// Render spans as JSON-lines, one span object per line, in start order.
///
/// In [`TimeMode::Stable`], volatile spans (per-item operator detail, see
/// [`SpanRecord::volatile`]) are dropped and the surviving ids/seq are
/// renumbered compactly — the stable dump is byte-identical to one from a
/// run that never emitted them, so execution strategies that split a
/// stage differently still compare equal. Children of a dropped span are
/// re-parented to their nearest retained ancestor.
pub fn spans_to_json_lines(spans: &[SpanRecord], mode: TimeMode) -> String {
    let mut out = String::new();
    if mode == TimeMode::Stable && spans.iter().any(|s| s.volatile) {
        let parent_of: BTreeMap<u64, Option<u64>> =
            spans.iter().map(|s| (s.id, s.parent)).collect();
        let mut new_id: BTreeMap<u64, u64> = BTreeMap::new();
        for s in spans.iter().filter(|s| !s.volatile) {
            let next = new_id.len() as u64 + 1;
            new_id.insert(s.id, next);
        }
        for s in spans.iter().filter(|s| !s.volatile) {
            let mut r = s.clone();
            r.id = new_id[&s.id];
            let mut parent = s.parent;
            r.parent = loop {
                match parent {
                    None => break None,
                    Some(p) => match new_id.get(&p) {
                        Some(mapped) => break Some(*mapped),
                        None => parent = parent_of.get(&p).copied().flatten(),
                    },
                }
            };
            r.seq = r.id - 1;
            span_to_json(&mut out, &r, mode);
            out.push('\n');
        }
        return out;
    }
    for s in spans {
        span_to_json(&mut out, s, mode);
        out.push('\n');
    }
    out
}

/// Microseconds of chrome-trace time per virtual tick: ticks render as
/// milliseconds so day-granular spans are visible in the viewer.
const TICK_US: u64 = 1000;

/// Render spans as a chrome://tracing `trace_event` JSON array of complete
/// (`"ph":"X"`) events on the virtual clock. Load via `chrome://tracing`
/// or <https://ui.perfetto.dev>.
pub fn spans_to_chrome_trace(spans: &[SpanRecord]) -> String {
    let mut out = String::from("[");
    let mut first = true;
    for s in spans {
        let Some(end) = s.end_tick else { continue };
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n{\"name\":");
        escape_json(&mut out, &s.name);
        let ts = s.start_tick * TICK_US + s.seq;
        let dur = ((end - s.start_tick) * TICK_US).max(1);
        let _ = write!(
            out,
            ",\"cat\":\"seagull\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{dur},\"pid\":1,\"tid\":1,\"args\":{{"
        );
        for (k, v) in &s.labels {
            escape_json(&mut out, k);
            out.push(':');
            escape_json(&mut out, v);
            out.push(',');
        }
        let _ = write!(out, "\"id\":{}", s.id);
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        out.push_str("}}");
    }
    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Registry;
    use crate::trace::Tracer;

    #[test]
    fn prometheus_round_trip() {
        let reg = Registry::new();
        reg.counter(
            "seagull_ops_total",
            &[("region", "west"), ("stage", "ingestion")],
        )
        .add(7);
        reg.gauge("seagull_serve_epoch", &[("region", "west")])
            .set(2.0);
        let h = reg.histogram("seagull_stage_ticks", &[("region", "west")]);
        h.observe(1.0);
        h.observe(6.0);
        h.observe(7.0);

        let text = to_prometheus(&reg.snapshot());
        let parsed = parse_prometheus(&text).expect("parse");

        let find = |name: &str| {
            parsed
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing {name}"))
        };
        assert_eq!(find("seagull_ops_total").value, 7.0);
        assert_eq!(
            find("seagull_ops_total")
                .labels
                .get("stage")
                .map(String::as_str),
            Some("ingestion")
        );
        assert_eq!(find("seagull_serve_epoch").value, 2.0);
        assert_eq!(find("seagull_stage_ticks_count").value, 3.0);
        assert_eq!(find("seagull_stage_ticks_sum").value, 14.0);
        let inf_bucket = parsed
            .iter()
            .find(|s| {
                s.name == "seagull_stage_ticks_bucket"
                    && s.labels.get("le").map(String::as_str) == Some("+Inf")
            })
            .expect("+Inf bucket");
        assert_eq!(inf_bucket.value, 3.0);
    }

    #[test]
    fn prometheus_rendering_is_deterministic() {
        let build = || {
            let reg = Registry::new();
            // Register in scrambled order; BTreeMap snapshot sorts it.
            reg.counter("z_total", &[("region", "b")]).add(1);
            reg.counter("a_total", &[("region", "a")]).add(2);
            reg.counter("z_total", &[("region", "a")]).add(3);
            to_prometheus(&reg.snapshot())
        };
        assert_eq!(build(), build());
        let text = build();
        let a = text.find("a_total").unwrap();
        let z = text.find("z_total").unwrap();
        assert!(a < z, "samples must be name-sorted:\n{text}");
    }

    #[test]
    fn stable_span_dump_drops_and_renumbers_volatile_spans() {
        use std::time::Duration;
        // A "fused" trace: stage span with per-item volatile children, then
        // a later stage. The stable dump must be byte-identical to a trace
        // that never recorded the volatile spans.
        let fused = Tracer::new();
        let root = fused.start("run-week", &[("region", "west")], 0);
        let stage = fused.child(root, "train-infer", &[], 1);
        for server in 0..3 {
            fused.child_complete(
                stage,
                "fused-op",
                &[("server", &server.to_string())],
                1,
                1,
                Duration::from_millis(server),
            );
        }
        fused.end(stage, 2);
        let later = fused.child(root, "deployment", &[], 2);
        fused.end(later, 3);
        fused.end(root, 3);

        let plain = Tracer::new();
        let root = plain.start("run-week", &[("region", "west")], 0);
        let stage = plain.child(root, "train-infer", &[], 1);
        plain.end(stage, 2);
        let later = plain.child(root, "deployment", &[], 2);
        plain.end(later, 3);
        plain.end(root, 3);

        assert_eq!(
            spans_to_json_lines(&fused.spans(), TimeMode::Stable),
            spans_to_json_lines(&plain.spans(), TimeMode::Stable),
        );
        // The full dump keeps the operator spans, flagged volatile.
        let full = spans_to_json_lines(&fused.spans(), TimeMode::Full);
        assert_eq!(full.matches("\"volatile\":true").count(), 3);
    }

    #[test]
    fn stable_json_lines_are_reproducible() {
        let run = || {
            let t = Tracer::new();
            let root = t.start("w", &[("region", "east")], 7);
            let c = t.child(root, "stage", &[], 7);
            t.end(c, 8);
            t.end(root, 14);
            spans_to_json_lines(&t.spans(), TimeMode::Stable)
        };
        assert_eq!(run(), run());
    }
}
