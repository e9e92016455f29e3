//! Reading span dumps back. `seagull-obs` writes JSON-lines spans and
//! chrome://tracing arrays but stays a leaf crate with no dependencies, so
//! the one reader of its dumps lives here, on the workspace's JSON reader
//! (`serde_json::from_str`). `obs_dump` and the observability tests use it
//! to check that a dump round-trips.

use seagull_obs::SpanRecord;
use serde_json::Value;

/// Parse a JSON-lines span dump back into records (wall time, if present,
/// is restored with microsecond precision).
pub fn parse_span_json_lines(text: &str) -> Result<Vec<SpanRecord>, String> {
    let mut spans = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v = serde_json::from_str(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let err = |msg: &str| format!("line {}: {msg}", lineno + 1);
        let obj = v.as_object().ok_or_else(|| err("not an object"))?;
        let get_u64 = |key: &str| -> Option<u64> { obj.get(key).and_then(|v| v.as_u64()) };
        let labels = match obj.get("labels") {
            Some(Value::Object(map)) => map
                .iter()
                .map(|(k, v)| {
                    v.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| err("label value not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            _ => Vec::new(),
        };
        spans.push(SpanRecord {
            id: get_u64("id").ok_or_else(|| err("missing id"))?,
            parent: get_u64("parent"),
            name: obj
                .get("name")
                .and_then(|v| v.as_str())
                .ok_or_else(|| err("missing name"))?
                .to_string(),
            labels,
            seq: get_u64("seq").ok_or_else(|| err("missing seq"))?,
            start_tick: get_u64("start_tick").ok_or_else(|| err("missing start_tick"))?,
            end_tick: get_u64("end_tick"),
            wall: get_u64("wall_us").map(std::time::Duration::from_micros),
            volatile: obj.get("volatile").and_then(Value::as_bool) == Some(true),
        });
    }
    Ok(spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use seagull_obs::export::{spans_to_chrome_trace, spans_to_json_lines};
    use seagull_obs::{TimeMode, Tracer};
    use std::time::Duration;

    #[test]
    fn span_json_lines_round_trip() {
        let t = Tracer::new();
        let root = t.start("run-week", &[("region", "west")], 0);
        let child = t.child(root, "train \"quoted\"", &[], 2);
        t.end(child, 5);
        t.end(root, 7);

        for mode in [TimeMode::Stable, TimeMode::Full] {
            let text = spans_to_json_lines(&t.spans(), mode);
            let parsed = parse_span_json_lines(&text).expect("parse");
            assert_eq!(parsed.len(), 2);
            assert_eq!(parsed[0].name, "run-week");
            assert_eq!(
                parsed[0].labels,
                vec![("region".to_string(), "west".to_string())]
            );
            assert_eq!(parsed[1].parent, Some(parsed[0].id));
            assert_eq!(parsed[1].name, "train \"quoted\"");
            assert_eq!(parsed[1].start_tick, 2);
            assert_eq!(parsed[1].end_tick, Some(5));
            match mode {
                TimeMode::Stable => assert!(parsed.iter().all(|s| s.wall.is_none())),
                TimeMode::Full => assert!(parsed.iter().all(|s| s.wall.is_some())),
            }
        }
    }

    /// The full dump keeps per-item operator spans, and they read back
    /// flagged volatile.
    #[test]
    fn volatile_spans_read_back_flagged() {
        let t = Tracer::new();
        let root = t.start("run-week", &[("region", "west")], 0);
        let stage = t.child(root, "train-infer", &[], 1);
        for server in 0..3 {
            t.child_complete(
                stage,
                "fused-op",
                &[("server", &server.to_string())],
                1,
                1,
                Duration::from_millis(server),
            );
        }
        t.end(stage, 2);
        t.end(root, 3);
        let full = spans_to_json_lines(&t.spans(), TimeMode::Full);
        let parsed = parse_span_json_lines(&full).expect("parse full dump");
        assert_eq!(parsed.iter().filter(|s| s.volatile).count(), 3);
    }

    /// An escaped surrogate pair is the character it encodes, and a number
    /// with a leading zero is not JSON.
    #[test]
    fn span_json_lines_parse_strictly() {
        let line = r#"{"id":1,"parent":null,"name":"\ud83d\ude00 run","labels":{},"seq":0,"start_tick":0}"#;
        let parsed = parse_span_json_lines(line).expect("parse");
        assert_eq!(parsed[0].name, "\u{1f600} run");
        let leading_zero = line.replace("\"id\":1", "\"id\":01");
        assert!(parse_span_json_lines(&leading_zero).is_err());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_expected_events() {
        let t = Tracer::new();
        let root = t.start("run-week", &[("region", "west")], 0);
        let child = t.child(root, "ingestion", &[], 0);
        t.end(child, 1);
        t.end(root, 7);
        let _unfinished = t.start("pending", &[], 3);

        let text = spans_to_chrome_trace(&t.spans());
        let v = serde_json::from_str(&text).expect("chrome trace must be valid JSON");
        let events = v.as_array().expect("array");
        assert_eq!(events.len(), 2, "unfinished spans are skipped");
        let first = &events[0];
        assert_eq!(first.get("name").and_then(|v| v.as_str()), Some("run-week"));
        assert_eq!(first.get("ph").and_then(|v| v.as_str()), Some("X"));
        assert_eq!(first.get("dur").and_then(|v| v.as_u64()), Some(7000));
        assert_eq!(
            first
                .get("args")
                .and_then(|a| a.get("region"))
                .and_then(|v| v.as_str()),
            Some("west")
        );
    }
}
