//! The flat event record every sink receives, and its
//! `dyncode-events/v1` JSONL wire form (one JSON object per line).
//!
//! Lines are written and read in the workspace's one JSON dialect
//! ([`crate::json`]): strings go out through [`write_str`] and come back
//! through the shared [`Reader`], so what is a valid string, number or
//! comma here is what [`Json::parse`](crate::json::Json::parse) accepts.
//! The record does not go through the `Json` *tree*, though: that tree
//! holds every number as an `f64`, and an event's `u64`s (nanosecond
//! stamps, a histogram's `u64::MAX` bound) must round-trip exactly — so
//! [`Event::parse_line`] walks the flat fixed-key object itself and
//! keeps each number as text until the key decides `u64` or `f64`. The
//! format is strict both ways: [`Event::to_jsonl`] emits keys in a fixed
//! order and [`Event::parse_line`] rejects unknown keys, so
//! `parse(emit(e)) == e` holds for every event (the round-trip contract
//! locked by this module's tests and surfaced as `experiments obs check`).

use crate::json::{write_str, Reader};
use std::fmt::Write as _;

/// The event-stream schema identifier; bump on incompatible change. The
/// first line of every JSONL stream is a [`Kind::Meta`] event carrying it
/// in a `schema` field.
pub const EVENTS_SCHEMA: &str = "dyncode-events/v1";

/// What an [`Event`] records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Stream header (first line of a JSONL file; `schema` field).
    Meta,
    /// A closed span: `dur_ns` is wall duration, `self_ns` excludes
    /// same-thread child spans.
    Span,
    /// A counter snapshot: `value` is the absolute count.
    Counter,
    /// A gauge snapshot: `value` is the last set value.
    Gauge,
    /// A histogram snapshot: count/sum/percentiles ride in `fields`.
    Hist,
    /// A point event (lifecycle marks, panics, heartbeats).
    Mark,
    /// A leveled log line (`name` is the level, `msg` field is the text).
    Log,
}

impl Kind {
    /// The wire name (`"span"`, `"counter"`, …).
    pub fn name(&self) -> &'static str {
        match self {
            Kind::Meta => "meta",
            Kind::Span => "span",
            Kind::Counter => "counter",
            Kind::Gauge => "gauge",
            Kind::Hist => "hist",
            Kind::Mark => "mark",
            Kind::Log => "log",
        }
    }

    /// Parses a wire name; unknown names enumerate the valid ones.
    pub fn parse(s: &str) -> Result<Kind, String> {
        Ok(match s {
            "meta" => Kind::Meta,
            "span" => Kind::Span,
            "counter" => Kind::Counter,
            "gauge" => Kind::Gauge,
            "hist" => Kind::Hist,
            "mark" => Kind::Mark,
            "log" => Kind::Log,
            other => {
                return Err(format!(
                    "unknown event kind {other:?}; valid: meta, span, counter, gauge, hist, \
                     mark, log"
                ))
            }
        })
    }
}

/// A field value: unsigned integer, float, or string. Integral JSON
/// numbers parse back as [`Value::U64`], so emit integral quantities as
/// `U64` (the `From` impls do) to keep round trips exact.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// An unsigned integer (counts, ids, nanoseconds).
    U64(u64),
    /// A float (ratios; emitted via Rust's shortest round-trip display).
    F64(f64),
    /// A string (names, messages).
    Str(String),
}

impl From<u64> for Value {
    fn from(v: u64) -> Value {
        Value::U64(v)
    }
}
impl From<u32> for Value {
    fn from(v: u32) -> Value {
        Value::U64(v as u64)
    }
}
impl From<usize> for Value {
    fn from(v: usize) -> Value {
        Value::U64(v as u64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::F64(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(v)
    }
}

impl std::fmt::Display for Value {
    /// Human form (strings unquoted) — for stderr rendering, not JSON.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Value::U64(v) => write!(f, "{v}"),
            Value::F64(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

/// One telemetry event: the flat record every [`Sink`](crate::Sink)
/// receives and every JSONL line encodes.
#[derive(Clone, Debug, PartialEq)]
pub struct Event {
    /// What happened.
    pub kind: Kind,
    /// Low-cardinality event name (`kernel.eliminate`, `store.hits`, …).
    pub name: String,
    /// Nanoseconds since the process obs epoch (first telemetry call).
    pub t_ns: u64,
    /// Small sequential id of the emitting thread (not the OS tid).
    pub thread: u32,
    /// Span duration in nanoseconds ([`Kind::Span`]; optional elsewhere).
    pub dur_ns: Option<u64>,
    /// Span self time: duration minus same-thread child span time.
    pub self_ns: Option<u64>,
    /// Counter/gauge absolute value.
    pub value: Option<u64>,
    /// Extra key/value fields, order-preserving.
    pub fields: Vec<(String, Value)>,
}

impl Event {
    /// A bare event of `kind` stamped with the current time and thread.
    pub fn new(kind: Kind, name: &str) -> Event {
        Event {
            kind,
            name: name.to_string(),
            t_ns: crate::now_ns(),
            thread: crate::thread_id(),
            dur_ns: None,
            self_ns: None,
            value: None,
            fields: Vec::new(),
        }
    }

    /// A point event ([`Kind::Mark`]) with fields.
    pub fn mark(name: &str, fields: Vec<(String, Value)>) -> Event {
        let mut ev = Event::new(Kind::Mark, name);
        ev.fields = fields;
        ev
    }

    /// An aggregate span event: a phase total reported once (not via an
    /// RAII guard), so `self_ns == dur_ns`.
    pub fn span_total(name: &str, dur_ns: u64, fields: Vec<(String, Value)>) -> Event {
        let mut ev = Event::new(Kind::Span, name);
        ev.dur_ns = Some(dur_ns);
        ev.self_ns = Some(dur_ns);
        ev.fields = fields;
        ev
    }

    /// The stream-header event carrying [`EVENTS_SCHEMA`].
    pub fn stream_meta() -> Event {
        let mut ev = Event::new(Kind::Meta, "dyncode-events");
        ev.fields = vec![("schema".to_string(), Value::Str(EVENTS_SCHEMA.to_string()))];
        ev
    }

    /// The value of a named field, if present.
    pub fn field(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// A named field as `u64`, if present and integral.
    pub fn field_u64(&self, key: &str) -> Option<u64> {
        match self.field(key) {
            Some(Value::U64(v)) => Some(*v),
            _ => None,
        }
    }

    /// Serializes to one JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        s.push_str("{\"event\":");
        write_str(&mut s, self.kind.name());
        s.push_str(",\"name\":");
        write_str(&mut s, &self.name);
        let _ = write!(s, ",\"t_ns\":{},\"thread\":{}", self.t_ns, self.thread);
        if let Some(d) = self.dur_ns {
            let _ = write!(s, ",\"dur_ns\":{d}");
        }
        if let Some(d) = self.self_ns {
            let _ = write!(s, ",\"self_ns\":{d}");
        }
        if let Some(v) = self.value {
            let _ = write!(s, ",\"value\":{v}");
        }
        if !self.fields.is_empty() {
            s.push_str(",\"fields\":{");
            for (i, (k, v)) in self.fields.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                write_str(&mut s, k);
                s.push(':');
                match v {
                    Value::U64(n) => {
                        let _ = write!(s, "{n}");
                    }
                    // Rust's Display for f64 is the shortest string that
                    // parses back to the same value; force a ".0" on
                    // integral floats so they stay floats on re-parse.
                    Value::F64(n) => {
                        if n.fract() == 0.0 && n.is_finite() {
                            let _ = write!(s, "{n:.1}");
                        } else {
                            let _ = write!(s, "{n}");
                        }
                    }
                    Value::Str(t) => write_str(&mut s, t),
                }
            }
            s.push('}');
        }
        s.push('}');
        s
    }

    /// Parses one JSONL line; strict (unknown keys are errors).
    pub fn parse_line(line: &str) -> Result<Event, String> {
        let mut r = Reader::new(line);
        let (mut kind, mut name) = (None, None);
        let (mut t_ns, mut thread) = (None, None);
        let (mut dur_ns, mut self_ns, mut value) = (None, None, None);
        let mut fields = Vec::new();
        r.skip_ws();
        r.members(|r, key| {
            match key.as_str() {
                "event" => kind = Some(Kind::parse(&r.string()?)?),
                "name" => name = Some(r.string()?),
                "t_ns" => t_ns = Some(read_u64(r)?),
                "thread" => {
                    let id = read_u64(r)?;
                    thread = Some(
                        u32::try_from(id)
                            .map_err(|_| format!("\"thread\" {id} does not fit a u32"))?,
                    );
                }
                "dur_ns" => dur_ns = Some(read_u64(r)?),
                "self_ns" => self_ns = Some(read_u64(r)?),
                "value" => value = Some(read_u64(r)?),
                "fields" => r.members(|r, k| {
                    fields.push((k, read_value(r)?));
                    Ok(())
                })?,
                other => return Err(format!("unknown event key {other:?}")),
            }
            Ok(())
        })?;
        r.skip_ws();
        if r.peek().is_some() {
            return Err("trailing bytes after event object".to_string());
        }
        Ok(Event {
            kind: kind.ok_or("missing \"event\" key")?,
            name: name.ok_or("missing \"name\" key")?,
            t_ns: t_ns.ok_or("missing \"t_ns\" key")?,
            thread: thread.ok_or("missing \"thread\" key")?,
            dur_ns,
            self_ns,
            value,
            fields,
        })
    }
}

/// A number the key requires to be a `u64`, read from its text so that
/// values above 2^53 stay exact.
fn read_u64(r: &mut Reader) -> Result<u64, String> {
    let text = r.number_text()?;
    text.parse()
        .map_err(|_| format!("expected an unsigned integer, got {text:?}"))
}

/// A field value: a string, else a number that is a [`Value::U64`] when
/// its text is one and a [`Value::F64`] otherwise.
fn read_value(r: &mut Reader) -> Result<Value, String> {
    if r.peek() == Some(b'"') {
        return r.string().map(Value::Str);
    }
    let text = r.number_text()?;
    if let Ok(v) = text.parse() {
        return Ok(Value::U64(v));
    }
    text.parse()
        .map(Value::F64)
        .map_err(|_| format!("bad field value {text:?}"))
}

/// Parses a whole `dyncode-events/v1` stream: one event per non-empty
/// line, the first being a [`Kind::Meta`] header with a matching
/// `schema` field. Errors carry the 1-based line number.
pub fn parse_events(text: &str) -> Result<Vec<Event>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = Event::parse_line(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        if out.is_empty() {
            if ev.kind != Kind::Meta {
                return Err(format!(
                    "line {}: stream must start with a meta event",
                    i + 1
                ));
            }
            match ev.field("schema") {
                Some(Value::Str(s)) if s == EVENTS_SCHEMA => {}
                Some(Value::Str(s)) => {
                    return Err(format!(
                        "line {}: unsupported schema {s:?}, expected {EVENTS_SCHEMA:?}",
                        i + 1
                    ))
                }
                _ => return Err(format!("line {}: meta event has no schema field", i + 1)),
            }
        }
        out.push(ev);
    }
    if out.is_empty() {
        return Err("empty event stream (no meta header)".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trips_exactly() {
        let mut ev = Event::new(Kind::Span, "kernel.eliminate");
        ev.t_ns = 123_456;
        ev.thread = 3;
        ev.dur_ns = Some(42_000);
        ev.self_ns = Some(40_000);
        ev.fields = vec![
            ("rounds".to_string(), Value::U64(48)),
            ("ratio".to_string(), Value::F64(0.625)),
            ("whole".to_string(), Value::F64(2.0)),
            (
                "note".to_string(),
                Value::Str("quotes \" back\\slash\nnewline\ttab\u{1}".to_string()),
            ),
        ];
        let line = ev.to_jsonl();
        // The wire bytes, recorded before the codec merge.
        assert_eq!(
            line,
            r#"{"event":"span","name":"kernel.eliminate","t_ns":123456,"thread":3,"dur_ns":42000,"self_ns":40000,"fields":{"rounds":48,"ratio":0.625,"whole":2.0,"note":"quotes \" back\\slash\nnewline\ttab\u0001"}}"#
        );
        let back = Event::parse_line(&line).expect("parse");
        assert_eq!(back, ev);
        assert_eq!(back.to_jsonl(), line);

        let mut counter = Event::new(Kind::Counter, "store.hits");
        counter.t_ns = 9;
        counter.thread = 0;
        counter.value = Some(17);
        let back = Event::parse_line(&counter.to_jsonl()).expect("parse");
        assert_eq!(back, counter);
    }

    #[test]
    fn integers_above_2_pow_53_and_integral_floats_round_trip_exactly() {
        // Why events bypass the `Json` tree: it would hold both as f64.
        let mut ev = Event::new(Kind::Hist, "store.get_ns");
        ev.t_ns = u64::MAX;
        ev.value = Some(u64::MAX - 1);
        ev.fields = vec![
            ("max".to_string(), Value::U64(u64::MAX)),
            ("whole".to_string(), Value::F64(2.0)),
        ];
        let line = ev.to_jsonl();
        assert!(
            line.contains(r#""max":18446744073709551615,"whole":2.0"#),
            "{line}"
        );
        assert_eq!(Event::parse_line(&line).expect("parse"), ev);
    }

    /// One dialect: `Json::parse` and `Event::parse_line` accept and
    /// reject the same strings, commas and nesting.
    #[test]
    fn event_lines_and_json_documents_share_one_dialect() {
        let named = |name: &str| format!(r#"{{"event":"mark","name":{name},"t_ns":1,"thread":0}}"#);
        let bomb = "[".repeat(100_000);
        for (what, line, valid) in [
            ("plain", named(r#""x""#), true),
            ("surrogate pair", named(r#""\ud83d\ude00""#), true),
            ("lone high surrogate", named(r#""\ud83d""#), false),
            ("lone low surrogate", named(r#""\ude00""#), false),
            ("signed \\u escape", named(r#""\u+041""#), false),
            ("unterminated string", named(r#""x"#), false),
            (
                "trailing comma",
                r#"{"event":"mark","name":"x","t_ns":1,"thread":0,}"#.to_string(),
                false,
            ),
            (
                "trailing comma in fields",
                r#"{"event":"mark","name":"x","t_ns":1,"thread":0,"fields":{"a":1,}}"#.to_string(),
                false,
            ),
            (
                "100 KB of '[' in a field",
                format!(
                    r#"{{"event":"mark","name":"x","t_ns":1,"thread":0,"fields":{{"a":{bomb}}}}}"#
                ),
                false,
            ),
        ] {
            let tree = crate::json::Json::parse(&line);
            let event = Event::parse_line(&line);
            assert_eq!(tree.is_ok(), valid, "{what}: Json::parse gave {tree:?}");
            assert_eq!(event.is_ok(), valid, "{what}: parse_line gave {event:?}");
        }
        let smile = Event::parse_line(&named(r#""\ud83d\ude00""#)).unwrap();
        assert_eq!(smile.name, "\u{1F600}");
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for (line, needle) in [
            ("{}", "missing \"event\""),
            (r#"{"event":"span"}"#, "missing \"name\""),
            (
                r#"{"event":"warp","name":"x","t_ns":1,"thread":0}"#,
                "unknown event kind",
            ),
            (
                r#"{"event":"span","name":"x","t_ns":1,"thread":0,"bogus":1}"#,
                "unknown event key",
            ),
            (
                r#"{"event":"span","name":"x","t_ns":1,"thread":0} trailing"#,
                "trailing bytes",
            ),
            (
                r#"{"event":"span","name":"x","t_ns":-4,"thread":0}"#,
                "unsigned integer",
            ),
            // 2^32 + 1 used to wrap to thread 1.
            (
                r#"{"event":"span","name":"x","t_ns":1,"thread":4294967297}"#,
                "\"thread\" 4294967297",
            ),
        ] {
            let err = Event::parse_line(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
    }

    #[test]
    fn stream_parse_requires_the_meta_header() {
        let meta = Event::stream_meta().to_jsonl();
        let span = Event::span_total("kernel.csr", 5, Vec::new()).to_jsonl();
        let ok = parse_events(&format!("{meta}\n{span}\n")).expect("valid stream");
        assert_eq!(ok.len(), 2);
        assert_eq!(ok[0].kind, Kind::Meta);

        let err = parse_events(&format!("{span}\n")).unwrap_err();
        assert!(err.contains("meta"), "{err}");
        let bad = meta.replace("dyncode-events/v1", "dyncode-events/v9");
        let err = parse_events(&format!("{bad}\n")).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        assert!(parse_events("").is_err());
    }

    #[test]
    fn field_accessors() {
        let ev = Event::mark(
            "executor.worker",
            vec![
                ("worker".to_string(), Value::U64(2)),
                ("note".to_string(), Value::Str("x".to_string())),
            ],
        );
        assert_eq!(ev.field_u64("worker"), Some(2));
        assert_eq!(ev.field_u64("note"), None);
        assert_eq!(ev.field("absent"), None);
    }
}
