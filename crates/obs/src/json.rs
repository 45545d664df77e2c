//! The workspace's one JSON dialect: a minimal, dependency-free value
//! ([`Json`]) with a deterministic writer and a strict recursive-descent
//! parser, and the pieces both are built from — the lexer ([`Reader`]),
//! the pretty layout ([`Writer`]) and the string escaper ([`write_str`]).
//!
//! It lives in `dyncode-obs` because obs is the dependency-free crate
//! under every JSON user (`dyncode_engine::{json, Json}` re-export it).
//! Artifacts, store objects, sidecars, `dyncode-metrics/v1` files and
//! `dyncode-events/v1` lines all go through this module, so the escape
//! table, the `\u`/surrogate rules, the number grammar, comma strictness
//! and [`MAX_DEPTH`] are decided here once.
//!
//! The artifact pipeline needs exactly three things from JSON: (1) a
//! writer whose output is **byte-stable** — same value in, same bytes out,
//! independent of thread count or platform (objects are ordered
//! `Vec<(String, Json)>`, never a hash map); (2) a parser good enough to
//! read back what the writer emits (plus anything a human edits by hand);
//! (3) lossless `f64`/`u64` round-trips via Rust's shortest-round-trip
//! float formatting. Non-finite floats serialize as `null` and parse back
//! as NaN, so failed sweeps (mean over zero completions) survive a
//! round-trip.

/// A JSON value. Object keys keep insertion order — determinism of the
/// emitted artifact bytes depends on it.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null` (also the encoding of non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number; written without a fractional part when integral.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience constructor for an object.
    pub fn obj(fields: Vec<(&str, Json)>) -> Json {
        Json::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an f64 (`Null` reads as NaN, the writer's encoding of
    /// non-finite numbers).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            Json::Null => Some(f64::NAN),
            _ => None,
        }
    }

    /// The value as a u64 if it is an integral number in range.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(x) if x.fract() == 0.0 && *x >= 0.0 && *x <= 2f64.powi(53) => Some(*x as u64),
            _ => None,
        }
    }

    /// The value as a usize if it is an integral number in range.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_u64().map(|x| x as usize)
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    /// A required object field read through one of the `as_*` accessors
    /// (`json.req("seed", Json::as_u64)?`); an absent or mistyped field
    /// is an error naming the key. Every schema decoder reads its fields
    /// through this, so they all reject alike.
    pub fn req<'a, T>(
        &'a self,
        key: &str,
        as_t: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T, String> {
        self.get(key)
            .and_then(as_t)
            .ok_or_else(|| format!("missing/mistyped field {key:?}"))
    }

    /// Pretty-prints with two-space indentation. The output is a pure
    /// function of the value: artifacts compared byte-for-byte rely on
    /// this.
    pub fn pretty(&self) -> String {
        let mut w = Writer::default();
        self.write(&mut w);
        w.finish()
    }

    fn write(&self, w: &mut Writer) {
        match self {
            Json::Null => w.out.push_str("null"),
            Json::Bool(b) => w.out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) => write_num(&mut w.out, *x),
            Json::Str(s) => w.str(s),
            Json::Arr(items) => {
                w.begin('[');
                for item in items {
                    w.item();
                    item.write(w);
                }
                w.end(']');
            }
            Json::Obj(fields) => {
                w.begin('{');
                for (k, v) in fields {
                    w.key(k);
                    v.write(w);
                }
                w.end('}');
            }
        }
    }

    /// Parses a JSON document (one value, optionally surrounded by
    /// whitespace). Containers nested deeper than [`MAX_DEPTH`] are an
    /// error, so no input can overflow the stack.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Reader::new(text);
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

/// The pretty layout, streamed: two-space indentation, one entry per
/// line, `"key": value`, and `[]` / `{}` for an empty container.
/// [`Json::pretty`] is a walk over this; a caller whose numbers must not
/// pass through `f64` (`dyncode-metrics/v1` counters are exact `u64`s)
/// drives it directly.
#[derive(Debug, Default)]
pub struct Writer {
    out: String,
    depth: usize,
    /// Nothing has been written yet inside the innermost open container.
    empty: bool,
}

impl Writer {
    /// Opens a container with `'{'` or `'['`.
    pub fn begin(&mut self, open: char) {
        self.out.push(open);
        self.depth += 1;
        self.empty = true;
    }

    /// Closes the innermost container with `'}'` or `']'`.
    pub fn end(&mut self, close: char) {
        self.depth -= 1;
        if !self.empty {
            self.newline();
        }
        self.empty = false;
        self.out.push(close);
    }

    /// Starts the next entry of the open container on a line of its own.
    fn item(&mut self) {
        if !self.empty {
            self.out.push(',');
        }
        self.empty = false;
        self.newline();
    }

    /// Starts the next object member: `"key": `, the value follows.
    pub fn key(&mut self, key: &str) {
        self.item();
        write_str(&mut self.out, key);
        self.out.push_str(": ");
    }

    /// A string value.
    pub fn str(&mut self, s: &str) {
        write_str(&mut self.out, s);
    }

    /// An unsigned integer value, printed exactly.
    pub fn u64(&mut self, v: u64) {
        self.out.push_str(&v.to_string());
    }

    /// The finished document, newline-terminated.
    pub fn finish(mut self) -> String {
        self.out.push('\n');
        self.out
    }

    fn newline(&mut self) {
        self.out.push('\n');
        for _ in 0..self.depth {
            self.out.push_str("  ");
        }
    }
}

fn write_num(out: &mut String, x: f64) {
    if !x.is_finite() {
        out.push_str("null");
    } else if x.fract() == 0.0 && x.abs() <= 2f64.powi(53) {
        // Integral values print without the ".0" Display would omit
        // anyway, but via i64/u64 to dodge exponent notation entirely.
        if x < 0.0 {
            out.push_str(&(x as i64).to_string());
        } else {
            out.push_str(&(x as u64).to_string());
        }
    } else {
        // Rust's shortest-round-trip Display: deterministic and lossless.
        out.push_str(&x.to_string());
    }
}

/// Appends `s` as a JSON string literal (quoted, escaped) — the one
/// escape table every writer in the workspace uses.
pub fn write_str(out: &mut String, s: &str) {
    out.push('"');
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
    out.push('"');
}

/// Deepest array/object nesting [`Json::parse`] accepts. The parser
/// recurses once per level and a stack overflow aborts the process (no
/// `catch_unwind` contains it), so files from disk must not choose the
/// depth; the repo's own schemas nest fewer than 10 levels.
pub const MAX_DEPTH: usize = 64;

/// The one lexer: a cursor over the text that knows the dialect's
/// whitespace, string, number and object-member rules. [`Json::parse`]
/// builds its tree over it; `Event::parse_line` walks its flat
/// fixed-key record over it directly, because an event's numbers must
/// stay text until the key decides `u64` or `f64`.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Reader<'a> {
        Reader {
            bytes: text.as_bytes(),
            pos: 0,
            depth: 0,
        }
    }

    /// Skips ASCII whitespace.
    pub fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    /// The next byte, unconsumed; `None` at the end of the text.
    pub fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Consumes the next byte if it is `b`.
    pub fn eat(&mut self, b: u8) -> bool {
        let hit = self.peek() == Some(b);
        self.pos += hit as usize;
        hit
    }

    /// Consumes `b` or fails naming the byte offset.
    pub fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.eat(b) {
            Ok(())
        } else {
            Err(format!(
                "expected '{}' at byte {}, found {:?}",
                b as char,
                self.pos,
                self.peek().map(|c| c as char)
            ))
        }
    }

    fn literal(&mut self, word: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.nested(Self::array),
            Some(b'{') => self.nested(Self::object),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            other => Err(format!(
                "unexpected {:?} at byte {}",
                other.map(|c| c as char),
                self.pos
            )),
        }
    }

    /// Parses one array or object, one nesting level down.
    fn nested(&mut self, container: fn(&mut Self) -> Result<Json, String>) -> Result<Json, String> {
        if self.depth == MAX_DEPTH {
            return Err(format!(
                "nesting deeper than {MAX_DEPTH} levels at byte {}",
                self.pos
            ));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    /// Scans one number and returns its text unparsed — the caller
    /// decides the type (`f64` for the tree, `u64` where an event key
    /// demands exactness).
    pub fn number_text(&mut self) -> Result<&'a str, String> {
        let start = self.pos;
        while let Some(c) = self.peek() {
            if c.is_ascii_digit() || matches!(c, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        if start == self.pos {
            return Err(format!("expected a number at byte {start}"));
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number bytes"))
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let text = self.number_text()?;
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    }

    /// The four hex digits of a `\u` escape. Digits only: the integer
    /// parsers of std would also take a sign (`\u+041`).
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .ok_or("truncated \\u escape")?;
        let code = hex
            .iter()
            .try_fold(0, |acc, &b| Some(acc * 16 + (b as char).to_digit(16)?))
            .ok_or_else(|| format!("bad \\u escape at byte {}", self.pos))?;
        self.pos += 4;
        Ok(code)
    }

    /// Reads one string literal, unescaped (`\u` surrogate pairs joined,
    /// lone surrogates rejected).
    pub fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            // Find the next escape or closing quote; bytes in between are
            // verbatim UTF-8 (the input is a &str, so always valid).
            let start = self.pos;
            while let Some(c) = self.peek() {
                if c == b'"' || c == b'\\' {
                    break;
                }
                self.pos += 1;
            }
            s.push_str(std::str::from_utf8(&self.bytes[start..self.pos]).unwrap());
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(s);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'u' => {
                            let code = self.hex4()?;
                            if (0xD800..=0xDBFF).contains(&code) {
                                // High surrogate: a low surrogate escape
                                // must follow (standard JSON encodes
                                // non-BMP characters as a pair).
                                if self.bytes.get(self.pos..self.pos + 2) != Some(b"\\u") {
                                    return Err("high surrogate without low surrogate".into());
                                }
                                self.pos += 2;
                                let low = self.hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&low) {
                                    return Err("invalid low surrogate".into());
                                }
                                let cp = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
                                s.push(char::from_u32(cp).ok_or("bad surrogate pair")?);
                            } else {
                                s.push(char::from_u32(code).ok_or("bad \\u code point")?);
                            }
                        }
                        other => return Err(format!("bad escape '\\{}'", other as char)),
                    }
                }
                _ => return Err("unterminated string".into()),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        let mut items = Vec::new();
        self.entries(b'[', b']', |r| {
            items.push(r.value()?);
            Ok(())
        })?;
        Ok(Json::Arr(items))
    }

    fn object(&mut self) -> Result<Json, String> {
        let mut fields = Vec::new();
        self.members(|r, key| {
            fields.push((key, r.value()?));
            Ok(())
        })?;
        Ok(Json::Obj(fields))
    }

    /// Walks one object: `{`, then `member(self, key)` with the reader
    /// at each member's value, then `}`.
    pub fn members(
        &mut self,
        mut member: impl FnMut(&mut Self, String) -> Result<(), String>,
    ) -> Result<(), String> {
        self.entries(b'{', b'}', |r| {
            let key = r.string()?;
            r.skip_ws();
            r.expect(b':')?;
            r.skip_ws();
            member(r, key)
        })
    }

    /// Walks one container, `entry` reading each of its entries — the one
    /// comma rule: entries are comma-separated and a trailing comma is an
    /// error.
    fn entries(
        &mut self,
        open: u8,
        close: u8,
        mut entry: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(open)?;
        self.skip_ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            self.skip_ws();
            entry(self)?;
            self.skip_ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(b',') {
                return Err(format!(
                    "expected ',' or '{}' at byte {}",
                    close as char, self.pos
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Json) {
        let text = v.pretty();
        let back = Json::parse(&text).expect("parse back");
        assert_eq!(&back, v, "round trip through:\n{text}");
        // Writing again is byte-identical: the writer is a pure function.
        assert_eq!(back.pretty(), text);
    }

    #[test]
    fn scalar_round_trips() {
        round_trip(&Json::Null);
        round_trip(&Json::Bool(true));
        round_trip(&Json::Num(0.0));
        round_trip(&Json::Num(-17.0));
        round_trip(&Json::Num(std::f64::consts::PI));
        round_trip(&Json::Num(1e300));
        round_trip(&Json::Str("he said \"hi\"\n\ttab\\done".into()));
        round_trip(&Json::Str("unicode: ∞ ≈ ½".into()));
    }

    #[test]
    fn structures_round_trip() {
        round_trip(&Json::Arr(vec![]));
        round_trip(&Json::Obj(vec![]));
        round_trip(&Json::obj(vec![
            ("id", Json::Str("e1".into())),
            (
                "cells",
                Json::Arr(vec![Json::obj(vec![
                    ("label", Json::Str("n=16".into())),
                    ("mean", Json::Num(42.5)),
                    ("seeds", Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)])),
                ])]),
            ),
        ]));
    }

    #[test]
    fn non_finite_floats_become_null() {
        assert_eq!(Json::Num(f64::NAN).pretty(), "null\n");
        assert_eq!(Json::Num(f64::INFINITY).pretty(), "null\n");
        let parsed = Json::parse("null").unwrap();
        assert!(parsed.as_f64().unwrap().is_nan());
    }

    #[test]
    fn integers_print_without_fraction() {
        assert_eq!(Json::Num(7.0).pretty(), "7\n");
        assert_eq!(Json::Num(-7.0).pretty(), "-7\n");
        assert_eq!(Json::Num((1u64 << 40) as f64).pretty(), "1099511627776\n");
    }

    #[test]
    fn surrogate_pair_escapes_parse() {
        let v = Json::parse(r#""\ud83d\ude00 ok""#).unwrap();
        assert_eq!(v.as_str(), Some("\u{1F600} ok"));
        // Unpaired or malformed surrogates are errors, not panics.
        assert!(Json::parse(r#""\ud83d""#).is_err());
        assert!(Json::parse(r#""\ud83dA""#).is_err());
        assert!(Json::parse(r#""\ude00""#).is_err());
    }

    #[test]
    fn unicode_escapes_take_four_hex_digits_and_no_sign() {
        assert_eq!(Json::parse(r#""\u0041""#).unwrap().as_str(), Some("A"));
        assert_eq!(
            Json::parse(r#""\u00e9\u00E9""#).unwrap().as_str(),
            Some("éé")
        );
        // `u32::from_str_radix` would read "+041" as 0x41.
        for bad in [
            r#""\u+041""#,
            r#""\u-041""#,
            r#""\u 041""#,
            r#""\u004""#,
            r#""\u00é""#,
        ] {
            let err = Json::parse(bad).unwrap_err();
            assert!(err.contains("\\u escape"), "{bad}: {err}");
        }
    }

    #[test]
    fn writer_prints_u64_exactly_in_the_pretty_layout() {
        let mut w = Writer::default();
        w.begin('{');
        w.key("max");
        w.u64(u64::MAX);
        w.key("empty");
        w.begin('{');
        w.end('}');
        w.end('}');
        assert_eq!(
            w.finish(),
            "{\n  \"max\": 18446744073709551615,\n  \"empty\": {}\n}\n"
        );
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1, 2,]").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("nul").is_err());
    }

    #[test]
    fn nesting_is_bounded_not_a_stack_overflow() {
        let nest = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        // 100 KB of '[' used to abort the process.
        let err = Json::parse(&"[".repeat(100_000)).unwrap_err();
        assert!(err.contains(&format!("at byte {MAX_DEPTH}")), "{err}");
        let objects = "{\"a\":".repeat(100_000);
        assert!(Json::parse(&objects).unwrap_err().contains("nesting"));
    }

    #[test]
    fn object_lookup_helpers() {
        let v = Json::obj(vec![
            ("a", Json::Num(1.0)),
            ("b", Json::Str("x".into())),
            ("c", Json::Bool(false)),
        ]);
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(1));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("c").and_then(Json::as_bool), Some(false));
        assert!(v.get("missing").is_none());
        assert!(Json::Null.get("a").is_none());
    }
}
