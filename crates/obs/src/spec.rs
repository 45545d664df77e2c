//! The one spec grammar. Every grid point the workspace runs is named by
//! spec strings — protocol, delivery model, adversary/scenario, and the
//! list values of `.camp` keys — and every one of them is lexed here and
//! printed by [`write_call`]. The axis crates hold only their tables
//! (which heads exist, which arguments each reads, what ranges they
//! allow); the module sits in `obs`, beside [`crate::json`] and for the
//! same reason: `obs` is the one crate under `delivery`, `scenarios`,
//! `core` and `engine`.
//!
//! # The rules
//!
//! * A spec is `head` or `head(arg,…)`; `head()` ≡ `head`.
//! * Whitespace is trimmed around the spec, the head, and every
//!   argument, key and value.
//! * Arguments split at commas at parenthesis depth 0, so a nested spec
//!   (`churn(0.1,edge-markov(0.05,0.2))`) is one argument.
//! * Parentheses balance, and nothing follows the closing one.
//! * An empty piece (`a(1,,2)`, `a(1,)`, `a(,)`) is an error; in list
//!   position ([`split_list`]) an empty *value* is the empty list.
//! * An argument with an `=` before any parenthesis is `key=value`; a
//!   key appears at most once.
//! * Readers *consume* arguments — by key ([`Call::raw`],
//!   [`Call::named`]) or in order ([`Call::next_raw`], [`Call::next`]) —
//!   and [`Call::finish`] rejects whatever is left, by name.
//! * Typed values go through [`Value`]: integers as `FromStr` reads
//!   them; floats finite only, with −0.0 folded to 0.0 so one value has
//!   one canonical string.
//! * Error strings are built on the failure path only.

use std::fmt;

/// A typed argument value: whatever `FromStr` reads, then [`Value::admit`].
pub trait Value: std::str::FromStr {
    /// The value as the grammar admits it, `None` to reject it.
    fn admit(self) -> Option<Self> {
        Some(self)
    }
}

impl Value for usize {}

impl Value for u64 {}

/// Finite floats only, with −0.0 folded to 0.0 (−0.0 + 0.0 = +0.0; every
/// other finite value is unchanged).
impl Value for f64 {
    fn admit(self) -> Option<f64> {
        self.is_finite().then_some(self + 0.0)
    }
}

/// Reads `raw` as a `T`; the error names `what` and quotes `src`.
pub fn value<T: Value>(raw: &str, what: &str, src: &str) -> Result<T, String> {
    let read = raw.parse().ok().and_then(T::admit);
    read.ok_or_else(|| format!("bad {what} {raw:?} in {src:?}"))
}

/// `a, b, c` — the "valid: …" text of an unknown-name error, joined from
/// the table its parser dispatches on.
pub fn list<'a>(names: impl IntoIterator<Item = &'a str>) -> String {
    names.into_iter().collect::<Vec<_>>().join(", ")
}

/// Splits `s` at depth-0 commas into trimmed pieces, enforcing the
/// balance and empty-piece rules; a blank `s` has no pieces.
fn pieces<'a>(s: &'a str, src: &str) -> Result<Vec<&'a str>, String> {
    let mut out = Vec::new();
    if s.trim().is_empty() {
        return Ok(out);
    }
    let (mut depth, mut start) = (0usize, 0usize);
    // A sentinel comma closes the last piece (only at depth 0, so an
    // unclosed paren falls through to the balance check).
    for (i, c) in s.char_indices().chain([(s.len(), ',')]) {
        match c {
            '(' => depth += 1,
            ')' => match depth.checked_sub(1) {
                Some(outer) => depth = outer,
                None => return Err(format!("unbalanced `)` in {src:?}")),
            },
            ',' if depth == 0 => {
                let piece = s[start..i].trim();
                if piece.is_empty() {
                    return Err(format!("empty argument in {src:?}"));
                }
                out.push(piece);
                start = i + 1;
            }
            _ => {}
        }
    }
    if depth != 0 {
        return Err(format!("unclosed `(` in {src:?}"));
    }
    Ok(out)
}

/// The trimmed key and value of a `key=value` piece: one with an `=`
/// before any parenthesis.
fn keyed(piece: &str) -> Option<(&str, &str)> {
    let (key, value) = piece.split_once('=')?;
    (!key.contains('(')).then(|| (key.trim(), value.trim()))
}

/// Splits a `.camp` list value at depth-0 commas into trimmed specs. An
/// empty value is the empty list; an empty piece is an error.
pub fn split_list(s: &str) -> Result<Vec<&str>, String> {
    pieces(s, s)
}

/// A lexed spec: its head and the arguments no reader has consumed yet.
#[derive(Clone, Debug)]
pub struct Call<'a> {
    /// The whole trimmed spec text, quoted by error messages.
    pub src: &'a str,
    /// The trimmed name before the parenthesis.
    pub head: &'a str,
    args: Vec<&'a str>,
}

impl<'a> Call<'a> {
    /// Lexes `s` under the module rules. Which heads exist and which
    /// arguments they take is the caller's table.
    pub fn parse(s: &'a str) -> Result<Call<'a>, String> {
        let src = s.trim();
        let (head, inner) = match src.find('(') {
            None => (src, ""),
            Some(open) => match src[open + 1..].strip_suffix(')') {
                Some(inner) => (src[..open].trim_end(), inner),
                None => return Err(format!("spec {src:?} does not end with its closing paren")),
            },
        };
        let args = pieces(inner, src)?;
        let keys = || args.iter().filter_map(|piece| Some(keyed(piece)?.0));
        for (i, key) in keys().enumerate() {
            if keys().take(i).any(|earlier| earlier == key) {
                return Err(format!("duplicate key {key:?} in {src:?}"));
            }
        }
        Ok(Call { src, head, args })
    }

    /// Consumes the `key=value` argument named `key`; its raw value.
    pub fn raw(&mut self, key: &str) -> Option<&'a str> {
        let named = |piece: &&str| keyed(piece).is_some_and(|kv| kv.0 == key);
        let at = self.args.iter().position(named)?;
        keyed(self.args.remove(at)).map(|kv| kv.1)
    }

    /// Consumes the `key=value` argument named `key`, typed.
    pub fn named<T: Value>(&mut self, key: &str) -> Result<Option<T>, String> {
        self.raw(key)
            .map(|raw| value(raw, key, self.src))
            .transpose()
    }

    /// Consumes the next unread argument as a positional one: the whole
    /// piece, so a path or nested spec containing `=` stays intact.
    pub fn next_raw(&mut self) -> Option<&'a str> {
        (!self.args.is_empty()).then(|| self.args.remove(0))
    }

    /// Consumes the next unread argument as a positional one, typed;
    /// `what` names it in the error.
    pub fn next<T: Value>(&mut self, what: &str) -> Result<Option<T>, String> {
        self.next_raw()
            .map(|raw| value(raw, what, self.src))
            .transpose()
    }

    /// The error for a required argument no reader found.
    pub fn missing(&self, what: &str) -> String {
        format!(
            "{} is missing its {what} argument in {:?}",
            self.head, self.src
        )
    }

    /// Ends the parse: any argument still unread is an error naming it
    /// and listing `valid`, the arguments this head takes.
    pub fn finish(self, valid: &str) -> Result<(), String> {
        let Some(left) = self.args.first() else {
            return Ok(());
        };
        let (head, src) = (self.head, self.src);
        Err(match keyed(left) {
            Some((key, _)) => {
                format!("unknown {head} parameter {key:?} in {src:?} (valid: {valid})")
            }
            None => format!("unexpected {head} argument {left:?} in {src:?} (valid: {valid})"),
        })
    }
}

/// Prints `head`, or `head(a,k=v,…)` when there are arguments — the only
/// code that prints a spec. An empty key marks a positional argument.
pub fn write_call(
    f: &mut fmt::Formatter<'_>,
    head: &str,
    args: &[(&str, &dyn fmt::Display)],
) -> fmt::Result {
    f.write_str(head)?;
    for (i, (key, value)) in args.iter().enumerate() {
        f.write_str(if i == 0 { "(" } else { "," })?;
        if !key.is_empty() {
            write!(f, "{key}=")?;
        }
        write!(f, "{value}")?;
    }
    if !args.is_empty() {
        f.write_str(")")?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Moved here from `dyncode-dynet` with `split_top_level`, under the
    /// new rule: an empty piece and an unbalanced paren are errors.
    #[test]
    fn splits_only_at_depth_zero() {
        assert_eq!(
            split_list("a(1,2), b, c(d(3,4),5)").unwrap(),
            vec!["a(1,2)", "b", "c(d(3,4),5)"]
        );
        assert!(split_list("x, ,y").unwrap_err().contains("empty"));
        assert_eq!(split_list("").unwrap(), Vec::<&str>::new());
        assert!(split_list("a),b").unwrap_err().contains("unbalanced"));
        assert!(split_list("a(1,b").unwrap_err().contains("unclosed"));
    }

    /// Moved here from `dyncode-scenarios` with its re-export of the same.
    #[test]
    fn split_list_respects_parens() {
        assert_eq!(
            split_list("edge-markov(0.05,0.2), churn(0.1,waypoint(0.3,0.1))").unwrap(),
            vec!["edge-markov(0.05,0.2)", "churn(0.1,waypoint(0.3,0.1))"]
        );
        for bad in ["a, ,b", "a,", ",a", ","] {
            assert!(split_list(bad).unwrap_err().contains("empty"), "{bad:?}");
        }
        // An empty *value* is the empty list.
        assert_eq!(split_list("  ").unwrap(), Vec::<&str>::new());
    }

    #[test]
    fn calls_lex_heads_and_arguments() {
        let mut c = Call::parse("  radio ( p = 0.5 , spont=0.1 )  ").unwrap();
        assert_eq!((c.src, c.head), ("radio ( p = 0.5 , spont=0.1 )", "radio"));
        assert_eq!(c.named::<f64>("spont").unwrap(), Some(0.1));
        assert_eq!(c.raw("p"), Some("0.5"));
        assert_eq!(c.raw("p"), None, "readers consume");
        c.finish("p, spont").unwrap();

        // `head()` ≡ `head`, with or without inner whitespace.
        for bare in ["reliable", "reliable()", "reliable( )", " reliable () "] {
            let c = Call::parse(bare).unwrap();
            assert_eq!(c.head, "reliable", "{bare:?}");
            c.finish("none").unwrap();
        }

        // Positional readers take whole pieces, nested specs and `=` included.
        let mut c = Call::parse("churn(0.1,edge-markov(0.05,0.2))").unwrap();
        assert_eq!(c.next::<f64>("rate").unwrap(), Some(0.1));
        assert_eq!(c.next_raw(), Some("edge-markov(0.05,0.2)"));
        assert_eq!(c.next_raw(), None);
        let mut c = Call::parse("trace(runs/seed=3.dct)").unwrap();
        assert_eq!(c.next_raw(), Some("runs/seed=3.dct"));
    }

    #[test]
    fn malformed_calls_are_rejected_by_rule() {
        for (bad, why) in [
            ("a(1,,2)", "empty argument"),
            ("a(1,)", "empty argument"),
            ("a(,)", "empty argument"),
            ("a(1", "closing paren"),
            ("a(1) b", "closing paren"),
            ("a(1)(2)", "unbalanced"),
            ("a((1)", "unclosed"),
            ("a(k=1,k=2)", "duplicate key \"k\""),
            ("a(k=1, k =2)", "duplicate key \"k\""),
        ] {
            let err = Call::parse(bad).unwrap_err();
            assert!(err.contains(why), "{bad:?}: {err}");
        }
    }

    #[test]
    fn finish_names_what_is_left() {
        let mut c = Call::parse("greedy-forward(gather=2,cap=3)").unwrap();
        assert_eq!(c.named::<usize>("gather").unwrap(), Some(2));
        let err = c.finish("gather, bcast").unwrap_err();
        assert!(
            err.contains("\"cap\"") && err.contains("valid: gather, bcast"),
            "{err}"
        );
        let err = Call::parse("reliable(7)")
            .unwrap()
            .finish("no arguments")
            .unwrap_err();
        assert!(err.contains("unexpected reliable argument \"7\""), "{err}");
        let c = Call::parse("radio").unwrap();
        assert!(c.missing("p").contains("radio is missing its p argument"));
    }

    #[test]
    fn values_are_finite_and_zero_has_one_sign() {
        assert_eq!(value::<usize>("12", "n", "s"), Ok(12));
        assert!(value::<usize>("1n", "f", "q(f=1n)")
            .unwrap_err()
            .contains("bad f \"1n\" in \"q(f=1n)\""));
        assert_eq!(
            value::<u64>("18446744073709551615", "seed", "s"),
            Ok(u64::MAX)
        );
        assert!(value::<u64>("-1", "seed", "s").is_err());
        assert_eq!(value::<f64>("0.25", "p", "s"), Ok(0.25));
        let z = value::<f64>("-0.0", "p", "s").unwrap();
        assert!(z == 0.0 && z.is_sign_positive(), "−0.0 folds to 0.0");
        for bad in ["nan", "NaN", "inf", "-inf", "infinity", "1e999", "", "x"] {
            assert!(value::<f64>(bad, "p", "s").is_err(), "{bad:?}");
        }
    }

    struct Show<'a>(&'a str, &'a [(&'a str, &'a dyn fmt::Display)]);
    impl fmt::Display for Show<'_> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write_call(f, self.0, self.1)
        }
    }

    #[test]
    fn write_call_prints_what_parse_reads() {
        assert_eq!(Show("reliable", &[]).to_string(), "reliable");
        let inner = Show("edge-markov", &[("", &0.05), ("", &0.2)]);
        assert_eq!(inner.to_string(), "edge-markov(0.05,0.2)");
        let outer = Show("churn", &[("", &0.1), ("", &inner)]).to_string();
        assert_eq!(outer, "churn(0.1,edge-markov(0.05,0.2))");
        let mixed = Show("field-broadcast", &[("", &"m61"), ("det", &7)]).to_string();
        assert_eq!(mixed, "field-broadcast(m61,det=7)");
        let mut c = Call::parse(&mixed).unwrap();
        assert_eq!(c.next_raw(), Some("m61"));
        assert_eq!(c.named::<u64>("det").unwrap(), Some(7));
        c.finish("det").unwrap();
        assert_eq!(list(["a", "b(x)", "c"]), "a, b(x), c");
    }
}
