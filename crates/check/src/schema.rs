//! The shared machine-readable report envelope.
//!
//! `eos check --json` and `eos stats --json` emit the same top-level
//! shape — `{"clean": bool, "findings": [...], ...}` — so scripts can
//! gate on one schema regardless of which analyzer produced the
//! output. This module is the schema's single source of truth: a
//! dependency-free JSON parser (the workspace has no serde) plus
//! [`parse_envelope`], which validates the common fields and hands
//! back everything else as a generic [`Json`] tree.
//!
//! The parser is strict where it matters for round-tripping our own
//! emitters (objects, arrays, strings with the escapes
//! [`Report::to_json`](crate::Report) produces, integers, floats,
//! bools, null) and returns `Err` — never panics — on anything
//! malformed, in keeping with the crate's decode-tolerantly rule.

use std::iter::Peekable;
use std::str::Chars;

use eos_core::obs::json_string;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (JSON does not distinguish int from float).
    Num(f64),
    /// A string, unescaped.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Member lookup on an object; `None` on other variants or a
    /// missing key.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The boolean value, if this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if this is a number that
    /// round-trips losslessly through `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(n) if *n >= 0.0 && n.fract() == 0.0 && *n <= 2f64.powi(53) => Some(*n as u64),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Insert or replace a member on an object; no-op on other
    /// variants. Lets tools (the bench harness's `BENCH_obs.json`
    /// merger) update a document in place.
    pub fn set(&mut self, key: &str, value: Json) {
        if let Json::Obj(members) = self {
            match members.iter_mut().find(|(k, _)| k == key) {
                Some((_, v)) => *v = value,
                None => members.push((key.to_string(), value)),
            }
        }
    }

    /// Serialize back to JSON text (the inverse of [`parse`]; numbers
    /// that fit an integer render without a fraction).
    pub fn render(&self) -> String {
        match self {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) if n.fract() == 0.0 && n.abs() < 2f64.powi(53) => {
                format!("{}", *n as i64)
            }
            Json::Num(n) => n.to_string(),
            Json::Str(s) => json_string(s),
            Json::Arr(items) => {
                let body: Vec<String> = items.iter().map(Json::render).collect();
                format!("[{}]", body.join(","))
            }
            Json::Obj(members) => {
                let body: Vec<String> = members
                    .iter()
                    .map(|(k, v)| format!("{}:{}", json_string(k), v.render()))
                    .collect();
                format!("{{{}}}", body.join(","))
            }
        }
    }
}

/// Parse a complete JSON document. Trailing non-whitespace is an
/// error, as is any malformed construct — the parser never panics.
pub fn parse(input: &str) -> Result<Json, String> {
    let mut chars = input.chars().peekable();
    let value = parse_value(&mut chars)?;
    skip_ws(&mut chars);
    match chars.next() {
        None => Ok(value),
        Some(c) => Err(format!("trailing input starting at {c:?}")),
    }
}

fn skip_ws(chars: &mut Peekable<Chars<'_>>) {
    while matches!(chars.peek(), Some(' ' | '\t' | '\n' | '\r')) {
        chars.next();
    }
}

/// Consume `word` (minus its already-consumed first char) and yield
/// `value`.
fn parse_keyword(chars: &mut Peekable<Chars<'_>>, word: &str, value: Json) -> Result<Json, String> {
    for expect in word.chars().skip(1) {
        if chars.next() != Some(expect) {
            return Err(format!("invalid literal (expected {word:?})"));
        }
    }
    Ok(value)
}

fn parse_value(chars: &mut Peekable<Chars<'_>>) -> Result<Json, String> {
    skip_ws(chars);
    match chars.next() {
        Some('{') => parse_object(chars),
        Some('[') => parse_array(chars),
        Some('"') => parse_string(chars).map(Json::Str),
        Some('t') => parse_keyword(chars, "true", Json::Bool(true)),
        Some('f') => parse_keyword(chars, "false", Json::Bool(false)),
        Some('n') => parse_keyword(chars, "null", Json::Null),
        Some(c) if c == '-' || c.is_ascii_digit() => parse_number(chars, c),
        Some(c) => Err(format!("unexpected character {c:?}")),
        None => Err("unexpected end of input".into()),
    }
}

/// `{` already consumed.
fn parse_object(chars: &mut Peekable<Chars<'_>>) -> Result<Json, String> {
    let mut members = Vec::new();
    skip_ws(chars);
    if chars.peek() == Some(&'}') {
        chars.next();
        return Ok(Json::Obj(members));
    }
    loop {
        skip_ws(chars);
        if chars.next() != Some('"') {
            return Err("expected object key".into());
        }
        let key = parse_string(chars)?;
        skip_ws(chars);
        if chars.next() != Some(':') {
            return Err(format!("expected ':' after key {key:?}"));
        }
        members.push((key, parse_value(chars)?));
        skip_ws(chars);
        match chars.next() {
            Some(',') => {}
            Some('}') => return Ok(Json::Obj(members)),
            _ => return Err("expected ',' or '}' in object".into()),
        }
    }
}

/// `[` already consumed.
fn parse_array(chars: &mut Peekable<Chars<'_>>) -> Result<Json, String> {
    let mut items = Vec::new();
    skip_ws(chars);
    if chars.peek() == Some(&']') {
        chars.next();
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(chars)?);
        skip_ws(chars);
        match chars.next() {
            Some(',') => {}
            Some(']') => return Ok(Json::Arr(items)),
            _ => return Err("expected ',' or ']' in array".into()),
        }
    }
}

/// Opening `"` already consumed; unescapes as it goes.
fn parse_string(chars: &mut Peekable<Chars<'_>>) -> Result<String, String> {
    let mut out = String::new();
    loop {
        match chars.next() {
            Some('"') => return Ok(out),
            Some('\\') => match chars.next() {
                Some('"') => out.push('"'),
                Some('\\') => out.push('\\'),
                Some('/') => out.push('/'),
                Some('n') => out.push('\n'),
                Some('r') => out.push('\r'),
                Some('t') => out.push('\t'),
                Some('b') => out.push('\u{0008}'),
                Some('f') => out.push('\u{000c}'),
                Some('u') => {
                    let mut code = 0u32;
                    for _ in 0..4 {
                        let d = chars
                            .next()
                            .and_then(|c| c.to_digit(16))
                            .ok_or("bad \\u escape")?;
                        code = code * 16 + d;
                    }
                    // Surrogates can't appear in our emitters' output;
                    // map them to U+FFFD rather than erroring.
                    out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                }
                _ => return Err("bad escape in string".into()),
            },
            Some(c) => out.push(c),
            None => return Err("unterminated string".into()),
        }
    }
}

/// First char (`-` or a digit) already consumed.
fn parse_number(chars: &mut Peekable<Chars<'_>>, first: char) -> Result<Json, String> {
    let mut text = String::new();
    text.push(first);
    while let Some(&c) = chars.peek() {
        if c.is_ascii_digit() || matches!(c, '.' | 'e' | 'E' | '+' | '-') {
            text.push(c);
            chars.next();
        } else {
            break;
        }
    }
    text.parse::<f64>()
        .map(Json::Num)
        .map_err(|_| format!("bad number {text:?}"))
}

/// One finding from an envelope, with the severity/layer kept as the
/// strings the emitters use (`"error"`, `"buddy"`, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvelopeFinding {
    /// `"info"`, `"warning"`, or `"error"`.
    pub severity: String,
    /// The structural layer (`"buddy"`, `"wal"`, …).
    pub layer: String,
    /// Where the finding points.
    pub location: String,
    /// What is wrong.
    pub detail: String,
}

/// The fields every `eos … --json` report shares, plus the full parsed
/// body for tool-specific extras (`"pages"` for check, `"metrics"` for
/// stats).
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// `true` when nothing worse than info was found.
    pub clean: bool,
    /// Every finding, in discovery order.
    pub findings: Vec<EnvelopeFinding>,
    /// The whole document, for tool-specific fields.
    pub body: Json,
}

/// Parse and validate a shared-envelope report: the document must be
/// an object with a boolean `"clean"` and an array `"findings"` of
/// well-formed finding objects.
pub fn parse_envelope(input: &str) -> Result<Envelope, String> {
    let body = parse(input)?;
    let clean = body
        .get("clean")
        .and_then(Json::as_bool)
        .ok_or("envelope: missing boolean \"clean\"")?;
    let raw = body
        .get("findings")
        .and_then(Json::as_array)
        .ok_or("envelope: missing array \"findings\"")?;
    let mut findings = Vec::with_capacity(raw.len());
    for (i, f) in raw.iter().enumerate() {
        let field = |key: &str| -> Result<String, String> {
            f.get(key)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or_else(|| format!("finding {i}: missing string {key:?}"))
        };
        findings.push(EnvelopeFinding {
            severity: field("severity")?,
            layer: field("layer")?,
            location: field("location")?,
            detail: field("detail")?,
        });
    }
    Ok(Envelope {
        clean,
        findings,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Finding, Layer, Report, Severity};

    #[test]
    fn parses_scalars_and_nesting() {
        let j = parse(r#"{"a": [1, 2.5, -3], "b": {"c": true, "d": null}, "e": "x"}"#).unwrap();
        assert_eq!(j.get("a").unwrap().as_array().unwrap().len(), 3);
        assert_eq!(j.get("a").unwrap().as_array().unwrap()[0].as_u64(), Some(1));
        assert_eq!(j.get("b").unwrap().get("c").unwrap().as_bool(), Some(true));
        assert_eq!(j.get("b").unwrap().get("d"), Some(&Json::Null));
        assert_eq!(j.get("e").unwrap().as_str(), Some("x"));
        assert_eq!(j.get("missing"), None);
    }

    #[test]
    fn unescapes_strings() {
        let j = parse(r#""a\"b\\c\ndA""#).unwrap();
        assert_eq!(j.as_str(), Some("a\"b\\c\ndA"));
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "",
            "{",
            "[1,",
            "tru",
            "{\"a\" 1}",
            "{\"a\":1} x",
            "\"open",
            "01x",
            "{1: 2}",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }

    #[test]
    fn round_trips_a_check_report() {
        let report = Report {
            findings: vec![Finding {
                severity: Severity::Warning,
                layer: Layer::Census,
                location: "object \"a\\b\"".into(),
                detail: "line\nbreak".into(),
            }],
            spaces_checked: 2,
            objects_checked: 1,
            pages_scanned: 100,
        };
        let env = parse_envelope(&report.to_json()).unwrap();
        assert!(!env.clean);
        assert_eq!(env.findings.len(), 1);
        assert_eq!(env.findings[0].severity, "warning");
        assert_eq!(env.findings[0].layer, "census");
        assert_eq!(env.findings[0].location, "object \"a\\b\"");
        assert_eq!(env.findings[0].detail, "line\nbreak");
        assert_eq!(env.body.get("pages").unwrap().as_u64(), Some(100));
    }

    #[test]
    fn accepts_a_stats_style_envelope() {
        let doc = r#"{"clean":true,"findings":[],"metrics":{"ops":{"create":{"count":1,"seeks":3}},"counters":{"wal.frames":7}}}"#;
        let env = parse_envelope(doc).unwrap();
        assert!(env.clean);
        assert!(env.findings.is_empty());
        let create = env
            .body
            .get("metrics")
            .and_then(|m| m.get("ops"))
            .and_then(|o| o.get("create"))
            .unwrap();
        assert_eq!(create.get("seeks").unwrap().as_u64(), Some(3));
    }

    #[test]
    fn render_round_trips() {
        let text = r#"{"clean":true,"n":-3,"pi":2.5,"findings":[],"s":"a\"b","x":null}"#;
        let parsed = parse(text).unwrap();
        assert_eq!(parsed.render(), text);
        assert_eq!(parse(&parsed.render()).unwrap(), parsed);
    }

    #[test]
    fn set_replaces_and_inserts_members() {
        let mut doc = parse(r#"{"a":1}"#).unwrap();
        doc.set("a", Json::Num(2.0));
        doc.set("b", Json::Str("x".into()));
        assert_eq!(doc.render(), r#"{"a":2,"b":"x"}"#);
    }

    #[test]
    fn rejects_envelopes_missing_shared_fields() {
        assert!(parse_envelope(r#"{"findings":[]}"#).is_err());
        assert!(parse_envelope(r#"{"clean":true}"#).is_err());
        assert!(parse_envelope(r#"{"clean":true,"findings":[{"severity":"error"}]}"#).is_err());
        assert!(parse_envelope(r#"{"clean":"yes","findings":[]}"#).is_err());
    }
}
