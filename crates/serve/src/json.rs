//! Minimal JSON codec for the HTTP wire protocol.
//!
//! The workspace builds with zero external crates, so the HTTP front-end
//! carries its own JSON layer: a strict recursive-descent parser (bounded
//! nesting depth, full string-escape handling including surrogate pairs,
//! rejection of trailing garbage) and a renderer whose number formatting is
//! *round-trip exact* for `f32` payloads — an `f32` widened to `f64` renders
//! as the shortest decimal that parses back to the identical bit pattern,
//! which is what lets the serving tests demand bit-for-bit agreement between
//! HTTP responses and in-process predictions.
//!
//! On top of the generic [`Json`] value, this module fixes the wire schema
//! of the two domain payloads:
//!
//! * request object — `{"tokens": [u32, ...], "domain": n,
//!   "style": [f32; STYLE_DIM]?, "emotion": [f32; EMOTION_DIM]?}`
//!   ([`encode_request`] / [`decode_request`]); unknown keys are rejected so
//!   client typos fail loudly instead of silently serving defaults;
//! * prediction object — `{"fake_prob": p, "is_fake": bool,
//!   "logits": [real, fake], "domain_scores": [f32, ...]?}`
//!   ([`encode_prediction`] / [`decode_prediction`]).

use crate::session::Prediction;
use dtdbd_data::InferenceRequest;
use std::fmt::{self, Write as _};

/// Deepest object/array nesting the parser will follow before giving up.
/// Recursion is bounded, so hostile bodies cannot overflow the stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON document.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers included).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the first value).
    Obj(Vec<(String, Json)>),
}

/// Why a document failed to parse, with the byte offset of the problem.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset into the input where parsing failed.
    pub offset: usize,
    /// Human-readable reason.
    pub message: &'static str,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at byte {}", self.message, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Look up a key in an object; `None` for missing keys or non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Self::Obj(entries) => entries.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Self::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Self::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Self::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Self::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is a number with no
    /// fractional part that fits `u64` exactly.
    pub fn as_u64(&self) -> Option<u64> {
        let v = self.as_f64()?;
        // 2^53 bounds the integers f64 represents exactly.
        if v.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&v) {
            Some(v as u64)
        } else {
            None
        }
    }

    /// Render to compact JSON text. Non-finite numbers (which JSON cannot
    /// express) render as `null`; the serving payloads never produce them.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_to(&mut out);
        out
    }

    fn write_to(&self, out: &mut String) {
        match self {
            Self::Null => out.push_str("null"),
            Self::Bool(true) => out.push_str("true"),
            Self::Bool(false) => out.push_str("false"),
            Self::Num(v) => {
                if v.is_finite() {
                    write!(out, "{v}").expect("write to String");
                } else {
                    out.push_str("null");
                }
            }
            Self::Str(s) => write_escaped(out, s),
            Self::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_to(out);
                }
                out.push(']');
            }
            Self::Obj(entries) => {
                out.push('{');
                for (i, (key, value)) in entries.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, key);
                    out.push(':');
                    value.write_to(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::Num(v as f64)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

/// `None` becomes `null`.
impl From<Option<f64>> for Json {
    fn from(v: Option<f64>) -> Self {
        v.map_or(Json::Null, Json::Num)
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Parse a complete JSON document. The whole input must be consumed;
/// trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn err(&self, message: &'static str) -> JsonError {
        JsonError {
            offset: self.pos,
            message,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8, message: &'static str) -> Result<(), JsonError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(message))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal(b"true", Json::Bool(true)),
            Some(b'f') => self.literal(b"false", Json::Bool(false)),
            Some(b'n') => self.literal(b"null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    fn literal(&mut self, text: &'static [u8], value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(text) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err("invalid literal"))
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'{', "expected '{'")?;
        let mut entries = Vec::new();
        // Hashed dedup keeps parsing linear: a linear scan of `entries` per
        // key would let a many-key body burn quadratic CPU per request.
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(entries));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':', "expected ':' after object key")?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            if seen.insert(key.clone()) {
                entries.push((key, value));
            }
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(entries));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.expect(b'[', "expected '['")?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"', "expected '\"'")?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(c) if c < 0x20 => return Err(self.err("control character in string")),
                Some(c) if c < 0x80 => {
                    out.push(c as char);
                    self.pos += 1;
                }
                Some(c) => {
                    // Multi-byte UTF-8: the input is a &str, so the sequence
                    // is valid and `c` is a leading byte (the parser only
                    // advances by whole scalars). Derive the width from it
                    // instead of re-validating the whole tail, which would
                    // make string parsing quadratic.
                    let width = match c {
                        0xC0..=0xDF => 2,
                        0xE0..=0xEF => 3,
                        _ => 4,
                    };
                    let chunk = std::str::from_utf8(&self.bytes[self.pos..self.pos + width])
                        .expect("input is valid UTF-8");
                    out.push_str(chunk);
                    self.pos += width;
                }
            }
        }
    }

    fn escape(&mut self) -> Result<char, JsonError> {
        let c = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{08}',
            b'f' => '\u{0C}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let high = self.hex4()?;
                if (0xD800..0xDC00).contains(&high) {
                    // High surrogate: a \uDC00..\uDFFF low surrogate must follow.
                    if self.peek() != Some(b'\\') {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 1;
                    if self.peek() != Some(b'u') {
                        return Err(self.err("lone high surrogate"));
                    }
                    self.pos += 1;
                    let low = self.hex4()?;
                    if !(0xDC00..0xE000).contains(&low) {
                        return Err(self.err("invalid low surrogate"));
                    }
                    let scalar = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                    char::from_u32(scalar).ok_or_else(|| self.err("invalid surrogate pair"))?
                } else if (0xDC00..0xE000).contains(&high) {
                    return Err(self.err("lone low surrogate"));
                } else {
                    char::from_u32(high).ok_or_else(|| self.err("invalid \\u escape"))?
                }
            }
            _ => return Err(self.err("invalid escape character")),
        })
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut value = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.err("invalid hex digit in \\u escape"))?;
            value = value * 16 + digit;
            self.pos += 1;
        }
        Ok(value)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one digit, or a non-zero digit followed by more.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(c) if c.is_ascii_digit() => {
                while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                    self.pos += 1;
                }
            }
            _ => return Err(self.err("invalid number")),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("digits required after decimal point"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                return Err(self.err("digits required in exponent"));
            }
            while matches!(self.peek(), Some(c) if c.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ASCII number");
        let value: f64 = text.parse().map_err(|_| self.err("unparseable number"))?;
        if !value.is_finite() {
            return Err(self.err("number out of range"));
        }
        Ok(Json::Num(value))
    }
}

fn f32_array(values: &[f32]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(f64::from(v))).collect())
}

fn decode_f32_array(json: &Json, what: &str) -> Result<Vec<f32>, String> {
    let items = json
        .as_array()
        .ok_or_else(|| format!("{what} must be an array of numbers"))?;
    items
        .iter()
        .map(|item| {
            item.as_f64()
                .map(|v| v as f32)
                .ok_or_else(|| format!("{what} must contain only numbers"))
        })
        .collect()
}

/// Serialize an [`InferenceRequest`] to its wire object (the client half of
/// the protocol; tests, the example, and the benchmark all speak through
/// this).
pub fn encode_request(request: &InferenceRequest) -> Json {
    let mut entries = vec![
        (
            "tokens".to_string(),
            Json::Arr(
                request
                    .tokens
                    .iter()
                    .map(|&t| Json::Num(f64::from(t)))
                    .collect(),
            ),
        ),
        ("domain".to_string(), Json::Num(request.domain as f64)),
    ];
    if let Some(style) = &request.style {
        entries.push(("style".to_string(), f32_array(style)));
    }
    if let Some(emotion) = &request.emotion {
        entries.push(("emotion".to_string(), f32_array(emotion)));
    }
    Json::Obj(entries)
}

/// Decode a wire object into an [`InferenceRequest`]. Shape errors (wrong
/// types, unknown keys) are reported here; *semantic* validation (token
/// range, domain count, feature dimensions) stays with
/// [`dtdbd_data::RequestEncoder`].
pub fn decode_request(json: &Json) -> Result<InferenceRequest, String> {
    let entries = match json {
        Json::Obj(entries) => entries,
        _ => return Err("request must be a JSON object".to_string()),
    };
    for (key, _) in entries {
        if !matches!(key.as_str(), "tokens" | "domain" | "style" | "emotion") {
            return Err(format!("unknown request field {key:?}"));
        }
    }
    let tokens_json = json.get("tokens").ok_or("missing \"tokens\" field")?;
    let tokens = tokens_json
        .as_array()
        .ok_or("\"tokens\" must be an array")?
        .iter()
        .map(|t| {
            t.as_u64()
                .filter(|&v| v <= u64::from(u32::MAX))
                .map(|v| v as u32)
                .ok_or("\"tokens\" must contain non-negative integers below 2^32".to_string())
        })
        .collect::<Result<Vec<u32>, String>>()?;
    let domain = json
        .get("domain")
        .ok_or("missing \"domain\" field")?
        .as_u64()
        .ok_or("\"domain\" must be a non-negative integer")? as usize;
    let style = json
        .get("style")
        .map(|s| decode_f32_array(s, "\"style\""))
        .transpose()?;
    let emotion = json
        .get("emotion")
        .map(|e| decode_f32_array(e, "\"emotion\""))
        .transpose()?;
    Ok(InferenceRequest {
        tokens,
        domain,
        style,
        emotion,
    })
}

/// Serialize a [`Prediction`] to its wire object.
pub fn encode_prediction(prediction: &Prediction) -> Json {
    let mut entries = vec![
        (
            "fake_prob".to_string(),
            Json::Num(f64::from(prediction.fake_prob)),
        ),
        ("is_fake".to_string(), Json::Bool(prediction.is_fake())),
        ("logits".to_string(), f32_array(&prediction.logits)),
    ];
    if let Some(scores) = &prediction.domain_scores {
        entries.push(("domain_scores".to_string(), f32_array(scores)));
    }
    Json::Obj(entries)
}

/// Decode a wire object back into a [`Prediction`] (the client half; used by
/// the tests to compare served answers bit-for-bit against in-process ones).
pub fn decode_prediction(json: &Json) -> Result<Prediction, String> {
    let fake_prob = json
        .get("fake_prob")
        .and_then(Json::as_f64)
        .ok_or("missing numeric \"fake_prob\"")? as f32;
    let logits = decode_f32_array(
        json.get("logits").ok_or("missing \"logits\"")?,
        "\"logits\"",
    )?;
    if logits.len() != 2 {
        return Err(format!(
            "\"logits\" must have 2 entries, got {}",
            logits.len()
        ));
    }
    let domain_scores = json
        .get("domain_scores")
        .map(|s| decode_f32_array(s, "\"domain_scores\""))
        .transpose()?;
    Ok(Prediction {
        fake_prob,
        logits: [logits[0], logits[1]],
        domain_scores,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_ok(text: &str) -> Json {
        parse(text).unwrap_or_else(|e| panic!("{text:?}: {e}"))
    }

    #[test]
    fn parses_the_basic_shapes() {
        assert_eq!(parse_ok("null"), Json::Null);
        assert_eq!(parse_ok(" true "), Json::Bool(true));
        assert_eq!(parse_ok("-0.5e2"), Json::Num(-50.0));
        assert_eq!(parse_ok(r#""a\nb""#), Json::Str("a\nb".to_string()));
        assert_eq!(
            parse_ok(r#"[1, "x", [true]]"#),
            Json::Arr(vec![
                Json::Num(1.0),
                Json::Str("x".to_string()),
                Json::Arr(vec![Json::Bool(true)]),
            ])
        );
        assert_eq!(
            parse_ok(r#"{"a": 1, "b": {"c": null}}"#),
            Json::Obj(vec![
                ("a".to_string(), Json::Num(1.0)),
                (
                    "b".to_string(),
                    Json::Obj(vec![("c".to_string(), Json::Null)])
                ),
            ])
        );
    }

    #[test]
    fn unicode_escapes_and_surrogate_pairs_decode() {
        assert_eq!(parse_ok(r#""\u00e9""#), Json::Str("é".to_string()));
        assert_eq!(parse_ok(r#""\ud83d\ude00""#), Json::Str("😀".to_string()));
        assert!(parse(r#""\ud83d""#).is_err(), "lone high surrogate");
        assert!(parse(r#""\ude00""#).is_err(), "lone low surrogate");
    }

    #[test]
    fn malformed_documents_are_rejected_with_offsets() {
        for bad in [
            "",
            "{",
            "[1,",
            "{\"a\"}",
            "01",
            "1.",
            "1e",
            "tru",
            "\"\\x\"",
            "\"",
            "[1]]",
            "1 2",
            "+1",
            "nul",
            "{\"a\":1,}",
            "[,]",
            "\u{7}",
        ] {
            let err = parse(bad).expect_err(bad);
            assert!(err.offset <= bad.len());
        }
    }

    #[test]
    fn deep_nesting_is_bounded_not_a_stack_overflow() {
        let deep = "[".repeat(MAX_DEPTH + 10) + &"]".repeat(MAX_DEPTH + 10);
        assert_eq!(parse(&deep).unwrap_err().message, "nesting too deep");
        let ok_depth = "[".repeat(MAX_DEPTH) + &"]".repeat(MAX_DEPTH);
        assert!(parse(&ok_depth).is_ok());
    }

    #[test]
    fn render_parse_round_trips() {
        let doc = Json::Obj(vec![
            (
                "text".to_string(),
                Json::Str("he said \"hi\"\n\t\\".to_string()),
            ),
            ("n".to_string(), Json::Num(-12.25)),
            (
                "mix".to_string(),
                Json::Arr(vec![
                    Json::Null,
                    Json::Bool(false),
                    Json::Str("é😀".to_string()),
                ]),
            ),
        ]);
        assert_eq!(parse_ok(&doc.render()), doc);
    }

    #[test]
    fn f32_payloads_round_trip_bit_exactly() {
        // Awkward values: subnormal, max, third, negative zero.
        for v in [
            f32::MIN_POSITIVE / 8.0,
            f32::MAX,
            1.0f32 / 3.0,
            -0.0f32,
            0.333_333_34f32,
            std::f32::consts::E,
        ] {
            let text = Json::Num(f64::from(v)).render();
            let back = parse_ok(&text).as_f64().unwrap() as f32;
            assert_eq!(back.to_bits(), v.to_bits(), "{v} via {text}");
        }
    }

    #[test]
    fn request_codec_round_trips_and_rejects_junk() {
        let full = InferenceRequest {
            tokens: vec![3, 1, 4, 1, 5],
            domain: 2,
            style: Some(vec![0.25, -1.5]),
            emotion: Some(vec![0.0; 3]),
        };
        let decoded = decode_request(&parse_ok(&encode_request(&full).render())).unwrap();
        assert_eq!(decoded.tokens, full.tokens);
        assert_eq!(decoded.domain, full.domain);
        assert_eq!(decoded.style, full.style);
        assert_eq!(decoded.emotion, full.emotion);

        let minimal = InferenceRequest::new(vec![7], 0);
        let decoded = decode_request(&parse_ok(&encode_request(&minimal).render())).unwrap();
        assert_eq!(decoded.style, None);
        assert_eq!(decoded.emotion, None);

        for bad in [
            r#"[1,2]"#,
            r#"{"domain": 0}"#,
            r#"{"tokens": [1], "domain": -1}"#,
            r#"{"tokens": [1.5], "domain": 0}"#,
            r#"{"tokens": "x", "domain": 0}"#,
            r#"{"tokens": [1], "domain": 0, "bogus": 1}"#,
            r#"{"tokens": [1], "domain": 0, "style": "loud"}"#,
            r#"{"tokens": [4294967296], "domain": 0}"#,
        ] {
            assert!(decode_request(&parse_ok(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn prediction_codec_round_trips_bit_exactly() {
        let p = Prediction {
            fake_prob: 0.123_456_79,
            logits: [-1.5, 2.25],
            domain_scores: Some(vec![0.1, 0.2, 0.7]),
        };
        let back = decode_prediction(&parse_ok(&encode_prediction(&p).render())).unwrap();
        assert_eq!(back.fake_prob.to_bits(), p.fake_prob.to_bits());
        assert_eq!(back.logits[0].to_bits(), p.logits[0].to_bits());
        assert_eq!(back.logits[1].to_bits(), p.logits[1].to_bits());
        let back_scores = back.domain_scores.unwrap();
        for (a, b) in back_scores.iter().zip(p.domain_scores.unwrap()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }

        let no_domain = Prediction {
            fake_prob: 0.9,
            logits: [0.0, 1.0],
            domain_scores: None,
        };
        let json = encode_prediction(&no_domain);
        assert!(json.get("domain_scores").is_none());
        assert_eq!(json.get("is_fake"), Some(&Json::Bool(true)));
        assert!(decode_prediction(&parse_ok(&json.render())).is_ok());
    }

    #[test]
    fn duplicate_object_keys_keep_the_first_value() {
        assert_eq!(
            parse_ok(r#"{"a": 1, "a": 2}"#),
            Json::Obj(vec![("a".to_string(), Json::Num(1.0))])
        );
    }
}
