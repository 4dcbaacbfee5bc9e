//! JSON support for experiment data: the writer half is the
//! machine-readable sibling of the CSV writer in [`crate::write_csv`],
//! the reader half ([`parse_json`]) backs the shard-file metrics codec
//! ([`crate::metrics_codec`]).
//!
//! Every [`TextTable`](crate::TextTable) renders to a small JSON object
//! (`{"header": [...], "rows": [[...], ...]}`); the experiment binaries
//! use [`write_json`] to drop one file per scenario when `--json DIR` is
//! passed. Both halves are hand-rolled (the build environment is
//! offline, so no serde) but strict: the writer emits fully escaped
//! valid JSON, and the reader rejects malformed input with a byte
//! offset.

use crate::table::TextTable;
use std::fmt::{self, Write as _};
use std::io::{self, Write};
use std::path::Path;

/// Escapes a string for embedding in a JSON string literal: quotes,
/// backslashes, `\n`/`\r`/`\t`, and every other control character as
/// `\u00XX`. The one escaper every hand-rendered JSON document shares.
pub fn escape(s: &str) -> String {
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

fn string_array(cells: &[String]) -> String {
    let quoted: Vec<String> = cells.iter().map(|c| format!("\"{}\"", escape(c))).collect();
    format!("[{}]", quoted.join(", "))
}

impl TextTable {
    /// Renders the table as a JSON object with a `header` string array
    /// and a `rows` array of string arrays (cells keep the formatting
    /// the table was built with).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"header\": {},", string_array(self.header_cells()));
        out.push_str("  \"rows\": [");
        for (i, row) in self.data_rows().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    ");
            out.push_str(&string_array(row));
        }
        if !self.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Writes `table` as `<dir>/<name>.json`, creating `dir` if necessary.
///
/// # Errors
///
/// Propagates filesystem errors.
///
/// # Examples
///
/// ```no_run
/// use rfcache_sim::{write_json, TextTable};
///
/// let mut t = TextTable::new(vec!["bench".into(), "ipc".into()]);
/// t.row_f64("li", &[2.5]);
/// write_json("results", "fig6", &t)?;
/// # std::io::Result::Ok(())
/// ```
pub fn write_json<P: AsRef<Path>>(dir: P, name: &str, table: &TextTable) -> io::Result<()> {
    std::fs::create_dir_all(&dir)?;
    let path = dir.as_ref().join(format!("{name}.json"));
    let mut file = std::fs::File::create(path)?;
    file.write_all(table.to_json().as_bytes())
}

/// A parsed JSON value.
///
/// Numbers keep their literal text instead of an `f64` intermediate, so
/// integer counters up to `u64::MAX` survive parsing exactly — the
/// metrics codec depends on that.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its literal token (convert via
    /// [`as_u64`](Self::as_u64) / [`as_f64`](Self::as_f64)).
    Number(String),
    /// A string (escapes already decoded).
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Looks up a key of an object (`None` for other variants or a
    /// missing key).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an exact `u64` (numbers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value as an `f64` (numbers only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => n.parse().ok(),
            _ => None,
        }
    }

    /// The value as a string slice (strings only).
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool (booleans only).
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value's elements (arrays only).
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }
}

/// Renders a parsed value back to canonical one-line JSON text: object
/// keys in source order, `", "` between elements, `": "` after keys,
/// number literals preserved verbatim.
///
/// Canonical rendering gives every process the *same* text for the same
/// document, so a sweep definition embedded in a `POST /campaigns` body
/// and the same definition read from a file on another machine produce
/// identical [`crate::CampaignHeader`] sweep texts — which is what the
/// campaign fingerprint machinery compares.
pub fn render_json(value: &JsonValue) -> String {
    match value {
        JsonValue::Null => "null".to_string(),
        JsonValue::Bool(b) => b.to_string(),
        JsonValue::Number(n) => n.clone(),
        JsonValue::String(s) => format!("\"{}\"", escape(s)),
        JsonValue::Array(items) => {
            let parts: Vec<String> = items.iter().map(render_json).collect();
            format!("[{}]", parts.join(", "))
        }
        JsonValue::Object(fields) => {
            let parts: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("\"{}\": {}", escape(k), render_json(v)))
                .collect();
            format!("{{{}}}", parts.join(", "))
        }
    }
}

/// A JSON parse failure: what went wrong and the byte offset it was
/// detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonParseError {
    /// Byte offset into the input.
    pub offset: usize,
    /// What was expected or found.
    pub message: String,
}

impl fmt::Display for JsonParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonParseError {}

/// Parses one JSON document (trailing whitespace allowed, nothing else).
///
/// # Errors
///
/// Returns [`JsonParseError`] on malformed input.
///
/// # Examples
///
/// ```
/// use rfcache_sim::parse_json;
///
/// let v = parse_json(r#"{"cycles": 18446744073709551615}"#).unwrap();
/// assert_eq!(v.get("cycles").unwrap().as_u64(), Some(u64::MAX));
/// ```
pub fn parse_json(input: &str) -> Result<JsonValue, JsonParseError> {
    let mut p = Parser { bytes: input.as_bytes(), pos: 0, depth: 0 };
    p.skip_ws();
    let value = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the document"));
    }
    Ok(value)
}

/// Deeper nesting than any real document needs, but shallow enough that
/// a corrupt `[[[[…` line yields a parse error instead of blowing the
/// stack in the recursive-descent parser.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonParseError {
        JsonParseError { offset: self.pos, message: message.into() }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, byte: u8) -> Result<(), JsonParseError> {
        if self.peek() == Some(byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", byte as char)))
        }
    }

    fn literal(&mut self, text: &str, value: JsonValue) -> Result<JsonValue, JsonParseError> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(self.err(format!("expected `{text}`")))
        }
    }

    fn value(&mut self) -> Result<JsonValue, JsonParseError> {
        match self.peek() {
            Some(b'{') => self.nested(Self::object),
            Some(b'[') => self.nested(Self::array),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn nested(
        &mut self,
        parse: fn(&mut Self) -> Result<JsonValue, JsonParseError>,
    ) -> Result<JsonValue, JsonParseError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let value = parse(self);
        self.depth -= 1;
        value
    }

    fn object(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            fields.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(fields));
                }
                _ => return Err(self.err("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, JsonParseError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.err("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, JsonParseError> {
        self.expect(b'"')?;
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
                    let esc = self.peek().ok_or_else(|| self.err("unterminated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => out.push(self.unicode_escape()?),
                        other => {
                            self.pos -= 1;
                            return Err(self.err(format!("bad escape '\\{}'", other as char)));
                        }
                    }
                }
                Some(b) if b < 0x80 => {
                    // ASCII fast path (the overwhelmingly common case).
                    if b < 0x20 {
                        return Err(self.err("unescaped control character in string"));
                    }
                    out.push(b as char);
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one multi-byte UTF-8 character. Validating at
                    // most 4 bytes keeps string parsing linear (the input
                    // is a &str, so decoding cannot fail).
                    let end = (self.pos + 4).min(self.bytes.len());
                    let s = match std::str::from_utf8(&self.bytes[self.pos..end]) {
                        Ok(s) => s,
                        // The 4-byte window may split a trailing character;
                        // the valid prefix still holds the one we need.
                        Err(e) => {
                            std::str::from_utf8(&self.bytes[self.pos..self.pos + e.valid_up_to()])
                                .expect("valid prefix")
                        }
                    };
                    let c = s.chars().next().expect("peeked a non-empty char");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonParseError> {
        let end = self.pos + 4;
        let digits = self
            .bytes
            .get(self.pos..end)
            .and_then(|d| std::str::from_utf8(d).ok())
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let code = u32::from_str_radix(digits, 16)
            .map_err(|_| self.err("non-hex digits in \\u escape"))?;
        self.pos = end;
        Ok(code)
    }

    fn unicode_escape(&mut self) -> Result<char, JsonParseError> {
        let high = self.hex4()?;
        let code = if (0xd800..0xdc00).contains(&high) {
            // Surrogate pair: a second \uXXXX must follow.
            if self.bytes[self.pos..].starts_with(b"\\u") {
                self.pos += 2;
                let low = self.hex4()?;
                if !(0xdc00..0xe000).contains(&low) {
                    return Err(self.err("invalid low surrogate"));
                }
                0x10000 + ((high - 0xd800) << 10) + (low - 0xdc00)
            } else {
                return Err(self.err("lone high surrogate"));
            }
        } else if (0xdc00..0xe000).contains(&high) {
            return Err(self.err("lone low surrogate"));
        } else {
            high
        };
        char::from_u32(code).ok_or_else(|| self.err("invalid unicode escape"))
    }

    fn number(&mut self) -> Result<JsonValue, JsonParseError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let digits_start = self.pos;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.pos += 1;
        }
        if self.pos == digits_start {
            return Err(self.err("expected digits"));
        }
        // RFC 8259: no leading zeros ("01" is not a JSON number).
        if self.pos - digits_start > 1 && self.bytes[digits_start] == b'0' {
            return Err(self.err("leading zero in number"));
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            let frac_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == frac_start {
                return Err(self.err("expected digits after '.'"));
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            let exp_start = self.pos;
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
            if self.pos == exp_start {
                return Err(self.err("expected digits in exponent"));
            }
        }
        let literal = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("number tokens are ASCII")
            .to_string();
        Ok(JsonValue::Number(literal))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_header_and_rows_with_escaping() {
        let mut t = TextTable::new(vec!["k".into(), "v".into()]);
        t.row(vec!["quote\"back\\slash".into(), "line\nbreak\r\ttab".into()]);
        t.row(vec!["plain".into(), "1.25".into()]);
        let json = t.to_json();
        assert!(json.starts_with("{\n"));
        assert!(json.ends_with("}\n"));
        assert!(json.contains("\"header\": [\"k\", \"v\"],"));
        assert!(json.contains("[\"quote\\\"back\\\\slash\", \"line\\nbreak\\r\\ttab\"]"));
        assert!(json.contains("[\"plain\", \"1.25\"]"));
    }

    #[test]
    fn empty_table_renders_empty_rows_array() {
        let t = TextTable::new(vec!["only".into()]);
        assert_eq!(t.to_json(), "{\n  \"header\": [\"only\"],\n  \"rows\": []\n}\n");
    }

    #[test]
    fn control_characters_use_unicode_escapes() {
        assert_eq!(escape("a\u{1}b"), "a\\u0001b");
    }

    #[test]
    fn parses_scalars_containers_and_escapes() {
        let v = parse_json(r#"{"a": [1, -2.5, 1e3], "s": "q\"\\\nA😀", "t": true, "n": null}"#)
            .unwrap();
        let a = v.get("a").unwrap().as_array().unwrap();
        assert_eq!(a[0].as_u64(), Some(1));
        assert_eq!(a[1].as_f64(), Some(-2.5));
        assert_eq!(a[2].as_f64(), Some(1000.0));
        assert_eq!(v.get("s").unwrap().as_str(), Some("q\"\\\nA😀"));
        assert_eq!(v.get("t").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("n"), Some(&JsonValue::Null));
        assert_eq!(v.get("missing"), None);
    }

    #[test]
    fn deep_nesting_errors_instead_of_overflowing_the_stack() {
        let deep = "[".repeat(100_000);
        let err = parse_json(&deep).unwrap_err();
        assert!(err.message.contains("nesting deeper"), "{err}");
        // Nesting under the limit still parses.
        let ok = format!("{}1{}", "[".repeat(100), "]".repeat(100));
        assert!(parse_json(&ok).is_ok());
    }

    #[test]
    fn u64_max_survives_parsing_exactly() {
        let v = parse_json("18446744073709551615").unwrap();
        assert_eq!(v.as_u64(), Some(u64::MAX));
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in
            ["", "{", "[1,]", "{\"a\" 1}", "tru", "1 2", "\"unterminated", "01", "-007", "- 1"]
        {
            assert!(parse_json(bad).is_err(), "{bad:?} must not parse");
        }
        let err = parse_json("[1, }").unwrap_err();
        assert!(err.to_string().contains("byte 4"), "{err}");
    }

    #[test]
    fn reads_back_what_the_table_writer_emits() {
        let mut t = TextTable::new(vec!["k".into(), "v".into()]);
        t.row(vec!["quote\"back\\slash".into(), "line\nbreak\r\ttab".into()]);
        let v = parse_json(&t.to_json()).unwrap();
        let rows = v.get("rows").unwrap().as_array().unwrap();
        assert_eq!(rows[0].as_array().unwrap()[0].as_str(), Some("quote\"back\\slash"));
        assert_eq!(rows[0].as_array().unwrap()[1].as_str(), Some("line\nbreak\r\ttab"));
    }

    #[test]
    fn render_json_is_canonical_and_round_trips() {
        let text = "{\"b\":  1,\n \"a\": [true, null, \"x\\\"y\", 1.5, 18446744073709551615]}";
        let v = parse_json(text).unwrap();
        let canon = render_json(&v);
        assert_eq!(canon, "{\"b\": 1, \"a\": [true, null, \"x\\\"y\", 1.5, 18446744073709551615]}");
        // A canonical text is a fixed point.
        assert_eq!(render_json(&parse_json(&canon).unwrap()), canon);
    }

    #[test]
    fn write_json_creates_file() {
        let dir = std::env::temp_dir().join("rfcache_json_test");
        let _ = std::fs::remove_dir_all(&dir);
        let mut t = TextTable::new(vec!["k".into()]);
        t.row(vec!["v".into()]);
        write_json(&dir, "t", &t).unwrap();
        let content = std::fs::read_to_string(dir.join("t.json")).unwrap();
        assert!(content.contains("\"rows\": [\n    [\"v\"]\n  ]"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
