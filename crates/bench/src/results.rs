//! Machine-readable bench results, persisted to `BENCH_SHARED_MEMO.json`
//! at the repository root so future PRs can diff performance numbers
//! instead of re-reading CI logs.
//!
//! The file is one JSON object with a top-level key per bench (e.g.
//! `memo_churn`, `checked_vs_unchecked`); [`record`] read-modify-writes it
//! so each bench replaces only its own section.  The container has no
//! crates.io access, so the (tiny) JSON reader/writer lives here — it
//! supports exactly the JSON this module emits plus tolerant parsing of
//! hand edits.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Version of the per-bench section layout this module writes.  Bumped
/// whenever a field is added, removed or re-interpreted, so downstream
/// tooling (and CI's "persisted and parseable" gate) can tell a stale file
/// from a current one instead of guessing from the field set.
///
/// History: 1 = the original `smoke` + `scenarios` layout; 2 = sections
/// carry `schema_version` and the `type_core` scenarios exist; 3 = the
/// `recheck_latency` section (incremental re-checking cold/warm medians)
/// exists and the file is written atomically (temp + rename); 4 = the
/// `lint_latency` section (dataflow lint suite cold/warm medians) exists;
/// 5 = the `effect_latency` section (interprocedural effect inference
/// cold/warm medians) exists and `lint_latency` is Merkle-keyed and
/// summaries-aware; 6 = the `recheck_latency` section carries the
/// `parse/recovering` and `parse/strict` rows (the error-recovering front
/// end vs its strict fail-stop wrapper over the clean corpus, feeding the
/// 5%-regression gate); 7 = `memo_churn` no longer carries the
/// `type_core` rows or the mutex-baseline rows (`memo_read/mutex`,
/// `warm_read/mutex`, `churn/m25_mutex`).
pub const SCHEMA_VERSION: u32 = 7;

/// One measured scenario: a stable name, the median wall-clock per
/// operation, and the memo counters the run ended with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scenario {
    /// Stable scenario id, e.g. `warm_read/seqlock` or `churn/m25`.
    pub name: String,
    /// Median nanoseconds per measured operation.
    pub median_ns: u128,
    /// Memo hits over the recorded run.
    pub hits: u64,
    /// Memo misses over the recorded run.
    pub misses: u64,
    /// Stamp invalidations over the recorded run.
    pub invalidations: u64,
    /// Capacity evictions over the recorded run.
    pub evictions: u64,
}

impl Scenario {
    /// Builds a scenario row from a memo's counter snapshot, so benches
    /// never transcribe the four counters by hand.
    pub fn from_stats(name: &str, median_ns: u128, stats: comprdl::MemoStats) -> Self {
        Scenario {
            name: name.to_string(),
            median_ns,
            hits: stats.hits,
            misses: stats.misses,
            invalidations: stats.invalidations,
            evictions: stats.evictions,
        }
    }

    /// Hit rate of the recorded run, in percent.
    pub fn hit_rate_pct(&self) -> f64 {
        comprdl::MemoStats {
            hits: self.hits,
            misses: self.misses,
            invalidations: self.invalidations,
            evictions: self.evictions,
        }
        .hit_rate()
            * 100.0
    }
}

/// Median of per-operation timings in nanoseconds (consumes and sorts the
/// samples).  One definition shared by every bench so the statistic cannot
/// drift between them.
///
/// # Panics
///
/// Panics on an empty sample set — a bench that measured nothing is a bug.
pub fn median_ns(mut samples: Vec<u128>) -> u128 {
    assert!(!samples.is_empty(), "median of zero samples");
    samples.sort_unstable();
    samples[samples.len() / 2]
}

/// A parsed JSON value.  Numbers keep their source text so foreign
/// sections round-trip byte-exactly.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw token.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; `BTreeMap` so serialization is deterministic.
    Obj(BTreeMap<String, Json>),
}

/// Parses a JSON document.
///
/// # Errors
///
/// Returns a byte offset + message on malformed input.
pub fn parse(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {pos}", ch as char))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => {
            *pos += 1;
            let mut map = BTreeMap::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                expect(bytes, pos, b':')?;
                let value = parse_value(bytes, pos)?;
                map.insert(key, value);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(map));
                    }
                    _ => return Err(format!("expected `,` or `}}` at byte {pos}")),
                }
            }
        }
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected `,` or `]` at byte {pos}")),
                }
            }
        }
        Some(b'"') => Ok(Json::Str(parse_string(bytes, pos)?)),
        Some(b't') if bytes[*pos..].starts_with(b"true") => {
            *pos += 4;
            Ok(Json::Bool(true))
        }
        Some(b'f') if bytes[*pos..].starts_with(b"false") => {
            *pos += 5;
            Ok(Json::Bool(false))
        }
        Some(b'n') if bytes[*pos..].starts_with(b"null") => {
            *pos += 4;
            Ok(Json::Null)
        }
        Some(c) if c.is_ascii_digit() || *c == b'-' => {
            let start = *pos;
            *pos += 1;
            while *pos < bytes.len()
                && matches!(bytes[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
            {
                *pos += 1;
            }
            Ok(Json::Num(text_slice(bytes, start, *pos)))
        }
        _ => Err(format!("unexpected input at byte {pos}")),
    }
}

fn text_slice(bytes: &[u8], start: usize, end: usize) -> String {
    String::from_utf8_lossy(&bytes[start..end]).into_owned()
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    if bytes.get(*pos) != Some(&b'"') {
        return Err(format!("expected string at byte {pos}"));
    }
    *pos += 1;
    // Collect raw bytes (escapes decoded to their UTF-8 encodings) and
    // validate once at the end: pushing bytes >= 0x80 through `as char`
    // would reinterpret multi-byte UTF-8 sequences as Latin-1.
    let mut out: Vec<u8> = Vec::new();
    while let Some(&c) = bytes.get(*pos) {
        *pos += 1;
        match c {
            b'"' => return Ok(String::from_utf8_lossy(&out).into_owned()),
            b'\\' => {
                let esc = bytes.get(*pos).copied().ok_or("unterminated escape")?;
                *pos += 1;
                let decoded = match esc {
                    b'"' => '"',
                    b'\\' => '\\',
                    b'/' => '/',
                    b'n' => '\n',
                    b't' => '\t',
                    b'r' => '\r',
                    b'b' => '\u{8}',
                    b'f' => '\u{c}',
                    b'u' => {
                        let hex = bytes
                            .get(*pos..*pos + 4)
                            .ok_or_else(|| "truncated \\u escape".to_string())?;
                        *pos += 4;
                        let code = u32::from_str_radix(&String::from_utf8_lossy(hex), 16)
                            .map_err(|e| format!("bad \\u escape: {e}"))?;
                        char::from_u32(code).unwrap_or('\u{fffd}')
                    }
                    other => return Err(format!("unknown escape `\\{}`", other as char)),
                };
                let mut buf = [0u8; 4];
                out.extend_from_slice(decoded.encode_utf8(&mut buf).as_bytes());
            }
            _ => out.push(c),
        }
    }
    Err("unterminated string".to_string())
}

/// Serializes a JSON value with stable key order and 2-space indentation.
pub fn serialize(value: &Json) -> String {
    let mut out = String::new();
    write_value(&mut out, value, 0);
    out.push('\n');
    out
}

fn write_value(out: &mut String, value: &Json, indent: usize) {
    match value {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Json::Num(n) => out.push_str(n),
        Json::Str(s) => write_string(out, s),
        Json::Arr(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent + 1));
                write_value(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push(']');
        }
        Json::Obj(map) => {
            if map.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('\n');
                out.push_str(&"  ".repeat(indent + 1));
                write_string(out, key);
                out.push_str(": ");
                write_value(out, item, indent + 1);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(indent));
            out.push('}');
        }
    }
}

fn write_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The canonical results file: `BENCH_SHARED_MEMO.json` at the repo root.
pub fn results_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_SHARED_MEMO.json")
}

/// Replaces `bench`'s section of the results file at `path` with the given
/// scenarios (read-modify-write: other benches' sections are preserved).
/// The section also records whether the run was a `BENCH_SMOKE` smoke run,
/// since smoke timings are not comparable to full ones.
///
/// # Errors
///
/// Propagates filesystem errors.  A missing file is fine (first write),
/// but an existing file that fails to parse is an **error**: silently
/// rewriting it would drop the other benches' sections and hide the
/// broken write from CI's "persisted and parseable" gate.
pub fn record_at(path: &Path, bench: &str, scenarios: &[Scenario]) -> std::io::Result<()> {
    let mut root = match std::fs::read_to_string(path) {
        Ok(text) => match parse(&text) {
            Ok(Json::Obj(map)) => map,
            Ok(_) | Err(_) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "existing results file {} is not a JSON object; refusing to overwrite \
                         (delete it to start fresh)",
                        path.display()
                    ),
                ));
            }
        },
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => BTreeMap::new(),
        Err(e) => return Err(e),
    };
    let rows = scenarios
        .iter()
        .map(|s| {
            let mut row = BTreeMap::new();
            row.insert("name".to_string(), Json::Str(s.name.clone()));
            row.insert("median_ns".to_string(), Json::Num(s.median_ns.to_string()));
            row.insert("hits".to_string(), Json::Num(s.hits.to_string()));
            row.insert("misses".to_string(), Json::Num(s.misses.to_string()));
            row.insert("invalidations".to_string(), Json::Num(s.invalidations.to_string()));
            row.insert("evictions".to_string(), Json::Num(s.evictions.to_string()));
            row.insert("hit_rate_pct".to_string(), Json::Num(format!("{:.2}", s.hit_rate_pct())));
            Json::Obj(row)
        })
        .collect();
    let mut section = BTreeMap::new();
    section.insert("schema_version".to_string(), Json::Num(SCHEMA_VERSION.to_string()));
    section.insert("smoke".to_string(), Json::Bool(std::env::var_os("BENCH_SMOKE").is_some()));
    section.insert("scenarios".to_string(), Json::Arr(rows));
    root.insert(bench.to_string(), Json::Obj(section));
    // Atomic replace: a crash mid-write must never leave a truncated file
    // that the next run's read-modify-write would then refuse to touch.
    comprdl::persist::atomic_write(path, serialize(&Json::Obj(root)).as_bytes())
}

/// [`record_at`] against the canonical [`results_path`].  Returns the path
/// written, so benches can print it.
///
/// # Errors
///
/// See [`record_at`].
pub fn record(bench: &str, scenarios: &[Scenario]) -> std::io::Result<PathBuf> {
    let path = results_path();
    record_at(&path, bench, scenarios)?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scenario(name: &str) -> Scenario {
        Scenario {
            name: name.to_string(),
            median_ns: 1234,
            hits: 90,
            misses: 10,
            invalidations: 1,
            evictions: 2,
        }
    }

    #[test]
    fn parse_serialize_roundtrip() {
        let text = r#"{"a": [1, 2.5, -3e2], "b": {"nested": true, "s": "x\ny"}, "c": null}"#;
        let parsed = parse(text).expect("parses");
        let rendered = serialize(&parsed);
        assert_eq!(parse(&rendered).expect("re-parses"), parsed);
        assert!(rendered.contains("\"s\": \"x\\ny\""));
    }

    #[test]
    fn non_ascii_strings_roundtrip_byte_exactly() {
        // Multi-byte UTF-8 must survive the read-modify-write cycle: a
        // byte-at-a-time `as char` parse would turn "café" into "cafÃ©"
        // and corrupt preserved sections on every subsequent run.
        let text = "{\"name\": \"café — наука\", \"u\": \"\\u00e9\"}";
        let parsed = parse(text).expect("parses");
        let Json::Obj(map) = &parsed else { panic!("not an object") };
        assert_eq!(map["name"], Json::Str("café — наука".to_string()));
        assert_eq!(map["u"], Json::Str("é".to_string()));
        let rendered = serialize(&parsed);
        assert_eq!(parse(&rendered).expect("re-parses"), parsed);
        assert!(rendered.contains("café — наука"));
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(parse("{\"a\": }").is_err());
        assert!(parse("[1, 2").is_err());
        assert!(parse("{} trailing").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn record_preserves_other_sections() {
        let dir = std::env::temp_dir().join(format!("bench-results-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("results.json");
        record_at(&path, "memo_churn", &[scenario("warm_read/seqlock")]).expect("first write");
        record_at(&path, "checked_vs_unchecked", &[scenario("Redmine/memoized")])
            .expect("second write");
        // Overwrite the first section; the second must survive.
        record_at(&path, "memo_churn", &[scenario("warm_read/mutex")]).expect("third write");
        let text = std::fs::read_to_string(&path).expect("readable");
        let Json::Obj(root) = parse(&text).expect("parses") else { panic!("not an object") };
        assert!(root.contains_key("memo_churn"));
        assert!(root.contains_key("checked_vs_unchecked"));
        let Json::Obj(section) = &root["memo_churn"] else { panic!("section not an object") };
        assert_eq!(
            section["schema_version"],
            Json::Num(SCHEMA_VERSION.to_string()),
            "every section must carry the schema version"
        );
        assert!(text.contains("warm_read/mutex"));
        assert!(!text.contains("warm_read/seqlock"), "replaced section must not linger");
        assert!(text.contains("Redmine/memoized"));
        assert!(text.contains("\"hit_rate_pct\": 90.00"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_refuses_to_clobber_an_unparseable_file() {
        let dir = std::env::temp_dir().join(format!("bench-results-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("results.json");
        std::fs::write(&path, "{ truncated").expect("write garbage");
        let err = record_at(&path, "memo_churn", &[scenario("s")]).expect_err("must refuse");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert_eq!(
            std::fs::read_to_string(&path).expect("still readable"),
            "{ truncated",
            "the corrupt file must be left for inspection, not clobbered"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scenario_hit_rate() {
        assert_eq!(scenario("s").hit_rate_pct(), 90.0);
        let empty = Scenario {
            name: "e".into(),
            median_ns: 0,
            hits: 0,
            misses: 0,
            invalidations: 0,
            evictions: 0,
        };
        assert_eq!(empty.hit_rate_pct(), 0.0);
    }
}
