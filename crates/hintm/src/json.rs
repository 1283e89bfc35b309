//! Hand-rolled JSON serialization for run results (std-only).
//!
//! The sweep runner's on-disk result cache and artifact tables need a
//! stable, dependency-free wire format for [`RunReport`]/[`RunStats`]. This
//! module provides a tiny JSON value model with a writer and a
//! recursive-descent parser, plus `to_json`/`from_json` on the report
//! types. Numbers are kept as raw token strings inside [`Json`] so `u64`
//! counters round-trip exactly (no detour through `f64`), and floats are
//! written with Rust's shortest-round-trip formatting, so a
//! serialize→parse cycle is bit-identical.
//!
//! # Examples
//!
//! ```
//! use hintm::Experiment;
//!
//! let r = Experiment::new("kmeans").run()?;
//! let json = r.to_json();
//! let back = hintm::RunReport::from_json(&json).unwrap();
//! assert_eq!(back.to_json(), json);
//! # Ok::<(), hintm::UnknownWorkload>(())
//! ```

use crate::{RunReport, RunStats};
use hintm_audit::{htm_kind, AnalyzeReport, AuditReport, Diagnostic};
use hintm_ir::{Bound, CapacityModel};
use hintm_trace::{HistSummary, TraceSummary};
use std::fmt;

/// A JSON serialization/deserialization error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JsonError(pub String);

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error: {}", self.0)
    }
}

impl std::error::Error for JsonError {}

fn err<T>(msg: impl Into<String>) -> Result<T, JsonError> {
    Err(JsonError(msg.into()))
}

/// A parsed JSON value. Numbers keep their raw token text so integer
/// precision is never lost.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, as its raw token text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (insertion-ordered).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Builds a number value from a `u64`.
    pub fn u64(v: u64) -> Json {
        Json::Num(v.to_string())
    }

    /// Builds a number value from an `f64` (shortest round-trip form).
    pub fn f64(v: f64) -> Json {
        Json::Num(format!("{v:?}"))
    }

    /// Looks up a key in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Looks up a key, erroring with the key name when missing.
    pub fn field(&self, key: &str) -> Result<&Json, JsonError> {
        self.get(key)
            .ok_or_else(|| JsonError(format!("missing field `{key}`")))
    }

    /// This value as a `u64`.
    pub fn as_u64(&self) -> Result<u64, JsonError> {
        match self {
            Json::Num(s) => s
                .parse()
                .map_err(|_| JsonError(format!("not a u64: `{s}`"))),
            other => err(format!("expected number, got {other:?}")),
        }
    }

    /// This value as an `f64`.
    pub fn as_f64(&self) -> Result<f64, JsonError> {
        match self {
            Json::Num(s) => s
                .parse()
                .map_err(|_| JsonError(format!("not an f64: `{s}`"))),
            other => err(format!("expected number, got {other:?}")),
        }
    }

    /// This value as a string slice.
    pub fn as_str(&self) -> Result<&str, JsonError> {
        match self {
            Json::Str(s) => Ok(s),
            other => err(format!("expected string, got {other:?}")),
        }
    }

    /// This value as an array slice.
    pub fn as_arr(&self) -> Result<&[Json], JsonError> {
        match self {
            Json::Arr(items) => Ok(items),
            other => err(format!("expected array, got {other:?}")),
        }
    }

    /// Parses a JSON document (must consume the whole input).
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: input.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return err(format!("trailing input at byte {}", p.pos));
        }
        Ok(v)
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::Num(s) => write!(f, "{s}"),
            Json::Str(s) => write_escaped(f, s),
            Json::Arr(items) => {
                write!(f, "[")?;
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{v}")?;
                }
                write!(f, "]")
            }
            Json::Obj(fields) => {
                write!(f, "{{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write_escaped(f, k)?;
                    write!(f, ":{v}")?;
                }
                write!(f, "}}")
            }
        }
    }
}

fn write_escaped(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    write!(f, "\"")?;
    for c in s.chars() {
        match c {
            '"' => write!(f, "\\\"")?,
            '\\' => write!(f, "\\\\")?,
            '\n' => write!(f, "\\n")?,
            '\r' => write!(f, "\\r")?,
            '\t' => write!(f, "\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => write!(f, "{c}")?,
        }
    }
    write!(f, "\"")
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => err(format!("unexpected input at byte {}", self.pos)),
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let tok = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        if tok.is_empty() || tok == "-" {
            return err(format!("bad number at byte {start}"));
        }
        Ok(Json::Num(tok.to_string()))
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return err("unterminated string"),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .ok_or_else(|| JsonError("truncated \\u escape".into()))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex)
                                    .map_err(|_| JsonError("bad \\u escape".into()))?,
                                16,
                            )
                            .map_err(|_| JsonError("bad \\u escape".into()))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| JsonError("bad \\u code point".into()))?,
                            );
                            self.pos += 4;
                        }
                        _ => return err("bad escape"),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Consume one UTF-8 character (multi-byte safe).
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| JsonError("invalid utf-8".into()))?;
                    let c = rest.chars().next().expect("nonempty");
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            fields.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }
}

fn u64_arr(values: &[u64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::u64(v)).collect())
}

fn u32_arr(values: &[u32]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::u64(v as u64)).collect())
}

fn parse_u64_arr<const N: usize>(j: &Json, key: &str) -> Result<[u64; N], JsonError> {
    let items = j.field(key)?.as_arr()?;
    if items.len() != N {
        return err(format!("`{key}` expected {N} entries, got {}", items.len()));
    }
    let mut out = [0u64; N];
    for (slot, item) in out.iter_mut().zip(items) {
        *slot = item.as_u64()?;
    }
    Ok(out)
}

fn parse_u32_vec(j: &Json, key: &str) -> Result<Vec<u32>, JsonError> {
    j.field(key)?
        .as_arr()?
        .iter()
        .map(|v| {
            let n = v.as_u64()?;
            u32::try_from(n).map_err(|_| JsonError(format!("`{key}` entry {n} overflows u32")))
        })
        .collect()
}

/// Serializes run statistics to a JSON value (exact round trip via
/// [`run_stats_from_json`]).
pub fn run_stats_to_json(stats: &RunStats) -> Json {
    let self_ = stats;
    {
        let mut fields = vec![
            ("total_cycles".into(), Json::u64(self_.total_cycles.raw())),
            ("sum_cycles".into(), Json::u64(self_.sum_cycles.raw())),
            ("commits".into(), Json::u64(self_.commits)),
            ("fallback_commits".into(), Json::u64(self_.fallback_commits)),
            ("aborts".into(), u64_arr(&self_.aborts)),
            ("wasted_cycles".into(), u64_arr(&self_.wasted_cycles)),
            ("page_mode_cycles".into(), Json::u64(self_.page_mode_cycles)),
            ("access_breakdown".into(), u64_arr(&self_.access_breakdown)),
            ("tx_sizes_all".into(), u32_arr(&self_.tx_sizes_all)),
            (
                "tx_sizes_nonstatic".into(),
                u32_arr(&self_.tx_sizes_nonstatic),
            ),
            ("tx_sizes_unsafe".into(), u32_arr(&self_.tx_sizes_unsafe)),
            (
                "vm".into(),
                Json::Obj(vec![
                    ("page_walks".into(), Json::u64(self_.vm.page_walks)),
                    ("minor_faults".into(), Json::u64(self_.vm.minor_faults)),
                    ("shootdowns".into(), Json::u64(self_.vm.shootdowns)),
                    ("downgrades".into(), Json::u64(self_.vm.downgrades)),
                    ("safe_loads".into(), Json::u64(self_.vm.safe_loads)),
                    ("unsafe_loads".into(), Json::u64(self_.vm.unsafe_loads)),
                ]),
            ),
            (
                "cache".into(),
                Json::Obj(vec![
                    ("accesses".into(), Json::u64(self_.cache.accesses)),
                    ("l1_hits".into(), Json::u64(self_.cache.l1_hits)),
                    ("l2_hits".into(), Json::u64(self_.cache.l2_hits)),
                    (
                        "peer_transfers".into(),
                        Json::u64(self_.cache.peer_transfers),
                    ),
                    ("mem_fetches".into(), Json::u64(self_.cache.mem_fetches)),
                    ("upgrades".into(), Json::u64(self_.cache.upgrades)),
                ]),
            ),
            (
                "safe_pages".into(),
                u64_arr(&[self_.safe_pages.0, self_.safe_pages.1]),
            ),
            ("steps".into(), Json::u64(self_.steps)),
        ];
        if let Some((a, b, c, d)) = self_.sharing {
            fields.push((
                "sharing".into(),
                Json::Arr(vec![Json::f64(a), Json::f64(b), Json::f64(c), Json::f64(d)]),
            ));
        }
        Json::Obj(fields)
    }
}

/// Deserializes run statistics from a value produced by [`run_stats_to_json`].
///
/// # Errors
///
/// Returns [`JsonError`] on missing fields or type mismatches.
pub fn run_stats_from_json(j: &Json) -> Result<RunStats, JsonError> {
    {
        use hintm_types::Cycles;
        let vm = j.field("vm")?;
        let cache = j.field("cache")?;
        let safe_pages = parse_u64_arr::<2>(j, "safe_pages")?;
        let sharing = match j.get("sharing") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let items = v.as_arr()?;
                if items.len() != 4 {
                    return err("`sharing` expects 4 entries");
                }
                Some((
                    items[0].as_f64()?,
                    items[1].as_f64()?,
                    items[2].as_f64()?,
                    items[3].as_f64()?,
                ))
            }
        };
        Ok(RunStats {
            total_cycles: Cycles(j.field("total_cycles")?.as_u64()?),
            sum_cycles: Cycles(j.field("sum_cycles")?.as_u64()?),
            commits: j.field("commits")?.as_u64()?,
            fallback_commits: j.field("fallback_commits")?.as_u64()?,
            aborts: parse_u64_arr::<5>(j, "aborts")?,
            wasted_cycles: parse_u64_arr::<5>(j, "wasted_cycles")?,
            page_mode_cycles: j.field("page_mode_cycles")?.as_u64()?,
            access_breakdown: parse_u64_arr::<3>(j, "access_breakdown")?,
            tx_sizes_all: parse_u32_vec(j, "tx_sizes_all")?,
            tx_sizes_nonstatic: parse_u32_vec(j, "tx_sizes_nonstatic")?,
            tx_sizes_unsafe: parse_u32_vec(j, "tx_sizes_unsafe")?,
            vm: hintm_vm::VmStats {
                page_walks: vm.field("page_walks")?.as_u64()?,
                minor_faults: vm.field("minor_faults")?.as_u64()?,
                shootdowns: vm.field("shootdowns")?.as_u64()?,
                downgrades: vm.field("downgrades")?.as_u64()?,
                safe_loads: vm.field("safe_loads")?.as_u64()?,
                unsafe_loads: vm.field("unsafe_loads")?.as_u64()?,
            },
            cache: hintm_cache::CacheStats {
                accesses: cache.field("accesses")?.as_u64()?,
                l1_hits: cache.field("l1_hits")?.as_u64()?,
                l2_hits: cache.field("l2_hits")?.as_u64()?,
                peer_transfers: cache.field("peer_transfers")?.as_u64()?,
                mem_fetches: cache.field("mem_fetches")?.as_u64()?,
                upgrades: cache.field("upgrades")?.as_u64()?,
            },
            safe_pages: (safe_pages[0], safe_pages[1]),
            sharing,
            steps: j.field("steps")?.as_u64()?,
        })
    }
}

fn hist_to_json(h: &HistSummary) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::u64(h.count)),
        ("sum".into(), Json::u64(h.sum)),
        ("min".into(), Json::u64(h.min)),
        ("max".into(), Json::u64(h.max)),
    ])
}

fn hist_from_json(j: &Json, key: &str) -> Result<HistSummary, JsonError> {
    let h = j.field(key)?;
    Ok(HistSummary {
        count: h.field("count")?.as_u64()?,
        sum: h.field("sum")?.as_u64()?,
        min: h.field("min")?.as_u64()?,
        max: h.field("max")?.as_u64()?,
    })
}

/// Serializes a trace metric summary (the optional `trace` field of
/// [`RunReport::to_json`]).
pub fn trace_summary_to_json(t: &TraceSummary) -> Json {
    Json::Obj(vec![
        ("events".into(), Json::u64(t.events)),
        ("dropped".into(), Json::u64(t.dropped)),
        ("digest".into(), Json::u64(t.digest)),
        ("sections".into(), Json::u64(t.sections)),
        ("barriers".into(), Json::u64(t.barriers)),
        ("begins".into(), Json::u64(t.begins)),
        ("commits".into(), Json::u64(t.commits)),
        ("fallback_acquires".into(), Json::u64(t.fallback_acquires)),
        ("fallback_commits".into(), Json::u64(t.fallback_commits)),
        ("aborts".into(), u64_arr(&t.aborts)),
        ("lost_cycles".into(), u64_arr(&t.lost_cycles)),
        ("shootdowns".into(), Json::u64(t.shootdowns)),
        ("accesses".into(), Json::u64(t.accesses)),
        ("tx_accesses".into(), Json::u64(t.tx_accesses)),
        ("l1_evictions".into(), Json::u64(t.l1_evictions)),
        ("invalidations".into(), Json::u64(t.invalidations)),
        ("downgrades".into(), Json::u64(t.downgrades)),
        ("occupancy_hwm".into(), Json::u64(t.occupancy_hwm)),
        ("read_set".into(), hist_to_json(&t.read_set)),
        ("write_set".into(), hist_to_json(&t.write_set)),
        ("commit_footprint".into(), hist_to_json(&t.commit_footprint)),
        ("retries".into(), hist_to_json(&t.retries)),
    ])
}

/// Deserializes a trace metric summary written by [`trace_summary_to_json`].
///
/// # Errors
///
/// Returns [`JsonError`] on missing fields or type mismatches.
pub fn trace_summary_from_json(j: &Json) -> Result<TraceSummary, JsonError> {
    Ok(TraceSummary {
        events: j.field("events")?.as_u64()?,
        dropped: j.field("dropped")?.as_u64()?,
        digest: j.field("digest")?.as_u64()?,
        sections: j.field("sections")?.as_u64()?,
        barriers: j.field("barriers")?.as_u64()?,
        begins: j.field("begins")?.as_u64()?,
        commits: j.field("commits")?.as_u64()?,
        fallback_acquires: j.field("fallback_acquires")?.as_u64()?,
        fallback_commits: j.field("fallback_commits")?.as_u64()?,
        aborts: parse_u64_arr::<5>(j, "aborts")?,
        lost_cycles: parse_u64_arr::<5>(j, "lost_cycles")?,
        shootdowns: j.field("shootdowns")?.as_u64()?,
        accesses: j.field("accesses")?.as_u64()?,
        tx_accesses: j.field("tx_accesses")?.as_u64()?,
        l1_evictions: j.field("l1_evictions")?.as_u64()?,
        invalidations: j.field("invalidations")?.as_u64()?,
        downgrades: j.field("downgrades")?.as_u64()?,
        occupancy_hwm: j.field("occupancy_hwm")?.as_u64()?,
        read_set: hist_from_json(j, "read_set")?,
        write_set: hist_from_json(j, "write_set")?,
        commit_footprint: hist_from_json(j, "commit_footprint")?,
        retries: hist_from_json(j, "retries")?,
    })
}

impl RunReport {
    /// Serializes the full report to a compact JSON string.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_string()
    }

    /// Serializes to a JSON value.
    pub fn to_json_value(&self) -> Json {
        let mut fields = vec![
            ("workload".into(), Json::Str(self.workload.clone())),
            ("htm".into(), Json::Str(self.htm.to_string())),
            ("hint_mode".into(), Json::Str(self.hint_mode.to_string())),
            ("stats".into(), run_stats_to_json(&self.stats)),
        ];
        if let Some(t) = &self.trace {
            fields.push(("trace".into(), trace_summary_to_json(t)));
        }
        Json::Obj(fields)
    }

    /// Parses a report serialized with [`RunReport::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on malformed input.
    pub fn from_json(input: &str) -> Result<RunReport, JsonError> {
        Self::from_json_value(&Json::parse(input)?)
    }

    /// Deserializes from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] on missing fields or type mismatches.
    pub fn from_json_value(j: &Json) -> Result<RunReport, JsonError> {
        Ok(RunReport {
            workload: j.field("workload")?.as_str()?.to_string(),
            htm: j.field("htm")?.as_str()?.parse().map_err(JsonError)?,
            hint_mode: j.field("hint_mode")?.as_str()?.parse().map_err(JsonError)?,
            stats: run_stats_from_json(j.field("stats")?)?,
            trace: match j.get("trace") {
                None | Some(Json::Null) => None,
                Some(t) => Some(trace_summary_from_json(t)?),
            },
        })
    }
}

/// An upper [`Bound`] as JSON: the block count, or `null` for unbounded.
fn bound_to_json(b: Bound) -> Json {
    match b {
        Bound::Finite(n) => Json::u64(n),
        Bound::Unbounded => Json::Null,
    }
}

/// One lint [`Diagnostic`] as JSON (shared by the `analyze` and `audit`
/// reports).
fn diagnostic_to_json(d: &Diagnostic) -> Json {
    Json::Obj(vec![
        ("lint".into(), Json::Str(d.lint.to_string())),
        ("severity".into(), Json::Str(d.severity.to_string())),
        ("func".into(), Json::Str(d.func.clone())),
        (
            "site".into(),
            d.site.map_or(Json::Null, |s| Json::u64(s.0 as u64)),
        ),
        ("message".into(), Json::Str(d.message.clone())),
    ])
}

/// A site-id set as a JSON array of numbers.
fn sites_to_json(sites: &std::collections::BTreeSet<hintm_types::SiteId>) -> Json {
    Json::Arr(sites.iter().map(|s| Json::u64(s.0 as u64)).collect())
}

/// Serializes one [`AnalyzeReport`] to a JSON value: per-transaction
/// footprint bounds with per-model verdicts, the module-worst verdicts,
/// the predicted size histogram, the declared/inferred safe-site sets,
/// and every diagnostic.
pub fn analyze_report_to_json(r: &AnalyzeReport) -> Json {
    let txs = r
        .footprint
        .txs
        .iter()
        .zip(&r.tx_funcs)
        .map(|(tx, func)| {
            let verdicts = CapacityModel::ALL
                .iter()
                .map(|&m| {
                    (
                        htm_kind(m).to_string(),
                        Json::Str(m.verdict(tx).to_string()),
                    )
                })
                .collect();
            Json::Obj(vec![
                ("func".into(), Json::Str(func.clone())),
                ("index".into(), Json::u64(tx.index as u64)),
                ("read_hi".into(), bound_to_json(tx.read_hi)),
                ("write_hi".into(), bound_to_json(tx.write_hi)),
                ("total_hi".into(), bound_to_json(tx.total_hi)),
                ("total_lo".into(), Json::u64(tx.total_lo)),
                ("write_lo".into(), Json::u64(tx.write_lo)),
                ("balanced".into(), Json::Bool(tx.balanced)),
                ("verdicts".into(), Json::Obj(verdicts)),
            ])
        })
        .collect();
    let worst = CapacityModel::ALL
        .iter()
        .map(|m| {
            (
                htm_kind(*m).to_string(),
                Json::Str(r.footprint.worst(*m).to_string()),
            )
        })
        .collect();
    let histogram = r
        .footprint
        .size_histogram()
        .into_iter()
        .map(|(label, n)| (label.to_string(), Json::u64(n as u64)))
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(r.workload.clone())),
        ("passed".into(), Json::Bool(r.passed())),
        ("txs".into(), Json::Arr(txs)),
        ("worst".into(), Json::Obj(worst)),
        ("histogram".into(), Json::Obj(histogram)),
        ("declared_safe".into(), sites_to_json(&r.declared)),
        ("inferred_safe".into(), sites_to_json(&r.inferred)),
        (
            "verify_errors".into(),
            Json::Arr(
                r.verify_errors
                    .iter()
                    .map(|e| Json::Str(e.to_string()))
                    .collect(),
            ),
        ),
        (
            "diagnostics".into(),
            Json::Arr(r.diagnostics.iter().map(diagnostic_to_json).collect()),
        ),
    ])
}

/// Serializes one [`AuditReport`] to a JSON value, sharing the diagnostic
/// encoding with [`analyze_report_to_json`].
pub fn audit_report_to_json(r: &AuditReport) -> Json {
    let unsound = r
        .unsound
        .iter()
        .map(|u| {
            Json::Obj(vec![
                ("site".into(), Json::u64(u.site.0 as u64)),
                ("kind".into(), Json::Str(format!("{:?}", u.kind))),
                ("addr".into(), Json::u64(u.addr.raw())),
                ("thread".into(), Json::u64(u.thread.0 as u64)),
                ("epoch".into(), Json::u64(u.epoch as u64)),
            ])
        })
        .collect();
    Json::Obj(vec![
        ("workload".into(), Json::Str(r.workload.clone())),
        ("passed".into(), Json::Bool(r.passed())),
        ("num_sites".into(), Json::u64(r.stats.num_sites as u64)),
        ("safe_loads".into(), Json::u64(r.stats.safe_loads as u64)),
        ("safe_stores".into(), Json::u64(r.stats.safe_stores as u64)),
        (
            "replicated_funcs".into(),
            Json::u64(r.stats.replicated_funcs as u64),
        ),
        ("hint_mismatch".into(), Json::Bool(r.hint_mismatch)),
        ("sites_executed".into(), Json::u64(r.sites_executed as u64)),
        ("addrs_touched".into(), Json::u64(r.addrs_touched as u64)),
        ("unsound".into(), Json::Arr(unsound)),
        (
            "missed".into(),
            Json::Arr(r.missed.iter().map(|s| Json::u64(s.0 as u64)).collect()),
        ),
        (
            "verify_errors".into(),
            Json::Arr(
                r.verify_errors
                    .iter()
                    .map(|e| Json::Str(e.to_string()))
                    .collect(),
            ),
        ),
        (
            "diagnostics".into(),
            Json::Arr(r.diagnostics.iter().map(diagnostic_to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Experiment;

    #[test]
    fn parser_handles_scalars_and_nesting() {
        let j = Json::parse(r#"{"a":[1,2.5,-3],"b":"x\ny","c":true,"d":null,"e":{}}"#).unwrap();
        assert_eq!(j.field("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(j.field("b").unwrap().as_str().unwrap(), "x\ny");
        assert_eq!(j.field("c").unwrap(), &Json::Bool(true));
        assert_eq!(j.field("d").unwrap(), &Json::Null);
        assert!(j.field("missing").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("12 34").is_err());
    }

    #[test]
    fn strings_round_trip_through_escapes() {
        let s = "quote\" slash\\ newline\n tab\t unicode→";
        let rendered = Json::Str(s.into()).to_string();
        assert_eq!(Json::parse(&rendered).unwrap().as_str().unwrap(), s);
    }

    #[test]
    fn u64_precision_is_preserved() {
        let big = u64::MAX - 3;
        let j = Json::parse(&Json::u64(big).to_string()).unwrap();
        assert_eq!(j.as_u64().unwrap(), big);
    }

    #[test]
    fn report_round_trips_bit_identically() {
        // A profiled run exercises the optional `sharing` tuple and the
        // tx-size vectors; full hints exercise the vm counters.
        let r = Experiment::new("kmeans")
            .hint_mode(crate::HintMode::Full)
            .record_tx_sizes(true)
            .profile_sharing(true)
            .run()
            .expect("runs");
        let json = r.to_json();
        let back = RunReport::from_json(&json).expect("parses");
        assert_eq!(back.workload, r.workload);
        assert_eq!(back.htm, r.htm);
        assert_eq!(back.hint_mode, r.hint_mode);
        assert_eq!(back.stats.total_cycles, r.stats.total_cycles);
        assert_eq!(back.stats.aborts, r.stats.aborts);
        assert_eq!(back.stats.tx_sizes_all, r.stats.tx_sizes_all);
        assert_eq!(back.stats.sharing, r.stats.sharing);
        // Full fidelity: a second serialization is byte-identical.
        assert_eq!(back.to_json(), json);
    }

    #[test]
    fn report_without_sharing_round_trips() {
        let r = Experiment::new("ssca2").run().expect("runs");
        assert!(r.stats.sharing.is_none());
        let back = RunReport::from_json(&r.to_json()).expect("parses");
        assert_eq!(back.stats.sharing, None);
        assert_eq!(back.to_json(), r.to_json());
    }

    #[test]
    fn traced_report_round_trips() {
        let (r, rec) = Experiment::new("kmeans").run_traced(256).expect("runs");
        let t = r.trace.expect("traced run embeds a summary");
        assert_eq!(t.digest, rec.digest());
        let back = RunReport::from_json(&r.to_json()).expect("parses");
        assert_eq!(back.trace, Some(t));
        assert_eq!(back.to_json(), r.to_json());
        // An untraced report omits the field entirely.
        let plain = Experiment::new("kmeans").run().unwrap();
        assert!(!plain.to_json().contains("\"trace\""));
        assert!(RunReport::from_json(&plain.to_json())
            .unwrap()
            .trace
            .is_none());
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(RunReport::from_json("not json").is_err());
        assert!(RunReport::from_json("{}").is_err());
        assert!(RunReport::from_json(
            r#"{"workload":"x","htm":"Weird","hint_mode":"baseline","stats":{}}"#
        )
        .is_err());
    }
}
