//! Bench-trajectory plumbing for CI.
//!
//! CI runs a small, fixed set of benchmarks every push (`fig2 --quick`,
//! `shardkv --quick`, `table1 --csv`), normalizes their machine-readable
//! stdout into one flat artifact — `BENCH_ci.json`, an array of
//! `{bench, lock, threads, ops_per_sec}` records (plus an optional
//! `space_bytes` for space rows) — and gates the push against the
//! committed `BENCH_baseline.json`: a throughput record may not fall more
//! than the tolerance below its baseline, and a lock's space may not grow
//! at all. The `bench_ci` binary drives this module; everything here is
//! dependency-free (the container vendors no serde), so the JSON dialect
//! is deliberately tiny: arrays, objects, strings, and finite numbers.
//!
//! Producer binaries build their records through [`RecordBuilder`] — the
//! single place bench ids, the `.combined`-mode suffix, and schema-
//! invisible extras are shaped — rather than hand-assembling JSON.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One normalized trajectory record.
#[derive(Clone, Debug, PartialEq)]
pub struct Record {
    /// Benchmark id, e.g. `"fig2.max"` or `"shardkv.s64"`; `"table1.space"`
    /// rows carry space instead of throughput.
    pub bench: String,
    /// Lock display name from the catalog (e.g. `"Hemlock"`).
    pub lock: String,
    /// Thread count for throughput rows; 0 for space rows.
    pub threads: usize,
    /// Aggregate throughput; 0.0 for space rows.
    pub ops_per_sec: f64,
    /// Lock-body space for space rows (bytes).
    pub space_bytes: Option<u64>,
    /// Extra producer-specific numeric measurements (`p99_ns`,
    /// `fairness_spread`, `contended`, …), serialized after the schema
    /// keys. The parser ignores them and the gate never sees them — they
    /// ride along for humans reading the artifact.
    pub extras: Vec<(String, f64)>,
}

impl Record {
    /// Identity used to match a record against the baseline.
    pub fn key(&self) -> (String, String, usize) {
        (self.bench.clone(), self.lock.clone(), self.threads)
    }
}

/// The one place producer binaries shape trajectory records.
///
/// Every `--json` bench (`shardkv`, `loadgen`, `asyncbench`, …) routes its
/// emission through this builder instead of hand-assembling JSON, so a
/// schema change — like the [`combined`](RecordBuilder::combined) mode
/// marker — lands in every producer at once and `BENCH_FORMAT.md` stays
/// the single description of what is on disk.
///
/// ```
/// use hemlock_bench::ci::{self, RecordBuilder};
///
/// let rec = RecordBuilder::new("shardkv.s64", "Hemlock")
///     .combined(true) // -> bench key "shardkv.s64.combined"
///     .threads(4)
///     .ops_per_sec(1.5e5)
///     .extra("p99_ns", 120_000.0)
///     .build();
/// assert_eq!(rec.bench, "shardkv.s64.combined");
/// assert!(ci::to_json(&[rec]).contains("\"p99_ns\": 120000"));
/// ```
#[derive(Clone, Debug)]
pub struct RecordBuilder {
    record: Record,
    combined: bool,
}

impl RecordBuilder {
    /// Starts a record for benchmark id `bench` measured under `lock`.
    pub fn new(bench: impl Into<String>, lock: impl Into<String>) -> Self {
        Self {
            record: Record {
                bench: bench.into(),
                lock: lock.into(),
                threads: 0,
                ops_per_sec: 0.0,
                space_bytes: None,
                extras: Vec::new(),
            },
            combined: false,
        }
    }

    /// Marks the record as measured in **combined** (flat-combining /
    /// batched) mode: the bench id gains a `.combined` suffix, so both
    /// modes coexist in one artifact and the gate tracks them as separate
    /// trajectories. `false` is a no-op, letting producers pass the mode
    /// toggle straight through.
    pub fn combined(mut self, combined: bool) -> Self {
        self.combined = combined;
        self
    }

    /// Thread (or worker) count for the throughput row.
    pub fn threads(mut self, threads: usize) -> Self {
        self.record.threads = threads;
        self
    }

    /// Aggregate throughput.
    pub fn ops_per_sec(mut self, ops: f64) -> Self {
        self.record.ops_per_sec = ops;
        self
    }

    /// Lock-space price of the measured deployment.
    pub fn space_bytes(mut self, bytes: u64) -> Self {
        self.record.space_bytes = Some(bytes);
        self
    }

    /// Appends a producer-specific numeric extra (schema-invisible).
    pub fn extra(mut self, key: impl Into<String>, value: f64) -> Self {
        self.record.extras.push((key.into(), value));
        self
    }

    /// Finishes the record.
    pub fn build(self) -> Record {
        let mut record = self.record;
        if self.combined {
            record.bench.push_str(".combined");
        }
        record
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Extras keep their integer-ness on the wire (`p99_ns` values read as
/// nanosecond counts, ratios as 3-decimal fractions).
fn fmt_extra(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.3}")
    }
}

/// Serializes records as a stable, diff-friendly JSON array (one record
/// per line, keys in schema order, extras after the schema keys).
pub fn to_json(records: &[Record]) -> String {
    let mut out = String::from("[\n");
    for (i, r) in records.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"bench\": \"{}\", \"lock\": \"{}\", \"threads\": {}, \"ops_per_sec\": {:.1}",
            json_escape(&r.bench),
            json_escape(&r.lock),
            r.threads,
            r.ops_per_sec,
        );
        if let Some(b) = r.space_bytes {
            let _ = write!(out, ", \"space_bytes\": {b}");
        }
        for (k, v) in &r.extras {
            let _ = write!(out, ", \"{}\": {}", json_escape(k), fmt_extra(*v));
        }
        out.push('}');
        if i + 1 < records.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

// ---------------------------------------------------------------- JSON in

/// The subset of JSON values the trajectory schema uses.
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn err(&self, msg: &str) -> String {
        format!("JSON parse error at byte {}: {msg}", self.pos)
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes.get(self.pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {:?}", c as char)))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while matches!(
            self.peek(),
            Some(b'-' | b'+' | b'.' | b'e' | b'E') | Some(b'0'..=b'9')
        ) {
            self.pos += 1;
        }
        let text = core::str::from_utf8(&self.bytes[start..self.pos]).unwrap_or("");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| self.err(&format!("bad number {text:?}")))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
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
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        Some(b'r') => out.push('\r'),
                        Some(b'u') => {
                            let hex = self
                                .bytes
                                .get(self.pos + 1..self.pos + 5)
                                .and_then(|h| core::str::from_utf8(h).ok())
                                .ok_or_else(|| self.err("truncated \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                            self.pos += 4;
                        }
                        _ => return Err(self.err("bad escape")),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let s = core::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = s.chars().next().unwrap();
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(map));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            map.insert(key, self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(map));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }
}

/// Parses a `BENCH_*.json` artifact (or `shardkv --json` output) back into
/// records. Unknown object keys are ignored; missing schema keys are an
/// error naming the record index.
pub fn parse_json(text: &str) -> Result<Vec<Record>, String> {
    let mut p = Parser::new(text);
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing garbage after JSON value"));
    }
    let Json::Arr(items) = v else {
        return Err("expected a top-level JSON array of records".to_string());
    };
    items
        .into_iter()
        .enumerate()
        .map(|(i, item)| {
            let Json::Obj(obj) = item else {
                return Err(format!("record {i}: expected an object"));
            };
            let get_str = |k: &str| match obj.get(k) {
                Some(Json::Str(s)) => Ok(s.clone()),
                _ => Err(format!("record {i}: missing string field {k:?}")),
            };
            let get_num = |k: &str| match obj.get(k) {
                Some(Json::Num(n)) => Ok(*n),
                _ => Err(format!("record {i}: missing numeric field {k:?}")),
            };
            Ok(Record {
                bench: get_str("bench")?,
                lock: get_str("lock")?,
                threads: get_num("threads")? as usize,
                ops_per_sec: get_num("ops_per_sec")?,
                space_bytes: match obj.get("space_bytes") {
                    Some(Json::Num(n)) => Some(*n as u64),
                    _ => None,
                },
                // Producer extras are dropped here by design: re-serialized
                // artifacts carry only the gated schema.
                extras: Vec::new(),
            })
        })
        .collect()
}

// ----------------------------------------------------------------- CSV in

fn split_csv_line(line: &str) -> Vec<String> {
    // Mirrors the Table writer's dialect: cells containing commas or
    // quotes are wrapped in `"` with inner quotes doubled.
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    cur.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            } else {
                cur.push(c);
            }
        } else if c == '"' {
            in_quotes = true;
        } else if c == ',' {
            out.push(cur.trim().to_string());
            cur.clear();
        } else {
            cur.push(c);
        }
    }
    out.push(cur.trim().to_string());
    out
}

/// Normalizes a figure-series CSV (`Threads,<Lock1>,<Lock2>,…` with
/// megaops values) into throughput records under `bench`.
pub fn parse_series_csv(bench: &str, csv: &str) -> Result<Vec<Record>, String> {
    let mut lines = csv
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'));
    let header = lines.next().ok_or_else(|| format!("{bench}: empty CSV"))?;
    let cols = split_csv_line(header);
    if cols.first().map(String::as_str) != Some("Threads") {
        return Err(format!(
            "{bench}: expected a `Threads,…` header, got {header:?}"
        ));
    }
    let mut out = Vec::new();
    for line in lines {
        let cells = split_csv_line(line);
        if cells.len() != cols.len() {
            return Err(format!("{bench}: ragged CSV row {line:?}"));
        }
        let threads: usize = cells[0]
            .parse()
            .map_err(|_| format!("{bench}: bad thread count {:?}", cells[0]))?;
        for (lock, cell) in cols[1..].iter().zip(&cells[1..]) {
            let mops: f64 = cell
                .parse()
                .map_err(|_| format!("{bench}: bad value {cell:?} for {lock}"))?;
            out.push(Record {
                bench: bench.to_string(),
                lock: lock.clone(),
                threads,
                ops_per_sec: mops * 1e6,
                space_bytes: None,
                extras: Vec::new(),
            });
        }
    }
    Ok(out)
}

/// Normalizes `table1 --csv` (space table) into `table1.space` records:
/// measured lock-body words become `space_bytes`, throughput fields are 0.
pub fn parse_table1_csv(csv: &str) -> Result<Vec<Record>, String> {
    let mut lines = csv
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'));
    let header = lines.next().ok_or("table1: empty CSV")?;
    let cols = split_csv_line(header);
    let lock_col = cols
        .iter()
        .position(|c| c == "Lock")
        .ok_or("table1: no Lock column")?;
    let body_col = cols
        .iter()
        .position(|c| c == "Body measured")
        .ok_or("table1: no `Body measured` column")?;
    let mut out = Vec::new();
    for line in lines {
        let cells = split_csv_line(line);
        if cells.len() != cols.len() {
            return Err(format!("table1: ragged CSV row {line:?}"));
        }
        let words: u64 = cells[body_col]
            .parse()
            .map_err(|_| format!("table1: bad word count {:?}", cells[body_col]))?;
        out.push(Record {
            bench: "table1.space".to_string(),
            lock: cells[lock_col].clone(),
            threads: 0,
            ops_per_sec: 0.0,
            space_bytes: Some(words * core::mem::size_of::<usize>() as u64),
            extras: Vec::new(),
        });
    }
    Ok(out)
}

// ------------------------------------------------------------------- gate

/// Compares `current` against `baseline`. Failures (returned as messages):
///
/// - a baseline throughput record whose current counterpart dropped more
///   than `tolerance` (fraction, e.g. 0.30) below the baseline value;
/// - a baseline space record whose current `space_bytes` *grew*;
/// - a baseline record with no current counterpart (a bench silently
///   disappearing from CI should be loud).
///
/// Records present only in `current` are fine — new benches extend the
/// trajectory without a baseline update being a hard prerequisite.
pub fn gate(current: &[Record], baseline: &[Record], tolerance: f64) -> Vec<String> {
    let index: BTreeMap<_, _> = current.iter().map(|r| (r.key(), r)).collect();
    let mut failures = Vec::new();
    for base in baseline {
        let Some(cur) = index.get(&base.key()) else {
            failures.push(format!(
                "missing record: {}/{} @{} threads present in baseline but not in this run",
                base.bench, base.lock, base.threads
            ));
            continue;
        };
        if base.ops_per_sec > 0.0 {
            let floor = base.ops_per_sec * (1.0 - tolerance);
            if cur.ops_per_sec < floor {
                failures.push(format!(
                    "{}/{} @{}t: {:.0} ops/s is {:.0}% below baseline {:.0} (floor {:.0})",
                    base.bench,
                    base.lock,
                    base.threads,
                    cur.ops_per_sec,
                    100.0 * (1.0 - cur.ops_per_sec / base.ops_per_sec),
                    base.ops_per_sec,
                    floor,
                ));
            }
        }
        if let (Some(b), Some(c)) = (base.space_bytes, cur.space_bytes) {
            if c > b {
                failures.push(format!(
                    "{}/{}: lock space grew {b} -> {c} bytes",
                    base.bench, base.lock
                ));
            }
        }
    }
    failures
}

/// Gates observability overhead: for every record of a metrics-disabled
/// (`--obs off`) run, the matching metrics-enabled record must be within
/// `tolerance` (fraction, e.g. 0.10) of its throughput. Returns
/// human-readable failure lines, empty on pass.
///
/// A disabled-run record with no enabled counterpart is a failure — the
/// comparison silently evaporating should be loud, same as [`gate`].
pub fn obs_gate(enabled: &[Record], disabled: &[Record], tolerance: f64) -> Vec<String> {
    let index: BTreeMap<_, _> = enabled.iter().map(|r| (r.key(), r)).collect();
    let mut failures = Vec::new();
    for base in disabled {
        let Some(cur) = index.get(&base.key()) else {
            failures.push(format!(
                "missing record: {}/{} @{} threads present in the disabled run but not the enabled one",
                base.bench, base.lock, base.threads
            ));
            continue;
        };
        if base.ops_per_sec <= 0.0 {
            continue;
        }
        let floor = base.ops_per_sec * (1.0 - tolerance);
        if cur.ops_per_sec < floor {
            failures.push(format!(
                "{}/{} @{}t: metrics-enabled {:.0} ops/s is {:.0}% below disabled {:.0} (allowed {:.0}%)",
                base.bench,
                base.lock,
                base.threads,
                cur.ops_per_sec,
                100.0 * (1.0 - cur.ops_per_sec / base.ops_per_sec),
                base.ops_per_sec,
                tolerance * 100.0,
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(bench: &str, lock: &str, threads: usize, ops: f64) -> Record {
        Record {
            bench: bench.into(),
            lock: lock.into(),
            threads,
            ops_per_sec: ops,
            space_bytes: None,
            extras: Vec::new(),
        }
    }

    #[test]
    fn builder_shapes_records_and_the_combined_suffix() {
        let plain = RecordBuilder::new("loadgen.c8.p4", "Hemlock")
            .combined(false)
            .threads(4)
            .ops_per_sec(1234.5)
            .build();
        assert_eq!(plain, rec("loadgen.c8.p4", "Hemlock", 4, 1234.5));

        let combined = RecordBuilder::new("shardkv.s64", "MCS")
            .combined(true)
            .threads(8)
            .ops_per_sec(9.9e6)
            .space_bytes(1024)
            .extra("contended", 0.25)
            .build();
        assert_eq!(combined.bench, "shardkv.s64.combined");
        assert_eq!(
            combined.key(),
            ("shardkv.s64.combined".into(), "MCS".into(), 8)
        );
        assert_eq!(combined.space_bytes, Some(1024));
        assert_eq!(combined.extras, vec![("contended".to_string(), 0.25)]);
    }

    #[test]
    fn extras_serialize_after_the_schema_and_parse_back_ignored() {
        let record = RecordBuilder::new("asyncbench.t64", "Hemlock")
            .threads(2)
            .ops_per_sec(1e6)
            .extra("wakeup_p99_ns", 52_000.0)
            .extra("fairness_spread", 1.25)
            .build();
        let text = to_json(std::slice::from_ref(&record));
        // Integer-valued extras stay integers on the wire; ratios keep
        // three decimals. Schema keys come first.
        assert!(
            text.contains(
                "\"ops_per_sec\": 1000000.0, \"wakeup_p99_ns\": 52000, \"fairness_spread\": 1.250"
            ),
            "{text}"
        );
        // The parser sees the extras as unknown keys and drops them.
        let parsed = parse_json(&text).unwrap();
        assert_eq!(parsed.len(), 1);
        assert_eq!(parsed[0].key(), record.key());
        assert!(parsed[0].extras.is_empty());
    }

    #[test]
    fn json_roundtrip_preserves_records() {
        let mut records = vec![
            rec("fig2.max", "Hemlock", 2, 1.25e7),
            rec("shardkv.s64", "MCS", 4, 3.5e6),
        ];
        records[1].space_bytes = Some(1024);
        let text = to_json(&records);
        assert_eq!(parse_json(&text).unwrap(), records);
    }

    #[test]
    fn json_parser_rejects_malformed_input() {
        assert!(parse_json("{}").is_err(), "top level must be an array");
        assert!(
            parse_json("[{\"bench\": \"x\"}]").is_err(),
            "missing fields"
        );
        assert!(parse_json("[1] trailing").is_err());
        assert!(parse_json(
            "[{\"bench\": \"x\", \"lock\": \"y\", \"threads\": \"two\", \"ops_per_sec\": 1}]"
        )
        .is_err());
    }

    #[test]
    fn json_parser_handles_escapes_and_nesting() {
        let text = r#"[{"bench": "a\"bA", "lock": "L", "threads": 1, "ops_per_sec": 2.5e3, "extra": [null, true, {"x": 1}]}]"#;
        let recs = parse_json(text).unwrap();
        assert_eq!(recs[0].bench, "a\"bA");
        assert_eq!(recs[0].ops_per_sec, 2.5e3);
    }

    #[test]
    fn series_csv_normalizes_to_ops_per_sec() {
        let csv = "Threads,Hemlock,MCS\n1,12.5,11.0\n2,20.0,18.5\n";
        let recs = parse_series_csv("fig2.max", csv).unwrap();
        assert_eq!(recs.len(), 4);
        assert_eq!(recs[0], rec("fig2.max", "Hemlock", 1, 12.5e6));
        assert_eq!(recs[3], rec("fig2.max", "MCS", 2, 18.5e6));
        assert!(parse_series_csv("x", "Nope,1\n").is_err());
        assert!(parse_series_csv("x", "Threads,A\n1\n").is_err(), "ragged");
    }

    #[test]
    fn table1_csv_normalizes_to_space_records() {
        let csv = "Lock,Body(words),Body measured,Held,Wait,Thread,FIFO,Init,Paper\n\
                   Hemlock,1,1,0,0,\"1 (Grant word, padded)\",yes,no,Listing 2\n\
                   MCS,2,2,E,E,0,yes,no,\"§2, Table 1\"\n";
        let recs = parse_table1_csv(csv).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].bench, "table1.space");
        assert_eq!(recs[0].lock, "Hemlock");
        assert_eq!(
            recs[0].space_bytes,
            Some(core::mem::size_of::<usize>() as u64)
        );
        assert_eq!(
            recs[1].space_bytes,
            Some(2 * core::mem::size_of::<usize>() as u64)
        );
    }

    #[test]
    fn gate_flags_regressions_misses_and_space_growth() {
        let mut baseline = vec![rec("fig2.max", "Hemlock", 2, 100.0)];
        baseline.push(Record {
            space_bytes: Some(8),
            ..rec("table1.space", "Hemlock", 0, 0.0)
        });
        baseline.push(rec("fig2.max", "MCS", 2, 100.0));

        let mut current = vec![rec("fig2.max", "Hemlock", 2, 65.0)]; // -35%
        current.push(Record {
            space_bytes: Some(16), // grew
            ..rec("table1.space", "Hemlock", 0, 0.0)
        });
        // MCS record missing entirely.

        let failures = gate(&current, &baseline, 0.30);
        assert_eq!(failures.len(), 3, "{failures:?}");
        assert!(failures.iter().any(|f| f.contains("below baseline")));
        assert!(failures.iter().any(|f| f.contains("space grew")));
        assert!(failures.iter().any(|f| f.contains("missing record")));

        // Within tolerance: no failures.
        let ok = vec![
            rec("fig2.max", "Hemlock", 2, 71.0),
            rec("fig2.max", "MCS", 2, 250.0), // improvements always pass
            Record {
                space_bytes: Some(8),
                ..rec("table1.space", "Hemlock", 0, 0.0)
            },
        ];
        assert!(gate(&ok, &baseline, 0.30).is_empty());
    }

    #[test]
    fn gate_ignores_current_only_records() {
        let baseline = vec![rec("fig2.max", "Hemlock", 1, 10.0)];
        let current = vec![
            rec("fig2.max", "Hemlock", 1, 10.0),
            rec("shardkv.s64", "Hemlock", 4, 123.0),
        ];
        assert!(gate(&current, &baseline, 0.3).is_empty());
    }

    #[test]
    fn obs_gate_bounds_enabled_vs_disabled_overhead() {
        let disabled = vec![
            rec("shardkv.s64", "Hemlock", 4, 100.0),
            rec("loadgen.c8.p4", "Hemlock", 4, 50.0),
        ];
        // Within 10%: passes.
        let enabled = vec![
            rec("shardkv.s64", "Hemlock", 4, 91.0),
            rec("loadgen.c8.p4", "Hemlock", 4, 49.0),
        ];
        assert!(obs_gate(&enabled, &disabled, 0.10).is_empty());

        // 15% down on one bench: one failure naming it.
        let slow = vec![
            rec("shardkv.s64", "Hemlock", 4, 85.0),
            rec("loadgen.c8.p4", "Hemlock", 4, 49.0),
        ];
        let failures = obs_gate(&slow, &disabled, 0.10);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("shardkv.s64"), "{failures:?}");

        // Disabled record with no enabled counterpart is loud.
        let failures = obs_gate(&enabled[..1], &disabled, 0.10);
        assert_eq!(failures.len(), 1);
        assert!(failures[0].contains("missing record"), "{failures:?}");
    }
}
