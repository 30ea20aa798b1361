//! The `.scn` scenario file format: a small, TOML-ish declarative
//! description of one test scenario — data setup, a statement list, and
//! an optional knob-matrix override.
//!
//! The format is deliberately tiny (sections, `key = value` pairs,
//! array-of-table `[[stmt]]` blocks, `"""` multiline strings) so a
//! scenario needs no Rust at all; the full grammar is documented in
//! `docs/testing.md`. Parsing is hand-rolled to keep the workspace
//! dependency-free.

use std::fmt;
use std::path::Path;

use xmlpub_common::{DataType, Value};

/// A parsed scenario: what to set up, what to run, and over which knob
/// matrix the runner must prove snapshot invariance.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Scenario name (defaults to the file stem).
    pub name: String,
    /// Free-text description (shown in failure messages).
    pub description: String,
    /// Data setup: a TPC-H catalog, inline tables, or both.
    pub setup: Setup,
    /// Inline tables registered after the TPC-H catalog (if any).
    pub tables: Vec<TableSpec>,
    /// The knob matrix every statement sequence runs across.
    pub matrix: Matrix,
    /// The statement sequence, executed in order in every cell.
    pub stmts: Vec<Stmt>,
}

/// Which base catalog the scenario starts from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Setup {
    /// No generated data — the scenario brings its own `[[table]]`s.
    None,
    /// `Database::tpch(scale)` — supplier / part / partsupp.
    TpchCore(f64),
    /// `Database::tpch_full(scale)` — all eight tables.
    TpchFull(f64),
}

/// An inline table: schema plus literal rows.
#[derive(Debug, Clone)]
pub struct TableSpec {
    pub name: String,
    /// `(column name, type)` pairs, one per `column = "name type"` line.
    pub columns: Vec<(String, DataType)>,
    /// Literal rows, one per `row = [..]` line.
    pub rows: Vec<Vec<Value>>,
}

/// Plan-cache axis: a cold cell plans everything fresh; a warm cell
/// first primes the shared cache by running every read-only statement
/// once, then records the pass that is snapshotted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheMode {
    Cold,
    Warm,
}

impl fmt::Display for CacheMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheMode::Cold => "cold",
            CacheMode::Warm => "warm",
        })
    }
}

/// The knob matrix. Defaults to the full
/// batch {1, 1024} × dop {1, 4} × cache {cold, warm} × trace {off, on}
/// grid; a `[matrix]` section narrows any axis.
#[derive(Debug, Clone)]
pub struct Matrix {
    pub batch: Vec<usize>,
    pub dop: Vec<usize>,
    pub cache: Vec<CacheMode>,
    pub trace: Vec<bool>,
}

impl Default for Matrix {
    fn default() -> Self {
        Matrix {
            batch: vec![1, 1024],
            dop: vec![1, 4],
            cache: vec![CacheMode::Cold, CacheMode::Warm],
            trace: vec![false, true],
        }
    }
}

impl Matrix {
    /// Every cell in row-major (batch, dop, cache, trace) order.
    pub fn cells(&self) -> Vec<Cell> {
        let mut out = Vec::new();
        for &batch in &self.batch {
            for &dop in &self.dop {
                for &cache in &self.cache {
                    for &trace in &self.trace {
                        out.push(Cell { batch, dop, cache, trace });
                    }
                }
            }
        }
        out
    }
}

/// One point of the knob matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cell {
    pub batch: usize,
    pub dop: usize,
    pub cache: CacheMode,
    pub trace: bool,
}

impl fmt::Display for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "batch={} dop={} cache={} trace={}",
            self.batch,
            self.dop,
            self.cache,
            if self.trace { "on" } else { "off" }
        )
    }
}

/// Check a view name against the registry ([`xmlpub_xml::view_names`]),
/// so an unknown name fails at parse time.
fn view_name(s: &str) -> Result<String, String> {
    if xmlpub_xml::view_names().any(|name| name == s) {
        Ok(s.to_string())
    } else {
        let known: Vec<_> = xmlpub_xml::view_names().collect();
        Err(format!("unknown view {s:?} ({})", known.join(" | ")))
    }
}

/// Expected [`xmlpub_server::RepublishOutcome`] classification of a
/// `republish` statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    Incremental,
    Clean,
    /// `full:<reason>` — the exact fallback reason string.
    Full(String),
}

impl Expect {
    fn parse(s: &str) -> Result<Self, String> {
        if s == "incremental" {
            Ok(Expect::Incremental)
        } else if s == "clean" {
            Ok(Expect::Clean)
        } else if let Some(reason) = s.strip_prefix("full:") {
            Ok(Expect::Full(reason.to_string()))
        } else {
            Err(format!("bad expect {s:?} (incremental | clean | full:<reason>)"))
        }
    }
}

/// One deterministic catalog mutation inside an `update` statement.
#[derive(Debug, Clone)]
pub enum UpdateOp {
    /// `delete <table> <row>` — delete the row at the given index of
    /// the table's *current* row vector.
    Delete { table: String, row: usize },
    /// `set <table> <row> <column> <value>` — replace one column of one
    /// row (delete + append, like the proptest mutation scripts).
    Set { table: String, row: usize, column: String, value: Value },
    /// `set-range <table> <lo> <hi> <column> <value>` — `set` applied
    /// to every row index in `[lo, hi)`; the mass-churn op behind the
    /// dirty-fraction fallback scenario.
    SetRange { table: String, lo: usize, hi: usize, column: String, value: Value },
    /// `clone <table> <row> <column> <value>` — append a copy of a row
    /// with one column (typically the key) replaced.
    Clone { table: String, row: usize, column: String, value: Value },
}

/// One statement of the scenario sequence.
#[derive(Debug, Clone)]
pub enum Stmt {
    /// Run SQL through the session; snapshot rows + invariant stats.
    /// `sort = true` canonically sorts rows before rendering (for
    /// plans whose output order is not total).
    Sql { label: String, sql: String, sort: bool },
    /// Snapshot the `\explain` report (bound plan, rules, optimized).
    Explain { label: String, sql: String },
    /// Snapshot the `\explain --analyze` report, reduced to its
    /// matrix-invariant parts (plan + scrubbed engine counters).
    Analyze { label: String, sql: String },
    /// Publish a named view; snapshot the document verbatim.
    Publish { label: String, view: String, pretty: bool },
    /// Apply catalog mutations through the delta path.
    Update { label: String, ops: Vec<UpdateOp> },
    /// Incrementally republish a named view; check the bytes against a
    /// `publish` of the same view at the same catalog state and assert
    /// the outcome classification.
    Republish { label: String, view: String, pretty: bool, expect: Option<Expect> },
}

impl Stmt {
    /// Statements that neither mutate the catalog nor depend on
    /// per-session republish state — safe to run in the warm-cache
    /// priming pass.
    pub fn is_read_only(&self) -> bool {
        matches!(
            self,
            Stmt::Sql { .. } | Stmt::Explain { .. } | Stmt::Analyze { .. } | Stmt::Publish { .. }
        )
    }

    /// The label used in snapshot block headers and failure messages.
    pub fn label(&self) -> &str {
        match self {
            Stmt::Sql { label, .. }
            | Stmt::Explain { label, .. }
            | Stmt::Analyze { label, .. }
            | Stmt::Publish { label, .. }
            | Stmt::Update { label, .. }
            | Stmt::Republish { label, .. } => label,
        }
    }
}

// ---------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------

/// A raw `key = value` literal before interpretation.
#[derive(Debug, Clone, PartialEq)]
enum Lit {
    Str(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    Null,
    Array(Vec<Lit>),
}

impl Lit {
    fn type_name(&self) -> &'static str {
        match self {
            Lit::Str(_) => "string",
            Lit::Int(_) => "int",
            Lit::Float(_) => "float",
            Lit::Bool(_) => "bool",
            Lit::Null => "null",
            Lit::Array(_) => "array",
        }
    }

    fn to_value(&self) -> Result<Value, String> {
        Ok(match self {
            Lit::Str(s) => Value::str(s.clone()),
            Lit::Int(i) => Value::Int(*i),
            Lit::Float(f) => Value::Float(*f),
            Lit::Bool(_) => return Err("bool is not a column value".into()),
            Lit::Null => Value::Null,
            Lit::Array(_) => return Err("nested arrays are not column values".into()),
        })
    }
}

/// One section of the file: `[name]` or `[[name]]` plus its key/value
/// pairs in order (repeated keys are kept — `row = [...]` relies on it).
#[derive(Debug)]
struct Section {
    name: String,
    /// True for `[[name]]` array-of-table syntax.
    repeated: bool,
    entries: Vec<(String, Lit)>,
    line: usize,
}

impl Section {
    fn get(&self, key: &str) -> Option<&Lit> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn get_str(&self, key: &str) -> Result<Option<&str>, String> {
        match self.get(key) {
            None => Ok(None),
            Some(Lit::Str(s)) => Ok(Some(s)),
            Some(other) => {
                Err(format!("[{}] {key} must be a string, got {}", self.name, other.type_name()))
            }
        }
    }

    fn get_bool(&self, key: &str, default: bool) -> Result<bool, String> {
        match self.get(key) {
            None => Ok(default),
            Some(Lit::Bool(b)) => Ok(*b),
            Some(other) => {
                Err(format!("[{}] {key} must be a bool, got {}", self.name, other.type_name()))
            }
        }
    }
}

/// Parse a scenario file's text. `stem` names the scenario when the
/// file has no explicit `name`.
pub fn parse(text: &str, stem: &str) -> Result<Scenario, String> {
    let sections = split_sections(text)?;
    let mut sc = Scenario {
        name: stem.to_string(),
        description: String::new(),
        setup: Setup::None,
        tables: Vec::new(),
        matrix: Matrix::default(),
        stmts: Vec::new(),
    };
    for sec in &sections {
        match (sec.name.as_str(), sec.repeated) {
            ("scenario", false) => {
                if let Some(name) = sec.get_str("name")? {
                    sc.name = name.to_string();
                }
                if let Some(d) = sec.get_str("description")? {
                    sc.description = d.to_string();
                }
            }
            ("setup", false) => sc.setup = parse_setup(sec)?,
            ("matrix", false) => sc.matrix = parse_matrix(sec)?,
            ("table", true) => sc.tables.push(parse_table(sec)?),
            ("stmt", true) => {
                let idx = sc.stmts.len() + 1;
                sc.stmts.push(parse_stmt(sec, idx)?);
            }
            (other, repeated) => {
                let brackets = if repeated { "[[ ]]" } else { "[ ]" };
                return Err(format!("line {}: unknown section {other:?} ({brackets})", sec.line));
            }
        }
    }
    if sc.stmts.is_empty() {
        return Err("scenario has no [[stmt]] sections".into());
    }
    if sc.setup == Setup::None && sc.tables.is_empty() {
        return Err("scenario has neither [setup] nor [[table]] data".into());
    }
    Ok(sc)
}

/// Parse a scenario file from disk.
pub fn parse_file(path: &Path) -> Result<Scenario, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let stem = path.file_stem().and_then(|s| s.to_str()).unwrap_or("scenario");
    parse(&text, stem).map_err(|e| format!("{}: {e}", path.display()))
}

fn parse_setup(sec: &Section) -> Result<Setup, String> {
    let scale = |lit: &Lit| -> Result<f64, String> {
        match lit {
            Lit::Float(f) => Ok(*f),
            Lit::Int(i) => Ok(*i as f64),
            other => Err(format!("[setup] scale must be a number, got {}", other.type_name())),
        }
    };
    match (sec.get("tpch"), sec.get("tpch_full")) {
        (Some(_), Some(_)) => Err("[setup] has both tpch and tpch_full".into()),
        (Some(l), None) => Ok(Setup::TpchCore(scale(l)?)),
        (None, Some(l)) => Ok(Setup::TpchFull(scale(l)?)),
        (None, None) => Ok(Setup::None),
    }
}

fn parse_matrix(sec: &Section) -> Result<Matrix, String> {
    let mut m = Matrix::default();
    for (key, lit) in &sec.entries {
        let items = match lit {
            Lit::Array(items) => items,
            other => {
                return Err(format!("[matrix] {key} must be an array, got {}", other.type_name()))
            }
        };
        if items.is_empty() {
            return Err(format!("[matrix] {key} must not be empty"));
        }
        match key.as_str() {
            "batch" | "dop" => {
                let mut out = Vec::new();
                for it in items {
                    match it {
                        Lit::Int(i) if *i >= 1 => out.push(*i as usize),
                        _ => return Err(format!("[matrix] {key} entries must be ints ≥ 1")),
                    }
                }
                if key == "batch" {
                    m.batch = out;
                } else {
                    m.dop = out;
                }
            }
            "cache" => {
                let mut out = Vec::new();
                for it in items {
                    match it {
                        Lit::Str(s) if s == "cold" => out.push(CacheMode::Cold),
                        Lit::Str(s) if s == "warm" => out.push(CacheMode::Warm),
                        _ => {
                            return Err("[matrix] cache entries must be \"cold\" | \"warm\"".into())
                        }
                    }
                }
                m.cache = out;
            }
            "trace" => {
                let mut out = Vec::new();
                for it in items {
                    match it {
                        Lit::Str(s) if s == "off" => out.push(false),
                        Lit::Str(s) if s == "on" => out.push(true),
                        _ => return Err("[matrix] trace entries must be \"off\" | \"on\"".into()),
                    }
                }
                m.trace = out;
            }
            other => return Err(format!("[matrix] unknown axis {other:?}")),
        }
    }
    Ok(m)
}

fn parse_table(sec: &Section) -> Result<TableSpec, String> {
    let name = sec
        .get_str("name")?
        .ok_or_else(|| format!("line {}: [[table]] needs name", sec.line))?
        .to_string();
    let mut columns = Vec::new();
    let mut rows = Vec::new();
    for (key, lit) in &sec.entries {
        match key.as_str() {
            "name" => {}
            "column" => {
                let spec = match lit {
                    Lit::Str(s) => s,
                    other => {
                        return Err(format!(
                            "[[table]] column must be \"name type\", got {}",
                            other.type_name()
                        ))
                    }
                };
                let mut parts = spec.split_whitespace();
                let (col, ty) = match (parts.next(), parts.next(), parts.next()) {
                    (Some(c), Some(t), None) => (c, t),
                    _ => return Err(format!("bad column spec {spec:?} (want \"name type\")")),
                };
                let ty = match ty {
                    "int" => DataType::Int,
                    "float" => DataType::Float,
                    "str" => DataType::Str,
                    other => return Err(format!("bad column type {other:?} (int | float | str)")),
                };
                columns.push((col.to_string(), ty));
            }
            "row" => {
                let items = match lit {
                    Lit::Array(items) => items,
                    other => {
                        return Err(format!(
                            "[[table]] row must be an array, got {}",
                            other.type_name()
                        ))
                    }
                };
                let row: Result<Vec<Value>, String> = items.iter().map(Lit::to_value).collect();
                rows.push(row?);
            }
            other => return Err(format!("[[table]] unknown key {other:?}")),
        }
    }
    if columns.is_empty() {
        return Err(format!("[[table]] {name} has no columns"));
    }
    for (i, row) in rows.iter().enumerate() {
        if row.len() != columns.len() {
            return Err(format!(
                "[[table]] {name} row {i} has {} values for {} columns",
                row.len(),
                columns.len()
            ));
        }
    }
    Ok(TableSpec { name, columns, rows })
}

fn parse_stmt(sec: &Section, idx: usize) -> Result<Stmt, String> {
    let kinds = ["sql", "explain", "analyze", "publish", "update", "republish"];
    let present: Vec<&str> =
        kinds.iter().copied().filter(|k| sec.entries.iter().any(|(key, _)| key == k)).collect();
    let kind = match present.as_slice() {
        [one] => *one,
        [] => {
            return Err(format!(
                "line {}: [[stmt]] {idx} needs one of {}",
                sec.line,
                kinds.join(" | ")
            ))
        }
        many => {
            return Err(format!("line {}: [[stmt]] {idx} mixes {}", sec.line, many.join(" + ")))
        }
    };
    let label = match sec.get_str("name")? {
        Some(n) => n.to_string(),
        None => match kind {
            "publish" | "republish" => {
                format!("{kind} {}", sec.get_str(kind)?.unwrap_or_default())
            }
            _ => kind.to_string(),
        },
    };
    let sql_of = |key: &str| -> Result<String, String> {
        Ok(sec.get_str(key)?.ok_or_else(|| format!("{key} must be a string"))?.trim().to_string())
    };
    match kind {
        "sql" => Ok(Stmt::Sql { label, sql: sql_of("sql")?, sort: sec.get_bool("sort", false)? }),
        "explain" => Ok(Stmt::Explain { label, sql: sql_of("explain")? }),
        "analyze" => Ok(Stmt::Analyze { label, sql: sql_of("analyze")? }),
        "publish" => Ok(Stmt::Publish {
            label,
            view: view_name(sec.get_str("publish")?.unwrap_or_default())?,
            pretty: sec.get_bool("pretty", true)?,
        }),
        "republish" => Ok(Stmt::Republish {
            label,
            view: view_name(sec.get_str("republish")?.unwrap_or_default())?,
            pretty: sec.get_bool("pretty", true)?,
            expect: sec.get_str("expect")?.map(Expect::parse).transpose()?,
        }),
        "update" => {
            let mut ops = Vec::new();
            for (key, lit) in &sec.entries {
                if key != "update" {
                    continue;
                }
                let spec = match lit {
                    Lit::Str(s) => s,
                    other => {
                        return Err(format!("update must be a string, got {}", other.type_name()))
                    }
                };
                ops.push(parse_update_op(spec)?);
            }
            if ops.is_empty() {
                return Err(format!("[[stmt]] {idx}: update statement has no update ops"));
            }
            Ok(Stmt::Update { label, ops })
        }
        _ => unreachable!(),
    }
}

/// Parse one update-op spec. Tokens are whitespace-separated; the
/// trailing value token is a literal (int / float / null / 'quoted
/// string').
fn parse_update_op(spec: &str) -> Result<UpdateOp, String> {
    let toks = tokenize_op(spec)?;
    let usize_tok = |t: &str| -> Result<usize, String> {
        t.parse::<usize>().map_err(|_| format!("bad index {t:?} in {spec:?}"))
    };
    let value_tok = |t: &str| -> Result<Value, String> {
        if t == "null" {
            Ok(Value::Null)
        } else if let Some(s) = t.strip_prefix('\'').and_then(|s| s.strip_suffix('\'')) {
            Ok(Value::str(s))
        } else if let Ok(i) = t.parse::<i64>() {
            Ok(Value::Int(i))
        } else if let Ok(f) = t.parse::<f64>() {
            Ok(Value::Float(f))
        } else {
            Err(format!("bad value {t:?} in {spec:?} (int | float | null | 'string')"))
        }
    };
    match toks.as_slice() {
        [op, table, row] if op == "delete" => {
            Ok(UpdateOp::Delete { table: table.clone(), row: usize_tok(row)? })
        }
        [op, table, row, column, value] if op == "set" => Ok(UpdateOp::Set {
            table: table.clone(),
            row: usize_tok(row)?,
            column: column.clone(),
            value: value_tok(value)?,
        }),
        [op, table, lo, hi, column, value] if op == "set-range" => Ok(UpdateOp::SetRange {
            table: table.clone(),
            lo: usize_tok(lo)?,
            hi: usize_tok(hi)?,
            column: column.clone(),
            value: value_tok(value)?,
        }),
        [op, table, row, column, value] if op == "clone" => Ok(UpdateOp::Clone {
            table: table.clone(),
            row: usize_tok(row)?,
            column: column.clone(),
            value: value_tok(value)?,
        }),
        _ => Err(format!(
            "bad update op {spec:?} (delete t i | set t i col v | set-range t lo hi col v | clone t i col v)"
        )),
    }
}

/// Split an op spec into tokens, keeping `'quoted strings'` (which may
/// contain spaces) as single tokens.
fn tokenize_op(spec: &str) -> Result<Vec<String>, String> {
    let mut toks = Vec::new();
    let mut rest = spec.trim();
    while !rest.is_empty() {
        if let Some(tail) = rest.strip_prefix('\'') {
            let end = tail.find('\'').ok_or_else(|| format!("unterminated ' in {spec:?}"))?;
            toks.push(format!("'{}'", &tail[..end]));
            rest = tail[end + 1..].trim_start();
        } else {
            let end = rest.find(char::is_whitespace).unwrap_or(rest.len());
            toks.push(rest[..end].to_string());
            rest = rest[end..].trim_start();
        }
    }
    Ok(toks)
}

// ---------------------------------------------------------------------
// Low-level line format
// ---------------------------------------------------------------------

fn split_sections(text: &str) -> Result<Vec<Section>, String> {
    let mut sections: Vec<Section> = Vec::new();
    let mut lines = text.lines().enumerate().peekable();
    while let Some((i, raw)) = lines.next() {
        let line = raw.trim();
        let lineno = i + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(name) = line.strip_prefix("[[").and_then(|s| s.strip_suffix("]]")) {
            sections.push(Section {
                name: name.trim().to_string(),
                repeated: true,
                entries: Vec::new(),
                line: lineno,
            });
        } else if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
            sections.push(Section {
                name: name.trim().to_string(),
                repeated: false,
                entries: Vec::new(),
                line: lineno,
            });
        } else {
            let (key, rest) = line
                .split_once('=')
                .ok_or_else(|| format!("line {lineno}: expected `key = value`, got {line:?}"))?;
            let key = key.trim().to_string();
            let rest = rest.trim();
            let lit = if rest == "\"\"\"" {
                // Multiline string: lines verbatim until a `"""` line.
                let mut body = String::new();
                let mut closed = false;
                for (_, l) in lines.by_ref() {
                    if l.trim() == "\"\"\"" {
                        closed = true;
                        break;
                    }
                    if !body.is_empty() {
                        body.push('\n');
                    }
                    body.push_str(l);
                }
                if !closed {
                    return Err(format!("line {lineno}: unterminated \"\"\" string"));
                }
                Lit::Str(body)
            } else {
                parse_lit(rest).map_err(|e| format!("line {lineno}: {e}"))?
            };
            let sec = sections
                .last_mut()
                .ok_or_else(|| format!("line {lineno}: `{key} = ...` before any [section]"))?;
            sec.entries.push((key, lit));
        }
    }
    Ok(sections)
}

fn parse_lit(s: &str) -> Result<Lit, String> {
    let s = s.trim();
    if let Some(inner) = s.strip_prefix('[') {
        let inner = inner.strip_suffix(']').ok_or_else(|| format!("unterminated array {s:?}"))?;
        let mut items = Vec::new();
        for part in split_array_items(inner)? {
            let part = part.trim();
            if !part.is_empty() {
                items.push(parse_lit(part)?);
            }
        }
        return Ok(Lit::Array(items));
    }
    if let Some(tail) = s.strip_prefix('"') {
        let body = tail.strip_suffix('"').ok_or_else(|| format!("unterminated string {s:?}"))?;
        if body.contains('"') {
            return Err(format!("stray quote inside {s:?}"));
        }
        return Ok(Lit::Str(body.to_string()));
    }
    match s {
        "true" => return Ok(Lit::Bool(true)),
        "false" => return Ok(Lit::Bool(false)),
        "null" => return Ok(Lit::Null),
        _ => {}
    }
    if let Ok(i) = s.parse::<i64>() {
        return Ok(Lit::Int(i));
    }
    if let Ok(f) = s.parse::<f64>() {
        return Ok(Lit::Float(f));
    }
    Err(format!("bad literal {s:?}"))
}

/// Split array contents on commas that are outside double quotes.
fn split_array_items(inner: &str) -> Result<Vec<String>, String> {
    let mut items = Vec::new();
    let mut cur = String::new();
    let mut in_str = false;
    for c in inner.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            ',' if !in_str => {
                items.push(std::mem::take(&mut cur));
            }
            _ => cur.push(c),
        }
    }
    if in_str {
        return Err(format!("unterminated string in array [{inner}]"));
    }
    items.push(cur);
    Ok(items)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_scenario() {
        let text = r#"
# a comment
[scenario]
name = "demo"
description = "round trip"

[setup]
tpch = 0.001

[matrix]
batch = [1, 1024]
dop = [1]
cache = ["cold"]
trace = ["off", "on"]

[[table]]
name = "t"
column = "k int"
column = "v str"
row = [1, "a"]
row = [null, "b"]

[[stmt]]
name = "count"
sql = """
select count(*)
from supplier
"""

[[stmt]]
publish = "supplier_parts"
pretty = false

[[stmt]]
update = "delete supplier 0"
update = "set supplier 1 s_name 'Supplier#X Y'"

[[stmt]]
republish = "supplier_parts"
expect = "full:first-publish"
"#;
        let sc = parse(text, "stem").unwrap();
        assert_eq!(sc.name, "demo");
        assert_eq!(sc.setup, Setup::TpchCore(0.001));
        assert_eq!(sc.matrix.cells().len(), 4);
        assert_eq!(sc.tables.len(), 1);
        assert_eq!(sc.tables[0].rows[1][0], Value::Null);
        assert_eq!(sc.stmts.len(), 4);
        match &sc.stmts[0] {
            Stmt::Sql { label, sql, sort } => {
                assert_eq!(label, "count");
                assert!(sql.contains("from supplier"));
                assert!(!sort);
            }
            other => panic!("bad stmt {other:?}"),
        }
        match &sc.stmts[2] {
            Stmt::Update { ops, .. } => {
                assert_eq!(ops.len(), 2);
                match &ops[1] {
                    UpdateOp::Set { column, value, .. } => {
                        assert_eq!(column, "s_name");
                        assert_eq!(*value, Value::str("Supplier#X Y"));
                    }
                    other => panic!("bad op {other:?}"),
                }
            }
            other => panic!("bad stmt {other:?}"),
        }
        match &sc.stmts[3] {
            Stmt::Republish { expect, pretty, .. } => {
                assert_eq!(*expect, Some(Expect::Full("first-publish".into())));
                assert!(*pretty);
            }
            other => panic!("bad stmt {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(parse("[scenario]\n", "x").is_err()); // no stmts
        assert!(parse("key = 1\n", "x").is_err()); // key before section
        assert!(
            parse("[setup]\ntpch = 0.001\n[[stmt]]\nsql = \"q\"\nexplain = \"q\"\n", "x").is_err()
        ); // mixed kinds
        assert!(parse("[setup]\ntpch = 0.001\n[[stmt]]\nupdate = \"frob x 1\"\n", "x").is_err());
        // An unknown view fails at parse time and lists the known ones.
        let err = parse("[setup]\ntpch = 0.001\n[[stmt]]\npublish = \"nope\"\n", "x").unwrap_err();
        assert!(err.contains("\"nope\" (supplier_parts | customer_orders)"), "{err}");
    }
}
