//! Structured query-lifecycle spans, serialized as JSON lines.
//!
//! A span is `{id, parent, name, start_us, dur_us, attrs}`; the tracer
//! hands out [`SpanGuard`]s that emit on drop, so the common call-site
//! shape is `let _sp = tracer.span("optimize", parent, &[...]);` and the
//! duration is measured by scope. Spans that are reconstructed after the
//! fact (per-operator timings synthesized from `Profiled` slots) go
//! through [`TraceHandle::emit_span`] with explicit timestamps.
//!
//! Cost model: a **disabled** handle makes `span()` return an inert
//! guard after one branch — no allocation, no clock read. An **enabled**
//! handle formats the line locally and takes the sink lock only for the
//! final `write_all`, so concurrent workers' lines never interleave
//! mid-record.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::json::{self, escape_into, JsonValue};
use crate::time::saturating_us_since;

/// Span identifier. `0` means "no span" and is used as the root parent.
pub type SpanId = u64;

struct TraceInner {
    enabled: AtomicBool,
    epoch: Instant,
    next_id: AtomicU64,
    sink: Mutex<Box<dyn Write + Send>>,
}

/// Cheap, cloneable tracer capability. `Default` is disabled.
#[derive(Clone, Default)]
pub struct TraceHandle(Option<Arc<TraceInner>>);

impl TraceHandle {
    /// A disabled handle (the `Default`).
    pub fn disabled() -> Self {
        TraceHandle(None)
    }

    /// A live tracer writing JSON lines into `sink`.
    pub fn new(sink: Box<dyn Write + Send>) -> Self {
        TraceHandle(Some(Arc::new(TraceInner {
            enabled: AtomicBool::new(true),
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            sink: Mutex::new(sink),
        })))
    }

    /// Is the tracer currently emitting?
    #[inline]
    pub fn enabled(&self) -> bool {
        match &self.0 {
            Some(inner) => inner.enabled.load(Ordering::Relaxed),
            None => false,
        }
    }

    /// Toggle emission at runtime (`\trace on|off`). A handle built
    /// with [`disabled`](Self::disabled) has no sink and stays off.
    pub fn set_enabled(&self, on: bool) {
        if let Some(inner) = &self.0 {
            inner.enabled.store(on, Ordering::Relaxed);
        }
    }

    /// Microseconds since this tracer's epoch (0 when disabled).
    pub fn now_us(&self) -> u64 {
        match &self.0 {
            Some(inner) => saturating_us_since(inner.epoch),
            None => 0,
        }
    }

    /// Start a span. The returned guard emits when dropped; its
    /// [`id`](SpanGuard::id) parents child spans. Inert when disabled.
    pub fn span(&self, name: &str, parent: SpanId, attrs: &[(&str, &str)]) -> SpanGuard {
        if !self.enabled() {
            return SpanGuard {
                handle: TraceHandle::disabled(),
                id: 0,
                parent: 0,
                name: String::new(),
                attrs: Vec::new(),
                start: None,
            };
        }
        let inner = self.0.as_ref().unwrap();
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        SpanGuard {
            handle: self.clone(),
            id,
            parent,
            name: name.to_string(),
            attrs: attrs.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect(),
            start: Some(Instant::now()),
        }
    }

    /// Emit a complete span with explicit timestamps (µs relative to
    /// this tracer's epoch). Used to synthesize spans from measurements
    /// taken elsewhere, e.g. per-operator times out of `Profiled` slots.
    /// Returns the allocated id (0 when disabled).
    pub fn emit_span(
        &self,
        name: &str,
        parent: SpanId,
        start_us: u64,
        dur_us: u64,
        attrs: &[(&str, &str)],
    ) -> SpanId {
        if !self.enabled() {
            return 0;
        }
        let inner = self.0.as_ref().unwrap();
        let id = inner.next_id.fetch_add(1, Ordering::Relaxed);
        self.write_record(id, parent, name, start_us, dur_us, attrs);
        id
    }

    fn write_record(
        &self,
        id: SpanId,
        parent: SpanId,
        name: &str,
        start_us: u64,
        dur_us: u64,
        attrs: &[(&str, &str)],
    ) {
        let inner = match &self.0 {
            Some(inner) => inner,
            None => return,
        };
        let mut line = String::with_capacity(96);
        line.push_str("{\"id\":");
        line.push_str(&id.to_string());
        line.push_str(",\"parent\":");
        line.push_str(&parent.to_string());
        line.push_str(",\"name\":");
        escape_into(&mut line, name);
        line.push_str(",\"start_us\":");
        line.push_str(&start_us.to_string());
        line.push_str(",\"dur_us\":");
        line.push_str(&dur_us.to_string());
        line.push_str(",\"attrs\":{");
        for (i, (k, v)) in attrs.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            escape_into(&mut line, k);
            line.push(':');
            escape_into(&mut line, v);
        }
        line.push_str("}}\n");
        let mut sink = inner.sink.lock().unwrap();
        let _ = sink.write_all(line.as_bytes());
    }
}

/// An in-flight span; emits its record when dropped.
pub struct SpanGuard {
    handle: TraceHandle,
    id: SpanId,
    parent: SpanId,
    name: String,
    attrs: Vec<(String, String)>,
    start: Option<Instant>,
}

impl SpanGuard {
    /// This span's id, for parenting children (0 when inert).
    pub fn id(&self) -> SpanId {
        self.id
    }

    /// Attach an attribute discovered mid-span (e.g. row counts known
    /// only at the end). No-op on an inert guard — the value is not even
    /// formatted, so callers pass numbers as they are.
    pub fn annotate(&mut self, key: &str, value: impl std::fmt::Display) {
        if self.start.is_some() {
            self.attrs.push((key.to_string(), value.to_string()));
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let start = match self.start {
            Some(s) => s,
            None => return,
        };
        let dur_us = saturating_us_since(start);
        // start relative to the tracer epoch = now - dur (saturating).
        let start_us = self.handle.now_us().saturating_sub(dur_us);
        let attrs: Vec<(&str, &str)> =
            self.attrs.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        self.handle.write_record(self.id, self.parent, &self.name, start_us, dur_us, &attrs);
    }
}

/// A cloneable in-memory sink for tests: pass `Box::new(sink.clone())`
/// to [`TraceHandle::new`] and read back with
/// [`contents`](Self::contents).
#[derive(Clone, Default)]
pub struct BufferSink(Arc<Mutex<Vec<u8>>>);

impl BufferSink {
    /// An empty sink.
    pub fn new() -> Self {
        BufferSink::default()
    }

    /// Everything written so far, as UTF-8.
    pub fn contents(&self) -> String {
        String::from_utf8_lossy(&self.0.lock().unwrap()).into_owned()
    }
}

impl Write for BufferSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A parsed span record.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span id.
    pub id: SpanId,
    /// Parent span id (0 = root).
    pub parent: SpanId,
    /// Span name.
    pub name: String,
    /// Start, µs since tracer epoch.
    pub start_us: u64,
    /// Duration, µs.
    pub dur_us: u64,
    /// Attributes in emission order.
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// Parse one JSON line.
    pub fn parse_line(line: &str) -> Result<SpanRecord, String> {
        let v = json::parse(line)?;
        let field = |k: &str| {
            v.get(k).and_then(JsonValue::as_u64).ok_or_else(|| format!("missing/bad '{k}'"))
        };
        let name =
            v.get("name").and_then(JsonValue::as_str).ok_or("missing/bad 'name'")?.to_string();
        let attrs = match v.get("attrs") {
            Some(JsonValue::Obj(members)) => members
                .iter()
                .map(|(k, val)| {
                    val.as_str()
                        .map(|s| (k.clone(), s.to_string()))
                        .ok_or_else(|| format!("non-string attr '{k}'"))
                })
                .collect::<Result<Vec<_>, _>>()?,
            None => Vec::new(),
            Some(_) => return Err("'attrs' is not an object".into()),
        };
        Ok(SpanRecord {
            id: field("id")?,
            parent: field("parent")?,
            name,
            start_us: field("start_us")?,
            dur_us: field("dur_us")?,
            attrs,
        })
    }

    /// Parse a whole JSONL buffer, ignoring blank lines.
    pub fn parse_all(text: &str) -> Result<Vec<SpanRecord>, String> {
        text.lines().filter(|l| !l.trim().is_empty()).map(SpanRecord::parse_line).collect()
    }
}

/// Render the spans as a normalized tree: ids and timings are dropped,
/// spans named in `drop_names` are elided (children re-parented to the
/// elided span's parent), attributes named in `drop_attrs` are removed,
/// and siblings are sorted by `(name, attrs)`. Two runs that differ only
/// in scheduling — e.g. dop 1 vs dop 4, where worker spans and ids vary
/// — normalize to identical strings.
pub fn normalized_tree(records: &[SpanRecord], drop_names: &[&str], drop_attrs: &[&str]) -> String {
    use std::collections::BTreeMap;

    // Effective parent: hop over dropped spans.
    let by_id: BTreeMap<SpanId, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    let dropped = |r: &SpanRecord| drop_names.contains(&r.name.as_str());
    let effective_parent = |r: &SpanRecord| {
        let mut p = r.parent;
        while let Some(pr) = by_id.get(&p) {
            if dropped(pr) {
                p = pr.parent;
            } else {
                break;
            }
        }
        p
    };

    let mut children: BTreeMap<SpanId, Vec<&SpanRecord>> = BTreeMap::new();
    let mut roots: Vec<&SpanRecord> = Vec::new();
    for r in records {
        if dropped(r) {
            continue;
        }
        let p = effective_parent(r);
        if by_id.contains_key(&p) && p != r.id {
            children.entry(p).or_default().push(r);
        } else {
            roots.push(r);
        }
    }

    fn label(r: &SpanRecord, drop_attrs: &[&str]) -> String {
        let mut attrs: Vec<&(String, String)> =
            r.attrs.iter().filter(|(k, _)| !drop_attrs.contains(&k.as_str())).collect();
        attrs.sort();
        let mut s = r.name.clone();
        for (k, v) in attrs {
            s.push(' ');
            s.push_str(k);
            s.push('=');
            s.push_str(v);
        }
        s
    }

    fn render(
        out: &mut String,
        node: &SpanRecord,
        depth: usize,
        children: &std::collections::BTreeMap<SpanId, Vec<&SpanRecord>>,
        drop_attrs: &[&str],
    ) {
        for _ in 0..depth {
            out.push_str("  ");
        }
        out.push_str(&label(node, drop_attrs));
        out.push('\n');
        if let Some(kids) = children.get(&node.id) {
            let mut kids: Vec<&&SpanRecord> = kids.iter().collect();
            kids.sort_by_key(|r| label(r, drop_attrs));
            for kid in kids {
                render(out, kid, depth + 1, children, drop_attrs);
            }
        }
    }

    roots.sort_by_key(|r| label(r, drop_attrs));
    let mut out = String::new();
    for root in roots {
        render(&mut out, root, 0, &children, drop_attrs);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_emits_on_drop_and_round_trips() {
        let sink = BufferSink::new();
        let tracer = TraceHandle::new(Box::new(sink.clone()));
        let parent_id;
        {
            let mut root = tracer.span("query", 0, &[("sql", "select \"x\"")]);
            root.annotate("rows", "3");
            parent_id = root.id();
            let _child = tracer.span("parse", root.id(), &[]);
        }
        let records = SpanRecord::parse_all(&sink.contents()).unwrap();
        // Children drop before parents, so "parse" is emitted first.
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].name, "parse");
        assert_eq!(records[0].parent, parent_id);
        assert_eq!(records[1].name, "query");
        assert_eq!(
            records[1].attrs,
            vec![
                ("sql".to_string(), "select \"x\"".to_string()),
                ("rows".to_string(), "3".to_string())
            ]
        );
    }

    #[test]
    fn disabled_tracer_emits_nothing() {
        let tracer = TraceHandle::disabled();
        assert!(!tracer.enabled());
        let g = tracer.span("x", 0, &[("a", "b")]);
        assert_eq!(g.id(), 0);
        drop(g);
        assert_eq!(tracer.emit_span("y", 0, 1, 2, &[]), 0);
    }

    #[test]
    fn set_enabled_toggles_emission() {
        let sink = BufferSink::new();
        let tracer = TraceHandle::new(Box::new(sink.clone()));
        tracer.set_enabled(false);
        drop(tracer.span("hidden", 0, &[]));
        tracer.set_enabled(true);
        drop(tracer.span("visible", 0, &[]));
        let records = SpanRecord::parse_all(&sink.contents()).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].name, "visible");
    }

    #[test]
    fn emit_span_uses_explicit_times() {
        let sink = BufferSink::new();
        let tracer = TraceHandle::new(Box::new(sink.clone()));
        let id = tracer.emit_span("op:Scan", 0, 5, 17, &[("rows", "100")]);
        assert!(id > 0);
        let records = SpanRecord::parse_all(&sink.contents()).unwrap();
        assert_eq!(records[0].start_us, 5);
        assert_eq!(records[0].dur_us, 17);
    }

    #[test]
    fn normalization_drops_workers_and_ignores_ids() {
        // Run A (dop 1): query -> execute -> op. Run B (dop 4): same
        // logical tree, different ids, plus worker spans under execute.
        let a = vec![
            SpanRecord {
                id: 1,
                parent: 0,
                name: "query".into(),
                start_us: 0,
                dur_us: 9,
                attrs: vec![],
            },
            SpanRecord {
                id: 2,
                parent: 1,
                name: "execute".into(),
                start_us: 1,
                dur_us: 8,
                attrs: vec![("dop".into(), "1".into())],
            },
            SpanRecord {
                id: 3,
                parent: 2,
                name: "op:Scan".into(),
                start_us: 2,
                dur_us: 3,
                attrs: vec![],
            },
        ];
        let b = vec![
            SpanRecord {
                id: 10,
                parent: 0,
                name: "query".into(),
                start_us: 0,
                dur_us: 5,
                attrs: vec![],
            },
            SpanRecord {
                id: 20,
                parent: 10,
                name: "execute".into(),
                start_us: 1,
                dur_us: 4,
                attrs: vec![("dop".into(), "4".into())],
            },
            SpanRecord {
                id: 31,
                parent: 20,
                name: "gapply.worker".into(),
                start_us: 1,
                dur_us: 2,
                attrs: vec![("worker".into(), "0".into())],
            },
            SpanRecord {
                id: 32,
                parent: 20,
                name: "gapply.worker".into(),
                start_us: 1,
                dur_us: 2,
                attrs: vec![("worker".into(), "1".into())],
            },
            SpanRecord {
                id: 33,
                parent: 31,
                name: "op:Scan".into(),
                start_us: 2,
                dur_us: 1,
                attrs: vec![],
            },
        ];
        let norm_a = normalized_tree(&a, &["gapply.worker"], &["dop"]);
        let norm_b = normalized_tree(&b, &["gapply.worker"], &["dop"]);
        assert_eq!(norm_a, norm_b);
        assert_eq!(norm_a, "query\n  execute\n    op:Scan\n");
    }

    #[test]
    fn sink_lines_are_complete_under_concurrency() {
        let sink = BufferSink::new();
        let tracer = TraceHandle::new(Box::new(sink.clone()));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let tracer = tracer.clone();
                scope.spawn(move || {
                    for i in 0..50 {
                        let n = format!("t{t}.{i}");
                        drop(tracer.span(&n, 0, &[("k", "v")]));
                    }
                });
            }
        });
        let records = SpanRecord::parse_all(&sink.contents()).unwrap();
        assert_eq!(records.len(), 200);
    }
}
