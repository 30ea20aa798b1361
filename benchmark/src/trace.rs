//! In-memory spans recorded from the benchmark's own files, around the
//! calls into each layer. Nothing is recorded inside `crates/`.
//!
//! A span is `{name, start_ns, end_ns, parent, request_id}`; ids are
//! 1-based positions in the recording, parent 0 means a root. Spans are
//! kept in memory and written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request_id: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans when enabled; when disabled `span` only runs the
/// closure, which is how the untraced replay that `trace.overhead_frac`
/// compares against goes through the identical code.
pub struct Recorder {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
    request_id: u32,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
            request_id: 0,
        }
    }

    /// Spans recorded from here on belong to request `id`.
    pub fn begin_request(&mut self, id: u32) {
        self.request_id = id;
    }

    /// Run `f` inside a span called `name`, child of the span that is
    /// open on this recorder right now.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let parent = self.open.last().copied().unwrap_or(0);
        let index = self.spans.len();
        self.spans.push(Span { name, start_ns: 0, end_ns: 0, parent, request_id: self.request_id });
        self.open.push(index as u32 + 1);
        let start = self.origin.elapsed();
        let out = f(self);
        let end = self.origin.elapsed();
        self.open.pop();
        self.spans[index].start_ns = start.as_nanos() as u64;
        self.spans[index].end_ns = end.as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line, in recording order.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request_id\":{}}}",
                i + 1,
                s.name,
                s.start_ns,
                s.end_ns,
                s.parent,
                s.request_id
            )?;
        }
        Ok(())
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its children cover. Children that overlap each other (parallel
/// work) are merged first, so shared time is subtracted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let Some(kids) = children.get_mut(&(i as u32 + 1)) else {
                return s.duration_ns();
            };
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Self time per request and span name, summed over the spans of that
/// name in the request (a streamed publish has one `engine.execute` and
/// one `xml.tag` span per batch).
pub fn self_ns_by_request(spans: &[Span]) -> BTreeMap<u32, BTreeMap<&'static str, u64>> {
    let mut out: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.request_id).or_default().entry(s.name).or_default() += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span { name, start_ns, end_ns, parent, request_id: 1 }
    }

    #[test]
    fn self_time_subtracts_overlapping_children_once() {
        let spans = vec![
            span("request", 0, 100, 0),
            span("a", 10, 50, 1),
            span("b", 30, 70, 1),  // overlaps a on [30, 50)
            span("c", 90, 120, 1), // runs past its parent: clipped to [90, 100)
            span("a.inner", 20, 40, 2),
        ];
        let st = self_times(&spans);
        // request: 100 - |[10,70) ∪ [90,100)| = 100 - 70
        assert_eq!(st, vec![30, 20, 40, 30, 20]);
        let by = self_ns_by_request(&spans);
        assert_eq!(by[&1]["request"], 30);
        assert_eq!(by[&1]["a"], 20);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(true);
        rec.begin_request(7);
        let v = rec.span("outer", |rec| rec.span("inner", |_| 42));
        assert_eq!(v, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", 0));
        assert_eq!((spans[1].name, spans[1].parent, spans[1].request_id), ("inner", 1, 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let mut text = Vec::new();
        rec.write_jsonl(&mut text).unwrap();
        assert_eq!(String::from_utf8(text).unwrap().lines().count(), 2);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("outer", |rec| rec.span("inner", |_| 1)), 1);
        assert!(off.spans().is_empty());
    }
}
