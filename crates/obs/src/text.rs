//! Text exposition for metrics snapshots: a line-oriented, versioned,
//! deterministic format that round-trips losslessly.
//!
//! ```text
//! # xmlpub metrics v1
//! counter server.queries_total 42
//! gauge server.sessions_active 3
//! histogram session.exec_us count=10 sum_us=1234 buckets=7:9,13:1
//! ```
//!
//! Lines are sorted by kind then name (the registry snapshot is
//! `BTreeMap`-backed), so the output is byte-stable for a given state —
//! the golden-report tests depend on that. Histograms carry their full
//! sparse bucket vector, so a consumer (a scraper, or the server's
//! metrics-accounting tests) can reconstruct a [`HistogramSnapshot`]
//! and compute percentiles on the *server's* recordings instead of
//! re-timing client-side.

use crate::histogram::{HistogramSnapshot, BUCKETS};
use crate::registry::MetricsSnapshot;

/// Format version header; [`parse_text`] rejects anything else.
pub const HEADER: &str = "# xmlpub metrics v1";

/// One parsed exposition line.
#[derive(Debug, Clone, PartialEq)]
pub enum TextEntry {
    /// `counter <name> <value>`
    Counter {
        /// Metric name.
        name: String,
        /// Counter value.
        value: u64,
    },
    /// `gauge <name> <value>`
    Gauge {
        /// Metric name.
        name: String,
        /// Gauge value.
        value: i64,
    },
    /// `histogram <name> count=.. sum_us=.. buckets=..`
    Histogram {
        /// Metric name.
        name: String,
        /// Reconstructed histogram state (boxed: the bucket array
        /// dwarfs the other variants).
        snapshot: Box<HistogramSnapshot>,
    },
}

/// Render a snapshot in exposition format (trailing newline included).
pub fn render_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    out.push_str(HEADER);
    out.push('\n');
    for (name, value) in &snap.counters {
        out.push_str("counter ");
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    for (name, value) in &snap.gauges {
        out.push_str("gauge ");
        out.push_str(name);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    for (name, h) in &snap.histograms {
        out.push_str("histogram ");
        out.push_str(name);
        out.push_str(" count=");
        out.push_str(&h.count.to_string());
        out.push_str(" sum_us=");
        out.push_str(&h.sum_us.to_string());
        out.push_str(" buckets=");
        let mut any = false;
        for (i, &c) in h.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if any {
                out.push(',');
            }
            out.push_str(&i.to_string());
            out.push(':');
            out.push_str(&c.to_string());
            any = true;
        }
        if !any {
            out.push('-');
        }
        out.push('\n');
    }
    out
}

/// Parse exposition text back into a snapshot. Strict: unknown line
/// kinds, malformed fields, or a missing/old header are errors, so
/// format drift fails loudly in CI instead of silently parsing to
/// nothing.
pub fn parse_text(text: &str) -> Result<MetricsSnapshot, String> {
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h == HEADER => {}
        Some(h) => return Err(format!("unexpected header: {h:?}")),
        None => return Err("empty metrics text".into()),
    }
    let mut snap = MetricsSnapshot::default();
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        match parse_line(line)? {
            TextEntry::Counter { name, value } => {
                snap.counters.insert(name, value);
            }
            TextEntry::Gauge { name, value } => {
                snap.gauges.insert(name, value);
            }
            TextEntry::Histogram { name, snapshot } => {
                snap.histograms.insert(name, *snapshot);
            }
        }
    }
    Ok(snap)
}

/// Parse a single exposition line.
pub fn parse_line(line: &str) -> Result<TextEntry, String> {
    let mut parts = line.split_whitespace();
    let kind = parts.next().ok_or("empty line")?;
    let name = parts.next().ok_or_else(|| format!("missing name in {line:?}"))?.to_string();
    match kind {
        "counter" => {
            let value = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad counter value in {line:?}"))?;
            Ok(TextEntry::Counter { name, value })
        }
        "gauge" => {
            let value = parts
                .next()
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad gauge value in {line:?}"))?;
            Ok(TextEntry::Gauge { name, value })
        }
        "histogram" => {
            let mut snapshot = HistogramSnapshot::empty();
            for field in parts {
                let (key, value) =
                    field.split_once('=').ok_or_else(|| format!("bad field {field:?}"))?;
                match key {
                    "count" => {
                        snapshot.count =
                            value.parse().map_err(|_| format!("bad count in {line:?}"))?;
                    }
                    "sum_us" => {
                        snapshot.sum_us =
                            value.parse().map_err(|_| format!("bad sum_us in {line:?}"))?;
                    }
                    "buckets" => {
                        if value == "-" {
                            continue;
                        }
                        for pair in value.split(',') {
                            let (idx, cnt) = pair
                                .split_once(':')
                                .ok_or_else(|| format!("bad bucket {pair:?}"))?;
                            let idx: usize =
                                idx.parse().map_err(|_| format!("bad bucket index {pair:?}"))?;
                            if idx >= BUCKETS {
                                return Err(format!("bucket index {idx} out of range"));
                            }
                            snapshot.buckets[idx] =
                                cnt.parse().map_err(|_| format!("bad bucket count {pair:?}"))?;
                        }
                    }
                    other => return Err(format!("unknown histogram field {other:?}")),
                }
            }
            Ok(TextEntry::Histogram { name, snapshot: Box::new(snapshot) })
        }
        other => Err(format!("unknown line kind {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    fn sample() -> MetricsSnapshot {
        let r = Registry::new();
        r.counter("server.queries_total").add(42);
        r.counter("cache.hits").add(7);
        // The transport layer's names (dotted segments, a gauge that can
        // sit at zero) must survive the round trip like any others.
        r.counter("server.net.connections.opened").add(5);
        r.counter("server.net.bytes_out").add(123_456_789);
        let _ = r.gauge("server.net.connections.active");
        r.gauge("server.sessions_active").set(3);
        let h = r.histogram("session.exec_us");
        h.record(100);
        h.record(100);
        h.record(9_000);
        r.snapshot()
    }

    #[test]
    fn render_is_deterministic_and_sorted() {
        let text = render_text(&sample());
        assert_eq!(text, render_text(&sample()));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], HEADER);
        assert_eq!(lines[1], "counter cache.hits 7");
        assert_eq!(lines[2], "counter server.net.bytes_out 123456789");
        assert_eq!(lines[3], "counter server.net.connections.opened 5");
        assert_eq!(lines[4], "counter server.queries_total 42");
        assert_eq!(lines[5], "gauge server.net.connections.active 0");
        assert_eq!(lines[6], "gauge server.sessions_active 3");
        assert!(lines[7].starts_with("histogram session.exec_us count=3 sum_us=9200 buckets="));
    }

    #[test]
    fn round_trip_is_lossless() {
        let snap = sample();
        let parsed = parse_text(&render_text(&snap)).unwrap();
        assert_eq!(parsed, snap);
        // Percentiles computable on the parsed side.
        let h = parsed.histogram("session.exec_us").unwrap();
        assert_eq!(h.percentile_us(50.0), 127);
        // The net-layer names come back exactly, including the
        // zero-valued gauge.
        assert_eq!(parsed.counter("server.net.connections.opened"), Some(5));
        assert_eq!(parsed.counter("server.net.bytes_out"), Some(123_456_789));
        assert_eq!(parsed.gauge("server.net.connections.active"), Some(0));
    }

    #[test]
    fn empty_histogram_round_trips() {
        let r = Registry::new();
        let _ = r.histogram("empty");
        let snap = r.snapshot();
        let text = render_text(&snap);
        assert!(text.contains("buckets=-"));
        assert_eq!(parse_text(&text).unwrap(), snap);
    }

    #[test]
    fn strict_parsing_rejects_drift() {
        assert!(parse_text("").is_err());
        assert!(parse_text("# xmlpub metrics v2\n").is_err());
        assert!(parse_text("# xmlpub metrics v1\nfrobnicator x 1\n").is_err());
        assert!(parse_text("# xmlpub metrics v1\ncounter x notanumber\n").is_err());
        assert!(
            parse_text("# xmlpub metrics v1\nhistogram h count=1 sum_us=2 buckets=99:1\n").is_err()
        );
    }
}
