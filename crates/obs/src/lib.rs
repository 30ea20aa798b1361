//! `xmlpub-obs` — query-lifecycle observability for the publishing
//! stack.
//!
//! The paper's §6 evaluation hinges on knowing *where* time goes in a
//! GApply plan (partition vs per-group execution vs tagging), and the
//! serving layer cannot be tuned for heavy concurrent traffic without
//! first-class measurement of its hot path. This crate is that layer,
//! split into two halves with very different cost budgets:
//!
//! * **Metrics** ([`registry`], [`histogram`]) — an always-on,
//!   cheap-when-enabled, zero-cost-when-disabled registry of atomic
//!   counters, gauges and fixed-bucket latency histograms. Recording
//!   through a resolved handle is lock-free (a relaxed atomic add);
//!   only name→handle resolution takes a lock, and callers on hot
//!   paths cache the resolved handles. Histogram [`merge`] is a
//!   field-wise sum, so per-worker recordings fold order-independently
//!   into exactly the totals a serial recording would produce — the
//!   metric analogue of `ExecStats::merge`.
//! * **Tracing** ([`trace`]) — opt-in structured spans for the query
//!   lifecycle (parse → optimize → execute → tag/stream), serialized
//!   as JSON lines into a pluggable sink. A disabled tracer is a
//!   no-op handle: starting a span costs one relaxed atomic load.
//!
//! Everything (the core `Database`, engine, optimizer, server) carries
//! observability as one [`ObsContext`] value: a pair of handles plus the
//! current parent span id, 0 at a request's root. Handles are cheap to clone (`Arc` bumps) and
//! a `Default`-constructed context is fully disabled.
//!
//! [`merge`]: histogram::HistogramSnapshot::merge

pub mod histogram;
pub mod json;
pub mod registry;
pub mod text;
pub mod time;
pub mod trace;

pub use histogram::{Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{Counter, Gauge, MetricsHandle, MetricsSnapshot, Registry};
pub use text::{parse_text, render_text, TextEntry};
pub use time::{saturating_ns_since, saturating_us_since};
pub use trace::{normalized_tree, BufferSink, SpanGuard, SpanId, SpanRecord, TraceHandle};

fn env_flags() -> &'static (bool, bool) {
    static FLAGS: std::sync::LazyLock<(bool, bool)> = std::sync::LazyLock::new(|| {
        let on = |k: &str| std::env::var(k).map(|v| v == "1" || v == "true").unwrap_or(false);
        (on("XMLPUB_TRACE"), on("XMLPUB_METRICS"))
    });
    &FLAGS
}

/// Observability threaded through an executing component: the metrics
/// and tracing handles plus the span the component's own spans should
/// parent under. `Default` is fully disabled, rooted at span 0 — every
/// operation on a disabled handle is a no-op costing at most one branch.
#[derive(Clone, Default)]
pub struct ObsContext {
    /// Metrics registry handle.
    pub metrics: MetricsHandle,
    /// Span tracer handle.
    pub tracer: TraceHandle,
    /// Parent span id for spans emitted at this level (0 = root).
    pub parent_span: SpanId,
}

impl ObsContext {
    /// A disabled context.
    pub fn disabled() -> Self {
        ObsContext::default()
    }

    /// Metrics enabled (fresh registry), tracing disabled.
    pub fn with_metrics() -> Self {
        ObsContext { metrics: MetricsHandle::new_registry(), ..ObsContext::default() }
    }

    /// Honour the process environment: `XMLPUB_TRACE=1` enables the
    /// tracer (into the file named by `XMLPUB_TRACE_FILE`, or a
    /// discarding sink when unset — the serialization path still runs,
    /// which is what the CI observability job measures), and
    /// `XMLPUB_METRICS=1` enables a fresh metrics registry. Flags are
    /// read once per process.
    pub fn from_env() -> Self {
        let (trace, metrics) = *env_flags();
        let tracer = if trace {
            match std::env::var("XMLPUB_TRACE_FILE") {
                Ok(path) if !path.is_empty() => {
                    match std::fs::OpenOptions::new().create(true).append(true).open(&path) {
                        Ok(f) => TraceHandle::new(Box::new(f)),
                        Err(_) => TraceHandle::new(Box::new(std::io::sink())),
                    }
                }
                _ => TraceHandle::new(Box::new(std::io::sink())),
            }
        } else {
            TraceHandle::disabled()
        };
        let metrics =
            if metrics { MetricsHandle::new_registry() } else { MetricsHandle::disabled() };
        ObsContext { metrics, tracer, parent_span: 0 }
    }

    /// The same handles re-parented under `span`.
    pub fn under(&self, span: SpanId) -> ObsContext {
        ObsContext { metrics: self.metrics.clone(), tracer: self.tracer.clone(), parent_span: span }
    }

    /// Is either half enabled?
    pub fn enabled(&self) -> bool {
        self.metrics.enabled() || self.tracer.enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_noops() {
        let obs = ObsContext::disabled();
        assert!(!obs.enabled());
        obs.metrics.add("x", 1);
        obs.metrics.record_us("h", 10);
        let span = obs.tracer.span("nothing", 0, &[]);
        drop(span);
        assert!(obs.metrics.snapshot().is_none());
    }

    #[test]
    fn with_metrics_enables_only_metrics() {
        let obs = ObsContext::with_metrics();
        assert!(obs.metrics.enabled());
        assert!(!obs.tracer.enabled());
        obs.metrics.add("queries", 2);
        let snap = obs.metrics.snapshot().unwrap();
        assert_eq!(snap.counter("queries"), Some(2));
    }

    #[test]
    fn context_reparenting_keeps_handles() {
        let obs = ObsContext::with_metrics();
        let ctx = obs.under(7);
        assert_eq!(ctx.parent_span, 7);
        let nested = ctx.under(9);
        assert_eq!(nested.parent_span, 9);
        assert!(nested.metrics.enabled());
    }
}
