//! Shared LRU plan cache.
//!
//! Parsing, binding and optimizing a query is pure work over immutable
//! inputs (the catalog and its statistics), so the server does it once
//! per distinct *(normalized SQL, plan-relevant config)* pair and shares
//! the result across every session. Each entry keeps the optimized
//! [`LogicalPlan`] **and** the [`RuleFiring`] audit that produced it, so
//! a cached plan remains lint-verifiable long after the optimizer ran —
//! [`CachedPlan::verify`] replays the full lint registry on demand.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use xmlpub::Config;
use xmlpub_algebra::LogicalPlan;
use xmlpub_common::Result;
use xmlpub_lint::{Diagnostic, LintRegistry};
use xmlpub_optimizer::RuleFiring;

/// Strip comments and collapse whitespace so trivially reformatted
/// queries share a cache entry. This is *not* semantic equivalence —
/// `SELECT` vs `select` still differ — just the cheap normalization a
/// prepared-statement layer can do without re-parsing.
///
/// The scan is quote-aware to match the lexer: single-quoted string
/// literals (with `''` escaping, possibly spanning lines) are copied
/// verbatim, so `'a--b'` and `'a  b'` keep their exact text and
/// distinct literals never collide on one cache key. An unterminated
/// literal is copied through to the end; the lexer reports that error.
pub fn normalize_sql(sql: &str) -> String {
    let chars: Vec<char> = sql.chars().collect();
    let mut out = String::with_capacity(sql.len());
    let mut pending_space = false;
    let mut i = 0;
    while i < chars.len() {
        let c = chars[i];
        if c == '\'' {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            out.push('\'');
            i += 1;
            while i < chars.len() {
                if chars[i] == '\'' {
                    if chars.get(i + 1) == Some(&'\'') {
                        out.push_str("''");
                        i += 2;
                        continue;
                    }
                    out.push('\'');
                    i += 1;
                    break;
                }
                out.push(chars[i]);
                i += 1;
            }
        } else if c == '-' && chars.get(i + 1) == Some(&'-') {
            while i < chars.len() && chars[i] != '\n' {
                i += 1;
            }
        } else if c.is_whitespace() {
            pending_space = true;
            i += 1;
        } else {
            if pending_space && !out.is_empty() {
                out.push(' ');
            }
            pending_space = false;
            out.push(c);
            i += 1;
        }
    }
    out
}

/// The full cache key: normalized SQL plus every config field that can
/// change the optimized plan (rule flags and the optimizer bypass).
/// Engine-only knobs like `batch_size` are deliberately excluded — two
/// sessions differing only in batch size share a plan.
pub fn cache_key(sql: &str, config: &Config) -> String {
    format!("{}\u{1f}{:?}\u{1f}{}", normalize_sql(sql), config.optimizer, config.skip_optimizer)
}

/// An optimized plan plus the audit trail that justifies it.
#[derive(Debug)]
pub struct CachedPlan {
    /// The cache key this entry was stored under.
    pub key: String,
    /// The optimized logical plan, ready for the physical planner.
    pub plan: LogicalPlan,
    /// The optimizer's rule-firing log from when the plan was built.
    pub firings: Vec<RuleFiring>,
}

impl CachedPlan {
    /// Re-lint the cached plan with the full registry. Empty means the
    /// plan still satisfies every structural invariant — the same check
    /// `\explain --verify` runs on a freshly optimized plan.
    pub fn verify(&self) -> Vec<Diagnostic> {
        LintRegistry::default().lint_plan(&self.plan)
    }
}

struct Entry {
    plan: Arc<CachedPlan>,
    last_used: u64,
}

struct Inner {
    map: HashMap<String, Entry>,
    tick: u64,
}

/// Counter snapshot for [`crate::ServerStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to build a plan.
    pub misses: u64,
    /// Entries displaced by the LRU policy.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

/// A mutex-protected LRU map from cache key to [`CachedPlan`].
///
/// Plan *building* happens outside the lock: two sessions missing on the
/// same key may both optimize, but the second insert adopts the first
/// entry, so the cache never holds duplicates and the lock is never held
/// across parse/bind/optimize.
pub struct PlanCache {
    capacity: usize,
    inner: Mutex<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner { map: HashMap::new(), tick: 0 }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up `key`, building and inserting on a miss. Returns the
    /// entry and whether it was a hit.
    pub fn get_or_build(
        &self,
        key: String,
        build: impl FnOnce() -> Result<CachedPlan>,
    ) -> Result<(Arc<CachedPlan>, bool)> {
        {
            let mut inner = self.inner.lock().expect("plan cache mutex poisoned");
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Ok((Arc::clone(&entry.plan), true));
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let built = Arc::new(build()?);
        let mut inner = self.inner.lock().expect("plan cache mutex poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(entry) = inner.map.get_mut(&key) {
            // A concurrent miss won the race; adopt its entry.
            entry.last_used = tick;
            return Ok((Arc::clone(&entry.plan), false));
        }
        if inner.map.len() >= self.capacity {
            // Linear LRU scan: capacities are small and eviction is the
            // rare path, so an ordered index isn't worth the bookkeeping.
            if let Some(victim) =
                inner.map.iter().min_by_key(|(_, e)| e.last_used).map(|(k, _)| k.clone())
            {
                inner.map.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.map.insert(key, Entry { plan: Arc::clone(&built), last_used: tick });
        Ok((built, false))
    }

    /// Current counter values.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.inner.lock().expect("plan cache mutex poisoned").map.len(),
        }
    }

    /// Drop every entry (counters are preserved).
    pub fn clear(&self) {
        self.inner.lock().expect("plan cache mutex poisoned").map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xmlpub_algebra::LogicalPlan;

    fn dummy(key: &str) -> CachedPlan {
        // Never executed — the cache tests only exercise the map itself.
        CachedPlan {
            key: key.to_string(),
            plan: LogicalPlan::Scan {
                table: key.to_string(),
                schema: xmlpub_common::Schema::new(vec![]),
            },
            firings: Vec::new(),
        }
    }

    #[test]
    fn normalization_collapses_whitespace_and_comments() {
        assert_eq!(
            normalize_sql("select *\n  from part -- trailing comment\n where 1 = 1"),
            "select * from part where 1 = 1"
        );
        assert_eq!(normalize_sql("select 1"), normalize_sql("  select\t1  "));
    }

    #[test]
    fn normalization_preserves_string_literals() {
        // '--' and whitespace inside literals are content, not syntax.
        assert_ne!(normalize_sql("select 'a--x'"), normalize_sql("select 'a--y'"));
        assert_ne!(normalize_sql("select 'a b'"), normalize_sql("select 'a  b'"));
        assert_eq!(normalize_sql("select  'a -- b'  "), "select 'a -- b'");
        // '' escaping keeps the scanner in-string across the quote pair.
        assert_eq!(normalize_sql("select 'it''s -- fine' -- cut"), "select 'it''s -- fine'");
        // Literals may span lines; the newline is preserved verbatim.
        assert_eq!(normalize_sql("select 'a\nb'"), "select 'a\nb'");
        // Unterminated literal: copied through (the lexer will reject it).
        assert_eq!(normalize_sql("select 'oops -- not a comment"), "select 'oops -- not a comment");
    }

    #[test]
    fn config_participates_in_the_key() {
        let a = Config::default();
        let b = Config { skip_optimizer: true, ..Config::default() };
        assert_ne!(cache_key("select 1", &a), cache_key("select 1", &b));
        assert_eq!(cache_key("select  1", &a), cache_key("select 1", &a));
    }

    #[test]
    fn hit_miss_and_eviction_counters() {
        let cache = PlanCache::new(2);
        let (_, hit) = cache.get_or_build("a".into(), || Ok(dummy("a"))).unwrap();
        assert!(!hit);
        let (_, hit) = cache.get_or_build("a".into(), || panic!("must not rebuild")).unwrap();
        assert!(hit);
        cache.get_or_build("b".into(), || Ok(dummy("b"))).unwrap();
        // "a" was touched more recently than "b"? No: order is a(hit), b(miss).
        // Inserting "c" must evict the least recently used — "a" was used at
        // tick 2, "b" at tick 3, so "a" goes.
        cache.get_or_build("c".into(), || Ok(dummy("c"))).unwrap();
        let c = cache.counters();
        assert_eq!((c.hits, c.misses, c.evictions, c.entries), (1, 3, 1, 2));
        // "a" is gone (miss), "b" survived (hit).
        let (_, hit) = cache.get_or_build("b".into(), || panic!("b was evicted")).unwrap();
        assert!(hit);
        let (_, hit) = cache.get_or_build("a".into(), || Ok(dummy("a"))).unwrap();
        assert!(!hit);
    }

    #[test]
    fn build_errors_are_not_cached() {
        let cache = PlanCache::new(4);
        let err = cache
            .get_or_build("bad".into(), || Err(xmlpub_common::Error::exec("boom")))
            .unwrap_err();
        assert!(err.to_string().contains("boom"));
        // The next lookup builds again (and may succeed).
        let (_, hit) = cache.get_or_build("bad".into(), || Ok(dummy("bad"))).unwrap();
        assert!(!hit);
        assert_eq!(cache.counters().misses, 2);
    }

    /// Two sessions missing on one key at once both build, and the loser
    /// adopts the winner's entry: one resident plan, shared by both.
    #[test]
    fn concurrent_misses_adopt_one_entry() {
        let cache = PlanCache::new(4);
        let start = std::sync::Barrier::new(2);
        // The build closure blocks until both threads are inside it, so both
        // lookups are guaranteed to have missed before either inserts.
        let building = std::sync::Barrier::new(2);
        let plans: Vec<Arc<CachedPlan>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    s.spawn(|| {
                        start.wait();
                        let build = || {
                            building.wait();
                            Ok(dummy("k"))
                        };
                        let (plan, hit) = cache.get_or_build("k".into(), build).unwrap();
                        assert!(!hit);
                        plan
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let c = cache.counters();
        assert_eq!(c.entries, 1, "{c:?}");
        assert_eq!(c.hits + c.misses, 2, "{c:?}");
        assert!(Arc::ptr_eq(&plans[0], &plans[1]), "the loser must adopt the winner's entry");
    }
}
