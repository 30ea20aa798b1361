//! Shared LRU plan cache.
//!
//! Parsing, binding and optimizing a query is pure work over immutable
//! inputs (the catalog and its statistics), so the server does it once
//! per distinct *(SQL token sequence, plan-relevant config)* pair and shares
//! the result across every session. Each entry keeps the optimized
//! [`LogicalPlan`] **and** the [`RuleFiring`] audit that produced it, so
//! a cached plan remains lint-verifiable long after the optimizer ran —
//! [`CachedPlan::verify`] replays the full lint registry on demand.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use xmlpub::sql::lexer::tokenize;
use xmlpub::Config;
use xmlpub_algebra::LogicalPlan;
use xmlpub_common::Result;
use xmlpub_lint::{Diagnostic, LintRegistry};
use xmlpub_optimizer::RuleFiring;

/// The full cache key: the SQL's lexer tokens (positions dropped) plus
/// every config field that can change the optimized plan (the optimizer
/// config: rule set, cost gate, verification). Whitespace and comments
/// vanish in the lexer, so reformatted queries share an entry; two texts
/// share one only if they tokenize identically, so they parse to the
/// same plan. This is *not* semantic equivalence — `SELECT` vs `select`
/// still differ. Text that fails to lex keys on itself (the parse then
/// reports the error, and failed builds are never cached); the `\u{0}`
/// prefix keeps it apart from every token list.
/// Engine-only knobs like `batch_size` are deliberately excluded — two
/// sessions differing only in batch size share a plan.
pub fn cache_key(sql: &str, config: &Config) -> String {
    let text = match tokenize(sql) {
        Ok(toks) => format!("{:?}", toks.iter().map(|t| &t.tok).collect::<Vec<_>>()),
        Err(_) => format!("\u{0}{sql}"),
    };
    format!("{text}\u{1f}{:?}", config.optimizer)
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
        let c = Config::default();
        let key = |sql: &str| cache_key(sql, &c);
        assert_eq!(
            key("select *\n  from part -- trailing comment\n where 1 = 1"),
            key("select * from part where 1 = 1")
        );
        assert_eq!(key("select 1"), key("  select\t1  "));
        // Operators need no surrounding spaces to be the same token.
        assert_eq!(key("select 1=1"), key("select 1 = 1"));
        assert_ne!(key("select 1"), key("SELECT 1"));
    }

    #[test]
    fn normalization_preserves_string_literals() {
        let c = Config::default();
        let key = |sql: &str| cache_key(sql, &c);
        // '--' and whitespace inside literals are content, not syntax.
        assert_ne!(key("select 'a--x'"), key("select 'a--y'"));
        assert_ne!(key("select 'a b'"), key("select 'a  b'"));
        assert_eq!(key("select  'a -- b'  "), key("select 'a -- b'"));
        // '' escaping keeps the lexer in-string across the quote pair.
        assert_eq!(key("select 'it''s -- fine' -- cut"), key("select 'it''s -- fine'"));
        assert_ne!(key("select 'it''s'"), key("select 'it'"));
        // Literals may span lines; the newline is content.
        assert_eq!(key("select 'a\nb'"), key("select  'a\nb'"));
        assert_ne!(key("select 'a\nb'"), key("select 'a b'"));
        // Unlexable text keys on itself, never on another text's tokens.
        assert_ne!(key("select 'oops"), key("select 'oops'"));
        assert_ne!(key("select 'oops"), key("select 'oops "));
    }

    #[test]
    fn config_participates_in_the_key() {
        let a = Config::default();
        let b = Config { optimizer: xmlpub::OptimizerConfig::none(), ..Config::default() };
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
