//! The content-addressed result cache.
//!
//! Completed exploration results are stored under the [`Digest`] of the
//! canonical JSON identifying the computation — for the exploration service,
//! `{system recipe, variant space, evaluator spec}`. A resubmission of the
//! same content hits the cache and is served without touching the worker
//! pool: the paper's whole premise is that the same variant spaces get
//! re-optimized many times under changing constraints, so repeat jobs are
//! the common case, not the exception.
//!
//! Each result is held as its canonical JSON line
//! ([`JsonValue::to_line`](spi_model::json::JsonValue::to_line)),
//! not as a parsed tree: a tree costs several times its text, and a cached
//! result is read far less often than it is kept. The line is shared
//! (`Arc<str>`): a hit hands out the line itself, so whoever keeps the
//! answer keeps no copy of it, and the bytes the cache counts are the
//! lines it holds.
//!
//! The cache is bounded by an optional [`CacheLimit`] (entry count and/or
//! total line bytes); past the limit the least-recently-used entry is
//! evicted, deterministically (ties broken by digest order). Durability
//! comes from the owning registry, which rebuilds it during WAL replay
//! (every completed job with a digest reinserts its committed result) and
//! carries it inside snapshots as text, written with
//! [`ResultCache::write_snapshot`] and read back entry by entry with
//! [`ResultCache::from_snapshot`]: no tree of the cache is built either way.

use std::collections::BTreeMap;
use std::sync::Arc;

use spi_model::digest::Digest;
use spi_model::json::{self, JsonResult};

/// An optional bound on a [`ResultCache`]. `None` fields are unbounded, and so
/// is `CacheLimit::default()`; the exploration service bounds its cache by
/// [`DEFAULT_CACHE_BYTES`] unless told otherwise.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheLimit {
    /// Maximum number of cached results.
    pub max_entries: Option<usize>,
    /// Maximum total size of the cached lines (`JsonValue::to_line` bytes).
    pub max_bytes: Option<usize>,
}

/// The byte bound the exploration service puts on its result cache by
/// default: 16 MiB of cached lines.
pub const DEFAULT_CACHE_BYTES: usize = 16 << 20;

impl CacheLimit {
    /// No bound at all.
    pub const UNBOUNDED: CacheLimit = CacheLimit {
        max_entries: None,
        max_bytes: None,
    };

    /// Bound by entry count only.
    pub fn entries(max_entries: usize) -> CacheLimit {
        CacheLimit {
            max_entries: Some(max_entries),
            max_bytes: None,
        }
    }

    /// Bound by total payload bytes only.
    pub fn bytes(max_bytes: usize) -> CacheLimit {
        CacheLimit {
            max_entries: None,
            max_bytes: Some(max_bytes),
        }
    }

    /// True when neither bound is set.
    pub fn is_unbounded(&self) -> bool {
        self.max_entries.is_none() && self.max_bytes.is_none()
    }
}

/// One cached result as its canonical line, plus the recency the LRU policy
/// needs.
#[derive(Debug, Clone)]
struct CacheEntry {
    line: Arc<str>,
    last_used: u64,
}

/// A content-addressed map from digest to an opaque result payload.
#[derive(Debug, Clone, Default)]
pub struct ResultCache {
    // BTreeMap: deterministic snapshot order, so equal caches serialize
    // byte-identically and snapshots diff cleanly.
    entries: BTreeMap<Digest, CacheEntry>,
    limit: CacheLimit,
    // Logical recency clock: bumped on insert and lookup. Not persisted —
    // a restore starts with recency in digest order, which is deterministic.
    clock: u64,
    total_bytes: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

// Cache identity is its contents, not its access history: two caches holding
// the same payloads are equal even if their recency clocks and counters
// differ (e.g. one was restored from a snapshot).
impl PartialEq for ResultCache {
    fn eq(&self, other: &Self) -> bool {
        self.entries.len() == other.entries.len()
            && self
                .entries
                .iter()
                .zip(other.entries.iter())
                .all(|((da, ea), (db, eb))| da == db && ea.line == eb.line)
    }
}

impl ResultCache {
    /// An empty, unbounded cache.
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// An empty cache with the given bound.
    pub fn with_limit(limit: CacheLimit) -> Self {
        ResultCache {
            limit,
            ..ResultCache::default()
        }
    }

    /// The active bound.
    pub fn limit(&self) -> CacheLimit {
        self.limit
    }

    /// Replaces the bound and immediately evicts down to it.
    pub fn set_limit(&mut self, limit: CacheLimit) {
        self.limit = limit;
        self.evict_to_limit();
    }

    /// Stores `line`, a result's canonical line
    /// ([`JsonValue::to_line`](spi_model::json::JsonValue::to_line)),
    /// under `digest`, replacing any previous entry (the digest is a
    /// content address, so a replacement is byte-identical anyway unless the
    /// evaluator is nondeterministic), then evicts least-recently-used
    /// entries until the cache is within its limit. Returns how many entries
    /// this insert evicted, so callers can trace cache pressure without
    /// re-deriving it from the lifetime counter.
    pub fn insert(&mut self, digest: Digest, line: Arc<str>) -> u64 {
        self.clock += 1;
        self.total_bytes += line.len();
        let entry = CacheEntry {
            line,
            last_used: self.clock,
        };
        if let Some(old) = self.entries.insert(digest, entry) {
            self.total_bytes -= old.line.len();
        }
        let before = self.evictions;
        self.evict_to_limit();
        self.evictions - before
    }

    /// Looks up `digest`, counting the hit/miss and refreshing the entry's
    /// recency on a hit; a hit is the cached line itself, shared.
    pub fn lookup(&mut self, digest: Digest) -> Option<Arc<str>> {
        match self.entries.get_mut(&digest) {
            Some(entry) => {
                self.hits += 1;
                self.clock += 1;
                entry.last_used = self.clock;
                Some(Arc::clone(&entry.line))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// The cached line, without touching the hit/miss counters or the
    /// entry's recency.
    pub fn peek(&self, digest: Digest) -> Option<&str> {
        self.entries.get(&digest).map(|entry| &*entry.line)
    }

    /// Number of cached results.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total length of the cached lines: the bytes the cache holds.
    pub fn total_bytes(&self) -> usize {
        self.total_bytes
    }

    /// Lifetime lookup hits (this process; counters are not persisted).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lifetime lookup misses (this process).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Lifetime evictions (this process; not persisted).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Evicts least-recently-used entries (digest order breaks ties) until
    /// both bounds hold.
    fn evict_to_limit(&mut self) {
        loop {
            let over_entries = self
                .limit
                .max_entries
                .is_some_and(|max| self.entries.len() > max);
            let over_bytes = self
                .limit
                .max_bytes
                .is_some_and(|max| self.total_bytes > max);
            if !over_entries && !over_bytes {
                return;
            }
            // O(n) scan per eviction: the cache holds at most a few thousand
            // job results, and evictions are rare next to lookups.
            let victim = self
                .entries
                .iter()
                .min_by_key(|(digest, entry)| (entry.last_used, **digest))
                .map(|(digest, _)| *digest)
                .expect("over a limit implies at least one entry");
            let evicted = self
                .entries
                .remove(&victim)
                .expect("victim digest was just found in the map");
            self.total_bytes -= evicted.line.len();
            self.evictions += 1;
        }
    }

    /// Appends the snapshot form to `out`: the object of `digest-hex → line`
    /// members in digest order, each line written as it is. Recency and
    /// counters are not persisted.
    pub fn write_snapshot(&self, out: &mut String) {
        out.push('{');
        for (at, (digest, entry)) in self.entries.iter().enumerate() {
            if at > 0 {
                out.push(',');
            }
            json::write_string(&digest.to_string(), out);
            out.push(':');
            out.push_str(&entry.line);
        }
        out.push('}');
    }

    /// Rebuilds an unbounded cache from the text of its snapshot form (apply
    /// a bound afterwards with [`ResultCache::set_limit`]), entry by entry:
    /// each member is checked as JSON and kept as the slice it is, which in
    /// a snapshot this cache wrote is the line it held. Restored entries
    /// start with recency in digest order.
    ///
    /// # Errors
    ///
    /// [`spi_model::json::JsonError`] when the text is not an object of
    /// digest-keyed members.
    pub fn from_snapshot(text: &str) -> JsonResult<ResultCache> {
        let mut cache = ResultCache::new();
        for member in json::members(text) {
            let (key, line) = member?;
            cache.insert(Digest::parse(&key)?, Arc::from(line));
        }
        Ok(cache)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spi_model::digest::digest_bytes;
    use spi_model::json::JsonValue;

    /// `value`'s canonical line, as the cache takes it.
    fn line(value: &JsonValue) -> Arc<str> {
        value.to_line().into()
    }

    /// The snapshot text of `cache`.
    fn snapshot(cache: &ResultCache) -> String {
        let mut text = String::new();
        cache.write_snapshot(&mut text);
        text
    }

    #[test]
    fn insert_lookup_and_counters() {
        let mut cache = ResultCache::new();
        let key = digest_bytes(b"job-a");
        assert!(cache.lookup(key).is_none());
        cache.insert(key, line(&JsonValue::Int(42)));
        assert_eq!(cache.lookup(key).as_deref(), Some("42"));
        assert_eq!(cache.peek(key), Some("42"));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
        assert_eq!(cache.total_bytes(), JsonValue::Int(42).to_line().len());
    }

    #[test]
    fn snapshot_round_trips() {
        let mut cache = ResultCache::new();
        cache.insert(digest_bytes(b"x"), line(&JsonValue::string("rx")));
        cache.insert(digest_bytes(b"y"), line(&JsonValue::Int(7)));
        let text = snapshot(&cache);
        let tree = JsonValue::object([
            (digest_bytes(b"x").to_string(), JsonValue::string("rx")),
            (digest_bytes(b"y").to_string(), JsonValue::Int(7)),
        ]);
        let mut members = tree.as_object().unwrap().to_vec();
        members.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(text, JsonValue::Object(members).to_line(), "digest order");
        let back = ResultCache::from_snapshot(&text).unwrap();
        assert_eq!(back.peek(digest_bytes(b"x")), Some("\"rx\""));
        assert_eq!(back.peek(digest_bytes(b"y")), Some("7"));
        assert_eq!(snapshot(&back), text);
        assert_eq!(back, cache, "restored cache must equal the original");
        assert_eq!(snapshot(&ResultCache::new()), "{}");
        for bad in [
            "1",
            "{\"zz\":null}",
            "{",
            &text[..text.len() - 1],
            &format!("{text}x"),
        ] {
            assert!(ResultCache::from_snapshot(bad).is_err(), "{bad}");
        }
    }

    /// The cache holds each result as its canonical line: `total_bytes` is
    /// the summed line lengths, a hit is the inserted line itself, and a
    /// snapshot round trip keeps every line byte for byte.
    #[test]
    fn entries_are_held_as_their_canonical_lines() {
        let nested = JsonValue::object([
            (
                "top",
                JsonValue::Array(vec![JsonValue::Int(3), JsonValue::Float(0.5)]),
            ),
            ("detail", JsonValue::string("équipe \"a\"\n")),
            ("none", JsonValue::Null),
        ]);
        let values = [nested, JsonValue::Bool(true), JsonValue::string("")];
        let mut cache = ResultCache::new();
        let lines: Vec<Arc<str>> = values.iter().map(line).collect();
        for (at, line) in lines.iter().enumerate() {
            cache.insert(digest_bytes(&[at as u8]), Arc::clone(line));
        }
        let summed: usize = values.iter().map(|value| value.to_line().len()).sum();
        assert_eq!(cache.total_bytes(), summed);
        let back = ResultCache::from_snapshot(&snapshot(&cache)).unwrap();
        assert_eq!(back.total_bytes(), summed);
        for (at, value) in values.iter().enumerate() {
            let key = digest_bytes(&[at as u8]);
            assert_eq!(back.peek(key), Some(value.to_line().as_str()));
            let hit = cache.lookup(key).unwrap();
            assert!(Arc::ptr_eq(&hit, &lines[at]), "a hit shares the line");
            assert_eq!(JsonValue::parse(&hit).as_ref(), Ok(value));
        }
    }

    #[test]
    fn entry_limit_evicts_least_recently_used() {
        let (a, b, c) = (digest_bytes(b"a"), digest_bytes(b"b"), digest_bytes(b"c"));
        let mut cache = ResultCache::with_limit(CacheLimit::entries(2));
        cache.insert(a, line(&JsonValue::Int(1)));
        cache.insert(b, line(&JsonValue::Int(2)));
        // Touch `a` so `b` is the LRU entry when `c` arrives.
        assert!(cache.lookup(a).is_some());
        cache.insert(c, line(&JsonValue::Int(3)));
        assert_eq!(cache.len(), 2);
        assert!(cache.peek(a).is_some());
        assert!(cache.peek(b).is_none(), "LRU entry must be evicted");
        assert!(cache.peek(c).is_some());
        assert_eq!(cache.evictions(), 1);
    }

    #[test]
    fn byte_limit_evicts_until_within_budget() {
        let payload = JsonValue::string("0123456789");
        let one = payload.to_line().len();
        let mut cache = ResultCache::with_limit(CacheLimit::bytes(2 * one));
        cache.insert(digest_bytes(b"a"), line(&payload));
        cache.insert(digest_bytes(b"b"), line(&payload));
        assert_eq!(cache.len(), 2);
        cache.insert(digest_bytes(b"c"), line(&payload));
        assert_eq!(cache.len(), 2, "third insert must evict one entry");
        assert!(cache.total_bytes() <= 2 * one);
        // A payload bigger than the whole budget empties the cache but still
        // terminates deterministically.
        cache.insert(
            digest_bytes(b"big"),
            line(&JsonValue::string("x".repeat(64))),
        );
        assert!(cache.is_empty());
    }

    /// Under the default byte bound the least-recently-used lines go first:
    /// a result read since is kept over an older one that was not.
    #[test]
    fn default_byte_bound_evicts_least_recently_used_lines() {
        let result = line(&JsonValue::string("r".repeat(1 << 16)));
        let per_entry = result.len();
        let fits = DEFAULT_CACHE_BYTES / per_entry;
        let mut cache = ResultCache::with_limit(CacheLimit::bytes(DEFAULT_CACHE_BYTES));
        for at in 0..fits as u64 {
            assert_eq!(
                cache.insert(digest_bytes(&at.to_le_bytes()), Arc::clone(&result)),
                0
            );
        }
        assert_eq!(cache.len(), fits);
        // Reading the oldest entry makes the second-oldest the LRU one.
        assert!(cache.lookup(digest_bytes(&0u64.to_le_bytes())).is_some());
        let evicted = cache.insert(digest_bytes(b"one more"), result);
        assert_eq!(evicted, 1);
        assert!(cache.total_bytes() <= DEFAULT_CACHE_BYTES);
        assert!(cache.peek(digest_bytes(&0u64.to_le_bytes())).is_some());
        assert!(cache.peek(digest_bytes(&1u64.to_le_bytes())).is_none());
        assert!(cache.peek(digest_bytes(b"one more")).is_some());
    }

    #[test]
    fn tightening_the_limit_evicts_immediately_and_reinsert_updates_bytes() {
        let mut cache = ResultCache::new();
        for i in 0..5u8 {
            cache.insert(digest_bytes(&[i]), line(&JsonValue::Int(i as i128)));
        }
        cache.set_limit(CacheLimit::entries(2));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 3);
        // Replacing an entry accounts bytes for the new payload only.
        let key = digest_bytes(b"replace");
        let mut solo = ResultCache::new();
        solo.insert(key, line(&JsonValue::string("a".repeat(100))));
        solo.insert(key, line(&JsonValue::Int(1)));
        assert_eq!(solo.total_bytes(), JsonValue::Int(1).to_line().len());
    }
}
