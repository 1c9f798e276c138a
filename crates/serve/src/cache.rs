//! Bounded LRU prediction cache keyed by request content.
//!
//! Real serving traffic repeats itself — viral items are submitted over and
//! over with identical token sequences. [`PredictionCache`] sits in front of
//! the micro-batch queue (see [`crate::PredictServer`]): a request whose
//! canonical content — padded tokens, domain, shaped side-features — was
//! predicted before is answered straight from the cache, bypassing the queue
//! and the forward pass entirely. Because the engine is deterministic
//! (bit-identical at any batch size), a cached answer is
//! bit-for-bit the answer a fresh forward pass would produce, so the cache
//! is invisible to clients except in latency.
//!
//! The map is keyed by a 64-bit FNV-1a hash of the canonical content, but
//! every entry stores the full key bytes and a hit compares them — a hash
//! collision degrades to a miss (or an overwrite on insert), never to a
//! wrong answer. Entries live on an index-linked LRU list; inserting into a
//! full cache evicts the least-recently-used entry, so memory is bounded by
//! `capacity` entries regardless of traffic.
//!
//! # Lock sharding
//!
//! The server wraps the LRU in a [`ShardedPredictionCache`]: N key-hash
//! partitioned [`PredictionCache`]s, each behind its own mutex, so
//! concurrent submitters contend only when their keys land in the same
//! partition (the single global cache mutex was the last shared lock on the
//! submit path). Each partition keeps its own exact hit/miss/eviction
//! counters under its own lock; [`ShardedPredictionCache::stats`] aggregates
//! them, so the totals in `ServingStats` stay exact.

use crate::session::Prediction;
use dtdbd_data::EncodedRequest;
use std::collections::HashMap;
use std::sync::Mutex;

const NIL: usize = usize::MAX;

/// Canonical cache key for an encoded request: the exact content the model
/// consumes, serialized to bytes, plus its FNV-1a hash.
#[derive(Debug, Clone)]
pub struct CacheKey {
    /// FNV-1a 64-bit hash of `bytes`.
    pub hash: u64,
    /// Canonical content: padded tokens, domain, style bits, emotion bits.
    pub bytes: Vec<u8>,
}

impl CacheKey {
    /// Build the canonical key of an encoded (already validated and padded)
    /// request. Two requests build equal keys iff the model would see
    /// identical inputs.
    pub fn of(request: &EncodedRequest) -> Self {
        let tokens = request.tokens();
        let style = request.style();
        let emotion = request.emotion();
        let mut bytes =
            Vec::with_capacity(8 + 4 * tokens.len() + 4 * (style.len() + emotion.len()));
        bytes.extend_from_slice(&(request.domain() as u64).to_le_bytes());
        for &t in tokens {
            bytes.extend_from_slice(&t.to_le_bytes());
        }
        // f32 side-features hash by bit pattern: only bit-identical
        // features may share a cache slot.
        for &v in style.iter().chain(emotion) {
            bytes.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        let hash = fnv1a(&bytes);
        Self { hash, bytes }
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

struct Entry {
    key: CacheKey,
    value: Prediction,
    prev: usize,
    next: usize,
}

/// Counters a cache exposes through `ServingStats` / `GET /stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the prediction queue.
    pub misses: u64,
    /// Entries evicted to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently held.
    pub entries: usize,
    /// Maximum entries ever held (the configured bound).
    pub capacity: usize,
}

/// A bounded content-hash → [`Prediction`] LRU.
pub struct PredictionCache {
    map: HashMap<u64, usize>,
    entries: Vec<Entry>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl PredictionCache {
    /// An empty cache bounded to `capacity` entries.
    ///
    /// # Panics
    /// Panics on zero capacity (callers gate on it and skip the cache).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        Self {
            map: HashMap::with_capacity(capacity),
            entries: Vec::with_capacity(capacity.min(1024)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Entries currently held.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            entries: self.len(),
            capacity: self.capacity,
        }
    }

    /// Look a key up, refreshing its recency on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<Prediction> {
        match self.map.get(&key.hash).copied() {
            Some(idx) if self.entries[idx].key.bytes == key.bytes => {
                self.hits += 1;
                self.unlink(idx);
                self.link_front(idx);
                Some(self.entries[idx].value.clone())
            }
            _ => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert (or refresh) a prediction, evicting the least-recently-used
    /// entry when full. A hash collision with different key bytes overwrites
    /// the colliding entry — correctness is preserved because `get` compares
    /// bytes.
    pub fn insert(&mut self, key: CacheKey, value: Prediction) {
        if let Some(idx) = self.map.get(&key.hash).copied() {
            self.entries[idx].key = key;
            self.entries[idx].value = value;
            self.unlink(idx);
            self.link_front(idx);
            return;
        }
        if self.map.len() == self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            self.map.remove(&self.entries[lru].key.hash);
            self.free.push(lru);
            self.evictions += 1;
        }
        let idx = match self.free.pop() {
            Some(idx) => {
                self.entries[idx] = Entry {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                };
                idx
            }
            None => {
                self.entries.push(Entry {
                    key,
                    value,
                    prev: NIL,
                    next: NIL,
                });
                self.entries.len() - 1
            }
        };
        self.map.insert(self.entries[idx].key.hash, idx);
        self.link_front(idx);
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.entries[idx].prev, self.entries[idx].next);
        if prev != NIL {
            self.entries[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.entries[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.entries[idx].prev = NIL;
        self.entries[idx].next = NIL;
    }

    fn link_front(&mut self, idx: usize) {
        self.entries[idx].prev = NIL;
        self.entries[idx].next = self.head;
        if self.head != NIL {
            self.entries[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// Number of lock partitions [`ShardedPredictionCache`] uses unless the
/// builder overrides it (clamped so every partition holds ≥ 1 entry).
pub const DEFAULT_CACHE_SHARDS: usize = 8;

/// A key-hash partitioned [`PredictionCache`]: N independent LRUs, each
/// behind its own mutex, jointly bounded to `capacity` entries.
///
/// The partition of a key is a fold of its content hash, so it is stable for
/// a given request and uncorrelated with the per-partition `HashMap`
/// bucketing. Correctness is per-partition (a key always maps to the same
/// partition, and each partition preserves the byte-compare collision
/// guarantee); the LRU eviction order is per-partition rather than global,
/// which bounds memory identically and only reorders *which* cold entry
/// leaves first.
pub struct ShardedPredictionCache {
    shards: Vec<Mutex<PredictionCache>>,
    capacity: usize,
}

impl ShardedPredictionCache {
    /// A cache bounded to `capacity` total entries, split over `n_shards`
    /// lock partitions. The partition count is clamped to `1..=capacity` so
    /// every partition can hold at least one entry; capacity is distributed
    /// as evenly as possible (partition capacities differ by at most one).
    ///
    /// # Panics
    /// Panics on zero capacity (callers gate on it and skip the cache).
    pub fn new(capacity: usize, n_shards: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        let n = n_shards.clamp(1, capacity);
        let shards = (0..n)
            .map(|i| {
                let per = capacity / n + usize::from(i < capacity % n);
                Mutex::new(PredictionCache::new(per))
            })
            .collect();
        Self { shards, capacity }
    }

    /// Number of lock partitions.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Partition index of a key hash: fold the high bits in so the index
    /// does not reuse the exact bits the per-partition `HashMap` consumes.
    fn partition(&self, hash: u64) -> usize {
        ((hash ^ (hash >> 32)) as usize) % self.shards.len()
    }

    fn shard_of(&self, key: &CacheKey) -> &Mutex<PredictionCache> {
        &self.shards[self.partition(key.hash)]
    }

    /// Look a key up in its partition, refreshing recency on a hit.
    pub fn get(&self, key: &CacheKey) -> Option<Prediction> {
        self.shard_of(key).lock().expect("cache poisoned").get(key)
    }

    /// [`ShardedPredictionCache::get`] wrapped in a
    /// [`crate::telemetry::Stage::CacheLookup`] span: the lookup's
    /// wall-clock time (lock wait included) lands in the trace's histogram.
    /// With a disabled trace this is exactly `get` — no clock reads.
    pub fn get_traced(
        &self,
        key: &CacheKey,
        trace: &crate::telemetry::TraceContext,
    ) -> Option<Prediction> {
        let _span = trace.span(crate::telemetry::Stage::CacheLookup);
        self.get(key)
    }

    /// Insert (or refresh) one prediction.
    pub fn insert(&self, key: CacheKey, value: Prediction) {
        let shard = self.shard_of(&key);
        shard.lock().expect("cache poisoned").insert(key, value);
    }

    /// Insert a whole batch, locking each touched partition once (the
    /// worker's post-batch population path).
    pub fn insert_batch(&self, items: Vec<(CacheKey, Prediction)>) {
        let mut per_shard: Vec<Vec<(CacheKey, Prediction)>> = Vec::new();
        per_shard.resize_with(self.shards.len(), Vec::new);
        for (key, value) in items {
            per_shard[self.partition(key.hash)].push((key, value));
        }
        for (shard, items) in self.shards.iter().zip(per_shard) {
            if items.is_empty() {
                continue;
            }
            let mut shard = shard.lock().expect("cache poisoned");
            for (key, value) in items {
                shard.insert(key, value);
            }
        }
    }

    /// Aggregate counter snapshot. Each per-partition counter is exact
    /// (maintained under that partition's lock); the totals are their sums,
    /// and `capacity` is the configured joint bound.
    pub fn stats(&self) -> CacheStats {
        let mut total = CacheStats {
            capacity: self.capacity,
            ..CacheStats::default()
        };
        for shard in &self.shards {
            let s = shard.lock().expect("cache poisoned").stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.evictions += s.evictions;
            total.entries += s.entries;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tag: u64) -> CacheKey {
        let bytes = tag.to_le_bytes().to_vec();
        CacheKey {
            hash: fnv1a(&bytes),
            bytes,
        }
    }

    fn prediction(p: f32) -> Prediction {
        Prediction {
            fake_prob: p,
            logits: [1.0 - p, p],
            domain_scores: None,
        }
    }

    #[test]
    fn hits_return_the_stored_prediction_bit_for_bit() {
        let mut cache = PredictionCache::new(4);
        let p = prediction(0.123_456_79);
        cache.insert(key(1), p.clone());
        let got = cache.get(&key(1)).expect("hit");
        assert_eq!(got.fake_prob.to_bits(), p.fake_prob.to_bits());
        assert_eq!(got.logits[0].to_bits(), p.logits[0].to_bits());
        assert_eq!(cache.stats().hits, 1);
        assert!(cache.get(&key(2)).is_none());
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn capacity_bound_is_respected_under_churn() {
        let mut cache = PredictionCache::new(8);
        for i in 0..1000u64 {
            cache.insert(key(i), prediction(0.5));
            assert!(cache.len() <= 8, "after insert {i}");
        }
        let stats = cache.stats();
        assert_eq!(stats.entries, 8);
        assert_eq!(stats.evictions, 992);
        // Only the 8 most recent survive.
        for i in 992..1000 {
            assert!(cache.get(&key(i)).is_some(), "key {i}");
        }
        assert!(cache.get(&key(991)).is_none());
    }

    #[test]
    fn eviction_order_is_least_recently_used() {
        let mut cache = PredictionCache::new(2);
        cache.insert(key(1), prediction(0.1));
        cache.insert(key(2), prediction(0.2));
        // Touch 1 so 2 becomes the LRU.
        assert!(cache.get(&key(1)).is_some());
        cache.insert(key(3), prediction(0.3));
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(2)).is_none(), "2 was the LRU");
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn reinsert_refreshes_value_and_recency() {
        let mut cache = PredictionCache::new(2);
        cache.insert(key(1), prediction(0.1));
        cache.insert(key(2), prediction(0.2));
        cache.insert(key(1), prediction(0.9));
        cache.insert(key(3), prediction(0.3)); // evicts 2
        assert!((cache.get(&key(1)).unwrap().fake_prob - 0.9).abs() < 1e-9);
        assert!(cache.get(&key(2)).is_none());
    }

    #[test]
    fn hash_collisions_with_different_bytes_never_serve_wrong_answers() {
        let mut cache = PredictionCache::new(4);
        let a = CacheKey {
            hash: 42,
            bytes: vec![1],
        };
        let b = CacheKey {
            hash: 42,
            bytes: vec![2],
        };
        cache.insert(a.clone(), prediction(0.1));
        assert!(cache.get(&b).is_none(), "colliding key must miss");
        cache.insert(b.clone(), prediction(0.2));
        // The collision overwrote the slot; `a` now misses instead of
        // returning `b`'s answer.
        assert!(cache.get(&a).is_none());
        assert!((cache.get(&b).unwrap().fake_prob - 0.2).abs() < 1e-9);
    }

    #[test]
    fn canonical_keys_separate_differing_requests() {
        use dtdbd_data::{InferenceRequest, RequestEncoder};
        let encoder = RequestEncoder::new(100, 8, 3);
        let base = encoder
            .encode(&InferenceRequest::new(vec![1, 2, 3], 0))
            .unwrap();
        let same = encoder
            .encode(&InferenceRequest::new(vec![1, 2, 3], 0))
            .unwrap();
        let other_domain = encoder
            .encode(&InferenceRequest::new(vec![1, 2, 3], 1))
            .unwrap();
        let other_tokens = encoder
            .encode(&InferenceRequest::new(vec![1, 2, 4], 0))
            .unwrap();
        let styled = encoder
            .encode(&InferenceRequest {
                style: Some(vec![0.5; base.style().len()]),
                ..InferenceRequest::new(vec![1, 2, 3], 0)
            })
            .unwrap();
        let k = CacheKey::of(&base);
        assert_eq!(k.bytes, CacheKey::of(&same).bytes);
        assert_ne!(k.bytes, CacheKey::of(&other_domain).bytes);
        assert_ne!(k.bytes, CacheKey::of(&other_tokens).bytes);
        assert_ne!(k.bytes, CacheKey::of(&styled).bytes);
    }

    #[test]
    fn sharded_cache_round_trips_and_counts_exactly() {
        // 40 entries per partition: no partition can evict below, so every
        // inserted key must survive.
        let cache = ShardedPredictionCache::new(320, 8);
        assert_eq!(cache.n_shards(), 8);
        for i in 0..40u64 {
            cache.insert(key(i), prediction(i as f32 / 40.0));
        }
        let mut hits = 0u64;
        let mut misses = 0u64;
        for i in 0..60u64 {
            match cache.get(&key(i)) {
                Some(p) => {
                    assert_eq!(p.fake_prob.to_bits(), (i as f32 / 40.0).to_bits());
                    hits += 1;
                }
                None => misses += 1,
            }
        }
        assert_eq!(hits, 40, "all inserted keys must hit (capacity not hit)");
        assert_eq!(misses, 20);
        let stats = cache.stats();
        assert_eq!(stats.hits, 40, "aggregated hits stay exact");
        assert_eq!(stats.misses, 20, "aggregated misses stay exact");
        assert_eq!(stats.entries, 40);
        assert_eq!(stats.capacity, 320);
    }

    #[test]
    fn sharded_cache_capacity_is_jointly_bounded_under_churn() {
        let cache = ShardedPredictionCache::new(16, 4);
        for i in 0..2000u64 {
            cache.insert(key(i), prediction(0.5));
            assert!(cache.stats().entries <= 16, "after insert {i}");
        }
        let stats = cache.stats();
        assert!(stats.entries <= 16);
        assert_eq!(
            stats.evictions,
            2000 - stats.entries as u64,
            "every insert beyond the bound evicts exactly one entry"
        );
    }

    #[test]
    fn shard_count_is_clamped_to_capacity() {
        let tiny = ShardedPredictionCache::new(3, 64);
        assert_eq!(tiny.n_shards(), 3, "every partition needs >= 1 entry");
        let one = ShardedPredictionCache::new(100, 0);
        assert_eq!(one.n_shards(), 1, "zero partitions falls back to one");
        assert_eq!(one.stats().capacity, 100);
    }

    #[test]
    fn insert_batch_matches_individual_inserts() {
        let a = ShardedPredictionCache::new(160, 4);
        let b = ShardedPredictionCache::new(160, 4);
        let items: Vec<(CacheKey, Prediction)> = (0..20u64)
            .map(|i| (key(i), prediction(i as f32 / 20.0)))
            .collect();
        for (k, v) in items.clone() {
            a.insert(k, v);
        }
        b.insert_batch(items);
        for i in 0..20u64 {
            let pa = a.get(&key(i)).expect("individual");
            let pb = b.get(&key(i)).expect("batch");
            assert_eq!(pa.fake_prob.to_bits(), pb.fake_prob.to_bits());
        }
    }

    #[test]
    fn concurrent_submitters_never_corrupt_counters() {
        use std::sync::Arc;
        let cache = Arc::new(ShardedPredictionCache::new(128, 8));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let k = key(t * 1000 + i % 50);
                        if cache.get(&k).is_none() {
                            cache.insert(k, prediction(0.25));
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, 2000, "every lookup is counted");
        assert!(stats.entries <= 128);
    }
}
