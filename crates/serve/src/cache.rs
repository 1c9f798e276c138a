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
//! The server holds one cache behind one mutex: a lookup takes the lock
//! once, a worker takes it once to insert its whole batch, and eviction
//! follows one global recency order.

use crate::session::Prediction;
use dtdbd_data::EncodedRequest;
use std::collections::HashMap;

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
    fn cache_round_trips_and_counts_exactly() {
        // Capacity to spare: every inserted key must survive.
        let mut cache = PredictionCache::new(320);
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
        assert_eq!(stats.hits, 40);
        assert_eq!(stats.misses, 20);
        assert_eq!(stats.entries, 40);
        assert_eq!(stats.capacity, 320);
    }

    #[test]
    fn concurrent_submitters_never_corrupt_counters() {
        use std::sync::{Arc, Mutex};
        // The server's shape: one cache behind one mutex, shared by every
        // submitter.
        let cache = Arc::new(Mutex::new(PredictionCache::new(128)));
        let threads: Vec<_> = (0..4u64)
            .map(|t| {
                let cache = Arc::clone(&cache);
                std::thread::spawn(move || {
                    for i in 0..500u64 {
                        let k = key(t * 1000 + i % 50);
                        let hit = cache.lock().unwrap().get(&k);
                        if hit.is_none() {
                            cache.lock().unwrap().insert(k, prediction(0.25));
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let stats = cache.lock().unwrap().stats();
        assert_eq!(stats.hits + stats.misses, 2000, "every lookup is counted");
        assert!(stats.entries <= 128);
    }
}
