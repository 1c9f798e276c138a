//! Reusable scratch buffers for tape-free inference.
//!
//! A [`BufferPool`] is a free-list of `Vec<f32>` buffers. A [`crate::Graph`]
//! created with [`crate::Graph::inference`] draws every activation buffer
//! from the pool and hands all of them back when the caller invokes
//! `Graph::finish`, so a serving process that runs one forward pass per
//! request stops allocating activation memory once the pool has warmed up to
//! the largest batch shape it has seen: the steady-state hot path only moves
//! buffers between the free list and the graph's node arena. Buffers that
//! entered the graph from outside (caller-owned constants) are never
//! recycled, which keeps the free list bounded by the buffer count of a
//! single forward pass.
//!
//! The pool has no size classes. A request takes the smallest free buffer
//! whose capacity holds it, or, when none does, the largest one, grown in
//! place. Matching by capacity keeps each buffer serving requests of about
//! its own size; without it, a model with many differently sized
//! activations would grow every pooled buffer towards its largest shape, and
//! the idle pool would hold several times one forward pass's memory.
//!
//! The pool also keeps the graph's node arena between passes: `finish`
//! hands it back empty and the next inference graph takes it, so a
//! warmed-up session allocates no node storage either. The arena is not a
//! buffer, so it counts in neither the reuse hits nor the misses.

use crate::graph::Node;

/// A free-list of `f32` buffers with reuse accounting.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<f32>>,
    /// The empty node arena of the last finished inference graph.
    nodes: Vec<Node>,
    hits: u64,
    misses: u64,
}

impl BufferPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Take a zero-filled buffer of length `n`, reusing a free buffer when
    /// one is available.
    pub fn take_zeroed(&mut self, n: usize) -> Vec<f32> {
        match self.pop_fit(n) {
            Some(mut buf) => {
                self.hits += 1;
                buf.clear();
                buf.resize(n, 0.0);
                buf
            }
            None => {
                self.misses += 1;
                vec![0.0; n]
            }
        }
    }

    /// Take an *empty* buffer with capacity for at least `n` values, for
    /// destinations that are filled with `extend_from_slice`/`resize` —
    /// skips the zero-fill `take_zeroed` pays.
    pub fn take_empty(&mut self, n: usize) -> Vec<f32> {
        match self.pop_fit(n) {
            Some(mut buf) => {
                self.hits += 1;
                buf.clear();
                buf.reserve(n);
                buf
            }
            None => {
                self.misses += 1;
                Vec::with_capacity(n)
            }
        }
    }

    /// Take a buffer of exactly length `n` whose contents are arbitrary
    /// (stale values from its previous life), for destinations every element
    /// of which the caller overwrites — e.g. an im2row expansion. In steady
    /// state (same `n` as the recycled buffer's length) this costs nothing;
    /// `take_zeroed` would pay a full memset that the caller immediately
    /// overwrites.
    pub fn take_for_overwrite(&mut self, n: usize) -> Vec<f32> {
        match self.pop_fit(n) {
            Some(mut buf) => {
                self.hits += 1;
                if buf.len() > n {
                    buf.truncate(n);
                } else if buf.len() < n {
                    buf.resize(n, 0.0);
                }
                buf
            }
            None => {
                self.misses += 1;
                vec![0.0; n]
            }
        }
    }

    /// Remove the free buffer that best fits `n` values: the smallest whose
    /// capacity is at least `n`, else the largest.
    fn pop_fit(&mut self, n: usize) -> Option<Vec<f32>> {
        let mut best: Option<(usize, usize)> = None;
        for (i, buf) in self.free.iter().enumerate() {
            let cap = buf.capacity();
            let better = match best {
                None => true,
                Some((_, best_cap)) if best_cap >= n => cap >= n && cap < best_cap,
                Some((_, best_cap)) => cap > best_cap,
            };
            if better {
                best = Some((i, cap));
                if cap == n {
                    break;
                }
            }
        }
        best.map(|(i, _)| self.free.swap_remove(i))
    }

    /// Return a buffer to the free list.
    pub fn give(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.free.push(buf);
        }
    }

    /// The kept node arena (empty, with the capacity of the last finished
    /// graph), leaving none behind until it is given back.
    pub(crate) fn take_nodes(&mut self) -> Vec<Node> {
        std::mem::take(&mut self.nodes)
    }

    /// Keep a finished graph's emptied node arena for the next graph.
    pub(crate) fn give_nodes(&mut self, nodes: Vec<Node>) {
        debug_assert!(nodes.is_empty(), "a kept node arena holds no nodes");
        self.nodes = nodes;
    }

    /// Capacity, in nodes, of the kept node arena.
    #[cfg(test)]
    pub(crate) fn idle_node_capacity(&self) -> usize {
        self.nodes.capacity()
    }

    /// Number of buffers currently on the free list.
    pub fn idle_buffers(&self) -> usize {
        self.free.len()
    }

    /// Number of `take_zeroed` calls served from the free list.
    pub fn reuse_hits(&self) -> u64 {
        self.hits
    }

    /// Number of `take_zeroed` calls that had to allocate a fresh buffer.
    pub fn alloc_misses(&self) -> u64 {
        self.misses
    }

    /// Total `f32` capacity currently parked on the free list.
    pub fn idle_capacity(&self) -> usize {
        self.free.iter().map(Vec::capacity).sum()
    }

    /// Drop all pooled buffers and the kept node arena (e.g. after serving
    /// an unusually large batch).
    pub fn shrink(&mut self) {
        self.free.clear();
        self.nodes = Vec::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_pool_allocates_then_reuses() {
        let mut pool = BufferPool::new();
        let a = pool.take_zeroed(8);
        assert_eq!(a.len(), 8);
        assert_eq!(pool.alloc_misses(), 1);
        assert_eq!(pool.reuse_hits(), 0);
        pool.give(a);
        let b = pool.take_zeroed(4);
        assert_eq!(b.len(), 4);
        assert!(b.capacity() >= 8, "reused buffer keeps its capacity");
        assert_eq!(pool.reuse_hits(), 1);
    }

    #[test]
    fn reused_buffers_are_zeroed() {
        let mut pool = BufferPool::new();
        let mut a = pool.take_zeroed(4);
        a.iter_mut().for_each(|v| *v = 7.0);
        pool.give(a);
        let b = pool.take_zeroed(6);
        assert!(b.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn take_for_overwrite_keeps_stale_contents_at_matching_length() {
        let mut pool = BufferPool::new();
        let mut a = pool.take_zeroed(4);
        a.iter_mut().for_each(|v| *v = 7.0);
        pool.give(a);
        let b = pool.take_for_overwrite(4);
        assert_eq!(b.len(), 4);
        assert!(b.iter().all(|&v| v == 7.0), "no redundant zeroing");
        pool.give(b);
        // Growing still zero-fills the new tail; shrinking truncates.
        let c = pool.take_for_overwrite(6);
        assert_eq!(c.len(), 6);
        assert!(c[4..].iter().all(|&v| v == 0.0));
        pool.give(c);
        assert_eq!(pool.take_for_overwrite(2).len(), 2);
    }

    #[test]
    fn takes_pick_the_smallest_buffer_that_fits() {
        let mut pool = BufferPool::new();
        for n in [64, 8, 32, 16] {
            pool.give(vec![0.0; n]);
        }
        assert_eq!(pool.take_empty(10).capacity(), 16);
        assert_eq!(pool.take_for_overwrite(32).capacity(), 32);
        // Nothing left holds 100 values: the largest buffer grows.
        let grown = pool.take_zeroed(100);
        assert_eq!(grown.len(), 100);
        assert_eq!(pool.idle_buffers(), 1);
        assert_eq!(pool.take_empty(1).capacity(), 8);
        assert_eq!((pool.reuse_hits(), pool.alloc_misses()), (4, 0));
    }

    #[test]
    fn shrink_empties_the_free_list() {
        let mut pool = BufferPool::new();
        pool.give(vec![0.0; 16]);
        pool.give_nodes(Vec::with_capacity(4));
        assert_eq!(pool.idle_buffers(), 1);
        assert!(pool.idle_capacity() >= 16);
        assert!(pool.idle_node_capacity() >= 4);
        pool.shrink();
        assert_eq!(pool.idle_buffers(), 0);
        assert_eq!(pool.idle_node_capacity(), 0);
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let mut pool = BufferPool::new();
        pool.give(Vec::new());
        assert_eq!(pool.idle_buffers(), 0);
    }
}
