//! Heap blocks a corpus holds, counted by this test binary's own global
//! allocator.
//!
//! A generated item keeps one heap block, its token buffer: the style and
//! emotion features live inline. Splitting a corpus moves every item into
//! its portion, so it allocates a few index and portion vectors but nothing
//! per item, and each item in the split still owns the token buffer it was
//! generated with.

use dtdbd_data::{weibo21_spec, GeneratorConfig, MultiDomainDataset, NewsGenerator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The system allocator, counting allocation calls and frees. A `realloc`
/// counts as one of each: it allocates a block in place of another.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        FREES.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        FREES.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The counters are process-wide: one measurement at a time.
static MEASURING: Mutex<()> = Mutex::new(());

fn one_at_a_time() -> MutexGuard<'static, ()> {
    MEASURING.lock().unwrap_or_else(PoisonError::into_inner)
}

/// `f`'s result, the allocations made while it ran, and how many more
/// heap blocks were live when it returned than when it started.
fn measure<T>(f: impl FnOnce() -> T) -> (T, u64, i64) {
    let allocations = ALLOCATIONS.load(Ordering::SeqCst);
    let frees = FREES.load(Ordering::SeqCst);
    let out = f();
    let allocated = ALLOCATIONS.load(Ordering::SeqCst) - allocations;
    let freed = FREES.load(Ordering::SeqCst) - frees;
    (out, allocated, allocated as i64 - freed as i64)
}

/// A quarter-scale Weibo21-like corpus: about 2,300 items.
fn corpus() -> MultiDomainDataset {
    NewsGenerator::new(weibo21_spec(), GeneratorConfig::default()).generate_scaled(3, 0.25)
}

/// Blocks a corpus holds besides its items' own: the item vector, the
/// corpus spec and the vocabulary.
const FIXED_BLOCKS: i64 = 64;

#[test]
fn a_generated_item_keeps_one_heap_block() {
    let _guard = one_at_a_time();
    let (ds, _, live) = measure(corpus);
    let n = ds.len() as i64;
    assert!(n > 1000, "{n} items");
    assert!(
        live <= n + FIXED_BLOCKS,
        "{live} heap blocks live for {n} items"
    );
}

#[test]
fn split_moves_every_item_without_copying_it() {
    let _guard = one_at_a_time();
    let ds = corpus();
    let n = ds.len();
    let mut tokens_at: Vec<(usize, usize)> = ds
        .items()
        .iter()
        .map(|item| (item.id, item.tokens.as_ptr() as usize))
        .collect();
    tokens_at.sort_unstable();

    let (split, allocated, _) = measure(|| ds.split(0.7, 0.1, 5));
    // The stratum and portion index vectors grow by doubling: about 140
    // allocations here, far fewer than one per item.
    assert!(
        allocated < n as u64 / 8,
        "split made {allocated} allocations for {n} items"
    );

    let mut moved: Vec<(usize, usize)> = [&split.train, &split.val, &split.test]
        .iter()
        .flat_map(|portion| portion.items())
        .map(|item| (item.id, item.tokens.as_ptr() as usize))
        .collect();
    moved.sort_unstable();
    assert_eq!(
        moved, tokens_at,
        "every item in the split owns the token buffer it was generated with"
    );
}
