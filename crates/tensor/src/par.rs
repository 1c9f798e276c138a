//! Zero-dependency intra-op worker pool.
//!
//! The compute kernels in [`crate::kernels`] partition their output across a
//! process-wide pool of `std::thread` workers. The pool is built for the
//! serving hot path:
//!
//! * **Deterministic results.** Work is split into chunks that own disjoint
//!   slices of the output, and every output element is computed by exactly
//!   one chunk with a fixed accumulation order. Results are therefore
//!   bit-identical at any thread count — `threads` is purely a throughput
//!   knob (see the determinism contract in `crates/README.md`).
//! * **No per-call thread spawns.** Workers are spawned lazily on first use
//!   and parked on a condvar between jobs; a parallel region only pays a
//!   wake/ack handshake.
//! * **No allocation per region.** A job is a fat-pointer-free `(fn, data)`
//!   pair published through a mutex; the caller's thread executes chunk 0
//!   itself and blocks until every helper has acknowledged completion, so
//!   borrowed data never outlives the region.
//!
//! Concurrent parallel regions (e.g. two serving workers batching at once)
//! serialize on the pool; a region entered from inside another region runs
//! inline on the calling thread, so nesting cannot deadlock.

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;

/// Hard cap on pool workers (requests beyond it are clamped, not refused).
const MAX_WORKERS: usize = 64;

/// Monomorphic task entry point: `(closure data, chunk index)`.
type TaskFn = unsafe fn(*const (), usize);

#[derive(Clone, Copy)]
struct Job {
    call: TaskFn,
    data: *const (),
    /// Chunks in this job; helpers run chunks `1..chunks`, the caller runs 0.
    chunks: usize,
}

// SAFETY: `data` is only dereferenced between job publication and the final
// helper ack, while `run` blocks the owning thread; the pointee is `Sync`.
unsafe impl Send for Job {}

struct State {
    generation: u64,
    job: Option<Job>,
    acks: usize,
    panicked: bool,
    workers: usize,
}

struct Pool {
    state: Mutex<State>,
    work: Condvar,
    done: Condvar,
    /// Serializes whole parallel regions: one job in flight at a time.
    region: Mutex<()>,
}

static POOL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Set while this thread executes a chunk; makes nested regions inline.
    static IN_REGION: Cell<bool> = const { Cell::new(false) };
}

/// Lock a pool mutex, clearing poison: a panic inside a parallel region
/// propagates to the caller while region/state guards are held, but the
/// protected data is always left consistent before unwinding.
fn lock_ok<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| Pool {
        state: Mutex::new(State {
            generation: 0,
            job: None,
            acks: 0,
            panicked: false,
            workers: 0,
        }),
        work: Condvar::new(),
        done: Condvar::new(),
        region: Mutex::new(()),
    })
}

static MAX_THREADS: OnceLock<usize> = OnceLock::new();

/// Times this process has asked the OS for its core count (at most once).
static CORE_COUNT_READS: AtomicUsize = AtomicUsize::new(0);

/// Number of hardware threads, the default for "auto" thread knobs. The OS
/// is asked once per process (on Linux that reads the affinity mask and the
/// cgroup quota files, tens of microseconds); every later call returns the
/// cached count.
pub fn max_threads() -> usize {
    *MAX_THREADS.get_or_init(|| {
        CORE_COUNT_READS.fetch_add(1, Ordering::Relaxed);
        // The one place the core count is read; `clippy.toml` forbids the
        // call everywhere else.
        #[allow(clippy::disallowed_methods)]
        let count = thread::available_parallelism();
        count.map_or(1, usize::from)
    })
}

/// How many times [`max_threads`] has queried the OS in this process.
#[doc(hidden)]
pub fn core_count_reads() -> usize {
    CORE_COUNT_READS.load(Ordering::Relaxed)
}

fn worker_loop(id: usize) {
    let pool = pool();
    let mut seen = 0u64;
    loop {
        let job = {
            let mut state = lock_ok(&pool.state);
            loop {
                if state.generation != seen {
                    seen = state.generation;
                    if let Some(job) = state.job {
                        break job;
                    }
                }
                state = pool
                    .work
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // Static assignment: helper `id` owns chunk `id + 1`. Workers beyond
        // the job's chunk count neither run nor ack.
        if id + 1 < job.chunks {
            let ok = IN_REGION.with(|flag| {
                flag.set(true);
                let result =
                    catch_unwind(AssertUnwindSafe(|| unsafe { (job.call)(job.data, id + 1) }));
                flag.set(false);
                result.is_ok()
            });
            let mut state = lock_ok(&pool.state);
            state.acks += 1;
            state.panicked |= !ok;
            drop(state);
            pool.done.notify_all();
        }
    }
}

unsafe fn trampoline<F: Fn(usize) + Sync>(data: *const (), chunk: usize) {
    (*data.cast::<F>())(chunk);
}

/// Execute `f(0), f(1), …, f(chunks - 1)` across the pool: the calling
/// thread runs chunk 0, helpers run the rest concurrently. Returns once
/// every chunk has finished. With `chunks <= 1` (or when called from inside
/// another region) everything runs inline on the calling thread.
///
/// `f` must confine each chunk to data disjoint from every other chunk's.
///
/// # Panics
/// Panics if any chunk panicked (the pool itself survives).
pub fn run<F: Fn(usize) + Sync>(chunks: usize, f: &F) {
    let chunks = chunks.clamp(1, MAX_WORKERS + 1);
    if chunks == 1 || IN_REGION.with(Cell::get) {
        for c in 0..chunks {
            f(c);
        }
        return;
    }
    let pool = pool();
    let _region = lock_ok(&pool.region);
    {
        let mut state = lock_ok(&pool.state);
        while state.workers < chunks - 1 {
            let id = state.workers;
            thread::Builder::new()
                .name(format!("dtdbd-par-{id}"))
                .spawn(move || worker_loop(id))
                .expect("spawn par worker");
            state.workers += 1;
        }
        state.generation = state.generation.wrapping_add(1);
        state.job = Some(Job {
            call: trampoline::<F>,
            data: (f as *const F).cast(),
            chunks,
        });
        state.acks = 0;
        state.panicked = false;
        pool.work.notify_all();
    }
    let own = IN_REGION.with(|flag| {
        flag.set(true);
        let result = catch_unwind(AssertUnwindSafe(|| f(0)));
        flag.set(false);
        result
    });
    let mut state = lock_ok(&pool.state);
    while state.acks < chunks - 1 {
        state = pool
            .done
            .wait(state)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
    }
    state.job = None;
    let helper_panicked = state.panicked;
    drop(state);
    if let Err(payload) = own {
        std::panic::resume_unwind(payload);
    }
    assert!(!helper_panicked, "parallel chunk panicked");
}

/// How many chunks to split `n_items` into: at most `threads` (itself capped
/// at the pool's worker bound, so every chunk handed to [`run`] is executed),
/// at least 1, and never so many that a chunk would hold fewer than
/// `min_per_chunk` items (parallelism is not worth its handshake below that).
pub fn chunk_count(n_items: usize, min_per_chunk: usize, threads: usize) -> usize {
    let cap = n_items / min_per_chunk.max(1);
    threads.clamp(1, MAX_WORKERS + 1).min(cap.max(1))
}

/// Balanced half-open range of chunk `c` out of `chunks` over `n` items.
pub fn chunk_range(n: usize, chunks: usize, c: usize) -> Range<usize> {
    let q = n / chunks;
    let r = n % chunks;
    let start = c * q + c.min(r);
    start..start + q + usize::from(c < r)
}

/// Split `0..n_items` into balanced chunks (respecting `min_per_chunk`) and
/// run `f` on each range across the pool.
pub fn for_each_chunk<F: Fn(Range<usize>) + Sync>(
    n_items: usize,
    min_per_chunk: usize,
    threads: usize,
    f: &F,
) {
    if n_items == 0 {
        return;
    }
    let chunks = chunk_count(n_items, min_per_chunk, threads);
    run(chunks, &|c| f(chunk_range(n_items, chunks, c)));
}

/// A raw mutable pointer that may cross threads. Used by kernels to hand
/// each chunk its disjoint slice of one output buffer; the caller is
/// responsible for disjointness.
#[derive(Clone, Copy)]
pub struct SendMutPtr<T>(pub *mut T);

// SAFETY: chunks write disjoint regions; synchronization is the region's
// publish/ack handshake.
unsafe impl<T: Send> Send for SendMutPtr<T> {}
unsafe impl<T: Send> Sync for SendMutPtr<T> {}

impl<T> SendMutPtr<T> {
    /// View `range` of the pointed-to buffer as a mutable slice.
    ///
    /// # Safety
    /// The range must be in bounds and disjoint from every slice handed to
    /// any other live chunk.
    pub unsafe fn slice_mut(&self, range: Range<usize>) -> &'static mut [T] {
        std::slice::from_raw_parts_mut(self.0.add(range.start), range.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn run_executes_every_chunk_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..7).map(|_| AtomicUsize::new(0)).collect();
        run(7, &|c| {
            hits[c].fetch_add(1, Ordering::SeqCst);
        });
        for (c, hit) in hits.iter().enumerate() {
            assert_eq!(hit.load(Ordering::SeqCst), 1, "chunk {c}");
        }
    }

    #[test]
    fn chunks_write_disjoint_output_slices() {
        let mut out = vec![0u32; 1000];
        let ptr = SendMutPtr(out.as_mut_ptr());
        for_each_chunk(1000, 10, 8, &|range| {
            let chunk = unsafe { ptr.slice_mut(range.clone()) };
            for (i, slot) in range.zip(chunk.iter_mut()) {
                *slot = i as u32;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u32);
        }
    }

    #[test]
    fn chunk_ranges_tile_the_input_exactly() {
        for n in [0usize, 1, 2, 7, 64, 1001] {
            for chunks in 1..9usize {
                let mut covered = 0usize;
                let mut next = 0usize;
                for c in 0..chunks {
                    let r = chunk_range(n, chunks, c);
                    assert_eq!(r.start, next, "n={n} chunks={chunks} c={c}");
                    next = r.end;
                    covered += r.len();
                }
                assert_eq!(covered, n);
                assert_eq!(next, n);
            }
        }
    }

    #[test]
    fn chunk_count_respects_minimum_work() {
        assert_eq!(chunk_count(100, 64, 8), 1);
        assert_eq!(chunk_count(128, 64, 8), 2);
        assert_eq!(chunk_count(10_000, 64, 8), 8);
        assert_eq!(chunk_count(0, 64, 8), 1);
        assert_eq!(chunk_count(100, 0, 8), 8);
        // Never more chunks than run() will execute.
        assert_eq!(chunk_count(1_000_000, 1, 10_000), MAX_WORKERS + 1);
    }

    #[test]
    fn absurd_thread_requests_still_cover_every_element() {
        // Regression: a thread request beyond the pool's worker cap must not
        // leave tail chunks unexecuted.
        let n = (MAX_WORKERS + 10) * 16;
        let mut out = vec![0u32; n];
        let ptr = SendMutPtr(out.as_mut_ptr());
        for_each_chunk(n, 1, MAX_WORKERS + 10, &|range| {
            let chunk = unsafe { ptr.slice_mut(range.clone()) };
            for (i, slot) in range.zip(chunk.iter_mut()) {
                *slot = i as u32 + 1;
            }
        });
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, i as u32 + 1, "element {i} left unwritten");
        }
    }

    #[test]
    fn nested_regions_run_inline_without_deadlock() {
        let count = AtomicUsize::new(0);
        run(4, &|_outer| {
            run(4, &|_inner| {
                count.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(count.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn concurrent_regions_from_many_threads_serialize_safely() {
        let threads: Vec<_> = (0..4)
            .map(|t| {
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        let mut out = vec![0u64; 256];
                        let ptr = SendMutPtr(out.as_mut_ptr());
                        for_each_chunk(256, 16, 4, &|range| {
                            let chunk = unsafe { ptr.slice_mut(range.clone()) };
                            for (i, slot) in range.zip(chunk.iter_mut()) {
                                *slot = (t * 1000 + i) as u64;
                            }
                        });
                        for (i, &v) in out.iter().enumerate() {
                            assert_eq!(v, (t * 1000 + i) as u64);
                        }
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn panicking_chunk_propagates_and_pool_survives() {
        let result = std::panic::catch_unwind(|| {
            run(3, &|c| {
                assert!(c != 1, "boom");
            });
        });
        assert!(result.is_err());
        // The pool keeps working after a panic.
        let count = AtomicUsize::new(0);
        run(3, &|_| {
            count.fetch_add(1, Ordering::SeqCst);
        });
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }
}
