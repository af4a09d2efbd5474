//! # axnn-par
//!
//! A std-only, persistent worker pool providing *deterministic* data
//! parallelism for the ApproxNN workspace.
//!
//! Every parallel primitive here partitions work by **output index**: each
//! output element is computed by exactly one thread, with exactly the same
//! per-element instruction sequence (in particular the same k-accumulation
//! order in GEMMs) as the single-threaded code. Results are therefore
//! bit-identical for *any* thread count — parallelism changes wall-clock,
//! never numerics — so every seeded experiment in the workspace reproduces
//! unchanged whether `AXNN_THREADS` is 1 or 64.
//!
//! ## Thread-count resolution
//!
//! 1. a programmatic [`set_threads`] override, if set;
//! 2. the `AXNN_THREADS` environment variable (read once, first use);
//! 3. [`std::thread::available_parallelism`] as the fallback.
//!
//! ## Nested parallelism
//!
//! Parallel regions entered from inside a worker (or re-entered from the
//! thread that opened an enclosing region) run serially on the calling
//! thread. This keeps the pool deadlock-free without work-stealing, and —
//! because partitioning never changes per-element computation — it does not
//! affect results.
//!
//! ```
//! let mut data = vec![0u64; 1000];
//! axnn_par::par_chunks_mut(&mut data, 128, |chunk_idx, chunk| {
//!     for (i, v) in chunk.iter_mut().enumerate() {
//!         *v = (chunk_idx * 128 + i) as u64;
//!     }
//! });
//! assert!(data.iter().enumerate().all(|(i, &v)| v == i as u64));
//! ```

use std::cell::Cell;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;

/// Hard cap on the worker count; guards against absurd `AXNN_THREADS`.
pub const MAX_THREADS: usize = 256;

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// True inside a pool worker or inside an open parallel region on this
    /// thread; nested regions then run serially (see module docs).
    static IN_PARALLEL: Cell<bool> = const { Cell::new(false) };
}

fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        std::env::var("AXNN_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(1)
            })
            .min(MAX_THREADS)
    })
}

/// The current worker-count setting (override > `AXNN_THREADS` > available
/// parallelism). Always at least 1.
pub fn num_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::Relaxed) {
        0 => default_threads(),
        n => n,
    }
}

/// Programmatically overrides the worker count (capped at
/// [`MAX_THREADS`]). Takes precedence over `AXNN_THREADS`.
///
/// `set_threads(0)` **clears the override**: [`num_threads`] falls back to
/// the `AXNN_THREADS` / available-parallelism default, matching its
/// documented resolution order. (It used to clamp to 1, silently pinning
/// everything after a "restore default" call to a single worker.)
///
/// Changing the count between parallel calls is safe: results do not depend
/// on it (see the module docs), only throughput does.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n.min(MAX_THREADS), Ordering::Relaxed);
}

/// Completion latch for one broadcast: counts outstanding worker tasks.
struct Latch {
    remaining: Mutex<usize>,
    done: Condvar,
    panicked: AtomicBool,
}

impl Latch {
    fn new(count: usize) -> Self {
        Self {
            remaining: Mutex::new(count),
            done: Condvar::new(),
            panicked: AtomicBool::new(false),
        }
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().expect("latch lock");
        *left -= 1;
        if *left == 0 {
            self.done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().expect("latch lock");
        while *left > 0 {
            left = self.done.wait(left).expect("latch wait");
        }
    }
}

/// A unit of broadcast work: call `*f` with `index`, then hit the latch.
///
/// The function pointer's lifetime is erased; soundness comes from the
/// broadcast caller always blocking on the latch before returning (or
/// unwinding), so the closure outlives every worker's use of it.
struct Task {
    f: *const (dyn Fn(usize) + Sync),
    index: usize,
    latch: Arc<Latch>,
}

// SAFETY: the referent is Sync and the sender keeps it alive until the latch
// fires (see `broadcast`).
unsafe impl Send for Task {}

fn worker_loop(rx: std::sync::mpsc::Receiver<Task>) {
    IN_PARALLEL.with(|flag| flag.set(true));
    for task in rx {
        // SAFETY: the broadcasting thread waits on the latch before letting
        // the closure go out of scope.
        let result = catch_unwind(AssertUnwindSafe(|| unsafe { (*task.f)(task.index) }));
        if result.is_err() {
            task.latch.panicked.store(true, Ordering::SeqCst);
        }
        task.latch.count_down();
    }
}

/// Lazily-grown persistent workers; workers never exit.
fn pool_senders(workers: usize) -> Vec<Sender<Task>> {
    static POOL: OnceLock<Mutex<Vec<Sender<Task>>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(Vec::new()));
    let mut guard = pool.lock().expect("pool lock");
    while guard.len() < workers {
        let (tx, rx) = channel::<Task>();
        let id = guard.len();
        thread::Builder::new()
            .name(format!("axnn-par-{id}"))
            .spawn(move || worker_loop(rx))
            .expect("spawn pool worker");
        guard.push(tx);
    }
    guard[..workers].to_vec()
}

/// Runs `f(0), f(1), …, f(parts - 1)` with `f(0)` on the calling thread and
/// the rest on pool workers, returning after **all** parts completed.
///
/// This is the primitive the `par_*` helpers are built on; prefer those.
/// Inside an already-open parallel region the parts run serially in index
/// order (same results, see module docs).
///
/// # Panics
///
/// Panics if `parts` is zero, or if any part panicked (the caller's own
/// part re-raises its original payload; worker panics are reported with a
/// generic message after every part has finished).
pub fn broadcast<F: Fn(usize) + Sync>(parts: usize, f: F) {
    assert!(parts > 0, "broadcast needs at least one part");
    let nested = IN_PARALLEL.with(|flag| flag.get());
    if parts == 1 || nested {
        for i in 0..parts {
            f(i);
        }
        return;
    }

    let senders = pool_senders(parts - 1);
    let latch = Arc::new(Latch::new(parts - 1));
    let fref: &(dyn Fn(usize) + Sync) = &f;
    // SAFETY: lifetime erasure only — this thread blocks on the latch below
    // before `f` can go out of scope (even when unwinding).
    let erased: *const (dyn Fn(usize) + Sync) = unsafe {
        std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(fref)
    };
    for (w, tx) in senders.iter().enumerate() {
        tx.send(Task {
            f: erased,
            index: w + 1,
            latch: Arc::clone(&latch),
        })
        .expect("pool worker is permanent");
    }

    // Serialize any nested region opened from f(0) on this thread.
    IN_PARALLEL.with(|flag| flag.set(true));
    let own = catch_unwind(AssertUnwindSafe(|| f(0)));
    // Always join the workers before unwinding: they borrow `f`.
    latch.wait();
    IN_PARALLEL.with(|flag| flag.set(false));

    if let Err(payload) = own {
        resume_unwind(payload);
    }
    if latch.panicked.load(Ordering::SeqCst) {
        panic!("a worker panicked inside axnn_par::broadcast");
    }
}

/// Balanced contiguous partition: the `part`-th of `parts` ranges covering
/// `0..n` (first `n % parts` ranges get one extra element).
///
/// ```
/// assert_eq!(axnn_par::split_range(10, 3, 0), 0..4);
/// assert_eq!(axnn_par::split_range(10, 3, 1), 4..7);
/// assert_eq!(axnn_par::split_range(10, 3, 2), 7..10);
/// ```
pub fn split_range(n: usize, parts: usize, part: usize) -> Range<usize> {
    assert!(
        parts > 0 && part < parts,
        "invalid partition {part}/{parts}"
    );
    let base = n / parts;
    let extra = n % parts;
    let start = part * base + part.min(extra);
    let len = base + usize::from(part < extra);
    start..(start + len)
}

/// Calls `f(range)` for each of up to [`num_threads`] contiguous, disjoint
/// ranges covering `0..n`, in parallel. Use this when each thread wants a
/// block of rows (e.g. to reuse a scratch buffer across its rows).
pub fn par_ranges<F: Fn(Range<usize>) + Sync>(n: usize, f: F) {
    if n == 0 {
        return;
    }
    let parts = num_threads().min(n);
    broadcast(parts, |part| f(split_range(n, parts, part)));
}

/// Calls `f(i)` for every `i in 0..n`, partitioned contiguously across the
/// pool. Each index is processed exactly once, by exactly one thread.
pub fn par_for_rows<F: Fn(usize) + Sync>(n: usize, f: F) {
    par_ranges(n, |range| {
        for i in range {
            f(i);
        }
    });
}

/// Raw-pointer wrapper so disjoint sub-slices can cross thread boundaries.
struct SendPtr<T>(*mut T);
// SAFETY: every user hands disjoint index ranges to different threads.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: shared copies only carry the base pointer; each thread derives
// from it only the disjoint range it was handed, as above.
unsafe impl<T: Send> Sync for SendPtr<T> {}

// Manual impls: derive would add an unwanted `T: Copy` bound.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Accessor that forces closures to capture the wrapper (with its
    /// `Send`/`Sync` impls) instead of the raw field (2021 disjoint capture).
    fn get(self) -> *mut T {
        self.0
    }
}

/// Splits `data` into consecutive chunks of `chunk` elements (the last may
/// be shorter) and calls `f(chunk_index, chunk)` for each, in parallel.
///
/// The chunks partition `data`, so mutable access is race-free; chunk
/// indices are assigned to threads in contiguous blocks.
///
/// # Panics
///
/// Panics if `chunk` is zero.
pub fn par_chunks_mut<T: Send, F: Fn(usize, &mut [T]) + Sync>(data: &mut [T], chunk: usize, f: F) {
    assert!(chunk > 0, "chunk size must be positive");
    let len = data.len();
    if len == 0 {
        return;
    }
    let n_chunks = len.div_ceil(chunk);
    let base = SendPtr(data.as_mut_ptr());
    par_ranges(n_chunks, move |chunks| {
        for c in chunks {
            let start = c * chunk;
            let end = (start + chunk).min(len);
            // SAFETY: chunk `c` maps to `start..end`, disjoint across `c`,
            // in bounds of the borrowed slice, which outlives the region.
            let part =
                unsafe { std::slice::from_raw_parts_mut(base.get().add(start), end - start) };
            f(c, part);
        }
    });
}

/// One rectangular tile of a row-major matrix, handed out by
/// [`par_tiles_mut`]: rows [`rows`](Self::rows) × columns
/// [`cols`](Self::cols) of the whole matrix, with mutable access one row
/// segment at a time.
///
/// The fields are private and only [`par_tiles_mut`] builds a tile, so its
/// bounds are always the disjoint, in-bounds ones that function computed; a
/// closure cannot widen its tile into another thread's:
///
/// ```compile_fail
/// let mut data = vec![0u8; 4];
/// axnn_par::par_tiles_mut(&mut data, 2, 1, 1, |mut tile| {
///     tile.cols = 0..2;
///     tile.row_mut(0)[1] = 1;
/// });
/// ```
pub struct TileMut<'a, T> {
    rows: Range<usize>,
    cols: Range<usize>,
    base: SendPtr<T>,
    stride: usize,
    _borrow: std::marker::PhantomData<&'a mut [T]>,
}

impl<T> TileMut<'_, T> {
    /// Matrix rows this tile covers.
    pub fn rows(&self) -> Range<usize> {
        self.rows.clone()
    }

    /// Matrix columns this tile covers.
    pub fn cols(&self) -> Range<usize> {
        self.cols.clone()
    }

    /// The tile's segment of matrix row `self.rows().start + r`, i.e. the
    /// `self.cols().len()` elements at columns `self.cols()`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows().len()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        assert!(r < self.rows.len(), "tile row {r} out of range");
        let start = (self.rows.start + r) * self.stride + self.cols.start;
        // SAFETY: only `par_tiles_mut` sets the private fields, to disjoint
        // tiles inside a buffer it borrows mutably for the whole region; the
        // segment lies inside this tile, and `&mut self` keeps at most one
        // segment alive at a time.
        unsafe { std::slice::from_raw_parts_mut(self.base.get().add(start), self.cols.len()) }
    }
}

/// Splits the row-major matrix `data` (`cols` columns per row) into tiles
/// of `tile_rows` × `tile_cols` elements (the last row and column of tiles
/// may be smaller) and calls `f(tile)` for each, in parallel.
///
/// The tiles partition `data`, so every element has exactly one writer.
/// Tiles are numbered column stripe by column stripe, row blocks fastest,
/// and handed to threads in contiguous runs: consecutive tiles on one
/// thread share a column stripe (a GEMM's streamed right-hand operand).
/// This splits a short, wide output (few rows, many columns) across
/// threads, where a row partition would leave all but one idle.
///
/// # Panics
///
/// Panics if `cols`, `tile_rows` or `tile_cols` is zero, or if `data.len()`
/// is not a multiple of `cols`.
pub fn par_tiles_mut<T: Send, F: Fn(TileMut<'_, T>) + Sync>(
    data: &mut [T],
    cols: usize,
    tile_rows: usize,
    tile_cols: usize,
    f: F,
) {
    assert!(
        cols > 0 && tile_rows > 0 && tile_cols > 0,
        "matrix and tile sizes must be positive"
    );
    assert_eq!(data.len() % cols, 0, "buffer is not a whole number of rows");
    let rows = data.len() / cols;
    let row_blocks = rows.div_ceil(tile_rows);
    let base = SendPtr(data.as_mut_ptr());
    par_ranges(row_blocks * cols.div_ceil(tile_cols), move |tiles| {
        for t in tiles {
            let (r0, c0) = ((t % row_blocks) * tile_rows, (t / row_blocks) * tile_cols);
            f(TileMut {
                rows: r0..(r0 + tile_rows).min(rows),
                cols: c0..(c0 + tile_cols).min(cols),
                base,
                stride: cols,
                _borrow: std::marker::PhantomData,
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    /// Tests mutate the global thread override; serialize them.
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn split_range_partitions_exactly() {
        for n in [0usize, 1, 7, 10, 64, 1000] {
            for parts in [1usize, 2, 3, 7, 13] {
                let mut covered = Vec::new();
                let mut expected_start = 0;
                for p in 0..parts {
                    let r = split_range(n, parts, p);
                    assert_eq!(r.start, expected_start, "contiguous at {p}/{parts}");
                    expected_start = r.end;
                    covered.extend(r);
                }
                assert_eq!(covered, (0..n).collect::<Vec<_>>(), "n={n} parts={parts}");
            }
        }
    }

    #[test]
    fn set_threads_overrides_and_clamps() {
        let _g = serial();
        set_threads(3);
        assert_eq!(num_threads(), 3);
        set_threads(1_000_000);
        assert_eq!(num_threads(), MAX_THREADS);
        set_threads(4);
    }

    #[test]
    fn set_threads_zero_restores_default() {
        let _g = serial();
        // Capture the default with no override in place, then check that
        // `set_threads(0)` returns to it rather than clamping to 1.
        set_threads(0);
        let default = num_threads();
        set_threads(4);
        assert_eq!(num_threads(), 4);
        set_threads(0);
        assert_eq!(num_threads(), default, "zero must clear the override");
        set_threads(4);
    }

    #[test]
    fn par_for_rows_visits_every_index_once() {
        let _g = serial();
        set_threads(4);
        let n = 1037;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        par_for_rows(n, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn par_chunks_mut_covers_slice_with_correct_indices() {
        let _g = serial();
        set_threads(4);
        let mut data = vec![0usize; 1003];
        par_chunks_mut(&mut data, 64, |c, chunk| {
            for (i, v) in chunk.iter_mut().enumerate() {
                *v = c * 64 + i + 1;
            }
        });
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(v, i + 1);
        }
    }

    #[test]
    fn par_tiles_mut_writes_every_element_once() {
        let _g = serial();
        for (rows, cols, tr, tc) in [
            (1, 1, 4, 128),
            (4, 300, 4, 128),
            (13, 7, 4, 3),
            (5, 9, 2, 9),
        ] {
            for threads in [1, 3] {
                set_threads(threads);
                let mut data = vec![0usize; rows * cols];
                par_tiles_mut(&mut data, cols, tr, tc, |mut tile| {
                    let (tile_rows, tile_cols) = (tile.rows(), tile.cols());
                    assert!(tile_rows.len() <= tr && tile_cols.len() <= tc);
                    for r in 0..tile_rows.len() {
                        let i = tile_rows.start + r;
                        let c0 = tile_cols.start;
                        for (j, v) in tile.row_mut(r).iter_mut().enumerate() {
                            *v += i * cols + c0 + j + 1;
                        }
                    }
                });
                let want: Vec<usize> = (1..=rows * cols).collect();
                assert_eq!(
                    data, want,
                    "{rows}x{cols} tiles {tr}x{tc} threads {threads}"
                );
            }
        }
        par_tiles_mut(&mut [0u8; 0], 3, 2, 2, |_| panic!("must not be called"));
        set_threads(4);
    }

    #[test]
    fn results_are_bit_identical_across_thread_counts() {
        let _g = serial();
        // A float reduction whose result depends on accumulation order:
        // per-row order is fixed, so any thread count gives the same bits.
        let run = |threads: usize| -> Vec<f32> {
            set_threads(threads);
            let mut out = vec![0.0f32; 97];
            par_chunks_mut(&mut out, 1, |row, slot| {
                let mut acc = 0.0f32;
                for k in 0..1000 {
                    acc += ((row * 1000 + k) as f32).sin() * 1e-3;
                }
                slot[0] = acc;
            });
            out
        };
        let one = run(1);
        for threads in [2, 3, 8] {
            let many = run(threads);
            assert_eq!(
                one.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                many.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "threads={threads}"
            );
        }
        set_threads(4);
    }

    #[test]
    fn nested_regions_run_serially_without_deadlock() {
        let _g = serial();
        set_threads(4);
        let total = AtomicU64::new(0);
        par_for_rows(8, |i| {
            // Nested region: must complete (serially) rather than deadlock.
            par_for_rows(8, |j| {
                total.fetch_add((i * 8 + j) as u64, Ordering::Relaxed);
            });
        });
        assert_eq!(total.load(Ordering::Relaxed), (0..64).sum::<u64>());
    }

    #[test]
    fn empty_input_is_a_no_op() {
        let _g = serial();
        set_threads(4);
        par_for_rows(0, |_| panic!("must not be called"));
        par_chunks_mut(&mut [0u8; 0], 4, |_, _| panic!("must not be called"));
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let _g = serial();
        set_threads(4);
        let boom = catch_unwind(AssertUnwindSafe(|| {
            broadcast(4, |part| {
                if part == 2 {
                    panic!("injected");
                }
            });
        }));
        assert!(boom.is_err(), "worker panic must surface");
        // The pool must still work afterwards.
        let count = AtomicUsize::new(0);
        par_for_rows(16, |_| {
            count.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 16);
    }

    #[test]
    fn own_part_panic_propagates_payload() {
        let _g = serial();
        set_threads(2);
        let boom = catch_unwind(AssertUnwindSafe(|| {
            broadcast(2, |part| {
                if part == 0 {
                    panic!("own-part payload");
                }
            });
        }));
        let payload = boom.expect_err("caller part panic must surface");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "own-part payload");
    }
}
