//! # qre-par
//!
//! Minimal data-parallel building blocks for the `qre` workspace, built on
//! [`std::thread::scope`] — no external dependencies.
//!
//! The estimator's heavy consumers — batch and sweep runs through
//! `qre_core`'s `Estimator`, figure sweeps over dozens of (algorithm, input
//! size, hardware profile) combinations, and the Pareto frontier search —
//! are embarrassingly parallel over *coarse* tasks (each task is a full
//! estimation run). Accordingly the scheduler here favours simplicity and
//! dynamic load balance over per-item overhead tuning:
//!
//! * work distribution through a single shared atomic cursor (each worker
//!   claims the next index; no work item is ever processed twice),
//! * a single streamed execution core over an item count and an index
//!   closure ([`parallel_map_streamed_until`]) that hands `(index, result)`
//!   pairs to the caller **as workers finish**; [`parallel_map`] stitches
//!   those pairs back into input order, so it is a drop-in replacement for
//!   `iter().map().collect()`,
//! * panics in workers propagate to the caller (the scope re-raises them on
//!   join), preserving the fail-fast behaviour of sequential code.
//!
//! ```
//! let squares = qre_par::parallel_map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![deny(missing_docs)]
#![warn(clippy::all)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Condvar, Mutex};
use std::time::Duration;

/// Upper bound on worker threads, overridable through the `QRE_THREADS`
/// environment variable (useful for benchmarking scalability).
pub fn max_threads() -> usize {
    if let Ok(v) = std::env::var("QRE_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Apply `f` to every element of `items` in parallel, returning results in
/// input order.
///
/// Falls back to a sequential loop for tiny inputs or single-core machines.
/// Panics raised by `f` propagate to the caller.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    // Collecting is streaming plus order restoration: place each delivered
    // pair at its recorded index.
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    parallel_map_streamed_until(
        items.len(),
        |i| f(&items[i]),
        |i, r| {
            debug_assert!(slots[i].is_none(), "index {i} produced twice");
            slots[i] = Some(r);
            std::ops::ControlFlow::Continue(())
        },
    );
    slots
        .into_iter()
        .map(|slot| slot.expect("every index processed exactly once"))
        .collect()
}

thread_local! {
    /// Set inside a worker's whole claim loop: nested `parallel_map` calls
    /// issued from task bodies run sequentially instead of oversubscribing
    /// the machine quadratically (e.g. a parallel batch whose items each
    /// fan out a frontier sweep).
    static IN_PARALLEL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// `true` while the current thread is inside a parallel worker's claim loop.
///
/// Helpers that move work onto a dedicated thread (e.g. a streaming iterator
/// driving [`parallel_map_streamed_until`] in the background) should capture
/// this flag and replay it on the new thread via [`set_in_parallel_worker`],
/// so the nested-parallelism guard survives the thread hop.
pub fn in_parallel_worker() -> bool {
    IN_PARALLEL_WORKER.with(std::cell::Cell::get)
}

/// Mark (or unmark) the current thread as a parallel worker context; see
/// [`in_parallel_worker`].
pub fn set_in_parallel_worker(value: bool) {
    IN_PARALLEL_WORKER.with(|flag| flag.set(value));
}

/// Bound on results queued between the parallel workers and the consuming
/// `on_item` callback of [`parallel_map_streamed_until`] (and of helpers
/// built on it, like a background-thread outcome stream), for a run using
/// `threads` workers.
///
/// The delivery channel is *bounded*: when the consumer falls behind — a
/// streamed sweep writing to a slow client, say — workers block on delivery
/// instead of racing ahead and buffering the whole input's results in
/// memory. The bound is a small multiple of the worker count (at least a
/// handful), so a bursty consumer never stalls workers in steady state
/// while a stalled one caps resident results at this many plus the
/// in-flight items.
pub fn streamed_buffer_bound(threads: usize) -> usize {
    (threads * 2).max(8)
}

/// The single execution core behind every map in this crate: compute
/// `f(i)` for each `i` in `0..n` in parallel and hand `(i, f(i))` pairs to
/// `on_item` **in completion order**. Work is addressed by index, so a
/// caller that decodes its items from their position (a sweep) never
/// materialises them.
///
/// `on_item` runs on the calling thread, so it may close over `&mut` state
/// without synchronization. Delivery order is nondeterministic under
/// parallel execution; the index identifies the originating item. With a
/// single worker (tiny input, `QRE_THREADS=1`, single-core machine, or a
/// nested call from inside another parallel worker) the loop degrades to a
/// sequential in-order pass. Panics raised by `f` propagate to the caller
/// after already-finished items have been delivered.
///
/// `on_item` can stop the run early by returning
/// [`ControlFlow::Break`](std::ops::ControlFlow::Break): no further indices
/// are claimed, in-flight items finish undelivered, and the call returns
/// once the workers have drained. At most [`streamed_buffer_bound`] results
/// queue ahead of `on_item`, so a slow consumer throttles the workers
/// instead of ballooning memory with undelivered results.
pub fn parallel_map_streamed_until<R, F, G>(n: usize, f: F, mut on_item: G)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    G: FnMut(usize, R) -> std::ops::ControlFlow<()>,
{
    let threads = max_threads().min(n);
    if threads <= 1 || IN_PARALLEL_WORKER.with(std::cell::Cell::get) {
        for i in 0..n {
            if on_item(i, f(i)).is_break() {
                return;
            }
        }
        return;
    }

    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let (sender, receiver) = mpsc::sync_channel::<(usize, R)>(streamed_buffer_bound(threads));
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            let sender = sender.clone();
            let cursor = &cursor;
            let f = &f;
            handles.push(scope.spawn(move || {
                IN_PARALLEL_WORKER.with(|flag| flag.set(true));
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    if sender.send((i, f(i))).is_err() {
                        break;
                    }
                }
            }));
        }
        // The receive loop ends when every worker has dropped its sender —
        // normally (all items done) or by unwinding (a panic in `f`) — or
        // when `on_item` breaks.
        drop(sender);
        for (i, r) in &receiver {
            if on_item(i, r).is_break() {
                // Stop the claim loop (no new items) and hang up the
                // channel (workers' next send fails — including senders
                // blocked on the bounded channel), so the joins below only
                // wait out the in-flight items.
                cursor.store(n, Ordering::Relaxed);
                break;
            }
        }
        // Hang up before joining: a worker blocked on the bounded channel
        // can only wake once the receiver is gone.
        drop(receiver);
        for handle in handles {
            // A panic inside a worker surfaces here as Err; re-raise it so the
            // caller sees the original panic payload (fail-fast semantics).
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
}

/// A counting semaphore bounding how many units of work are in flight at
/// once.
///
/// The job-server serve loop is the motivating consumer: each incoming job
/// spawns a thread (so a slow sweep doesn't starve later stdin lines), but
/// the number of concurrently *running* jobs must stay bounded — each job
/// already fans out internally through [`parallel_map`], so unbounded job
/// concurrency would multiply thread counts with queue length. Acquiring
/// blocks while `limit` permits are outstanding; permits release on drop
/// (including when the holder unwinds).
///
/// ```
/// let sem = qre_par::Semaphore::new(2);
/// let a = sem.acquire();
/// let b = sem.acquire();
/// assert_eq!(sem.available(), 0);
/// drop(a);
/// assert_eq!(sem.available(), 1);
/// drop(b);
/// ```
#[derive(Debug)]
pub struct Semaphore {
    available: Mutex<usize>,
    released: Condvar,
}

/// An outstanding [`Semaphore`] permit; dropping it releases the slot.
#[derive(Debug)]
pub struct SemaphorePermit<'a> {
    semaphore: &'a Semaphore,
}

impl Semaphore {
    /// A semaphore with `limit` permits (at least one: a zero-permit
    /// semaphore could never be acquired, so the limit is clamped up).
    pub fn new(limit: usize) -> Self {
        Semaphore {
            available: Mutex::new(limit.max(1)),
            released: Condvar::new(),
        }
    }

    /// Block until a permit is free, then take it. The permit returns to the
    /// pool when the returned guard drops.
    pub fn acquire(&self) -> SemaphorePermit<'_> {
        let mut available = self.available.lock().expect("semaphore lock");
        while *available == 0 {
            available = self.released.wait(available).expect("semaphore lock");
        }
        *available -= 1;
        SemaphorePermit { semaphore: self }
    }

    /// Take a permit without blocking: `None` when every permit is
    /// outstanding. The admission-control shape — an accept gate that turns
    /// surplus connections away (instead of queueing them invisibly) wants
    /// an immediate yes/no, not a wait.
    pub fn try_acquire(&self) -> Option<SemaphorePermit<'_>> {
        let mut available = self.available.lock().expect("semaphore lock");
        if *available == 0 {
            return None;
        }
        *available -= 1;
        Some(SemaphorePermit { semaphore: self })
    }

    /// Number of permits currently free (advisory: may change immediately).
    pub fn available(&self) -> usize {
        *self.available.lock().expect("semaphore lock")
    }
}

impl Drop for SemaphorePermit<'_> {
    fn drop(&mut self) {
        let mut available = self.semaphore.available.lock().expect("semaphore lock");
        *available += 1;
        self.semaphore.released.notify_one();
    }
}

/// A one-way, broadcast shutdown flag: once signalled it stays signalled,
/// and every waiter wakes.
///
/// This is the drain switch of a long-running service: an accept loop polls
/// [`ShutdownSignal::is_signalled`] between accepts (or parks in
/// [`ShutdownSignal::wait_timeout`] instead of busy-sleeping), worker
/// sessions check it between jobs, and whoever decides the session is over
/// — a control command, a signal handler, an operator pipe — calls
/// [`ShutdownSignal::signal`] exactly once from anywhere. There is no
/// un-signal: graceful drain is monotonic by design, so a racing second
/// trigger is harmless.
///
/// ```
/// let signal = qre_par::ShutdownSignal::new();
/// assert!(!signal.is_signalled());
/// signal.signal();
/// assert!(signal.is_signalled());
/// signal.wait(); // returns immediately once signalled
/// ```
#[derive(Debug, Default)]
pub struct ShutdownSignal {
    signalled: Mutex<bool>,
    changed: Condvar,
}

impl ShutdownSignal {
    /// A fresh, un-signalled flag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Raise the flag and wake every waiter. Idempotent.
    pub fn signal(&self) {
        let mut signalled = self.signalled.lock().expect("shutdown signal lock");
        *signalled = true;
        self.changed.notify_all();
    }

    /// `true` once [`ShutdownSignal::signal`] has been called.
    pub fn is_signalled(&self) -> bool {
        *self.signalled.lock().expect("shutdown signal lock")
    }

    /// Block until the flag is raised.
    pub fn wait(&self) {
        let mut signalled = self.signalled.lock().expect("shutdown signal lock");
        while !*signalled {
            signalled = self.changed.wait(signalled).expect("shutdown signal lock");
        }
    }

    /// Block until the flag is raised or `timeout` elapses; returns whether
    /// the flag is raised. The accept-loop idiom: poll a non-blocking
    /// listener, then park here instead of spinning.
    pub fn wait_timeout(&self, timeout: Duration) -> bool {
        let mut signalled = self.signalled.lock().expect("shutdown signal lock");
        let deadline = std::time::Instant::now() + timeout;
        while !*signalled {
            let now = std::time::Instant::now();
            let Some(remaining) = deadline
                .checked_duration_since(now)
                .filter(|d| !d.is_zero())
            else {
                return false;
            };
            let (guard, _) = self
                .changed
                .wait_timeout(signalled, remaining)
                .expect("shutdown signal lock");
            signalled = guard;
        }
        true
    }
}

/// Parse one `kB` line of `/proc/self/status` (e.g. `VmHWM:  123456 kB`)
/// into bytes.
fn proc_status_kb(status: &str, field: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .strip_suffix("kB")
                .unwrap_or(rest)
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map(|kb| kb * 1024)
}

/// Peak resident set size of this process in bytes (`VmHWM` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
///
/// This is the process-lifetime high-water mark, not the current RSS — the
/// quantity a scale bench records to prove a 10k-point run stayed within
/// its memory budget. The kernel accounts it per process, so it covers
/// every thread and allocation, including ones the allocator has since
/// returned to the OS.
pub fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    proc_status_kb(&status, "VmHWM:")
}

/// Current resident set size of this process in bytes (`VmRSS` from
/// `/proc/self/status`), or `None` where procfs is unavailable.
pub fn current_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    proc_status_kb(&status, "VmRSS:")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ops::ControlFlow;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_matches_sequential() {
        let items: Vec<u64> = (0..1000).collect();
        let par = parallel_map(&items, |&x| x * x + 1);
        let seq: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn map_preserves_order_with_uneven_work() {
        // Make early items slow so late items finish first; order must hold.
        let items: Vec<u64> = (0..64).collect();
        let par = parallel_map(&items, |&x| {
            if x < 4 {
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            x
        });
        assert_eq!(par, items);
    }

    #[test]
    fn empty_and_singleton() {
        let empty: Vec<u64> = vec![];
        assert!(parallel_map(&empty, |&x: &u64| x).is_empty());
        assert_eq!(parallel_map(&[7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn every_item_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..513).collect();
        let out = parallel_map(&items, |&x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 513);
        assert_eq!(out.len(), 513);
    }

    #[test]
    fn indexed_variant_sees_correct_indices() {
        let items = ["a", "b", "c"];
        let mut out = vec![String::new(); items.len()];
        parallel_map_streamed_until(
            items.len(),
            |i| format!("{i}:{}", items[i]),
            |i, r| {
                out[i] = r;
                ControlFlow::Continue(())
            },
        );
        assert_eq!(out, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn panics_propagate() {
        let items: Vec<u64> = (0..128).collect();
        let _ = parallel_map(&items, |&x| {
            if x == 77 {
                panic!("worker boom");
            }
            x
        });
    }

    #[test]
    fn streamed_delivers_every_index_with_its_result() {
        let items: Vec<u64> = (0..257).collect();
        let mut seen = vec![false; items.len()];
        parallel_map_streamed_until(
            items.len(),
            |i| items[i] * 3,
            |i, r| {
                assert!(!seen[i], "index {i} delivered twice");
                seen[i] = true;
                assert_eq!(r, items[i] * 3);
                ControlFlow::Continue(())
            },
        );
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn streamed_delivery_is_completion_order() {
        // Item 0 sleeps, so under parallel execution (any worker count ≥ 2;
        // only one item is slow, so the other worker is always on fast ones)
        // some later item must arrive before it — i.e. delivery is
        // completion order, not input order.
        let items: Vec<u64> = (0..64).collect();
        let mut order = Vec::new();
        parallel_map_streamed_until(
            items.len(),
            |i| {
                if i == 0 {
                    std::thread::sleep(std::time::Duration::from_millis(100));
                }
                items[i]
            },
            |i, _| {
                order.push(i);
                ControlFlow::Continue(())
            },
        );
        assert_eq!(order.len(), 64);
        if max_threads() > 1 {
            let slowest = order.iter().position(|&i| i == 0).unwrap();
            assert!(slowest > 0, "a fast item should finish before the slow one");
        }
    }

    #[test]
    fn streamed_from_inside_a_worker_is_sequential_in_order() {
        let outer: Vec<u64> = (0..8).collect();
        let ok = parallel_map(&outer, |&x| {
            let inner: Vec<u64> = (0..32).collect();
            let mut order = Vec::new();
            parallel_map_streamed_until(
                inner.len(),
                |i| x + inner[i],
                |i, _| {
                    order.push(i);
                    ControlFlow::Continue(())
                },
            );
            order == (0..32).collect::<Vec<usize>>()
        });
        assert!(ok.into_iter().all(|b| b));
    }

    #[test]
    fn streamed_until_break_stops_claiming_new_items() {
        let processed = AtomicUsize::new(0);
        let items: Vec<u64> = (0..256).collect();
        let mut delivered = 0usize;
        parallel_map_streamed_until(
            items.len(),
            |i| {
                processed.fetch_add(1, Ordering::Relaxed);
                // Slow items keep the in-flight window small, so the break
                // lands before the workers can drain the whole input.
                std::thread::sleep(std::time::Duration::from_millis(2));
                items[i]
            },
            |_, _| {
                delivered += 1;
                ControlFlow::Break(())
            },
        );
        assert_eq!(delivered, 1, "no delivery after the break");
        assert!(
            processed.load(Ordering::Relaxed) < items.len(),
            "breaking must stop the claim loop before the input is drained"
        );
    }

    #[test]
    #[should_panic(expected = "streamed boom")]
    fn streamed_panics_propagate() {
        let items: Vec<u64> = (0..128).collect();
        parallel_map_streamed_until(
            items.len(),
            |i| {
                if items[i] == 99 {
                    panic!("streamed boom");
                }
                items[i]
            },
            |_, _| ControlFlow::Continue(()),
        );
    }

    #[test]
    fn worker_flag_round_trips() {
        assert!(!in_parallel_worker());
        set_in_parallel_worker(true);
        assert!(in_parallel_worker());
        set_in_parallel_worker(false);
        assert!(!in_parallel_worker());
    }

    #[test]
    fn semaphore_bounds_concurrency() {
        let sem = Semaphore::new(3);
        let in_flight = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..16 {
                scope.spawn(|| {
                    let _permit = sem.acquire();
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                });
            }
        });
        assert!(peak.load(Ordering::SeqCst) <= 3, "limit exceeded");
        assert_eq!(sem.available(), 3, "all permits returned");
    }

    #[test]
    fn semaphore_permit_releases_on_unwind() {
        let sem = Semaphore::new(1);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _permit = sem.acquire();
            panic!("holder dies");
        }));
        assert!(result.is_err());
        // The permit came back despite the panic; acquiring again succeeds.
        assert_eq!(sem.available(), 1);
        let _p = sem.acquire();
    }

    #[test]
    fn zero_permit_semaphore_clamps_to_one() {
        let sem = Semaphore::new(0);
        assert_eq!(sem.available(), 1);
        let _p = sem.acquire();
        assert_eq!(sem.available(), 0);
    }

    #[test]
    fn try_acquire_fails_only_when_exhausted() {
        let sem = Semaphore::new(2);
        let a = sem.try_acquire().expect("first permit");
        let b = sem.try_acquire().expect("second permit");
        assert!(sem.try_acquire().is_none(), "gate full");
        drop(a);
        let c = sem.try_acquire().expect("permit returned");
        drop(b);
        drop(c);
        assert_eq!(sem.available(), 2);
    }

    #[test]
    fn shutdown_signal_wakes_waiters_and_stays_signalled() {
        let signal = ShutdownSignal::new();
        assert!(!signal.is_signalled());
        assert!(
            !signal.wait_timeout(Duration::from_millis(5)),
            "timeout without a signal reports un-signalled"
        );
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| signal.wait());
            let timed = scope.spawn(|| signal.wait_timeout(Duration::from_secs(60)));
            std::thread::sleep(Duration::from_millis(10));
            signal.signal();
            waiter.join().unwrap();
            assert!(timed.join().unwrap());
        });
        // Monotonic: still signalled, and re-signalling is harmless.
        assert!(signal.is_signalled());
        signal.signal();
        assert!(signal.wait_timeout(Duration::ZERO));
    }

    #[test]
    fn streamed_delivery_is_bounded_under_a_stalled_consumer() {
        // A consumer that stalls on its first delivery: workers must block
        // on the bounded channel instead of racing through the whole input
        // and buffering every result. Run-ahead is capped at the channel
        // bound plus one queued result per worker (each may be blocked in
        // `send`) plus the one being computed per worker.
        let n = 4096;
        let items: Vec<u64> = (0..n as u64).collect();
        let produced = AtomicUsize::new(0);
        let mut first = true;
        let mut delivered = 0usize;
        let threads = max_threads().min(n);
        let mut stalled_high_water = 0usize;
        parallel_map_streamed_until(
            items.len(),
            |i| {
                produced.fetch_add(1, Ordering::Relaxed);
                items[i]
            },
            |_, _| {
                if first {
                    first = false;
                    std::thread::sleep(Duration::from_millis(100));
                    stalled_high_water = produced.load(Ordering::Relaxed);
                }
                delivered += 1;
                ControlFlow::Continue(())
            },
        );
        assert_eq!(delivered, n, "backpressure must not lose deliveries");
        if threads > 1 {
            let cap = streamed_buffer_bound(threads) + 2 * threads + 1;
            assert!(
                stalled_high_water <= cap,
                "workers ran {stalled_high_water} items ahead of a stalled \
                 consumer (bound {cap})"
            );
        }
    }

    #[test]
    fn max_threads_is_positive() {
        assert!(max_threads() >= 1);
    }

    #[test]
    fn nested_parallel_maps_run_inner_sequentially_and_correctly() {
        // An outer parallel map whose tasks each fan out again: the inner
        // calls must degrade to sequential loops (no quadratic thread
        // explosion) while producing identical results.
        let outer: Vec<u64> = (0..16).collect();
        let result = parallel_map(&outer, |&x| {
            let inner: Vec<u64> = (0..64).collect();
            parallel_map(&inner, |&y| x * 100 + y).len() as u64
                + parallel_map(&inner, |&y| x + y)[63]
        });
        let expected: Vec<u64> = outer.iter().map(|&x| 64 + x + 63).collect();
        assert_eq!(result, expected);
        // Back on the outer thread, parallelism is available again.
        assert!(!IN_PARALLEL_WORKER.with(std::cell::Cell::get));
    }

    #[test]
    fn proc_status_parsing_and_rss_sanity() {
        let status = "Name:\tqre\nVmHWM:\t  123456 kB\nVmRSS:\t    1024 kB\n";
        assert_eq!(proc_status_kb(status, "VmHWM:"), Some(123_456 * 1024));
        assert_eq!(proc_status_kb(status, "VmRSS:"), Some(1024 * 1024));
        assert_eq!(proc_status_kb(status, "VmPeak:"), None);
        // On Linux both readers must produce non-zero values, and within
        // one snapshot the high-water mark can never undercut the current
        // RSS. Two separate reads would race: the second read's own
        // allocation can grow RSS past the peak the first read saw.
        if let (Some(peak), Some(now)) = (peak_rss_bytes(), current_rss_bytes()) {
            assert!(peak > 0 && now > 0);
            let snapshot = std::fs::read_to_string("/proc/self/status").unwrap();
            let peak = proc_status_kb(&snapshot, "VmHWM:").unwrap();
            let now = proc_status_kb(&snapshot, "VmRSS:").unwrap();
            assert!(peak >= now, "VmHWM {peak} < VmRSS {now}");
        }
    }
}
