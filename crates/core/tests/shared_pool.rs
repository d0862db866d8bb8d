//! Contract of the resident worker pool behind `SharedSolver`: when its
//! workers live, how a panicking chunk reaches the caller, nested regions,
//! and allocation-free steady-state stepping. Every test holds `SERIAL`, so
//! the worker counts and allocation totals below see no other test's pool.

use ns_core::config::{Regime, SolverConfig};
use ns_core::shared::SharedSolver;
use ns_numerics::Grid;
use rayon::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::thread::{self, ThreadId};
use std::time::{Duration, Instant};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Bytes allocated by every thread of this test binary.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn pool(threads: usize) -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads).build().expect("pool")
}

/// Live pool workers of this process, by thread name.
#[cfg(target_os = "linux")]
fn workers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("/proc/self/task")
        .filter(|t| {
            let t = t.as_ref().expect("task entry");
            std::fs::read_to_string(t.path().join("comm")).is_ok_and(|c| c.starts_with("rayon-worker"))
        })
        .count()
}

/// `workers()` once it reads `want`, or its last reading after a second
/// (a joined thread can take a moment to leave `/proc`).
#[cfg(target_os = "linux")]
fn settled_workers(want: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let n = workers();
        if n == want || Instant::now() > deadline {
            return n;
        }
        thread::sleep(Duration::from_millis(1));
    }
}

#[cfg(target_os = "linux")]
#[test]
fn workers_live_from_the_first_step_until_the_solver_drops() {
    let _serial = serial();
    assert_eq!(workers(), 0);
    let cfg = SolverConfig::paper(Grid::small(), Regime::Euler);
    let idle = SharedSolver::new(cfg.clone(), 3);
    assert_eq!(workers(), 0, "a solver that never steps spawns no thread");
    drop(idle);

    let mut sh = SharedSolver::new(cfg, 3);
    sh.run(3);
    assert_eq!(workers(), 2, "three threads: the caller plus two resident workers");
    drop(sh);
    assert_eq!(settled_workers(0), 0, "dropping the solver joins its workers");
}

#[test]
fn a_panicking_chunk_reaches_the_caller_and_the_pool_survives() {
    let _serial = serial();
    let pool = pool(2);
    let caller = thread::current().id();
    let quiet = panic::take_hook();
    panic::set_hook(Box::new(|_| {}));
    // four items on two threads: items 0-1 are the caller's chunk, 2-3 the worker's
    for bad in [0u32, 3] {
        let ran: Mutex<Vec<(u32, ThreadId)>> = Mutex::new(Vec::new());
        let err = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.install(|| {
                [0u32, 1, 2, 3].par_iter().for_each(|&i| {
                    ran.lock().unwrap().push((i, thread::current().id()));
                    assert!(i != bad, "item {i} fails");
                })
            })
        }))
        .expect_err("the chunk's panic reaches the caller");
        let msg = err.downcast_ref::<String>().map(String::as_str).unwrap_or_default();
        assert_eq!(msg, format!("item {bad} fails"));
        let ran = ran.into_inner().unwrap();
        let on = |item| ran.iter().find(|(i, _)| *i == item).map(|&(_, t)| t);
        assert_eq!(on(bad) == Some(caller), bad == 0, "item {bad} ran on the expected side");
        // the other chunk ran to completion before the caller resumed the panic
        let other = if bad == 0 { [2, 3] } else { [0, 1] };
        assert!(other.iter().all(|&i| on(i).is_some()), "item {bad}: other chunk incomplete: {ran:?}");
    }
    panic::set_hook(quiet);

    let mut v = vec![0u64; 1000];
    pool.install(|| v.par_iter_mut().enumerate().for_each(|(i, x)| *x = i as u64));
    assert!(v.iter().enumerate().all(|(i, &x)| x == i as u64), "the pool still works");
}

#[test]
fn a_region_nested_in_a_chunk_runs_inline() {
    let _serial = serial();
    let pool = pool(2);
    let mut outer: Vec<(Option<ThreadId>, bool)> = vec![(None, false); 4];
    pool.install(|| {
        outer.par_iter_mut().for_each(|(who, inline)| {
            let me = thread::current().id();
            let mut inner: Vec<Option<ThreadId>> = vec![None; 8];
            inner.par_iter_mut().for_each(|t| *t = Some(thread::current().id()));
            *who = Some(me);
            *inline = inner.iter().all(|&t| t == Some(me));
        })
    });
    assert!(outer.iter().all(|&(_, inline)| inline), "every nested region ran on its own thread");
    assert_ne!(outer[0].0, outer[3].0, "the outer region used the worker");
}

#[test]
fn steady_state_steps_allocate_nothing() {
    let _serial = serial();
    for grid in [Grid::new(37, 15, 37.0, 5.0), Grid::new(148, 60, 37.0, 5.0)] {
        let (nx, nr) = (grid.nx, grid.nr);
        let mut sh = SharedSolver::new(SolverConfig::paper(grid, Regime::NavierStokes), 2);
        sh.run(2); // spawn the worker, take both operator orderings once
        let before = ALLOCATED.load(Ordering::SeqCst);
        sh.run(4);
        let bytes = ALLOCATED.load(Ordering::SeqCst) - before;
        assert_eq!(bytes, 0, "{nx}x{nr}: four steady-state steps allocated {bytes} bytes");
    }
}
