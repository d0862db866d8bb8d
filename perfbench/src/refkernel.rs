//! The reference kernel: a fixed amount of benchmark-owned floating-point
//! and memory work, timed just before every solver sample so each sample
//! can be reported in units of it (`ref`). The host this benchmark runs on
//! alternates between fast and slow phases of up to ~1.7x lasting from a
//! few hundred milliseconds to seconds; a ratio to work run moments
//! earlier cancels that, a raw time does not.
//!
//! FROZEN: changing the arrays, the pass count or the arithmetic changes
//! the unit every solver-step metric is expressed in. No later change may
//! edit this file.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Served times and set-up time are reported at a nominal host speed: the
/// speed at which one reference run takes this long, in milliseconds.
pub const NOMINAL_MS: f64 = 0.2;

/// Points per array (three arrays of 96 KiB: resident in a per-core L2).
const N: usize = 12_288;
/// Smoothing passes per run.
const PASSES: usize = 12;

/// Scratch for one thread's reference runs.
pub struct RefKernel {
    a: Vec<f64>,
    b: Vec<f64>,
    c: Vec<f64>,
}

impl Default for RefKernel {
    fn default() -> Self {
        let a: Vec<f64> = (0..N).map(|i| 1.0 + 0.5 * ((i as f64) * 0.013).sin()).collect();
        let c: Vec<f64> = (0..N).map(|i| 0.25 + 0.1 * ((i as f64) * 0.007).cos()).collect();
        Self { b: a.clone(), a, c }
    }
}

impl RefKernel {
    /// One reference run: a three-point smoothing stencil with a rational
    /// source term, swept `PASSES` times (loads, stores, multiplies, adds
    /// and one divide per point, like the solver's flux kernels). The
    /// input is reset each run, so every run does identical work.
    pub fn run(&mut self) -> f64 {
        for (i, x) in self.a.iter_mut().enumerate() {
            *x = 1.0 + 0.5 * ((i % 97) as f64) * 0.01;
        }
        for _ in 0..PASSES {
            let (a, b, c) = (&self.a, &mut self.b, &self.c);
            b[0] = a[0];
            b[N - 1] = a[N - 1];
            for i in 1..N - 1 {
                let s = a[i - 1] + 2.0 * a[i] + a[i + 1];
                b[i] = 0.25 * s + c[i] / (1.0 + a[i] * a[i]);
            }
            std::mem::swap(&mut self.a, &mut self.b);
        }
        black_box(self.a[N / 2])
    }

    /// Time one run.
    pub fn time(&mut self) -> Duration {
        let t0 = Instant::now();
        black_box(self.run());
        t0.elapsed()
    }
}

/// The reference kernel on two threads at once, for two-thread samples: a
/// scoped thread is spawned to run one copy while the caller runs the
/// other, and the pair's time runs from the spawn until the join. The
/// spawn and join are part of the unit on purpose: the two-thread samples
/// pay the same (every rayon-shim region and every rank team spawns its
/// threads), and on this host their cost swings with load far more than
/// compute speed does.
#[derive(Default)]
pub struct RefPair {
    main: RefKernel,
    other: RefKernel,
}

impl RefPair {
    /// One reference run on both threads.
    pub fn time(&mut self) -> Duration {
        let (main, other) = (&mut self.main, &mut self.other);
        let t0 = Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| black_box(other.run()));
            black_box(main.run());
        });
        t0.elapsed()
    }

    /// One reference run on the calling thread only.
    pub fn time_one(&mut self) -> Duration {
        self.main.time()
    }
}
