//! Wall and CPU time of one stretch of work. The CPU time is the whole
//! process's (`CLOCK_PROCESS_CPUTIME_ID`): every thread's, including threads
//! that have already exited, and none of the time a thread spent waiting
//! for a core, a disk or another thread.

use std::os::raw::{c_int, c_long};
use std::time::Instant;

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

extern "C" {
    fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU seconds this process has used so far.
fn process_cpu_s() -> f64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a valid, writable timespec for the whole call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    t.sec as f64 + t.nsec as f64 * 1e-9
}

/// Seconds of wall and CPU time.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Cost {
    pub wall: f64,
    pub cpu: f64,
}

impl std::ops::Add for Cost {
    type Output = Cost;
    fn add(self, o: Cost) -> Cost {
        Cost { wall: self.wall + o.wall, cpu: self.cpu + o.cpu }
    }
}

/// A start point for [`Cost`].
pub struct Stopwatch {
    wall: Instant,
    cpu: f64,
}

impl Stopwatch {
    pub fn start() -> Self {
        Self { wall: Instant::now(), cpu: process_cpu_s() }
    }

    /// Wall and CPU time since [`Stopwatch::start`].
    pub fn read(&self) -> Cost {
        Cost { wall: self.wall.elapsed().as_secs_f64(), cpu: process_cpu_s() - self.cpu }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fixed amount of arithmetic (not a fixed time, which a thread
    /// that loses its core would fill with less CPU).
    fn work() -> u64 {
        (0..20_000_000u64).fold(0, |a, i| std::hint::black_box(a.wrapping_add(i)))
    }

    #[test]
    fn cpu_counts_work_on_every_thread_but_not_sleep() {
        let sw = Stopwatch::start();
        std::thread::sleep(std::time::Duration::from_millis(40));
        let slept = sw.read();
        assert!(slept.wall >= 0.04 && slept.cpu < 0.02, "{slept:?}");

        let sw = Stopwatch::start();
        std::hint::black_box(work());
        let one = sw.read();
        let sw = Stopwatch::start();
        std::thread::scope(|s| {
            s.spawn(|| std::hint::black_box(work()));
            std::hint::black_box(work());
        });
        let two = sw.read();
        assert!(two.cpu > 1.5 * one.cpu, "one thread {one:?}, two threads {two:?}");
    }
}
