//! jetns benchmark: end-to-end step time per solver backend on the paper's
//! two grids, served-job latency through the durable daemon, and a traced
//! per-layer budget. See `perfbench/README.md` for the metric table.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_ns --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Prints one line per metric (value, unit, sample count, tail percentile)
//! and, as the last line, one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` holding the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). Exits 1
//! when any output fails its check, 2 on bad arguments.

mod cost;
mod refkernel;
mod report;
mod rng;
mod served;
mod solver;
mod stats;
mod trace;

use ns_core::{Regime, SolverConfig};
use ns_numerics::Grid;
use report::Report;
use std::os::fd::AsRawFd;
use std::time::{Duration, Instant};

/// Scratch output (daemon state directories, span files), relative to the
/// working directory.
pub const OUT_DIR: &str = ".perfbench";

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 45;

/// Metrics of the untraced run (`--trace 0`).
const END_TO_END: [&str; 6] = ["serial_step", "threads_step", "ranks_step", "job_p50_ms", "setup_s", "peak_rss_mb"];

/// Metrics of the traced run (`--trace 1`).
const PER_LAYER: [&str; 44] = [
    "core.x_operator",
    "core.r_operator",
    "core.bc",
    "core.unattributed",
    "core.prims_flux_sweep",
    "core.predict_correct",
    "core.ladder.V1",
    "core.ladder.V2",
    "core.ladder.V3",
    "core.ladder.V4",
    "core.ladder.V5",
    "core.ladder.V6",
    "core.ladder.V7",
    "core.flops_per_step",
    "runtime.exchange",
    "runtime.wait",
    "runtime.copy",
    "runtime.compute",
    "runtime.team_overhead",
    "runtime.imbalance",
    "runtime.sends_per_step",
    "runtime.bytes_per_step",
    "runtime.ping_us",
    "runtime.p1_step",
    "runtime.commV6_step",
    "runtime.commV7_step",
    "runtime.efficiency",
    "threads.region_us",
    "threads.step_t1",
    "threads.speedup",
    "job_p99_ms",
    "jobs_per_s",
    "serve.submit_cold_ms",
    "serve.submit_repeat_ms",
    "serve.wait_ms",
    "serve.queue_ms",
    "serve.run_ms",
    "serve.wal_append_us",
    "serve.hit_ratio",
    "serve.spill_hits",
    "serve.evictions",
    "serve.busy",
    "serve.mislabelled",
    "trace.overhead",
];

/// One workload: the solver case its backends step, and how much of the
/// run's seconds they take.
struct Workload {
    grid: Grid,
    regime: Regime,
    /// Steps per round (every round restarts from the initial field).
    steps: u64,
    /// Share of `--seconds` spent stepping the solver backends; the served
    /// phase ([`served::JOBS`] jobs) takes roughly the rest.
    solver_share: f64,
}

fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        // the paper's Navier-Stokes case on its 250x100 grid
        "paper_ns" => Workload {
            grid: Grid::paper(),
            regime: Regime::NavierStokes,
            steps: 8,
            solver_share: 0.5,
        },
        // Euler on the coarse 125x50 grid: half the flops, L2-resident
        "coarse_euler" => Workload {
            grid: Grid::new(125, 50, 50.0, 5.0),
            regime: Regime::Euler,
            steps: 8,
            solver_share: 0.7,
        },
        // small mixed jobs through the daemon; the solver half steps a
        // typical job of the mix
        "served" => Workload {
            grid: Grid::new(48, 16, 50.0, 5.0),
            regime: Regime::NavierStokes,
            steps: 8,
            solver_share: 0.25,
        },
        _ => return None,
    })
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                })
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.filter(|&s| s > 0).ok_or("--seconds must be a positive whole number")?,
        trace: trace.unwrap_or(false),
    })
}

extern "C" {
    fn syncfs(fd: std::os::raw::c_int) -> std::os::raw::c_int;
}

/// Write out every pending write of the file system that holds
/// [`OUT_DIR`]; a failure fails the run. What a build or an earlier run
/// (thousands of journal and spill files written and removed) leaves to the
/// kernel's periodic writeback lands a few seconds later, inside whatever
/// is being timed then: it made every daemon start in the next run's
/// set-up ten times slower in wall time.
fn flush_pending_writes(report: &mut Report) {
    // SAFETY: syncfs only reads the descriptor, which `d` keeps open.
    let ok = std::fs::File::open(OUT_DIR).is_ok_and(|d| unsafe { syncfs(d.as_raw_fd()) } == 0);
    report.check(ok, 0, || format!("syncfs on {OUT_DIR} failed"));
}

/// Peak resident set of this process, in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\nusage: perfbench --workload paper_ns|coarse_euler|served --seed N --seconds N --trace 0|1");
            std::process::exit(2);
        }
    };
    let Some(w) = workload(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?} (paper_ns|coarse_euler|served)", args.workload);
        std::process::exit(2);
    };
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: cannot create {OUT_DIR}: {e}");
        std::process::exit(2);
    }
    let cfg = SolverConfig::paper(w.grid.clone(), w.regime);
    let mut report = Report::default();
    let mut pair = refkernel::RefPair::default();
    flush_pending_writes(&mut report);

    // set-up, several times. Each counts the CPU time every thread spends
    // in it, scaled to the nominal host speed by the CPU time of one-thread
    // reference runs made just before it (as many as the last set-up
    // lasted). Not wall time: set-up is a few milliseconds of thread spawns,
    // first-touch allocation and file creation, and how long those wait for
    // a core moved the wall-time median by up to 76% between two ten-run
    // sets of the same code, while the CPU time held.
    let (mut setups, mut walls, mut k) = (Vec::new(), Vec::new(), 1);
    for rep in 0..SETUP_REPS {
        let sw = cost::Stopwatch::start();
        for _ in 0..k {
            pair.time_one();
        }
        let r = sw.read().cpu / k as f64;
        let c = solver::setup_once(&cfg) + served::setup_once(&format!("setup{rep}"));
        k = ((c.cpu / r).round() as usize).clamp(1, 128);
        walls.push(c.wall);
        setups.push(c.cpu * refkernel::NOMINAL_MS * 1e-3 / r);
    }

    // the set-ups' own state directories, before the timed windows
    flush_pending_writes(&mut report);

    let solver_window = Duration::from_secs(args.seconds).mul_f64(w.solver_share);
    let header = format!(
        "perfbench workload={} seed={} seconds={} trace={} grid={}x{} regime={:?}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.grid.nx,
        w.grid.nr,
        w.regime
    );

    if args.trace {
        let mut tr = trace::Tracer::new(Instant::now());
        solver::layers(&cfg, w.steps, &mut pair, solver_window, &mut tr, &mut report);
        served::run(args.seed, &mut pair, Some(&mut tr), &mut report);
        let path = format!("{OUT_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
        if let Err(e) = std::fs::write(&path, tr.to_json()) {
            report.check(false, 0, || format!("cannot write {path}: {e}"));
        }
        report.print(&header, &PER_LAYER);
    } else {
        solver::end_to_end(&cfg, w.steps, &mut pair, solver_window, &mut report);
        served::run(args.seed, &mut pair, None, &mut report);
        report.timing("setup_s", "s", &setups);
        report.metrics.last_mut().expect("setup_s").note = format!("CPU time; wall median {:.6} s", stats::median(&walls));
        report.add("peak_rss_mb", "MB", peak_rss_mb(), 1, "VmHWM of the whole run");
        report.print(&header, &END_TO_END);
    }
    std::process::exit(if report.correct() { 0 } else { 1 });
}
