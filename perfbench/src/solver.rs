//! Solver-side measurements: the three backends end to end (serial
//! `Solver::step`, `SharedSolver` on two threads, whole `run_parallel`
//! calls on two ranks), and the traced layer budget (operator replay, the
//! Figure 2 ladder, the runtime's exchange split and the rayon region).
//!
//! Every round starts each backend from the same initial field and runs it
//! `steps` steps, so every sample does the same work however long the
//! window is, and every round's final field can be checked.

use crate::cost::{Cost, Stopwatch};
use crate::refkernel::RefPair;
use crate::report::Report;
use crate::trace::Tracer;
use ns_core::bc;
use ns_core::field::{Field, FluxField, Patch, PrimField, Workspace};
use ns_core::kernels::{self, EdgeFlags, FluxDir};
use ns_core::opcount::FlopLedger;
use ns_core::scheme::{self, NoHalo, Variant, XHalo};
use ns_core::shared::SharedSolver;
use ns_core::{Regime, Solver, SolverConfig, Version};
use ns_numerics::GasModel;
use ns_runtime::comm::{universe, MsgKind, Tag};
use ns_runtime::pack::PackBuf;
use ns_runtime::{run_parallel, CartTopology, CommVersion, ThreadHalo};
use ns_verify::oracle::{TOL_NS_PARALLEL, TOL_VERSION};
use ns_verify::snapshot::field_hash;
use rayon::prelude::*;
use std::time::{Duration, Instant};

/// Ranks and threads of every two-way sample (the host has two cores).
const P: usize = 2;

/// Largest |core.unattributed| allowed, as a share of the untraced serial
/// step: the traced layer self times must account for the step.
pub const RECONCILE_BOUND: f64 = 0.10;

fn secs(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64()
}

/// Max |part - whole| over `part`'s interior (a whole field or one rank's
/// patch), relative to the largest |whole| — the differential oracle's
/// `Rel` measure.
fn rel_diff(part: &Field, whole: &Field) -> f64 {
    let (i0, j0) = (part.patch.i0 as isize, part.patch.j0 as isize);
    let (mut diff, mut scale) = (0.0f64, 0.0f64);
    for c in 0..4 {
        for i in 0..whole.nxl() as isize {
            for j in 0..whole.nr() as isize {
                scale = scale.max(whole.at(c, i, j).abs());
            }
        }
        for i in 0..part.nxl() as isize {
            for j in 0..part.nr() as isize {
                diff = diff.max((part.at(c, i, j) - whole.at(c, i0 + i, j0 + j)).abs());
            }
        }
    }
    diff / scale.max(f64::MIN_POSITIVE)
}

/// Parallel-vs-serial agreement the oracle guarantees: bitwise for Euler,
/// `TOL_NS_PARALLEL` relative for Navier-Stokes.
fn parallel_tol(cfg: &SolverConfig) -> f64 {
    match cfg.regime {
        Regime::Euler => 0.0,
        Regime::NavierStokes => TOL_NS_PARALLEL,
    }
}

/// The serial V5 field after `steps` steps from the initial state.
pub fn reference(cfg: &SolverConfig, steps: u64) -> Field {
    let mut s = Solver::new(cfg.clone());
    s.run(steps);
    s.field
}

/// One set-up of the solver backends: fields and workspaces of a serial
/// solver, a two-thread shared solver with its pool, and a two-rank team
/// spawned and joined (zero steps).
pub fn setup_once(cfg: &SolverConfig) -> Cost {
    let sw = Stopwatch::start();
    let s = Solver::new(cfg.clone());
    let sh = SharedSolver::new(cfg.clone(), P);
    let run = run_parallel(cfg, P, 0, CommVersion::V5);
    let t = sw.read();
    assert!(s.nstep == 0 && sh.nstep == 0 && run.steps_taken() == 0);
    t
}

/// Most reference runs averaged for one sample.
const MAX_REFS: usize = 128;

/// Paired samples: times and the reference before each. The reference for
/// a sample is the mean of `k` back-to-back reference runs, `k` being the
/// previous sample's length in reference runs, so a sample and its
/// reference are exposed alike to the host's short stalls.
struct Series {
    secs: Vec<f64>,
    refs: Vec<f64>,
    k: usize,
}

impl Default for Series {
    fn default() -> Self {
        Self { secs: Vec::new(), refs: Vec::new(), k: 1 }
    }
}

impl Series {
    /// The reference for the next sample, in seconds per run.
    fn reference(&self, mut run: impl FnMut() -> Duration) -> f64 {
        (0..self.k).map(|_| run().as_secs_f64()).sum::<f64>() / self.k as f64
    }

    /// Record a sample that took `secs` and covered `per` reported units
    /// (steps), paired with `reference`.
    fn push(&mut self, reference: f64, secs: f64, per: f64) {
        self.k = ((secs / reference).round() as usize).clamp(1, MAX_REFS);
        self.refs.push(reference);
        self.secs.push(secs / per);
    }
}

/// End-to-end solver metrics: `serial_step`, `threads_step`, `ranks_step`.
pub fn end_to_end(cfg: &SolverConfig, steps: u64, pair: &mut RefPair, window: Duration, report: &mut Report) {
    let (mut serial, mut threads, mut ranks) = (Series::default(), Series::default(), Series::default());
    // (serial hash, threads hash, ranks hash, ranks rel diff) per round
    let mut rounds: Vec<(u64, u64, u64, f64)> = Vec::new();
    let deadline = Instant::now() + window;
    while Instant::now() < deadline || rounds.is_empty() {
        let mut s = Solver::new(cfg.clone());
        let mut sh = SharedSolver::new(cfg.clone(), P);
        for _ in 0..steps {
            let r = serial.reference(|| pair.time_one());
            let t0 = Instant::now();
            s.step();
            serial.push(r, secs(t0), 1.0);
            let r = threads.reference(|| pair.time());
            let t0 = Instant::now();
            sh.step();
            threads.push(r, secs(t0), 1.0);
        }
        let r = ranks.reference(|| pair.time());
        let t0 = Instant::now();
        let run = run_parallel(cfg, P, steps, CommVersion::V5);
        ranks.push(r, secs(t0), steps as f64);
        let g = run.gather_field();
        rounds.push((field_hash(&s.field), field_hash(&sh.field), field_hash(&g), rel_diff(&g, &s.field)));
    }
    // checks, after the timed window
    let want = field_hash(&reference(cfg, steps));
    let tol = parallel_tol(cfg);
    for (k, &(hs, ht, hr, rel)) in rounds.iter().enumerate() {
        report.check(hs == want, steps, || format!("round {k}: serial field hash {hs:016x} != reference {want:016x}"));
        report.check(ht == want, steps, || format!("round {k}: threads field hash {ht:016x} != serial {want:016x}"));
        let ok = if tol == 0.0 { hr == want } else { rel <= tol };
        report.check(ok, 1, || format!("round {k}: ranks field off serial (rel {rel:e}, tol {tol:e})"));
    }
    report.ref_timing("serial_step", &serial.secs, &serial.refs);
    report.ref_timing("threads_step", &threads.secs, &threads.refs);
    report.ref_timing("ranks_step", &ranks.secs, &ranks.refs);
}

/// `Solver::step_with_halo` with `NoHalo`, replayed from public calls so
/// the benchmark can time each layer from outside. Valid for the paper's
/// fixed-step production configuration (no adaptive step, no manufactured
/// forcing, no dissipation), which the constructor asserts.
pub struct Replay {
    cfg: SolverConfig,
    gas: GasModel,
    pub field: Field,
    ws: Workspace,
    t: f64,
    nstep: u64,
    ledger: FlopLedger,
    dt: f64,
}

/// Span timestamps of one replayed step.
struct StepTimes {
    start: Instant,
    first: Instant,
    second: Instant,
    bc: Instant,
    end: Instant,
}

impl Replay {
    pub fn new(cfg: &SolverConfig) -> Self {
        assert!(!cfg.adaptive_dt && cfg.mms.is_none() && cfg.dissipation == 0.0, "replay covers the paper config only");
        let s = Solver::new(cfg.clone());
        let ws = Workspace::new(&s.field.patch);
        Self { cfg: s.cfg.clone(), gas: *s.gas(), dt: s.dt(), field: s.field, ws, t: 0.0, nstep: 0, ledger: s.ledger }
    }

    fn step(&mut self) -> StepTimes {
        let start = Instant::now();
        let cfg = self.cfg.clone();
        let (dt, t) = (self.dt, self.t);
        let halo: &mut dyn XHalo = &mut NoHalo;
        let even = self.nstep.is_multiple_of(2);
        if even {
            scheme::r_operator(Variant::L1, &mut self.field, &mut self.ws, &cfg, &self.gas, halo, dt, &mut self.ledger);
        } else {
            scheme::x_operator(
                Variant::L2,
                &mut self.field,
                &mut self.ws,
                &cfg,
                &self.gas,
                halo,
                t,
                dt,
                &mut self.ledger,
            );
        }
        let first = Instant::now();
        if even {
            scheme::x_operator(
                Variant::L1,
                &mut self.field,
                &mut self.ws,
                &cfg,
                &self.gas,
                halo,
                t,
                dt,
                &mut self.ledger,
            );
        } else {
            scheme::r_operator(Variant::L2, &mut self.field, &mut self.ws, &cfg, &self.gas, halo, dt, &mut self.ledger);
        }
        let second = Instant::now();
        bc::apply_inflow(&mut self.field, &cfg, &self.gas, t + dt, &mut self.ledger);
        bc::axis_regularize(&mut self.field, &self.gas, &mut self.ledger);
        let bc_end = Instant::now();
        self.t += dt;
        self.nstep += 1;
        StepTimes { start, first, second, bc: bc_end, end: Instant::now() }
    }

    /// Replay one step and record its spans: `step` with children
    /// `x_operator`, `r_operator` and `bc`.
    fn step_traced(&mut self, tr: &mut Tracer, op: u64) {
        let even = self.nstep.is_multiple_of(2);
        let st = self.step();
        let step = tr.record("step", op, None, st.start, st.end);
        let (a, b) = if even { ("r_operator", "x_operator") } else { ("x_operator", "r_operator") };
        tr.record(a, op, Some(step), st.start, st.first);
        tr.record(b, op, Some(step), st.first, st.second);
        tr.record("bc", op, Some(step), st.second, st.bc);
    }
}

/// One V5 prims+flux sweep pair (axial and radial) on `field`: what each
/// operator stage does before its predictor or corrector update.
fn sweep_pair(cfg: &SolverConfig, gas: &GasModel, field: &Field, ws: &mut Workspace) {
    let patch = &field.patch;
    let edges = EdgeFlags::of(patch);
    let mut ledger = FlopLedger::default();
    for dir in [FluxDir::X, FluxDir::R] {
        kernels::compute_prims(cfg.version, field, &mut ws.prim, gas, &mut ledger);
        bc::mirror_prims_axis(&mut ws.prim);
        bc::extrap_prims_top(&mut ws.prim, patch.nr());
        let src = (dir == FluxDir::R).then_some(&mut ws.src);
        kernels::compute_flux(cfg.version, dir, &ws.prim, patch, edges, gas, &mut ws.flux, src, &mut ledger);
    }
}

/// Halo decorator that accumulates the time spent inside every exchange
/// call of the wrapped [`ThreadHalo`].
struct TimingHalo<'a> {
    inner: ThreadHalo<'a>,
    spent: Duration,
}

impl TimingHalo<'_> {
    fn timed<R>(&mut self, f: impl FnOnce(&mut ThreadHalo<'_>) -> R) -> R {
        let t0 = Instant::now();
        let out = f(&mut self.inner);
        self.spent += t0.elapsed();
        out
    }
}

impl XHalo for TimingHalo<'_> {
    fn exchange_prims(&mut self, prim: &mut PrimField) {
        self.timed(|h| h.exchange_prims(prim));
    }
    fn exchange_flux(&mut self, flux: &mut FluxField) {
        self.timed(|h| h.exchange_flux(flux));
    }
    fn reduce_max(&mut self, x: f64) -> f64 {
        self.timed(|h| h.reduce_max(x))
    }
    fn post_prims(&mut self, prim: &mut PrimField) {
        self.timed(|h| h.post_prims(prim));
    }
    fn finish_prims(&mut self, prim: &mut PrimField) {
        self.timed(|h| h.finish_prims(prim));
    }
    fn exchange_prims_r(&mut self, prim: &mut PrimField) {
        self.timed(|h| h.exchange_prims_r(prim));
    }
    fn exchange_flux_r(&mut self, flux: &mut FluxField) {
        self.timed(|h| h.exchange_flux_r(flux));
    }
}

/// Per-rank split of one traced team run, in seconds for the whole run.
struct RankSplit {
    field: Field,
    wall: f64,
    exchange: f64,
    wait: f64,
}

/// A two-rank team built from public runtime calls (the same per-rank
/// loop as `run_parallel`), with each rank's halo calls timed.
fn traced_team(cfg: &SolverConfig, steps: u64, tr: &mut Tracer, op: u64) -> Vec<RankSplit> {
    let topo = CartTopology::axial(P);
    let team_start = Instant::now();
    let out: Vec<(RankSplit, Instant, Instant)> = std::thread::scope(|s| {
        let handles: Vec<_> = universe(P)
            .into_iter()
            .map(|mut ep| {
                let cfg = cfg.clone();
                s.spawn(move || {
                    let rank = ep.rank();
                    let patch = Patch::pencil(cfg.grid.clone(), topo.coords(rank), (topo.px, topo.pr));
                    let (nxl, nr) = (patch.nxl, patch.nr());
                    let mut solver = Solver::on_patch(cfg, patch);
                    let t0 = Instant::now();
                    let spent = {
                        let inner = ThreadHalo::new_cart(&mut ep, topo.neighbors(rank), nxl, nr, CommVersion::V5);
                        let mut halo = TimingHalo { inner, spent: Duration::ZERO };
                        for _ in 0..steps {
                            halo.inner.begin_step(solver.nstep);
                            solver.step_with_halo(&mut halo);
                        }
                        halo.spent
                    };
                    let t1 = Instant::now();
                    let split = RankSplit {
                        field: solver.field,
                        wall: (t1 - t0).as_secs_f64(),
                        exchange: spent.as_secs_f64(),
                        wait: ep.wait_time.as_secs_f64(),
                    };
                    (split, t0, t1)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("rank panicked")).collect()
    });
    let team = tr.record("team", op, None, team_start, Instant::now());
    out.into_iter()
        .map(|(split, t0, t1)| {
            tr.record("rank_loop", op, Some(team), t0, t1);
            split
        })
        .collect()
}

/// One-way latencies of a one-double message between two endpoints, in
/// seconds (half of each of `n` ping-pong round trips).
fn ping(n: u64) -> Vec<f64> {
    let mut eps = universe(2);
    let mut echo = eps.pop().expect("rank 1");
    let mut me = eps.pop().expect("rank 0");
    let tag = |seq| Tag { kind: MsgKind::Bcast, seq };
    let mut rtt = Vec::with_capacity(n as usize);
    std::thread::scope(|s| {
        s.spawn(move || {
            for k in 0..n {
                let got = echo.recv(0, tag(k)).expect("ping recv");
                let mut b = PackBuf::with_capacity_f64(1);
                b.pack_f64(f64::from_le_bytes(got[..8].try_into().expect("one double")));
                echo.send(0, tag(k), b).expect("pong send");
            }
        });
        for k in 0..n {
            let mut b = PackBuf::with_capacity_f64(1);
            b.pack_f64(k as f64);
            let t0 = Instant::now();
            me.send(1, tag(k), b).expect("ping send");
            let got = me.recv(1, tag(k)).expect("pong recv");
            rtt.push(secs(t0) / 2.0);
            assert_eq!(f64::from_le_bytes(got[..8].try_into().expect("one double")), k as f64);
        }
    });
    rtt
}

/// One empty two-way parallel region through the vendored rayon pool.
fn empty_region(pool: &rayon::ThreadPool) -> f64 {
    let mut v = [0u64; P];
    let t0 = Instant::now();
    pool.install(|| v[..].par_iter_mut().for_each(|x| *x += 1));
    let t = secs(t0);
    assert_eq!(v, [1; P]);
    t
}

/// The traced run's solver half: every per-layer `core.*`, `runtime.*`,
/// `threads.*` and `trace.overhead` metric, plus the untraced samples they
/// are reconciled against.
pub fn layers(
    cfg: &SolverConfig,
    steps: u64,
    pair: &mut RefPair,
    window: Duration,
    tr: &mut Tracer,
    report: &mut Report,
) {
    let reference_field = reference(cfg, steps);
    let want = field_hash(&reference_field);
    let tol = parallel_tol(cfg);

    // the replay must be the production step, bit for bit, before any of
    // its timings mean anything
    let mut probe = Replay::new(cfg);
    for _ in 0..steps {
        probe.step();
    }
    let replay_hash = field_hash(&probe.field);
    report.check(replay_hash == want, 1, || {
        format!("replayed step_with_halo hash {replay_hash:016x} != Solver::step {want:016x}")
    });

    let flops = {
        let mut s = Solver::new(cfg.clone());
        let before = s.ledger.total();
        s.run(steps);
        (s.ledger.total() - before) as f64 / steps as f64
    };

    let pool = rayon::ThreadPoolBuilder::new().num_threads(P).build().expect("pool");
    let mut serial_u = Series::default();
    let mut traced = Series::default();
    let (mut x_op, mut r_op, mut bc_t) = (Vec::new(), Vec::new(), Vec::new());
    let mut ladder: Vec<Series> = Version::ALL.iter().map(|_| Series::default()).collect();
    let mut sweep = Series::default();
    let (mut t1, mut t2) = (Series::default(), Series::default());
    let mut region = Vec::new();
    let (mut ranks, mut p1, mut c6, mut c7) =
        (Series::default(), Series::default(), Series::default(), Series::default());
    let (mut team_overhead, mut imbalance) = (Series::default(), Vec::new());
    let (mut sends, mut bytes) = (Vec::new(), Vec::new());
    let (mut exch, mut wait, mut copy, mut compute) =
        (Series::default(), Series::default(), Series::default(), Series::default());
    // reference pacing for the traced team (its own timing is not reported)
    let mut team = Series::default();
    let mut sweep_ws = Workspace::new(&Patch::whole(cfg.grid.clone()));

    let deadline = Instant::now() + window;
    let mut op = 0u64;
    while Instant::now() < deadline || op == 0 {
        op += 1;
        // core: untraced step vs traced replay, interleaved step by step
        let mut s = Solver::new(cfg.clone());
        let mut rp = Replay::new(cfg);
        for _ in 0..steps {
            let r = serial_u.reference(|| pair.time_one());
            let t0 = Instant::now();
            s.step();
            serial_u.push(r, secs(t0), 1.0);
            let r = traced.reference(|| pair.time_one());
            let first = tr.spans.len();
            rp.step_traced(tr, op);
            let span = |k: usize| (tr.spans[k].end - tr.spans[k].start).as_secs_f64();
            traced.push(r, span(first), 1.0);
            for k in first + 1..first + 4 {
                let target = match tr.spans[k].name {
                    "x_operator" => &mut x_op,
                    "r_operator" => &mut r_op,
                    _ => &mut bc_t,
                };
                target.push(span(k) / r);
            }
        }
        let h = field_hash(&rp.field);
        report.check(h == want, steps, || format!("round {op}: traced replay hash {h:016x} != {want:016x}"));
        report.check(field_hash(&s.field) == want, steps, || format!("round {op}: serial hash off reference"));

        // the sweep alone, on the replay's final state
        for _ in 0..steps {
            let r = sweep.reference(|| pair.time_one());
            let t0 = Instant::now();
            sweep_pair(cfg, &rp.gas, &rp.field, &mut sweep_ws);
            // two stages (predictor, corrector) per operator per step
            sweep.push(r, 2.0 * secs(t0), 1.0);
        }

        // the Figure 2 ladder: full steps per kernel rung
        for (v, series) in Version::ALL.iter().zip(ladder.iter_mut()) {
            let mut c = cfg.clone();
            c.version = *v;
            let mut s = Solver::new(c);
            for _ in 0..steps {
                let r = series.reference(|| pair.time_one());
                let t0 = Instant::now();
                s.step();
                series.push(r, secs(t0), 1.0);
            }
            let (h, rel) = (field_hash(&s.field), rel_diff(&s.field, &reference_field));
            let ok = if *v >= Version::V5 { h == want } else { rel <= TOL_VERSION };
            report.check(ok, steps, || format!("round {op}: ladder {v:?} off V5 (rel {rel:e})"));
        }

        // threads: one and two workers, plus the bare region
        let (mut a, mut b) = (SharedSolver::new(cfg.clone(), 1), SharedSolver::new(cfg.clone(), P));
        for _ in 0..steps {
            let r = t1.reference(|| pair.time_one());
            let t0 = Instant::now();
            a.step();
            t1.push(r, secs(t0), 1.0);
            let r = t2.reference(|| pair.time());
            let t0 = Instant::now();
            b.step();
            t2.push(r, secs(t0), 1.0);
            region.push(empty_region(&pool) * 1e6);
        }
        for (name, f) in [("T=1", &a.field), ("T=2", &b.field)] {
            let h = field_hash(f);
            report.check(h == want, steps, || format!("round {op}: threads {name} hash {h:016x} != {want:016x}"));
        }

        // runtime: whole run_parallel calls per protocol and rank count
        let n = steps as f64;
        for (p, comm, series) in [
            (P, CommVersion::V5, &mut ranks),
            (1, CommVersion::V5, &mut p1),
            (P, CommVersion::V6, &mut c6),
            (P, CommVersion::V7, &mut c7),
        ] {
            let r = if p == 1 { series.reference(|| pair.time_one()) } else { series.reference(|| pair.time()) };
            let t0 = Instant::now();
            let run = run_parallel(cfg, p, steps, comm);
            let elapsed = secs(t0);
            series.push(r, elapsed, n);
            let rel = rel_diff(&run.gather_field(), &reference_field);
            let tol = if p == 1 { 0.0 } else { tol };
            report.check(rel <= tol, 1, || format!("round {op}: run_parallel p{p} {comm:?} rel {rel:e} > {tol:e}"));
            if p == P && comm == CommVersion::V5 {
                let loops: Vec<f64> = run.ranks.iter().map(|k| (k.busy + k.wait).as_secs_f64()).collect();
                let slowest = loops.iter().copied().fold(0.0, f64::max);
                team_overhead.push(r, run.elapsed.as_secs_f64() - slowest, n);
                let busy: Vec<f64> = run.ranks.iter().map(|k| k.busy.as_secs_f64()).collect();
                let mean = busy.iter().sum::<f64>() / busy.len() as f64;
                imbalance.push(busy.iter().copied().fold(0.0, f64::max) / mean - 1.0);
                let stats = run.total_stats();
                sends.push(stats.sends as f64 / n);
                bytes.push(stats.bytes_sent as f64 / n);
            }
        }

        // runtime: the traced team, exchange time split by rank
        let r = team.reference(|| pair.time());
        let t0 = Instant::now();
        let split = traced_team(cfg, steps, tr, op);
        team.push(r, secs(t0), n);
        for k in &split {
            exch.push(r, k.exchange, n);
            wait.push(r, k.wait, n);
            copy.push(r, k.exchange - k.wait, n);
            compute.push(r, k.wall - k.exchange, n);
            let rel = rel_diff(&k.field, &reference_field);
            report.check(rel <= tol, 1, || format!("round {op}: traced team rank off serial (rel {rel:e})"));
        }
    }

    // ---- core ----
    let serial = report.ref_timing("serial_step", &serial_u.secs, &serial_u.refs);
    let traced_step = report.ref_timing("traced_step", &traced.secs, &traced.refs);
    let mut layer_sum = 0.0;
    for (name, xs) in [("core.x_operator", &x_op), ("core.r_operator", &r_op), ("core.bc", &bc_t)] {
        report.timing(name, "ref", xs);
        layer_sum += report.get(name);
    }
    let unattributed = serial - layer_sum;
    report.add("core.unattributed", "ref", unattributed, 1, "derived: serial_step - (x + r + bc)");
    report.check(unattributed.abs() <= RECONCILE_BOUND * serial, 1, || {
        format!("layer budget off the untraced step: unattributed {unattributed:.4} ref vs step {serial:.4} ref")
    });
    let sweep_v = report.ref_timing("core.prims_flux_sweep", &sweep.secs, &sweep.refs);
    let x = report.get("core.x_operator");
    let r = report.get("core.r_operator");
    report.add(
        "core.predict_correct",
        "ref",
        x + r - sweep_v,
        1,
        "derived: x_operator + r_operator - prims_flux_sweep",
    );
    for (v, series) in Version::ALL.iter().zip(&ladder) {
        report.ref_timing(&format!("core.ladder.{v:?}"), &series.secs, &series.refs);
    }
    report.add("core.flops_per_step", "count", flops, 1, "exact FlopLedger count, serial V5");

    // ---- runtime ----
    let ranks_v = report.ref_timing("runtime.ranks_step", &ranks.secs, &ranks.refs);
    report.ref_timing("runtime.exchange", &exch.secs, &exch.refs);
    report.ref_timing("runtime.wait", &wait.secs, &wait.refs);
    report.ref_timing("runtime.copy", &copy.secs, &copy.refs);
    report.ref_timing("runtime.compute", &compute.secs, &compute.refs);
    report.ref_timing("runtime.team_overhead", &team_overhead.secs, &team_overhead.refs);
    report.timing("runtime.imbalance", "ratio", &imbalance);
    report.timing("runtime.sends_per_step", "count", &sends);
    report.timing("runtime.bytes_per_step", "bytes", &bytes);
    let one_way: Vec<f64> = ping(2000).iter().map(|t| t * 1e6).collect();
    report.timing("runtime.ping_us", "us", &one_way);
    report.ref_timing("runtime.p1_step", &p1.secs, &p1.refs);
    report.ref_timing("runtime.commV6_step", &c6.secs, &c6.refs);
    report.ref_timing("runtime.commV7_step", &c7.secs, &c7.refs);
    report.add(
        "runtime.efficiency",
        "ratio",
        serial / (P as f64 * ranks_v),
        1,
        "derived: serial_step / (2 * ranks_step)",
    );

    // ---- threads ----
    report.timing("threads.region_us", "us", &region);
    let t1_v = report.ref_timing("threads.step_t1", &t1.secs, &t1.refs);
    let t2_v = report.ref_timing("threads.step_t2", &t2.secs, &t2.refs);
    report.add("threads.speedup", "ratio", t1_v / t2_v, 1, "derived: step_t1 / step_t2");

    report.add("trace.overhead", "ref", traced_step - serial, 1, "derived: traced replay step - untraced serial_step");
}
