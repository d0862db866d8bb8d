//! Served-job measurements: a closed loop of two client connections to an
//! in-process `Daemon` over its Unix socket, with the shipped durability
//! settings (fsync on). Latency is timed on the client side, from
//! `Client::submit` to the `Done` response (through `Client::wait` when the
//! job was admitted). Whether a job is cold or a repeat comes from the
//! benchmark's own schedule, never from the daemon's `cache` label.

use crate::cost::{Cost, Stopwatch};
use crate::refkernel::{RefPair, NOMINAL_MS};
use crate::report::Report;
use crate::rng::SplitMix64;
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use ns_core::Solver;
use ns_runtime::run_parallel;
use ns_serve::client::Client;
use ns_serve::daemon::{Daemon, DaemonConfig};
use ns_serve::job::{Backend, JobDesc};
use ns_serve::proto::Response;
use ns_serve::wal::{key_hex, Wal, WalRecord};
use ns_verify::snapshot::{field_hash, hash_hex};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Result-cache budget: deliberately smaller than the repeat working set,
/// so some repeats are promoted back from the on-disk spill.
const CACHE_BUDGET_BYTES: usize = 24 << 10;
/// Repeats pick uniformly among the most recent this-many cold jobs.
const WORKING_SET: usize = 48;
/// Cold jobs recomputed in-process after the window.
const RECOMPUTE: usize = 6;
/// Daemon-side wait limit per job (a job that needs it has failed).
const WAIT_LIMIT: Duration = Duration::from_secs(60);

/// Job `i` of the schedule repeats an earlier key iff `i % 5` is 1 or 3:
/// 40% repeats. Not exactly half: repeats answer in well under a
/// millisecond and cold jobs take several, so at 50% the median would sit
/// in the gap between the two and jump between them from run to run.
fn is_repeat(i: usize) -> bool {
    matches!(i % 5, 1 | 3)
}

/// Served jobs per run, on every workload. A fixed count, not a share of
/// the seconds: the daemon keeps every settled result in memory, so a
/// time-bounded phase would make peak memory and the tail percentiles
/// follow host speed.
pub const JOBS: usize = 4000;
/// Client connections of the closed loop.
const CLIENTS: usize = 2;
/// Jobs each client serves per chunk. Between chunks the clients pause
/// while reference runs measure host speed: the mean of as many runs as
/// fill a quarter of the previous chunk (at least three). Two-thread runs
/// (`RefPair::time`): the loop keeps both cores busy (two clients, two
/// workers, two-rank jobs that spawn their team), so a core lost to
/// another tenant slows it as it slows the pair; over 16 seeds the
/// two-thread scale held `job_p50_ms` to an IQR of 0.056 of its median
/// against 0.083 with one-thread runs.
const CHUNK_PER_CLIENT: usize = 5;

fn desc(regime: &str, nx: usize, nr: usize, steps: u64, procs: usize, backend: &str) -> JobDesc {
    JobDesc {
        label: None,
        regime: regime.into(),
        nx,
        nr,
        steps,
        version: "V5".into(),
        procs,
        comm: "V5".into(),
        backend: backend.into(),
        priority: "normal".into(),
        deadline_ms: None,
    }
}

/// Every distinct cold job, in a seeded order: small mixed jobs (a few ms
/// of solver work each), Euler and Navier-Stokes on 24..64 x 10..24 grids,
/// 4..30 steps, kernel V5, serial or parallel on one or two ranks.
fn cold_jobs(rng: &mut SplitMix64) -> Vec<JobDesc> {
    let mut all = Vec::new();
    let placements = [("serial", 1), ("parallel", 1), ("parallel", 2)];
    for regime in ["euler", "navier-stokes"] {
        for nx in (24..=64).step_by(4) {
            for nr in (10..=24).step_by(2) {
                for steps in 4..=30 {
                    for (backend, procs) in placements {
                        all.push(desc(regime, nx, nr, steps, procs, backend));
                    }
                }
            }
        }
    }
    rng.shuffle(&mut all);
    all
}

/// What the daemon answered for one job.
#[derive(Clone)]
struct Answer {
    key: String,
    cache: String,
    /// FNV-1a of the payload text (the text itself is not kept, so the
    /// benchmark's own memory does not grow with the job count).
    payload: u64,
    field_hash: String,
    queue_ms: f64,
    run_ms: f64,
}

/// One served job as the client saw it.
struct JobRecord {
    /// Position in the cold list (the job itself, or the key it repeats).
    cold: usize,
    /// Host-speed scale of the job's chunk: nominal / measured pair time.
    scale: f64,
    repeat: bool,
    latency: f64,
    submit: f64,
    /// The `Wait` leg, for admitted jobs.
    wait: Option<f64>,
    busy: u64,
    answer: Result<Answer, String>,
}

struct Schedule {
    next: usize,
    /// Cold jobs dispensed so far, with their first answer once it lands.
    cold: Vec<(JobDesc, Option<Result<Answer, String>>)>,
    pending: Vec<JobDesc>,
    rng: SplitMix64,
}

/// Hands out the seeded job schedule to the client threads.
struct Dispenser {
    state: Mutex<Schedule>,
    /// Set once `next` has run dry; read by both clients between chunks.
    exhausted: AtomicBool,
    answered: Condvar,
}

impl Dispenser {
    /// The next job: `(schedule index, cold position, is repeat, desc)`.
    fn next(&self) -> Option<(usize, usize, bool, JobDesc)> {
        let mut st = self.state.lock().unwrap();
        if st.next >= JOBS {
            self.exhausted.store(true, Ordering::Release);
            return None;
        }
        let i = st.next;
        st.next += 1;
        // a repeat needs a cold key before the most recent one (which may
        // still be in flight on the other connection)
        let c = st.cold.len();
        if is_repeat(i) && c >= 2 {
            let lo = c.saturating_sub(1 + WORKING_SET);
            let pick = lo + (st.rng.next_u64() % (c - 1 - lo) as u64) as usize;
            return Some((i, pick, true, st.cold[pick].0.clone()));
        }
        let Some(d) = st.pending.pop() else {
            self.exhausted.store(true, Ordering::Release);
            return None;
        };
        st.cold.push((d.clone(), None));
        Some((i, c, false, d))
    }

    /// Block until cold job `pick` has its first answer.
    fn await_answer(&self, pick: usize) {
        let mut st = self.state.lock().unwrap();
        while st.cold[pick].1.is_none() {
            st = self.answered.wait(st).unwrap();
        }
    }

    fn answer(&self, pick: usize, a: Result<Answer, String>) {
        self.state.lock().unwrap().cold[pick].1 = Some(a);
        self.answered.notify_all();
    }
}

/// Fresh state directory for one daemon incarnation.
fn state_dir(tag: &str) -> PathBuf {
    PathBuf::from(crate::OUT_DIR).join(format!("state-{}-{tag}", std::process::id()))
}

/// The shipped daemon defaults (`sync` on), except the small cache budget.
fn daemon_config(dir: &Path) -> DaemonConfig {
    let mut cfg = DaemonConfig::new(dir);
    cfg.cache_budget_bytes = CACHE_BUDGET_BYTES;
    cfg
}

/// One set-up of the serving stack: start a daemon with the shipped
/// settings on a fresh state directory and connect the clients. The daemon
/// is drained and its state removed after the clock stops, before the next
/// set-up: daemons left running make every later start slower.
pub fn setup_once(tag: &str) -> Cost {
    let dir = state_dir(tag);
    let sw = Stopwatch::start();
    let daemon = Daemon::start(daemon_config(&dir)).expect("daemon start");
    let clients: Vec<Client> =
        (0..CLIENTS).map(|_| Client::connect(daemon.socket_path()).expect("connect")).collect();
    let t = sw.read();
    drop(clients);
    daemon.drain().expect("drain");
    let _ = std::fs::remove_dir_all(&dir);
    t
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

fn done(resp: Response) -> Result<Answer, String> {
    match resp {
        Response::Done { key, cache, payload, field_hash, queue_ms, run_ms, .. } => {
            Ok(Answer { key, cache, payload: fnv1a(payload.as_bytes()), field_hash, queue_ms, run_ms })
        }
        other => Err(format!("unexpected response {other:?}")),
    }
}

/// One job through one connection.
fn serve_one(
    client: &mut Client,
    d: &JobDesc,
    tr: Option<&mut Tracer>,
    op: u64,
) -> (f64, f64, Option<f64>, u64, Result<Answer, String>) {
    let mut busy = 0;
    let t0 = Instant::now();
    let first = loop {
        match client.submit(d) {
            Ok(Response::Busy { retry_after_ms, .. }) => {
                busy += 1;
                std::thread::sleep(Duration::from_millis(retry_after_ms.clamp(1, 50)));
            }
            other => break other,
        }
    };
    let t1 = Instant::now();
    let (answer, t2) = match first {
        Ok(Response::Admitted { key, .. }) => {
            let a = client.wait(&key, WAIT_LIMIT).map_err(|e| e.to_string()).and_then(done);
            (a, Some(Instant::now()))
        }
        Ok(r) => (done(r), None),
        Err(e) => (Err(e.to_string()), None),
    };
    let end = t2.unwrap_or(t1);
    if let Some(tr) = tr {
        let job = tr.record("job", op, None, t0, end);
        tr.record("submit", op, Some(job), t0, t1);
        if let Some(t2) = t2 {
            tr.record("wait", op, Some(job), t1, t2);
        }
    }
    let s = |a: Instant, b: Instant| (b - a).as_secs_f64();
    (s(t0, end), s(t0, t1), t2.map(|t2| s(t1, t2)), busy, answer)
}

/// Recompute a cold job in-process on the backend it names.
fn recompute(d: &JobDesc) -> Result<String, String> {
    let spec = d.to_spec()?;
    let hash = match spec.backend {
        Backend::Serial => {
            let mut s = Solver::new(spec.cfg.clone());
            s.run(spec.steps);
            field_hash(&s.field)
        }
        Backend::Parallel => field_hash(&run_parallel(&spec.cfg, spec.procs, spec.steps, spec.comm).gather_field()),
        Backend::Shared | Backend::Chaos => return Err(format!("{} jobs are not in the mix", spec.backend.name())),
    };
    Ok(hash_hex(hash))
}

/// Times, in µs, of `n` synced `Wal::append` calls of an `Admitted` record.
fn wal_append(dir: &Path, d: &JobDesc, n: u64) -> Vec<f64> {
    std::fs::create_dir_all(dir).expect("wal probe dir");
    let (mut wal, _) = Wal::open(dir.join("probe.wal"), true).expect("wal open");
    (0..n)
        .map(|k| {
            let rec = WalRecord::Admitted { key: key_hex(k), desc: d.clone() };
            let t0 = Instant::now();
            wal.append(&rec).expect("wal append");
            t0.elapsed().as_secs_f64() * 1e6
        })
        .collect()
}

/// Serve [`JOBS`] jobs through the closed loop, check every answer after it,
/// and report. `traced` selects the per-layer metrics.
pub fn run(seed: u64, pair: &mut RefPair, traced: Option<&mut Tracer>, report: &mut Report) {
    let mut rng = SplitMix64::new(seed ^ 0x5e7e_d00b);
    let mut pending = cold_jobs(&mut rng);
    pending.reverse(); // popped from the back: seeded order preserved
    let dir = state_dir("served");
    let daemon = Daemon::start(daemon_config(&dir)).expect("daemon start");
    let disp = Dispenser {
        state: Mutex::new(Schedule { next: 0, cold: Vec::new(), pending, rng }),
        exhausted: AtomicBool::new(false),
        answered: Condvar::new(),
    };
    let origin_tracer = traced.is_some();
    let origin = Instant::now();
    let bar = Barrier::new(CLIENTS);
    // (scale, start) of the running chunk, jobs served in it, and the
    // host-speed-scaled throughput of every finished chunk
    let chunk: Mutex<(f64, Instant)> = Mutex::new((1.0, Instant::now()));
    let chunk_jobs = AtomicUsize::new(0);
    let chunk_refs = AtomicUsize::new(3);
    let chunks: Mutex<Vec<f64>> = Mutex::new(Vec::new());
    let pair = Mutex::new(pair);
    let results: Vec<(Vec<JobRecord>, Tracer, Client)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (disp, socket, bar, pair) = (&disp, daemon.socket_path(), &bar, &pair);
                let (chunk, chunk_jobs, chunk_refs, chunks) = (&chunk, &chunk_jobs, &chunk_refs, &chunks);
                s.spawn(move || {
                    let mut client = Client::connect(socket).expect("connect");
                    let mut tr = Tracer::new(origin);
                    let mut out = Vec::new();
                    loop {
                        if bar.wait().is_leader() {
                            let mut p = pair.lock().unwrap();
                            let k = chunk_refs.load(Ordering::Acquire);
                            let r = (0..k).map(|_| p.time().as_secs_f64()).sum::<f64>() / k as f64;
                            *chunk.lock().unwrap() = (NOMINAL_MS * 1e-3 / r, Instant::now());
                        }
                        bar.wait();
                        let scale = chunk.lock().unwrap().0;
                        let mut served = 0;
                        while served < CHUNK_PER_CLIENT {
                            let Some((i, pick, repeat, d)) = disp.next() else { break };
                            if repeat {
                                disp.await_answer(pick);
                            }
                            let (latency, submit, wait, busy, answer) =
                                serve_one(&mut client, &d, origin_tracer.then_some(&mut tr), i as u64);
                            if !repeat {
                                disp.answer(pick, answer.clone());
                            }
                            out.push(JobRecord { cold: pick, scale, repeat, latency, submit, wait, busy, answer });
                            served += 1;
                        }
                        chunk_jobs.fetch_add(served, Ordering::AcqRel);
                        if bar.wait().is_leader() {
                            let (scale, start) = *chunk.lock().unwrap();
                            let scaled = start.elapsed().as_secs_f64() * scale;
                            let n = chunk_jobs.swap(0, Ordering::AcqRel);
                            if n > 0 {
                                chunks.lock().unwrap().push(n as f64 / scaled);
                            }
                            // next chunk's reference: a quarter of this one's length
                            let k = (scaled / (4.0 * NOMINAL_MS * 1e-3)).round() as usize;
                            chunk_refs.store(k.clamp(3, 128), Ordering::Release);
                        }
                        bar.wait();
                        if disp.exhausted.load(Ordering::Acquire) {
                            break;
                        }
                    }
                    (out, tr, client)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client panicked")).collect()
    });
    let chunk_rates = chunks.into_inner().unwrap();
    let mut jobs = Vec::new();
    let mut clients = Vec::new();
    let mut tracers = Vec::new();
    for (out, tr, c) in results {
        jobs.extend(out);
        tracers.push(tr);
        clients.push(c);
    }
    let status = clients[0].status().expect("status");
    drop(clients);
    daemon.drain().expect("drain");

    // ---- checks, after the window ----
    let sched = disp.state.into_inner().unwrap();
    // a seeded sample of cold keys, recomputed in-process
    let mut pick_rng = SplitMix64::new(seed ^ 0xc01d);
    let answered: Vec<usize> = (0..sched.cold.len()).filter(|&c| matches!(sched.cold[c].1, Some(Ok(_)))).collect();
    let mut recomputed: Vec<(usize, Result<String, String>)> = Vec::new();
    for _ in 0..RECOMPUTE.min(answered.len()) {
        let c = answered[(pick_rng.next_u64() % answered.len() as u64) as usize];
        recomputed.push((c, recompute(&sched.cold[c].0)));
    }
    let mut mislabelled = 0u64;
    for (k, j) in jobs.iter().enumerate() {
        let (d, first) = &sched.cold[j.cold];
        let first = first.as_ref().expect("every dispensed cold job was answered");
        let verdict: Result<(), String> = match (&j.answer, first) {
            (Err(e), _) => Err(e.clone()),
            (Ok(a), Ok(f)) if j.repeat => {
                if a.payload == f.payload && a.field_hash == f.field_hash {
                    Ok(())
                } else {
                    Err(format!("repeat of {} differs from its first answer", f.key))
                }
            }
            (Ok(a), _) if j.repeat => Err(format!("repeat of a failed key {}", a.key)),
            (Ok(a), _) => {
                let want = d.to_spec().map(|s| key_hex(s.canonical_key()));
                let local = recomputed.iter().find(|(c, _)| *c == j.cold).map(|(_, h)| h);
                if want.as_deref() != Ok(a.key.as_str()) {
                    Err(format!("cold job answered under key {} (expected {want:?})", a.key))
                } else if j.wait.is_none() {
                    Err(format!("cold job {} answered at submit, never admitted", a.key))
                } else if local.is_some_and(|h| h.as_deref() != Ok(a.field_hash.as_str())) {
                    Err(format!("cold job {} served hash {}, recomputed {local:?}", a.key, a.field_hash))
                } else {
                    mislabelled += u64::from(a.cache == "durable");
                    Ok(())
                }
            }
        };
        report.check(verdict.is_ok(), 1, || format!("job {k}: {}", verdict.unwrap_err()));
    }

    // ---- metrics: every time scaled to the nominal host speed ----
    let ms = |f: &dyn Fn(&JobRecord) -> Option<f64>| -> Vec<f64> {
        jobs.iter().filter_map(|j| f(j).map(|x| x * j.scale)).collect()
    };
    let raw_ms: Vec<f64> = jobs.iter().map(|j| j.latency * 1e3).collect();
    let lat_ms = ms(&|j| Some(j.latency * 1e3));
    match traced {
        None => {
            let raw = format!("raw p50 {:.3} ms, p99 {:.3} ms", percentile(&raw_ms, 50.0), percentile(&raw_ms, 99.0));
            report.timing("job_p50_ms", "ms", &lat_ms);
            report.metrics.last_mut().expect("job_p50_ms").note = raw;
        }
        Some(tr) => {
            for t in tracers {
                tr.absorb(t);
            }
            report.add("job_p99_ms", "ms", percentile(&lat_ms, 99.0), lat_ms.len(), "99th percentile of job latency");
            report.add(
                "jobs_per_s",
                "1/s",
                median(&chunk_rates),
                chunk_rates.len(),
                format!("median over chunks; {} jobs", jobs.len()),
            );
            let cold_ok = |j: &JobRecord| !j.repeat && j.answer.as_ref().is_ok_and(|a| a.cache != "durable");
            report.timing("serve.submit_cold_ms", "ms", &ms(&|j| (!j.repeat).then_some(j.submit * 1e3)));
            report.timing("serve.submit_repeat_ms", "ms", &ms(&|j| j.repeat.then_some(j.submit * 1e3)));
            report.timing("serve.wait_ms", "ms", &ms(&|j| j.wait.map(|w| w * 1e3)));
            report.timing("serve.queue_ms", "ms", &ms(&|j| cold_ok(j).then(|| j.answer.as_ref().unwrap().queue_ms)));
            report.timing("serve.run_ms", "ms", &ms(&|j| cold_ok(j).then(|| j.answer.as_ref().unwrap().run_ms)));
            let probe = &sched.cold[0].0;
            report.timing("serve.wal_append_us", "us", &wal_append(&dir.join("wal-probe"), probe, 64));
            let at_submit = jobs.iter().filter(|j| j.wait.is_none() && j.answer.is_ok()).count();
            report.add(
                "serve.hit_ratio",
                "ratio",
                at_submit as f64 / jobs.len() as f64,
                jobs.len(),
                "jobs answered at submit",
            );
            report.add("serve.spill_hits", "count", status.stats.spill_hits as f64, 1, "");
            report.add("serve.evictions", "count", status.stats.cache_evictions as f64, 1, "");
            report.add("serve.busy", "count", jobs.iter().map(|j| j.busy).sum::<u64>() as f64, 1, "");
            report.add("serve.mislabelled", "count", mislabelled as f64, 1, "cold jobs the daemon labelled durable");
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
