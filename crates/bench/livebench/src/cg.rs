//! The CG-under-kills workload: the numerics of `mvr_workloads::cg`
//! (1-D Laplacian, row blocks, one halo exchange and two allreduces per
//! iteration, a checkpoint site per iteration) with the benchmark's hooks
//! between calls: spans, shared atomics recording each kill and the
//! moment the reincarnation re-reaches the killed iteration (the recovery
//! time), and seeded kills through `FaultHandle::kill`, each fired by the
//! victim itself when it reaches its kill iteration.

use crate::live::LiveStats;
use crate::stats::{median, peak_rss_kb, wall_ns, SplitMix};
use crate::trace::{Kind, Span, SpanBuf};
use mvr_core::{Payload, Rank};
use mvr_mpi::{Channel, Mpi, MpiResult, ReduceOp, Source, Tag};
use mvr_obs::RecorderConfig;
use mvr_runtime::{Cluster, ClusterConfig, FaultHandle, NodeMpi, SchedulerConfig};
use mvr_workloads::{CgConfig, CgResult, CgState};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

const HALO: i32 = 101;
const WORLD: u32 = 2;

/// Global unknowns: 12288 rows per rank, so the solver state (x, r, p)
/// is 288 KiB per rank and a checkpoint upload costs something.
pub const N: usize = 24576;
/// Iterations per launch. N is far from convergence, so every launch runs
/// exactly this many.
pub const ITERS: u32 = 400;
/// Kills per launch (a run has at least [`MIN_LAUNCHES`] launches).
pub const KILLS: usize = 12;
pub const MIN_LAUNCHES: u64 = 3;
/// No kill before this iteration, and at least this many between kills.
const KILL_GAP: u32 = 20;
/// The fixed checkpoint-scheduler interval: short, so the replay after a
/// kill is a few iterations deep rather than a random share of the run.
const CKPT_INTERVAL: Duration = Duration::from_millis(5);

pub fn config(iters: u32) -> CgConfig {
    CgConfig {
        n: N,
        max_iter: iters,
        tol: 1e-12,
    }
}

/// A planned kill: `rank` dies right after its iteration `at` completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Kill {
    pub rank: u32,
    pub at: u32,
}

/// `kills` seeded kills over `iters` iterations, at distinct iterations
/// at least [`KILL_GAP`] apart, victims drawn per kill.
pub fn kill_plan(seed: u64, launch: u64, iters: u32, kills: usize) -> Vec<Kill> {
    let mut rng = SplitMix::new(seed ^ (launch << 32) ^ 0xC6);
    let slots = (iters / KILL_GAP).saturating_sub(1) as u64;
    let mut picks: Vec<u64> = (1..=slots).collect();
    rng.shuffle(&mut picks);
    let mut at: Vec<u32> = picks
        .into_iter()
        .take(kills)
        .map(|s| s as u32 * KILL_GAP)
        .collect();
    at.sort_unstable();
    at.into_iter()
        .map(|at| Kill {
            rank: rng.range(0, WORLD as u64) as u32,
            at,
        })
        .collect()
}

/// State shared by every incarnation of both ranks and the benchmark.
pub struct Shared {
    trace: bool,
    kills: Vec<Kill>,
    fault: OnceLock<FaultHandle>,
    issued: Vec<AtomicBool>,
    kill_ns: Vec<AtomicU64>,
    /// Iteration the killed incarnation had reached.
    reached: Vec<AtomicU32>,
    recovered_ns: Vec<AtomicU64>,
    entry_ns: Vec<AtomicU64>,
    exit_ns: Vec<AtomicU64>,
    incarnations: Vec<AtomicU64>,
    samples: Mutex<Samples>,
}

/// Per-call latency samples, in ns.
#[derive(Default)]
pub struct Samples {
    pub allreduce: Vec<f64>,
    pub iteration: Vec<f64>,
    pub spans: Vec<Span>,
}

impl Shared {
    pub fn new(kills: Vec<Kill>, trace: bool) -> Arc<Shared> {
        let k = kills.len();
        let w = WORLD as usize;
        Arc::new(Shared {
            trace,
            kills,
            fault: OnceLock::new(),
            issued: (0..k).map(|_| AtomicBool::new(false)).collect(),
            kill_ns: (0..k).map(|_| AtomicU64::new(0)).collect(),
            reached: (0..k).map(|_| AtomicU32::new(0)).collect(),
            recovered_ns: (0..k).map(|_| AtomicU64::new(0)).collect(),
            entry_ns: (0..w).map(|_| AtomicU64::new(0)).collect(),
            exit_ns: (0..w).map(|_| AtomicU64::new(0)).collect(),
            incarnations: (0..w).map(|_| AtomicU64::new(0)).collect(),
            samples: Mutex::new(Samples::default()),
        })
    }

    pub fn kills_issued(&self) -> u64 {
        self.issued
            .iter()
            .filter(|b| b.load(Ordering::SeqCst))
            .count() as u64
    }

    /// Kill → re-reached durations in ms, for kills whose victim
    /// recovered.
    pub fn recoveries_ms(&self) -> Vec<f64> {
        (0..self.kills.len())
            .filter_map(|i| {
                let k = self.kill_ns[i].load(Ordering::SeqCst);
                let r = self.recovered_ns[i].load(Ordering::SeqCst);
                (k > 0 && r >= k).then(|| (r - k) as f64 / 1e6)
            })
            .collect()
    }

    /// Rank `me` stands at iteration `iter` (restored or just completed):
    /// close any recovery of it that this completes.
    fn observe(&self, me: u32, iter: u32, tr: &mut SpanBuf) {
        for (i, k) in self.kills.iter().enumerate() {
            if k.rank != me || !self.issued[i].load(Ordering::SeqCst) {
                continue;
            }
            if self.recovered_ns[i].load(Ordering::SeqCst) == 0
                && iter >= self.reached[i].load(Ordering::SeqCst)
            {
                let now = wall_ns();
                self.recovered_ns[i].store(now, Ordering::SeqCst);
                let op = tr.next_op();
                tr.push(
                    Kind::Recovery,
                    op,
                    self.kill_ns[i].load(Ordering::SeqCst),
                    now,
                );
            }
        }
    }

    /// Called by rank `me` after completing iteration `iter`: record any
    /// recovery it just finished, then fire its kill if one is due.
    fn after_iteration(&self, me: u32, iter: u32, tr: &mut SpanBuf) {
        self.observe(me, iter, tr);
        for (i, k) in self.kills.iter().enumerate() {
            if k.rank == me
                && k.at == iter
                && self.issued[i]
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                let fault = loop {
                    // Set right after launch returns; the first kill is
                    // many iterations later, so this never spins long.
                    if let Some(f) = self.fault.get() {
                        break f;
                    }
                    std::thread::yield_now();
                };
                self.reached[i].store(iter, Ordering::SeqCst);
                self.kill_ns[i].store(wall_ns(), Ordering::SeqCst);
                fault.kill(Rank(me));
            }
        }
    }
}

/// Hooks the solver calls between MPI calls. `None` for the reference.
pub struct Hooks<'a> {
    pub shared: &'a Shared,
    pub tr: SpanBuf,
    pub allreduce: Vec<f64>,
    pub iteration: Vec<f64>,
}

impl Drop for Hooks<'_> {
    /// Flush this incarnation's samples, also when it was killed.
    fn drop(&mut self) {
        if let Ok(mut s) = self.shared.samples.lock() {
            s.allreduce.append(&mut self.allreduce);
            s.iteration.append(&mut self.iteration);
            s.spans.append(&mut self.tr.spans);
        }
    }
}

fn block_len(n: usize, p: u32, r: u32) -> usize {
    n / p as usize + usize::from((r as usize) < n % p as usize)
}

fn timed<C: Channel, T>(
    hooks: &mut Option<Hooks<'_>>,
    kind: Kind,
    op: u64,
    mpi: &mut Mpi<C>,
    f: impl FnOnce(&mut Mpi<C>) -> MpiResult<T>,
) -> MpiResult<T> {
    match hooks {
        None => f(mpi),
        Some(h) => {
            let t = Instant::now();
            let r = h.tr.time(kind, op, || f(mpi));
            if kind == Kind::Allreduce {
                h.allreduce.push(t.elapsed().as_nanos() as f64);
            }
            r
        }
    }
}

fn matvec<C: Channel>(
    mpi: &mut Mpi<C>,
    hooks: &mut Option<Hooks<'_>>,
    op: u64,
    v: &[f64],
    out: &mut Vec<f64>,
) -> MpiResult<()> {
    let me = mpi.rank().0;
    let p = mpi.size();
    let left = (me > 0).then(|| Rank(me - 1));
    let right = (me + 1 < p).then(|| Rank(me + 1));
    let first = *v.first().unwrap_or(&0.0);
    let last = *v.last().unwrap_or(&0.0);
    let mut reqs = Vec::new();
    if let Some(l) = left {
        reqs.push(timed(hooks, Kind::Isend, op, mpi, |m| {
            m.isend(l, HALO, &first.to_le_bytes())
        })?);
    }
    if let Some(r) = right {
        reqs.push(timed(hooks, Kind::Isend, op, mpi, |m| {
            m.isend(r, HALO, &last.to_le_bytes())
        })?);
    }
    let mut halo = |src: Option<Rank>, hooks: &mut Option<Hooks<'_>>| -> MpiResult<f64> {
        match src {
            Some(s) => {
                let (_, _, b) = timed(hooks, Kind::Recv, op, mpi, |m| {
                    m.recv(Source::Rank(s), Tag::Value(HALO))
                })?;
                Ok(f64::from_le_bytes(
                    b.as_slice().try_into().expect("8-byte halo"),
                ))
            }
            None => Ok(0.0),
        }
    };
    let halo_left = halo(left, hooks)?;
    let halo_right = halo(right, hooks)?;
    for rq in reqs {
        timed(hooks, Kind::Wait, op, mpi, |m| m.wait(rq))?;
    }
    out.clear();
    for i in 0..v.len() {
        let lo = if i == 0 { halo_left } else { v[i - 1] };
        let hi = if i + 1 == v.len() {
            halo_right
        } else {
            v[i + 1]
        };
        out.push(2.0 * v[i] - lo - hi);
    }
    Ok(())
}

fn dot<C: Channel>(
    mpi: &mut Mpi<C>,
    hooks: &mut Option<Hooks<'_>>,
    op: u64,
    a: &[f64],
    b: &[f64],
) -> MpiResult<f64> {
    let local: f64 = a.iter().zip(b).map(|(x, y)| x * y).sum();
    Ok(timed(hooks, Kind::Allreduce, op, mpi, |m| {
        m.allreduce(ReduceOp::Sum, &[local])
    })?[0])
}

/// The solver; returns the library's result type plus a hash of the
/// final local solution block's bits.
pub fn solve<C: Channel>(
    mpi: &mut Mpi<C>,
    cfg: &CgConfig,
    restored: Option<CgState>,
    mut hooks: Option<Hooks<'_>>,
) -> MpiResult<(CgResult, u64)> {
    let me = mpi.rank().0;
    let len = block_len(cfg.n, mpi.size(), me);
    let mut st = restored.unwrap_or_else(|| CgState {
        iter: 0,
        x: vec![0.0; len],
        r: vec![1.0; len],
        p: vec![1.0; len],
        rr: cfg.n as f64,
    });
    if let Some(h) = hooks.as_mut() {
        h.shared.observe(me, st.iter, &mut h.tr);
    }
    let mut ap = Vec::new();
    while st.iter < cfg.max_iter && st.rr > cfg.tol {
        let op = hooks.as_mut().map(|h| h.tr.next_op()).unwrap_or(0);
        let (t, start_ns) = (Instant::now(), wall_ns());
        matvec(mpi, &mut hooks, op, &st.p, &mut ap)?;
        let p_ap = dot(mpi, &mut hooks, op, &st.p, &ap)?;
        let alpha = st.rr / p_ap;
        for (i, &api) in ap.iter().enumerate().take(len) {
            st.x[i] += alpha * st.p[i];
            st.r[i] -= alpha * api;
        }
        let rr_new = dot(mpi, &mut hooks, op, &st.r, &st.r)?;
        let beta = rr_new / st.rr;
        for i in 0..len {
            st.p[i] = st.r[i] + beta * st.p[i];
        }
        st.rr = rr_new;
        st.iter += 1;
        let image = encode_state(&st);
        timed(&mut hooks, Kind::CheckpointSite, op, mpi, |m| {
            m.checkpoint_site(&image)
        })?;
        if let Some(h) = hooks.as_mut() {
            h.iteration.push(t.elapsed().as_nanos() as f64);
            h.tr.push(Kind::Op, op, start_ns, wall_ns());
            h.shared.after_iteration(me, st.iter, &mut h.tr);
        }
    }
    let local_sum: f64 = st.x.iter().sum();
    let checksum = mpi.allreduce(ReduceOp::Sum, &[local_sum])?[0];
    Ok((
        CgResult {
            iterations: st.iter,
            residual: st.rr,
            checksum,
        },
        x_hash(&st.x),
    ))
}

/// The checkpointed solver state as raw little-endian words: `iter`,
/// `rr`, then the `x`, `r` and `p` blocks. The library kernel passes
/// `bincode` of the state to its checkpoint sites; through the vendored
/// stand-in that costs about a millisecond per iteration at this size
/// (`app.cg_state_serialize_us` in traced runs), which would make the
/// iteration time measure the app's encoder instead of the runtime. The
/// image keeps the same size.
pub fn encode_state(st: &CgState) -> Vec<u8> {
    let mut v = Vec::with_capacity(12 + 8 * 3 * st.x.len());
    v.extend_from_slice(&st.iter.to_le_bytes());
    v.extend_from_slice(&st.rr.to_bits().to_le_bytes());
    for block in [&st.x, &st.r, &st.p] {
        for f in block.iter() {
            v.extend_from_slice(&f.to_bits().to_le_bytes());
        }
    }
    v
}

/// Inverse of [`encode_state`].
pub fn decode_state(b: &[u8]) -> Option<CgState> {
    let len = b.len().checked_sub(12)? / 24;
    if b.len() != 12 + 24 * len {
        return None;
    }
    let word =
        |i: usize| f64::from_bits(u64::from_le_bytes(b[i..i + 8].try_into().expect("8 bytes")));
    let block = |k: usize| (0..len).map(|i| word(12 + 8 * (k * len + i))).collect();
    Some(CgState {
        iter: u32::from_le_bytes(b[..4].try_into().ok()?),
        rr: word(4),
        x: block(0),
        r: block(1),
        p: block(2),
    })
}

/// FNV-1a over the bits of every entry.
pub fn x_hash(x: &[f64]) -> u64 {
    x.iter().fold(0xcbf2_9ce4_8422_2325, |h, v| {
        v.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ b as u64).wrapping_mul(0x0100_0000_01b3))
    })
}

/// A rank's result payload: the `CgResult` fields and the solution hash.
pub fn encode_result(r: &CgResult, hash: u64) -> Payload {
    let mut v = Vec::with_capacity(32);
    v.extend_from_slice(&r.iterations.to_le_bytes());
    v.extend_from_slice(&r.residual.to_bits().to_le_bytes());
    v.extend_from_slice(&r.checksum.to_bits().to_le_bytes());
    v.extend_from_slice(&hash.to_le_bytes());
    Payload::from_vec(v)
}

/// The benchmark's app: restore, solve with hooks, report.
pub fn app(
    cfg: CgConfig,
    shared: Arc<Shared>,
) -> impl Fn(&mut NodeMpi, Option<Payload>) -> MpiResult<Payload> {
    move |mpi, restored| {
        let me = mpi.rank().0 as usize;
        let _ =
            shared.entry_ns[me].compare_exchange(0, wall_ns(), Ordering::SeqCst, Ordering::SeqCst);
        let incarnation = shared.incarnations[me].fetch_add(1, Ordering::SeqCst);
        let state: Option<CgState> =
            restored.map(|p| decode_state(p.as_slice()).expect("restored CG state decodes"));
        let hooks = Hooks {
            shared: &shared,
            tr: SpanBuf::new(shared.trace, me as u32, incarnation),
            allreduce: Vec::new(),
            iteration: Vec::new(),
        };
        let (res, hash) = solve(mpi, &cfg, state, Some(hooks))?;
        shared.exit_ns[me].store(wall_ns(), Ordering::SeqCst);
        Ok(encode_result(&res, hash))
    }
}

/// The fault-free reference: the benchmark's solver on the in-process
/// test channel (`mvr_mpi::testing`), no runtime, no faults. A test
/// checks it against the library kernel it mirrors.
pub fn reference(cfg: &CgConfig) -> Result<Vec<Payload>, String> {
    mvr_mpi::testing::run_local(WORLD, |mut mpi| {
        let (r, h) = solve(&mut mpi, cfg, None, None)?;
        mpi.finalize()?;
        Ok(encode_result(&r, h))
    })
    .map_err(|e| e.to_string())
}

/// The oracle over one launch: every rank's result must be bit-identical
/// to the fault-free reference, and the runtime must have restarted
/// exactly as many ranks as kills were issued.
pub fn check_launch(
    results: &[Payload],
    reference: &[Payload],
    restarts: u64,
    kills_issued: u64,
    kills_planned: u64,
) -> Result<(), String> {
    if results.len() != reference.len() {
        return Err(format!(
            "{} results, want {}",
            results.len(),
            reference.len()
        ));
    }
    for (r, (got, want)) in results.iter().zip(reference).enumerate() {
        if got.as_slice() != want.as_slice() {
            return Err(format!("rank {r}: result differs from the fault-free run"));
        }
    }
    if kills_issued != kills_planned {
        return Err(format!(
            "{kills_issued} kills issued, {kills_planned} planned"
        ));
    }
    if restarts != kills_issued {
        return Err(format!("{restarts} restarts for {kills_issued} kills"));
    }
    Ok(())
}

/// Everything a CG run measured.
#[derive(Default)]
pub struct CgRun {
    pub setups_s: Vec<f64>,
    /// Per launch: allreduce p50, iteration p50 (ns) and iterations per
    /// second.
    pub launch_allreduce_p50: Vec<f64>,
    pub launch_iteration_p50: Vec<f64>,
    pub launch_ops: Vec<f64>,
    pub iterations: u64,
    pub solve_s: f64,
    pub recoveries_ms: Vec<f64>,
    pub respawns_ms: Vec<f64>,
    pub samples: Samples,
    pub kills: u64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub live: LiveStats,
    pub launches: u64,
    /// Each launch process's peak resident memory.
    pub rss_kb: Vec<f64>,
}

/// What one launch returns to the run.
#[derive(Default, Serialize, Deserialize)]
pub struct CgLaunch {
    pub launch_ns: u64,
    pub entry_ns: u64,
    pub exit_ns: u64,
    pub results: Vec<Payload>,
    pub error: Option<String>,
    pub restarts: u64,
    pub kills_planned: u64,
    pub kills_issued: u64,
    pub recoveries_ms: Vec<f64>,
    pub respawns_ms: Vec<f64>,
    pub allreduce_ns: Vec<f64>,
    pub iteration_ns: Vec<f64>,
    pub spans: Vec<Span>,
    pub live: LiveStats,
    pub rss_kb: u64,
}

/// Polls `is_alive` after each issued kill: kill → respawned.
fn watch_respawns(shared: Arc<Shared>, stop: Arc<AtomicBool>) -> Vec<f64> {
    let mut seen = vec![false; shared.kills.len()];
    let mut out = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        if let Some(fault) = shared.fault.get() {
            for (i, k) in shared.kills.iter().enumerate() {
                let killed = shared.kill_ns[i].load(Ordering::SeqCst);
                if !seen[i] && killed > 0 && fault.is_alive(Rank(k.rank)) {
                    seen[i] = true;
                    out.push(wall_ns().saturating_sub(killed) as f64 / 1e6);
                }
            }
        }
        std::thread::sleep(Duration::from_micros(20));
    }
    out
}

/// Run one launch in this process.
pub fn launch(seed: u64, launch_no: u64, iters: u32, trace: bool) -> CgLaunch {
    let plan = kill_plan(seed, launch_no, iters, KILLS);
    let mut out = CgLaunch {
        kills_planned: plan.len() as u64,
        ..Default::default()
    };
    let shared = Shared::new(plan, trace);
    let ccfg = ClusterConfig {
        world: WORLD,
        checkpointing: Some(SchedulerConfig {
            interval: CKPT_INTERVAL,
            ..SchedulerConfig::default()
        }),
        obs: RecorderConfig {
            enabled: trace,
            ..RecorderConfig::default()
        },
        ..ClusterConfig::default()
    };
    out.launch_ns = wall_ns();
    let cluster = Cluster::launch(ccfg, app(config(iters), shared.clone()));
    let _ = shared.fault.set(cluster.fault_handle());
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = {
        let (s, st) = (shared.clone(), stop.clone());
        std::thread::spawn(move || watch_respawns(s, st))
    };
    let report = cluster.wait_report(Duration::from_secs(90));
    stop.store(true, Ordering::SeqCst);
    out.respawns_ms = watcher.join().expect("respawn watcher does not panic");
    out.kills_issued = shared.kills_issued();
    match report {
        Ok(r) => {
            out.live.add_report(&r);
            out.restarts = r.restarts;
            out.results = r.results;
        }
        Err(e) => out.error = Some(e.to_string()),
    }
    let max = |v: &[AtomicU64]| {
        v.iter()
            .map(|a| a.load(Ordering::SeqCst))
            .max()
            .unwrap_or(0)
    };
    out.entry_ns = max(&shared.entry_ns);
    out.exit_ns = max(&shared.exit_ns);
    out.recoveries_ms = shared.recoveries_ms();
    let mut s = shared.samples.lock().expect("samples lock not poisoned");
    out.allreduce_ns = std::mem::take(&mut s.allreduce);
    out.iteration_ns = std::mem::take(&mut s.iteration);
    out.spans = std::mem::take(&mut s.spans);
    out.rss_kb = peak_rss_kb();
    out
}

/// The `--launch` arguments of a CG launch.
pub fn launch_args(seed: u64, launch_no: u64, iters: u32, trace: bool) -> Vec<String> {
    [
        "cg".to_string(),
        seed.to_string(),
        launch_no.to_string(),
        iters.to_string(),
        (trace as u8).to_string(),
    ]
    .to_vec()
}

/// Child side of [`launch_args`].
pub fn launch_from_args(args: &[String]) -> Option<CgLaunch> {
    let n = |i: usize| args.get(i)?.parse::<u64>().ok();
    Some(launch(n(1)?, n(2)?, n(3)? as u32, n(4)? == 1))
}

/// Run launches until `seconds` have passed (at least `min_launches`),
/// each in a fresh process, checking each against the fault-free
/// reference.
pub fn run(seed: u64, seconds: f64, min_launches: u64, iters: u32, trace: bool) -> CgRun {
    let mut out = CgRun::default();
    let reference = match reference(&config(iters)) {
        Ok(r) => r,
        Err(e) => {
            out.problems.push(format!("reference: {e}"));
            out.attempted = 1;
            out.failed = 1;
            return out;
        }
    };
    let start = Instant::now();
    let mut launch_no = 0u64;
    while launch_no < min_launches || start.elapsed().as_secs_f64() < seconds {
        let mut l: CgLaunch = crate::child::launch(&launch_args(seed, launch_no, iters, trace))
            .unwrap_or_else(|e| CgLaunch {
                error: Some(e),
                kills_planned: KILLS as u64,
                ..Default::default()
            });
        out.attempted += iters as u64 + l.kills_planned;
        out.launches += 1;
        out.kills += l.kills_issued;
        out.live.add(&l.live);
        out.respawns_ms.extend(&l.respawns_ms);
        let verdict = match l.error.take() {
            Some(e) => Err(e),
            None => check_launch(
                &l.results,
                &reference,
                l.restarts,
                l.kills_issued,
                l.kills_planned,
            ),
        };
        match verdict {
            Ok(()) => {
                out.setups_s
                    .push(l.entry_ns.saturating_sub(l.launch_ns) as f64 / 1e9);
                let solve_s = l.exit_ns.saturating_sub(l.entry_ns) as f64 / 1e9;
                out.solve_s += solve_s;
                out.launch_ops.push(iters as f64 / solve_s.max(1e-9));
                out.iterations += iters as u64;
                out.rss_kb.push(l.rss_kb as f64);
                out.recoveries_ms.append(&mut l.recoveries_ms);
                out.launch_allreduce_p50.push(median(&mut l.allreduce_ns));
                out.launch_iteration_p50.push(median(&mut l.iteration_ns));
                out.samples.allreduce.append(&mut l.allreduce_ns);
                out.samples.iteration.append(&mut l.iteration_ns);
                out.samples.spans.append(&mut l.spans);
            }
            Err(e) => {
                out.failed += iters as u64 + l.kills_planned;
                out.problems.push(format!("launch {launch_no}: {e}"));
            }
        }
        launch_no += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_encoding_round_trips_bit_for_bit() {
        let st = CgState {
            iter: 7,
            x: vec![0.1, -2.5, f64::MIN_POSITIVE],
            r: vec![1e300, 0.0, -0.0],
            p: vec![3.0, 4.0, 5.0],
            rr: 0.125,
        };
        let back = decode_state(&encode_state(&st)).expect("decodes");
        assert_eq!(back.iter, st.iter);
        assert_eq!(back.rr.to_bits(), st.rr.to_bits());
        for (a, b) in [(&back.x, &st.x), (&back.r, &st.r), (&back.p, &st.p)] {
            assert_eq!(
                a.iter().map(|f| f.to_bits()).collect::<Vec<_>>(),
                b.iter().map(|f| f.to_bits()).collect::<Vec<_>>()
            );
        }
        assert!(decode_state(&encode_state(&st)[1..]).is_none());
    }

    #[test]
    fn kill_plan_is_seeded_spaced_and_inside_the_run() {
        let a = kill_plan(3, 1, ITERS, KILLS);
        assert_eq!(a, kill_plan(3, 1, ITERS, KILLS));
        assert_ne!(a, kill_plan(4, 1, ITERS, KILLS));
        assert_eq!(a.len(), KILLS);
        for w in a.windows(2) {
            assert!(w[1].at >= w[0].at + KILL_GAP);
        }
        assert!(a
            .iter()
            .all(|k| k.at >= KILL_GAP && k.at < ITERS && k.rank < WORLD));
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::*;

    fn reference_for_test() -> Vec<Payload> {
        reference(&config(30)).expect("fault-free reference runs")
    }

    #[test]
    fn reference_matches_the_library_kernel() {
        let cfg = config(30);
        let ours = reference(&cfg).expect("reference runs");
        let lib = mvr_mpi::testing::run_local(WORLD, |mut mpi| {
            let r = mvr_workloads::cg(&mut mpi, &cfg, None)?;
            mpi.finalize()?;
            Ok(r)
        })
        .expect("library kernel runs");
        assert_eq!(ours.len(), lib.len());
        for (o, l) in ours.iter().zip(&lib) {
            // Everything but the benchmark's own solution hash.
            assert_eq!(o.as_slice()[..20], encode_result(l, 0).as_slice()[..20]);
        }
    }

    #[test]
    fn a_faithful_result_passes() {
        let r = reference_for_test();
        assert_eq!(check_launch(&r, &r, 6, 6, 6), Ok(()));
    }

    #[test]
    fn a_single_flipped_bit_is_caught() {
        let r = reference_for_test();
        for byte in [0usize, 4, 12, 20] {
            let mut bad = r.clone();
            let mut v = bad[1].as_slice().to_vec();
            v[byte] ^= 1;
            bad[1] = Payload::from_vec(v);
            assert!(check_launch(&bad, &r, 6, 6, 6).is_err(), "byte {byte}");
        }
    }

    #[test]
    fn restarts_must_equal_kills_issued() {
        let r = reference_for_test();
        assert!(check_launch(&r, &r, 5, 6, 6).is_err());
        assert!(check_launch(&r, &r, 6, 5, 6).is_err());
        assert!(check_launch(&r[..1], &r, 6, 6, 6).is_err());
    }
}
