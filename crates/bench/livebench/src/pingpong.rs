//! The ping-pong workloads: rank 0 sends, rank 1 echoes, one message
//! outstanding (closed loop). A launch runs seeded blocks of each size;
//! each block ends with an allreduce of both ranks' echo checksums and a
//! checkpoint site. The same app runs on the in-process backend
//! (`Cluster::launch`) and, re-executed as rank children, on the socket
//! backend (`run_proc`).

use crate::live::LiveStats;
use crate::stats::{median, minor_faults, peak_rss_kb, wall_ns, word_sum, SplitMix};
use crate::trace::{Kind, Span, SpanBuf};
use mvr_core::{Payload, Rank};
use mvr_mpi::{MpiResult, ReduceOp, Source, Tag};
use mvr_obs::RecorderConfig;
use mvr_runtime::proc::{run_proc, ProcOptions};
use mvr_runtime::{Cluster, ClusterConfig, NodeMpi, RuntimeProtocol};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TAG: i32 = 11;

/// Message sizes, in the order their latency samples are kept.
pub const SIZES: [usize; 3] = [0, 64 << 10, 1 << 20];

/// Measured round trips per block of each size, in-process and over
/// sockets; every launch runs two blocks of each. The larger sizes are
/// capped because the V2 sender log keeps every message (the ping-pongs
/// take no checkpoints) until the launch ends.
const ROUNDS: [[u32; 3]; 2] = [[1500, 150, 10], [400, 40, 4]];
/// Unmeasured round trips opening each block.
const WARMUP: [[u32; 3]; 2] = [[50, 10, 2], [20, 4, 1]];

#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct Block {
    /// Index into [`SIZES`].
    pub size_idx: usize,
    pub warmup: u32,
    pub rounds: u32,
}

/// The blocks of launch `launch` under `seed`: two blocks per size, in
/// seeded order. `scale` shrinks the round counts for smoke runs.
pub fn plan(seed: u64, launch: u64, scale: f64, socket: bool) -> Vec<Block> {
    let b = usize::from(socket);
    let mut blocks: Vec<Block> = (0..2)
        .flat_map(|_| 0..SIZES.len())
        .map(|i| Block {
            size_idx: i,
            warmup: WARMUP[b][i],
            rounds: ((ROUNDS[b][i] as f64 * scale).ceil() as u32).max(2),
        })
        .collect();
    SplitMix::new(seed ^ (launch << 32)).shuffle(&mut blocks);
    blocks
}

/// The seeded message body of block `block`.
fn body(seed: u64, launch: u64, block: usize, len: usize) -> Vec<u8> {
    let mut rng = SplitMix::new(seed ^ (launch << 32) ^ ((block as u64) << 16) ^ 0x5eed);
    let mut v = Vec::with_capacity(len + 8);
    while v.len() < len {
        v.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    v.truncate(len);
    v
}

/// What one rank reports back as its result payload.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct RankReport {
    pub rank: u32,
    /// Wall clock at app entry (setup ends when both ranks are in).
    pub entry_ns: u64,
    /// Round trips completed (rank 0) or echoed (rank 1), warm-up included.
    pub rounds: u64,
    /// Echoes that differed from what rank 0 sent.
    pub bad_echoes: u64,
    /// Blocks whose sent and received checksums disagreed.
    pub bad_blocks: u64,
    pub blocks: u64,
    /// Time rank 0 spent inside its block loops.
    pub loop_ns: u64,
    /// Measured round-trip times per size index (rank 0).
    pub rtt_ns: Vec<Vec<u64>>,
    /// Peak resident memory of the process the rank ran in.
    pub peak_rss_kb: u64,
    /// Minor page faults of the rank's process during its blocks, per
    /// size index (a diagnostic of allocator behaviour).
    pub faults: Vec<u64>,
    pub spans: Vec<Span>,
}

impl RankReport {
    pub fn encode(&self) -> Payload {
        Payload::from_vec(bincode::serialize(self).expect("report serializes"))
    }

    pub fn decode(p: &Payload) -> Option<RankReport> {
        bincode::deserialize(p.as_slice()).ok()
    }
}

/// Parameters of one launch, as the app sees them.
#[derive(Clone, Debug)]
pub struct PpParams {
    pub seed: u64,
    pub launch: u64,
    pub scale: f64,
    pub trace: bool,
    pub socket: bool,
}

impl PpParams {
    pub fn plan(&self) -> Vec<Block> {
        plan(self.seed, self.launch, self.scale, self.socket)
    }

    /// The app spec handed to socket rank children.
    pub fn spec(&self) -> String {
        format!(
            "pingpong {} {} {} {}",
            self.seed, self.launch, self.scale, self.trace as u8
        )
    }

    pub fn parse(spec: &str) -> Option<PpParams> {
        let mut it = spec.split_whitespace();
        (it.next()? == "pingpong").then_some(())?;
        Some(PpParams {
            seed: it.next()?.parse().ok()?,
            launch: it.next()?.parse().ok()?,
            scale: it.next()?.parse().ok()?,
            trace: it.next()? == "1",
            socket: true,
        })
    }
}

/// The ping-pong application (both ranks).
pub fn app(p: PpParams) -> impl Fn(&mut NodeMpi, Option<Payload>) -> MpiResult<Payload> {
    move |mpi, _restored| {
        let me = mpi.rank().0;
        let mut rep = RankReport {
            rank: me,
            entry_ns: wall_ns(),
            rtt_ns: vec![Vec::new(); SIZES.len()],
            faults: vec![0; SIZES.len()],
            ..Default::default()
        };
        let mut tr = SpanBuf::new(p.trace, me, 0);
        for (bi, b) in p.plan().iter().enumerate() {
            let mut buf = body(p.seed, p.launch, bi, SIZES[b.size_idx]);
            let mut sum = 0u64;
            let total = b.warmup + b.rounds;
            let faults = minor_faults();
            let start = Instant::now();
            for i in 0..total {
                if me == 0 {
                    if buf.len() >= 8 {
                        buf[..8].copy_from_slice(&(i as u64).to_le_bytes());
                    }
                    let op = tr.next_op();
                    let t0 = Instant::now();
                    let op_start = wall_ns();
                    tr.time(Kind::Send, op, || mpi.send(Rank(1), TAG, &buf))?;
                    let (_, _, echo) = tr.time(Kind::Recv, op, || {
                        mpi.recv(Source::Rank(Rank(1)), Tag::Value(TAG))
                    })?;
                    let rtt = t0.elapsed().as_nanos() as u64;
                    tr.push(Kind::Op, op, op_start, wall_ns());
                    if i >= b.warmup {
                        rep.rtt_ns[b.size_idx].push(rtt);
                    }
                    if echo.as_slice() != buf.as_slice() {
                        rep.bad_echoes += 1;
                    }
                    sum = sum.rotate_left(1) ^ word_sum(&buf);
                } else {
                    let op = tr.next_op();
                    let (_, _, msg) = tr.time(Kind::Recv, op, || {
                        mpi.recv(Source::Rank(Rank(0)), Tag::Value(TAG))
                    })?;
                    tr.time(Kind::Send, op, || mpi.send(Rank(0), TAG, msg.as_slice()))?;
                    sum = sum.rotate_left(1) ^ word_sum(msg.as_slice());
                }
                rep.rounds += 1;
            }
            rep.loop_ns += start.elapsed().as_nanos() as u64;
            rep.faults[b.size_idx] += minor_faults() - faults;
            // Both ranks' checksums meet in one allreduce: rank 0's covers
            // what it sent, rank 1's what it received.
            let op = tr.next_op();
            let mine = if me == 0 { [sum, 0] } else { [0, sum] };
            let both = tr.time(Kind::Allreduce, op, || mpi.allreduce(ReduceOp::Sum, &mine))?;
            if both[0] != both[1] {
                rep.bad_blocks += 1;
            }
            rep.blocks += 1;
            tr.time(Kind::CheckpointSite, op, || mpi.checkpoint_site(&[]))?;
        }
        rep.peak_rss_kb = peak_rss_kb();
        rep.spans = tr.spans;
        Ok(rep.encode())
    }
}

/// Everything a ping-pong run measured, over all its launches.
#[derive(Default)]
pub struct PpRun {
    pub rtt_ns: Vec<Vec<f64>>,
    /// Per size index, each launch's median round trip: the run reports
    /// the median over launches, which a burst of interference from
    /// other guests on the host moves less than a pooled median.
    pub launch_rtt_p50_ns: Vec<Vec<f64>>,
    /// Each launch's round trips per second inside its block loops.
    pub launch_ops: Vec<f64>,
    pub setups_s: Vec<f64>,
    pub rounds: u64,
    pub loop_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Per launch, the peak resident memory of the rank processes: the
    /// launch process's (in-process) or the two rank processes' summed
    /// (socket).
    pub rss_kb: Vec<f64>,
    /// Rank 0's process's minor page faults per size index.
    pub faults: Vec<u64>,
    pub spans: Vec<Span>,
    pub live: LiveStats,
    pub launches: u64,
}

impl PpRun {
    fn new() -> Self {
        PpRun {
            rtt_ns: vec![Vec::new(); SIZES.len()],
            launch_rtt_p50_ns: vec![Vec::new(); SIZES.len()],
            faults: vec![0; SIZES.len()],
            ..Default::default()
        }
    }

    /// Fold one launch's result in, checking its rank reports.
    fn absorb(&mut self, p: &PpParams, launch: LaunchResult) {
        let blocks = p.plan();
        let planned_rounds: u64 = blocks.iter().map(|b| (b.warmup + b.rounds) as u64).sum();
        let planned = planned_rounds + blocks.len() as u64;
        self.attempted += planned;
        self.launches += 1;
        self.live.add(&launch.live);
        let reports = match launch.error {
            Some(e) => Err(e),
            None => launch
                .results
                .iter()
                .map(|x| RankReport::decode(x).ok_or_else(|| "undecodable rank result".to_string()))
                .collect::<Result<Vec<_>, _>>(),
        };
        match reports.and_then(|r| check_launch(&blocks, r)) {
            Ok(mut reps) => {
                self.failed += reps[0].bad_echoes + reps[0].bad_blocks;
                let entry = reps
                    .iter()
                    .map(|r| r.entry_ns)
                    .max()
                    .unwrap_or(launch.launch_ns);
                self.setups_s
                    .push(entry.saturating_sub(launch.launch_ns) as f64 / 1e9);
                self.rounds += reps[0].rounds;
                self.loop_s += reps[0].loop_ns as f64 / 1e9;
                self.rss_kb.push(if p.socket {
                    reps.iter().map(|r| r.peak_rss_kb as f64).sum()
                } else {
                    launch.rss_kb as f64
                });
                self.launch_ops
                    .push(reps[0].rounds as f64 / (reps[0].loop_ns as f64 / 1e9).max(1e-9));
                for (i, v) in reps[0].rtt_ns.iter().enumerate() {
                    let mut launch: Vec<f64> = v.iter().map(|&x| x as f64).collect();
                    self.launch_rtt_p50_ns[i].push(median(&mut launch));
                    self.rtt_ns[i].append(&mut launch);
                    self.faults[i] += reps[0].faults.get(i).copied().unwrap_or(0);
                }
                for r in &mut reps {
                    self.spans.append(&mut r.spans);
                }
            }
            Err(e) => {
                self.failed += planned;
                self.problems.push(format!("launch {}: {e}", p.launch));
            }
        }
    }
}

/// The oracle over one launch's two rank reports: the round and block
/// counts must match the plan on both ranks, and every echo and block
/// checksum must agree (failures are counted, not rejected, here).
pub fn check_launch(blocks: &[Block], reps: Vec<RankReport>) -> Result<Vec<RankReport>, String> {
    if reps.len() != 2 {
        return Err(format!("{} rank results, want 2", reps.len()));
    }
    let rounds: u64 = blocks.iter().map(|b| (b.warmup + b.rounds) as u64).sum();
    for r in &reps {
        if r.rounds != rounds || r.blocks != blocks.len() as u64 {
            return Err(format!(
                "rank {} did {} rounds in {} blocks, plan has {rounds} in {}",
                r.rank,
                r.rounds,
                r.blocks,
                blocks.len()
            ));
        }
    }
    for (i, v) in reps[0].rtt_ns.iter().enumerate() {
        let want: u64 = blocks
            .iter()
            .filter(|b| b.size_idx == i)
            .map(|b| b.rounds as u64)
            .sum();
        if v.len() as u64 != want {
            return Err(format!(
                "{} samples of size {}, want {want}",
                v.len(),
                SIZES[i]
            ));
        }
    }
    Ok(reps)
}

/// Which backend and protocol a ping-pong run uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    InProcess(RuntimeProtocol),
    Socket,
}

/// What one launch returns to the run.
#[derive(Default, Serialize, Deserialize)]
pub struct LaunchResult {
    pub launch_ns: u64,
    /// The ranks' result payloads, unless the launch failed.
    pub results: Vec<Payload>,
    pub error: Option<String>,
    pub live: LiveStats,
    /// Peak resident memory of the launch process (in-process backend).
    pub rss_kb: u64,
}

/// Run one launch in this process.
pub fn launch(backend: Backend, p: &PpParams, obs_dir: &Path) -> LaunchResult {
    let mut out = LaunchResult {
        launch_ns: wall_ns(),
        ..Default::default()
    };
    let results = match backend {
        Backend::InProcess(protocol) => {
            let cfg = ClusterConfig {
                world: 2,
                protocol,
                checkpointing: None,
                obs: RecorderConfig {
                    enabled: p.trace,
                    ..RecorderConfig::default()
                },
                ..ClusterConfig::default()
            };
            Cluster::launch(cfg, app(p.clone()))
                .wait_report(LAUNCH_TIMEOUT)
                .map(|r| {
                    out.live.add_report(&r);
                    r.results
                })
                .map_err(|e| e.to_string())
        }
        Backend::Socket => {
            let mut opts = ProcOptions::new(2, p.spec());
            opts.checkpointing = None;
            opts.monitor = false;
            opts.timeout = LAUNCH_TIMEOUT;
            let dir = obs_dir.join(format!("launch{}", p.launch));
            if p.trace {
                opts.obs_dir = Some(dir.clone());
            }
            let r = run_proc(opts)
                .map(|r| {
                    out.live.add_proc_report(&r);
                    r.results
                })
                .map_err(|e| e.to_string());
            let _ = std::fs::remove_dir_all(&dir);
            r
        }
    };
    match results {
        Ok(r) => out.results = r,
        Err(e) => out.error = Some(e),
    }
    out.rss_kb = peak_rss_kb();
    out
}

const LAUNCH_TIMEOUT: Duration = Duration::from_secs(60);

/// The `--launch` arguments of launch `p` of an in-process ping-pong.
pub fn launch_args(protocol: RuntimeProtocol, p: &PpParams) -> Vec<String> {
    let proto = if protocol == RuntimeProtocol::P4 {
        "p4"
    } else {
        "v2"
    };
    let mut args = vec!["pingpong".to_string(), proto.to_string()];
    args.extend(p.spec().split_whitespace().skip(1).map(str::to_string));
    args
}

/// Child side of [`launch_args`].
pub fn launch_from_args(args: &[String]) -> Option<LaunchResult> {
    let protocol = match args.get(1)?.as_str() {
        "p4" => RuntimeProtocol::P4,
        "v2" => RuntimeProtocol::V2,
        _ => return None,
    };
    let mut p = PpParams::parse(&format!("pingpong {}", args[2..].join(" ")))?;
    p.socket = false;
    Some(launch(Backend::InProcess(protocol), &p, Path::new(".")))
}

/// Run launches until `seconds` have passed (at least `min_launches`):
/// in-process ones each in a fresh process, socket ones from here (their
/// ranks are fresh processes anyway).
pub fn run(
    backend: Backend,
    seed: u64,
    seconds: f64,
    min_launches: u64,
    scale: f64,
    trace: bool,
    obs_dir: &Path,
) -> PpRun {
    let mut out = PpRun::new();
    let start = Instant::now();
    let mut launch_no = 0u64;
    while launch_no < min_launches || start.elapsed().as_secs_f64() < seconds {
        let p = PpParams {
            seed,
            launch: launch_no,
            scale,
            trace,
            socket: backend == Backend::Socket,
        };
        let result = match backend {
            Backend::InProcess(protocol) => crate::child::launch(&launch_args(protocol, &p))
                .unwrap_or_else(|e| LaunchResult {
                    error: Some(e),
                    ..Default::default()
                }),
            Backend::Socket => launch(backend, &p, obs_dir),
        };
        out.absorb(&p, result);
        launch_no += 1;
    }
    out
}

/// Child-side app resolution for the socket backend.
pub fn child_app(spec: &str) -> Option<Arc<dyn mvr_runtime::MpiApp>> {
    PpParams::parse(spec).map(|p| Arc::new(app(p)) as Arc<dyn mvr_runtime::MpiApp>)
}

/// The spans directory's socket sub-directory for one seed.
pub fn socket_obs_dir(out_dir: &std::path::Path, seed: u64) -> PathBuf {
    out_dir.join(format!("socket_obs_seed{seed}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> PpParams {
        PpParams {
            seed: 9,
            launch: 0,
            scale: 0.01,
            trace: false,
            socket: false,
        }
    }

    /// Reports as a correct launch of `p` would produce them.
    fn honest(p: &PpParams) -> Vec<RankReport> {
        let blocks = p.plan();
        let rounds: u64 = blocks.iter().map(|b| (b.warmup + b.rounds) as u64).sum();
        (0..2)
            .map(|rank| {
                let mut rtt_ns = vec![Vec::new(); SIZES.len()];
                if rank == 0 {
                    for b in &blocks {
                        rtt_ns[b.size_idx].extend((0..b.rounds).map(|i| 1000 + i as u64));
                    }
                }
                RankReport {
                    rank,
                    entry_ns: 1,
                    rounds,
                    blocks: blocks.len() as u64,
                    loop_ns: 1_000_000,
                    rtt_ns,
                    faults: vec![0; SIZES.len()],
                    ..Default::default()
                }
            })
            .collect()
    }

    fn result(results: Vec<Payload>) -> LaunchResult {
        LaunchResult {
            results,
            ..Default::default()
        }
    }

    fn absorb(reps: Vec<RankReport>) -> PpRun {
        let p = params();
        let mut run = PpRun::new();
        run.absorb(&p, result(reps.iter().map(RankReport::encode).collect()));
        run
    }

    #[test]
    fn plan_is_seeded_and_covers_every_size_twice() {
        let a = plan(5, 2, 1.0, false);
        assert_eq!(a.len(), 2 * SIZES.len());
        for i in 0..SIZES.len() {
            assert_eq!(a.iter().filter(|b| b.size_idx == i).count(), 2);
        }
        let order = |v: &[Block]| v.iter().map(|b| b.size_idx).collect::<Vec<_>>();
        assert_eq!(order(&a), order(&plan(5, 2, 1.0, false)));
        assert!((0..20).any(|s| order(&plan(s, 2, 1.0, false)) != order(&a)));
    }

    #[test]
    fn an_honest_launch_counts_no_failure() {
        let run = absorb(honest(&params()));
        assert_eq!(run.failed, 0);
        assert!(run.problems.is_empty());
        assert!(run.attempted > 0);
    }

    #[test]
    fn corrupted_echoes_and_checksums_are_counted() {
        let mut reps = honest(&params());
        reps[0].bad_echoes = 3;
        reps[0].bad_blocks = 1;
        assert_eq!(absorb(reps).failed, 4);
    }

    #[test]
    fn a_short_or_garbled_launch_fails_all_its_operations() {
        let p = params();
        let mut short = honest(&p);
        short[1].rounds -= 1;
        let run = absorb(short);
        assert_eq!(run.failed, run.attempted);
        assert_eq!(run.problems.len(), 1);

        let mut missing = honest(&p);
        missing[0].rtt_ns[0].pop();
        assert_eq!(absorb(missing).failed, run.attempted);

        let mut garbled = PpRun::new();
        garbled.absorb(&p, result(vec![Payload::from_vec(vec![1, 2, 3]); 2]));
        assert_eq!(garbled.failed, garbled.attempted);

        let mut lost = PpRun::new();
        lost.absorb(
            &p,
            LaunchResult {
                error: Some("timed out".into()),
                ..Default::default()
            },
        );
        assert_eq!(lost.failed, lost.attempted);
    }
}
