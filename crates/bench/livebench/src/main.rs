//! `livebench`: the end-to-end benchmark of the live MPICH-V2 runtime.
//!
//! ```text
//! livebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! livebench --smoke              # every workload, briefly, checked
//! livebench --emit-spec <path>   # write BENCHMARK.json from src/spec.rs
//! ```
//!
//! Prints every metric by name with its unit, then, as the last line, one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`: the
//! end-to-end metrics with `--trace 0`, the per-layer ones with
//! `--trace 1`. See README.md for the workloads and the metric map.

mod cg;
mod child;
mod layers;
mod live;
mod pingpong;
mod spec;
mod stats;
mod trace;

use mvr_runtime::RuntimeProtocol;
use pingpong::Backend;
use stats::{median, quantile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where traced runs leave their spans (ignored by git).
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Clone, Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, spec::RUN_SECONDS as f64, false);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            f => return Err(format!("unknown argument {f}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !spec::WORKLOADS
        .iter()
        .chain(spec::UNGATED_WORKLOADS)
        .any(|(n, _)| *n == workload)
    {
        return Err(format!("unknown workload {workload}"));
    }
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Median over launches: the aggregate of per-launch medians.
fn median_of(v: &[f64]) -> f64 {
    median(&mut v.to_vec())
}

/// Mean over launches: the aggregate for peak memory, which takes one of
/// a few values per launch depending on its seeded block order, so a
/// median would flip between them from run to run.
fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

/// Metric name → value, in the spec's units.
type Metrics = BTreeMap<&'static str, f64>;

/// One workload phase's end-to-end view, shared by the untraced and the
/// traced phase.
struct Phase {
    e2e: Metrics,
    /// Lines naming the paper-facing metrics this workload reports.
    aliases: Vec<(String, f64, &'static str)>,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    /// Per-layer values observed live (spans and run reports).
    live: Metrics,
    /// Printed only: layer metrics this workload alone has.
    extras: Vec<(String, f64, &'static str)>,
    spans: Vec<trace::Span>,
    /// Live per-message counts for the attribution.
    handoffs_per_msg: f64,
    gate_deferred_ratio: f64,
}

fn pp_phase(backend: Backend, a: &Args, seconds: f64, scale: f64, trace: bool) -> Phase {
    let obs = pingpong::socket_obs_dir(&out_dir(), a.seed);
    let r = pingpong::run(backend, a.seed, seconds, 2, scale, trace, &obs);
    let _ = std::fs::remove_dir_all(&obs);
    let mut rtt = r.rtt_ns.clone();
    // Gated: the median over launches of each launch's median half round
    // trip and of its throughput. Printed: plain medians of all samples.
    let half_us = |i: usize| median_of(&r.launch_rtt_p50_ns[i]) / 2.0 / 1e3;
    let small = half_us(0);
    let large = half_us(1);
    let bulk_ms = half_us(2) / 1e3;
    let ops = median_of(&r.launch_ops);
    let p50_half_us = |i: usize| median(&mut rtt[i].clone()) / 2.0 / 1e3;
    let (p50_0b, p50_64k, p50_1m_ms) = (p50_half_us(0), p50_half_us(1), p50_half_us(2) / 1e3);
    let all_rounds_per_s = r.rounds as f64 / r.loop_s.max(1e-9);
    let rss_kb = mean(&r.rss_kb);
    let setup = median(&mut r.setups_s.clone());
    let mut e2e = Metrics::new();
    e2e.insert("small_op_us", small);
    e2e.insert("large_op_us", large);
    e2e.insert("bulk_op_ms", bulk_ms);
    e2e.insert("ops_per_s", ops);
    e2e.insert("peak_rss_mb", rss_kb / 1024.0);
    e2e.insert("setup_s", setup);
    let error_rate = r.failed as f64 / r.attempted.max(1) as f64;
    let aliases = vec![
        ("latency_0b_p50_us".into(), p50_0b, "us"),
        ("latency_64k_p50_us".into(), p50_64k, "us"),
        (
            "bandwidth_1m_mb_s".into(),
            (1u64 << 20) as f64 / (p50_1m_ms / 1e3) / 1e6,
            "MB/s",
        ),
        ("roundtrips_per_s".into(), all_rounds_per_s, "1/s"),
        ("error_rate".into(), error_rate, "ratio"),
        ("launches".into(), r.launches as f64, "count"),
        ("samples_0b".into(), r.rtt_ns[0].len() as f64, "count"),
        ("samples_64k".into(), r.rtt_ns[1].len() as f64, "count"),
        ("samples_1m".into(), r.rtt_ns[2].len() as f64, "count"),
        (
            "minor_faults_per_64k_roundtrip".into(),
            r.faults[1] as f64 / r.rtt_ns[1].len().max(1) as f64,
            "count",
        ),
        (
            "minor_faults_per_1m_roundtrip".into(),
            r.faults[2] as f64 / r.rtt_ns[2].len().max(1) as f64,
            "count",
        ),
    ];
    let mut live = Metrics::new();
    live.insert(
        "mpi.send_us_p50",
        trace::p50_us(&r.spans, trace::Kind::Send),
    );
    live.insert(
        "mpi.recv_us_p50",
        trace::p50_us(&r.spans, trace::Kind::Recv),
    );
    live.insert(
        "mpi.allreduce_us_p50",
        trace::p50_us(&r.spans, trace::Kind::Allreduce),
    );
    live.insert(
        "mpi.checkpoint_site_us_p50",
        trace::p50_us(&r.spans, trace::Kind::CheckpointSite),
    );
    live.insert("mpi.roundtrip_p99_us", quantile(&mut rtt[0], 0.99) / 1e3);
    let launches = r.launches.max(1) as f64;
    add_live_counts(&mut live, &r.live, launches);
    let mut extras = Vec::new();
    if backend != Backend::InProcess(RuntimeProtocol::P4) {
        match backend {
            Backend::Socket => {
                extras.push((
                    "core.gate_wait_mean_us".into(),
                    r.live.gate_wait_mean_us(),
                    "us",
                ));
                extras.push((
                    "eventlog.ack_rtt_mean_us".into(),
                    r.live.el_ack_rtt_mean_us(),
                    "us",
                ));
            }
            _ => {
                let t = &r.live.timings;
                extras.push((
                    "core.gate_wait_p50_us".into(),
                    t.gate_wait.quantile(0.5) as f64 / 1e3,
                    "us",
                ));
                extras.push((
                    "eventlog.ack_rtt_p50_us".into(),
                    t.el_ack_rtt.quantile(0.5) as f64 / 1e3,
                    "us",
                ));
            }
        }
    }
    Phase {
        e2e,
        aliases,
        attempted: r.attempted,
        failed: r.failed,
        problems: r.problems,
        live,
        extras,
        spans: r.spans,
        handoffs_per_msg: r.live.handoffs_per_msg(),
        gate_deferred_ratio: r.live.gate_deferred_ratio(),
    }
}

fn add_live_counts(live: &mut Metrics, l: &live::LiveStats, launches: f64) {
    live.insert("core.gate_deferred_ratio", l.gate_deferred_ratio());
    live.insert("core.el_events_per_batch", l.el_events_per_batch());
    live.insert("net.handoffs_per_msg", l.handoffs_per_msg());
    live.insert("eventlog.requests_per_msg", l.el_requests_per_msg());
    live.insert("ckpt.checkpoints", l.m.checkpoints_taken as f64 / launches);
    live.insert("runtime.restarts", l.restarts as f64 / launches);
    live.insert(
        "runtime.replayed_deliveries",
        l.replayed_deliveries as f64 / launches,
    );
    live.insert(
        "runtime.retransmissions",
        l.retransmissions as f64 / launches,
    );
    live.insert(
        "runtime.duplicates_dropped",
        l.duplicates_dropped as f64 / launches,
    );
}

fn cg_phase(a: &Args, seconds: f64, iters: u32, trace: bool) -> Phase {
    let r = cg::run(a.seed, seconds, cg::MIN_LAUNCHES, iters, trace);
    let mut s = r.samples;
    // Gated as for the ping-pongs: medians over the launches' medians.
    let small = median_of(&r.launch_allreduce_p50) / 1e3;
    let large = median_of(&r.launch_iteration_p50) / 1e3;
    // A launch has too few kills for a median of its own: the recovery
    // is the median over every kill of the run.
    let recovery = median(&mut r.recoveries_ms.clone());
    let ops = median_of(&r.launch_ops);
    let setup = median(&mut r.setups_s.clone());
    let mut e2e = Metrics::new();
    e2e.insert("small_op_us", small);
    e2e.insert("large_op_us", large);
    e2e.insert("bulk_op_ms", recovery);
    e2e.insert("ops_per_s", ops);
    e2e.insert("peak_rss_mb", mean(&r.rss_kb) / 1024.0);
    e2e.insert("setup_s", setup);
    let aliases = vec![
        (
            "cg_iters_per_s".into(),
            r.iterations as f64 / r.solve_s.max(1e-9),
            "1/s",
        ),
        ("recovery_p50_ms".into(), recovery, "ms"),
        (
            "allreduce_p50_us".into(),
            median(&mut s.allreduce) / 1e3,
            "us",
        ),
        (
            "iteration_p50_us".into(),
            median(&mut s.iteration) / 1e3,
            "us",
        ),
        (
            "error_rate".into(),
            r.failed as f64 / r.attempted.max(1) as f64,
            "ratio",
        ),
        ("kills".into(), r.kills as f64, "count"),
        ("restarts".into(), r.live.restarts as f64, "count"),
        (
            "recoveries_timed".into(),
            r.recoveries_ms.len() as f64,
            "count",
        ),
        ("launches".into(), r.launches as f64, "count"),
    ];
    let mut problems = r.problems;
    if r.recoveries_ms.len() as u64 != r.kills && problems.is_empty() {
        problems.push(format!(
            "{} of {} recoveries observed",
            r.recoveries_ms.len(),
            r.kills
        ));
    }
    let mut live = Metrics::new();
    live.insert(
        "mpi.send_us_p50",
        trace::p50_us(&s.spans, trace::Kind::Isend),
    );
    live.insert(
        "mpi.recv_us_p50",
        trace::p50_us(&s.spans, trace::Kind::Recv),
    );
    live.insert(
        "mpi.allreduce_us_p50",
        trace::p50_us(&s.spans, trace::Kind::Allreduce),
    );
    live.insert(
        "mpi.checkpoint_site_us_p50",
        trace::p50_us(&s.spans, trace::Kind::CheckpointSite),
    );
    live.insert(
        "mpi.roundtrip_p99_us",
        quantile(&mut s.allreduce, 0.99) / 1e3,
    );
    add_live_counts(&mut live, &r.live, r.launches.max(1) as f64);
    let t = &r.live.timings;
    let extras = vec![
        (
            "core.gate_wait_p50_us".into(),
            t.gate_wait.quantile(0.5) as f64 / 1e3,
            "us",
        ),
        (
            "eventlog.ack_rtt_p50_us".into(),
            t.el_ack_rtt.quantile(0.5) as f64 / 1e3,
            "us",
        ),
        (
            "ckpt.upload_p50_ms".into(),
            t.ckpt_store.quantile(0.5) as f64 / 1e6,
            "ms",
        ),
        (
            "runtime.respawn_ms".into(),
            median(&mut r.respawns_ms.clone()),
            "ms",
        ),
        (
            "runtime.replay_p50_ms".into(),
            t.replay.quantile(0.5) as f64 / 1e6,
            "ms",
        ),
    ];
    Phase {
        e2e,
        aliases,
        attempted: r.attempted,
        failed: r.failed + problems.len() as u64 * u64::from(r.failed == 0),
        problems,
        live,
        extras,
        spans: s.spans,
        handoffs_per_msg: r.live.handoffs_per_msg(),
        gate_deferred_ratio: r.live.gate_deferred_ratio(),
    }
}

/// Run one phase of `workload`. `scale` shrinks the per-launch work of
/// smoke runs.
fn phase(a: &Args, seconds: f64, scale: f64, trace: bool) -> Phase {
    match a.workload.as_str() {
        "pingpong_v2" => pp_phase(
            Backend::InProcess(RuntimeProtocol::V2),
            a,
            seconds,
            scale,
            trace,
        ),
        "pingpong_p4" => pp_phase(
            Backend::InProcess(RuntimeProtocol::P4),
            a,
            seconds,
            scale,
            trace,
        ),
        "pingpong_v2_socket" => pp_phase(Backend::Socket, a, seconds, scale, trace),
        "cg_faults_v2" => cg_phase(
            a,
            seconds,
            ((cg::ITERS as f64 * scale) as u32).max(200),
            trace,
        ),
        w => unreachable!("workload {w} was validated"),
    }
}

/// The attribution model: the workload's small operation as a sum of
/// standalone layer costs times live per-message counts. Returns the
/// terms in µs.
fn attribution(workload: &str, c: &layers::LayerCosts, p: &Phase) -> Vec<(&'static str, f64)> {
    let v2 = workload != "pingpong_p4";
    // The EL round trip is on the critical path only when the reply
    // queued behind the closed gate.
    let deferred = p.gate_deferred_ratio;
    let mut one_way = vec![
        ("mpi.codec", (c.mpi_encode_ns[0] + c.mpi_decode_ns[0]) / 1e3),
        (
            "core.step",
            if v2 {
                c.core_step_ns * c.core_inputs_per_msg / 1e3
            } else {
                0.0
            },
        ),
        ("eventlog.store", c.el_store_append_ns * deferred / 1e3),
    ];
    if workload == "pingpong_v2_socket" {
        // In a rank process the app and its daemon still cross mailboxes;
        // the peer rank and the EL are one TCP hop away.
        one_way.push(("net.handoff", c.net_handoff_us * 2.0));
        one_way.push(("net.tcp", c.net_tcp_oneway_us_0b * (1.0 + 2.0 * deferred)));
    } else {
        one_way.push(("net.handoff", c.net_handoff_us * p.handoffs_per_msg));
    }
    // At world 2 an allreduce is a reduce to rank 0 and a broadcast back:
    // two one-way messages in sequence.
    let hops = if workload == "cg_faults_v2" { 2.0 } else { 1.0 };
    one_way.into_iter().map(|(n, us)| (n, us * hops)).collect()
}

fn json_result(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Order `values` by the spec list, insisting every listed metric is
/// computed. A metric left without samples by failed launches is not a
/// number; it is reported as 0 and counted as a failure, so the result
/// line stays valid JSON.
fn by_spec<'a>(list: &'a [spec::Metric], values: &Metrics) -> (Vec<(&'a str, f64, &'a str)>, u64) {
    let mut unmeasured = 0;
    let metrics = list
        .iter()
        .map(|m| {
            let v = *values
                .get(m.name)
                .unwrap_or_else(|| panic!("metric {} was not computed", m.name));
            if !v.is_finite() {
                println!("CHECK FAILED: metric {} is {v}", m.name);
                unmeasured += 1;
            }
            (m.name, if v.is_finite() { v } else { 0.0 }, m.unit)
        })
        .collect();
    (metrics, unmeasured)
}

fn print_lines(title: &str, lines: &[(String, f64, &str)]) {
    for (n, v, u) in lines {
        println!("{title}{n:<32} {v:>14.4} {u}");
    }
}

fn report_problems(p: &Phase) {
    for e in &p.problems {
        println!("CHECK FAILED: {e}");
    }
}

fn run(a: &Args) -> (bool, u64, u64, Vec<(&'static str, f64, &'static str)>) {
    println!(
        "livebench: workload={} seed={} seconds={} trace={} cores={}",
        a.workload,
        a.seed,
        a.seconds,
        a.trace as u8,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );
    if !a.trace {
        let p = phase(a, a.seconds, 1.0, false);
        report_problems(&p);
        print_lines("", &p.aliases);
        let (metrics, unmeasured) = by_spec(spec::END_TO_END, &p.e2e);
        for (n, v, u) in &metrics {
            println!("{n:<32} {v:>14.4} {u}");
        }
        let failed = p.failed + unmeasured;
        let ok = failed == 0 && p.problems.is_empty();
        return (ok, p.attempted, failed, metrics);
    }
    // Traced run: an untraced phase (the baseline for the recorder's
    // overhead and the attribution), a traced phase with the recorder and
    // the spans on, and the standalone layer harness.
    let untraced = phase(a, a.seconds * 0.4, 1.0, false);
    let traced = phase(a, a.seconds * 0.4, 1.0, true);
    report_problems(&untraced);
    report_problems(&traced);
    let costs = layers::measure();
    let mut m = traced.live.clone();
    let mut problems = Vec::new();
    match &costs {
        Ok(c) => {
            m.insert("mpi.encode_ns.0b", c.mpi_encode_ns[0]);
            m.insert("mpi.encode_ns.64k", c.mpi_encode_ns[1]);
            m.insert("mpi.decode_ns.0b", c.mpi_decode_ns[0]);
            m.insert("mpi.decode_ns.64k", c.mpi_decode_ns[1]);
            m.insert("core.step_ns", c.core_step_ns);
            m.insert("core.inputs_per_msg", c.core_inputs_per_msg);
            m.insert("net.handoff_us", c.net_handoff_us);
            m.insert("net.mailbox_ns", c.net_mailbox_ns);
            m.insert("net.frame_encode_ns.64k", c.net_frame_encode_ns_64k);
            m.insert("net.frame_decode_ns.64k", c.net_frame_decode_ns_64k);
            m.insert("net.tcp_oneway_us.0b", c.net_tcp_oneway_us_0b);
            m.insert("eventlog.store_append_ns", c.el_store_append_ns);
            m.insert("ckpt.store_put_us", c.ckpt_store_put_us);
            m.insert("ckpt.image_kb", c.ckpt_image_bytes as f64 / 1024.0);
            println!(
                "app.cg_state_bincode_us          {:>14.4} us",
                c.app_state_serialize_us
            );
            let terms = attribution(&a.workload, c, &untraced);
            let e2e = untraced.e2e["small_op_us"];
            let sum: f64 = terms.iter().map(|(_, us)| us).sum();
            for (n, us) in &terms {
                println!("attribution.{n:<20} {us:>14.4} us");
            }
            println!("attribution.total_modelled     {sum:>14.4} us of {e2e:.4} us");
            m.insert("unattributed_pct", (e2e - sum) / e2e * 100.0);
        }
        Err(e) => problems.push(format!("layer harness: {e}")),
    }
    // The recorder's cost on the workload's headline latency: the small
    // op for the ping-pongs, the iteration for CG.
    let key = if a.workload == "cg_faults_v2" {
        "large_op_us"
    } else {
        "small_op_us"
    };
    m.insert(
        "obs.recorder_overhead_pct",
        (traced.e2e[key] / untraced.e2e[key] - 1.0) * 100.0,
    );
    print_lines("", &traced.extras);
    let spans_path = out_dir().join(format!("spans_{}_seed{}.jsonl", a.workload, a.seed));
    match trace::write_jsonl(&spans_path, &traced.spans) {
        Ok(()) => println!(
            "spans: {} written to {}",
            traced.spans.len(),
            spans_path.display()
        ),
        Err(e) => problems.push(format!("writing spans: {e}")),
    }
    for e in &problems {
        println!("CHECK FAILED: {e}");
    }
    let (metrics, unmeasured) = by_spec(spec::PER_LAYER, &m);
    for (n, v, u) in &metrics {
        println!("{n:<32} {v:>14.4} {u}");
    }
    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed + problems.len() as u64 + unmeasured;
    let ok = failed == 0 && untraced.problems.is_empty() && traced.problems.is_empty();
    (ok, attempted, failed, metrics)
}

/// Every workload, briefly, untraced and traced: a check that the whole
/// benchmark works, not a measurement.
fn smoke() -> bool {
    let mut all_ok = true;
    for (w, _) in spec::WORKLOADS.iter().chain(spec::UNGATED_WORKLOADS) {
        for trace in [false, true] {
            let a = Args {
                workload: w.to_string(),
                seed: 1,
                seconds: 0.5,
                trace,
            };
            let p = phase(&a, a.seconds, 0.1, trace);
            report_problems(&p);
            let ok = p.failed == 0 && p.problems.is_empty();
            all_ok &= ok;
            println!(
                "smoke {w:<20} trace={} {} ({} attempted, {} failed, small_op {:.1} us)",
                trace as u8,
                if ok { "ok" } else { "FAILED" },
                p.attempted,
                p.failed,
                p.e2e["small_op_us"]
            );
        }
    }
    match layers::measure() {
        Ok(_) => println!("smoke layer harness ok"),
        Err(e) => {
            println!("smoke layer harness FAILED: {e}");
            all_ok = false;
        }
    }
    all_ok
}

fn main() -> ExitCode {
    // Socket-backend children re-enter here and never return.
    if mvr_runtime::proc::maybe_run_child(&pingpong::child_app) {
        return ExitCode::SUCCESS;
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some(child::FLAG) => {
            let args = &argv[1..];
            let done = match args.first().map(String::as_str) {
                Some("pingpong") => pingpong::launch_from_args(args).map(|r| child::reply(&r)),
                Some("cg") => cg::launch_from_args(args).map(|r| child::reply(&r)),
                _ => None,
            };
            return if done.is_some() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            };
        }
        Some("--smoke") => {
            return if smoke() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            };
        }
        Some("--emit-spec") => {
            let path = argv
                .get(1)
                .map(PathBuf::from)
                .unwrap_or_else(|| "BENCHMARK.json".into());
            return match std::fs::write(&path, spec::render()) {
                Ok(()) => {
                    println!("wrote {}", path.display());
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("livebench: {}: {e}", path.display());
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("livebench: {e}");
            return ExitCode::from(2);
        }
    };
    let (busy0, steal0) = stats::cpu_jiffies();
    let (correct, attempted, failed, metrics) = run(&args);
    let (busy1, steal1) = stats::cpu_jiffies();
    // Diagnostic: how much CPU the hypervisor gave to other guests while
    // this run measured (run-to-run spread follows it).
    println!(
        "host_steal_pct                   {:>14.4} %",
        (steal1 - steal0) as f64 * 100.0 / ((busy1 - busy0) + (steal1 - steal0)).max(1) as f64
    );
    println!(
        "{}",
        json_result(correct, attempted.max(1), failed, &metrics)
    );
    ExitCode::SUCCESS
}
