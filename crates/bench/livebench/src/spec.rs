//! The benchmark's single source of truth for workload and metric names:
//! the run prints exactly these metrics, and `--emit-spec` writes them to
//! `BENCHMARK.json`.

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 50;

/// `(name, why)` of every workload.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "pingpong_v2",
        "in-process V2 ping-pong at 0 B, 64 KiB, 1 MiB: codec, handoff, V2Engine, fabric, EL ack and gate on every round trip",
    ),
    (
        "cg_faults_v2",
        "in-process V2 CG with seeded kills: the only path through checkpoint upload, sender-log GC, two-way EL batching and recovery",
    ),
];

/// Workloads the command runs but `BENCHMARK.json` does not list, with
/// the reason. The P4 ping-pong's 1 MiB round trip is bound by page-fault
/// churn whose cost follows the other tenants' load, so its run-to-run
/// spread reaches its bound (README.md, "The P4 workload"). The socket
/// ping-pong hangs in about one launch in 170 (README.md, "The socket
/// workload"); a gated workload must not fail operations.
pub const UNGATED_WORKLOADS: &[(&str, &str)] = &[
    (
        "pingpong_p4",
        "same ping-pong code and seed under P4: codec, handoff and fabric without EL, gate or sender log; logging changes must not move it",
    ),
    (
        "pingpong_v2_socket",
        "V2 ping-pong with ranks, EL and CS as OS processes on loopback TCP: the only path through net::tcp, framing and the gateway",
    ),
];

/// End-to-end metrics, measured with the recorder and the spans off.
/// Every workload reports every one of them; README.md gives the
/// per-workload definition of each. The bounds are the widest allowed:
/// on the shared 2-vCPU host this was built on, runs minutes apart differ
/// by 5-20 % (README.md, "Steadiness").
pub const END_TO_END: &[Metric] = &[
    e2e("small_op_us", "us", "lower", 0.25),
    e2e("large_op_us", "us", "lower", 0.25),
    e2e("bulk_op_ms", "ms", "lower", 0.25),
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.2),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Per-layer metrics of the traced run. Every workload reports every one
/// of them; the workload-specific extras (gate wait, EL ack RTT,
/// checkpoint upload, respawn, replay) are printed above the result line.
pub const PER_LAYER: &[Metric] = &[
    layer("mpi.encode_ns.0b", "ns", "lower"),
    layer("mpi.encode_ns.64k", "ns", "lower"),
    layer("mpi.decode_ns.0b", "ns", "lower"),
    layer("mpi.decode_ns.64k", "ns", "lower"),
    layer("mpi.send_us_p50", "us", "lower"),
    layer("mpi.recv_us_p50", "us", "lower"),
    layer("mpi.allreduce_us_p50", "us", "lower"),
    layer("mpi.checkpoint_site_us_p50", "us", "lower"),
    layer("mpi.roundtrip_p99_us", "us", "lower"),
    layer("core.step_ns", "ns", "lower"),
    layer("core.inputs_per_msg", "count", "lower"),
    layer("core.gate_deferred_ratio", "ratio", "lower"),
    layer("core.el_events_per_batch", "count", "higher"),
    layer("net.handoff_us", "us", "lower"),
    layer("net.handoffs_per_msg", "count", "lower"),
    layer("net.mailbox_ns", "ns", "lower"),
    layer("net.frame_encode_ns.64k", "ns", "lower"),
    layer("net.frame_decode_ns.64k", "ns", "lower"),
    layer("net.tcp_oneway_us.0b", "us", "lower"),
    layer("eventlog.store_append_ns", "ns", "lower"),
    layer("eventlog.requests_per_msg", "count", "lower"),
    layer("ckpt.store_put_us", "us", "lower"),
    layer("ckpt.checkpoints", "count", "lower"),
    layer("ckpt.image_kb", "KiB", "lower"),
    layer("runtime.restarts", "count", "lower"),
    layer("runtime.replayed_deliveries", "count", "lower"),
    layer("runtime.retransmissions", "count", "lower"),
    layer("runtime.duplicates_dropped", "count", "lower"),
    layer("obs.recorder_overhead_pct", "%", "lower"),
    layer("unattributed_pct", "%", "lower"),
];

/// The benchmark command, run from the repository root.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "crates/bench/livebench/Cargo.toml",
    "--",
];

/// Directories holding the benchmark.
pub const PATHS: &[&str] = &["crates/bench/livebench"];

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_list(items: impl Iterator<Item = String>, indent: &str) -> String {
    let items: Vec<String> = items.collect();
    format!(
        "[\n{indent}  {}\n{indent}]",
        items.join(&format!(",\n{indent}  "))
    )
}

fn metric_json(m: &Metric) -> String {
    let mut s = format!(
        "{{\"name\": {}, \"unit\": {}, \"better\": {}",
        json_str(m.name),
        json_str(m.unit),
        json_str(m.better)
    );
    if let Some(b) = m.bound {
        s.push_str(&format!(", \"bound\": {b}"));
    }
    s.push('}');
    s
}

/// `BENCHMARK.json`, rendered from the tables above.
pub fn render() -> String {
    let command = format!(
        "[{}]",
        COMMAND
            .iter()
            .map(|s| json_str(s))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let paths = format!(
        "[{}]",
        PATHS
            .iter()
            .map(|s| json_str(s))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let workloads = json_list(
        WORKLOADS
            .iter()
            .map(|(n, w)| format!("{{\"name\": {}, \"why\": {}}}", json_str(n), json_str(w))),
        "  ",
    );
    format!(
        "{{\n  \"command\": {command},\n  \"paths\": {paths},\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {workloads},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        json_list(END_TO_END.iter().map(metric_json), "  "),
        json_list(PER_LAYER.iter().map(metric_json), "  "),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_units_and_bounds_are_well_formed() {
        let mut seen = std::collections::HashSet::new();
        for (n, why) in WORKLOADS.iter().chain(UNGATED_WORKLOADS) {
            assert!(valid_name(n) && seen.insert(*n), "{n}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{n}");
        }
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(m.name) && seen.insert(m.name), "{}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in END_TO_END {
            let b = m.bound.expect("end-to-end metrics carry a bound");
            assert!(b > 0.0 && b <= 0.25, "{}", m.name);
        }
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn committed_benchmark_json_matches_the_tables() {
        let committed = include_str!("../../../../BENCHMARK.json");
        assert_eq!(
            committed,
            render(),
            "run `livebench --emit-spec` to refresh"
        );
    }
}
