//! Protocol counters and timings gathered from the runtime's own run
//! reports (`RunReport` in-process, `ProcReport` over sockets).

use mvr_core::Metrics;
use mvr_obs::ProtocolTimings;
use mvr_runtime::proc::ProcReport;
use mvr_runtime::RunReport;
use serde::{Deserialize, Serialize};

#[derive(Default, Serialize, Deserialize)]
pub struct LiveStats {
    /// Engine counters summed over ranks and launches.
    pub m: Metrics,
    /// In-process only: `ProcReport` carries no histograms.
    pub timings: ProtocolTimings,
    pub restarts: u64,
    pub replayed_deliveries: u64,
    pub retransmissions: u64,
    pub duplicates_dropped: u64,
}

fn add_metrics(acc: &mut Metrics, m: &Metrics) {
    acc.msgs_sent += m.msgs_sent;
    acc.msgs_delivered += m.msgs_delivered;
    acc.gate_deferred_sends += m.gate_deferred_sends;
    acc.gate_wait_ns += m.gate_wait_ns;
    acc.el_batches_sent += m.el_batches_sent;
    acc.el_events_batched += m.el_events_batched;
    acc.el_batches_acked += m.el_batches_acked;
    acc.el_ack_rtt_ns += m.el_ack_rtt_ns;
    acc.checkpoints_taken += m.checkpoints_taken;
}

impl LiveStats {
    /// Fold another launch's stats in.
    pub fn add(&mut self, o: &LiveStats) {
        add_metrics(&mut self.m, &o.m);
        self.timings.merge(&o.timings);
        self.restarts += o.restarts;
        self.replayed_deliveries += o.replayed_deliveries;
        self.retransmissions += o.retransmissions;
        self.duplicates_dropped += o.duplicates_dropped;
    }

    pub fn add_report(&mut self, r: &RunReport) {
        for m in &r.rank_metrics {
            add_metrics(&mut self.m, m);
        }
        self.timings.merge(&r.timings);
        self.restarts += r.restarts;
        self.replayed_deliveries += r.replayed_deliveries;
        self.retransmissions += r.retransmissions;
        self.duplicates_dropped += r.duplicates_dropped;
    }

    pub fn add_proc_report(&mut self, r: &ProcReport) {
        for (_, m) in &r.rank_metrics {
            add_metrics(&mut self.m, m);
            self.replayed_deliveries += m.replayed_deliveries;
            self.retransmissions += m.retransmissions;
            self.duplicates_dropped += m.duplicates_dropped;
        }
        self.restarts += r.restarts as u64;
    }

    fn per_msg(&self, x: u64) -> f64 {
        x as f64 / self.m.msgs_delivered.max(1) as f64
    }

    /// Share of data sends that queued behind the closed pessimism gate.
    pub fn gate_deferred_ratio(&self) -> f64 {
        self.m.gate_deferred_sends as f64 / self.m.msgs_sent.max(1) as f64
    }

    pub fn el_events_per_batch(&self) -> f64 {
        self.m.el_events_batched as f64 / self.m.el_batches_sent.max(1) as f64
    }

    /// EL requests (event batches) per delivered message.
    pub fn el_requests_per_msg(&self) -> f64 {
        self.per_msg(self.m.el_batches_sent)
    }

    /// Mailbox crossings on a message's critical path: process → daemon,
    /// daemon → peer daemon, daemon → process, plus the EL request and
    /// ack when the reply queued behind the closed gate (otherwise the EL
    /// round trip overlaps the app's wake-up).
    pub fn handoffs_per_msg(&self) -> f64 {
        3.0 + 2.0 * self.gate_deferred_ratio()
    }

    /// Mean gate wait per deferred send in µs (from the counters, so it
    /// exists on both backends).
    pub fn gate_wait_mean_us(&self) -> f64 {
        self.m.gate_wait_ns as f64 / self.m.gate_deferred_sends.max(1) as f64 / 1e3
    }

    pub fn el_ack_rtt_mean_us(&self) -> f64 {
        self.m.el_ack_rtt_ns as f64 / self.m.el_batches_acked.max(1) as f64 / 1e3
    }
}
