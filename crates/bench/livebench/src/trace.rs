//! Spans recorded by the benchmark's own code around its calls into the
//! runtime: kept in memory during the run and written out at its end.
//! With tracing off, [`SpanBuf::time`] is a plain call.

use crate::stats::wall_ns;
use serde::{Deserialize, Serialize};
use std::io::Write as _;
use std::path::Path;

/// What a span wraps.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Kind {
    Send,
    Recv,
    Isend,
    Wait,
    Allreduce,
    CheckpointSite,
    /// One ping-pong round trip or one CG iteration: the parent op.
    Op,
    /// A kill until the reincarnation re-reaches its predecessor's
    /// iteration.
    Recovery,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Send => "mpi.send",
            Kind::Recv => "mpi.recv",
            Kind::Isend => "mpi.isend",
            Kind::Wait => "mpi.wait",
            Kind::Allreduce => "mpi.allreduce",
            Kind::CheckpointSite => "mpi.checkpoint_site",
            Kind::Op => "op",
            Kind::Recovery => "runtime.recovery",
        }
    }
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Span {
    pub kind: Kind,
    pub rank: u32,
    /// Wall-clock nanoseconds since the Unix epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the op this span belongs to (for an op: its own id).
    pub op: u64,
}

impl Span {
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

/// One thread's span buffer.
pub struct SpanBuf {
    on: bool,
    rank: u32,
    op_base: u64,
    next_op: u64,
    pub spans: Vec<Span>,
}

impl SpanBuf {
    /// `incarnation` keeps op ids of a rank's reincarnations distinct.
    pub fn new(on: bool, rank: u32, incarnation: u64) -> Self {
        SpanBuf {
            on,
            rank,
            op_base: ((rank as u64) << 56) | (incarnation << 40),
            next_op: 0,
            spans: Vec::new(),
        }
    }

    pub fn next_op(&mut self) -> u64 {
        self.next_op += 1;
        self.op_base | self.next_op
    }

    /// Run `f`, recording a span around it when tracing is on.
    pub fn time<T>(&mut self, kind: Kind, op: u64, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = wall_ns();
        let r = f();
        self.push(kind, op, start_ns, wall_ns());
        r
    }

    pub fn push(&mut self, kind: Kind, op: u64, start_ns: u64, end_ns: u64) {
        if self.on {
            self.spans.push(Span {
                kind,
                rank: self.rank,
                start_ns,
                end_ns,
                op,
            });
        }
    }
}

/// Median duration in µs of the spans of `kind` (0 when there are none).
pub fn p50_us(spans: &[Span], kind: Kind) -> f64 {
    let mut v: Vec<f64> = spans
        .iter()
        .filter(|s| s.kind == kind)
        .map(Span::us)
        .collect();
    crate::stats::median(&mut v)
}

/// Write the spans as JSON lines, one span per line.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"rank\":{},\"start_ns\":{},\"end_ns\":{},\"parent_op\":{}}}",
            s.kind.name(),
            s.rank,
            s.start_ns,
            s.end_ns,
            s.op
        )?;
    }
    out.flush()
}
