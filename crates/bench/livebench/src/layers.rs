//! The standalone layer harness: each layer's public functions timed in
//! isolation at the shapes the workloads use (message sizes, the CG image
//! size, the ping-pong input sequence). These costs feed the attribution.

use crate::stats::{median, time_per_call};
use mvr_ckpt::CheckpointStore;
use mvr_core::NodeId;
use mvr_core::{EventBatch, Input, NodeImage, Output, Payload, Rank, ReceptionEvent, V2Engine};
use mvr_eventlog::EventLogStore;
use mvr_mpi::{Context, MpiFrame};
use mvr_net::{
    encode_frame, Fabric, FrameDecoder, TcpConfig, TcpTransport, Transport, TransportEvent,
};
use std::hint::black_box;
use std::time::{Duration, Instant};

const BATCHES: usize = 7;

/// Standalone per-call costs.
#[derive(Clone, Debug, Default)]
pub struct LayerCosts {
    pub mpi_encode_ns: [f64; 2],
    pub mpi_decode_ns: [f64; 2],
    pub core_step_ns: f64,
    pub core_inputs_per_msg: f64,
    pub net_handoff_us: f64,
    pub net_mailbox_ns: f64,
    pub net_frame_encode_ns_64k: f64,
    pub net_frame_decode_ns_64k: f64,
    pub net_tcp_oneway_us_0b: f64,
    pub el_store_append_ns: f64,
    pub ckpt_store_put_us: f64,
    pub ckpt_image_bytes: usize,
    /// Not a runtime layer: what `bincode` of the CG solver state would
    /// cost the app per iteration (why the benchmark's CG encodes raw).
    pub app_state_serialize_us: f64,
}

fn eager(len: usize) -> MpiFrame {
    MpiFrame::Eager {
        context: Context::PointToPoint,
        tag: 11,
        body: Payload::from_vec(vec![0xA5; len]),
    }
}

/// `MpiFrame::encode` / `decode` of an eager frame at 0 B and 64 KiB.
fn mpi_codec(c: &mut LayerCosts) {
    for (i, (len, iters)) in [(0usize, 20_000usize), (64 << 10, 300)]
        .into_iter()
        .enumerate()
    {
        let f = eager(len);
        c.mpi_encode_ns[i] = time_per_call(BATCHES, iters, || {
            black_box(black_box(&f).encode());
        });
        let bytes = f.encode();
        c.mpi_decode_ns[i] = time_per_call(BATCHES, iters, || {
            black_box(MpiFrame::decode(black_box(&bytes)).expect("frame decodes"));
        });
    }
}

/// Two `V2Engine`s back to back, driven through the ping-pong input
/// sequence of the runtime's daemons. Per hop, on the receiving engine:
/// `AppRecv` (the app is blocked in recv), `Peer` (the message arrives
/// and is delivered), `FlushEvents` (the idle daemon ships the event),
/// `AppSend` (the echo, queued behind the closed gate) and `ElAck` (from
/// an `EventLogStore`, opening the gate).
fn core_engine(c: &mut LayerCosts) {
    let mut eng = [V2Engine::fresh(Rank(0), 2), V2Engine::fresh(Rank(1), 2)];
    let mut store = EventLogStore::new();
    let (mut inputs, mut busy_ns) = (0u64, 0u128);
    let mut step = |e: &mut V2Engine, input: Input| {
        let t = Instant::now();
        e.handle(input).expect("live engine never diverges");
        let out = e.drain_outputs();
        busy_ns += t.elapsed().as_nanos();
        inputs += 1;
        out
    };
    let transmitted = |outs: &[Output]| {
        outs.iter().find_map(|o| match o {
            Output::Transmit { msg, .. } => Some(msg.clone()),
            _ => None,
        })
    };
    let mut in_flight = transmitted(&step(
        &mut eng[0],
        Input::AppSend {
            dst: Rank(1),
            payload: Payload::empty(),
        },
    ))
    .expect("the first send passes the open gate");
    let hops = 8000u64;
    for hop in 0..hops {
        let (src, dst) = if hop % 2 == 0 { (0, 1) } else { (1, 0) };
        let e = &mut eng[dst];
        step(e, Input::AppRecv);
        let outs = step(
            e,
            Input::Peer {
                from: Rank(src as u32),
                msg: in_flight,
            },
        );
        assert!(outs.iter().any(|o| matches!(o, Output::Deliver { .. })));
        let mut ack = None;
        if e.pending_event_count() > 0 {
            for o in step(e, Input::FlushEvents) {
                if let Output::LogEvents(batch) = o {
                    ack = Some(store.log(batch));
                }
            }
        }
        let echo = Input::AppSend {
            dst: Rank(src as u32),
            payload: Payload::empty(),
        };
        let mut sent = transmitted(&step(e, echo));
        if let Some(up_to) = ack {
            sent = sent.or(transmitted(&step(e, Input::ElAck { up_to })));
        }
        in_flight = sent.expect("the EL ack opens the gate");
    }
    c.core_step_ns = busy_ns as f64 / inputs as f64;
    c.core_inputs_per_msg = inputs as f64 / hops as f64;
}

/// One-way cross-thread wake through the fabric's `Mailbox`, and the
/// same-thread send → `try_recv` pair.
fn net_mailbox(c: &mut LayerCosts) {
    let fabric = Fabric::new();
    let (a, b) = (NodeId::Computing(Rank(0)), NodeId::Computing(Rank(1)));
    let (mb_a, id_a) = fabric.register::<u64>(a);
    let (mb_b, id_b) = fabric.register::<u64>(b);
    let echo = std::thread::spawn(move || {
        while let Ok(v) = mb_b.recv() {
            if v == u64::MAX || id_b.send(a, v).is_err() {
                break;
            }
        }
    });
    let rounds = 3000u64;
    let mut per_batch = Vec::new();
    for _ in 0..BATCHES {
        let t = Instant::now();
        for i in 0..rounds {
            id_a.send(b, i).expect("echo peer alive");
            black_box(mb_a.recv().expect("echo arrives"));
        }
        per_batch.push(t.elapsed().as_nanos() as f64 / rounds as f64 / 2.0 / 1e3);
    }
    c.net_handoff_us = median(&mut per_batch);
    let _ = id_a.send(b, u64::MAX);
    echo.join().expect("echo thread does not panic");

    let (mb_c, _) = fabric.register::<u64>(NodeId::Computing(Rank(2)));
    c.net_mailbox_ns = time_per_call(BATCHES, 50_000, || {
        id_a.send(NodeId::Computing(Rank(2)), 1u64)
            .expect("mailbox open");
        black_box(mb_c.try_recv().expect("not killed"));
    });
}

/// `encode_frame` and `FrameDecoder` at 64 KiB.
fn net_frame(c: &mut LayerCosts) {
    let body = vec![0x5Au8; 64 << 10];
    c.net_frame_encode_ns_64k = time_per_call(BATCHES, 300, || {
        black_box(encode_frame(0, black_box(&body)));
    });
    let wire = encode_frame(0, &body);
    let mut dec = FrameDecoder::new();
    c.net_frame_decode_ns_64k = time_per_call(BATCHES, 300, || {
        dec.push(black_box(&wire));
        black_box(dec.next_frame().expect("valid frame").expect("whole frame"));
    });
}

/// Loopback `TcpTransport` ping-pong at 0 B: `send` → `poll_event`.
fn net_tcp(c: &mut LayerCosts) -> Result<(), String> {
    let (na, nb) = (NodeId::Computing(Rank(0)), NodeId::Computing(Rank(1)));
    let ta = TcpTransport::bind(na, "127.0.0.1:0", 1, TcpConfig::default())
        .map_err(|e| e.to_string())?;
    let tb = TcpTransport::bind(nb, "127.0.0.1:0", 1, TcpConfig::default())
        .map_err(|e| e.to_string())?;
    ta.set_route(nb, tb.local_addr().ok_or("no address")?);
    tb.set_route(na, ta.local_addr().ok_or("no address")?);
    let wait_frame = |t: &TcpTransport| -> Result<Vec<u8>, String> {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            if let Some(TransportEvent::Frame { payload, .. }) =
                t.poll_event(Duration::from_millis(100))
            {
                return Ok(payload);
            }
        }
        Err("tcp frame timed out".into())
    };
    let rounds = 1000;
    let result = std::thread::scope(|s| {
        let echo = s.spawn(|| -> Result<(), String> {
            for _ in 0..(BATCHES + 1) * rounds {
                let p = wait_frame(&tb)?;
                tb.send(na, p).map_err(|e| e.to_string())?;
            }
            Ok(())
        });
        let mut per_batch = Vec::new();
        let mut run = || -> Result<(), String> {
            for b in 0..=BATCHES {
                let t = Instant::now();
                for _ in 0..rounds {
                    ta.send(nb, Vec::new()).map_err(|e| e.to_string())?;
                    wait_frame(&ta)?;
                }
                // The first batch opens the connections and warms up.
                if b > 0 {
                    per_batch.push(t.elapsed().as_nanos() as f64 / rounds as f64 / 2.0 / 1e3);
                }
            }
            Ok(())
        };
        let mine = run();
        let theirs = echo.join().map_err(|_| "tcp echo panicked".to_string())?;
        mine.and(theirs).map(|_| median(&mut per_batch))
    });
    ta.shutdown();
    tb.shutdown();
    c.net_tcp_oneway_us_0b = result?;
    Ok(())
}

/// `EventLogStore::log` of one-event batches, as the ping-pong's EL sees
/// them.
fn eventlog_store(c: &mut LayerCosts) {
    let mut store = EventLogStore::new();
    let mut clock = 0u64;
    c.el_store_append_ns = time_per_call(BATCHES, 20_000, || {
        clock += 1;
        black_box(store.log(EventBatch {
            owner: Rank(0),
            events: vec![ReceptionEvent {
                sender: Rank(1),
                sender_clock: clock,
                receiver_clock: clock,
                probes: 0,
            }],
        }));
    });
}

/// `NodeImage::encode_blob` + `CheckpointStore::put` at the CG image size
/// (the serialized solver state of one rank).
fn ckpt_store(c: &mut LayerCosts) {
    let len = crate::cg::N / 2;
    let state = mvr_workloads::CgState {
        iter: 1,
        x: vec![0.5; len],
        r: vec![0.25; len],
        p: vec![0.125; len],
        rr: 1.0,
    };
    let image = NodeImage {
        engine: V2Engine::fresh(Rank(0), 2).snapshot(),
        mpi_state: Payload::from_vec(vec![0; 64]),
        app_state: Payload::from_vec(crate::cg::encode_state(&state)),
    };
    c.ckpt_image_bytes = image.encode_blob().len();
    c.app_state_serialize_us = time_per_call(3, 5, || {
        black_box(bincode::serialize(black_box(&state)).expect("state serializes"));
    }) / 1e3;
    let mut store = CheckpointStore::new();
    let mut clock = 0u64;
    c.ckpt_store_put_us = time_per_call(BATCHES, 200, || {
        clock += 1;
        store.put(Rank(0), clock, black_box(&image).encode_blob());
    }) / 1e3;
}

/// Run the whole harness.
pub fn measure() -> Result<LayerCosts, String> {
    let mut c = LayerCosts::default();
    mpi_codec(&mut c);
    core_engine(&mut c);
    net_mailbox(&mut c);
    net_frame(&mut c);
    net_tcp(&mut c)?;
    eventlog_store(&mut c);
    ckpt_store(&mut c);
    Ok(c)
}
