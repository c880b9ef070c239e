//! `udp_pingpong`: a `WireEndpoint` pair on a `UdpFabric` loopback fabric,
//! two rails, 64 B notifying writes, one op outstanding. The only workload
//! on the real clock and through `frame` and `core::backplane`; no
//! `netsim` code runs.
//!
//! Op: one round trip — a ping from node 0, whose notification makes node
//! 1 reply, timed until node 0 sees the reply's notification. Every
//! payload is seeded; each side checks the bytes it was sent, every
//! notification must arrive exactly once, and every ping must get its
//! reply. A round trip that takes longer than the watchdog fails the
//! batch's remaining round trips.

use crate::probe::{
    self, checksum, fill, fill_checksum, splitmix, step, time_opt, Spans, TimingBp,
};
use crate::simwl::proto_layers;
use crate::Batch;
use bytes::Bytes;
use multiedge::backplane::{drain, Backplane, DriveLimits, UdpFabric, WireEndpoint};
use multiedge::{OpFlags, SystemConfig};
use std::time::{Duration, Instant};

const RAILS: usize = 2;
const SIZE: usize = 64;
const ROUND_TRIPS: u64 = 1000;
const ADDR: u64 = 0x1000;
const WATCHDOG: Duration = Duration::from_secs(2);
const SPAN_CAP: usize = 1 << 13;

fn key(seed: u64, node: u64, round: u64) -> u64 {
    splitmix(seed ^ (node << 40) ^ round)
}

fn payload(seed: u64, node: u64, round: u64) -> Bytes {
    Bytes::from(fill(key(seed, node, round), 0, SIZE))
}

/// Fabric bind plus endpoint pair; returns the step times.
fn build(
    spans: Option<&Spans>,
    recorder: &me_trace::SpanRecorder,
) -> (
    (
        multiedge::backplane::UdpBackplane,
        multiedge::backplane::UdpBackplane,
    ),
    (WireEndpoint, WireEndpoint),
    [f64; 2],
) {
    let proto = SystemConfig::two_link_1g(2).proto;
    let (bps, t_fabric) = step(spans, "setup.cluster", || {
        UdpFabric::new(RAILS)
            .expect("bind loopback UDP sockets")
            .pair()
    });
    let (eps, t_eps) = step(spans, "setup.endpoints", || {
        WireEndpoint::pair(&proto, RAILS, recorder)
    });
    (bps, eps, [t_fabric, t_eps])
}

pub fn setup(_seed: u64) -> f64 {
    let (_, _, t) = build(None, &me_trace::SpanRecorder::disabled());
    t.iter().sum()
}

/// What one ping-pong loop observed.
#[derive(Default)]
struct Outcome {
    wall_s: f64,
    allocs: u64,
    alloc_bytes: u64,
    lat_ns: Vec<u64>,
    failed: u64,
    polls: u64,
    empty_polls: u64,
}

fn pingpong<BA: Backplane, BB: Backplane>(
    seed: u64,
    a: &mut WireEndpoint,
    bpa: &mut BA,
    b: &mut WireEndpoint,
    bpb: &mut BB,
    spans: Option<&Spans>,
) -> Outcome {
    let mut out = Outcome {
        lat_ns: Vec::with_capacity(ROUND_TRIPS as usize),
        ..Outcome::default()
    };
    let flags = OpFlags::RELAXED.with_notify();
    let a0 = probe::alloc_snap();
    let t0 = Instant::now();
    let (mut pinged, mut got_b, mut got_a) = (1u64, 0u64, 0u64);
    let mut t_issue = Instant::now();
    time_opt(spans, "wire.write", || {
        a.write(0, bpa, ADDR, payload(seed, 0, 0), flags)
    });
    loop {
        let pa = time_opt(spans, "wire.poll", || a.poll(bpa));
        let pb = time_opt(spans, "wire.poll", || b.poll(bpb));
        out.polls += 2;
        out.empty_polls += u64::from(!pa) + u64::from(!pb);
        while let Some(n) = b.take_notification() {
            let ok = n.len == SIZE
                && checksum(&b.mem_read(ADDR, SIZE)) == fill_checksum(key(seed, 0, got_b), 0, SIZE);
            out.failed += u64::from(!ok);
            time_opt(spans, "wire.write", || {
                b.write(0, bpb, ADDR, payload(seed, 1, got_b), flags)
            });
            got_b += 1;
        }
        while let Some(n) = a.take_notification() {
            out.lat_ns.push(t_issue.elapsed().as_nanos() as u64);
            let ok = n.len == SIZE
                && checksum(&a.mem_read(ADDR, SIZE)) == fill_checksum(key(seed, 1, got_a), 0, SIZE);
            out.failed += u64::from(!ok);
            got_a += 1;
            if pinged < ROUND_TRIPS {
                t_issue = Instant::now();
                time_opt(spans, "wire.write", || {
                    a.write(0, bpa, ADDR, payload(seed, 0, pinged), flags)
                });
                pinged += 1;
            }
        }
        while a.take_completion().is_some() {}
        while b.take_completion().is_some() {}
        if got_a >= ROUND_TRIPS {
            break;
        }
        if t_issue.elapsed() > WATCHDOG {
            eprintln!(
                "CHECK FAILED: udp_pingpong: round trip {got_a} exceeded the {WATCHDOG:?} watchdog"
            );
            out.failed += ROUND_TRIPS - got_a;
            break;
        }
        if pa || pb {
            continue;
        }
        // Idle: wait for the earliest protocol deadline or any delivery.
        let now = bpa.now_ns();
        let wake = [a.next_deadline(), b.next_deadline()]
            .into_iter()
            .flatten()
            .min()
            .unwrap_or(now + 1_000_000)
            .max(now + 1);
        bpa.advance(wake);
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    let a1 = probe::alloc_snap();
    out.allocs = a1.allocs - a0.allocs;
    out.alloc_bytes = a1.bytes - a0.bytes;
    if got_b != got_a || got_b != pinged {
        eprintln!("CHECK FAILED: udp_pingpong: {pinged} pings, {got_b} received, {got_a} replies");
        out.failed += got_b.abs_diff(got_a);
    }
    out
}

pub fn batch(seed: u64, spans: Option<&Spans>) -> Batch {
    let heap0 = probe::reset_peak();
    let mark = spans.map(Spans::mark);
    let recorder = match spans {
        Some(_) => me_trace::SpanRecorder::enabled(SPAN_CAP),
        None => me_trace::SpanRecorder::disabled(),
    };
    let ((bpa, bpb), (mut a, mut b), t) = build(spans, &recorder);
    let fabric = bpa.fabric().clone();
    let mut layers = Vec::new();
    let mut out = match spans {
        None => {
            let (mut bpa, mut bpb) = (bpa, bpb);
            let mut out = pingpong(seed, &mut a, &mut bpa, &mut b, &mut bpb, None);
            out.failed += quiesce(&mut a, &mut bpa, &mut b, &mut bpb);
            out
        }
        Some(sp) => {
            let mut bpa = TimingBp::new(bpa, sp.clone());
            let mut bpb = TimingBp::new(bpb, sp.clone());
            let mut out = pingpong(seed, &mut a, &mut bpa, &mut b, &mut bpb, Some(sp));
            let mark = mark.as_ref().expect("traced");
            let ops = ROUND_TRIPS as f64;
            let tot = |n: &str| sp.since(mark, n);
            let sends = bpa.sends + bpb.sends;
            let frames = bpa.frames_next + bpb.frames_next;
            let st = fabric.stats();
            layers.extend([
                ("setup.cluster_s", t[0]),
                ("setup.endpoints_s", t[1]),
                (
                    "wire.poll_self_ns_per_op",
                    tot("wire.poll").self_ns as f64 / ops,
                ),
                (
                    "wire.write_self_ns_per_op",
                    tot("wire.write").self_ns as f64 / ops,
                ),
                ("wire.polls_per_op", out.polls as f64 / ops),
                (
                    "wire.empty_poll_ratio",
                    out.empty_polls as f64 / out.polls.max(1) as f64,
                ),
                (
                    "wire.idle_wait_us_per_op",
                    tot("bp.advance").total_ns as f64 / ops / 1e3,
                ),
                (
                    "udp.send_ns_per_frame",
                    tot("bp.send").total_ns as f64 / sends.max(1) as f64,
                ),
                (
                    "udp.next_ns_per_frame",
                    tot("bp.next").total_ns as f64 / frames.max(1) as f64,
                ),
                (
                    "udp.empty_next_per_op",
                    (bpa.empty_next + bpb.empty_next) as f64 / ops,
                ),
                (
                    "udp.advance_calls_per_op",
                    (bpa.advances + bpb.advances) as f64 / ops,
                ),
                (
                    "udp.rx_drops",
                    (st.frames_corrupt_dropped
                        + st.frames_malformed_dropped
                        + st.unknown_source_dropped
                        + bpa.send_rejects
                        + bpb.send_rejects) as f64,
                ),
            ]);
            let mut captured = std::mem::take(&mut bpa.captured);
            captured.append(&mut bpb.captured);
            layers.extend(codec_layers(&captured));
            let mut proto = a.stats();
            proto.merge(&b.stats());
            layers.extend(proto_layers(
                &proto,
                ROUND_TRIPS,
                tot("wire.write").total_ns,
            ));
            out.failed += quiesce(&mut a, &mut bpa, &mut b, &mut bpb);
            out
        }
    };
    for (ep, name) in [(&mut a, "node 0"), (&mut b, "node 1")] {
        let extra = std::iter::from_fn(|| ep.take_notification()).count() as u64;
        if extra > 0 || ep.stats().notifications != ROUND_TRIPS {
            eprintln!(
                "CHECK FAILED: udp_pingpong: {name} delivered {} notifications, {extra} after the loop",
                ep.stats().notifications
            );
            out.failed += extra.max(1);
        }
    }
    if spans.is_some() {
        if let Some(snap) = recorder.snapshot() {
            layers.extend(crate::simwl::phase_layers(&snap));
        }
    }
    let mut proto = a.stats();
    proto.merge(&b.stats());
    let n = out.lat_ns.len() as u64;
    let wall_lat = (n > 0).then(|| {
        (
            probe::percentile(&mut out.lat_ns, 50.0),
            probe::percentile(&mut out.lat_ns, 99.0),
            n,
        )
    });
    Batch {
        setup_s: t.iter().sum(),
        wall_s: out.wall_s,
        ops: ROUND_TRIPS,
        failed: out.failed,
        peak_heap: probe::peak_above(heap0),
        allocs: out.allocs,
        alloc_bytes: out.alloc_bytes,
        extra_frac: proto.extra_frame_fraction(),
        facts: None,
        wall_lat,
        layers,
    }
}

/// Drive both endpoints until every write is acknowledged. Returns the
/// failures to count: 1 when the drain ends in a typed `WireError`.
fn quiesce<BA: Backplane, BB: Backplane>(
    a: &mut WireEndpoint,
    bpa: &mut BA,
    b: &mut WireEndpoint,
    bpb: &mut BB,
) -> u64 {
    match drain(
        a,
        bpa,
        b,
        bpb,
        DriveLimits::budget(WATCHDOG.as_nanos() as u64),
    ) {
        Ok(_) => 0,
        Err(e) => {
            eprintln!("CHECK FAILED: udp_pingpong: drain: {e}");
            1
        }
    }
}

/// Encode/decode wall time per frame over frames captured at `send`.
fn codec_layers(frames: &[frame::Frame]) -> Vec<(&'static str, f64)> {
    if frames.is_empty() {
        return Vec::new();
    }
    let mut buf = Vec::new();
    let encoded: Vec<Vec<u8>> = frames.iter().map(frame::encode_frame).collect();
    let (mut n, t0) = (0u64, Instant::now());
    while t0.elapsed() < Duration::from_millis(5) {
        for f in frames {
            frame::encode_frame_into(std::hint::black_box(f), &mut buf);
            std::hint::black_box(&buf);
        }
        n += frames.len() as u64;
    }
    let enc = t0.elapsed().as_nanos() as f64 / n as f64;
    let (mut m, t1) = (0u64, Instant::now());
    while t1.elapsed() < Duration::from_millis(5) {
        for (f, bytes) in frames.iter().zip(&encoded) {
            let r = frame::decode_frame(f.src, f.dst, std::hint::black_box(bytes));
            assert!(r.is_ok(), "captured frame must decode");
            std::hint::black_box(r.ok());
        }
        m += frames.len() as u64;
    }
    let dec = t1.elapsed().as_nanos() as f64 / m as f64;
    vec![
        ("codec.encode_ns_per_frame", enc),
        ("codec.decode_ns_per_frame", dec),
    ]
}
