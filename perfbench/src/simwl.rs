//! Helpers shared by the simulated workloads: driving the engine, and the
//! engine, network, protocol and span-attribution layer metrics.

use crate::probe::Spans;
use multiedge::ProtoStats;
use netsim::{NetStats, Sim, SimTime};
use std::time::Instant;

/// Outcome of driving one batch's simulation to quiescence.
pub struct Drive {
    pub wall_s: f64,
    /// Pending-queue samples taken between events (traced runs only).
    pub pending_peak: u64,
    pub pending_mean: f64,
    pub quiescent: bool,
}

/// Run the simulation to quiescence. Untraced: `Sim::run`. Traced:
/// `Sim::advance_until` with a stop hook that samples the pending-event
/// queue between events and never stops early — it executes exactly the
/// events `run` would, in the same order.
pub fn drive(sim: &Sim, spans: Option<&Spans>) -> Drive {
    let t0 = Instant::now();
    match spans {
        None => {
            let report = sim.run();
            Drive {
                wall_s: t0.elapsed().as_secs_f64(),
                pending_peak: 0,
                pending_mean: 0.0,
                quiescent: report.stuck_tasks.is_empty(),
            }
        }
        Some(sp) => {
            let (mut peak, mut sum, mut n) = (0u64, 0u128, 0u64);
            sp.open("sim.advance_until", u64::MAX);
            sim.advance_until(SimTime(u64::MAX), || {
                let p = sim.pending_events() as u64;
                peak = peak.max(p);
                sum += u128::from(p);
                n += 1;
                false
            });
            sp.close();
            Drive {
                wall_s: t0.elapsed().as_secs_f64(),
                pending_peak: peak,
                pending_mean: sum as f64 / n.max(1) as f64,
                quiescent: sim.live_tasks() == 0,
            }
        }
    }
}

/// All frames a protocol instance put on the wire.
fn frames_sent(p: &ProtoStats) -> u64 {
    p.data_frames_sent
        + p.read_req_frames_sent
        + p.explicit_acks_sent
        + p.nacks_sent
        + p.retransmits()
}

/// Protocol-layer metrics (`proto.*`) for `ops` ops; `issue_ns` is the
/// wall time spent inside the program's op-issue calls.
pub fn proto_layers(p: &ProtoStats, ops: u64, issue_ns: u64) -> Vec<(&'static str, f64)> {
    let ops = ops.max(1) as f64;
    let data = p.data_frames_sent.max(1) as f64;
    vec![
        ("proto.issue_ns_per_op", issue_ns as f64 / ops),
        ("proto.data_frames_per_op", p.data_frames_sent as f64 / ops),
        (
            "proto.acks_per_data_frame",
            p.explicit_acks_sent as f64 / data,
        ),
        ("proto.nacks", p.nacks_sent as f64),
        ("proto.retransmits", p.retransmits() as f64),
        (
            "proto.useful_frame_ratio",
            p.data_frames_sent as f64 / frames_sent(p).max(1) as f64,
        ),
        ("proto.ooo_fraction", p.ooo_fraction()),
        ("proto.rx_irq_fraction", p.rx_interrupt_fraction()),
        ("proto.reorder_peak", p.reorder_peak as f64),
    ]
}

/// Op count, p50 and p99 of per-op latency samples (zeros when empty).
pub fn op_percentiles(lat: &mut [u64]) -> (u64, u64, u64) {
    if lat.is_empty() {
        return (0, 0, 0);
    }
    let p50 = crate::probe::percentile(lat, 50.0);
    (lat.len() as u64, p50, crate::probe::percentile(lat, 99.0))
}

/// Per-layer metrics of a traced pair or mesh batch: set-up steps,
/// engine, network, protocol and span attribution (from `ep`'s recorder,
/// shared by the cluster).
pub fn traced_layers(
    setup: &[(&'static str, f64)],
    facts: &crate::SimFacts,
    ops: u64,
    d: &Drive,
    issue_ns: u64,
    ep: &multiedge::Endpoint,
) -> Vec<(&'static str, f64)> {
    let mut v = setup.to_vec();
    v.extend(engine_net_layers(
        facts.events,
        &facts.net,
        ops,
        d.wall_s,
        Some(d),
    ));
    v.extend(proto_layers(&facts.proto, ops, issue_ns));
    let snap = ep.span_recorder().snapshot().expect("spans enabled");
    v.extend(phase_layers(&snap));
    v
}

/// Engine and network layer metrics for one driven batch.
pub fn engine_net_layers(
    events: u64,
    net: &NetStats,
    ops: u64,
    wall_s: f64,
    d: Option<&Drive>,
) -> Vec<(&'static str, f64)> {
    let opsf = ops.max(1) as f64;
    let mut v = vec![
        ("engine.events_per_op", events as f64 / opsf),
        ("engine.ns_per_event", wall_s * 1e9 / events.max(1) as f64),
        ("net.frames_per_op", net.channel_frames as f64 / opsf),
        ("net.frames_per_wall_s", net.channel_frames as f64 / wall_s),
        ("net.bytes_per_op", net.channel_bytes as f64 / opsf),
        ("net.drops_overflow", net.drops_overflow as f64),
    ];
    if let Some(d) = d {
        v.push(("engine.pending_peak", d.pending_peak as f64));
        v.push(("engine.pending_mean", d.pending_mean));
    }
    v
}

/// Mean simulated time per op in each of the 11 attribution phases.
pub fn phase_layers(snap: &me_trace::SpanSnapshot) -> Vec<(&'static str, f64)> {
    assert_eq!(snap.overwritten, 0, "span ring must retain every op");
    let a = me_trace::analyze(snap);
    let ops = a.overall.ops.max(1) as f64;
    me_trace::PHASES
        .iter()
        .map(|p| {
            let name: &'static str = match p {
                me_trace::Phase::HostIssue => "phase.host_issue_us",
                me_trace::Phase::SendWindow => "phase.send_window_us",
                me_trace::Phase::Retransmit => "phase.retransmit_us",
                me_trace::Phase::RailQueue => "phase.rail_queue_us",
                me_trace::Phase::Wire => "phase.wire_us",
                me_trace::Phase::RxProcess => "phase.rx_process_us",
                me_trace::Phase::Reorder => "phase.reorder_us",
                me_trace::Phase::Fence => "phase.fence_us",
                me_trace::Phase::AckDelay => "phase.ack_delay_us",
                me_trace::Phase::AckReturn => "phase.ack_return_us",
                me_trace::Phase::CompleteWake => "phase.complete_wake_us",
            };
            (name, a.overall.phase_total_ns[p.idx()] as f64 / ops / 1e3)
        })
        .collect()
}
