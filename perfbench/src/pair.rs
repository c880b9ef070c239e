//! `pair_mixed`: two nodes on 2Lu-1G; on each node eight closed-loop
//! issuers share one seeded op stream of remote writes and reads.
//!
//! Op: one RDMA op (write or read), issue→completion. Sizes run from 64 B
//! to 64 KiB, skewed small; about a quarter are remote reads; some writes
//! notify, some ops carry backward or forward fences. Each issuer owns one
//! 64 KiB slot in the peer's write region and one local read buffer, so a
//! completed op's bytes can be checked in place: a write against the
//! peer's memory, a read against the peer's seeded read region.

use crate::probe::{self, checksum, fill, fill_checksum, splitmix, step, Rng, Spans, Timed};
use crate::simwl::{drive, op_percentiles, traced_layers};
use crate::{Batch, SimFacts};
use multiedge::{Endpoint, OpFlags, SystemConfig};
use netsim::{build_cluster, Cluster, Sim};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

const WORKERS: usize = 8;
const OPS_PER_NODE: usize = 3000;
const SLOT: u64 = 64 << 10;
const READ_BASE: u64 = 0x100_0000;
const READ_LEN: usize = 1 << 20;
const WRITE_BASE: u64 = 0x200_0000;
const RBUF_BASE: u64 = 0x400_0000;
/// Relative weights of sizes 64 B << k for k = 0..=10 (64 B..64 KiB).
const SIZE_WEIGHTS: [u64; 11] = [32, 24, 18, 13, 10, 7, 5, 4, 3, 2, 2];
const SPAN_CAP: usize = 1 << 14;

#[derive(Clone, Copy)]
struct OpSpec {
    read: bool,
    size: usize,
    /// Byte offset into the peer's read region (reads).
    off: u64,
    flags: OpFlags,
    /// Fill-stream key of the payload (writes).
    key: u64,
}

fn read_key(seed: u64, node: usize) -> u64 {
    splitmix(seed ^ 0x5EAD_0000 ^ node as u64)
}

/// `n` flags of which exactly `pct` percent are set, in seeded order.
fn exact_flags(n: usize, pct: usize, r: &mut Rng) -> Vec<bool> {
    let mut v: Vec<bool> = (0..n).map(|i| i < n * pct / 100).collect();
    r.shuffle(&mut v);
    v
}

/// The op stream of one node. The mix is fixed — exact counts per size,
/// a quarter reads, a tenth notifying, a twentieth with each fence — and
/// the seed decides its order, offsets and payloads, so seeds differ in
/// schedule but not in the amount of work.
fn gen_ops(seed: u64, node: usize) -> Vec<OpSpec> {
    let mut r = Rng::new(seed ^ ((node as u64 + 1) << 48));
    let total: u64 = SIZE_WEIGHTS.iter().sum();
    let mut sizes: Vec<usize> = SIZE_WEIGHTS
        .iter()
        .enumerate()
        .flat_map(|(k, &w)| {
            std::iter::repeat_n(64usize << k, OPS_PER_NODE * w as usize / total as usize)
        })
        .collect();
    assert_eq!(
        sizes.len(),
        OPS_PER_NODE,
        "size weights must divide the op count"
    );
    r.shuffle(&mut sizes);
    let reads = exact_flags(OPS_PER_NODE, 25, &mut r);
    let notify = exact_flags(OPS_PER_NODE, 10, &mut r);
    let fence_b = exact_flags(OPS_PER_NODE, 5, &mut r);
    let fence_f = exact_flags(OPS_PER_NODE, 5, &mut r);
    (0..OPS_PER_NODE)
        .map(|i| {
            let size = sizes[i];
            let mut flags = OpFlags::RELAXED;
            flags.notify = notify[i] && !reads[i];
            flags.fence_backward = fence_b[i];
            flags.fence_forward = fence_f[i];
            OpSpec {
                read: reads[i],
                size,
                off: r.below(((READ_LEN - size) / 64 + 1) as u64) * 64,
                flags,
                key: splitmix(seed ^ ((node as u64) << 40) ^ i as u64),
            }
        })
        .collect()
}

struct Rig {
    sim: Sim,
    cluster: Cluster,
    eps: Vec<Endpoint>,
    conns: [usize; 2],
}

/// Fresh rig: topology, endpoints, connection and seeded read regions.
/// Returns the per-step wall times (cluster, endpoints, connect, seed).
fn build(seed: u64, spans: Option<&Spans>) -> (Rig, [f64; 4]) {
    let read_regions = [0, 1].map(|node| fill(read_key(seed, node), 0, READ_LEN));
    let mut cfg = SystemConfig::two_link_1g_unordered(2);
    cfg.seed = seed;
    if spans.is_some() {
        cfg = cfg.with_spans(SPAN_CAP);
    }
    let sim = Sim::new(seed);
    let (cluster, t_cluster) = step(spans, "setup.cluster", || {
        build_cluster(&sim, cfg.cluster_spec())
    });
    let cfg = Rc::new(cfg);
    let (eps, t_eps) = step(spans, "setup.endpoints", || {
        Endpoint::for_cluster(&sim, &cluster, cfg)
    });
    let ((c0, c1), t_conn) = step(spans, "setup.connect", || {
        Endpoint::connect(&eps[0], &eps[1])
    });
    let ((), t_seed) = step(spans, "setup.seed", || {
        for (ep, data) in eps.iter().zip(&read_regions) {
            ep.mem_write(READ_BASE, data);
        }
    });
    let rig = Rig {
        sim,
        cluster,
        eps,
        conns: [c0, c1],
    };
    (rig, [t_cluster, t_eps, t_conn, t_seed])
}

pub fn setup(seed: u64) -> f64 {
    let (rig, t) = build(seed, None);
    rig.cluster.net.clear_handlers();
    t.iter().sum()
}

#[derive(Default)]
struct Sink {
    lat_ns: RefCell<Vec<u64>>,
    failed: Cell<u64>,
    notified: [Cell<u64>; 2],
    notified_bytes: [Cell<u64>; 2],
}

#[allow(clippy::too_many_arguments)]
async fn issuer(
    sim: Sim,
    ep: Endpoint,
    peer: Endpoint,
    conn: usize,
    node: usize,
    w: usize,
    ops: Rc<Vec<OpSpec>>,
    cursor: Rc<Cell<usize>>,
    peer_read_key: u64,
    sink: Rc<Sink>,
    spans: Option<Spans>,
) {
    let local = RBUF_BASE + w as u64 * SLOT;
    let slot = WRITE_BASE + w as u64 * SLOT;
    loop {
        let i = cursor.get();
        if i >= ops.len() {
            break;
        }
        cursor.set(i + 1);
        let op = ops[i];
        let op_id = ((node as u64) << 32) | i as u64;
        let t0 = sim.now();
        let h = if op.read {
            let f = ep.read(conn, local, READ_BASE + op.off, op.size, op.flags);
            match &spans {
                Some(s) => Timed::new(f, s.clone(), "op.issue", op_id).await,
                None => f.await,
            }
        } else {
            let f = ep.write_bytes(conn, slot, fill(op.key, 0, op.size), op.flags);
            match &spans {
                Some(s) => Timed::new(f, s.clone(), "op.issue", op_id).await,
                None => f.await,
            }
        };
        h.wait().await;
        sink.lat_ns
            .borrow_mut()
            .push(sim.now().since(t0).as_nanos());
        let ok = if op.read {
            checksum(&ep.mem_read(local, op.size))
                == fill_checksum(peer_read_key, op.off / 8, op.size)
        } else {
            checksum(&peer.mem_read(slot, op.size)) == fill_checksum(op.key, 0, op.size)
        };
        if !ok {
            sink.failed.set(sink.failed.get() + 1);
        }
    }
}

pub fn batch(seed: u64, spans: Option<&Spans>) -> Batch {
    let ops: [Rc<Vec<OpSpec>>; 2] = [Rc::new(gen_ops(seed, 0)), Rc::new(gen_ops(seed, 1))];
    let heap0 = probe::reset_peak();
    let mark = spans.map(Spans::mark);
    let (rig, t) = build(seed, spans);
    let Rig {
        sim,
        cluster,
        eps,
        conns,
    } = rig;

    let sink = Rc::new(Sink::default());
    sink.lat_ns.borrow_mut().reserve(2 * OPS_PER_NODE);
    let mut joins = Vec::new();
    for node in 0..2 {
        let cursor = Rc::new(Cell::new(0));
        for w in 0..WORKERS {
            joins.push(sim.spawn(
                "issuer",
                issuer(
                    sim.clone(),
                    eps[node].clone(),
                    eps[1 - node].clone(),
                    conns[node],
                    node,
                    w,
                    ops[node].clone(),
                    cursor.clone(),
                    read_key(seed, 1 - node),
                    sink.clone(),
                    spans.cloned(),
                ),
            ));
        }
        let (ep, sk) = (eps[node].clone(), sink.clone());
        sim.spawn("notifications", async move {
            while let Some(n) = ep.next_notification().await {
                sk.notified[node].set(sk.notified[node].get() + 1);
                sk.notified_bytes[node].set(sk.notified_bytes[node].get() + n.len as u64);
            }
        });
    }
    let end_ns = Rc::new(Cell::new(0u64));
    {
        let (s, e, closers) = (sim.clone(), end_ns.clone(), eps.clone());
        sim.spawn("closer", async move {
            for j in joins {
                j.await;
            }
            e.set(s.now().as_nanos());
            for ep in &closers {
                ep.close_notifications();
            }
        });
    }

    let a0 = probe::alloc_snap();
    let d = drive(&sim, spans);
    let a1 = probe::alloc_snap();

    let attempted = (2 * OPS_PER_NODE) as u64;
    let mut lat = std::mem::take(&mut *sink.lat_ns.borrow_mut());
    // Ops are checked at completion, so a missing completion and a failed
    // check never count the same op; a drive that did not quiesce fails too.
    let mut failed = sink.failed.get() + (attempted - lat.len() as u64);
    if !d.quiescent {
        eprintln!("CHECK FAILED: pair_mixed: simulation did not quiesce");
        failed += 1;
    }
    for node in 0..2 {
        let notifies = ops[1 - node].iter().filter(|o| o.flags.notify);
        let (n, bytes) = notifies.fold((0u64, 0u64), |(n, b), o| (n + 1, b + o.size as u64));
        if sink.notified[node].get() != n || sink.notified_bytes[node].get() != bytes {
            eprintln!(
                "CHECK FAILED: pair_mixed: node {node} got {} notifications ({} B), expected {n} ({bytes} B)",
                sink.notified[node].get(),
                sink.notified_bytes[node].get()
            );
            failed += 1;
        }
    }
    let failed = failed.min(attempted);
    if failed > 0 {
        eprintln!("CHECK FAILED: pair_mixed: {failed} op(s) failed verification");
    }

    let mut proto = eps[0].stats();
    proto.merge(&eps[1].stats());
    let cpu = eps[0].cpu();
    let (op_samples, op_p50_ns, op_p99_ns) = op_percentiles(&mut lat);
    let facts = SimFacts {
        op_samples,
        op_p50_ns,
        op_p99_ns,
        elapsed_ns: end_ns.get(),
        cpu_busy_ns: cpu.app_busy.as_nanos() + cpu.proto_busy.as_nanos(),
        cpu_nodes: 1,
        events: sim.events_executed(),
        proto,
        net: cluster.net.stats(),
        dsm: Default::default(),
    };

    let layers = match (spans, &mark) {
        (Some(sp), Some(mark)) => {
            let setup = [
                ("setup.cluster_s", t[0]),
                ("setup.endpoints_s", t[1]),
                ("setup.connect_s", t[2]),
                ("setup.seed_s", t[3]),
            ];
            let issue_ns = sp.since(mark, "op.issue").total_ns;
            traced_layers(&setup, &facts, attempted, &d, issue_ns, &eps[0])
        }
        _ => Vec::new(),
    };
    cluster.net.clear_handlers();
    Batch {
        setup_s: t.iter().sum(),
        wall_s: d.wall_s,
        ops: attempted,
        failed,
        peak_heap: probe::peak_above(heap0),
        allocs: a1.allocs - a0.allocs,
        alloc_bytes: a1.bytes - a0.bytes,
        extra_frac: facts.proto.extra_frame_fraction(),
        facts: Some(facts),
        wall_lat: None,
        layers,
    }
}
