//! `mesh64_alltoall`: the 64-node all-to-all transpose (16 KiB per ordered
//! pair, 4032 connections, 16 1-GbE rails) on one single-threaded engine.
//!
//! Op: one ordered-pair transfer, issue→completion. Each node runs eight
//! closed-loop issuers over a seeded permutation of its 63 peers, so at
//! most eight of its transfers are outstanding. After the run every
//! receiver region must equal its deterministic fill.

use crate::probe::{self, checksum, fill, fill_checksum, splitmix, step, Rng, Spans, Timed};
use crate::simwl::{drive, op_percentiles, traced_layers};
use crate::{Batch, SimFacts};
use multiedge::{Endpoint, OpFlags, SystemConfig};
use netsim::{build_cluster, Cluster, Sim};
use std::cell::{Cell, RefCell};
use std::rc::Rc;

const NODES: usize = 64;
const RAILS: usize = 16;
const BYTES: usize = 16 << 10;
const WORKERS: usize = 8;
const SPAN_CAP: usize = 1 << 13;

/// Where `writer`'s transfer lands on every receiver (disjoint per writer).
fn region_addr(writer: usize) -> u64 {
    0x10_0000 + writer as u64 * 0x8_0000
}

fn key(seed: u64, writer: usize, reader: usize) -> u64 {
    splitmix(seed ^ ((writer as u64) << 20) ^ reader as u64)
}

/// Node `node`'s peers in seeded order (Fisher–Yates).
fn peer_order(seed: u64, node: usize) -> Vec<usize> {
    let mut v: Vec<usize> = (0..NODES).filter(|&p| p != node).collect();
    Rng::new(seed ^ 0xA11_0000 ^ node as u64).shuffle(&mut v);
    v
}

struct Rig {
    sim: Sim,
    cluster: Cluster,
    eps: Vec<Endpoint>,
    /// `conns[i][j]`: connection id at node `i` toward node `j`.
    conns: Rc<Vec<Vec<usize>>>,
}

fn build(seed: u64, spans: Option<&Spans>) -> (Rig, [f64; 3]) {
    let mut cfg = SystemConfig::four_link_1g(NODES);
    cfg.rails = RAILS;
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
    let (conns, t_conn) = step(spans, "setup.connect", || {
        let mut conns = vec![vec![usize::MAX; NODES]; NODES];
        for i in 0..NODES {
            for j in (i + 1)..NODES {
                let (cij, cji) = Endpoint::connect(&eps[i], &eps[j]);
                conns[i][j] = cij;
                conns[j][i] = cji;
            }
        }
        conns
    });
    let rig = Rig {
        sim,
        cluster,
        eps,
        conns: Rc::new(conns),
    };
    (rig, [t_cluster, t_eps, t_conn])
}

pub fn setup(seed: u64) -> f64 {
    let (rig, t) = build(seed, None);
    rig.cluster.net.clear_handlers();
    t.iter().sum()
}

#[allow(clippy::too_many_arguments)]
async fn issuer(
    sim: Sim,
    ep: Endpoint,
    node: usize,
    seed: u64,
    order: Rc<Vec<usize>>,
    cursor: Rc<Cell<usize>>,
    conns: Rc<Vec<Vec<usize>>>,
    lat_ns: Rc<RefCell<Vec<u64>>>,
    spans: Option<Spans>,
) {
    loop {
        let i = cursor.get();
        if i >= order.len() {
            break;
        }
        cursor.set(i + 1);
        let peer = order[i];
        let data = fill(key(seed, node, peer), 0, BYTES);
        let t0 = sim.now();
        let f = ep.write_bytes(conns[node][peer], region_addr(node), data, OpFlags::RELAXED);
        let h = match &spans {
            Some(s) => {
                Timed::new(
                    f,
                    s.clone(),
                    "op.issue",
                    ((node as u64) << 32) | peer as u64,
                )
                .await
            }
            None => f.await,
        };
        h.wait().await;
        lat_ns.borrow_mut().push(sim.now().since(t0).as_nanos());
    }
}

pub fn batch(seed: u64, spans: Option<&Spans>) -> Batch {
    let orders: Vec<Rc<Vec<usize>>> = (0..NODES).map(|n| Rc::new(peer_order(seed, n))).collect();
    let heap0 = probe::reset_peak();
    let mark = spans.map(Spans::mark);
    let (rig, t) = build(seed, spans);
    let Rig {
        sim,
        cluster,
        eps,
        conns,
    } = rig;
    let attempted = (NODES * (NODES - 1)) as u64;
    let lat_ns = Rc::new(RefCell::new(Vec::with_capacity(attempted as usize)));
    let mut joins = Vec::new();
    for (node, order) in orders.iter().enumerate() {
        let cursor = Rc::new(Cell::new(0));
        for _ in 0..WORKERS {
            joins.push(sim.spawn(
                "issuer",
                issuer(
                    sim.clone(),
                    eps[node].clone(),
                    node,
                    seed,
                    order.clone(),
                    cursor.clone(),
                    conns.clone(),
                    lat_ns.clone(),
                    spans.cloned(),
                ),
            ));
        }
    }
    let end_ns = Rc::new(Cell::new(0u64));
    {
        let (s, e) = (sim.clone(), end_ns.clone());
        sim.spawn("closer", async move {
            for j in joins {
                j.await;
            }
            e.set(s.now().as_nanos());
        });
    }

    let a0 = probe::alloc_snap();
    let d = drive(&sim, spans);
    let a1 = probe::alloc_snap();

    let mut lat = std::mem::take(&mut *lat_ns.borrow_mut());
    let mut wrong = 0;
    for (reader, ep) in eps.iter().enumerate() {
        for writer in (0..NODES).filter(|&w| w != reader) {
            let got = checksum(&ep.mem_read(region_addr(writer), BYTES));
            if got != fill_checksum(key(seed, writer, reader), 0, BYTES) {
                wrong += 1;
            }
        }
    }
    // A transfer that never completed usually leaves its region wrong too:
    // count the larger set, so no transfer counts twice.
    let mut failed = (attempted - lat.len() as u64).max(wrong);
    if !d.quiescent {
        eprintln!("CHECK FAILED: mesh64_alltoall: simulation did not quiesce");
        failed = (failed + 1).min(attempted);
    }
    if failed > 0 {
        eprintln!("CHECK FAILED: mesh64_alltoall: {failed} transfer(s) failed verification");
    }

    let mut proto = multiedge::ProtoStats::default();
    let mut cpu_busy = 0;
    for ep in &eps {
        proto.merge(&ep.stats());
        let c = ep.cpu();
        cpu_busy += c.app_busy.as_nanos() + c.proto_busy.as_nanos();
    }
    let (op_samples, op_p50_ns, op_p99_ns) = op_percentiles(&mut lat);
    let facts = SimFacts {
        op_samples,
        op_p50_ns,
        op_p99_ns,
        elapsed_ns: end_ns.get(),
        cpu_busy_ns: cpu_busy,
        cpu_nodes: NODES as u64,
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
