//! `dsm_radix16`: the Radix kernel on 2^20 keys, 16 nodes, 2Lu-1G, through
//! `DsmCluster` — page fetches are remote reads, diffs are remote writes,
//! locks and barriers are notifications.
//!
//! Op: one key sorted. Radix checks its own result against a sorted copy
//! and panics on a mismatch; the panic is caught and every key of the
//! batch counts as failed. The seed reaches the engine (link jitter) and
//! the fault streams; the kernel generates its keys itself.

use crate::probe::{self, step, time_opt, Spans};
use crate::simwl::{engine_net_layers, proto_layers};
use crate::{Batch, SimFacts};
use apps::Workload as _;
use dsm::DsmCluster;
use multiedge::SystemConfig;
use netsim::Sim;
use std::time::Instant;

const NODES: usize = 16;
const KEYS: usize = 1 << 20;

fn config(seed: u64) -> SystemConfig {
    let mut cfg = SystemConfig::two_link_1g_unordered(NODES);
    cfg.seed = seed;
    cfg
}

/// Release a cluster that never ran: stop its service tasks, let them
/// finish, and break the network↔endpoint reference cycle.
fn dispose(dsm: &DsmCluster) {
    dsm.shutdown();
    dsm.sim.run();
    dsm.cluster.net.clear_handlers();
}

pub fn setup(seed: u64) -> f64 {
    let t0 = Instant::now();
    let sim = Sim::new(seed);
    let dsm = DsmCluster::build(&sim, config(seed));
    let t = t0.elapsed().as_secs_f64();
    dispose(&dsm);
    t
}

pub fn batch(seed: u64, spans: Option<&Spans>) -> Batch {
    let heap0 = probe::reset_peak();
    let sim = Sim::new(seed);
    let (dsm, t_build) = step(spans, "setup.dsm_build", || {
        DsmCluster::build(&sim, config(seed))
    });
    let app = apps::radix::Radix { keys: KEYS };
    let a0 = probe::alloc_snap();
    let t0 = Instant::now();
    let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        time_opt(spans, "workload.run", || app.run(&dsm))
    }));
    let wall_s = t0.elapsed().as_secs_f64();
    let a1 = probe::alloc_snap();
    let attempted = KEYS as u64;
    let (elapsed_ns, failed) = match run {
        Ok(ns) => (ns, 0),
        Err(_) => {
            eprintln!("CHECK FAILED: dsm_radix16: Radix verification panicked");
            (0, attempted)
        }
    };

    let proto = dsm.proto_stats();
    let dstats = dsm.dsm_stats();
    let cpu_busy: u64 = dsm
        .endpoints
        .iter()
        .map(|ep| {
            let c = ep.cpu();
            c.app_busy.as_nanos() + c.proto_busy.as_nanos()
        })
        .sum();
    let facts = SimFacts {
        op_samples: 0,
        op_p50_ns: 0,
        op_p99_ns: 0,
        elapsed_ns,
        cpu_busy_ns: cpu_busy,
        cpu_nodes: NODES as u64,
        events: sim.events_executed(),
        proto,
        net: dsm.cluster.net.stats(),
        dsm: dstats,
    };

    let mut layers = Vec::new();
    if spans.is_some() {
        layers.push(("setup.dsm_build_s", t_build));
        layers.extend(engine_net_layers(
            facts.events,
            &facts.net,
            attempted,
            wall_s,
            None,
        ));
        layers.extend(proto_layers(&proto, attempted, 0));
        let b = me_stats::Breakdown::average(&dsm.breakdowns(elapsed_ns));
        layers.extend([
            ("dsm.page_fetches", dstats.page_fetches as f64),
            ("dsm.diff_ops", dstats.diff_ops as f64),
            ("dsm.diff_bytes", dstats.diff_bytes as f64),
            ("dsm.lock_acquires", dstats.lock_acquires as f64),
            ("dsm.barriers", dstats.barriers as f64),
            ("dsm.invalidations", dstats.invalidations as f64),
            ("dsm.compute_pct", 100.0 * b.frac(b.compute_ns)),
            ("dsm.data_wait_pct", 100.0 * b.frac(b.data_wait_ns)),
            ("dsm.sync_pct", 100.0 * b.frac(b.sync_ns)),
            ("dsm.protocol_pct", 100.0 * b.frac(b.protocol_ns)),
        ]);
    }
    dsm.cluster.net.clear_handlers();
    Batch {
        setup_s: t_build,
        wall_s,
        ops: attempted,
        failed,
        peak_heap: probe::peak_above(heap0),
        allocs: a1.allocs - a0.allocs,
        alloc_bytes: a1.bytes - a0.bytes,
        extra_frac: proto.extra_frame_fraction(),
        facts: Some(facts),
        wall_lat: None,
        layers,
    }
}
