//! End-to-end and per-layer benchmark of the MultiEdge reproduction.
//!
//! ```text
//! perfbench --workload <pair_mixed|mesh64_alltoall|dsm_radix16|udp_pingpong>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload is a closed loop over inputs generated from `--seed`.
//! A run repeats *batches* — one fresh set-up plus one fixed measured
//! section — until `--seconds` are spent, timing extra fresh set-ups
//! between batches. Wall metrics report the fastest twentieth of batches or
//! set-ups (see `WALL_QUANTILE`; on `udp_pingpong`, see `RtModes`);
//! simulated-time metrics
//! come from the first batch and must repeat bit for bit in every other
//! batch of the same seed. `--trace 1` adds a traced pass (bench-owned
//! spans, timing wrappers, span attribution) for the per-layer metrics,
//! checks that its simulated-time facts equal the untraced pass's, and
//! verifies one batch of a second seed. The last stdout line is one JSON
//! object; `NOTES.md` explains the workloads and metrics.

mod dsmwl;
mod mesh;
mod pair;
mod probe;
mod simwl;
mod udp;

use probe::{median, quantile, Spans};
use std::collections::BTreeMap;
use std::time::Instant;

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

/// Deterministic simulated-time facts of one batch. Observational probes
/// must leave every field bit-identical.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SimFacts {
    /// Per-op issue→completion samples (0 where ops have no latency).
    pub op_samples: u64,
    pub op_p50_ns: u64,
    pub op_p99_ns: u64,
    /// Simulated duration of the measured section.
    pub elapsed_ns: u64,
    /// App+protocol CPU busy time summed over `cpu_nodes` nodes.
    pub cpu_busy_ns: u64,
    pub cpu_nodes: u64,
    pub events: u64,
    pub proto: multiedge::ProtoStats,
    pub net: netsim::NetStats,
    pub dsm: dsm::DsmStats,
}

impl SimFacts {
    /// Mean per-node app+protocol CPU use, in % of the node's two CPUs.
    pub fn cpu_util_pct(&self) -> f64 {
        100.0 * self.cpu_busy_ns as f64 / (self.elapsed_ns as f64 * self.cpu_nodes as f64)
    }
}

/// What one batch yields.
#[derive(Debug, Default)]
pub struct Batch {
    /// Wall seconds of this batch's fresh set-up.
    pub setup_s: f64,
    /// Wall seconds of the measured section.
    pub wall_s: f64,
    /// Ops attempted and failed in the measured section.
    pub ops: u64,
    pub failed: u64,
    /// Peak live heap during the batch.
    pub peak_heap: u64,
    /// Allocations during the measured section.
    pub allocs: u64,
    pub alloc_bytes: u64,
    /// Simulated-time facts (`None` on the wall-clock workload).
    pub facts: Option<SimFacts>,
    /// Explicit ACKs + NACKs + retransmits over data frames.
    pub extra_frac: f64,
    /// Wall-clock op latency percentiles (ns) and sample count.
    pub wall_lat: Option<(u64, u64, u64)>,
    /// Per-layer values (traced batches only).
    pub layers: Vec<(&'static str, f64)>,
}

/// A workload: a timed fresh set-up, and a full batch.
pub struct Workload {
    pub name: &'static str,
    pub setup: fn(seed: u64) -> f64,
    pub batch: fn(seed: u64, spans: Option<&Spans>) -> Batch,
}

const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "pair_mixed",
        setup: pair::setup,
        batch: pair::batch,
    },
    Workload {
        name: "mesh64_alltoall",
        setup: mesh::setup,
        batch: mesh::batch,
    },
    Workload {
        name: "dsm_radix16",
        setup: dsmwl::setup,
        batch: dsmwl::batch,
    },
    Workload {
        name: "udp_pingpong",
        setup: udp::setup,
        batch: udp::batch,
    },
];

/// Every per-layer metric with its unit. All are reported on every
/// workload; a layer the workload does not run reports 0.
const LAYER_METRICS: &[(&str, &str)] = &[
    ("setup.cluster_s", "s"),
    ("setup.endpoints_s", "s"),
    ("setup.connect_s", "s"),
    ("setup.seed_s", "s"),
    ("setup.dsm_build_s", "s"),
    ("engine.events_per_op", "count"),
    ("engine.ns_per_event", "ns"),
    ("engine.pending_peak", "count"),
    ("engine.pending_mean", "count"),
    ("net.frames_per_op", "count"),
    ("net.frames_per_wall_s", "1/s"),
    ("net.bytes_per_op", "B"),
    ("net.drops_overflow", "count"),
    ("proto.issue_ns_per_op", "ns"),
    ("proto.data_frames_per_op", "count"),
    ("proto.acks_per_data_frame", "ratio"),
    ("proto.nacks", "count"),
    ("proto.retransmits", "count"),
    ("proto.useful_frame_ratio", "ratio"),
    ("proto.ooo_fraction", "ratio"),
    ("proto.rx_irq_fraction", "ratio"),
    ("proto.reorder_peak", "count"),
    ("phase.host_issue_us", "us"),
    ("phase.send_window_us", "us"),
    ("phase.retransmit_us", "us"),
    ("phase.rail_queue_us", "us"),
    ("phase.wire_us", "us"),
    ("phase.rx_process_us", "us"),
    ("phase.reorder_us", "us"),
    ("phase.fence_us", "us"),
    ("phase.ack_delay_us", "us"),
    ("phase.ack_return_us", "us"),
    ("phase.complete_wake_us", "us"),
    ("wire.poll_self_ns_per_op", "ns"),
    ("wire.write_self_ns_per_op", "ns"),
    ("wire.polls_per_op", "count"),
    ("wire.empty_poll_ratio", "ratio"),
    ("wire.idle_wait_us_per_op", "us"),
    ("udp.send_ns_per_frame", "ns"),
    ("udp.next_ns_per_frame", "ns"),
    ("udp.empty_next_per_op", "count"),
    ("udp.advance_calls_per_op", "count"),
    ("udp.rx_drops", "count"),
    ("codec.encode_ns_per_frame", "ns"),
    ("codec.decode_ns_per_frame", "ns"),
    ("dsm.page_fetches", "count"),
    ("dsm.diff_ops", "count"),
    ("dsm.diff_bytes", "B"),
    ("dsm.lock_acquires", "count"),
    ("dsm.barriers", "count"),
    ("dsm.invalidations", "count"),
    ("dsm.compute_pct", "%"),
    ("dsm.data_wait_pct", "%"),
    ("dsm.sync_pct", "%"),
    ("dsm.protocol_pct", "%"),
    ("alloc.per_op", "count"),
    ("alloc.bytes_per_op", "B"),
    ("trace.overhead_pct", "%"),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = val.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// Share of a pass spent on extra timed set-ups. They run between
/// batches, so set-up is sampled across the whole run as batches are.
const SETUP_SHARE: f64 = 0.05;

/// One pass: batches until `budget_s` is spent (at least one), and the
/// set-up samples taken along the way (each batch's own plus the extra).
struct Pass {
    batches: Vec<Batch>,
    setups: Vec<f64>,
}

fn run_pass(w: &Workload, seed: u64, budget_s: f64, spans: Option<&Spans>) -> Pass {
    let t0 = Instant::now();
    let (mut batches, mut setups, mut setup_wall) = (Vec::new(), Vec::new(), 0.0);
    // Start another batch only if at least half of it fits the budget, so
    // a run lasts about `budget_s` even when batches take seconds.
    let mut last_s = 0.0;
    while batches.is_empty() || t0.elapsed().as_secs_f64() + last_s / 2.0 < budget_s {
        let tb = Instant::now();
        let b = (w.batch)(seed, spans);
        setups.push(b.setup_s);
        batches.push(b);
        while setups.len() < 5 || setup_wall < SETUP_SHARE * t0.elapsed().as_secs_f64() {
            let t = Instant::now();
            setups.push((w.setup)(seed));
            setup_wall += t.elapsed().as_secs_f64();
        }
        last_s = tb.elapsed().as_secs_f64();
    }
    Pass { batches, setups }
}

/// Determinism check: every batch's simulated-time facts equal `first`'s.
fn facts_repeat(what: &str, first: &Batch, batches: &[Batch]) -> bool {
    match batches.iter().find(|b| b.facts != first.facts) {
        None => true,
        Some(b) => {
            eprintln!(
                "DETERMINISM CHECK FAILED: {what}\n  first {:?}\n  other {:?}",
                first.facts, b.facts
            );
            false
        }
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        eprintln!(
            "perfbench: unknown workload {}; expected one of {:?}",
            args.workload,
            WORKLOADS.map(|w| w.name)
        );
        std::process::exit(2);
    };
    let wall0 = Instant::now();

    let pass_budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let Pass {
        batches: plain,
        setups,
    } = run_pass(w, args.seed, pass_budget, None);
    let mut deterministic = facts_repeat("batches of one seed differ", &plain[0], &plain);
    let mut attempted: u64 = plain.iter().map(|b| b.ops).sum();
    let mut failed: u64 = plain.iter().map(|b| b.failed).sum();
    report_end_to_end(w.name, &plain, &setups, attempted, failed);
    let metrics = if args.trace {
        let traced = traced_run(w, args.seed, pass_budget, &plain);
        deterministic &= traced.deterministic;
        attempted += traced.attempted;
        failed += traced.failed;
        traced.metrics
    } else {
        end_to_end_json(&plain, &setups)
    };

    // Output checks decide `correct`; determinism is its own verdict.
    let correct = failed == 0;
    if plain[0].facts.is_some() {
        println!(
            "check: determinism {} (simulated-time facts bit-identical across every batch{})",
            if deterministic { "PASS" } else { "FAIL" },
            if args.trace {
                ", traced and untraced"
            } else {
                ""
            }
        );
    } else {
        println!("check: determinism n/a (wall-clock workload)");
    }
    println!(
        "run: workload {} seed {} trace {} wall {:.2}s correct {correct}",
        w.name,
        args.seed,
        u8::from(args.trace),
        wall0.elapsed().as_secs_f64()
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(k, v, u)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

/// What the traced part of a `--trace 1` run adds.
struct Traced {
    metrics: Vec<(&'static str, f64, &'static str)>,
    deterministic: bool,
    attempted: u64,
    failed: u64,
}

/// The traced pass, compared against the untraced `plain` pass of the same
/// seed, plus one verified batch of a second seed; yields every per-layer
/// metric and writes the bench-owned spans out.
fn traced_run(w: &Workload, seed: u64, budget_s: f64, plain: &[Batch]) -> Traced {
    let spans = Spans::new();
    let traced = run_pass(w, seed, budget_s, Some(&spans)).batches;
    let deterministic = facts_repeat("traced facts differ from untraced", &plain[0], &traced);
    let other_seed = seed.wrapping_add(0x5EED);
    let other = (w.batch)(other_seed, None);
    println!(
        "check: second seed {other_seed} verified: {} of {} ops failed",
        other.failed, other.ops
    );
    let all = traced.iter().chain(std::iter::once(&other));
    let (attempted, failed) = all.fold((0, 0), |(a, f), b| (a + b.ops, f + b.failed));
    let path = std::path::Path::new("perfbench/out").join(format!("spans-{}-{seed}.jsonl", w.name));
    match spans.write_jsonl(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => eprintln!("warning: could not write {}: {e}", path.display()),
    }

    let mut layers: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for b in &traced {
        for &(k, v) in &b.layers {
            layers.entry(k).or_default().push(v);
        }
    }
    let overhead = 100.0 * (ops_per_wall_s(plain) / ops_per_wall_s(&traced) - 1.0);
    layers.insert("trace.overhead_pct", vec![overhead]);
    // Allocations are counted in the untraced pass: tracing allocates.
    let ops = plain[0].ops.max(1) as f64;
    let per_op =
        |f: fn(&Batch) -> u64| median(&plain.iter().map(|b| f(b) as f64 / ops).collect::<Vec<_>>());
    layers.insert("alloc.per_op", vec![per_op(|b| b.allocs)]);
    layers.insert("alloc.bytes_per_op", vec![per_op(|b| b.alloc_bytes)]);
    let unknown: Vec<_> = layers
        .keys()
        .filter(|k| !LAYER_METRICS.iter().any(|(n, _)| n == *k))
        .collect();
    assert!(unknown.is_empty(), "unlisted layer metrics {unknown:?}");

    println!(
        "per-layer metrics ({}, traced pass of {} batch(es)):",
        w.name,
        traced.len()
    );
    let metrics = LAYER_METRICS
        .iter()
        .map(|&(name, unit)| {
            let v = layers.get(name).map_or(0.0, |v| median(v));
            println!("  {name:<28} {v:>16.4} {unit}");
            (name, v, unit)
        })
        .collect();
    Traced {
        metrics,
        deterministic,
        attempted,
        failed,
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// Share of batches slower than the one a wall metric reports. Other
/// tenants' load only ever slows a batch down, so the fastest twentieth
/// of batches estimates the uncontended speed; the median moves with how
/// much of a run was contended.
const WALL_QUANTILE: f64 = 0.95;

/// Loopback UDP round trips run in one of two latency modes, and the host
/// switches between them every few seconds (at 64 B on 2 rails, about 13
/// and 19 µs on the machine this was built on). Every fabric alive at one
/// moment is in the same mode, so the kernel path differs, not the
/// program. A run may lack the fast mode for all of its length, and then
/// the fastest twentieth would jump by a third; the slow mode was present
/// in every run seen so far, so `udp_pingpong`'s wall metrics come from the
/// fastest quarter of its slow-mode batches (`SLOW_MODE_QUANTILE`), with
/// the fast mode's share and latency printed beside them.
struct RtModes {
    /// Whether each batch is in the slow mode (all of them if unimodal).
    slow: Vec<bool>,
}

/// A run is bimodal when Otsu's split of its batches' log p50 separates
/// modes at least this far apart (ratio of the modes' geometric means)...
const MODE_RATIO: f64 = 1.2;
/// ...and each side holds at least this share of the batches.
const MODE_MIN_SHARE: f64 = 0.05;
/// Rate quantile taken within the slow mode: its fastest quarter, which
/// other tenants' load (it only slows batches) moves least.
const SLOW_MODE_QUANTILE: f64 = 0.75;

impl RtModes {
    /// Classify batches by their wall round-trip p50; `None` on workloads
    /// without wall latencies.
    fn of(batches: &[Batch]) -> Option<Self> {
        let p50: Vec<u64> = batches
            .iter()
            .map(|b| b.wall_lat.map(|l| l.0))
            .collect::<Option<_>>()?;
        let mut logs: Vec<(f64, usize)> = p50
            .iter()
            .enumerate()
            .map(|(i, &v)| ((v.max(1) as f64).ln(), i))
            .collect();
        logs.sort_by(|a, b| a.0.total_cmp(&b.0));
        // Otsu: the cut that maximises the between-mode variance.
        let n = logs.len();
        let total: f64 = logs.iter().map(|l| l.0).sum();
        let (mut low, mut best, mut cut, mut ratio) = (0.0, 0.0, 0, 1.0);
        for k in 1..n {
            low += logs[k - 1].0;
            let (m1, m2) = (low / k as f64, (total - low) / (n - k) as f64);
            let between = (k * (n - k)) as f64 * (m2 - m1).powi(2);
            if between > best {
                (best, cut, ratio) = (between, k, (m2 - m1).exp());
            }
        }
        let min_side = (MODE_MIN_SHARE * n as f64).ceil() as usize;
        let mut slow = vec![true; n];
        if ratio >= MODE_RATIO && cut >= min_side && n - cut >= min_side {
            for &(_, i) in &logs[..cut] {
                slow[i] = false;
            }
        }
        Some(Self { slow })
    }

    fn slow_batches(&self) -> usize {
        self.slow.iter().filter(|s| **s).count()
    }

    fn fast_share(&self) -> f64 {
        1.0 - self.slow_batches() as f64 / self.slow.len() as f64
    }

    /// The values of the batches in one mode.
    fn pick(&self, values: &[f64], slow: bool) -> Vec<f64> {
        values
            .iter()
            .zip(&self.slow)
            .filter(|(_, s)| **s == slow)
            .map(|(v, _)| *v)
            .collect()
    }
}

/// The gated end-to-end metrics: defined on every workload and never 0.
fn end_to_end_json(plain: &[Batch], setups: &[f64]) -> Vec<(&'static str, f64, &'static str)> {
    let e = EndToEnd::of(plain, setups);
    vec![
        ("setup_s", e.setup_s, "s"),
        ("ops_per_wall_s", e.ops_per_wall_s, "1/s"),
        ("peak_heap_mb", e.peak_heap_mb, "MB"),
        ("extra_traffic_pct", e.extra_traffic_pct, "%"),
    ]
}

/// The wall op rate of a pass: the fastest twentieth of its batches, or on
/// the UDP round trip the fastest quarter of its slow-mode batches.
fn ops_per_wall_s(batches: &[Batch]) -> f64 {
    let rates: Vec<f64> = batches.iter().map(|b| b.ops as f64 / b.wall_s).collect();
    match RtModes::of(batches) {
        Some(m) => quantile(&m.pick(&rates, true), SLOW_MODE_QUANTILE),
        None => quantile(&rates, WALL_QUANTILE),
    }
}

struct EndToEnd {
    setup_s: f64,
    ops_per_wall_s: f64,
    peak_heap_mb: f64,
    extra_traffic_pct: f64,
}

impl EndToEnd {
    fn of(plain: &[Batch], setups: &[f64]) -> Self {
        let col = |f: &dyn Fn(&Batch) -> f64| plain.iter().map(f).collect::<Vec<_>>();
        Self {
            setup_s: quantile(setups, 1.0 - WALL_QUANTILE),
            ops_per_wall_s: ops_per_wall_s(plain),
            peak_heap_mb: median(&col(&|b| b.peak_heap as f64 / 1e6)),
            extra_traffic_pct: median(&col(&|b| 100.0 * b.extra_frac)),
        }
    }
}

/// Print all twelve end-to-end metrics that apply to this workload, by
/// name, with unit and sample count.
fn report_end_to_end(name: &str, plain: &[Batch], setups: &[f64], attempted: u64, failed: u64) {
    let e = EndToEnd::of(plain, setups);
    let n = plain.len();
    let modes = RtModes::of(plain);
    let wall_note = match &modes {
        Some(m) => format!(
            "fastest quarter of the slow mode's {} of {n} batches",
            m.slow_batches()
        ),
        None => format!("fastest twentieth of {n} batches"),
    };
    println!("end-to-end metrics ({name}):");
    let line =
        |k: &str, v: f64, u: &str, note: &str| println!("  {k:<20} {v:>18.9e} {u:<4} {note}");
    line(
        "setup_s",
        e.setup_s,
        "s",
        &format!("fastest twentieth of {} set-ups", setups.len()),
    );
    line("ops_per_wall_s", e.ops_per_wall_s, "1/s", &wall_note);
    let rates: Vec<f64> = plain.iter().map(|b| b.ops as f64 / b.wall_s).collect();
    println!(
        "    per batch: min {:.1} q1 {:.1} median {:.1} q3 {:.1} max {:.1}",
        quantile(&rates, 0.0),
        quantile(&rates, 0.25),
        quantile(&rates, 0.5),
        quantile(&rates, 0.75),
        quantile(&rates, 1.0)
    );
    line(
        "peak_heap_mb",
        e.peak_heap_mb,
        "MB",
        &format!("median of {n} batches"),
    );
    if let Some(f) = &plain[0].facts {
        if f.op_samples > 0 {
            let note = format!("n={}", f.op_samples);
            line("sim_op_p50_us", f.op_p50_ns as f64 / 1e3, "us", &note);
            line("sim_op_p99_us", f.op_p99_ns as f64 / 1e3, "us", &note);
        }
        line("sim_elapsed_ms", f.elapsed_ns as f64 / 1e6, "ms", "");
        line(
            "cpu_util_pct",
            f.cpu_util_pct(),
            "%",
            &format!("of 200, {} node(s)", f.cpu_nodes),
        );
    }
    line(
        "extra_traffic_pct",
        e.extra_traffic_pct,
        "%",
        &format!("median of {n} batches"),
    );
    if let Some(m) = &modes {
        let lats: Vec<(u64, u64, u64)> = plain.iter().filter_map(|b| b.wall_lat).collect();
        let col = |f: fn(&(u64, u64, u64)) -> u64| {
            lats.iter().map(|l| f(l) as f64 / 1e3).collect::<Vec<_>>()
        };
        let fastest = |v: Vec<f64>| quantile(&v, 1.0 - SLOW_MODE_QUANTILE);
        let note = format!("{wall_note}, n={} each", lats[0].2);
        let (p50, p99) = (col(|l| l.0), col(|l| l.1));
        line("wall_op_p50_us", fastest(m.pick(&p50, true)), "us", &note);
        line("wall_op_p99_us", fastest(m.pick(&p99, true)), "us", &note);
        let fast = m.pick(&p50, false);
        println!(
            "    fast-mode batch share: {:.4} (p50 {} us)",
            m.fast_share(),
            if fast.is_empty() {
                "-".to_string()
            } else {
                format!("{:.2}", fastest(fast))
            }
        );
        println!("    p50 per batch (us): {}", fmt_modes(&p50));
    }
    let pct = 100.0 * failed as f64 / attempted.max(1) as f64;
    line("op_fail_pct", pct, "%", &format!("{failed} of {attempted}"));
}

/// Histogram of per-batch values in 1-unit bins: exposes latency modes.
fn fmt_modes(values: &[f64]) -> String {
    let mut bins: BTreeMap<i64, usize> = BTreeMap::new();
    for v in values {
        *bins.entry(v.floor() as i64).or_default() += 1;
    }
    bins.iter()
        .map(|(b, c)| format!("[{b},{})x{c}", b + 1))
        .collect::<Vec<_>>()
        .join(" ")
}
