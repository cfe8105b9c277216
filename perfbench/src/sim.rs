//! `sim_flood`: the F21 configuration — 10,000 simulated nodes under
//! `P2pConfig::for_scale`, radius-24 routed floods — timed on the wall
//! clock. `SimNetwork::run_query` hands back the whole answer at once, so a
//! caller's first result arrives with its last: TTFR = TTLR = flood wall.

use crate::report::{distribution, Report};
use crate::stats::{median, quiet, tail_of, window_mix_medians, Digest, Rng, LIMIT_TAIL};
use crate::sys::cpu_seconds;
use crate::SETUP_REPEATS;
use serde_json::json;
use std::time::Instant;
use wsda_net::model::NetworkModel;
use wsda_net::NodeId;
use wsda_pdp::{ResponseMode, Scope};
use wsda_registry::clock::Time;
use wsda_registry::Freshness;
use wsda_updf::{P2pConfig, QueryMetrics, QueryRun, SimNetwork, Topology};
use wsda_xq::Query;

const NODES: usize = 10_000;
const RADIUS: u32 = 24;
/// ~10% selectivity: traversal and merge, not bulk result shipping.
const QUERY: &str = r#"//service[interface/@type = "ReplicaCatalog-2.0"]/owner"#;
/// Wall-clock limit on the flood tail for the closed-loop flood rate.
const LIMIT_MS: f64 = 5_000.0;
/// Seconds per window of the end-to-end figures, as in the live workloads.
const WINDOW_S: f64 = 1.0;
/// Floods always timed, however short `--seconds` is: the tail needs 11.
const MIN_FLOODS: usize = 11;

fn scope() -> Scope {
    Scope {
        radius: Some(RADIUS),
        abort_timeout_ms: 1 << 40,
        loop_timeout_ms: 1 << 41,
        ..Scope::default()
    }
}

fn build(seed: u64) -> SimNetwork {
    SimNetwork::build(
        Topology::random_connected(NODES, 3.0, seed),
        NetworkModel::constant(5),
        P2pConfig::for_scale(),
    )
}

/// A flood's counters with its absolute virtual timestamps dropped: the
/// network clock keeps running between floods, so only durations and
/// counts can repeat exactly.
fn counters(run: &QueryRun) -> QueryMetrics {
    let m = &run.metrics;
    let span = |t: Option<Time>| {
        t.map(|t| t.millis().saturating_sub(m.time_first_result.map_or(0, |f| f.millis())))
    };
    QueryMetrics {
        time_first_result: None,
        time_last_result: span(m.time_last_result).map(Time),
        time_completed: span(m.time_completed).map(Time),
        ..m.clone()
    }
}

/// One flood, with its wall-clock and CPU milliseconds.
fn flood(net: &mut SimNetwork, origin: NodeId) -> (QueryRun, f64, f64) {
    let cpu0 = cpu_seconds();
    let started = Instant::now();
    let run = net.run_query(origin, QUERY, scope(), ResponseMode::Routed);
    (run, started.elapsed().as_secs_f64() * 1e3, (cpu_seconds() - cpu0) * 1e3)
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::new();
    let origin = NodeId(Rng::new(seed ^ 0x0F).below(NODES) as u32);
    // Set-up: network build plus an untimed warm-up flood that
    // materializes every lazy registry, repeated; the last one is kept.
    let mut setup_s = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPEATS {
        drop(kept.take());
        let started = Instant::now();
        let mut net = build(seed);
        let (warm, _, _) = flood(&mut net, origin);
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some((net, warm));
    }
    let (mut net, warm) = kept.expect("at least one setup");

    let started = Instant::now();
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let mut runs = Vec::new();
    let mut timed = Vec::new();
    while walls.len() < MIN_FLOODS || started.elapsed().as_secs_f64() < seconds {
        let at = started.elapsed().as_secs_f64();
        let (run, ms, cpu_ms) = flood(&mut net, origin);
        timed.push((at, ms, cpu_ms));
        walls.push(ms);
        cpus.push(cpu_ms);
        runs.push(run);
    }
    let window_s = started.elapsed().as_secs_f64();

    // Correctness: every timed flood repeats the first one's results and
    // counters exactly (the warm-up flood differs only by materializing
    // registries), evaluates exactly the nodes within the radius, and
    // returns the union of their local answers.
    let within =
        net.topology().distances_from(origin).iter().filter(|&&d| d <= RADIUS).count() as u64;
    let q = Query::parse(QUERY).expect("flood query parses");
    let mut truth = Digest::default();
    for (i, &d) in net.topology().distances_from(origin).iter().enumerate() {
        if d <= RADIUS {
            let out =
                net.registry(NodeId(i as u32)).query(&q, &Freshness::any()).expect("ground truth");
            for item in crate::fed::render(&out) {
                truth.add(&item);
            }
        }
    }
    let failed = runs
        .iter()
        .filter(|r| {
            r.results != runs[0].results
                || counters(r) != counters(&runs[0])
                || r.results != warm.results
                || r.metrics.nodes_evaluated != within
                || Digest::of(&r.results) != truth
                || !matches!(r.completeness, wsda_updf::Completeness::Complete)
        })
        .count();
    report.tally(runs.len(), failed);
    report.correct = failed == 0;

    report.note(
        "params",
        json!({
            "nodes": NODES,
            "topology": "random_connected(10000, 3.0, seed)",
            "config": "P2pConfig::for_scale()",
            "model": "NetworkModel::constant(5)",
            "radius": RADIUS,
            "query": QUERY,
            "origin": origin.0,
            "loop": "closed, one flood at a time",
            "seconds": seconds,
        }),
    );
    report.note("setup_s", distribution(&setup_s));
    report.note("setup_repeats", json!(setup_s.len()));
    report.note("flood_wall_ms", distribution(&walls));
    report.note("flood_cpu_ms", distribution(&cpus));
    report.note("nodes_within_radius", json!(within));
    report.note("ttfr_note", json!("run_query returns the answer whole: ttfr = ttlr = flood wall"));

    let p50 = median(&walls);
    let tail_ms = tail_of(&walls, LIMIT_TAIL);
    report.note("flood_wall_p90_ms", json!(tail_ms));
    let rate = if tail_ms <= LIMIT_MS { walls.len() as f64 / window_s } else { 0.0 };
    report.note("max_qps_under_slo", json!(rate));
    if !traced {
        report.e2e("setup_s", median(&setup_s), "s");
        // Floods grouped into the flood workloads' windows: the quiet
        // quarter of each window's median.
        let wall: Vec<_> = timed.iter().map(|&(t, ms, _)| (t, 0, ms)).collect();
        let cpu: Vec<_> = timed.iter().map(|&(t, _, ms)| (t, 0, ms)).collect();
        let wall_ms = quiet(&window_mix_medians(&wall, WINDOW_S));
        report.e2e("ttfr_p50_ms", wall_ms, "ms");
        report.e2e("ttlr_p50_ms", wall_ms, "ms");
        report.e2e("cpu_ms_per_query", quiet(&window_mix_medians(&cpu, WINDOW_S)), "ms");
        report.e2e("peak_rss_mb", crate::sys::peak_rss_mb(), "MB");
        return report;
    }
    let m = &warm.metrics;
    report.layer(
        "sim.messages_per_flood",
        m.messages_by_kind.values().sum::<u64>() as f64,
        "count",
    );
    report.layer("sim.nodes_evaluated_per_flood", m.nodes_evaluated as f64, "count");
    report.layer("sim.timers_high_water", net.timers_high_water() as f64, "count");
    report.layer("sim.flood_wall_ms_p50", p50, "ms");
    report
}
