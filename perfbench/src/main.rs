//! perfbench — the discovery benchmark.
//!
//! ```text
//! perfbench --workload <lookup_tcp|scan_mix|publish_mix|sim_flood>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds its inputs from the seed, measures for about `--seconds`, checks
//! every answer against ground truth, and prints two JSON lines: run
//! metadata (host, parameters, distributions), then the result object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end set; with `--trace 1` the per-layer set,
//! from a separate traced run. See `README.md` beside this crate.

mod fed;
mod flood;
mod publish;
mod report;
mod sim;
mod stats;
mod sys;
mod trace;

use report::Report;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;

/// Where runs leave spans and WAL directories: inside the build directory
/// the benchmark already owns.
pub fn work_dir() -> PathBuf {
    let base = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| ".bench_build".into());
    PathBuf::from(base).join("perfbench")
}

/// Every per-layer metric, with its unit; a workload that does not report
/// one prints 0 for it and names it under `not_applicable`.
const PER_LAYER: &[(&str, &str)] = &[
    ("net.frames_per_query", "count"),
    ("net.frames_per_query.query", "count"),
    ("net.frames_per_query.results", "count"),
    ("net.frames_per_query.ack", "count"),
    ("net.bytes_per_query", "B"),
    ("net.send_us_p50", "us"),
    ("net.loopback_rtt_us_p50", "us"),
    ("net.inbox_drops.sheddable", "count"),
    ("net.inbox_drops.priority", "count"),
    ("net.tcp_reconnects", "count"),
    ("pdp.encode_ns_per_frame", "ns"),
    ("pdp.decode_ns_per_frame", "ns"),
    ("pdp.results_resent", "count"),
    ("xq.compile_us_per_query", "us"),
    ("xq.parses_per_query", "count"),
    ("registry.query_ms_per_flood", "ms"),
    ("registry.index_plan_frac", "ratio"),
    ("registry.shed_total", "count"),
    ("registry.degraded_total", "count"),
    ("registry.wal_appends_per_publish", "count"),
    ("registry.wal_bytes_per_publish", "B"),
    ("registry.wal_fsyncs", "count"),
    ("registry.wal_snapshots", "count"),
    ("registry.publish_p50_ms", "ms"),
    ("registry.publish_p99_ms", "ms"),
    ("xml.render_ms_per_flood", "ms"),
    ("updf.hop_self_ms_p50", "ms"),
    ("updf.relay_ms_p50", "ms"),
    ("updf.hop_wait_ms_p50", "ms"),
    ("updf.unattributed_cpu_ms_per_query", "ms"),
    ("updf.state_entries_max", "count"),
    ("updf.pending_acks_max", "count"),
    ("sim.messages_per_flood", "count"),
    ("sim.nodes_evaluated_per_flood", "count"),
    ("sim.timers_high_water", "count"),
    ("sim.flood_wall_ms_p50", "ms"),
    ("bench.gen_late_p99_ms", "ms"),
    ("bench.trace_overhead_frac", "ratio"),
    ("bench.failed_frac", "ratio"),
];

const WORKLOADS: [&str; 4] = ["lookup_tcp", "scan_mix", "publish_mix", "sim_flood"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The result's `metrics` object: every end-to-end metric, or with `trace`
/// every per-layer one. JSON has no NaN: a metric the run could not
/// measure prints as 0, is named under `unmeasured` and marks the run
/// broken, so it can never read as an improvement. A per-layer metric the
/// workload does not report prints as 0 under `not_applicable`.
fn result_metrics(report: &mut Report, trace: bool) -> BTreeMap<String, Value> {
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    let mut metrics = BTreeMap::new();
    let mut unmeasured = Vec::new();
    if trace {
        report.layer("bench.failed_frac", failed_frac, "ratio");
        let mut not_applicable = Vec::new();
        for &(name, unit) in PER_LAYER {
            let value = match report.per_layer.iter().find(|m| m.name == name) {
                Some(m) if m.value.is_finite() => m.value,
                Some(_) => {
                    unmeasured.push(name);
                    0.0
                }
                None => {
                    not_applicable.push(name);
                    0.0
                }
            };
            metrics.insert(name.to_owned(), json!({"value": value, "unit": unit}));
        }
        report.note("not_applicable", json!(not_applicable));
    } else {
        for m in &report.end_to_end {
            let value = if m.value.is_finite() {
                m.value
            } else {
                unmeasured.push(m.name.as_str());
                0.0
            };
            metrics.insert(m.name.clone(), json!({"value": value, "unit": m.unit}));
        }
    }
    if !unmeasured.is_empty() {
        report.correct = false;
    }
    let unmeasured = json!(unmeasured);
    report.note("unmeasured", unmeasured);
    metrics
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let host = sys::Host::probe();
    let mut report = match (args.workload.as_str(), args.trace) {
        ("lookup_tcp", false) => flood::run(&flood::LOOKUP_TCP, args.seed, args.seconds),
        ("lookup_tcp", true) => flood::run_traced(&flood::LOOKUP_TCP, args.seed, args.seconds),
        ("scan_mix", false) => flood::run(&flood::SCAN_MIX, args.seed, args.seconds),
        ("scan_mix", true) => flood::run_traced(&flood::SCAN_MIX, args.seed, args.seconds),
        ("publish_mix", traced) => publish::run(args.seed, args.seconds, traced),
        (_, traced) => sim::run(args.seed, args.seconds, traced),
    };
    let metrics = result_metrics(&mut report, args.trace);
    let values: BTreeMap<String, Value> = report
        .end_to_end
        .iter()
        .chain(&report.per_layer)
        .map(|m| (m.name.clone(), json!(m.value)))
        .collect();

    let meta = json!({
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": host.nproc,
        "cpu_model": host.cpu_model,
        "kernel": host.kernel,
        "rustc": host.rustc,
        "commit": host.commit,
        "repeats": "1 run; setup_s is the median of set-up repeats; latency and CPU figures are the quiet quarter (25th percentile; publish_mix: the median) over 1 s windows of each window's mix median or CPU per request; tails are over per-request samples",
        "values": Value::Object(values),
        "detail": Value::Object(report.meta),
    });
    println!("{}", json!({"meta": meta}));

    let result = json!({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": Value::Object(metrics),
    });
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn an_unmeasured_layer_breaks_the_run_and_an_absent_one_does_not() {
        let mut report = Report::new();
        report.layer("net.send_us_p50", 1.5, "us");
        let metrics = result_metrics(&mut report, true);
        assert!(report.correct);
        assert_eq!(metrics.len(), PER_LAYER.len());
        assert_eq!(metrics["net.send_us_p50"]["value"], 1.5);
        assert_eq!(metrics["sim.timers_high_water"]["value"], 0.0);

        let mut report = Report::new();
        report.layer("updf.relay_ms_p50", f64::NAN, "ms");
        let metrics = result_metrics(&mut report, true);
        assert!(!report.correct);
        assert_eq!(metrics["updf.relay_ms_p50"]["value"], 0.0);
        assert_eq!(report.meta["unmeasured"][0], "updf.relay_ms_p50");

        let mut report = Report::new();
        report.e2e("ttlr_p50_ms", f64::NAN, "ms");
        result_metrics(&mut report, false);
        assert!(!report.correct);
    }
}
