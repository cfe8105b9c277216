//! What a workload run hands back to `main` for printing, and the layer
//! counters every live workload reads the same way.

use crate::stats::{quartiles, sorted, tail_at};
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// A named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Every checked answer matched its ground truth.
    pub correct: bool,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Workload parameters, distributions and anything else worth keeping.
    pub meta: BTreeMap<String, Value>,
}

impl Report {
    pub fn new() -> Report {
        Report {
            attempted: 0,
            failed: 0,
            correct: true,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            meta: BTreeMap::new(),
        }
    }

    pub fn e2e(&mut self, name: &str, value: f64, unit: &'static str) {
        self.end_to_end.push(Metric { name: name.to_owned(), value, unit });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &'static str) {
        self.per_layer.push(Metric { name: name.to_owned(), value, unit });
    }

    /// Keep `value` under `key` in the metadata line.
    pub fn note(&mut self, key: &str, value: Value) {
        self.meta.insert(key.to_owned(), value);
    }

    /// Count a batch of checked operations.
    pub fn tally(&mut self, attempted: usize, failed: usize) {
        self.attempted += attempted as u64;
        self.failed += failed as u64;
    }
}

/// Sample count, quartiles and supported tail of a distribution, for the
/// metadata line.
pub fn distribution(values: &[f64]) -> Value {
    let mut o = BTreeMap::new();
    o.insert("n".to_owned(), json!(values.len()));
    if values.is_empty() {
        return Value::Object(o);
    }
    let (q1, med, q3) = quartiles(values);
    o.insert("q1".to_owned(), json!(q1));
    o.insert("median".to_owned(), json!(med));
    o.insert("q3".to_owned(), json!(q3));
    let s = sorted(values);
    for (name, q) in [("p90", 0.9), ("p99", 0.99)] {
        if let Some((used, t)) = tail_at(&s, q) {
            o.insert(name.to_owned(), json!(t));
            o.insert(format!("{name}_quantile_used"), json!(used));
        }
    }
    Value::Object(o)
}

/// Metric families of a live federation, over all of its peers.
pub trait Counters {
    /// Sum of `family` over every peer.
    fn family_sum(&self, family: &str) -> u64;
    /// Largest single peer's value of `family`.
    fn family_max(&self, family: &str) -> u64;
}

/// Index, hybrid and scan plans chosen so far.
pub fn plans(c: &impl Counters) -> [u64; 3] {
    ["index", "hybrid", "scan"].map(|p| c.family_sum(&format!("registry_plans_{p}_total")))
}

/// High-water marks of the per-peer transaction-state gauges, sampled
/// while a phase runs.
#[derive(Debug, Default)]
pub struct Gauges {
    state_entries: u64,
    pending_acks: u64,
}

impl Gauges {
    pub fn sample(&mut self, c: &impl Counters) {
        self.state_entries = self.state_entries.max(c.family_max("updf_state_entries"));
        self.pending_acks = self.pending_acks.max(c.family_max("updf_pending_acks"));
    }

    pub fn report(&self, report: &mut Report) {
        report.layer("updf.state_entries_max", self.state_entries as f64, "count");
        report.layer("updf.pending_acks_max", self.pending_acks as f64, "count");
    }
}

/// The registry-side layer metrics both live workload kinds report: the
/// share of index plans among those chosen between two [`plans`] reads,
/// and the queries shed (for any reason) or degraded so far.
pub fn registry_layers(report: &mut Report, c: &impl Counters, before: [u64; 3], after: [u64; 3]) {
    let chosen: Vec<u64> = after.iter().zip(before).map(|(a, b)| a - b).collect();
    let index_frac = chosen[0] as f64 / chosen.iter().sum::<u64>().max(1) as f64;
    report.layer("registry.index_plan_frac", index_frac, "ratio");
    let shed: u64 = ["client", "deadline", "queue_full", "slot_timeout"]
        .iter()
        .map(|k| c.family_sum(&format!("registry_shed_{k}_total")))
        .sum();
    report.layer("registry.shed_total", shed as f64, "count");
    report.layer(
        "registry.degraded_total",
        c.family_sum("registry_degraded_total") as f64,
        "count",
    );
}
