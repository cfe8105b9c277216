//! `publish_mix`: writes beside reads on WAL-backed registries.
//!
//! One open-loop publisher thread publishes new tuples into a home peer's
//! durable registry, refreshes them and unpublishes the oldest, so the
//! working set stays flat. The calling thread runs a closed-loop reader
//! with a short think time beside it: lookups of recently published and recently removed links
//! (read-your-writes and unpublish-is-gone, checked against the
//! publisher's completion times) and owner/load queries whose answers the
//! bench tuples never match, so they are checked exactly.
//!
//! Nothing in the paper or the repository fixes the operation mix, so both
//! sides use the plainest one: the publisher cycles publish, refresh,
//! unpublish (one of each keeps the window flat), and the reader picks its
//! four read shapes with equal weight. Both are assumptions, not measured
//! traffic.

use crate::fed::{ground_truth, scope, DEADLINE, PEERS, TUPLES_PER_PEER};
use crate::report::{distribution, plans, registry_layers, Counters, Gauges, Report};
use crate::stats::{
    median, mix_median, tail_of, window_cpu_ms, window_mix_medians, Digest, Rng, LIMIT_TAIL,
};
use crate::sys::cpu_seconds;
use crate::{work_dir, SETUP_REPEATS};
use serde_json::json;
use std::collections::{HashMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wsda_net::NodeId;
use wsda_registry::{HyperRegistry, PersistenceConfig, PublishRequest};
use wsda_updf::{LiveNetwork, RecoveryConfig, Topology};
use wsda_xml::Element;

/// Publisher operations per second. At ~1.35 WAL appends per operation
/// the home registry snapshots (every 4,096 appends) about every 3 s, so
/// every run samples several snapshot cycles.
const NOMINAL_RATE: f64 = 1000.0;
/// The reader's think time between a reply and its next read. Without it
/// the reader, the 16 peers and the publisher kept both cores of a 2-core
/// host busy, and every figure moved with the host's other load (CPU per
/// read spread by 26–36% over ten seeds); with it the federation runs
/// below saturation.
const THINK: Duration = Duration::from_millis(5);
/// Bench tuples kept live in the home registry.
const WINDOW: usize = 256;
/// Seconds per window of the read-latency and CPU figures. They are the
/// median over the windows, not the flood workloads' quiet quarter: here
/// part of the slow stretches is the program's own (a WAL snapshot about
/// every 3 s), and over five seeds the quiet quarter spread by 0.25–0.30
/// where the median spread by 0.14–0.15.
const READ_WINDOW_S: f64 = 1.0;
const TTL_MS: u64 = u64::MAX / 8;

/// Owner/load queries; bench tuples (owner `publisher.bench`, load
/// 0.999) never match them, so their ground truth is the static corpus.
const READS: [&str; 2] = [
    r#"//service[ends-with(owner, ".cern.ch") and load < 0.5]/owner"#,
    r#"//service[load < 0.1]/owner"#,
];

fn bench_tuple(link: &str) -> PublishRequest {
    let content = Element::new("service")
        .with_child(Element::new("interface").with_attr("type", "Bench-1.0"))
        .with_field("owner", "publisher.bench")
        .with_field("load", "0.999");
    PublishRequest::new(link, "service")
        .with_context("publisher.bench")
        .with_ttl_ms(TTL_MS)
        .with_content(content)
}

/// When each bench link's publish finished and its unpublish started and
/// finished.
#[derive(Debug, Clone, Copy, Default)]
struct Life {
    published: Option<Instant>,
    unpublish_started: Option<Instant>,
    unpublished: Option<Instant>,
}

#[derive(Default)]
struct Book {
    lives: HashMap<String, Life>,
    live: VecDeque<String>,
    gone: VecDeque<String>,
    next: u64,
}

struct Ready {
    net: LiveNetwork,
    home: Arc<HyperRegistry>,
    entries: [NodeId; 2],
    book: Arc<Mutex<Book>>,
    reads: Vec<Digest>,
    setup_s: Vec<f64>,
    dir: PathBuf,
    seed: u64,
}

impl Drop for Ready {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn setup(seed: u64) -> (Ready, usize) {
    let mut setup_s = Vec::new();
    let mut kept: Option<Ready> = None;
    let mut warm_failed = 0;
    for k in 0..SETUP_REPEATS {
        drop(kept.take());
        let dir = work_dir().join(format!("wal-{}-{k}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let started = Instant::now();
        let topology = Topology::random_connected(PEERS, 3.0, seed);
        let net = LiveNetwork::start_durable(
            topology,
            TUPLES_PER_PEER,
            seed,
            RecoveryConfig::live_default(),
            &dir,
        )
        .expect("durable federation starts in an empty directory");
        let mut rng = Rng::new(seed ^ 0xE7);
        let a = NodeId(rng.below(PEERS) as u32);
        let b = loop {
            let b = NodeId(rng.below(PEERS) as u32);
            if b != a {
                break b;
            }
        };
        let home = net.registry(a).clone();
        let registries: Vec<_> =
            (0..PEERS as u32).map(|i| net.registry(NodeId(i)).clone()).collect();
        let reads = READS.iter().map(|q| ground_truth(&registries, q)).collect();
        let mut book = Book::default();
        for _ in 0..WINDOW {
            let link = format!("bench://pub/{seed}/{}", book.next);
            book.next += 1;
            home.publish(bench_tuple(&link)).expect("window prefill");
            book.lives
                .insert(link.clone(), Life { published: Some(Instant::now()), ..Life::default() });
            book.live.push_back(link);
        }
        let mut ready = Ready {
            net,
            home,
            entries: [a, b],
            book: Arc::new(Mutex::new(book)),
            reads,
            setup_s: Vec::new(),
            dir,
            seed,
        };
        // Untimed warm-up: every read shape once from each entry.
        let mut rng = Rng::new(seed ^ 0x3A);
        for i in 0..8 {
            let read = reader_pick(&ready, &mut rng);
            if !read_once(&mut ready, &read, i).ok {
                warm_failed += 1;
            }
        }
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some(ready);
    }
    let mut ready = kept.expect("at least one setup");
    ready.setup_s = setup_s;
    (ready, warm_failed)
}

/// What the reader asks next.
enum Read {
    Query(usize),
    Present(String),
    Absent(String),
}

/// One of the four read shapes, equally weighted: a recent link, a
/// removed link (a recent one while nothing is removed yet), and each
/// owner/load query.
fn reader_pick(r: &Ready, rng: &mut Rng) -> Read {
    let book = r.book.lock().expect("book lock poisoned");
    match rng.below(2 + READS.len()) {
        k @ (0 | 1) if k == 0 || book.gone.is_empty() => {
            // Newest quarter of the live window: published long before any
            // unpublish can reach it.
            let n = book.live.len();
            let i = n - 1 - rng.below((n / 4).max(1));
            Read::Present(book.live[i].clone())
        }
        1 => {
            let n = book.gone.len();
            Read::Absent(book.gone[n - 1 - rng.below(n.min(64))].clone())
        }
        k => Read::Query(k - 2),
    }
}

impl Read {
    /// Which of the four read shapes this is, for the mix median.
    fn shape(&self) -> usize {
        match self {
            Read::Present(_) => 0,
            Read::Absent(_) => 1,
            Read::Query(q) => 2 + q,
        }
    }
}

struct ReadOutcome {
    shape: usize,
    done: Instant,
    ttlr_ms: f64,
    ok: bool,
    checked: bool,
}

fn lookup(link: &str) -> String {
    format!(r#"/tuple[@link = "{link}"]"#)
}

fn read_once(r: &mut Ready, read: &Read, i: usize) -> ReadOutcome {
    let text = match read {
        Read::Query(q) => READS[*q].to_owned(),
        Read::Present(l) | Read::Absent(l) => lookup(l),
    };
    let entry = r.entries[i % 2];
    let sent = Instant::now();
    let report = r.net.query_with_scope(entry, &text, scope(), DEADLINE);
    let done = Instant::now();
    let ttlr_ms = (done - sent).as_secs_f64() * 1e3;
    let complete = matches!(report.completeness, wsda_updf::Completeness::Complete);
    let (ok, checked) = match read {
        Read::Query(q) => (complete && Digest::of(&report.results) == r.reads[*q], true),
        Read::Present(l) => {
            let life = r
                .book
                .lock()
                .expect("book lock poisoned")
                .lives
                .get(l)
                .copied()
                .unwrap_or_default();
            let must_see = life.published.is_some_and(|p| p <= sent)
                && life.unpublish_started.is_none_or(|u| u > done);
            let seen = report.results.len() == 1 && report.results[0].contains(l.as_str());
            if must_see {
                (complete && seen, true)
            } else {
                (complete, false)
            }
        }
        Read::Absent(l) => {
            let life = r
                .book
                .lock()
                .expect("book lock poisoned")
                .lives
                .get(l)
                .copied()
                .unwrap_or_default();
            if life.unpublished.is_some_and(|u| u <= sent) {
                (complete && report.results.is_empty(), true)
            } else {
                (complete, false)
            }
        }
    };
    ReadOutcome { shape: read.shape(), done, ttlr_ms, ok, checked }
}

/// One publisher operation's outcome.
struct Write {
    latency_ms: f64,
    late_ms: f64,
    ok: bool,
}

fn publisher(
    home: &HyperRegistry,
    book: &Mutex<Book>,
    seed: u64,
    rate: f64,
    count: usize,
    start: Instant,
) -> Vec<Write> {
    let lock = || book.lock().expect("book lock poisoned");
    let mut rng = Rng::new(seed ^ 0x9B ^ count as u64);
    let mut writes = Vec::with_capacity(count);
    for i in 0..count {
        let due = start + Duration::from_secs_f64(i as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let began = Instant::now();
        let ok = match i % 3 {
            0 => {
                let link = {
                    let mut b = lock();
                    b.next += 1;
                    format!("bench://pub/{seed}/{}", b.next - 1)
                };
                let res = home.publish(bench_tuple(&link));
                let at = Instant::now();
                let mut b = lock();
                b.lives.insert(link.clone(), Life { published: Some(at), ..Life::default() });
                b.live.push_back(link);
                res.is_ok()
            }
            1 => {
                let link = {
                    let b = lock();
                    b.live[rng.below(b.live.len())].clone()
                };
                home.refresh(&link, Some(TTL_MS)).is_ok()
            }
            _ => {
                let link = {
                    let mut b = lock();
                    let link = b.live.pop_front().expect("window never empties");
                    b.lives.get_mut(&link).expect("tracked").unpublish_started =
                        Some(Instant::now());
                    link
                };
                let res = home.unpublish(&link);
                let at = Instant::now();
                let mut b = lock();
                b.lives.get_mut(&link).expect("tracked").unpublished = Some(at);
                b.gone.push_back(link);
                if b.gone.len() > 4 * WINDOW {
                    let old = b.gone.pop_front().expect("non-empty");
                    b.lives.remove(&old);
                }
                res.is_ok()
            }
        };
        writes.push(Write {
            latency_ms: due.elapsed().as_secs_f64() * 1e3,
            late_ms: began.saturating_duration_since(due).as_secs_f64() * 1e3,
            ok,
        });
    }
    writes
}

/// Run the publisher open-loop at `rate` for `seconds` while the reader
/// loops on this thread until the publisher is done.
fn phase(
    r: &mut Ready,
    rate: f64,
    seconds: f64,
    rng: &mut Rng,
    tick: &mut impl FnMut(&LiveNetwork, usize),
) -> (Vec<Write>, Vec<ReadOutcome>) {
    let count = (rate * seconds).round().max(1.0) as usize;
    let start = Instant::now() + Duration::from_millis(5);
    let done = AtomicBool::new(false);
    let home = r.home.clone();
    let book = r.book.clone();
    let seed = r.seed;
    let mut reads = Vec::new();
    let writes = std::thread::scope(|s| {
        let publisher = s.spawn(|| {
            let w = publisher(&home, &book, seed, rate, count, start);
            done.store(true, Ordering::SeqCst);
            w
        });
        let mut i = 0;
        while !done.load(Ordering::SeqCst) {
            let read = reader_pick(r, rng);
            reads.push(read_once(r, &read, i));
            std::thread::sleep(THINK);
            i += 1;
            tick(&r.net, i);
        }
        publisher.join().expect("publisher thread panicked")
    });
    (writes, reads)
}

/// One metrics registry holds every peer's series, labelled by node.
impl Counters for LiveNetwork {
    fn family_sum(&self, family: &str) -> u64 {
        self.metrics().family_sum(family)
    }

    fn family_max(&self, family: &str) -> u64 {
        let metrics = self.metrics();
        let prefix = format!("{family}{{");
        metrics
            .names()
            .iter()
            .filter(|n| n.starts_with(&prefix))
            .filter_map(|n| metrics.value(n))
            .max()
            .unwrap_or(0)
    }
}

struct Totals {
    writes: Vec<Write>,
    reads: Vec<ReadOutcome>,
}

impl Totals {
    fn failed(&self) -> usize {
        self.writes.iter().filter(|w| !w.ok).count() + self.reads.iter().filter(|r| !r.ok).count()
    }
    fn ops(&self) -> usize {
        self.writes.len() + self.reads.len()
    }
    fn write_ms(&self) -> Vec<f64> {
        self.writes.iter().map(|w| w.latency_ms).collect()
    }
    fn read_ms(&self) -> Vec<f64> {
        self.reads.iter().filter(|r| r.ok).map(|r| r.ttlr_ms).collect()
    }
    /// `(seconds since start, shape, ms)` of each successful read.
    fn timed_reads(&self, start: Instant) -> Vec<(f64, usize, f64)> {
        let ok = self.reads.iter().filter(|r| r.ok);
        ok.map(|r| ((r.done - start).as_secs_f64(), r.shape, r.ttlr_ms)).collect()
    }
}

fn wal(net: &LiveNetwork) -> [u64; 4] {
    ["appends", "bytes", "fsyncs", "snapshots"].map(|k| net.family_sum(&format!("wal_{k}_total")))
}

/// The run shared by both modes: setup, then publisher and reader side by
/// side for the whole run.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report::new();
    let (mut r, warm_failed) = setup(seed);
    report.tally(8 * SETUP_REPEATS, warm_failed);
    let persistence = PersistenceConfig::new(".");
    report.note(
        "params",
        json!({
            "substrate": "Threaded (LiveNetwork::start_durable)",
            "peers": PEERS,
            "topology": "random_connected(16, 3.0, seed)",
            "tuples_per_peer": TUPLES_PER_PEER,
            "fsync_policy": format!("{:?}", persistence.fsync),
            "snapshot_every_appends": persistence.snapshot_every,
            "window_tuples": WINDOW,
            "publisher": "open loop, fixed rate, cycle publish/refresh/unpublish-oldest (assumed mix)",
            "reader": "closed loop with think time, equal weights over recent-link lookup, removed-link lookup and the two owner/load queries (assumed mix)",
            "read_window_s": READ_WINDOW_S,
            "publish_rate_ops": NOMINAL_RATE,
            "think_ms": THINK.as_secs_f64() * 1e3,
            "seconds": seconds,
        }),
    );
    report.note("setup_s", distribution(&r.setup_s));
    report.note("setup_repeats", json!(r.setup_s.len()));

    let mut rng = Rng::new(seed ^ 0x3B);
    let mut gauges = Gauges::default();
    let began = Instant::now();
    let mut cpu_samples = vec![(0.0, cpu_seconds(), 0.0)];
    let mut last_sample = began;
    let mut tick = |net: &LiveNetwork, reads: usize| {
        if last_sample.elapsed() >= Duration::from_millis(100) {
            last_sample = Instant::now();
            cpu_samples.push((began.elapsed().as_secs_f64(), cpu_seconds(), reads as f64));
            if traced {
                gauges.sample(net);
            }
        }
    };
    let wal0 = wal(&r.net);
    let parses0 = r.net.family_sum("updf_query_cache_parses");
    let plans0 = plans(&r.net);
    let (writes, reads) = phase(&mut r, NOMINAL_RATE, seconds, &mut rng, &mut tick);
    let elapsed = began.elapsed().as_secs_f64();
    let wal1 = wal(&r.net);
    let parses = r.net.family_sum("updf_query_cache_parses") - parses0;
    let plans1 = plans(&r.net);
    let nominal = Totals { writes, reads };
    report.tally(nominal.ops(), nominal.failed());
    let unchecked = nominal.reads.iter().filter(|x| !x.checked).count();

    let read_tail = tail_of(&nominal.read_ms(), LIMIT_TAIL);
    report.correct = report.failed == 0;

    let read_ms = nominal.read_ms();
    let write_ms = nominal.write_ms();
    let late: Vec<f64> = nominal.writes.iter().map(|w| w.late_ms).collect();
    report.note("ttlr_ms", distribution(&read_ms));
    let timed = nominal.timed_reads(began);
    let pooled: Vec<(usize, f64)> = timed.iter().map(|&(_, shape, ms)| (shape, ms)).collect();
    report.note("ttlr_p50_ms_pooled", json!(mix_median(&pooled)));
    report.note("ttlr_p50_ms_windows", json!(window_mix_medians(&timed, READ_WINDOW_S)));
    report.note("publish_ms", distribution(&write_ms));
    report.note("gen_late_ms", distribution(&late));
    report.note("read_p90_ms", json!(read_tail));
    report.note("read_rate_qps", json!(nominal.reads.len() as f64 / elapsed));
    report.note("reads_unchecked_racing_a_write", json!(unchecked));
    report.note("failed_frac", json!(nominal.failed() as f64 / nominal.ops().max(1) as f64));
    report.note(
        "ttfr_note",
        json!("LiveNetwork::query_with_scope returns the answer whole, so a reader's first result arrives with its last: ttfr = ttlr"),
    );
    if !traced {
        let read_p50 = median(&window_mix_medians(&timed, READ_WINDOW_S));
        report.e2e("setup_s", median(&r.setup_s), "s");
        report.e2e("ttfr_p50_ms", read_p50, "ms");
        report.e2e("ttlr_p50_ms", read_p50, "ms");
        // Per read, carrying the publisher's fixed-rate cost: a slower
        // federation completes fewer reads, so this can only rise.
        report.e2e("cpu_ms_per_query", median(&window_cpu_ms(&cpu_samples, READ_WINDOW_S)), "ms");
        report.e2e("peak_rss_mb", crate::sys::peak_rss_mb(), "MB");
        return report;
    }
    let publishes = nominal.writes.len().max(1) as f64;
    report.layer("registry.publish_p50_ms", median(&write_ms), "ms");
    report.layer("registry.publish_p99_ms", tail_of(&write_ms, 0.99), "ms");
    report.layer(
        "registry.wal_appends_per_publish",
        (wal1[0] - wal0[0]) as f64 / publishes,
        "count",
    );
    report.layer("registry.wal_bytes_per_publish", (wal1[1] - wal0[1]) as f64 / publishes, "B");
    report.layer("registry.wal_fsyncs", (wal1[2] - wal0[2]) as f64, "count");
    report.layer("registry.wal_snapshots", (wal1[3] - wal0[3]) as f64, "count");
    registry_layers(&mut report, &r.net, plans0, plans1);
    report.layer("xq.parses_per_query", parses as f64 / nominal.reads.len().max(1) as f64, "count");
    let drops = r.net.inbox_drops();
    report.layer("net.inbox_drops.sheddable", drops.sheddable as f64, "count");
    report.layer("net.inbox_drops.priority", drops.priority as f64, "count");
    gauges.report(&mut report);
    report.layer("bench.gen_late_p99_ms", tail_of(&late, 0.99), "ms");
    report.note(
        "not_measured",
        json!("frame spans, codec, hop and replay metrics: LiveNetwork::start_durable owns its transport, so no tracing decorator can sit under it"),
    );
    report
}
