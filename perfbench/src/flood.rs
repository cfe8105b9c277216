//! The two open-loop flood workloads over `StandalonePeer` federations:
//! `lookup_tcp` (needle lookups over loopback TCP) and `scan_mix` (the
//! nine T1 queries over the in-process threaded transport).

use crate::fed::{Client, Federation, Phase, PoolQuery, Substrate};
use crate::report::{distribution, plans, registry_layers, Counters, Gauges, Report};
use crate::stats::{
    capacity_estimate, first_rung, knee, ladder_done, median, mix_median, quantile, quiet,
    rung_rate, sorted, step_tail, tail_of, window_cpu_ms, window_mix_medians, windowed_tail, Rng,
    Schedule, Step, Timing, LIMIT_TAIL,
};
use crate::sys::cpu_seconds;
use crate::trace::{rebuild_hops, results_resent, write_spans, KIND_NAMES};
use crate::{work_dir, SETUP_REPEATS};
use bytes::BytesMut;
use serde_json::{json, Value};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use wsda_net::transport::FrameTransport;
use wsda_net::NodeId;
use wsda_pdp::framing::{write_frame, FrameReader};
use wsda_pdp::Message;
use wsda_registry::workload::{t1_queries, CorpusGenerator};
use wsda_registry::Freshness;
use wsda_xq::Query;

/// Which queries a flood workload asks; requests pick from the pool
/// uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// `/tuple[@link = …]` lookups, `NEEDLES_PER_PEER` distinct links of
    /// each peer.
    Needles,
    /// The nine T1 queries, equally weighted, as the T1 experiment runs
    /// them.
    T1,
}

/// Shape of one flood workload.
pub struct Spec {
    pub name: &'static str,
    pub substrate: Substrate,
    pub mix: Mix,
    /// Offered rate of the nominal phase, queries per second, and rung 0 of
    /// the ladder: below the knee, so nominal latency is service time
    /// rather than queueing.
    pub nominal_rate: f64,
    /// TTLR p90 limit a ladder rung must meet, ms.
    pub limit_ms: f64,
}

/// Share of the run spent at the nominal rate (the rest is the ladder).
/// The gated figures come from the nominal phase's windows and the knee
/// only from the ladder's metadata, so the nominal phase gets the most.
const NOMINAL_SHARE: f64 = 0.8;

/// Seconds at the start of the nominal phase left out of its figures: a
/// peer keeps each query's duplicate-detection state for the scope's
/// `loop_timeout_ms` (3 s), so at a new rate its tables, and the latency
/// with them, grow for 3 s (lookup_tcp's TTLR rose from 0.65 to 0.85 ms
/// over the first four windows, then held). The ramp's answers are still
/// checked.
const RAMP_S: f64 = 4.0;

/// Seconds each ladder rung offers its rate.
const RUNG_S: f64 = 0.6;

/// The ladder starts at this share of the capacity the nominal phase's
/// CPU cost predicts; every rung below it would pass.
const LADDER_START: f64 = 0.8;

/// Needle lookups over loopback TCP: microsecond evals, so codec, sockets,
/// wake-ups and per-transaction state are nearly all of the time. The rate
/// is about half the knee of a 2-core host. Lower, the peers' threads sleep
/// between frames and waking them sets the figures: at 150 q/s TTLR was
/// 1.5 ms and CPU 2.9 ms per query against 1.0 and 2.0 at 550, and the
/// slow stretches of the shared host came more often.
pub const LOOKUP_TCP: Spec = Spec {
    name: "lookup_tcp",
    substrate: Substrate::Tcp,
    mix: Mix::Needles,
    nominal_rate: 550.0,
    limit_ms: 25.0,
};

/// The T1 simple/medium/complex mix in-process: registry eval and result
/// rendering dominate, answers of up to 1,024 items exercise relay. The
/// rate keeps the host about as busy as lookup_tcp's does: at 80 q/s, in
/// five interleaved pairs, TTLR and CPU per query were higher in 9 of 10
/// comparisons and ten seeds spread TTFR by 0.29.
pub const SCAN_MIX: Spec = Spec {
    name: "scan_mix",
    substrate: Substrate::Threaded,
    mix: Mix::T1,
    nominal_rate: 130.0,
    limit_ms: 100.0,
};

/// Requests per window of the windowed tails: 40 samples beyond each
/// window's p90 (and 16 beyond each p99 window of four times the size),
/// and several windows per nominal phase, so one scheduler stall of a few
/// milliseconds cannot set the figure on its own.
const TAIL_WINDOW: usize = 400;

/// Needles in the lookup pool per peer that holds them: every peer holds
/// the same number, so the hop distances from the entries to the answers
/// are the topology's, not a sample of it that changes with the seed. The
/// 48 of 16 peers stay below the per-peer compiled-query cache capacity
/// (64), so after warm-up no lookup re-parses.
const NEEDLES_PER_PEER: usize = 3;

/// Seconds per window of the latency and CPU figures: the nominal phase
/// of a 25 s run holds sixteen after its ramp, so its quiet quarter is
/// several windows.
const WINDOW_S: f64 = 1.0;

/// Warm-up rate: the warm-up is a short burst, so set-up time tracks the
/// federation's own work rather than a pacing delay.
const WARM_RATE: f64 = 1000.0;

/// The T1 link the simple by-link queries name.
const T1_LINK: &str = "http://fnal.gov/storage/0";

fn pool_for(spec: &Spec, fed: &Federation, seed: u64) -> Vec<PoolQuery> {
    // Each peer's corpus links, as `StandalonePeer::spawn` generates them.
    let links: Vec<Vec<String>> = (0..fed.peers.len() as u64)
        .map(|i| {
            let mut g = CorpusGenerator::new(seed ^ i.wrapping_mul(0x9e37));
            (0..crate::fed::TUPLES_PER_PEER).map(|_| g.next_service().0).collect()
        })
        .collect();
    let mut rng = Rng::new(seed ^ 0x1D);
    let texts: Vec<String> = match spec.mix {
        Mix::Needles => {
            let mut picked: Vec<String> = Vec::new();
            for own in &links {
                let mut mine = 0;
                while mine < NEEDLES_PER_PEER {
                    let l = &own[rng.below(own.len())];
                    if !picked.contains(l) {
                        picked.push(l.clone());
                        mine += 1;
                    }
                }
            }
            picked.iter().map(|l| format!(r#"/tuple[@link = "{l}"]"#)).collect()
        }
        Mix::T1 => {
            // The by-link queries are rebound to a link this seed's corpus
            // holds, so they answer something on every seed.
            let own = &links[rng.below(links.len())];
            let link = &own[rng.below(own.len())];
            t1_queries().iter().map(|(_, _, q)| q.replace(T1_LINK, link)).collect()
        }
    };
    texts
        .into_iter()
        .map(|text| {
            let expect = crate::fed::ground_truth(&fed.registries, &text);
            PoolQuery { text, expect }
        })
        .collect()
}

struct Ready {
    fed: Federation,
    client: Client,
    pool: Vec<PoolQuery>,
    setup_s: Vec<f64>,
    warm: Vec<Phase>,
}

/// Stand the federation up `SETUP_REPEATS` times (keeping the last), each
/// time through corpus publish, peer spawn, listener bind, ground truth and
/// an untimed warm-up that fills every peer's compiled-query cache.
fn setup(spec: &Spec, seed: u64) -> Ready {
    let mut setup_s = Vec::new();
    let mut warm = Vec::new();
    let mut kept = None;
    for k in 0..SETUP_REPEATS {
        drop(kept.take());
        let started = Instant::now();
        let fed = Federation::spawn(spec.substrate, seed);
        let pool = pool_for(spec, &fed, seed);
        let mut client = Client::new(seed ^ (k as u64) << 32);
        let n = pool.len() * 2;
        let schedule = Schedule::new(Instant::now(), WARM_RATE, n as f64 / WARM_RATE);
        let len = pool.len();
        warm.push(client.run(&fed, &pool, schedule, |i| i % len, || {}));
        setup_s.push(started.elapsed().as_secs_f64());
        kept = Some((fed, client, pool));
    }
    let (fed, client, pool) = kept.expect("at least one setup");
    Ready { fed, client, pool, setup_s, warm }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// TTFR/TTLR/lateness samples of a phase's successful requests.
struct Samples {
    ttfr: Vec<f64>,
    ttlr: Vec<f64>,
    late: Vec<f64>,
}

fn samples(phase: &Phase) -> Samples {
    let ok = phase.outcomes.iter().filter(|o| o.ok());
    Samples {
        ttfr: ok.clone().filter_map(|o| o.timing.first.map(ms)).collect(),
        ttlr: ok.filter_map(|o| o.timing.last.map(ms)).collect(),
        late: phase.outcomes.iter().map(|o| ms(o.timing.late)).collect(),
    }
}

/// `(due offset s, pool query, ms)` of each successful request: the
/// samples of [`window_mix_medians`].
fn timed(phase: &Phase, at: impl Fn(&Timing) -> Option<Duration>) -> Vec<(f64, usize, f64)> {
    phase
        .outcomes
        .iter()
        .enumerate()
        .filter(|(_, o)| o.ok())
        .filter_map(|(i, o)| at(&o.timing).map(|d| (i as f64 / phase.rate, o.pool, ms(d))))
        .collect()
}

/// [`mix_median`] of the whole phase, for the metadata.
fn pooled(samples: &[(f64, usize, f64)]) -> f64 {
    mix_median(&samples.iter().map(|&(_, class, v)| (class, v)).collect::<Vec<_>>())
}

fn failures(phase: &Phase) -> usize {
    phase.outcomes.iter().filter(|o| !o.ok()).count()
}

/// Wrong answers: the final frame arrived but the multiset differs.
fn wrong(phase: &Phase) -> usize {
    phase.outcomes.iter().filter(|o| o.complete && !o.correct).count()
}

fn start_soon() -> Instant {
    Instant::now() + Duration::from_millis(5)
}

fn step_of(phase: &Phase) -> Step {
    Step {
        rate: phase.rate,
        tail_ms: step_tail(&phase.ttlr_ms()),
        sent: phase.outcomes.len(),
        backlog: phase.backlog,
    }
}

/// Climb the ladder (5% rungs from `first`) until three rungs in a row
/// miss the limit or the ladder's share of the run is spent.
#[allow(clippy::too_many_arguments)]
fn ladder(
    spec: &Spec,
    r: &mut Ready,
    budget_s: f64,
    nominal: Step,
    first: u32,
    pick: &mut impl FnMut(usize) -> usize,
    tick: &mut impl FnMut(),
    report: &mut Report,
) -> Option<f64> {
    // The nominal phase is the ladder's rung 0.
    let mut steps = vec![nominal];
    let mut rungs = Vec::new();
    let started = Instant::now();
    let mut k = first;
    while started.elapsed().as_secs_f64() + RUNG_S <= budget_s {
        let rate = rung_rate(spec.nominal_rate, k);
        let phase = r.client.run(
            &r.fed,
            &r.pool,
            Schedule::new(start_soon(), rate, RUNG_S),
            &mut *pick,
            &mut *tick,
        );
        let step = step_of(&phase);
        // Above the knee, deadline misses are the overload the ladder
        // looks for; wrong answers are failures at any rate.
        report.tally(phase.outcomes.len(), wrong(&phase));
        let s = samples(&phase);
        rungs.push(json!({
            "rung": k,
            "rate": rate,
            "ttlr_p50_ms": median(&s.ttlr),
            "ttlr_tail_ms": step.tail_ms,
            "sent": step.sent,
            "backlog": step.backlog,
            "not_complete": failures(&phase),
            "passes": step.passes(spec.limit_ms),
        }));
        steps.push(step);
        if ladder_done(&steps, spec.limit_ms) {
            break;
        }
        k += 1;
    }
    report.note("ladder", Value::Array(rungs));
    knee(&steps, spec.limit_ms)
}

/// CPU cores the idle federation burns (peer loops poll on a timer), over
/// half a second with no load.
fn idle_cores() -> f64 {
    let cpu0 = cpu_seconds();
    let t = Instant::now();
    std::thread::sleep(Duration::from_millis(500));
    (cpu_seconds() - cpu0) / t.elapsed().as_secs_f64()
}

/// The first rung worth running, from the nominal phase's CPU cost.
fn first_rung_for(spec: &Spec, idle: f64, cpu_ms_per_query: f64, report: &mut Report) -> u32 {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
    let busy = cpu_ms_per_query * spec.nominal_rate / 1e3;
    let capacity = capacity_estimate(nproc, idle, busy, spec.nominal_rate);
    let first = first_rung(spec.nominal_rate, capacity, LADDER_START);
    report.note(
        "ladder_start",
        json!({"idle_cores": idle, "capacity_estimate_qps": capacity, "first_rung": first}),
    );
    first
}

fn common_meta(spec: &Spec, r: &Ready, report: &mut Report, seconds: f64) {
    let entries: Vec<u32> = r.fed.entries.iter().map(|e| e.0).collect();
    let degrees: Vec<usize> =
        (0..r.fed.peers.len() as u32).map(|i| r.fed.topology.neighbors(NodeId(i)).len()).collect();
    report.note(
        "params",
        json!({
            "substrate": format!("{:?}", spec.substrate),
            "peers": r.fed.peers.len(),
            "topology": "random_connected(16, 3.0, seed)",
            "tuples_per_peer": crate::fed::TUPLES_PER_PEER,
            "entries": entries,
            "degrees": degrees,
            "pool_size": r.pool.len(),
            "pick": "uniform over the pool",
            "loop": "open, fixed-rate, timed from due time",
            "nominal_rate_qps": spec.nominal_rate,
            "nominal_share": NOMINAL_SHARE,
            "ramp_s": RAMP_S,
            "window_s": WINDOW_S,
            "ladder": format!(
                "rung k offers nominal x 1.05^k for {RUNG_S} s, from {LADDER_START} of the CPU-estimated capacity"
            ),
            "ttlr_limit_ms": spec.limit_ms,
            "deadline_ms": crate::fed::DEADLINE.as_millis() as u64,
            "seconds": seconds,
        }),
    );
    report.note("setup_s", distribution(&r.setup_s));
    report.note("setup_repeats", json!(r.setup_s.len()));
}

/// End-to-end run: nominal phase, then the rate ladder.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new();
    let mut r = setup(spec, seed);
    for w in &r.warm {
        report.tally(w.outcomes.len(), failures(w));
    }
    common_meta(spec, &r, &mut report, seconds);
    let len = r.pool.len();
    let mut rng = Rng::new(seed ^ 0x51);
    let mut pick = move |_: usize| rng.below(len);
    let idle = idle_cores();
    let schedule = Schedule::new(start_soon(), spec.nominal_rate, seconds * NOMINAL_SHARE);
    // A short run keeps half its nominal phase.
    let ramp_s = RAMP_S.min(seconds * NOMINAL_SHARE / 2.0);
    let steady_from = schedule.start + Duration::from_secs_f64(ramp_s);
    let mut cpu_samples = Vec::new();
    let nominal = r.client.run(&r.fed, &r.pool, schedule, &mut pick, || {
        let now = Instant::now();
        if now >= steady_from && now <= schedule.end() {
            let t = (now - steady_from).as_secs_f64();
            cpu_samples.push((t, cpu_seconds(), t * spec.nominal_rate));
        }
    });
    let fails = failures(&nominal);
    let failed_frac = fails as f64 / nominal.outcomes.len().max(1) as f64;
    report.tally(nominal.outcomes.len(), fails);
    let ramp = (ramp_s * spec.nominal_rate) as usize;
    let nominal = Phase { outcomes: nominal.outcomes[ramp..].to_vec(), ..nominal };
    let s = samples(&nominal);
    // Memory at the nominal load: the ladder's overload rungs would make
    // the high-water mark depend on how far the ladder climbed.
    let peak_rss_mb = crate::sys::peak_rss_mb();

    let cpu_ms_per_query = quiet(&window_cpu_ms(&cpu_samples, WINDOW_S));
    let first = first_rung_for(spec, idle, cpu_ms_per_query, &mut report);
    let mut tick = || {};
    let budget_s = seconds * (1.0 - NOMINAL_SHARE);
    let knee =
        ladder(spec, &mut r, budget_s, step_of(&nominal), first, &mut pick, &mut tick, &mut report);

    report.correct = report.failed == 0;
    report.e2e("setup_s", median(&r.setup_s), "s");
    let (ttfr, ttlr) = (timed(&nominal, |t| t.first), timed(&nominal, |t| t.last));
    report.e2e("ttfr_p50_ms", quiet(&window_mix_medians(&ttfr, WINDOW_S)), "ms");
    report.e2e("ttlr_p50_ms", quiet(&window_mix_medians(&ttlr, WINDOW_S)), "ms");
    report.e2e("cpu_ms_per_query", cpu_ms_per_query, "ms");
    report.e2e("peak_rss_mb", peak_rss_mb, "MB");
    report.note("max_qps_under_slo", json!(knee.unwrap_or(0.0)));
    report.note("ttfr_ms", distribution(&s.ttfr));
    report.note("ttlr_ms", distribution(&s.ttlr));
    report.note("ttlr_p50_ms_windows", json!(window_mix_medians(&ttlr, WINDOW_S)));
    report.note("ttfr_p50_ms_pooled", json!(pooled(&ttfr)));
    report.note("ttlr_p50_ms_pooled", json!(pooled(&ttlr)));
    report.note("ttlr_p90_ms_windowed", json!(windowed_tail(&s.ttlr, TAIL_WINDOW, LIMIT_TAIL)));
    report.note("ttlr_p99_ms_windowed", json!(windowed_tail(&s.ttlr, 4 * TAIL_WINDOW, 0.99)));
    let per_query: Vec<Value> = (0..r.pool.len())
        .map(|q| {
            let ok: Vec<_> = nominal.outcomes.iter().filter(|o| o.pool == q && o.ok()).collect();
            let ttlr: Vec<f64> = ok.iter().filter_map(|o| o.timing.last.map(ms)).collect();
            let ttfr: Vec<f64> = ok.iter().filter_map(|o| o.timing.first.map(ms)).collect();
            json!({
                "query": r.pool[q].text,
                "items": r.pool[q].expect.count,
                "ttfr_ms": distribution(&ttfr),
                "ttlr_ms": distribution(&ttlr),
            })
        })
        .collect();
    report.note("per_query", Value::Array(per_query));
    report.note("failed_frac", json!(failed_frac));
    report
}

/// Per-peer replay of one pool query: registry evaluation and rendering
/// times (ms), each the median of a few serial repeats.
struct Replay {
    eval_ms: Vec<Vec<f64>>,
    render_ms: Vec<Vec<f64>>,
    compile_us: Vec<f64>,
}

fn replay(r: &Ready) -> Replay {
    const REPS: usize = 5;
    let mut eval_ms = Vec::new();
    let mut render_ms = Vec::new();
    let mut compile_us = Vec::new();
    for q in &r.pool {
        let mut parse = Vec::new();
        for _ in 0..REPS * 4 {
            let t = Instant::now();
            black_box(Query::parse(black_box(&q.text)).expect("pool query parses"));
            parse.push(t.elapsed().as_secs_f64() * 1e6);
        }
        compile_us.push(median(&parse));
        let parsed = Query::parse(&q.text).expect("pool query parses");
        let mut evals = Vec::new();
        let mut renders = Vec::new();
        for reg in &r.fed.registries {
            let mut e = Vec::new();
            let mut w = Vec::new();
            for _ in 0..REPS {
                let t = Instant::now();
                let out = reg.query(&parsed, &Freshness::any()).expect("replayed query");
                e.push(t.elapsed().as_secs_f64() * 1e3);
                let t = Instant::now();
                black_box(crate::fed::render(&out));
                w.push(t.elapsed().as_secs_f64() * 1e3);
            }
            evals.push(median(&e));
            renders.push(median(&w));
        }
        eval_ms.push(evals);
        render_ms.push(renders);
    }
    Replay { eval_ms, render_ms, compile_us }
}

/// Encode and decode cost per frame over the captured frames (ns), the
/// median of three passes.
fn codec(frames: &[Vec<u8>]) -> (f64, f64) {
    if frames.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for _ in 0..3 {
        let mut reader = FrameReader::new();
        let t = Instant::now();
        let mut messages: Vec<Message> = Vec::with_capacity(frames.len());
        for f in frames {
            reader.extend(f);
            messages
                .push(reader.next_message().expect("captured frame decodes").expect("whole frame"));
        }
        dec.push(t.elapsed().as_nanos() as f64 / frames.len() as f64);
        let t = Instant::now();
        for m in &messages {
            let mut buf = BytesMut::new();
            write_frame(&mut buf, m).expect("re-encode");
            black_box(buf);
        }
        enc.push(t.elapsed().as_nanos() as f64 / frames.len() as f64);
    }
    (median(&enc), median(&dec))
}

/// One `Ping` to a bench-registered echo id and back, on the federation's
/// own transport (idle), in µs.
fn loopback_rtt_us(fed: &Federation) -> f64 {
    const WARM: usize = 20;
    const ROUNDS: usize = 400;
    let (a, b) = (NodeId(1000), NodeId(1001));
    let ia = fed.trace.register(a);
    let ib = fed.trace.register(b);
    let stop = AtomicBool::new(false);
    let mut ping = BytesMut::new();
    write_frame(&mut ping, &Message::Ping).expect("ping frame");
    let ping = ping.to_vec();
    let mut rtts = Vec::new();
    std::thread::scope(|s| {
        s.spawn(|| {
            while !stop.load(Ordering::SeqCst) {
                if let Ok(env) = ib.recv_timeout(Duration::from_millis(20)) {
                    fed.trace.send_frame(b, env.from, env.message);
                }
            }
        });
        for i in 0..WARM + ROUNDS {
            let t = Instant::now();
            fed.trace.send_frame(a, b, ping.clone());
            if ia.recv_timeout(Duration::from_secs(1)).is_ok() && i >= WARM {
                rtts.push(t.elapsed().as_secs_f64() * 1e6);
            }
        }
        stop.store(true, Ordering::SeqCst);
    });
    fed.trace.deregister(a);
    fed.trace.deregister(b);
    median(&rtts)
}

/// Traced run: an untraced nominal phase (the overhead baseline), a traced
/// nominal phase (spans), then the ladder with frames still recorded (for
/// retransmissions and drops near the knee), then the replays.
pub fn run_traced(spec: &Spec, seed: u64, seconds: f64) -> Report {
    let mut report = Report::new();
    let mut r = setup(spec, seed);
    for w in &r.warm {
        report.tally(w.outcomes.len(), failures(w));
    }
    common_meta(spec, &r, &mut report, seconds);
    let len = r.pool.len();
    let mut rng = Rng::new(seed ^ 0x51);
    let mut pick = move |_: usize| rng.below(len);
    let mut gauges = Gauges::default();
    let phase_s = seconds * NOMINAL_SHARE / 2.0;
    let drops0 = r.fed.trace.inbox_drops();
    let reconnects0 = r.fed.tcp.as_ref().map_or(0, |t| t.stats().reconnects);
    let parses0 = r.fed.family_sum("updf_query_cache_parses");
    let plans0 = plans(&r.fed);
    let idle = idle_cores();

    let cpu0 = cpu_seconds();
    let fed = &r.fed;
    let untraced = r.client.run(
        fed,
        &r.pool,
        Schedule::new(start_soon(), spec.nominal_rate, phase_s),
        &mut pick,
        || gauges.sample(fed),
    );
    let cpu = cpu_seconds() - cpu0;
    let parses = r.fed.family_sum("updf_query_cache_parses") - parses0;
    let plans1 = plans(&r.fed);
    report.tally(untraced.outcomes.len(), failures(&untraced));
    let base = samples(&untraced);
    let completed = (untraced.outcomes.len() - failures(&untraced)).max(1) as f64;
    let cpu_ms_per_query = cpu * 1e3 / completed;

    r.fed.trace.arm(1);
    let fed = &r.fed;
    let traced = r.client.run(
        fed,
        &r.pool,
        Schedule::new(start_soon(), spec.nominal_rate, phase_s),
        &mut pick,
        || gauges.sample(fed),
    );
    report.tally(traced.outcomes.len(), failures(&traced));
    let with_trace = samples(&traced);

    r.fed.trace.arm(2);
    let first = first_rung_for(spec, idle, cpu_ms_per_query, &mut report);
    let budget_s = seconds * (1.0 - NOMINAL_SHARE);
    let mut tick = || {};
    let knee = ladder(
        spec,
        &mut r,
        budget_s,
        step_of(&untraced),
        first,
        &mut pick,
        &mut tick,
        &mut report,
    );
    r.fed.trace.arm(0);
    let drops1 = r.fed.trace.inbox_drops();
    let reconnects = r.fed.tcp.as_ref().map_or(0, |t| t.stats().reconnects) - reconnects0;
    let recs = r.fed.trace.take_records();
    let captured = r.fed.trace.take_captured();
    report.correct = report.failed == 0;

    // Frames and bytes per query, by kind, in the traced nominal phase.
    let nominal_recs: Vec<_> = recs.iter().copied().filter(|x| x.phase == 1).collect();
    let nq = traced.outcomes.len().max(1) as f64;
    let spans = work_dir().join(format!("spans-{}.tsv", spec.name));
    if let Err(e) = write_spans(&spans, &nominal_recs) {
        eprintln!("perfbench: could not write {}: {e}", spans.display());
    }
    report.note("spans_file", json!(spans.display().to_string()));
    let by_kind = |k: u8| nominal_recs.iter().filter(|x| x.kind == k).count() as f64 / nq;
    let frames_per_query = nominal_recs.len() as f64 / nq;
    report.layer("net.frames_per_query", frames_per_query, "count");
    for (k, name) in KIND_NAMES {
        report.layer(&format!("net.frames_per_query.{name}"), by_kind(k), "count");
    }
    let bytes: f64 = nominal_recs.iter().map(|x| f64::from(x.len)).sum();
    report.layer("net.bytes_per_query", bytes / nq, "B");
    let send_us: Vec<f64> =
        nominal_recs.iter().map(|x| x.end_ns.saturating_sub(x.start_ns) as f64 / 1e3).collect();
    let send_us_p50 = median(&send_us);
    report.layer("net.send_us_p50", send_us_p50, "us");
    report.layer("net.loopback_rtt_us_p50", loopback_rtt_us(&r.fed), "us");
    report.layer(
        "net.inbox_drops.sheddable",
        (drops1.sheddable - drops0.sheddable) as f64,
        "count",
    );
    report.layer("net.inbox_drops.priority", (drops1.priority - drops0.priority) as f64, "count");
    report.layer("net.tcp_reconnects", reconnects as f64, "count");

    let (enc_ns, dec_ns) = codec(&captured);
    report.layer("pdp.encode_ns_per_frame", enc_ns, "ns");
    report.layer("pdp.decode_ns_per_frame", dec_ns, "ns");
    report.layer("pdp.results_resent", results_resent(&recs) as f64, "count");

    // Replays: weights are the traced phase's own query mix.
    let rep = replay(&r);
    let mut mix = vec![0usize; r.pool.len()];
    for o in &traced.outcomes {
        mix[o.pool] += 1;
    }
    let per_flood = |table: &Vec<Vec<f64>>| -> f64 {
        let total: f64 =
            mix.iter().enumerate().map(|(q, &n)| n as f64 * table[q].iter().sum::<f64>()).sum();
        total / nq
    };
    let compile_us: f64 =
        mix.iter().enumerate().map(|(q, &n)| n as f64 * rep.compile_us[q]).sum::<f64>() / nq;
    let query_ms = per_flood(&rep.eval_ms);
    let render_ms = per_flood(&rep.render_ms);
    let parses_per_query = parses as f64 / untraced.outcomes.len().max(1) as f64;
    report.layer("xq.compile_us_per_query", compile_us, "us");
    report.layer("xq.parses_per_query", parses_per_query, "count");
    report.layer("registry.query_ms_per_flood", query_ms, "ms");
    report.layer("xml.render_ms_per_flood", render_ms, "ms");
    registry_layers(&mut report, &r.fed, plans0, plans1);

    // Hop spans of the traced nominal phase.
    let pool_of: HashMap<u128, usize> = traced.outcomes.iter().map(|o| (o.txn, o.pool)).collect();
    let hops = rebuild_hops(&nominal_recs, r.fed.client.0);
    let (mut selfs, mut relays, mut waits) = (Vec::new(), Vec::new(), Vec::new());
    for (txn, list) in &hops {
        let Some(&q) = pool_of.get(txn) else { continue };
        for h in list {
            selfs.push(h.self_ms);
            if let Some(x) = h.relay_ms {
                relays.push(x);
            }
            let p = h.peer as usize;
            if p < r.fed.registries.len() {
                waits.push(h.self_ms - rep.eval_ms[q][p] - rep.render_ms[q][p]);
            }
        }
    }
    report.layer("updf.hop_self_ms_p50", median(&selfs), "ms");
    report.layer("updf.relay_ms_p50", median(&relays), "ms");
    report.layer("updf.hop_wait_ms_p50", median(&waits), "ms");
    let attributed = query_ms
        + render_ms
        + compile_us / 1e3 * parses_per_query
        + (enc_ns + dec_ns) * frames_per_query / 1e6
        + send_us_p50 * frames_per_query / 1e3;
    report.layer("updf.unattributed_cpu_ms_per_query", cpu_ms_per_query - attributed, "ms");
    gauges.report(&mut report);

    let late = tail_of(&base.late, 0.99);
    report.layer("bench.gen_late_p99_ms", late, "ms");
    let base_p50 = median(&base.ttlr);
    report.layer(
        "bench.trace_overhead_frac",
        (median(&with_trace.ttlr) - base_p50) / base_p50,
        "ratio",
    );

    report.note(
        "trace",
        json!({
            "ttlr_p50_ms_untraced": base_p50,
            "ttlr_p50_ms_traced": median(&with_trace.ttlr),
            "cpu_ms_per_query_untraced": cpu_ms_per_query,
            "hop_self_ms": distribution(&selfs),
            "relay_ms": distribution(&relays),
            "hop_wait_ms": distribution(&waits),
            "send_us": distribution(&send_us),
            "frames_recorded": recs.len(),
            "frames_captured_for_codec": captured.len(),
            "max_qps_under_slo_traced": knee.unwrap_or(0.0),
            "gen_late_p50_ms": quantile(&sorted(&base.late), 0.5),
        }),
    );
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every peer's rendered answer to `query`, in peer order.
    fn truth_items(fed: &Federation, query: &str) -> Vec<String> {
        let q = Query::parse(query).expect("pool query parses");
        fed.registries
            .iter()
            .flat_map(|r| crate::fed::render(&r.query(&q, &Freshness::any()).expect("query")))
            .collect()
    }

    #[test]
    fn answers_that_differ_from_ground_truth_count_as_failed() {
        let fed = Federation::spawn(Substrate::Threaded, 3);
        let mut pool = pool_for(&SCAN_MIX, &fed, 3);
        // Query 3 (M1, hundreds of items): expect one item fewer, as if the
        // federation had duplicated one. Query 4 (M2): expect one item
        // more, as if it had dropped one.
        let mut fewer = truth_items(&fed, &pool[3].text);
        fewer.pop();
        pool[3].expect = crate::stats::Digest::of(&fewer);
        let mut more = truth_items(&fed, &pool[4].text);
        more.push(more[0].clone());
        pool[4].expect = crate::stats::Digest::of(&more);

        let mut client = Client::new(3);
        let n = pool.len() * 2;
        let len = pool.len();
        let phase = client.run(
            &fed,
            &pool,
            Schedule::new(start_soon(), 50.0, n as f64 / 50.0),
            |i| i % len,
            || {},
        );
        assert_eq!(phase.outcomes.len(), n);
        for o in &phase.outcomes {
            assert!(o.complete, "query {} did not complete", o.pool);
            assert_eq!(o.correct, o.pool != 3 && o.pool != 4, "query {}", o.pool);
        }
        assert_eq!(failures(&phase), 4);
        assert_eq!(wrong(&phase), 4);
    }
}
