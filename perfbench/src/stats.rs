//! Pure helpers: percentiles, the open-loop schedule, knee detection and
//! the order-free answer digest. Everything here is deterministic and
//! unit-tested; the workloads only feed it measurements.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Value at quantile `q` (0..=1) of an ascending slice, nearest rank.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values.
pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

/// `(q1, median, q3)` of unsorted values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let s = sorted(values);
    (quantile(&s, 0.25), quantile(&s, 0.5), quantile(&s, 0.75))
}

/// The tail quantile the ladder's limit applies to. On a shared 2-core
/// host a short rung's p99 is set by one or two scheduler stalls; its p90
/// still rises sharply at the knee.
pub const LIMIT_TAIL: f64 = 0.9;

/// The tail statistic a sample supports at quantile `q`: the `q` quantile
/// when at least ten samples lie beyond it, otherwise the highest rank
/// that still leaves ten beyond. Returns `(quantile actually used,
/// value)`, or `None` below 11 samples.
pub fn tail_at(sorted: &[f64], q: f64) -> Option<(f64, f64)> {
    let n = sorted.len();
    if n < 11 {
        return None;
    }
    let q_rank = ((q * n as f64).ceil() as usize).max(1);
    let rank = q_rank.min(n - 10);
    Some((rank as f64 / n as f64, sorted[rank - 1]))
}

/// [`tail_at`] of unsorted values, NaN when too few.
pub fn tail_of(values: &[f64], q: f64) -> f64 {
    tail_at(&sorted(values), q).map_or(f64::NAN, |(_, t)| t)
}

/// Consecutive windows of `size` items in arrival order, the last one
/// absorbing the remainder; a slice shorter than two windows is one.
pub fn windows<T>(items: &[T], size: usize) -> Vec<&[T]> {
    let n = items.len() / size.max(1);
    if n < 2 {
        return vec![items];
    }
    (0..n)
        .map(|w| &items[w * size..if w + 1 == n { items.len() } else { (w + 1) * size }])
        .collect()
}

/// Median over [`windows`] of `window` samples of each window's supported
/// `q` tail. A short stall then moves one window's tail, not the reported
/// figure.
pub fn windowed_tail(values: &[f64], window: usize, q: f64) -> f64 {
    median(&windows(values, window).into_iter().map(|w| tail_of(w, q)).collect::<Vec<_>>())
}

/// The typical latency of a mix of request classes, from `(class, value)`
/// samples: each class's median, averaged with the weight of that class's
/// share of the samples. A plain median of a mix sits on the boundary
/// between a fast and a slow class and jumps between them from run to run.
pub fn mix_median(samples: &[(usize, f64)]) -> f64 {
    let mut by_class: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(class, value) in samples {
        by_class.entry(class).or_default().push(value);
    }
    by_class.values().map(|v| median(v) * v.len() as f64).sum::<f64>() / samples.len() as f64
}

/// The quantile over windows that the flood workloads' latency and CPU
/// figures report: the quiet quarter. On a shared host the program runs
/// in stretches of a few seconds at two speeds: in the slow ones its CPU
/// per request rises with its latency, by up to twice, and how much of a
/// run they cover is the host's doing, not the program's. A window median
/// moves with that share; the quiet quarter moves with the program, as
/// long as a quarter of the run is quiet. A program change that slows
/// every request slows the quiet windows too.
pub const QUIET: f64 = 0.25;

/// The [`QUIET`] quantile of per-window figures.
pub fn quiet(windows: &[f64]) -> f64 {
    quantile(&sorted(windows), QUIET)
}

/// Each consecutive `window_s` window's [`mix_median`], in time order,
/// from `(seconds since start, class, value)` samples. Windows are of
/// time, not of sample count, so a closed loop's fast stretches (many
/// samples) weigh no more than its slow ones.
pub fn window_mix_medians(samples: &[(f64, usize, f64)], window_s: f64) -> Vec<f64> {
    let mut by_window: BTreeMap<u64, Vec<(usize, f64)>> = BTreeMap::new();
    for &(t, class, value) in samples {
        by_window.entry((t / window_s) as u64).or_default().push((class, value));
    }
    by_window.values().map(|w| mix_median(w)).collect()
}

/// The CPU milliseconds spent per request in each whole `window_s`
/// window, from `(seconds since start, cumulative CPU seconds, requests
/// so far)` samples.
pub fn window_cpu_ms(samples: &[(f64, f64, f64)], window_s: f64) -> Vec<f64> {
    let mut per_request = Vec::new();
    let mut from = 0;
    for to in 1..samples.len() {
        let (t0, cpu0, n0) = samples[from];
        let (t1, cpu1, n1) = samples[to];
        if t1 - t0 >= window_s && n1 > n0 {
            per_request.push((cpu1 - cpu0) * 1e3 / (n1 - n0));
            from = to;
        }
    }
    per_request
}

/// A fixed-rate open-loop schedule: request `i` is due at
/// `start + i / rate`, whether or not earlier requests have finished.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    pub start: Instant,
    pub rate: f64,
    pub count: usize,
}

impl Schedule {
    /// Requests at `rate` per second for `seconds`, starting at `start`.
    pub fn new(start: Instant, rate: f64, seconds: f64) -> Schedule {
        Schedule { start, rate, count: (rate * seconds).round().max(1.0) as usize }
    }

    /// When request `i` is due.
    pub fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_secs_f64(i as f64 / self.rate)
    }

    /// When the last request is due.
    pub fn end(&self) -> Instant {
        self.due(self.count.saturating_sub(1))
    }
}

/// Timing of one open-loop request, every instant relative to its due time,
/// so a generator stall is charged to the requests it delayed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Timing {
    /// How late the generator sent it.
    pub late: Duration,
    /// Due time to first result item, if any item arrived.
    pub first: Option<Duration>,
    /// Due time to the final frame, if it arrived before the deadline.
    pub last: Option<Duration>,
}

impl Timing {
    /// Timing from raw instants.
    pub fn from_instants(
        due: Instant,
        sent: Instant,
        first: Option<Instant>,
        last: Option<Instant>,
    ) -> Timing {
        Timing {
            late: sent.saturating_duration_since(due),
            first: first.map(|t| t.saturating_duration_since(due)),
            last: last.map(|t| t.saturating_duration_since(due)),
        }
    }
}

/// One rung of an offered-rate ladder.
#[derive(Debug, Clone, Copy)]
pub struct Step {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Gated tail latency of the step in ms; a failed request counts as
    /// missing every limit, so any failure inside the tail makes this
    /// infinite.
    pub tail_ms: f64,
    /// Requests sent during the step.
    pub sent: usize,
    /// Requests still outstanding when the step's last request was due.
    pub backlog: usize,
}

impl Step {
    /// Whether the rung meets the latency limit without a growing backlog.
    pub fn passes(&self, limit_ms: f64) -> bool {
        self.tail_ms <= limit_ms && !self.backlog_grew(limit_ms)
    }

    /// More requests outstanding at the end than the limit itself allows
    /// in flight (Little's law), plus two requests of slack.
    pub fn backlog_grew(&self, limit_ms: f64) -> bool {
        self.backlog as f64 > self.rate * limit_ms / 1e3 + 2.0
    }
}

/// Gated tail of a step whose requests either finished (`Some(ms)`) or
/// failed.
pub fn step_tail(latencies: &[Option<f64>]) -> f64 {
    let mut v: Vec<f64> = latencies.iter().map(|l| l.unwrap_or(f64::INFINITY)).collect();
    v.sort_by(f64::total_cmp);
    match tail_at(&v, LIMIT_TAIL) {
        Some((_, t)) => t,
        None => v.last().copied().unwrap_or(f64::INFINITY),
    }
}

/// Ratio between neighbouring rungs of every offered-rate ladder: the
/// reported knee moves by one 5% rung, not a doubling.
pub const RUNG_RATIO: f64 = 1.05;

/// Rate of rung `k` of the ladder anchored at `nominal` (rung 0).
pub fn rung_rate(nominal: f64, k: u32) -> f64 {
    nominal * RUNG_RATIO.powi(k as i32)
}

/// The highest rung at or below `share` of `capacity` (never rung 0): the
/// rungs below it are far from the knee and would all pass. Without a
/// usable estimate the ladder starts at rung 1.
pub fn first_rung(nominal: f64, capacity: f64, share: f64) -> u32 {
    let target = share * capacity / nominal;
    if !target.is_finite() || target <= RUNG_RATIO {
        return 1;
    }
    (target.ln() / RUNG_RATIO.ln()).floor().max(1.0) as u32
}

/// Throughput a CPU-bound service reaches on `cores`: `busy` cores at
/// `rate` requests/s, of which `idle` cores are spent with no load at all.
pub fn capacity_estimate(cores: f64, idle: f64, busy: f64, rate: f64) -> f64 {
    let per_request = (busy - idle) / rate;
    if per_request > 0.0 {
        (cores - idle).max(0.0) / per_request
    } else {
        f64::INFINITY
    }
}

/// Consecutive failing rungs that end a ladder: enough past the knee for
/// the running median in [`knee`] to see it.
pub const KNEE_FAILS: usize = 3;

/// A rung's latency for the knee: its tail, or four times the limit when
/// its backlog grew or failures filled its tail — such a rung is over the
/// knee whatever its completed requests saw. Capped at that value so one
/// collapsed rung cannot dominate the interpolation.
fn rung_latency(s: &Step, limit_ms: f64) -> f64 {
    let over = 4.0 * limit_ms;
    if s.backlog_grew(limit_ms) || !s.tail_ms.is_finite() {
        over
    } else {
        s.tail_ms.min(over)
    }
}

/// The offered rate at which the rungs' tail latency, smoothed by a running
/// median of three neighbouring rungs, first crosses `limit_ms`,
/// interpolated in log latency between the rungs either side. One noisy
/// short rung cannot move it, and it is not quantized to the rung spacing.
///
/// `steps[0]` is the long nominal phase and is not smoothed with the
/// ladder rungs after it. `None` when the nominal phase is already over the
/// limit; the last rate when no rung crosses. Rungs must be in ascending
/// rate order.
pub fn knee(steps: &[Step], limit_ms: f64) -> Option<f64> {
    let y: Vec<f64> = steps.iter().map(|s| rung_latency(s, limit_ms)).collect();
    let n = y.len();
    let smooth = |i: usize| -> f64 {
        if i == 0 {
            return y[0];
        }
        median(&y[i.saturating_sub(1).max(1)..(i + 2).min(n)])
    };
    if n == 0 || smooth(0) > limit_ms {
        return None;
    }
    let Some(i) = (1..n).find(|&i| smooth(i) > limit_ms) else {
        return Some(steps[n - 1].rate);
    };
    let (below, above) = (smooth(i - 1), smooth(i));
    let f = (limit_ms.ln() - below.ln()) / (above.ln() - below.ln());
    Some(steps[i - 1].rate + f.clamp(0.0, 1.0) * (steps[i].rate - steps[i - 1].rate))
}

/// Whether a ladder can stop: its last `KNEE_FAILS` rungs all failed.
pub fn ladder_done(steps: &[Step], limit_ms: f64) -> bool {
    steps.len() >= KNEE_FAILS
        && steps[steps.len() - KNEE_FAILS..].iter().all(|s| !s.passes(limit_ms))
}

/// An order-free digest of a multiset of strings: equal digests mean the
/// same items with the same multiplicities (up to a 2^-64 collision).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Digest {
    pub count: u64,
    sum: u64,
    squares: u64,
}

impl Digest {
    /// Digest of a whole answer.
    pub fn of<S: AsRef<str>>(items: &[S]) -> Digest {
        let mut d = Digest::default();
        for item in items {
            d.add(item.as_ref());
        }
        d
    }

    /// Add one item.
    pub fn add(&mut self, item: &str) {
        let h = mix(fnv1a(item.as_bytes()));
        self.count += 1;
        self.sum = self.sum.wrapping_add(h);
        self.squares = self.squares.wrapping_add(mix(h));
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// SplitMix64 finalizer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A small seeded generator (xorshift64*) for schedules and picks.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(mix(seed) | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        for n in [11, 12, 50, 99, 100, 101, 500] {
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let (q, value) = tail_at(&v, LIMIT_TAIL).expect("enough samples");
            assert!(v.iter().filter(|&&x| x > value).count() >= 10, "n={n}");
            assert!(q <= LIMIT_TAIL + 1.0 / n as f64, "n={n}: quantile {q}");
        }
        for n in [11, 12, 50, 100, 500, 999, 1000, 1001, 1999, 2000, 5000] {
            let v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let (q, value) = tail_at(&v, 0.99).expect("enough samples");
            let beyond = v.iter().filter(|&&x| x > value).count();
            assert!(beyond >= 10, "n={n}: only {beyond} beyond");
            // Nearest rank: the rank's own quantile is within 1/n of p99.
            assert!(q <= 0.99 + 1.0 / n as f64, "n={n}: quantile {q}");
            if n >= 1000 {
                assert!((q - 0.99).abs() < 1e-3, "n={n}: p99 must be used, got {q}");
            }
        }
        assert!(tail_at(&[1.0; 10], 0.99).is_none());
    }

    #[test]
    fn windowed_tail_ignores_one_stalled_window() {
        let mut v: Vec<f64> = (0..5000).map(|i| 1.0 + (i % 100) as f64 / 100.0).collect();
        // A 60-request stall inside the third window: over 1% of the run.
        for x in v.iter_mut().skip(2100).take(60) {
            *x = 50.0;
        }
        assert!(tail_of(&v, 0.99) >= 50.0);
        let w = windowed_tail(&v, 1000, 0.99);
        assert!(w < 2.0, "windowed tail {w}");
        assert_eq!(windowed_tail(&v[..1500], 1000, 0.99), tail_of(&v[..1500], 0.99));
    }

    #[test]
    fn mix_median_weights_each_class_median_by_its_share() {
        // Class 0: three samples with median 1; class 1: one sample of 9.
        let samples = [(0, 1.0), (0, 1.0), (0, 4.0), (1, 9.0)];
        assert!((mix_median(&samples) - (3.0 * 1.0 + 9.0) / 4.0).abs() < 1e-9);
        assert!(mix_median(&[]).is_nan());
    }

    #[test]
    fn the_quiet_quarter_ignores_a_slowdown_over_most_of_the_run() {
        // Ten 1 s windows of 1.0..2.0 ms; six of them run twice as slow.
        let v: Vec<(f64, usize, f64)> = (0..1000)
            .map(|i| {
                let slow = if (200..800).contains(&i) { 2.0 } else { 1.0 };
                (i as f64 / 100.0, 0, (1.0 + (i % 100) as f64 / 100.0) * slow)
            })
            .collect();
        let pooled: Vec<f64> = v.iter().map(|s| s.2).collect();
        assert!(median(&pooled) > 2.2, "pooled median {}", median(&pooled));
        let w = quiet(&window_mix_medians(&v, 1.0));
        assert!((w - 1.5).abs() < 0.02, "quiet median {w}");
        // A program that is 30% slower everywhere reads 30% slower.
        let slower: Vec<_> = v.iter().map(|&(t, c, x)| (t, c, x * 1.3)).collect();
        assert!((quiet(&window_mix_medians(&slower, 1.0)) / w - 1.3).abs() < 1e-9);
        assert_eq!(windows(&pooled[..150], 100).len(), 1);
        assert_eq!(
            windows(&pooled[..250], 100).iter().map(|w| w.len()).collect::<Vec<_>>(),
            [100, 150]
        );
    }

    #[test]
    fn quiet_cpu_divides_by_requests() {
        // 2 CPU-seconds per second at 1000 requests/s = 2 ms per request,
        // except two noisy seconds.
        let mut samples = Vec::new();
        let mut cpu = 0.0;
        for i in 0..=50 {
            samples.push((i as f64 * 0.1, cpu, i as f64 * 100.0));
            cpu += if (20..40).contains(&i) { 0.5 } else { 0.2 };
        }
        let windows = window_cpu_ms(&samples, 1.0);
        assert_eq!(windows.len(), 5);
        assert!((quiet(&windows) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), (1.0, 2.0, 3.0));
    }

    #[test]
    fn open_loop_timing_runs_from_the_due_time() {
        let start = Instant::now();
        let s = Schedule::new(start, 100.0, 1.0);
        assert_eq!(s.count, 100);
        assert_eq!(s.due(10) - start, Duration::from_millis(100));
        // A request sent 30 ms late whose answer took 5 ms after sending
        // is charged 35 ms, and the lateness is accounted separately.
        let due = s.due(10);
        let sent = due + Duration::from_millis(30);
        let last = sent + Duration::from_millis(5);
        let t = Timing::from_instants(due, sent, Some(sent + Duration::from_millis(2)), Some(last));
        assert_eq!(t.late, Duration::from_millis(30));
        assert_eq!(t.first, Some(Duration::from_millis(32)));
        assert_eq!(t.last, Some(Duration::from_millis(35)));
        // Sending early never produces negative lateness.
        let early = Timing::from_instants(due, due - Duration::from_millis(1), None, None);
        assert_eq!(early.late, Duration::ZERO);
        assert_eq!(early.last, None);
    }

    fn synthetic_step(rate: f64, capacity: f64, seconds: f64) -> Step {
        // M/D/1-flavoured curve: latency grows as load nears capacity and
        // the queue grows without bound beyond it.
        let rho = rate / capacity;
        let base = 1.0;
        if rho < 1.0 {
            let lat: Vec<Option<f64>> = (0..(rate * seconds) as usize)
                .map(|i| Some(base / (1.0 - rho) * (1.0 + (i % 100) as f64 / 100.0)))
                .collect();
            Step { rate, tail_ms: step_tail(&lat), sent: lat.len(), backlog: 1 }
        } else {
            // Saturated: the queue grows by the excess plus the jitter a
            // server at full load can no longer absorb.
            let sent = (rate * seconds) as usize;
            let done = (capacity * seconds * 0.95) as usize;
            Step { rate, tail_ms: 5.0, sent, backlog: sent - done }
        }
    }

    fn curve(rates: &[f64], capacity: f64) -> Vec<Step> {
        rates.iter().map(|&r| synthetic_step(r, capacity, 2.0)).collect()
    }

    #[test]
    fn knee_interpolates_where_the_tail_crosses_the_limit() {
        let rates = [100.0, 500.0, 600.0, 700.0, 800.0, 900.0, 1000.0, 1100.0];
        let steps = curve(&rates, 1000.0);
        // Tails: 1.99/(1-rho): 700 -> 6.63, 800 -> 9.95, 900 -> 19.9.
        let k = knee(&steps, 10.0).expect("nominal passes");
        assert!(k > 800.0 && k < 810.0, "knee {k}");
        let k = knee(&steps, 15.0).expect("nominal passes");
        assert!(k > 850.0 && k < 900.0, "knee {k}");
        assert_eq!(knee(&steps, 0.5), None);
        // No crossing on the ladder: the last rate.
        assert_eq!(knee(&steps[..4], 100.0), Some(700.0));
        assert!(ladder_done(&steps, 10.0));
        assert!(!ladder_done(&steps[..6], 10.0));
    }

    #[test]
    fn knee_counts_a_growing_backlog_as_over_the_limit() {
        // Beyond capacity the synthetic curve reports a 5 ms tail (the
        // completed requests were fast) but a growing backlog.
        let steps = curve(&[400.0, 800.0, 1000.0, 1200.0, 1400.0, 1600.0], 1100.0);
        assert!(steps[3].tail_ms < 50.0);
        assert!(!steps[3].passes(50.0));
        let k = knee(&steps, 50.0).expect("nominal passes");
        assert!((1000.0..=1200.0).contains(&k), "knee {k}");
    }

    #[test]
    fn ladder_starts_below_the_estimated_capacity() {
        // 0.2 cores idle, 1.0 core busy at 400/s: 2 ms per request, so two
        // cores sustain (2 - 0.2) / 0.002 = 900/s.
        let cap = capacity_estimate(2.0, 0.2, 1.0, 400.0);
        assert!((cap - 900.0).abs() < 1e-6);
        let k = first_rung(400.0, cap, 0.75);
        assert!(rung_rate(400.0, k) <= 0.75 * cap);
        assert!(rung_rate(400.0, k + 1) > 0.75 * cap);
        assert_eq!(first_rung(400.0, 300.0, 0.75), 1);
        assert_eq!(first_rung(400.0, f64::INFINITY, 0.75), 1);
    }

    #[test]
    fn knee_rides_out_one_noisy_rung() {
        let rates = [100.0, 500.0, 600.0, 700.0, 800.0, 900.0, 1000.0, 1100.0];
        let clean = knee(&curve(&rates, 1000.0), 10.0);
        let mut steps = curve(&rates, 1000.0);
        // A stall fails the 600/s rung on its own.
        steps[2].tail_ms = 100.0;
        assert_eq!(knee(&steps, 10.0), clean);
    }

    #[test]
    fn failed_requests_miss_every_limit() {
        let mut lat: Vec<Option<f64>> = vec![Some(1.0); 1000];
        assert_eq!(step_tail(&lat), 1.0);
        // More than 10% failed: the gated tail falls among the failures.
        for slot in lat.iter_mut().take(101) {
            *slot = None;
        }
        assert!(step_tail(&lat).is_infinite());
    }

    #[test]
    fn digest_rejects_dropped_duplicated_and_corrupted_items() {
        let truth = ["<a/>", "<b/>", "<b/>", "<c x=\"1\"/>"];
        let same_order_changed = ["<b/>", "<c x=\"1\"/>", "<a/>", "<b/>"];
        assert_eq!(Digest::of(&truth), Digest::of(&same_order_changed));
        let dropped = ["<a/>", "<b/>", "<c x=\"1\"/>"];
        assert_ne!(Digest::of(&truth), Digest::of(&dropped));
        let duplicated = ["<a/>", "<b/>", "<b/>", "<b/>", "<c x=\"1\"/>"];
        assert_ne!(Digest::of(&truth), Digest::of(&duplicated));
        // Same count, one item swapped for another copy of a neighbour.
        let swapped = ["<a/>", "<a/>", "<b/>", "<c x=\"1\"/>"];
        assert_ne!(Digest::of(&truth), Digest::of(&swapped));
        let corrupted = ["<a/>", "<b/>", "<b/>", "<c x=\"2\"/>"];
        assert_ne!(Digest::of(&truth), Digest::of(&corrupted));
    }
}
