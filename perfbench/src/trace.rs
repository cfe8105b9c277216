//! The tracing `FrameTransport` decorator and the outside-in span rebuild.
//!
//! The decorator sits between the peers and the real transport. While a
//! phase is armed it keeps, per frame, the transaction, kind, endpoints,
//! size and the start/end of the inner `send_frame` call, plus a bounded
//! sample of the raw frames for the codec replay. Nothing inside the
//! program is instrumented: per-hop spans are rebuilt afterwards from the
//! frames one transaction exchanged.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use wsda_net::transport::{FrameClassifier, FrameTransport, Inbox, InboxDrops};
use wsda_net::NodeId;
use wsda_obs::MetricsRegistry;

pub const KIND_QUERY: u8 = 1;
pub const KIND_RESULTS: u8 = 2;
pub const KIND_ACK: u8 = 7;

/// Frame kinds reported separately in `net.frames_per_query.*`.
pub const KIND_NAMES: [(u8, &str); 3] =
    [(KIND_QUERY, "query"), (KIND_RESULTS, "results"), (KIND_ACK, "ack")];

/// Raw frames kept for the codec replay: enough for a stable per-frame
/// mean, bounded so a 1,024-item answer mix cannot balloon memory.
const CAPTURE_FRAMES: usize = 20_000;
const CAPTURE_BYTES: usize = 32 << 20;

/// One frame handed to the transport.
#[derive(Debug, Clone, Copy, Default)]
pub struct FrameRec {
    pub start_ns: u64,
    pub end_ns: u64,
    pub txn: u128,
    pub seq: u64,
    pub from: u32,
    pub to: u32,
    pub len: u32,
    pub items: u32,
    pub kind: u8,
    pub last: bool,
    pub phase: u8,
}

/// Header fields of a PDP frame (`u32` length, kind byte, `u128`
/// transaction, then per-kind fields), read without decoding item bodies.
pub fn parse_header(frame: &[u8]) -> FrameRec {
    let mut rec = FrameRec { len: frame.len() as u32, ..FrameRec::default() };
    let Some(&kind) = frame.get(4) else { return rec };
    rec.kind = kind;
    let u128_at = |at: usize| {
        frame.get(at..at + 16).map(|b| u128::from_be_bytes(b.try_into().expect("16 bytes")))
    };
    let u64_at = |at: usize| {
        frame.get(at..at + 8).map(|b| u64::from_be_bytes(b.try_into().expect("8 bytes")))
    };
    let u32_at = |at: usize| {
        frame.get(at..at + 4).map(|b| u32::from_be_bytes(b.try_into().expect("4 bytes")))
    };
    if !(1..=8).contains(&kind) || kind == 5 || kind == 6 {
        return rec;
    }
    rec.txn = u128_at(5).unwrap_or(0);
    match kind {
        KIND_ACK => rec.seq = u64_at(21).unwrap_or(0),
        KIND_RESULTS => {
            rec.seq = u64_at(21).unwrap_or(0);
            let count = u32_at(29).unwrap_or(0);
            let mut at = 33usize;
            for _ in 0..count {
                let Some(n) = u32_at(at) else { return rec };
                at += 4 + n as usize;
            }
            rec.items = count;
            rec.last = frame.get(at).is_some_and(|&b| b == 1);
        }
        _ => {}
    }
    rec
}

/// One thread's records. Each sending thread appends to its own buffer, so
/// recording never makes the peers contend on a shared lock.
#[derive(Default)]
struct Buffer {
    recs: Vec<FrameRec>,
    frames: Vec<Vec<u8>>,
}

type Shared = Arc<Mutex<Buffer>>;

thread_local! {
    /// This thread's buffer, tagged with the decorator it belongs to.
    static LOCAL: RefCell<Option<(u64, Shared)>> = const { RefCell::new(None) };
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

/// A `FrameTransport` that records every frame while a phase is armed.
pub struct TracingTransport {
    inner: Arc<dyn FrameTransport>,
    id: u64,
    epoch: Instant,
    phase: AtomicU8,
    buffers: Mutex<Vec<Shared>>,
    captured_frames: AtomicUsize,
    captured_bytes: AtomicUsize,
}

impl TracingTransport {
    pub fn new(inner: Arc<dyn FrameTransport>) -> TracingTransport {
        TracingTransport {
            inner,
            id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            phase: AtomicU8::new(0),
            buffers: Mutex::new(Vec::new()),
            captured_frames: AtomicUsize::new(0),
            captured_bytes: AtomicUsize::new(0),
        }
    }

    /// Start recording frames tagged `phase` (`0` stops recording).
    pub fn arm(&self, phase: u8) {
        self.phase.store(phase, Ordering::SeqCst);
    }

    /// Nanoseconds since the decorator's epoch (the records' time base).
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn with_buffer(&self, f: impl FnOnce(&mut Buffer)) {
        LOCAL.with(|local| {
            let mut local = local.borrow_mut();
            if local.as_ref().is_none_or(|(id, _)| *id != self.id) {
                let buffer = Shared::default();
                self.buffers.lock().expect("buffer list lock poisoned").push(buffer.clone());
                *local = Some((self.id, buffer));
            }
            let (_, buffer) = local.as_ref().expect("buffer installed above");
            f(&mut buffer.lock().expect("trace buffer lock poisoned"));
        });
    }

    /// Take every record so far, in start order.
    pub fn take_records(&self) -> Vec<FrameRec> {
        let mut all = Vec::new();
        for b in self.buffers.lock().expect("buffer list lock poisoned").iter() {
            all.append(&mut b.lock().expect("trace buffer lock poisoned").recs);
        }
        all.sort_by_key(|r| r.start_ns);
        all
    }

    /// Take the captured raw frames.
    pub fn take_captured(&self) -> Vec<Vec<u8>> {
        let mut all = Vec::new();
        for b in self.buffers.lock().expect("buffer list lock poisoned").iter() {
            all.append(&mut b.lock().expect("trace buffer lock poisoned").frames);
        }
        all
    }

    /// Reserve room for one more captured frame of `len` bytes.
    fn capture_slot(&self, len: usize) -> bool {
        self.captured_frames.load(Ordering::Relaxed) < CAPTURE_FRAMES
            && self.captured_bytes.fetch_add(len, Ordering::Relaxed) + len <= CAPTURE_BYTES
            && self.captured_frames.fetch_add(1, Ordering::Relaxed) < CAPTURE_FRAMES
    }
}

impl FrameTransport for TracingTransport {
    fn register(&self, node: NodeId) -> Inbox<Vec<u8>> {
        self.inner.register(node)
    }

    fn deregister(&self, node: NodeId) {
        self.inner.deregister(node);
    }

    fn send_frame(&self, from: NodeId, to: NodeId, frame: Vec<u8>) -> bool {
        let phase = self.phase.load(Ordering::Relaxed);
        if phase == 0 {
            return self.inner.send_frame(from, to, frame);
        }
        let mut rec = parse_header(&frame);
        let copy = self.capture_slot(frame.len()).then(|| frame.clone());
        rec.from = from.0;
        rec.to = to.0;
        rec.phase = phase;
        rec.start_ns = self.now_ns();
        let ok = self.inner.send_frame(from, to, frame);
        rec.end_ns = self.now_ns();
        self.with_buffer(|b| {
            b.recs.push(rec);
            b.frames.extend(copy);
        });
        ok
    }

    fn set_sheddable_frames(&self, classify: FrameClassifier) {
        self.inner.set_sheddable_frames(classify);
    }

    fn inbox_drops(&self) -> InboxDrops {
        self.inner.inbox_drops()
    }

    fn export_metrics(&self, metrics: &MetricsRegistry) {
        self.inner.export_metrics(metrics);
    }

    fn set_chaos(&self, plan: wsda_net::model::ChaosPlan) {
        self.inner.set_chaos(plan);
    }

    fn chaos_now_ms(&self) -> u64 {
        self.inner.chaos_now_ms()
    }

    fn node_count(&self) -> usize {
        self.inner.node_count()
    }
}

/// Write the spans as tab-separated lines, one per frame; spans of one
/// query share the transaction id in the first column.
pub fn write_spans(path: &Path, recs: &[FrameRec]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "txn\tkind\tfrom\tto\tseq\tlast\titems\tbytes\tstart_ns\tend_ns\tphase")?;
    for r in recs {
        writeln!(
            out,
            "{:032x}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.txn,
            r.kind,
            r.from,
            r.to,
            r.seq,
            r.last as u8,
            r.items,
            r.len,
            r.start_ns,
            r.end_ns,
            r.phase
        )?;
    }
    out.flush()
}

/// Per-hop spans of one transaction, rebuilt from its frames.
#[derive(Debug, Clone, Copy)]
pub struct Hop {
    pub peer: u32,
    /// Query handed to the transport toward this peer → the peer's first
    /// outgoing frame for the transaction (delivery, inbox wait, compile,
    /// eval, render and the first forward's encode).
    pub self_ms: f64,
    /// Last child's final `Results` handed over → this peer's own final
    /// `Results` toward its parent; `None` for leaves.
    pub relay_ms: Option<f64>,
}

/// Rebuild every peer hop of every transaction in `recs`. The client is
/// never a hop. Retransmitted frames are ignored (first copy wins).
pub fn rebuild_hops(recs: &[FrameRec], client: u32) -> HashMap<u128, Vec<Hop>> {
    let mut by_txn: HashMap<u128, Vec<&FrameRec>> = HashMap::new();
    for r in recs.iter().filter(|r| r.txn != 0) {
        by_txn.entry(r.txn).or_default().push(r);
    }
    let mut out = HashMap::with_capacity(by_txn.len());
    for (txn, mut frames) in by_txn {
        frames.sort_by_key(|r| r.start_ns);
        // First query toward each peer: its arrival edge and parent.
        let mut arrival: HashMap<u32, (u64, u32)> = HashMap::new();
        let mut children: HashMap<u32, Vec<u32>> = HashMap::new();
        for r in frames.iter().filter(|r| r.kind == KIND_QUERY) {
            arrival.entry(r.to).or_insert((r.end_ns, r.from));
            children.entry(r.from).or_default().push(r.to);
        }
        let mut hops = Vec::new();
        for (&peer, &(arrived, parent)) in &arrival {
            if peer == client {
                continue;
            }
            let Some(first_out) =
                frames.iter().find(|r| r.from == peer && r.start_ns >= arrived).map(|r| r.start_ns)
            else {
                continue;
            };
            let final_up = frames
                .iter()
                .find(|r| r.kind == KIND_RESULTS && r.last && r.from == peer && r.to == parent)
                .map(|r| r.start_ns);
            let kids = children.get(&peer).map(Vec::as_slice).unwrap_or(&[]);
            let last_child_final = kids
                .iter()
                .filter_map(|&c| {
                    frames
                        .iter()
                        .find(|r| r.kind == KIND_RESULTS && r.last && r.from == c && r.to == peer)
                        .map(|r| r.end_ns)
                })
                .max();
            let relay_ms = match (final_up, last_child_final) {
                (Some(up), Some(child)) if up >= child => Some((up - child) as f64 / 1e6),
                _ => None,
            };
            hops.push(Hop {
                peer,
                self_ms: first_out.saturating_sub(arrived) as f64 / 1e6,
                relay_ms,
            });
        }
        out.insert(txn, hops);
    }
    out
}

/// `Results` frames sent again under the same `(txn, sender, receiver,
/// seq)`: retransmissions after a missed ack.
pub fn results_resent(recs: &[FrameRec]) -> u64 {
    let mut seen: HashMap<(u128, u32, u32, u64), u32> = HashMap::new();
    let mut resent = 0;
    for r in recs.iter().filter(|r| r.kind == KIND_RESULTS) {
        let n = seen.entry((r.txn, r.from, r.to, r.seq)).or_insert(0);
        if *n > 0 {
            resent += 1;
        }
        *n += 1;
    }
    resent
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use wsda_pdp::framing::write_frame;
    use wsda_pdp::{Message, QueryLanguage, ResponseMode, Scope, TransactionId};

    fn frame(m: &Message) -> Vec<u8> {
        let mut b = BytesMut::new();
        write_frame(&mut b, m).expect("frame");
        b.to_vec()
    }

    #[test]
    fn header_parse_reads_kind_txn_seq_and_last() {
        let txn = TransactionId(0x1234_5678_9abc_def0_1122_3344_5566_7788);
        let q = parse_header(&frame(&Message::Query {
            transaction: txn,
            query: "/tuple".into(),
            language: QueryLanguage::XQuery,
            scope: Scope::default(),
            response_mode: ResponseMode::Routed,
        }));
        assert_eq!((q.kind, q.txn), (KIND_QUERY, txn.0));
        let r = parse_header(&frame(&Message::Results {
            transaction: txn,
            seq: 9,
            items: vec!["<a/>".into(), "<bb/>".into()],
            last: true,
            origin: "n3".into(),
            cached: false,
        }));
        assert_eq!((r.kind, r.txn, r.seq, r.items, r.last), (KIND_RESULTS, txn.0, 9, 2, true));
        let a = parse_header(&frame(&Message::Ack { transaction: txn, seq: 4 }));
        assert_eq!((a.kind, a.seq, a.last), (KIND_ACK, 4, false));
        assert_eq!(parse_header(&frame(&Message::Ping)).txn, 0);
    }

    fn rec(kind: u8, from: u32, to: u32, t: u64, last: bool, seq: u64) -> FrameRec {
        FrameRec {
            kind,
            from,
            to,
            start_ns: t,
            end_ns: t + 10,
            last,
            seq,
            txn: 7,
            ..Default::default()
        }
    }

    #[test]
    fn hops_rebuild_self_and_relay_time() {
        // client 9 → n0 → n1 (leaf). n0 forwards at 1.0 ms, answers its
        // local items at 1.1 ms; n1 answers final at 3.0 ms; n0 relays its
        // final at 3.5 ms.
        let ms = 1_000_000;
        let recs = vec![
            rec(KIND_QUERY, 9, 0, 0, false, 0),
            rec(KIND_QUERY, 0, 1, ms, false, 0),
            rec(KIND_RESULTS, 0, 9, ms + ms / 10, false, 0),
            rec(KIND_RESULTS, 1, 0, 3 * ms, true, 0),
            rec(KIND_RESULTS, 1, 0, 4 * ms, true, 0),
            rec(KIND_RESULTS, 0, 9, 3 * ms + ms / 2, true, 1),
        ];
        let hops = &rebuild_hops(&recs, 9)[&7];
        let n0 = hops.iter().find(|h| h.peer == 0).expect("n0");
        let n1 = hops.iter().find(|h| h.peer == 1).expect("n1");
        assert!((n0.self_ms - (ms - 10) as f64 / 1e6).abs() < 1e-9);
        assert!((n0.relay_ms.expect("n0 relays") - (ms / 2 - 10) as f64 / 1e6).abs() < 1e-9);
        assert!((n1.self_ms - (2 * ms - 10) as f64 / 1e6).abs() < 1e-9);
        assert_eq!(n1.relay_ms, None);
        assert_eq!(results_resent(&recs), 1);
    }
}
