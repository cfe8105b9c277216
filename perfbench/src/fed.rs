//! A live federation of `StandalonePeer`s on a transport the benchmark owns,
//! and the single multiplexing open-loop client that drives it.

use crate::report::Counters;
use crate::stats::{Digest, Schedule, Timing};
use crate::trace::TracingTransport;
use bytes::BytesMut;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wsda_net::tcp::{TcpConfig, TcpTransport};
use wsda_net::transport::{FrameTransport, Inbox, ThreadedNetwork};
use wsda_net::NodeId;
use wsda_pdp::framing::{write_frame, FrameReader};
use wsda_pdp::{Message, QueryLanguage, ResponseMode, ResultLedger, Scope, Sym, TransactionId};
use wsda_registry::{Freshness, HyperRegistry};
use wsda_updf::{RecoveryConfig, StandalonePeer, Topology};
use wsda_xq::Query;

/// Peers in every federation.
pub const PEERS: usize = 16;
/// Mean degree of the random connected topology.
pub const DEGREE: f64 = 3.0;
/// Synthetic tuples each peer publishes.
pub const TUPLES_PER_PEER: usize = 64;
/// Fixed entry peers (the host has two cores; more entries add no
/// parallelism the client could use).
pub const ENTRIES: usize = 2;
/// A query not `Complete` this long after its due time has failed: far
/// beyond any answer on a healthy host, so only a real loss (or a host
/// stalled for seconds) counts.
pub const DEADLINE: Duration = Duration::from_secs(5);

/// The scope every bench query carries: a full flood whose per-peer
/// transaction state (duplicate detection) is kept for 3 s, a thousand
/// times a healthy answer's latency, instead of the default two minutes,
/// so the state tables stay bounded by the offered rate.
pub fn scope() -> Scope {
    Scope {
        radius: None,
        abort_timeout_ms: DEADLINE.as_millis() as u64,
        loop_timeout_ms: 3_000,
        ..Scope::default()
    }
}

/// Render a registry answer exactly as a live peer puts it on the wire.
pub fn render(outcome: &wsda_registry::QueryOutcome) -> Vec<String> {
    outcome
        .results
        .iter()
        .map(|item| match item.as_node() {
            Some(n) => match n.materialize_element() {
                Some(e) => e.to_compact_string(),
                None => n.string_value(),
            },
            None => item.string_value(),
        })
        .collect()
}

/// The ground-truth answer of `query` over `registries`: the union of
/// every peer's local answer, as a multiset digest.
pub fn ground_truth(registries: &[Arc<HyperRegistry>], query: &str) -> Digest {
    let q = Query::parse(query).expect("bench queries parse");
    let mut d = Digest::default();
    for r in registries {
        let out = r.query(&q, &Freshness::any()).expect("ground-truth query");
        for item in render(&out) {
            d.add(&item);
        }
    }
    d
}

/// One query of a workload's pool with its expected answer.
#[derive(Debug, Clone)]
pub struct PoolQuery {
    pub text: String,
    pub expect: Digest,
}

/// The `ENTRIES` most central peers (smallest eccentricity), ties broken
/// by a seeded shuffle: every query then floods to the same depth whatever
/// the seed's wiring, so topology changes the paths, not the flood depth.
pub fn central_peers(topology: &Topology, seed: u64) -> Vec<NodeId> {
    let mut rng = crate::stats::Rng::new(seed ^ 0xE7);
    let mut peers: Vec<(u32, u64, NodeId)> = (0..topology.len() as u32)
        .map(|i| {
            let ecc = topology.distances_from(NodeId(i)).into_iter().max().unwrap_or(0);
            (ecc, rng.next_u64(), NodeId(i))
        })
        .collect();
    peers.sort_unstable();
    peers.into_iter().take(ENTRIES).map(|(_, _, id)| id).collect()
}

/// The substrate the federation's frames travel over.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Substrate {
    Tcp,
    Threaded,
}

pub struct Federation {
    // Declared first so peers stop (and release the transport) before the
    // transport itself is torn down.
    pub peers: Vec<StandalonePeer>,
    pub trace: Arc<TracingTransport>,
    pub tcp: Option<Arc<TcpTransport>>,
    pub topology: Topology,
    pub client: NodeId,
    pub inbox: Inbox<Vec<u8>>,
    pub entries: Vec<NodeId>,
    pub registries: Vec<Arc<HyperRegistry>>,
}

impl Federation {
    /// Spawn the seed's topology over `substrate`.
    pub fn spawn(substrate: Substrate, seed: u64) -> Federation {
        let topology = Topology::random_connected(PEERS, DEGREE, seed);
        let (inner, tcp): (Arc<dyn FrameTransport>, _) = match substrate {
            Substrate::Tcp => {
                let t = Arc::new(TcpTransport::with_config(TcpConfig::default(), seed));
                (t.clone(), Some(t))
            }
            Substrate::Threaded => (Arc::new(ThreadedNetwork::<Vec<u8>>::new()), None),
        };
        let trace = Arc::new(TracingTransport::new(inner));
        let client = NodeId(PEERS as u32);
        let mut peers = Vec::with_capacity(PEERS);
        for i in 0..PEERS as u32 {
            let inbox = trace.register(NodeId(i));
            peers.push(StandalonePeer::spawn(
                trace.clone(),
                inbox,
                NodeId(i),
                topology.neighbors(NodeId(i)),
                client,
                TUPLES_PER_PEER,
                seed,
                RecoveryConfig::live_default(),
            ));
        }
        let inbox = trace.register(client);
        let entries = central_peers(&topology, seed);
        let registries = peers.iter().map(|p| p.registry().clone()).collect();
        Federation { peers, trace, tcp, topology, client, inbox, entries, registries }
    }
}

/// Each peer keeps a metrics registry of its own.
impl Counters for Federation {
    fn family_sum(&self, family: &str) -> u64 {
        self.peers.iter().map(|p| p.metrics().family_sum(family)).sum()
    }

    fn family_max(&self, family: &str) -> u64 {
        self.peers.iter().map(|p| p.metrics().family_sum(family)).max().unwrap_or(0)
    }
}

/// What one request of a phase did.
#[derive(Debug, Clone, Copy)]
pub struct Outcome {
    pub txn: u128,
    pub pool: usize,
    pub timing: Timing,
    /// The entry's final frame arrived before the deadline with no lost
    /// subtree.
    pub complete: bool,
    /// Complete and equal, as a multiset, to the ground truth.
    pub correct: bool,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.complete && self.correct
    }
}

/// A finished open-loop phase.
pub struct Phase {
    pub outcomes: Vec<Outcome>,
    /// Requests outstanding right after the last one was sent.
    pub backlog: usize,
    pub rate: f64,
}

impl Phase {
    /// TTLR of each request in ms (`None` for failures).
    pub fn ttlr_ms(&self) -> Vec<Option<f64>> {
        self.outcomes
            .iter()
            .map(|o| if o.ok() { o.timing.last.map(|d| d.as_secs_f64() * 1e3) } else { None })
            .collect()
    }
}

struct Slot {
    index: usize,
    pool: usize,
    due: Instant,
    sent: Instant,
    first: Option<Instant>,
    digest: Digest,
    errors: u64,
}

/// The bench's one client: one thread, one client id, many outstanding
/// transactions. It acks every `Results` frame as `client_query_on` does,
/// so peers never retransmit to it.
pub struct Client {
    seed: u64,
    counter: u64,
    reader: FrameReader,
    ledger: ResultLedger,
}

impl Client {
    pub fn new(seed: u64) -> Client {
        Client { seed, counter: 0, reader: FrameReader::new(), ledger: ResultLedger::new() }
    }

    fn send(fed: &Federation, to: NodeId, message: &Message) {
        let mut buf = BytesMut::new();
        write_frame(&mut buf, message).expect("bench frames fit the frame limit");
        fed.trace.send_frame(fed.client, to, buf.to_vec());
    }

    /// Run `schedule`; request `i` asks `pool[pick(i)]` at entry
    /// `entries[i % 2]`. `tick` runs every ~100 ms (gauge sampling).
    pub fn run(
        &mut self,
        fed: &Federation,
        pool: &[PoolQuery],
        schedule: Schedule,
        mut pick: impl FnMut(usize) -> usize,
        mut tick: impl FnMut(),
    ) -> Phase {
        let scope = scope();
        let mut outcomes: Vec<Option<Outcome>> = vec![None; schedule.count];
        let mut live: HashMap<u128, Slot> = HashMap::new();
        let mut next = 0usize;
        let mut backlog = 0usize;
        let mut last_tick = Instant::now();
        let hard_end = schedule.end() + DEADLINE + Duration::from_millis(100);
        loop {
            let mut now = Instant::now();
            while next < schedule.count && schedule.due(next) <= now {
                let p = pick(next);
                self.counter += 1;
                let txn = TransactionId::derive(self.seed ^ 0xC11E47, self.counter);
                let msg = Message::Query {
                    transaction: txn,
                    query: pool[p].text.clone(),
                    language: QueryLanguage::XQuery,
                    scope: scope.clone(),
                    response_mode: ResponseMode::Routed,
                };
                let entry = fed.entries[next % fed.entries.len()];
                let sent = Instant::now();
                Self::send(fed, entry, &msg);
                live.insert(
                    txn.0,
                    Slot {
                        index: next,
                        pool: p,
                        due: schedule.due(next),
                        sent,
                        first: None,
                        digest: Digest::default(),
                        errors: 0,
                    },
                );
                next += 1;
                if next == schedule.count {
                    backlog = live.len();
                }
                now = Instant::now();
            }
            if now.duration_since(last_tick) >= Duration::from_millis(100) {
                last_tick = now;
                tick();
                let expired: Vec<u128> =
                    live.iter().filter(|(_, s)| now >= s.due + DEADLINE).map(|(&t, _)| t).collect();
                for t in expired {
                    let s = live.remove(&t).expect("expired slot is live");
                    self.ledger.forget(TransactionId(t));
                    outcomes[s.index] = Some(Outcome {
                        txn: t,
                        pool: s.pool,
                        timing: Timing::from_instants(s.due, s.sent, s.first, None),
                        complete: false,
                        correct: false,
                    });
                }
            }
            if next == schedule.count && live.is_empty() || now >= hard_end {
                break;
            }
            let wait = if next < schedule.count {
                schedule.due(next).saturating_duration_since(now).min(Duration::from_millis(2))
            } else {
                Duration::from_millis(2)
            };
            let Ok(envelope) = fed.inbox.recv_timeout(wait) else { continue };
            self.reader.extend(&envelope.message);
            while let Ok(Some(message)) = self.reader.next_message() {
                match message {
                    Message::Results { transaction, seq, items, last, .. } => {
                        Self::send(fed, envelope.from, &Message::Ack { transaction, seq });
                        let Some(slot) = live.get_mut(&transaction.0) else { continue };
                        if !self.ledger.record(transaction, Sym(envelope.from.0), seq) {
                            continue;
                        }
                        let at = Instant::now();
                        if !items.is_empty() && slot.first.is_none() {
                            slot.first = Some(at);
                        }
                        for item in &items {
                            slot.digest.add(item);
                        }
                        if last {
                            let s = live.remove(&transaction.0).expect("slot is live");
                            self.ledger.forget(transaction);
                            let complete = s.errors == 0;
                            outcomes[s.index] = Some(Outcome {
                                txn: transaction.0,
                                pool: s.pool,
                                timing: Timing::from_instants(s.due, s.sent, s.first, Some(at)),
                                complete,
                                correct: complete && s.digest == pool[s.pool].expect,
                            });
                        }
                    }
                    Message::Error { transaction, .. } => {
                        if let Some(slot) = live.get_mut(&transaction.0) {
                            slot.errors += 1;
                        }
                    }
                    _ => {}
                }
            }
        }
        for (t, s) in live.drain() {
            self.ledger.forget(TransactionId(t));
            outcomes[s.index] = Some(Outcome {
                txn: t,
                pool: s.pool,
                timing: Timing::from_instants(s.due, s.sent, s.first, None),
                complete: false,
                correct: false,
            });
        }
        // Every request is due before the hard end, so each was sent and
        // has an outcome by now.
        let outcomes =
            outcomes.into_iter().map(|o| o.expect("every request has an outcome")).collect();
        Phase { outcomes, backlog, rate: schedule.rate }
    }
}
