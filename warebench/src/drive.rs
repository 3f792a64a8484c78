//! Load generators: open- and closed-loop wire clients, and the in-process
//! maintainer that refreshes entities through `reconcile` +
//! `Loader::upsert`. Every timestamp is microseconds since one epoch.

use crate::gen::{self, Rng};
use crate::oracle::Kind;
use crate::trace::Recorder;
use genalg_etl::integrate::{reconcile, TrustModel};
use genalg_etl::loader::Loader;
use genalg_etl::SeqRecord;
use genalg_server::{SessionKind, TcpClient};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use unidb::{Database, ResultSet};

/// Shared timing context of one phase.
#[derive(Clone, Copy)]
pub struct Clock<'a> {
    pub epoch: Instant,
    pub recorder: Option<&'a Recorder>,
}

impl Clock<'_> {
    pub fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6
    }
}

/// One completed (or failed) wire read.
#[derive(Debug, Clone)]
pub struct Read {
    pub kind: Kind,
    /// When the request was due (open loop: its schedule slot; closed
    /// loop: the previous reply).
    pub due_us: f64,
    pub sent_us: f64,
    pub done_us: f64,
    pub result: Result<ResultSet, String>,
}

impl Read {
    /// Latency from when the request was due.
    pub fn latency_us(&self) -> f64 {
        self.done_us - self.due_us
    }

    pub fn send_lag_us(&self) -> f64 {
        self.sent_us - self.due_us
    }
}

/// One entity refresh by the maintainer.
#[derive(Debug, Clone)]
pub struct Write {
    pub idx: usize,
    pub start_us: f64,
    pub end_us: f64,
    pub reconcile_us: f64,
    pub upsert_us: f64,
    pub error: Option<String>,
}

impl Write {
    pub fn latency_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Sleep until `due`; the last stretch yields instead of sleeping, so
/// timer slack does not delay the send.
fn wait_until(due: Instant) {
    const SPIN: Duration = Duration::from_micros(150);
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::thread::yield_now();
        }
    }
}

fn connect(addr: SocketAddr) -> (TcpClient, u64) {
    let mut client = TcpClient::connect(addr).expect("connect to server");
    let session = client.open(SessionKind::Public).expect("open session");
    (client, session)
}

fn send(
    clock: &Clock,
    client: &mut TcpClient,
    session: u64,
    kind: Kind,
    due: Instant,
    request: u64,
) -> Read {
    let text = kind.text();
    let sent = Instant::now();
    let result = client.query(session, kind.lang(), &text).map_err(|e| e.to_string());
    let done = Instant::now();
    if let Some(rec) = clock.recorder {
        rec.record("wire.request", 0, request, sent, done);
    }
    Read { kind, due_us: clock.us(due), sent_us: clock.us(sent), done_us: clock.us(done), result }
}

fn in_due_order(reads: impl Iterator<Item = Read>) -> Vec<Read> {
    let mut all: Vec<Read> = reads.collect();
    all.sort_by(|a, b| a.due_us.total_cmp(&b.due_us));
    all
}

/// How long an open loop keeps draining its backlog after its end.
const BACKLOG_GRACE: Duration = Duration::from_secs(2);

/// Open loop: `conns` connections together offer `rate` requests per
/// second on a fixed schedule from `start` to `end`, each timed from its
/// slot. `next(c, i, rng)` draws request `i` of connection `c`.
pub fn open_loop<F>(
    clock: &Clock,
    addr: SocketAddr,
    conns: usize,
    rate: f64,
    (start, end): (Instant, Instant),
    seed: u64,
    next: F,
) -> Vec<Read>
where
    F: Fn(usize, usize, &mut Rng) -> Kind + Sync,
{
    let interval = Duration::from_secs_f64(conns as f64 / rate);
    let next = &next;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = Rng::stream(seed, 100 + c as u64);
                    let (mut client, session) = connect(addr);
                    let mut due = start + interval.mul_f64(c as f64 / conns as f64);
                    let mut out = Vec::new();
                    // A server that falls behind leaves a backlog; slots
                    // still unsent a grace period after the end are dropped
                    // so the run ends on time.
                    while due < end && Instant::now() < end + BACKLOG_GRACE {
                        let kind = next(c, out.len(), &mut rng);
                        wait_until(due);
                        let request = ((c as u64) << 48) | out.len() as u64;
                        out.push(send(clock, &mut client, session, kind, due, request));
                        due += interval;
                    }
                    let _ = client.close(session);
                    out
                })
            })
            .collect();
        in_due_order(handles.into_iter().flat_map(|h| h.join().expect("client thread")))
    })
}

/// Closed loop: `conns` clients each send their next request as soon as
/// the previous reply arrives, until `end`.
pub fn closed_loop<F>(
    clock: &Clock,
    addr: SocketAddr,
    conns: usize,
    (start, end): (Instant, Instant),
    seed: u64,
    next: F,
) -> Vec<Read>
where
    F: Fn(usize, usize, &mut Rng) -> Kind + Sync,
{
    let next = &next;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = Rng::stream(seed, 200 + c as u64);
                    let (mut client, session) = connect(addr);
                    wait_until(start);
                    let mut due = Instant::now();
                    let mut out = Vec::new();
                    while due < end {
                        let kind = next(c, out.len(), &mut rng);
                        let request = ((c as u64) << 48) | out.len() as u64;
                        out.push(send(clock, &mut client, session, kind, due, request));
                        due = Instant::now();
                    }
                    let _ = client.close(session);
                    out
                })
            })
            .collect();
        in_due_order(handles.into_iter().flat_map(|h| h.join().expect("client thread")))
    })
}

/// Entities the maintainer refreshes per batch.
pub const BATCH: usize = 8;

/// The maintainer: refresh batches of random entities (mutate → reconcile
/// → `Loader::upsert`) until `stop` says so. `current` is the warehouse
/// state as the sources publish it and is updated as refreshes land;
/// `recent` receives each batch before it starts.
pub fn maintain(
    clock: &Clock,
    db: &Database,
    current: &mut [SeqRecord],
    rng: &mut Rng,
    recent: Option<&Mutex<Vec<usize>>>,
    think: Duration,
    stop: &dyn Fn(usize) -> bool,
) -> Vec<Write> {
    let loader = Loader::new(db);
    let trust = TrustModel::default();
    let aliases = HashMap::new();
    let mut out = Vec::new();
    loop {
        let batch: Vec<usize> = (0..BATCH).map(|_| rng.range(0, current.len())).collect();
        if let Some(recent) = recent {
            *recent.lock().expect("recent batch") = batch.clone();
        }
        for idx in batch {
            if stop(out.len()) {
                return out;
            }
            if !think.is_zero() && !out.is_empty() {
                std::thread::sleep(think);
            }
            let next = gen::mutate(&current[idx], rng);
            let t0 = Instant::now();
            let entries = reconcile(std::slice::from_ref(&next), &trust, &aliases);
            let t1 = Instant::now();
            let result = loader.upsert(&entries);
            let t2 = Instant::now();
            if let Some(rec) = clock.recorder {
                let request = (1u64 << 62) | out.len() as u64;
                let parent = rec.record("etl.refresh_entity", 0, request, t0, t2);
                rec.record("etl.reconcile", parent, request, t0, t1);
                rec.record("etl.upsert", parent, request, t1, t2);
            }
            let error = result.err().map(|e| e.to_string());
            if error.is_none() {
                current[idx] = next;
            }
            out.push(Write {
                idx,
                start_us: clock.us(t0),
                end_us: clock.us(t2),
                reconcile_us: (t1 - t0).as_secs_f64() * 1e6,
                upsert_us: (t2 - t1).as_secs_f64() * 1e6,
                error,
            });
        }
    }
}
