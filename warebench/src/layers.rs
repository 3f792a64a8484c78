//! The traced run: per-layer attribution.
//!
//! 1. An untraced and a traced half of the workload run back to back on
//!    one warehouse; their wire p50s give `obs.trace_overhead_pct`.
//! 2. Counter families come from `QueryService::snapshot()` deltas around
//!    the traced half (plus its maintenance pass).
//! 3. A sample of the traced half's read-only statements is replayed down
//!    the stack, one statement at a time: engine (`prepare_as` +
//!    `execute_prepared`), a second in-process `Server` over the same
//!    database, then the measured TCP server. A layer's self time is its
//!    time minus the layer below's, on the same request.
//! 4. `explain_analyze` on a per-class sample gives rows examined and
//!    zone-map pruning; `value_from_bytes` and `align::resembles` are
//!    timed on the workload's own stored values and probes.

use crate::drive::{Read, Write};
use crate::gen::{self, Rng};
use crate::oracle::{self, Kind, Strictness, Verdict, CLASSES};
use crate::stats::{median, quantile, windowed, Metric};
use crate::trace::Recorder;
use crate::warehouse::{dir_bytes, quote};
use crate::{window_reads, Bench, Options, Outcome, Workload};
use genalg_core::seq::DnaSeq;
use genalg_server::{Lang, Server, ServerConfig, SessionKind, TcpClient};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unidb::exec::stats::OpStatsSnapshot;
use unidb::Database;

/// Replayed statements per workload (evenly spaced over the traced half).
fn replay_cap(w: Workload) -> usize {
    match w {
        Workload::Lookup => 2000,
        Workload::Explore => 36,
        Workload::Refresh => 300,
    }
}

/// `explain_analyze` samples per statement class.
fn explain_cap(w: Workload) -> usize {
    match w {
        Workload::Lookup => 200,
        Workload::Explore => 2,
        Workload::Refresh => 40,
    }
}

/// Per-request times of one replayed statement (µs).
struct Replayed {
    bql: f64,
    prepare: f64,
    execute: f64,
    inproc: f64,
    tcp: f64,
}

impl Replayed {
    fn engine(&self) -> f64 {
        self.bql + self.prepare + self.execute
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Compile BQL to SQL (the server's own path), timing it.
fn compile(kind: &Kind, text: &str) -> (String, f64) {
    match kind.lang() {
        Lang::Sql => (text.to_string(), 0.0),
        Lang::Bql => {
            let t = Instant::now();
            let sql =
                genalg_bql::parse(text).and_then(|q| q.to_sql()).expect("benchmark BQL compiles");
            (sql, us(t.elapsed()))
        }
    }
}

/// Every `step`-th element, at most `cap` of them.
fn spaced<T>(items: &[T], cap: usize) -> Vec<&T> {
    let step = items.len().div_ceil(cap.max(1)).max(1);
    items.iter().step_by(step).take(cap).collect()
}

fn replay(bench: &Bench, stream: &[&Read], recorder: &Recorder) -> Vec<Replayed> {
    let db = &bench.wh.db;
    let role = SessionKind::Public.role();
    let shadow = Server::new(Arc::clone(db), &ServerConfig::default());
    let inproc = shadow.client();
    let inproc_session = inproc.open(SessionKind::Public);
    let mut tcp = TcpClient::connect(bench.wh.addr()).expect("connect for replay");
    let tcp_session = tcp.open(SessionKind::Public).expect("open replay session");
    let mut out = Vec::with_capacity(stream.len());
    for (i, r) in stream.iter().enumerate() {
        let text = r.kind.text();
        let request = (2u64 << 60) | i as u64;
        let t0 = Instant::now();
        let (sql, bql) = compile(&r.kind, &text);
        let t1 = Instant::now();
        let prepared = db.prepare_as(&sql, &role).expect("replayed statement prepares");
        let t2 = Instant::now();
        db.execute_prepared(&prepared).expect("replayed statement executes");
        let t3 = Instant::now();
        match r.kind.lang() {
            Lang::Sql => inproc.query(inproc_session, &text),
            Lang::Bql => inproc.query_bql(inproc_session, &text),
        }
        .expect("in-process replay");
        let t4 = Instant::now();
        tcp.query(tcp_session, r.kind.lang(), &text).expect("wire replay");
        let t5 = Instant::now();
        let parent = recorder.record("replay.request", 0, request, t0, t5);
        recorder.record("replay.bql_compile", parent, request, t0, t1);
        recorder.record("replay.engine_prepare", parent, request, t1, t2);
        recorder.record("replay.engine_execute", parent, request, t2, t3);
        recorder.record("replay.inproc_server", parent, request, t3, t4);
        recorder.record("replay.tcp_server", parent, request, t4, t5);
        out.push(Replayed {
            bql,
            prepare: us(t2 - t1),
            execute: us(t3 - t2),
            inproc: us(t4 - t3),
            tcp: us(t5 - t4),
        });
    }
    inproc.close(inproc_session);
    let _ = tcp.close(tcp_session);
    out
}

/// Scan work of one analysed statement.
#[derive(Default)]
struct ScanWork {
    rows_examined: f64,
    pages_read: u64,
    pages_skipped: u64,
}

fn scan_work(node: &OpStatsSnapshot, rows_per_page: &HashMap<String, f64>, acc: &mut ScanWork) {
    if node.children.is_empty() {
        if node.is_scan {
            let table = node.label.split_whitespace().nth(1).unwrap_or("");
            let per_page = rows_per_page.get(table).copied().unwrap_or(0.0);
            acc.rows_examined += node.pages_read as f64 * per_page;
        } else {
            acc.rows_examined += node.rows_out as f64;
        }
    }
    acc.pages_read += node.pages_read;
    acc.pages_skipped += node.pages_skipped;
    for c in &node.children {
        scan_work(c, rows_per_page, acc);
    }
}

/// Rows per heap page of each warehouse table, from a full-scan count.
fn rows_per_page(db: &Database) -> HashMap<String, f64> {
    let mut out = HashMap::new();
    for table in ["public.sequences", "public.sequence_alternatives", "public.features"] {
        let Ok((_, stats)) = db.explain_analyze(&format!("SELECT accession FROM {table}")) else {
            continue;
        };
        let mut work = ScanWork::default();
        scan_work(&stats, &HashMap::new(), &mut work);
        let rows = db.row_count(table).unwrap_or(0) as f64;
        if work.pages_read > 0 {
            out.insert(table.to_string(), rows / work.pages_read as f64);
        }
    }
    out
}

/// Explain a per-class sample: (rows examined per output row, pages
/// skipped %, rows examined per `RESEMBLING` query).
fn explain_sample(bench: &Bench, stream: &[&Read]) -> (f64, f64, f64) {
    let db = &bench.wh.db;
    let role = SessionKind::Public.role();
    let per_page = rows_per_page(db);
    let cap = explain_cap(bench.opts.workload);
    let mut per_class: BTreeMap<&str, usize> = BTreeMap::new();
    let (mut examined, mut out_rows, mut read, mut skipped) = (0.0, 0.0, 0u64, 0u64);
    let mut resembling = Vec::new();
    for r in stream {
        let n = per_class.entry(r.kind.class()).or_default();
        if *n >= cap {
            continue;
        }
        *n += 1;
        let (sql, _) = compile(&r.kind, &r.kind.text());
        let (rs, stats) = db.explain_analyze_as(&sql, &role).expect("explain_analyze");
        let mut work = ScanWork::default();
        scan_work(&stats, &per_page, &mut work);
        examined += work.rows_examined;
        out_rows += rs.rows.len().max(1) as f64;
        read += work.pages_read;
        skipped += work.pages_skipped;
        if matches!(r.kind, Kind::Resembling { .. }) {
            resembling.push(work.rows_examined);
        }
    }
    let pages = (read + skipped).max(1) as f64;
    (examined / out_rows.max(1.0), 100.0 * skipped as f64 / pages, crate::stats::mean(&resembling))
}

/// Mean µs of `compact::value_from_bytes` on the stored `seq` bytes of the
/// rows the stream touched.
fn decode_us_per_value(bench: &Bench, stream: &[&Read]) -> f64 {
    let db = &bench.wh.db;
    let mut blobs = Vec::new();
    for r in stream.iter().take(200) {
        let idx = match &r.kind {
            Kind::Lookup { idx } => *idx,
            Kind::Containing { donor, .. } | Kind::Resembling { donor, .. } => *donor,
            _ => continue,
        };
        let sql = format!(
            "SELECT seq FROM public.sequences WHERE accession = {}",
            quote(&gen::accession(idx))
        );
        if let Some(bytes) = db
            .execute(&sql)
            .ok()
            .and_then(|rs| rs.scalar().and_then(|d| d.as_opaque()).map(|(_, b)| b.clone()))
        {
            blobs.push(bytes);
        }
    }
    if blobs.is_empty() {
        // Workloads whose reads name no single row: decode a fixed sample.
        let rs = db.execute("SELECT seq FROM public.sequences LIMIT 200").expect("sample seqs");
        blobs = rs.rows.iter().filter_map(|r| r[0].as_opaque().map(|(_, b)| b.clone())).collect();
    }
    let start = Instant::now();
    let mut decoded = 0usize;
    while decoded == 0 || start.elapsed() < Duration::from_millis(50) {
        for b in &blobs {
            let v = genalg_core::compact::value_from_bytes(b).expect("stored seq decodes");
            std::hint::black_box(v);
            decoded += 1;
        }
    }
    us(start.elapsed()) / decoded as f64
}

/// Mean µs of `align::resembles` over (row, probe) pairs: the stream's
/// `RESEMBLING` probes (or four probes drawn from the warehouse when the
/// workload sends none) against 200 stored sequences.
fn resembles_us_per_pair(bench: &Bench, stream: &[&Read]) -> f64 {
    let mut rng = Rng::stream(bench.opts.seed, 500);
    let mut probes: Vec<String> = stream
        .iter()
        .filter_map(|r| match &r.kind {
            Kind::Resembling { probe, .. } => Some(probe.clone()),
            _ => None,
        })
        .take(8)
        .collect();
    while probes.len() < 4 {
        let donor = rng.range(0, bench.current.len());
        probes.push(gen::probe(&bench.current[donor], &mut rng));
    }
    let probes: Vec<DnaSeq> =
        probes.iter().map(|p| DnaSeq::from_text(p).expect("probe is DNA")).collect();
    let rows: Vec<&DnaSeq> =
        (0..200).map(|_| &bench.current[rng.range(0, bench.current.len())].sequence).collect();
    let start = Instant::now();
    for p in &probes {
        for row in &rows {
            std::hint::black_box(genalg_core::align::resembles(row, p, 0.9, 0.8));
        }
    }
    us(start.elapsed()) / (probes.len() * rows.len()) as f64
}

/// One statement of every explore class over the wire, after the load
/// stops — the class latencies of `lookup` and `refresh`, which send no
/// such statements themselves.
fn analyst_probe(bench: &Bench, recorder: &Recorder) -> Vec<Read> {
    let clock = bench.clock(Some(recorder));
    let mut rng = Rng::stream(bench.opts.seed, 600);
    let mut client = TcpClient::connect(bench.wh.addr()).expect("connect for probe");
    let session = client.open(SessionKind::Public).expect("open probe session");
    let mut out = Vec::new();
    for (i, class) in CLASSES.iter().enumerate() {
        let kind = crate::explore_class(class, &mut rng, &bench.current);
        let text = kind.text();
        let sent = Instant::now();
        let result = client.query(session, kind.lang(), &text).map_err(|e| e.to_string());
        let done = Instant::now();
        recorder.record("probe.request", 0, (3u64 << 60) | i as u64, sent, done);
        out.push(Read {
            kind,
            due_us: clock.us(sent),
            sent_us: clock.us(sent),
            done_us: clock.us(done),
            result,
        });
    }
    let _ = client.close(session);
    out
}

fn p50_by_class<'a>(reads: impl Iterator<Item = &'a Read>) -> BTreeMap<&'static str, f64> {
    let mut by: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for r in reads {
        by.entry(r.kind.class()).or_default().push(r.latency_us());
    }
    by.into_iter().map(|(k, v)| (k, median(&v))).collect()
}

/// The traced run: every per-layer metric.
pub fn traced(opts: &Options) -> Outcome {
    let mut bench = Bench::setup(opts, 1);
    let w = opts.workload;
    let half = Duration::from_secs_f64(opts.seconds / 2.0);
    let tracer = genalg_obs::tracer();

    let (reads_u, writes_u, win_u) = bench.phase(half, 1, None);

    let recorder = Recorder::new(bench.epoch);
    let service = Arc::clone(bench.wh.server.service());
    let before = service.snapshot();
    let wal_before = bench.wh.dir.as_deref().map_or(0, dir_bytes);
    tracer.clear();
    tracer.set_enabled(true);
    let (reads_t, mut writes_t, win_t) = bench.phase(half, 2, Some(&recorder));
    // Read-side counters cover the load phase only; the maintenance pass
    // of `lookup` / `explore` would add its DELETE scans to the pool.
    let load_delta = service.snapshot().delta_since(&before);
    if writes_t.is_empty() {
        writes_t = bench.post_pass(half, 2, Some(&recorder));
    }
    tracer.set_enabled(false);
    let program_spans: Vec<String> = tracer.spans().iter().map(|s| s.render()).collect();
    let delta = service.snapshot().delta_since(&before);
    let wal_bytes = bench.wh.dir.as_deref().map_or(0, dir_bytes).saturating_sub(wal_before);

    let probe = if w == Workload::Explore { Vec::new() } else { analyst_probe(&bench, &recorder) };

    let traced_window = window_reads(&reads_t, win_t);
    let replay_stream: Vec<&Read> =
        spaced(&traced_window, replay_cap(w)).into_iter().copied().collect();
    let replayed = replay(&bench, &replay_stream, &recorder);
    let (rows_per_row, skipped_pct, resembling_rows) = explain_sample(&bench, &traced_window);
    let decode_us = decode_us_per_value(&bench, &traced_window);
    let resembles_us = resembles_us_per_pair(&bench, &traced_window);
    let bql_us: Vec<f64> = traced_window
        .iter()
        .copied()
        .chain(probe.iter())
        .filter(|r| r.kind.lang() == Lang::Bql)
        .map(|r| compile(&r.kind, &r.kind.text()).1)
        .collect();

    // Verification: the load's reads and writes, then the probe against
    // the state the load left behind.
    let reads: Vec<Read> = reads_u.iter().chain(&reads_t).cloned().collect();
    let writes: Vec<Write> = writes_u.iter().chain(&writes_t).cloned().collect();
    let mut tally = bench.verify(&reads, &writes);
    for r in &probe {
        tally.attempted += 1;
        let verdict = match &r.result {
            Ok(rs) => oracle::check(&r.kind, rs, &bench.current, Strictness::Exact, false),
            Err(e) => Verdict::Wrong(format!("{} errored: {e}", r.kind.class())),
        };
        if verdict != Verdict::Ok {
            tally.failed += 1;
            tally.problems.push(format!("probe {}: {verdict:?}", r.kind.class()));
        }
    }

    let lat = |rs: &[&Read]| rs.iter().map(|r| r.latency_us()).collect::<Vec<f64>>();
    let untraced_p50 = median(&lat(&window_reads(&reads_u, win_u)));
    let traced_p50 = median(&lat(&traced_window));
    let lag: Vec<f64> = window_reads(&reads_u, win_u)
        .iter()
        .chain(traced_window.iter())
        .map(|r| r.send_lag_us())
        .collect();
    let class_p50 = if w == Workload::Explore {
        p50_by_class(window_reads(&reads_u, win_u).into_iter().chain(traced_window.iter().copied()))
    } else {
        p50_by_class(probe.iter())
    };

    let col = |f: fn(&Replayed) -> f64| replayed.iter().map(f).collect::<Vec<f64>>();
    let protocol = median(&col(|r| r.tcp - r.inproc));
    let service_self = median(&col(|r| r.inproc - r.engine()));
    let engine = median(&col(Replayed::engine));
    let wire = median(&col(|r| r.tcp));

    let d = |name: &str| delta.value(name).unwrap_or(0) as f64;
    let load = |name: &str| load_delta.value(name).unwrap_or(0) as f64;
    let pct = |hit: f64, miss: f64| if hit + miss > 0.0 { 100.0 * hit / (hit + miss) } else { 0.0 };
    let load_ops =
        if w == Workload::Refresh { reads_t.len() + writes_t.len() } else { reads_t.len() };
    let upserts = writes_t.len().max(1) as f64;
    let wcol = |f: fn(&Write) -> f64| writes_t.iter().map(f).collect::<Vec<f64>>();

    let mut metrics = vec![
        Metric::new("protocol.self_us_p50", "us", protocol),
        Metric::new("service.self_us_p50", "us", service_self),
        Metric::new("queue.busy_rejects", "count", load("server_rejected_busy")),
        Metric::new(
            "cache.plan_hit_pct",
            "%",
            pct(load("cache_plan_hits"), load("cache_plan_misses")),
        ),
        Metric::new(
            "cache.result_hit_pct",
            "%",
            pct(load("cache_result_hits"), load("cache_result_misses")),
        ),
        Metric::new("bql.compile_us_p50", "us", median(&bql_us)),
        Metric::new("plan.prepare_us_p50", "us", median(&col(|r| r.prepare))),
        Metric::new("exec.execute_us_p50", "us", median(&col(|r| r.execute))),
        Metric::new("exec.rows_examined_per_row", "rows/row", rows_per_row),
        Metric::new("exec.pages_skipped_pct", "%", skipped_pct),
    ];
    for class in CLASSES {
        metrics.push(Metric::new(
            format!("explore.{class}_p50_us"),
            "us",
            class_p50.get(class).copied().unwrap_or(0.0),
        ));
    }
    metrics.extend([
        Metric::new("storage.pool_hit_pct", "%", pct(load("pool_hits"), load("pool_misses"))),
        Metric::new(
            "storage.pool_evictions_per_op",
            "1/op",
            load("pool_evictions") / load_ops.max(1) as f64,
        ),
        Metric::new("storage.wal_syncs_per_upsert", "1/upsert", d("wal_syncs") / upserts),
        Metric::new("storage.wal_bytes_per_upsert", "B/upsert", wal_bytes as f64 / upserts),
        Metric::new("txn.conflicts", "count", d("txn_conflicts")),
        Metric::new("txn.versions_pruned", "count", d("txn_versions_pruned")),
        Metric::new("adapter.decode_us_per_value", "us", decode_us),
        Metric::new("core.resembles_us_per_pair", "us", resembles_us),
        Metric::new("core.resembles_pairs_per_query", "count", resembling_rows),
        Metric::new("etl.reconcile_us_per_entity", "us", median(&wcol(|w| w.reconcile_us))),
        Metric::new("etl.upsert_us_per_entity", "us", median(&wcol(|w| w.upsert_us))),
        // Ungated: ≈ 80 refreshes per `refresh` run leave its p99 at the
        // slowest one or two, too unsteady for an end-to-end bound.
        Metric::new(
            "write_p99_us",
            "us",
            windowed(&writes.iter().map(Write::latency_us).collect::<Vec<_>>(), 0.99),
        ),
        Metric::new("etl.torn_reads", "count", tally.torn as f64),
        Metric::new(
            "obs.trace_overhead_pct",
            "%",
            100.0 * (traced_p50 / untraced_p50.max(f64::MIN_POSITIVE) - 1.0),
        ),
        Metric::new("loadgen.send_lag_p99_us", "us", quantile(&lag, 0.99)),
        Metric::new("failed_pct", "%", tally.failed_pct()),
        Metric::new("replay.wire_us_p50", "us", wire),
        Metric::new("replay.engine_us_p50", "us", engine),
        Metric::new(
            "replay.layers_sum_pct",
            "%",
            100.0 * (protocol + service_self + engine) / wire.max(f64::MIN_POSITIVE),
        ),
    ]);

    let meta = bench.meta(&[
        ("replayed_statements", replayed.len()),
        ("traced_window_reads", traced_window.len()),
        ("traced_writes", writes_t.len()),
    ]);
    let path = opts.out_dir.join(format!("trace-{}-{}.jsonl", w.name(), opts.seed));
    if let Err(e) = recorder.write(&path, &meta, &program_spans) {
        tally.problems.push(format!("could not write {}: {e}", path.display()));
    } else {
        eprintln!(
            "trace: {} spans ({} from the program) written to {}",
            recorder.len(),
            program_spans.len(),
            path.display()
        );
    }
    bench.shutdown();
    Outcome {
        correct: tally.failed == 0,
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        meta,
        problems: tally.problems,
    }
}
