//! # warebench — the Genomics Research Warehouse benchmark
//!
//! Sets up the real warehouse (loader schema, adapter `dna` type, k-mer
//! UDI), serves it with a default-configured server over TCP, drives one of
//! three workloads, checks every answer, and reports end-to-end metrics
//! (timed run) or per-layer metrics (traced run). See `README.md`.

pub mod drive;
pub mod gen;
pub mod layers;
pub mod oracle;
pub mod stats;
pub mod trace;
pub mod warehouse;

use drive::{Clock, Read, Write};
use gen::{Rng, Zipf, MAX_LEN, MIN_LEN, ORGANISMS};
use genalg_etl::SeqRecord;
use oracle::{Kind, Strictness, Verdict};
use stats::{median, Metric};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use warehouse::{Spec, Warehouse};

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Lookup,
    Explore,
    Refresh,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Lookup, Workload::Explore, Workload::Refresh];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lookup => "lookup",
            Workload::Explore => "explore",
            Workload::Refresh => "refresh",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Offered rate of the `lookup` open loop (requests/s over both
/// connections): about half the closed-loop capacity of two connections,
/// measured once (release build, 2 cores) and frozen so later changes are
/// judged at the same load.
pub const LOOKUP_RATE: f64 = 4000.0;
/// Zipf exponent of `lookup` keys.
pub const LOOKUP_ZIPF: f64 = 1.0;
/// Offered rate of the `refresh` reader (requests/s over both connections).
pub const REFRESH_READ_RATE: f64 = 50.0;
/// The `refresh` maintainer's pause between entities. Without it the
/// closed-loop writer holds the engine's write lock almost continuously
/// and readers starve (wire p50 ≈ 45 ms, run-to-run spread above 50 %).
/// The pause keeps the writer's share of the lock near a fifth even when
/// the host runs slow, so the read p50 measures reads between upserts
/// instead of flipping between the two cases from run to run.
pub const REFRESH_THINK: Duration = Duration::from_millis(300);
/// The pause between entities of the maintenance pass of `lookup` and
/// `explore`, which has no readers to make room for. Any pause keeps each
/// refresh starting from the same idle state; refreshed back to back, the
/// reference VM runs the same entities either ≈ 1.7× faster or not, in
/// spells of seconds, and the write p50 flips between the two.
pub const MAINTENANCE_THINK: Duration = Duration::from_millis(10);
/// One `refresh` read in this many is a `CONTAINING` probe.
pub const REFRESH_CONTAINING_EVERY: u64 = 10;
/// Connections (= client threads) per load generator.
pub const CLIENTS: usize = 2;
/// Set-ups per timed run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Explore mix weights, in [`oracle::CLASSES`] order (resembling ≈ 1 in 8).
pub const EXPLORE_MIX: [u32; 6] = [2, 3, 3, 3, 2, 3];

/// Per-workload sizes.
#[derive(Debug, Clone)]
pub struct Params {
    pub rows: usize,
    pub udi: bool,
    pub on_disk: bool,
    /// Unmeasured lead-in before the measured window.
    pub warmup: Duration,
}

impl Params {
    pub fn of(w: Workload, small: bool) -> Params {
        let scale = |full: usize, reduced: usize| if small { reduced } else { full };
        let warmup = Duration::from_millis(if small { 200 } else { 1000 });
        match w {
            Workload::Lookup => {
                Params { rows: scale(50_000, 2_000), udi: false, on_disk: false, warmup }
            }
            Workload::Explore => {
                Params { rows: scale(5_000, 600), udi: true, on_disk: false, warmup }
            }
            Workload::Refresh => {
                Params { rows: scale(20_000, 1_000), udi: true, on_disk: true, warmup }
            }
        }
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Reduced sizes for the self-test.
    pub small: bool,
    /// Check one answer against a deliberately wrong expectation.
    pub inject_wrong: bool,
    /// Where on-disk databases and trace files go.
    pub out_dir: PathBuf,
}

/// What one invocation reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Run metadata as a JSON object.
    pub meta: String,
    /// Every mismatch and error, for printing.
    pub problems: Vec<String>,
}

/// The warehouse under test plus the state the oracle checks against.
pub struct Bench {
    pub opts: Options,
    pub params: Params,
    pub wh: Warehouse,
    /// The initial release (what sources published at load time).
    pub initial: Vec<SeqRecord>,
    /// The current published state (refreshes land here too).
    pub current: Vec<SeqRecord>,
    pub epoch: Instant,
    pub setup_s: Vec<f64>,
    /// Environment overrides removed before start, for the metadata.
    pub cleared_env: Vec<String>,
}

/// Remove every `GENALG_*` / `UNIDB_*` override so the program runs with
/// its defaults. Returns the names removed.
fn clear_env_overrides() -> Vec<String> {
    let names: Vec<String> = std::env::vars()
        .map(|(k, _)| k)
        .filter(|k| k.starts_with("GENALG_") || k.starts_with("UNIDB_"))
        .collect();
    for k in &names {
        std::env::remove_var(k);
    }
    names
}

impl Bench {
    /// Generate the release and set the warehouse up `setups` times (the
    /// last one is kept).
    pub fn setup(opts: &Options, setups: usize) -> Bench {
        let cleared_env = clear_env_overrides();
        let params = Params::of(opts.workload, opts.small);
        let initial = gen::release(opts.seed, params.rows);
        let mut setup_s = Vec::new();
        let mut kept = None;
        for i in 0..setups.max(1) {
            if let Some(prev) = kept.take() {
                Warehouse::shutdown(prev);
            }
            let dir = params.on_disk.then(|| {
                opts.out_dir.join(format!("db-{}-{}-{i}", opts.workload.name(), std::process::id()))
            });
            if let Some(d) = &dir {
                let _ = std::fs::remove_dir_all(d);
            }
            let (wh, t) = warehouse::build(&initial, &Spec { udi: params.udi, dir });
            setup_s.push(t.as_secs_f64());
            kept = Some(wh);
        }
        Bench {
            opts: opts.clone(),
            params,
            wh: kept.expect("at least one set-up"),
            current: initial.clone(),
            initial,
            epoch: Instant::now(),
            setup_s,
            cleared_env,
        }
    }

    pub fn clock<'a>(&self, recorder: Option<&'a trace::Recorder>) -> Clock<'a> {
        Clock { epoch: self.epoch, recorder }
    }

    /// Run the workload's load for `warmup + measure`. Returns the reads,
    /// the writes, and the measured window in epoch microseconds.
    pub fn phase(
        &mut self,
        measure: Duration,
        tag: u64,
        recorder: Option<&trace::Recorder>,
    ) -> (Vec<Read>, Vec<Write>, (f64, f64)) {
        let clock = self.clock(recorder);
        let start = Instant::now() + Duration::from_millis(20);
        let window_start = start + self.params.warmup;
        let end = window_start + measure;
        let window = (clock.us(window_start), clock.us(end));
        let seed = self.opts.seed ^ tag.wrapping_mul(0x5851_F42D_4C95_7F2D);
        let addr = self.wh.addr();
        let initial = &self.initial;
        match self.opts.workload {
            Workload::Lookup => {
                let zipf = Zipf::new(self.opts.seed, initial.len(), LOOKUP_ZIPF);
                let reads = drive::open_loop(
                    &clock,
                    addr,
                    CLIENTS,
                    LOOKUP_RATE,
                    (start, end),
                    seed,
                    |_, _, rng| Kind::Lookup { idx: zipf.sample(rng) },
                );
                (reads, Vec::new(), window)
            }
            Workload::Explore => {
                let reads =
                    drive::closed_loop(&clock, addr, CLIENTS, (start, end), seed, |c, i, rng| {
                        explore_kind(seed, c, i, rng, initial)
                    });
                (reads, Vec::new(), window)
            }
            Workload::Refresh => {
                let recent = Mutex::new(Vec::new());
                let db = &self.wh.db;
                let current = &mut self.current;
                std::thread::scope(|s| {
                    let writer = s.spawn(|| {
                        let mut rng = Rng::stream(seed, 300);
                        drive::maintain(
                            &clock,
                            db,
                            current,
                            &mut rng,
                            Some(&recent),
                            REFRESH_THINK,
                            &|_| Instant::now() >= end,
                        )
                    });
                    let reads = drive::open_loop(
                        &clock,
                        addr,
                        CLIENTS,
                        REFRESH_READ_RATE,
                        (start, end),
                        seed,
                        |_, _, rng| refresh_kind(rng, initial, &recent),
                    );
                    (reads, writer.join().expect("maintainer thread"), window)
                })
            }
        }
    }

    /// The maintenance pass of `lookup` and `explore`, whose reads run
    /// without a writer: `refresh`'s maintainer (one thread, batches of
    /// random entities, `reconcile` + `Loader::upsert`) for `span`, after
    /// the reads and with no readers running, pausing
    /// [`MAINTENANCE_THINK`] between entities. Every end-to-end metric
    /// prints on every workload, so their write metrics come from here.
    pub fn post_pass(
        &mut self,
        span: Duration,
        tag: u64,
        recorder: Option<&trace::Recorder>,
    ) -> Vec<Write> {
        let clock = self.clock(recorder);
        let mut rng = Rng::stream(self.opts.seed ^ tag, 400);
        let end = Instant::now() + span;
        drive::maintain(
            &clock,
            &self.wh.db,
            &mut self.current,
            &mut rng,
            None,
            MAINTENANCE_THINK,
            &|_| Instant::now() >= end,
        )
    }

    /// Check every read and write, then the final state of every refreshed
    /// accession.
    pub fn verify(&self, reads: &[Read], writes: &[Write]) -> Tally {
        let mut tally = Tally::default();
        let beside_writes = self.opts.workload == Workload::Refresh;
        let strict = if beside_writes { Strictness::BesideWrites } else { Strictness::Exact };
        let inject_at = if self.opts.inject_wrong {
            reads
                .iter()
                .position(|r| matches!(r.kind, Kind::Lookup { .. }))
                .or(if reads.is_empty() { None } else { Some(0) })
        } else {
            None
        };
        for (i, r) in reads.iter().enumerate() {
            tally.attempted += 1;
            let rs = match &r.result {
                Ok(rs) => rs,
                Err(e) => {
                    tally.fail(format!("{} errored: {e}", r.kind.class()));
                    continue;
                }
            };
            let injected = inject_at == Some(i);
            match oracle::check(&r.kind, rs, &self.initial, strict, injected) {
                Verdict::Ok => {}
                Verdict::Wrong(msg) if injected => {
                    tally.fail(format!("(injected wrong expectation) {msg}"));
                }
                Verdict::Wrong(msg) => tally.fail(msg),
                Verdict::Missing => {
                    let idx = match &r.kind {
                        Kind::Lookup { idx } => *idx,
                        Kind::Containing { donor, .. } => *donor,
                        _ => usize::MAX,
                    };
                    let overlapping = writes
                        .iter()
                        .any(|w| w.idx == idx && w.start_us <= r.done_us && w.end_us >= r.sent_us);
                    if beside_writes && overlapping && inject_at != Some(i) {
                        tally.torn += 1;
                    } else {
                        tally.fail(format!(
                            "{}: {} missing from the answer",
                            r.kind.class(),
                            gen::accession(idx)
                        ));
                    }
                }
            }
        }
        let mut refreshed = BTreeSet::new();
        for w in writes {
            tally.attempted += 1;
            match &w.error {
                Some(e) => tally.fail(format!("refresh of {} failed: {e}", gen::accession(w.idx))),
                None => {
                    refreshed.insert(w.idx);
                }
            }
        }
        for msg in oracle::check_refreshed(&self.wh.db, &self.current, &refreshed) {
            tally.fail(msg);
        }
        tally
    }

    /// Run metadata: machine, program configuration and workload shape,
    /// plus the run's own `counts` (sample sizes).
    pub fn meta(&self, counts: &[(&'static str, usize)]) -> String {
        let cfg = &self.wh.config;
        let snap = self.wh.server.service().snapshot();
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let (rate, clients, loop_kind) = match self.opts.workload {
            Workload::Lookup => (LOOKUP_RATE, CLIENTS, "open"),
            Workload::Explore => (0.0, CLIENTS, "closed"),
            Workload::Refresh => (REFRESH_READ_RATE, CLIENTS, "open"),
        };
        let rows = |t: &str| self.wh.db.row_count(t).unwrap_or(0);
        let mut fields: Vec<(&str, String)> = vec![
            ("workload", stats::json_str(self.opts.workload.name())),
            ("seed", self.opts.seed.to_string()),
            ("seconds", stats::json_num(self.opts.seconds)),
            ("trace", self.opts.trace.to_string()),
            ("small", self.opts.small.to_string()),
            ("nproc", nproc.to_string()),
            ("git_rev", stats::json_str(&git_rev())),
            ("rows_sequences", rows("public.sequences").to_string()),
            ("rows_sequence_alternatives", rows("public.sequence_alternatives").to_string()),
            ("rows_features", rows("public.features").to_string()),
            ("kmer_udi", self.params.udi.to_string()),
            ("kmer_k", warehouse::KMER_K.to_string()),
            ("storage", stats::json_str(if self.params.on_disk { "disk" } else { "memory" })),
            (
                "flush_policy",
                stats::json_str(if self.params.on_disk {
                    "engine default: WAL sync per autocommit statement"
                } else {
                    "none (in-memory database)"
                }),
            ),
            ("read_loop", stats::json_str(loop_kind)),
            ("read_clients", clients.to_string()),
            ("offered_reads_per_s", stats::json_num(rate)),
            ("writer_threads", "1".to_string()),
            ("writer_think_s", stats::json_num(self.writer_think().as_secs_f64())),
            (
                "writes",
                stats::json_str(if self.opts.workload == Workload::Refresh {
                    "beside the reads"
                } else {
                    "maintenance pass after the reads, no readers"
                }),
            ),
            ("warmup_s", stats::json_num(self.params.warmup.as_secs_f64())),
            (
                "setup_s_each",
                format!(
                    "[{}]",
                    self.setup_s.iter().map(|s| stats::json_num(*s)).collect::<Vec<_>>().join(", ")
                ),
            ),
            ("exec_parallelism", self.wh.db.parallelism().to_string()),
            ("server_workers", cfg.workers.to_string()),
            ("server_queue_capacity", cfg.queue_capacity.to_string()),
            ("plan_cache_size", cfg.plan_cache_size.to_string()),
            ("result_cache_size", cfg.result_cache_size.to_string()),
            ("caches_enabled", cfg.caches_enabled.to_string()),
            // The engine does not expose its buffer capacity.
            ("pool_pages_per_table_assumed", "256".to_string()),
            ("tracing_enabled", snap.value("obs_tracing_enabled").unwrap_or(0).to_string()),
            (
                "cleared_env_overrides",
                format!(
                    "[{}]",
                    self.cleared_env
                        .iter()
                        .map(|k| stats::json_str(k))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
            ),
        ];
        fields.extend(counts.iter().map(|(k, n)| (*k, n.to_string())));
        let body: Vec<String> =
            fields.iter().map(|(k, v)| format!("{}: {v}", stats::json_str(k))).collect();
        format!("{{{}}}", body.join(", "))
    }

    /// The maintainer's pause between entities.
    pub fn writer_think(&self) -> Duration {
        if self.opts.workload == Workload::Refresh {
            REFRESH_THINK
        } else {
            MAINTENANCE_THINK
        }
    }

    pub fn shutdown(self) {
        self.wh.shutdown();
    }
}

/// The git revision of the checkout, when it is a git repository.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Verification totals.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub torn: u64,
    pub problems: Vec<String>,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        self.problems.push(msg);
    }

    pub fn failed_pct(&self) -> f64 {
        100.0 * self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// Request `i` of explore client `c`, with fresh literals. Each client
/// walks the mix in cycles of [`EXPLORE_MIX`]'s total, every cycle a
/// seeded shuffle of exactly the mix's shares, so every run sends the
/// same class proportions.
pub fn explore_kind(seed: u64, c: usize, i: usize, rng: &mut Rng, records: &[SeqRecord]) -> Kind {
    let mut cycle: Vec<usize> = EXPLORE_MIX
        .iter()
        .enumerate()
        .flat_map(|(class, n)| std::iter::repeat_n(class, *n as usize))
        .collect();
    let mut shuffle = Rng::stream(seed ^ ((c as u64) << 32), (i / cycle.len()) as u64);
    for j in (1..cycle.len()).rev() {
        cycle.swap(j, shuffle.range(0, j + 1));
    }
    explore_class(oracle::CLASSES[cycle[i % cycle.len()]], rng, records)
}

/// An explore request of the given class.
pub fn explore_class(class: &str, rng: &mut Rng, records: &[SeqRecord]) -> Kind {
    let donor = rng.range(0, records.len());
    match class {
        "count_by" => Kind::CountBy { shorter: MAX_LEN + 1 + rng.range(0, 1_000_000) },
        "gc_top" => Kind::GcTop {
            above: (0.55e6 + rng.unit() * 0.15e6).round() / 1e6,
            top: rng.range(5, 21),
        },
        "from_organism" => {
            let weights: Vec<u32> = ORGANISMS.iter().map(|o| o.1).collect();
            let longer = rng.range(MIN_LEN - 1, MAX_LEN);
            Kind::FromOrganism {
                organism: rng.weighted(&weights),
                longer,
                shorter: longer + 2 + rng.range(0, MAX_LEN),
            }
        }
        "containing" => {
            let len = rng.range(12, 17);
            Kind::Containing { donor, pattern: gen::pattern(&records[donor], rng, len) }
        }
        "resembling" => Kind::Resembling { donor, probe: gen::probe(&records[donor], rng) },
        _ => Kind::Join { min_end: rng.range(0, MAX_LEN), max_start: rng.range(1, MIN_LEN / 4) },
    }
}

/// One `refresh` reader request: mostly lookups, half of them keyed from
/// the maintainer's current batch; now and then a `CONTAINING` probe.
fn refresh_kind(rng: &mut Rng, records: &[SeqRecord], recent: &Mutex<Vec<usize>>) -> Kind {
    if rng.next_u64().is_multiple_of(REFRESH_CONTAINING_EVERY) {
        return explore_class("containing", rng, records);
    }
    let batch = recent.lock().expect("recent batch").clone();
    let idx = if !batch.is_empty() && rng.next_u64().is_multiple_of(2) {
        batch[rng.range(0, batch.len())]
    } else {
        rng.range(0, records.len())
    };
    Kind::Lookup { idx }
}

/// Latencies of the reads that fall in the measured window.
pub fn window_reads(reads: &[Read], (from, to): (f64, f64)) -> Vec<&Read> {
    reads.iter().filter(|r| r.due_us >= from && r.due_us < to).collect()
}

/// The timed run: every end-to-end metric.
pub fn timed(opts: &Options) -> Outcome {
    let mut bench = Bench::setup(opts, SETUPS);
    stats::reset_peak_rss();
    let measure = Duration::from_secs_f64(opts.seconds);
    let (reads, mut writes, window) = bench.phase(measure, 1, None);
    let write_window = if writes.is_empty() {
        writes = bench.post_pass(measure, 1, None);
        (f64::NEG_INFINITY, f64::INFINITY)
    } else {
        window
    };
    let peak_rss = stats::peak_rss_mb();
    let tally = bench.verify(&reads, &writes);
    let in_window = window_reads(&reads, window);
    let lat: Vec<f64> = in_window.iter().map(|r| r.latency_us()).collect();
    let completed = in_window.iter().filter(|r| r.result.is_ok()).count();
    // From the window's start to the last in-window reply: an open loop
    // that keeps up completes its schedule, one that falls behind takes
    // longer.
    let last_done = in_window.iter().map(|r| r.done_us).fold(window.0, f64::max);
    let seconds = (last_done - window.0) / 1e6;
    let measured_writes: Vec<&Write> = writes
        .iter()
        .filter(|w| w.start_us >= write_window.0 && w.end_us <= write_window.1)
        .collect();
    let wlat: Vec<f64> = measured_writes.iter().map(|w| w.latency_us()).collect();
    // Over the maintainer's busy time: the think pauses are not the
    // program's.
    let write_seconds = wlat.iter().sum::<f64>() / 1e6;
    let metrics = vec![
        Metric::new("setup_s", "s", median(&bench.setup_s)),
        Metric::new("read_p50_us", "us", stats::windowed(&lat, 0.5)),
        Metric::new("read_p99_us", "us", stats::windowed(&lat, 0.99)),
        Metric::new("read_qps", "1/s", completed as f64 / seconds),
        Metric::new("write_p50_us", "us", stats::windowed(&wlat, 0.5)),
        Metric::new("upserts_per_s", "1/s", measured_writes.len() as f64 / write_seconds),
        Metric::new("peak_rss_mb", "MB", peak_rss),
    ];
    let meta = bench.meta(&[("read_samples", lat.len()), ("write_samples", wlat.len())]);
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

/// Run one invocation (timed or traced).
pub fn run(opts: &Options) -> Outcome {
    if opts.trace {
        layers::traced(opts)
    } else {
        timed(opts)
    }
}
