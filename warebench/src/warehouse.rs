//! Warehouse set-up: the `etl::loader` schema plus the adapter's `dna`
//! type (and, where a workload needs it, the k-mer UDI), bulk-loaded with
//! the reconciled initial release and served over TCP by a default
//! [`Server`].

use genalg_adapter::Adapter;
use genalg_etl::integrate::{reconcile, ReconciledEntry, TrustModel};
use genalg_etl::loader::Loader;
use genalg_etl::SeqRecord;
use genalg_server::{Server, ServerConfig, ServerHandle};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use unidb::{Database, Role};

/// k of the k-mer UDI on `public.sequences.seq`.
pub const KMER_K: usize = 8;
/// Entities per multi-row INSERT of the initial load.
const LOAD_BATCH: usize = 250;

/// How one workload's warehouse is built.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Attach the k-mer UDI after the bulk load.
    pub udi: bool,
    /// Keep the database on disk in this directory (WAL + snapshot);
    /// `None` means in memory.
    pub dir: Option<PathBuf>,
}

/// A loaded warehouse with a listening server.
pub struct Warehouse {
    pub db: Arc<Database>,
    pub config: ServerConfig,
    pub server: Server,
    pub handle: ServerHandle,
    pub dir: Option<PathBuf>,
}

impl Warehouse {
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Stop the listener and remove any on-disk files.
    pub fn shutdown(self) {
        let Warehouse { handle, server, db, dir, .. } = self;
        handle.stop();
        drop(server);
        drop(db);
        if let Some(dir) = dir {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

/// Build the warehouse from the initial release `records`. Returns it with
/// the set-up time: reconciliation, the bulk load, attaching the UDI and
/// starting the server — but not the benchmark's own rendering of the
/// INSERT text.
pub fn build(records: &[SeqRecord], spec: &Spec) -> (Warehouse, Duration) {
    let mut program = Duration::ZERO;
    let mut timed = |f: &mut dyn FnMut()| {
        let t = Instant::now();
        f();
        program += t.elapsed();
    };
    let mut db = None;
    let mut adapter = None;
    let mut entries = Vec::new();
    timed(&mut || {
        let d = match &spec.dir {
            Some(dir) => {
                let d = Database::open(dir).expect("open on-disk database");
                let a = Adapter::install(&d).expect("install adapter");
                d.recover().expect("recover fresh database");
                adapter = Some(a);
                d
            }
            None => {
                let d = Database::in_memory();
                adapter = Some(Adapter::install(&d).expect("install adapter"));
                d
            }
        };
        Loader::new(&d).ensure_schema().expect("create warehouse schema");
        entries = reconcile(records, &TrustModel::default(), &HashMap::new());
        db = Some(d);
    });
    let db = Arc::new(db.expect("database built"));
    let adapter = adapter.expect("adapter installed");
    for chunk in entries.chunks(LOAD_BATCH) {
        for sql in insert_statements(chunk) {
            timed(&mut || {
                db.execute_as(&sql, &Role::Maintainer).expect("bulk insert");
            });
        }
    }
    let config = ServerConfig::default();
    let mut started = None;
    timed(&mut || {
        if spec.udi {
            adapter
                .attach_kmer_index(&db, "public.sequences", "seq", KMER_K)
                .expect("attach k-mer UDI");
        }
        let server = Server::new(Arc::clone(&db), &config);
        let handle = server.listen("127.0.0.1:0").expect("bind server");
        started = Some((server, handle));
    });
    let (server, handle) = started.expect("server started");
    let wh = Warehouse { db, config, server, handle, dir: spec.dir.clone() };
    (wh, program)
}

/// The three multi-row INSERTs for a batch of reconciled entries, with the
/// same column values `Loader::upsert` writes.
fn insert_statements(entries: &[ReconciledEntry]) -> [String; 3] {
    let mut seqs = Vec::with_capacity(entries.len());
    let mut alts = Vec::new();
    let mut feats = Vec::new();
    for e in entries {
        let best = e.sequence.best();
        seqs.push(format!(
            "({}, {}, {}, {}, dna('{}'), {}, {}, {})",
            quote(&e.accession),
            e.version,
            e.organism.as_deref().map_or("NULL".to_string(), quote),
            quote(&e.description),
            best.value().to_text(),
            best.confidence().value(),
            e.sources.len(),
            !e.is_undisputed(),
        ));
        for (rank, option) in e.sequence.options().iter().enumerate() {
            alts.push(format!(
                "({}, {}, dna('{}'), {}, {})",
                quote(&e.accession),
                rank,
                option.value().to_text(),
                option.confidence().value(),
                quote(&option.provenance().join(",")),
            ));
        }
        for f in &e.features {
            let envelope = f.location.envelope();
            let qualifiers: Vec<String> =
                f.qualifiers().iter().map(|(k, v)| format!("{k}={v}")).collect();
            feats.push(format!(
                "({}, {}, {}, {}, {}, {})",
                quote(&e.accession),
                quote(f.kind.key()),
                envelope.start,
                envelope.end,
                quote(&f.location.strand().symbol().to_string()),
                quote(&qualifiers.join(";")),
            ));
        }
    }
    [
        format!("INSERT INTO public.sequences VALUES {}", seqs.join(", ")),
        format!("INSERT INTO public.sequence_alternatives VALUES {}", alts.join(", ")),
        format!("INSERT INTO public.features VALUES {}", feats.join(", ")),
    ]
}

pub fn quote(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

/// Total size of the files under `dir` (the WAL and snapshot of an
/// on-disk warehouse).
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}
