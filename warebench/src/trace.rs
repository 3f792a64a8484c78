//! The traced run's span recorder. Spans are recorded in memory by the
//! benchmark's own code (client requests, replay layers, the maintainer's
//! ETL calls) and written out once at the end; nothing is added inside the
//! program.

use crate::stats::json_str;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// In-memory span sink shared by every benchmark thread.
pub struct Recorder {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new(epoch: Instant) -> Self {
        Recorder { epoch, next_id: AtomicU64::new(1), spans: Mutex::new(Vec::new()) }
    }

    /// Record a finished span; returns its id (for children).
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let us = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64() * 1e6;
        self.spans.lock().expect("span sink").push(Span {
            id,
            parent,
            request,
            name,
            start_us: us(start),
            end_us: us(end),
        });
        id
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span sink").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Write every span (and the program's own drained spans, rendered by
    /// its tracer) as JSON lines, after a metadata line.
    pub fn write(&self, path: &Path, meta: &str, program_spans: &[String]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"meta\": {meta}}}")?;
        for s in self.spans.lock().expect("span sink").iter() {
            writeln!(
                out,
                "{{\"span\": {}, \"id\": {}, \"parent\": {}, \"request\": {}, \
                 \"start_us\": {:.3}, \"end_us\": {:.3}}}",
                json_str(s.name),
                s.id,
                s.parent,
                s.request,
                s.start_us,
                s.end_us
            )?;
        }
        for p in program_spans {
            writeln!(out, "{{\"program_span\": {}}}", json_str(p))?;
        }
        out.flush()
    }
}
