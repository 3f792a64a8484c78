//! The statements the workloads send, and the correctness oracle that
//! checks each answer against the generated records (computed with
//! `genalg_core`, never with the program under test).

use crate::gen::ORGANISMS;
use genalg_core::algebra::Value;
use genalg_core::seq::DnaSeq;
use genalg_etl::SeqRecord;
use genalg_server::Lang;
use std::collections::{BTreeMap, BTreeSet};
use unidb::{Datum, ResultSet};

/// One read the benchmark sends.
#[derive(Debug, Clone)]
pub enum Kind {
    /// Single-row accession read calling `seq_length` / `gc_content` (SQL).
    Lookup { idx: usize },
    /// `COUNT sequences BY organism SHORTER THAN n`, `n` beyond every
    /// length: a fresh literal whose answer is the whole table.
    CountBy { shorter: usize },
    /// `FIND sequences GC ABOVE x SHOW accession, gc SORTED BY gc
    /// DESCENDING TOP k`.
    GcTop { above: f64, top: usize },
    /// `FIND sequences FROM ORGANISM o LONGER THAN a SHORTER THAN b`.
    FromOrganism { organism: usize, longer: usize, shorter: usize },
    /// `FIND sequences CONTAINING p` (a UDI probe where the UDI exists).
    Containing { donor: usize, pattern: String },
    /// `FIND sequences RESEMBLING p` with `p` derived from the donor.
    Resembling { donor: usize, probe: String },
    /// `sequences ⋈ features … GROUP BY` (SQL).
    Join { min_end: usize, max_start: usize },
}

/// The explore mix classes, in report order.
pub const CLASSES: &[&str] =
    &["count_by", "gc_top", "from_organism", "containing", "resembling", "join"];

impl Kind {
    pub fn class(&self) -> &'static str {
        match self {
            Kind::Lookup { .. } => "lookup",
            Kind::CountBy { .. } => "count_by",
            Kind::GcTop { .. } => "gc_top",
            Kind::FromOrganism { .. } => "from_organism",
            Kind::Containing { .. } => "containing",
            Kind::Resembling { .. } => "resembling",
            Kind::Join { .. } => "join",
        }
    }

    pub fn lang(&self) -> Lang {
        match self {
            Kind::Lookup { .. } | Kind::Join { .. } => Lang::Sql,
            _ => Lang::Bql,
        }
    }

    /// The statement text.
    pub fn text(&self) -> String {
        match self {
            Kind::Lookup { idx } => format!(
                "SELECT organism, seq_length(seq), gc_content(seq) FROM public.sequences \
                 WHERE accession = '{}'",
                crate::gen::accession(*idx)
            ),
            Kind::CountBy { shorter } => {
                format!("COUNT sequences BY organism SHORTER THAN {shorter}")
            }
            Kind::GcTop { above, top } => format!(
                "FIND sequences GC ABOVE {above} SHOW accession, gc SORTED BY gc DESCENDING \
                 TOP {top}"
            ),
            Kind::FromOrganism { organism, longer, shorter } => format!(
                "FIND sequences FROM ORGANISM '{}' LONGER THAN {longer} SHORTER THAN {shorter} \
                 SHOW accession",
                ORGANISMS[*organism].0
            ),
            Kind::Containing { pattern, .. } => {
                format!("FIND sequences CONTAINING '{pattern}' SHOW accession")
            }
            Kind::Resembling { probe, .. } => format!(
                "FIND sequences RESEMBLING '{probe}' IDENTITY 90% COVERING 80% SHOW accession"
            ),
            Kind::Join { min_end, max_start } => format!(
                "SELECT s.organism, f.kind, count(*) FROM public.sequences s \
                 JOIN public.features f ON s.accession = f.accession \
                 WHERE f.loc_end > {min_end} AND f.loc_start < {max_start} \
                 GROUP BY s.organism, f.kind"
            ),
        }
    }
}

/// How strictly set-valued answers are checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strictness {
    /// The exact expected answer (no concurrent writers).
    Exact,
    /// Only what survives concurrent refreshes: lookups match organism
    /// and length, `CONTAINING` includes its donor.
    BesideWrites,
}

/// The oracle's verdict on one answer.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    Ok,
    /// The expected row was missing (only meaningful beside writes).
    Missing,
    Wrong(String),
}

fn text(d: &Datum) -> Option<&str> {
    d.as_text()
}

fn accessions(rs: &ResultSet) -> Vec<String> {
    rs.rows.iter().filter_map(|r| r.first().and_then(text)).map(str::to_string).collect()
}

fn organism_of(r: &SeqRecord) -> &str {
    r.organism.as_deref().unwrap_or("")
}

/// Check `rs` as the answer to `kind` over the warehouse state `records`.
/// `inject` replaces the expected answer with a wrong one (the self-test
/// uses it to prove mismatches are reported).
pub fn check(
    kind: &Kind,
    rs: &ResultSet,
    records: &[SeqRecord],
    strict: Strictness,
    inject: bool,
) -> Verdict {
    let wrong = |what: String| Verdict::Wrong(format!("{}: {what}", kind.class()));
    match kind {
        Kind::Lookup { idx } => {
            let r = &records[*idx];
            let Some(row) = rs.rows.first() else { return Verdict::Missing };
            if rs.rows.len() != 1 {
                return wrong(format!("{} rows for {}", rs.rows.len(), r.accession));
            }
            let mut organism = organism_of(r).to_string();
            if inject {
                organism.push_str(" (injected)");
            }
            let len = r.sequence.len() as i64;
            if text(&row[0]) != Some(organism.as_str()) || row[1].as_int() != Some(len) {
                return wrong(format!("{}: got {row:?}, want ({organism}, {len})", r.accession));
            }
            if strict == Strictness::Exact && row[2].as_float() != Some(r.sequence.gc_content()) {
                return wrong(format!("{}: gc {:?}", r.accession, row[2]));
            }
            Verdict::Ok
        }
        Kind::CountBy { shorter } => {
            let mut want: BTreeMap<String, i64> = BTreeMap::new();
            for r in records.iter().filter(|r| r.sequence.len() < *shorter) {
                *want.entry(organism_of(r).to_string()).or_default() += 1;
            }
            if inject {
                *want.entry("injected".into()).or_default() += 1;
            }
            let got: BTreeMap<String, i64> = rs
                .rows
                .iter()
                .filter_map(|r| Some((text(&r[0])?.to_string(), r[1].as_int()?)))
                .collect();
            let total: i64 = got.values().sum();
            if got != want || total != want.values().sum::<i64>() {
                return wrong(format!("counts {got:?} (sum {total}), want {want:?}"));
            }
            Verdict::Ok
        }
        Kind::GcTop { above, top } => {
            let mut want: Vec<f64> =
                records.iter().map(|r| r.sequence.gc_content()).filter(|gc| gc > above).collect();
            want.sort_by(|a, b| b.total_cmp(a));
            want.truncate(*top);
            if inject {
                want.push(2.0);
            }
            let by_acc: BTreeMap<&str, f64> =
                records.iter().map(|r| (r.accession.as_str(), r.sequence.gc_content())).collect();
            let mut got = Vec::new();
            for row in &rs.rows {
                let (Some(acc), Some(gc)) = (text(&row[0]), row[1].as_float()) else {
                    return wrong(format!("bad row {row:?}"));
                };
                if by_acc.get(acc) != Some(&gc) {
                    return wrong(format!("{acc}: gc {gc} disagrees with gc_content"));
                }
                got.push(gc);
            }
            if got != want {
                return wrong(format!("top gc {got:?}, want {want:?}"));
            }
            Verdict::Ok
        }
        Kind::FromOrganism { organism, longer, shorter } => {
            let mut want: BTreeSet<String> = records
                .iter()
                .filter(|r| {
                    let n = r.sequence.len();
                    organism_of(r) == ORGANISMS[*organism].0 && n > *longer && n < *shorter
                })
                .map(|r| r.accession.clone())
                .collect();
            if inject {
                want.insert("injected".into());
            }
            let got: BTreeSet<String> = accessions(rs).into_iter().collect();
            if got != want {
                return wrong(format!("{} rows, want {}", got.len(), want.len()));
            }
            Verdict::Ok
        }
        Kind::Containing { donor, pattern } => {
            let got: BTreeSet<String> = accessions(rs).into_iter().collect();
            let mut donor_acc = records[*donor].accession.clone();
            if inject {
                donor_acc.push_str("-injected");
            }
            if strict == Strictness::BesideWrites {
                return if got.contains(&donor_acc) { Verdict::Ok } else { Verdict::Missing };
            }
            let p = DnaSeq::from_text(pattern).expect("pattern is DNA");
            let want: BTreeSet<String> = records
                .iter()
                .filter(|r| r.sequence.contains(&p))
                .map(|r| r.accession.clone())
                .collect();
            if !got.contains(&donor_acc) || got != want {
                return wrong(format!("{} rows, want {} incl. {donor_acc}", got.len(), want.len()));
            }
            Verdict::Ok
        }
        Kind::Resembling { donor, .. } => {
            let mut donor_acc = records[*donor].accession.clone();
            if inject {
                donor_acc.push_str("-injected");
            }
            if accessions(rs).contains(&donor_acc) {
                Verdict::Ok
            } else {
                wrong(format!("donor {donor_acc} missing from {} rows", rs.rows.len()))
            }
        }
        Kind::Join { min_end, max_start } => {
            let mut want: BTreeMap<(String, String), i64> = BTreeMap::new();
            for r in records {
                let matches = |f: &&genalg_core::gdt::Feature| {
                    let env = f.location.envelope();
                    env.end > *min_end && env.start < *max_start
                };
                for f in r.features.iter().filter(matches) {
                    *want
                        .entry((organism_of(r).to_string(), f.kind.key().to_string()))
                        .or_default() += 1;
                }
            }
            if inject {
                *want.entry(("injected".into(), "gene".into())).or_default() += 1;
            }
            let got: BTreeMap<(String, String), i64> = rs
                .rows
                .iter()
                .filter_map(|r| {
                    Some(((text(&r[0])?.to_string(), text(&r[1])?.to_string()), r[2].as_int()?))
                })
                .collect();
            if got != want {
                return wrong(format!("{} groups, want {}", got.len(), want.len()));
            }
            Verdict::Ok
        }
    }
}

/// Check that every refreshed accession holds exactly one row with its
/// final version and sequence (and one alternative, and its features).
/// Returns one message per mismatch.
pub fn check_refreshed(
    db: &unidb::Database,
    records: &[SeqRecord],
    refreshed: &BTreeSet<usize>,
) -> Vec<String> {
    let role = unidb::Role::Maintainer;
    let mut errors = Vec::new();
    for &i in refreshed {
        let r = &records[i];
        let acc = crate::warehouse::quote(&r.accession);
        let q = |sql: String| db.execute_as(&sql, &role).map_err(|e| e.to_string());
        let rows = q(format!("SELECT version FROM public.sequences WHERE accession = {acc}"));
        match rows {
            Ok(rs)
                if rs.rows.len() == 1 && rs.rows[0][0].as_int() == Some(i64::from(r.version)) => {}
            Ok(rs) => errors.push(format!(
                "{}: {} rows {:?}, want one row at version {}",
                r.accession,
                rs.rows.len(),
                rs.rows,
                r.version
            )),
            Err(e) => errors.push(format!("{}: {e}", r.accession)),
        }
        let stored = q(format!("SELECT seq FROM public.sequences WHERE accession = {acc}"))
            .ok()
            .and_then(|rs| rs.scalar().and_then(|d| d.as_opaque()).map(|(_, b)| b.clone()))
            .and_then(|bytes| genalg_core::compact::value_from_bytes(&bytes).ok());
        if !matches!(&stored, Some(Value::Dna(d)) if *d == r.sequence) {
            errors.push(format!("{}: stored sequence is not the final one", r.accession));
        }
        for (table, want) in [("sequence_alternatives", 1), ("features", r.features.len() as i64)] {
            let n = q(format!("SELECT count(*) FROM public.{table} WHERE accession = {acc}"));
            if !matches!(&n, Ok(rs) if rs.scalar().and_then(Datum::as_int) == Some(want)) {
                errors.push(format!("{}: {table} holds {n:?}, want {want}", r.accession));
            }
        }
    }
    errors
}
