//! Deterministic workload inputs: the warehouse's initial release, key
//! distributions and statement literals, all derived from `--seed`.
//!
//! The program under test never sees this module; it receives only the SQL
//! and BQL text built from what it generates.

use genalg_core::alphabet::Strand;
use genalg_core::gdt::{Feature, FeatureKind, Interval, Location};
use genalg_core::seq::DnaSeq;
use genalg_etl::SeqRecord;

/// Shortest generated sequence (bp).
pub const MIN_LEN: usize = 160;
/// Longest generated sequence (bp).
pub const MAX_LEN: usize = 320;
/// Refresh mutations touch only this many trailing bases, so a pattern
/// drawn from the leading part of a sequence survives every refresh.
pub const MUTABLE_TAIL: usize = 16;

/// Organisms with their share weight and GC bias.
pub const ORGANISMS: &[(&str, u32, f64)] = &[
    ("Escherichia coli", 24, 0.51),
    ("Saccharomyces cerevisiae", 18, 0.38),
    ("Homo sapiens", 14, 0.41),
    ("Mus musculus", 10, 0.42),
    ("Drosophila melanogaster", 8, 0.43),
    ("Arabidopsis thaliana", 7, 0.36),
    ("Bacillus subtilis", 6, 0.44),
    ("Caenorhabditis elegans", 5, 0.35),
    ("Danio rerio", 3, 0.37),
    ("Streptomyces coelicolor", 2, 0.72),
    ("Plasmodium falciparum", 2, 0.22),
    ("Thermus thermophilus", 1, 0.69),
];

/// SplitMix64: small, fast, and identical on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// An independent stream for one purpose (`tag`) of one seed.
    pub fn stream(seed: u64, tag: u64) -> Self {
        let mut r = Rng::new(seed.wrapping_mul(0x100_0000_01B3) ^ tag.wrapping_mul(0xA24B_AED4));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo) as u64) as usize
    }

    /// Index drawn with probability proportional to `weights`.
    pub fn weighted(&mut self, weights: &[u32]) -> usize {
        let total: u32 = weights.iter().sum();
        let mut x = (self.next_u64() % u64::from(total)) as u32;
        for (i, w) in weights.iter().enumerate() {
            if x < *w {
                return i;
            }
            x -= w;
        }
        weights.len() - 1
    }
}

/// The accession of entity `i`.
pub fn accession(i: usize) -> String {
    format!("WB{i:07}")
}

/// Random bases with the given GC share.
pub fn bases(rng: &mut Rng, len: usize, gc: f64) -> String {
    (0..len)
        .map(|_| {
            let strong = rng.unit() < gc;
            match (strong, rng.next_u64() & 1) {
                (true, 0) => 'G',
                (true, _) => 'C',
                (false, 0) => 'A',
                (false, _) => 'T',
            }
        })
        .collect()
}

/// The initial release: `n` entities, one source each, one or two features.
pub fn release(seed: u64, n: usize) -> Vec<SeqRecord> {
    let mut rng = Rng::stream(seed, 1);
    let weights: Vec<u32> = ORGANISMS.iter().map(|o| o.1).collect();
    (0..n)
        .map(|i| {
            let organism = rng.weighted(&weights);
            let len = rng.range(MIN_LEN, MAX_LEN + 1);
            let text = bases(&mut rng, len, ORGANISMS[organism].2);
            let seq = DnaSeq::from_text(&text).expect("generated bases are valid");
            let gene_start = rng.range(0, len / 4);
            let gene_end = rng.range(len / 2, len);
            let mut record = SeqRecord::new(&accession(i), seq)
                .with_description(&format!("synthetic entry {i}"))
                .with_organism(ORGANISMS[organism].0)
                .with_source("genbank")
                .with_feature(feature(FeatureKind::Gene, gene_start, gene_end, i));
            if rng.next_u64().is_multiple_of(2) {
                record = record.with_feature(feature(FeatureKind::Cds, gene_start, gene_end, i));
            }
            record
        })
        .collect()
}

fn feature(kind: FeatureKind, start: usize, end: usize, i: usize) -> Feature {
    let interval = Interval::new(start, end).expect("start < end");
    Feature::new(kind, Location::simple(interval, Strand::Forward))
        .with_qualifier("gene", &format!("g{i}"))
}

/// The next version of an entity, as a source would publish it: version
/// bumped and one base of the mutable tail changed (length, organism and
/// features unchanged).
pub fn mutate(record: &SeqRecord, rng: &mut Rng) -> SeqRecord {
    let mut text = record.sequence.to_text().into_bytes();
    let pos = text.len() - 1 - rng.range(0, MUTABLE_TAIL);
    text[pos] = match text[pos] {
        b'A' => b'C',
        b'C' => b'G',
        b'G' => b'T',
        _ => b'A',
    };
    let mut next = record.clone();
    next.sequence = DnaSeq::from_text(std::str::from_utf8(&text).expect("ascii")).expect("bases");
    next.version += 1;
    next
}

/// A substring of `record` that avoids the mutable tail, for `CONTAINING`.
pub fn pattern(record: &SeqRecord, rng: &mut Rng, len: usize) -> String {
    let text = record.sequence.to_text();
    let start = rng.range(0, text.len() - MUTABLE_TAIL - len);
    text[start..start + len].to_string()
}

/// Length of a `RESEMBLING` probe (bp).
pub const PROBE_LEN: usize = 100;

/// A `RESEMBLING` probe derived from `record`: a stretch of its leading
/// part with two point substitutions (still ≥ 90 % identical).
pub fn probe(record: &SeqRecord, rng: &mut Rng) -> String {
    let mut text = pattern(record, rng, PROBE_LEN).into_bytes();
    for _ in 0..2 {
        let i = rng.range(0, text.len());
        text[i] = if text[i] == b'A' { b'T' } else { b'A' };
    }
    String::from_utf8(text).expect("ascii")
}

/// Zipf-like key sampler over `n` ranks (exponent `s`), with ranks mapped
/// onto entities through a seeded permutation so hot keys are spread over
/// the table's pages.
pub struct Zipf {
    cdf: Vec<f64>,
    perm: Vec<usize>,
}

impl Zipf {
    pub fn new(seed: u64, n: usize, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf = Vec::with_capacity(n);
        for r in 1..=n {
            acc += 1.0 / (r as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        let mut perm: Vec<usize> = (0..n).collect();
        let mut rng = Rng::stream(seed, 2);
        for i in (1..n).rev() {
            perm.swap(i, rng.range(0, i + 1));
        }
        Zipf { cdf, perm }
    }

    /// An entity index.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        let rank = self.cdf.partition_point(|c| *c < u).min(self.cdf.len() - 1);
        self.perm[rank]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_release() {
        let a = release(7, 50);
        let b = release(7, 50);
        assert_eq!(a, b);
        assert_ne!(a, release(8, 50));
    }

    #[test]
    fn mutation_keeps_shape_and_patterns() {
        let r = &release(3, 1)[0];
        let mut rng = Rng::new(1);
        let p = pattern(r, &mut rng, 14);
        let next = mutate(r, &mut rng);
        assert_eq!(next.sequence.len(), r.sequence.len());
        assert_eq!(next.version, 2);
        assert_ne!(next.sequence, r.sequence);
        assert!(next.sequence.contains(&DnaSeq::from_text(&p).unwrap()));
    }

    #[test]
    fn zipf_is_skewed() {
        let z = Zipf::new(1, 1000, 1.0);
        let mut rng = Rng::new(2);
        let mut hits = vec![0u32; 1000];
        for _ in 0..20_000 {
            hits[z.sample(&mut rng)] += 1;
        }
        hits.sort_unstable_by(|a, b| b.cmp(a));
        let head: u32 = hits[..10].iter().sum();
        assert!(head > 20_000 / 4, "top 10 keys get {head}");
    }
}
