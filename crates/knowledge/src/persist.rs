//! Crash-safe persistence of the knowledge store.
//!
//! Same durability contract as the service layer's learning-cache
//! persistence, applied to the knowledge store's (much smaller)
//! entries:
//!
//! ```text
//! header : magic "SKKS" | format version u32
//! record : payload len u32 | FxHasher checksum of payload u64 | payload
//! payload: tag u8 (0 = table entry, 1 = edge entry, 2 = reward scale)
//!          fingerprint string (empty for the scale record)
//!          table: name, version, sel_sum bits, count
//!          edge : deps (name, version)*, fwd share sum bits + count,
//!                 rev share sum bits + count
//!          scale: ln(per-run mean reward) sum bits, run count
//! ```
//!
//! Integers are little-endian, strings `u32`-length-prefixed UTF-8.
//! The header, the record framing, the atomic save and the resilient
//! loader are the shared [`skinner_engine::codec`] — corruption costs
//! some priors, never availability. Fault-injection sites:
//! `knowledge.read`, `knowledge.write`, `knowledge.fsync`,
//! `knowledge.rename` (see [`skinner_engine::failpoints`]).

use crate::store::{EdgeStat, KnowledgeStore, TableStat};
use skinner_engine::codec::{put_str, put_u32, put_u64, put_u8, Cursor, LoadReport, RecordFile};
use std::io;
use std::path::Path;

/// The knowledge file: magic "SKinner Knowledge Store", format 1.
const SKKS: RecordFile = RecordFile {
    magic: *b"SKKS",
    version: 1,
    max_record_bytes: 1 << 20,
    read_site: "knowledge.read",
    write_site: "knowledge.write",
    fsync_site: "knowledge.fsync",
    rename_site: "knowledge.rename",
};

const TAG_TABLE: u8 = 0;
const TAG_EDGE: u8 = 1;
const TAG_SCALE: u8 = 2;

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn encode_table(fingerprint: &str, s: &TableStat) -> Vec<u8> {
    let mut p = Vec::with_capacity(64);
    put_u8(&mut p, TAG_TABLE);
    put_str(&mut p, fingerprint);
    put_str(&mut p, &s.name);
    put_u64(&mut p, s.version);
    put_u64(&mut p, s.sel_sum.to_bits());
    put_u64(&mut p, s.count);
    p
}

fn encode_edge(fingerprint: &str, s: &EdgeStat) -> Vec<u8> {
    let mut p = Vec::with_capacity(96);
    put_u8(&mut p, TAG_EDGE);
    put_str(&mut p, fingerprint);
    put_u32(&mut p, s.deps.len() as u32);
    for (name, version) in &s.deps {
        put_str(&mut p, name);
        put_u64(&mut p, *version);
    }
    put_u64(&mut p, s.fwd.0.to_bits());
    put_u64(&mut p, s.fwd.1);
    put_u64(&mut p, s.rev.0.to_bits());
    put_u64(&mut p, s.rev.1);
    p
}

fn encode_scale(sum: f64, runs: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(32);
    put_u8(&mut p, TAG_SCALE);
    put_str(&mut p, "");
    put_u64(&mut p, sum.to_bits());
    put_u64(&mut p, runs);
    p
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

/// One decoded entry.
#[derive(Debug, Clone)]
enum Decoded {
    Table(String, TableStat),
    Edge(String, EdgeStat),
    Scale(f64, u64),
}

fn decode_record(payload: &[u8]) -> Option<Decoded> {
    let mut c = Cursor::new(payload);
    let tag = c.u8()?;
    let fingerprint = c.str()?;
    let decoded = match tag {
        TAG_TABLE => {
            let name = c.str()?;
            let version = c.u64()?;
            let sel_sum = f64::from_bits(c.u64()?);
            let count = c.u64()?;
            if !sel_sum.is_finite() || sel_sum < 0.0 {
                return None;
            }
            Decoded::Table(
                fingerprint,
                TableStat {
                    name,
                    version,
                    sel_sum,
                    count,
                },
            )
        }
        TAG_EDGE => {
            // A dep is a name length + a version: 12 bytes minimum.
            let n_deps = c.count(12)?;
            if n_deps > 16 {
                return None;
            }
            let mut deps = Vec::with_capacity(n_deps);
            for _ in 0..n_deps {
                let name = c.str()?;
                let version = c.u64()?;
                deps.push((name, version));
            }
            let fwd = (f64::from_bits(c.u64()?), c.u64()?);
            let rev = (f64::from_bits(c.u64()?), c.u64()?);
            if !fwd.0.is_finite() || !rev.0.is_finite() {
                return None;
            }
            Decoded::Edge(fingerprint, EdgeStat { deps, fwd, rev })
        }
        TAG_SCALE => {
            // A log-sum: negative for sub-1.0 per-run means.
            let sum = f64::from_bits(c.u64()?);
            let runs = c.u64()?;
            if !sum.is_finite() {
                return None;
            }
            Decoded::Scale(sum, runs)
        }
        _ => return None,
    };
    if !c.done() {
        // Trailing garbage inside a checksummed record: corrupt.
        return None;
    }
    Some(decoded)
}

// ---------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------

/// Serialize the store to `path` atomically (see
/// [`RecordFile::save`]). Returns the entry count written; the
/// reward-scale record rides along uncounted.
pub fn save(store: &KnowledgeStore, path: &Path) -> io::Result<usize> {
    let (tables, edges) = store.export();
    let (scale_sum, scale_runs) = store.scale_raw();
    let scale = (scale_runs > 0).then(|| encode_scale(scale_sum, scale_runs));
    let payloads = scale
        .into_iter()
        .chain(tables.iter().map(|(fp, s)| encode_table(fp, s)))
        .chain(edges.iter().map(|(fp, s)| encode_edge(fp, s)));
    SKKS.save(path, payloads)?;
    Ok(tables.len() + edges.len())
}

/// Load every decodable entry from `path` into `store`, keeping only
/// entries whose every `(table, version)` dependency satisfies
/// `is_current` (the others are counted `stale`). Corruption degrades
/// per [`RecordFile::load`]; a missing file is a fresh start. Only an
/// I/O error reading the file itself is an `Err`.
pub fn load_with(
    store: &mut KnowledgeStore,
    path: &Path,
    is_current: impl Fn(&str, u64) -> bool,
) -> io::Result<LoadReport> {
    let (records, mut report) = SKKS.load(path, decode_record)?;
    for record in records {
        match record {
            Decoded::Table(fp, s) if is_current(&s.name, s.version) => {
                store.seed_table_entry(fp, s);
            }
            Decoded::Edge(fp, s) if s.deps.iter().all(|(n, v)| is_current(n, *v)) => {
                store.seed_edge_entry(fp, s);
            }
            Decoded::Scale(sum, runs) => {
                // Calibration, not an entry: merged, never counted.
                store.seed_scale_entry(sum, runs);
                report.loaded -= 1;
            }
            Decoded::Table(..) | Decoded::Edge(..) => {
                report.loaded -= 1;
                report.stale += 1;
            }
        }
    }
    Ok(report)
}

/// [`load_with`] accepting every catalog version (offline tools).
pub fn load(store: &mut KnowledgeStore, path: &Path) -> io::Result<LoadReport> {
    load_with(store, path, |_, _| true)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> KnowledgeStore {
        let mut store = KnowledgeStore::default();
        store.seed_table_entry(
            "tbl:a|(c1Lt?)".into(),
            TableStat {
                name: "a".into(),
                version: 3,
                sel_sum: 0.5,
                count: 2,
            },
        );
        store.seed_table_entry(
            "tbl:b|".into(),
            TableStat {
                name: "b".into(),
                version: 1,
                sel_sum: 1.5,
                count: 2,
            },
        );
        store.seed_edge_entry(
            "edge:a(c0)~b(c0)|single".into(),
            EdgeStat {
                deps: vec![("a".into(), 3), ("b".into(), 1)],
                fwd: (3.0, 5),
                rev: (0.5, 4),
            },
        );
        store
    }

    fn dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(name);
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn round_trips_and_missing_file_is_fresh() {
        let d = dir("skinner_knowledge_rt");
        let path = d.join("knowledge.bin");
        let store = sample();
        assert_eq!(save(&store, &path).unwrap(), 3);

        let mut back = KnowledgeStore::default();
        let report = load(&mut back, &path).unwrap();
        assert_eq!(report.loaded, 3);
        assert_eq!(report.corrupt, 0);
        assert_eq!(back.export(), store.export());

        let mut fresh = KnowledgeStore::default();
        let none = load(&mut fresh, &d.join("absent.bin")).unwrap();
        assert_eq!(none, LoadReport::default());
        assert!(fresh.is_empty());
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn reward_scale_round_trips_and_merges() {
        let d = dir("skinner_knowledge_scale");
        let path = d.join("knowledge.bin");
        let mut store = sample();
        store.seed_scale_entry(5.0 * 0.1f64.ln(), 5);
        // The scale record rides along without counting as an entry.
        assert_eq!(save(&store, &path).unwrap(), 3);

        let mut back = KnowledgeStore::default();
        back.seed_scale_entry(5.0 * 0.4f64.ln(), 5);
        let report = load(&mut back, &path).unwrap();
        assert_eq!(report.loaded, 3);
        // Log-sum accumulators merge; the geometric mean of five 0.1
        // runs and five 0.4 runs is sqrt(0.1 * 0.4) = 0.2, scaled by
        // the conservative 1/16 calibration factor.
        assert_eq!(back.scale_raw().1, 10);
        assert!((back.reward_scale() - 0.2 / 16.0).abs() < 1e-12);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn stale_versions_are_filtered_at_load() {
        let d = dir("skinner_knowledge_stale");
        let path = d.join("knowledge.bin");
        save(&sample(), &path).unwrap();
        let mut back = KnowledgeStore::default();
        // Table `a` was re-registered since the save: its selectivity
        // entry and the a~b edge are stale, b's entry survives.
        let report = load_with(&mut back, &path, |name, version| {
            (name, version) != ("a", 3)
        })
        .unwrap();
        assert_eq!(report.loaded, 1);
        assert_eq!(report.stale, 2);
        assert_eq!(back.len(), (1, 0));
        std::fs::remove_dir_all(&d).ok();
    }
}
