//! Crash-safe persistence of the learning cache.
//!
//! SkinnerDB's accumulated learning — the per-template UCT snapshots
//! and planned join orders — is only an asset if it survives restarts.
//! This module serializes the [`LearningCache`](crate::cache::LearningCache) to a single file in a
//! hand-rolled, length-prefixed binary format with a per-record
//! checksum, and loads it back on startup so a restarted service starts
//! warm.
//!
//! # Format
//!
//! ```text
//! header : magic "SKLC" | format version u32
//! record : payload len u32 | FxHasher checksum of payload u64 | payload
//! payload: template canonical string
//!          table deps        (name, version)*
//!          best order        table ids
//!          planned orders    id lists
//!          snapshot          rounds + nodes (visits, reward bits,
//!                            actions, children; u64::MAX = unexpanded)
//! ```
//!
//! Integers are little-endian, strings `u32`-length-prefixed UTF-8.
//!
//! # Crash safety
//!
//! The header, the record framing, the atomic save and the resilient
//! loader are the shared [`skinner_engine::codec`]: a crash mid-write
//! leaves the old file or the new one, a corrupt record is skipped, a
//! torn tail stops the scan, and a foreign magic or version loads
//! nothing — corruption costs some warm starts, never availability or
//! correctness. On top of that, records whose table versions no longer
//! match the live catalog are skipped as stale, and
//! `TreeSnapshot::from_parts` re-validates the tree's structure.
//!
//! Fault-injection sites: `persist.read`, `persist.write`,
//! `persist.fsync`, `persist.rename` (see
//! [`skinner_engine::failpoints`]).

use crate::cache::TableDeps;
use crate::service::QueryService;
use skinner_engine::codec::{put_str, put_u32, put_u64, Cursor, RecordFile};
use skinner_engine::LearnedState;
use skinner_query::{TableId, TemplateKey};
use skinner_uct::{SnapshotNode, TreeSnapshot};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

pub use skinner_engine::codec::LoadReport;

/// The learning-cache file: magic "SKinner Learning Cache", format 1.
const SKLC: RecordFile = RecordFile {
    magic: *b"SKLC",
    version: 1,
    max_record_bytes: 64 << 20,
    read_site: "persist.read",
    write_site: "persist.write",
    fsync_site: "persist.fsync",
    rename_site: "persist.rename",
};

/// One persisted cache entry.
#[derive(Debug, Clone)]
pub struct PersistRecord {
    /// The template key (round-tripped via its canonical string).
    pub key: TemplateKey,
    /// Per-table versions the learning was captured against.
    pub deps: TableDeps,
    /// The learned state itself.
    pub learning: LearnedState,
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn put_ids(out: &mut Vec<u8>, ids: &[TableId]) {
    put_u32(out, ids.len() as u32);
    for &id in ids {
        put_u64(out, id as u64);
    }
}

fn encode_record(key: &TemplateKey, deps: &TableDeps, learning: &LearnedState) -> Vec<u8> {
    let mut p = Vec::with_capacity(256);
    put_str(&mut p, key.canonical());
    put_u32(&mut p, deps.len() as u32);
    for (name, version) in deps {
        put_str(&mut p, name);
        put_u64(&mut p, *version);
    }
    put_ids(&mut p, &learning.best_order);
    put_u32(&mut p, learning.planned_orders.len() as u32);
    for order in &learning.planned_orders {
        put_ids(&mut p, order);
    }
    let (nodes, rounds) = learning.snapshot.to_parts();
    put_u64(&mut p, rounds);
    put_u32(&mut p, nodes.len() as u32);
    for n in &nodes {
        put_u64(&mut p, n.visits);
        put_u64(&mut p, n.reward_sum.to_bits());
        put_u32(&mut p, n.actions.len() as u32);
        for &a in &n.actions {
            put_u64(&mut p, a as u64);
        }
        for &c in &n.children {
            put_u64(&mut p, c as u64);
        }
    }
    p
}

fn get_ids(c: &mut Cursor<'_>) -> Option<Vec<TableId>> {
    let n = c.count(8)?;
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(usize::try_from(c.u64()?).ok()?);
    }
    Some(ids)
}

fn decode_record(payload: &[u8]) -> Option<PersistRecord> {
    let mut c = Cursor::new(payload);
    let key = TemplateKey::from_canonical(c.str()?);
    // A dep is a name length + a version: 12 bytes minimum.
    let n_deps = c.count(12)?;
    let mut deps = Vec::with_capacity(n_deps);
    for _ in 0..n_deps {
        deps.push((c.str()?, c.u64()?));
    }
    let best_order = get_ids(&mut c)?;
    let n_orders = c.count(4)?;
    let mut planned_orders = Vec::with_capacity(n_orders);
    for _ in 0..n_orders {
        planned_orders.push(get_ids(&mut c)?);
    }
    let rounds = c.u64()?;
    // visits + reward + action count = 20 bytes minimum per node.
    let n_nodes = c.count(20)?;
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        let visits = c.u64()?;
        let reward_sum = f64::from_bits(c.u64()?);
        // One action + one child slot = 16 bytes per arm.
        let n_actions = c.count(16)?;
        let mut actions = Vec::with_capacity(n_actions);
        for _ in 0..n_actions {
            actions.push(usize::try_from(c.u64()?).ok()?);
        }
        let mut children = Vec::with_capacity(n_actions);
        for _ in 0..n_actions {
            let raw = c.u64()?;
            children.push(if raw == u64::MAX {
                usize::MAX
            } else {
                usize::try_from(raw).ok()?
            });
        }
        nodes.push(SnapshotNode {
            visits,
            reward_sum,
            actions,
            children,
        });
    }
    if !c.done() {
        // Trailing garbage inside a checksummed record: treat as corrupt
        // rather than silently ignoring bytes.
        return None;
    }
    // `from_parts` re-validates structure, so a record that passes its
    // checksum but encodes a malformed tree is still rejected here.
    let snapshot = TreeSnapshot::from_parts(nodes, rounds)?;
    Some(PersistRecord {
        key,
        deps,
        learning: LearnedState {
            snapshot,
            best_order,
            planned_orders,
        },
    })
}

// ---------------------------------------------------------------------
// File I/O
// ---------------------------------------------------------------------

/// Serialize `entries` to `path` atomically (see
/// [`RecordFile::save`]). Returns the record count written.
pub fn save_entries(
    path: &Path,
    entries: &[(TemplateKey, TableDeps, LearnedState)],
) -> io::Result<usize> {
    SKLC.save(
        path,
        entries
            .iter()
            .map(|(key, deps, learning)| encode_record(key, deps, learning)),
    )?;
    Ok(entries.len())
}

/// [`save_entries`] with bounded retry and exponential backoff — the
/// treatment for transient I/O errors (the persister must not give up
/// on the first `EIO`, nor retry forever). `attempts` is clamped ≥ 1;
/// the delay doubles after each failure starting from `backoff`.
pub fn save_entries_with_retry(
    path: &Path,
    entries: &[(TemplateKey, TableDeps, LearnedState)],
    attempts: u32,
    backoff: Duration,
) -> io::Result<usize> {
    let attempts = attempts.max(1);
    let mut delay = backoff;
    let mut last = None;
    for i in 0..attempts {
        match save_entries(path, entries) {
            Ok(n) => return Ok(n),
            Err(e) => {
                last = Some(e);
                if i + 1 < attempts {
                    std::thread::sleep(delay);
                    delay = delay.saturating_mul(2);
                }
            }
        }
    }
    Err(last.unwrap_or_else(|| io::Error::other("unreachable: no attempt ran")))
}

/// Read every decodable record from `path` (see [`RecordFile::load`]
/// for how corruption degrades). A missing file is an empty load.
pub fn load_entries(path: &Path) -> io::Result<(Vec<PersistRecord>, LoadReport)> {
    SKLC.load(path, decode_record)
}

// ---------------------------------------------------------------------
// Service integration
// ---------------------------------------------------------------------

/// What a warm start from one `--cache` location found: the learning
/// cache file and its [`knowledge_path`] sibling.
#[derive(Debug)]
pub struct WarmStart {
    /// The learning-cache load.
    pub cache: io::Result<LoadReport>,
    /// The knowledge-store load.
    pub knowledge: io::Result<LoadReport>,
}

impl WarmStart {
    /// Report both loads on stderr, one line each, prefixed by `who`:
    /// `learning cache warm start: N loaded, N corrupt, N stale` and
    /// `knowledge warm start: …` (or the load error).
    pub fn log(&self, who: &str) {
        for (what, load) in [
            ("learning cache", &self.cache),
            ("knowledge", &self.knowledge),
        ] {
            match load {
                Ok(report) => eprintln!("{who}: {what} warm start: {report}"),
                Err(e) => eprintln!("{who}: {what} load failed: {e}"),
            }
        }
    }
}

impl QueryService {
    /// Persist the learning cache to `path` (atomic write; see module
    /// docs). Returns the number of entries written.
    pub fn save_learning_cache(&self, path: &Path) -> io::Result<usize> {
        save_entries(path, &self.learning_cache().export())
    }

    /// [`save_learning_cache`](Self::save_learning_cache) with bounded
    /// retry + exponential backoff for transient I/O errors.
    pub fn save_learning_cache_with_retry(
        &self,
        path: &Path,
        attempts: u32,
        backoff: Duration,
    ) -> io::Result<usize> {
        save_entries_with_retry(path, &self.learning_cache().export(), attempts, backoff)
    }

    /// Warm-start the learning cache from `path`. Records whose table
    /// versions no longer match the live catalog (or whose tables are
    /// gone) are skipped as `stale`; corrupt/truncated data degrades per
    /// the module docs. Entries are seeded without counting as stores.
    pub fn load_learning_cache(&self, path: &Path) -> io::Result<LoadReport> {
        let (records, mut report) = load_entries(path)?;
        for r in records {
            if !self.deps_are_current(&r.deps) {
                report.loaded -= 1;
                report.stale += 1;
                continue;
            }
            self.learning_cache().seed(r.key, r.deps, r.learning);
        }
        Ok(report)
    }

    /// Persist the knowledge store to `path` (atomic write with its own
    /// magic/format, see [`skinner_knowledge::persist`]). Returns the
    /// number of entries written.
    pub fn save_knowledge(&self, path: &Path) -> io::Result<usize> {
        skinner_knowledge::persist::save(&self.knowledge(), path)
    }

    /// Warm-start the knowledge store from `path`, keeping only entries
    /// whose catalog versions still match the live catalog (others are
    /// reported `stale`); corruption degrades exactly like the learning
    /// cache's loader.
    pub fn load_knowledge(&self, path: &Path) -> io::Result<LoadReport> {
        let mut store = self.knowledge();
        skinner_knowledge::persist::load_with(&mut store, path, |name, version| {
            self.table_is_current(name, version)
        })
    }

    /// Warm-start everything persisted under one `--cache` location:
    /// the learning cache from `cache_path` and the knowledge store from
    /// its [`knowledge_path`] sibling. A failed or degraded load of one
    /// file does not stop the other.
    pub fn warm_start(&self, cache_path: &Path) -> WarmStart {
        WarmStart {
            cache: self.load_learning_cache(cache_path),
            knowledge: self.load_knowledge(&knowledge_path(cache_path)),
        }
    }
}

/// The knowledge store's on-disk sibling of a learning-cache file:
/// `<cache path>.knowledge`. Keeping the two formats in separate files
/// lets each keep its own magic, version and corruption domain while
/// operators still manage a single `--cache` location.
pub fn knowledge_path(cache_path: &Path) -> PathBuf {
    let mut name = cache_path.file_name().unwrap_or_default().to_os_string();
    name.push(".knowledge");
    cache_path.with_file_name(name)
}

/// One flush of a `--cache` location: the learning cache (retried),
/// then its knowledge sibling. Returns the learning-cache entry count;
/// a knowledge flush error is reported, not returned.
fn flush(service: &QueryService, path: &Path) -> io::Result<usize> {
    let n = service.save_learning_cache_with_retry(path, 3, Duration::from_millis(50));
    if let Err(e) = service.save_knowledge(&knowledge_path(path)) {
        eprintln!("skinner: knowledge flush failed: {e}");
    }
    n
}

/// Background persister: periodically flushes the service's learning
/// cache to disk (atomic + retried) — and the knowledge store to the
/// [`knowledge_path`] sibling — and once more on
/// [`shutdown`](CachePersister::shutdown). Dropping without `shutdown`
/// stops the thread and makes a best-effort final flush.
#[derive(Debug)]
pub struct CachePersister {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    service: Arc<QueryService>,
    path: PathBuf,
}

impl CachePersister {
    /// Flush every `interval` until shutdown. Flush errors are reported
    /// to stderr and retried at the next tick — a sick disk must not
    /// take the query path down.
    pub fn start(
        service: Arc<QueryService>,
        path: impl Into<PathBuf>,
        interval: Duration,
    ) -> CachePersister {
        let path = path.into();
        let stop = Arc::new(AtomicBool::new(false));
        let (svc, p, st) = (service.clone(), path.clone(), stop.clone());
        let handle = std::thread::spawn(move || {
            let tick = Duration::from_millis(50).min(interval);
            let mut since_flush = Duration::ZERO;
            while !st.load(Ordering::Relaxed) {
                std::thread::sleep(tick);
                since_flush += tick;
                if since_flush >= interval {
                    since_flush = Duration::ZERO;
                    if let Err(e) = flush(&svc, &p) {
                        eprintln!("skinner: periodic cache flush failed: {e}");
                    }
                }
            }
        });
        CachePersister {
            stop,
            handle: Some(handle),
            service,
            path,
        }
    }

    /// Stop the background thread and write a final flush (retried).
    /// Returns the entry count of the final learning-cache flush; the
    /// knowledge store flushes alongside (a knowledge flush error is
    /// reported but does not fail the cache flush).
    pub fn shutdown(mut self) -> io::Result<usize> {
        self.final_flush()
    }

    /// Stop the background thread, then flush once more.
    fn final_flush(&mut self) -> io::Result<usize> {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        flush(&self.service, &self.path)
    }
}

impl Drop for CachePersister {
    fn drop(&mut self) {
        // After `shutdown` the handle is gone and the flush already ran.
        if self.handle.is_some() {
            if let Err(e) = self.final_flush() {
                eprintln!("skinner: final cache flush failed: {e}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_uct::{SearchSpace, UctConfig, UctTree};

    struct Perms {
        n: usize,
    }

    impl SearchSpace for Perms {
        type Action = usize;
        fn actions(&self, path: &[usize]) -> Vec<usize> {
            (0..self.n).filter(|t| !path.contains(t)).collect()
        }
        fn depth(&self) -> usize {
            self.n
        }
    }

    fn learned(seed_rounds: usize) -> LearnedState {
        let mut tree = UctTree::new(Perms { n: 3 }, UctConfig::default());
        for _ in 0..seed_rounds {
            let p = tree.choose();
            let r = if p[0] == 1 { 0.9 } else { 0.2 };
            tree.update(&p, r);
        }
        LearnedState {
            best_order: tree.best_path(),
            snapshot: tree.snapshot(),
            planned_orders: vec![vec![0, 1, 2], vec![1, 0, 2]],
        }
    }

    fn entry(name: &str, rounds: usize) -> (TemplateKey, TableDeps, LearnedState) {
        (
            TemplateKey::from_canonical(format!("[{name}]|{name}.x=?")),
            vec![(name.to_string(), 3)],
            learned(rounds),
        )
    }

    #[test]
    fn record_round_trips() {
        let (key, deps, learning) = entry("t", 50);
        let payload = encode_record(&key, &deps, &learning);
        let r = decode_record(&payload).expect("decode");
        assert_eq!(r.key, key);
        assert_eq!(r.deps, deps);
        assert_eq!(r.learning.best_order, learning.best_order);
        assert_eq!(r.learning.planned_orders, learning.planned_orders);
        assert_eq!(r.learning.snapshot.rounds(), learning.snapshot.rounds());
        assert_eq!(
            r.learning.snapshot.num_nodes(),
            learning.snapshot.num_nodes()
        );
        assert_eq!(
            r.learning.snapshot.to_parts().0,
            learning.snapshot.to_parts().0
        );
    }
}
