//! Mutation fuzzing of every decoder of untrusted bytes: the
//! learning-cache loader (`SKLC`), the knowledge loader (`SKKS`),
//! `read_frame` and `Message::decode`.
//!
//! Each case builds valid streams from a seed, mutates them — bit flips,
//! truncation at every boundary class, inflated `u32` length and count
//! fields, splices of two valid streams — and checks:
//!
//! * no decoder panics;
//! * for mutations the checksum protects, everything loaded was saved;
//! * the load report is consistent with an independent walk of the
//!   record framing (`loaded + corrupt + stale` ≤ records framed,
//!   `truncated` iff the framing stopped early, `format_mismatch` iff
//!   the header is foreign);
//! * the peak heap of one decode, counted by this binary's allocator on
//!   the decoding thread, stays within [`heap_bound`] of its input.
//!
//! "Forged" cases re-checksum a mutated record payload so the payload
//! decoders themselves see hostile counts; those decoders may then
//! accept altered values, so only the panic, report and heap properties
//! apply to them.
//!
//! `PROPTEST_CASES` and `PROPTEST_SEED` scale and replay the run.

use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use skinner_net::frame::{read_frame, write_frame, FrameType, HEADER_BYTES, MAX_FRAME_BYTES};
use skinner_net::proto::{
    BatchSummary, BusyScope, ErrorCode, Message, WireStats, BATCH_FIRST, BATCH_LAST,
};
use skinnerdb::engine::codec::{checksum, put_u32, put_u64, put_u8};
use skinnerdb::engine::LearnedState;
use skinnerdb::knowledge::{persist as kpersist, EdgeStat, KnowledgeStore, TableStat};
use skinnerdb::query::TemplateKey;
use skinnerdb::service::cache::TableDeps;
use skinnerdb::service::persist::{load_entries, save_entries};
use skinnerdb::storage::Value;
use skinnerdb::uct::{SnapshotNode, TreeSnapshot};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------
// Peak-heap accounting (per thread)
// ---------------------------------------------------------------------

/// The system allocator, plus a per-thread count of live and peak
/// bytes. Tests run on separate threads, so each one sees only its own
/// allocations.
struct CountingAlloc;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn note(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

// SAFETY: every method forwards to `System` unchanged; the counters are
// plain thread-local cells whose access never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            note(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        note(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            // Counted as a fresh block before the old one is released:
            // a moving realloc holds both for a moment.
            note(new_size as isize);
            note(-(layout.size() as isize));
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Run `f` and return its result with the peak number of heap bytes it
/// held above what was live when it started.
fn peak_heap<R>(f: impl FnOnce() -> R) -> (R, usize) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(start));
    let r = f();
    let peak = PEAK.with(Cell::get) - start;
    (r, peak.max(0) as usize)
}

/// The heap one decode may hold for `input` bytes. A valid all-NULL
/// `RowBatch` turns each 1-byte cell into a 24-byte `Value`, so ~24× is
/// inherent; anything sizing an allocation from an unchecked count
/// blows far past 32×.
fn heap_bound(input: usize) -> usize {
    32 * input + (64 << 10)
}

fn assert_heap(peak: usize, input: usize, what: &str) {
    assert!(
        peak <= heap_bound(input),
        "{what}: peak heap {peak} B for {input} input bytes (bound {})",
        heap_bound(input)
    );
}

// ---------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------

/// Flip 1–4 random bits.
fn flip_bits(rng: &mut SmallRng, bytes: &mut [u8]) {
    if bytes.is_empty() {
        return;
    }
    for _ in 0..rng.gen_range(1..5) {
        let i = rng.gen_range(0..bytes.len());
        bytes[i] ^= 1 << rng.gen_range(0..8u32);
    }
}

/// A `u32` that no count or length in a small stream can honestly
/// reach, one just past what is left, or one the bytes left could hold
/// only at a byte per item.
fn inflated(rng: &mut SmallRng, left: usize) -> u32 {
    match rng.gen_range(0..6) {
        0 => u32::MAX,
        1 => 1 << 31,
        2 => (MAX_FRAME_BYTES as u32) + 1,
        3 => (left as u32).saturating_add(1),
        4 => (left as u32).saturating_add(rng.gen_range(1..1 << 20)),
        _ => rng.gen_range(0..left as u32 + 1),
    }
}

/// Overwrite a random 4-byte window of `bytes[from..]` with an inflated
/// `u32`.
fn inflate_at_random(rng: &mut SmallRng, bytes: &mut [u8], from: usize) {
    if bytes.len() < from + 4 {
        return;
    }
    let at = rng.gen_range(from..bytes.len() - 3);
    let v = inflated(rng, bytes.len() - at);
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// A cut point of one boundary class, given the stream's header length
/// and the start offset of every frame/record (`starts`, ascending)
/// and the size of a frame header.
fn cut_point(rng: &mut SmallRng, len: usize, head: usize, starts: &[usize], fhead: usize) -> usize {
    let pick = |rng: &mut SmallRng| starts[rng.gen_range(0..starts.len())];
    let at = match (rng.gen_range(0..6), starts.is_empty()) {
        (0, _) => 0,
        (1, _) => rng.gen_range(0..head.max(1)),
        (2, false) => pick(rng),
        (3, false) => pick(rng) + rng.gen_range(1..fhead),
        (4, false) => pick(rng) + fhead + rng.gen_range(0..8),
        _ => len.saturating_sub(rng.gen_range(1..4)),
    };
    at.min(len)
}

/// The prefix of `a` up to one of its cut points, followed by the
/// suffix of `b` from one of its cut points.
fn splice(
    rng: &mut SmallRng,
    a: &[u8],
    a_starts: &[usize],
    b: &[u8],
    b_starts: &[usize],
) -> Vec<u8> {
    let mut cut = |bytes: &[u8], starts: &[usize]| {
        if rng.gen_bool(0.7) && !starts.is_empty() {
            starts[rng.gen_range(0..starts.len())]
        } else {
            rng.gen_range(0..bytes.len() + 1)
        }
    };
    let (i, j) = (cut(a, a_starts), cut(b, b_starts));
    [&a[..i], &b[j..]].concat()
}

// ---------------------------------------------------------------------
// Record files: an independent walk of the framing
// ---------------------------------------------------------------------

/// Record-file framing as documented: `magic | version 1`, then
/// `len u32 | checksum u64 | payload` records. Returns the start offset
/// of every complete record and whether the walk stopped early, or
/// `None` for a foreign header.
fn walk_records(bytes: &[u8], magic: &[u8; 4], max_record: usize) -> Option<(Vec<usize>, bool)> {
    if bytes.len() < 8 || bytes[..4] != magic[..] || bytes[4..8] != 1u32.to_le_bytes() {
        return None;
    }
    let mut starts = Vec::new();
    let mut pos = 8;
    while pos < bytes.len() {
        if bytes.len() - pos < 12 {
            return Some((starts, true));
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if len > max_record || bytes.len() - pos - 12 < len {
            return Some((starts, true));
        }
        starts.push(pos);
        pos += 12 + len;
    }
    Some((starts, false))
}

/// Mutate a record file. Returns the bytes and whether the checksum
/// still protects every payload (`false` for a forged record).
fn mutate_file(rng: &mut SmallRng, a: &[u8], b: &[u8], magic: &[u8; 4]) -> (Vec<u8>, bool) {
    let (a_starts, _) = walk_records(a, magic, usize::MAX).expect("valid stream");
    let (b_starts, _) = walk_records(b, magic, usize::MAX).expect("valid stream");
    let mut bytes = a.to_vec();
    match rng.gen_range(0..6) {
        0 => flip_bits(rng, &mut bytes),
        1 => bytes.truncate(cut_point(rng, a.len(), 8, &a_starts, 12)),
        2 if !a_starts.is_empty() => {
            // An inflated record length.
            let at = a_starts[rng.gen_range(0..a_starts.len())];
            let v = inflated(rng, a.len() - at - 12);
            bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
        3 => return (splice(rng, a, &a_starts, b, &b_starts), true),
        4 | 5 if !a_starts.is_empty() => {
            // A forged record: mutate one payload (an inflated count or
            // flipped bits), then fix its checksum.
            let at = a_starts[rng.gen_range(0..a_starts.len())];
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
            let payload = &mut bytes[at + 12..at + 12 + len];
            if rng.gen_bool(0.5) {
                inflate_at_random(rng, payload, 0);
            } else {
                flip_bits(rng, payload);
            }
            let sum = checksum(payload);
            bytes[at + 4..at + 12].copy_from_slice(&sum.to_le_bytes());
            return (bytes, false);
        }
        _ => flip_bits(rng, &mut bytes),
    }
    (bytes, true)
}

fn case_dir(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("skinner-codec-fuzz-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Check a load report against the framing walk of `bytes`.
fn check_report(
    bytes: &[u8],
    magic: &[u8; 4],
    max_record: usize,
    (loaded, corrupt, stale, truncated, format_mismatch): (usize, usize, usize, bool, bool),
) {
    match walk_records(bytes, magic, max_record) {
        None => {
            assert!(format_mismatch, "foreign header not reported");
            assert_eq!((loaded, corrupt, stale, truncated), (0, 0, 0, false));
        }
        Some((starts, stopped_early)) => {
            assert!(!format_mismatch);
            assert!(
                loaded + corrupt + stale <= starts.len(),
                "{loaded} + {corrupt} + {stale} > {} records framed",
                starts.len()
            );
            assert_eq!(
                truncated, stopped_early,
                "truncated iff the scan stopped early"
            );
        }
    }
}

// ---------------------------------------------------------------------
// SKLC: the learning-cache loader
// ---------------------------------------------------------------------

type Entry = (TemplateKey, TableDeps, LearnedState);

fn random_entry(rng: &mut SmallRng, tag: usize) -> Entry {
    let n = rng.gen_range(1..6);
    let nodes: Vec<SnapshotNode<usize>> = (0..n)
        .map(|_| {
            let arms = rng.gen_range(0..4);
            SnapshotNode {
                visits: rng.gen_range(0..1000),
                reward_sum: rng.gen_range(0..4000) as f64 / 8.0,
                actions: (0..arms).map(|_| rng.gen_range(0..6)).collect(),
                children: (0..arms)
                    .map(|_| {
                        if rng.gen_bool(0.5) {
                            usize::MAX
                        } else {
                            rng.gen_range(0..n)
                        }
                    })
                    .collect(),
            }
        })
        .collect();
    let snapshot = TreeSnapshot::from_parts(nodes, rng.gen_range(0..500)).unwrap();
    let order = |rng: &mut SmallRng| (0..rng.gen_range(0..5)).map(|i| (i * 7 + 3) % 5).collect();
    let deps = (0..rng.gen_range(0..3))
        .map(|i| (format!("t{i}"), rng.gen_range(0..9)))
        .collect();
    (
        TemplateKey::from_canonical(format!("[t{tag}]|t{tag}.x=?")),
        deps,
        LearnedState {
            snapshot,
            best_order: order(rng),
            planned_orders: (0..rng.gen_range(0..3)).map(|_| order(rng)).collect(),
        },
    )
}

fn same_entry(a: &Entry, b: &Entry) -> bool {
    a.0 == b.0
        && a.1 == b.1
        && a.2.best_order == b.2.best_order
        && a.2.planned_orders == b.2.planned_orders
        && a.2.snapshot.to_parts() == b.2.snapshot.to_parts()
}

fn sklc_case(seed: u64, dir: &Path) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let saved: Vec<Entry> = (0..rng.gen_range(1..9))
        .map(|i| random_entry(&mut rng, i))
        .collect();
    let split = rng.gen_range(0..saved.len() + 1);
    let (path_a, path_b, path) = (dir.join("a"), dir.join("b"), dir.join("m"));
    save_entries(&path_a, &saved[..split]).unwrap();
    save_entries(&path_b, &saved[split..]).unwrap();
    let (a, b) = (
        std::fs::read(&path_a).unwrap(),
        std::fs::read(&path_b).unwrap(),
    );
    let (bytes, protected) = mutate_file(&mut rng, &a, &b, b"SKLC");
    std::fs::write(&path, &bytes).unwrap();

    let (loaded, peak) = peak_heap(|| load_entries(&path).expect("no I/O error"));
    let (records, r) = loaded;
    assert_heap(peak, bytes.len(), "SKLC load");
    check_report(
        &bytes,
        b"SKLC",
        64 << 20,
        (r.loaded, r.corrupt, r.stale, r.truncated, r.format_mismatch),
    );
    assert_eq!(records.len(), r.loaded);
    if protected {
        for rec in records {
            let got = (rec.key, rec.deps, rec.learning);
            assert!(
                saved.iter().any(|s| same_entry(s, &got)),
                "loaded a record never saved"
            );
        }
    }
}

// ---------------------------------------------------------------------
// SKKS: the knowledge loader
// ---------------------------------------------------------------------

fn random_store(rng: &mut SmallRng, tag: &str) -> KnowledgeStore {
    let mut store = KnowledgeStore::default();
    for i in 0..rng.gen_range(0..5) {
        store.seed_table_entry(
            format!("tbl:{tag}{i}|"),
            TableStat {
                name: format!("t{}", rng.gen_range(0..4)),
                version: rng.gen_range(0..3),
                sel_sum: rng.gen_range(0..64) as f64 / 4.0,
                count: rng.gen_range(1..50),
            },
        );
    }
    for i in 0..rng.gen_range(0..4) {
        store.seed_edge_entry(
            format!("edge:{tag}{i}|single"),
            EdgeStat {
                deps: (0..rng.gen_range(1..4))
                    .map(|_| (format!("t{}", rng.gen_range(0..4)), rng.gen_range(0..3)))
                    .collect(),
                fwd: (rng.gen_range(0..64) as f64 / 8.0, rng.gen_range(0..9)),
                rev: (rng.gen_range(0..64) as f64 / 8.0, rng.gen_range(0..9)),
            },
        );
    }
    if rng.gen_bool(0.5) {
        store.seed_scale_entry(-(rng.gen_range(1..64) as f64) / 4.0, rng.gen_range(1..9));
    }
    store
}

fn skks_case(seed: u64, dir: &Path) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (sa, sb) = (random_store(&mut rng, "a"), random_store(&mut rng, "b"));
    let (path_a, path_b, path) = (dir.join("a"), dir.join("b"), dir.join("m"));
    kpersist::save(&sa, &path_a).unwrap();
    kpersist::save(&sb, &path_b).unwrap();
    let (a, b) = (
        std::fs::read(&path_a).unwrap(),
        std::fs::read(&path_b).unwrap(),
    );
    let (bytes, protected) = mutate_file(&mut rng, &a, &b, b"SKKS");
    std::fs::write(&path, &bytes).unwrap();

    // Table `t3` at version 0 was re-registered since the save.
    let is_current = |name: &str, version: u64| (name, version) != ("t3", 0);
    let mut back = KnowledgeStore::default();
    let (r, peak) = peak_heap(|| kpersist::load_with(&mut back, &path, is_current).unwrap());
    assert_heap(peak, bytes.len(), "SKKS load");
    check_report(
        &bytes,
        b"SKKS",
        1 << 20,
        (r.loaded, r.corrupt, r.stale, r.truncated, r.format_mismatch),
    );
    let (tables, edges) = back.export();
    assert!(tables.len() + edges.len() <= r.loaded);
    if protected {
        let (ta, ea) = sa.export();
        let (tb, eb) = sb.export();
        for t in &tables {
            assert!(ta.contains(t) || tb.contains(t), "table entry never saved");
            assert!(is_current(&t.1.name, t.1.version), "stale table entry kept");
        }
        for e in &edges {
            assert!(ea.contains(e) || eb.contains(e), "edge entry never saved");
            assert!(
                e.1.deps.iter().all(|(n, v)| is_current(n, *v)),
                "stale edge kept"
            );
        }
        let runs = back.scale_raw().1;
        let (ra, rb) = (sa.scale_raw().1, sb.scale_raw().1);
        assert!(
            [0, ra, rb, ra + rb].contains(&runs),
            "scale runs {runs} never saved"
        );
    }
}

// ---------------------------------------------------------------------
// SKNF: read_frame and Message::decode
// ---------------------------------------------------------------------

fn random_string(rng: &mut SmallRng) -> String {
    (0..rng.gen_range(0..12))
        .map(|_| ['a', 'z', 'é', '0', ' ', '✓'][rng.gen_range(0..6)])
        .collect()
}

fn random_value(rng: &mut SmallRng) -> Value {
    match rng.gen_range(0..6) {
        0 => Value::Null,
        1 => Value::Int(rng.next_u64() as i64),
        2 => Value::Float(rng.gen_range(0..1000) as f64 / 8.0),
        3 => Value::str(random_string(rng)),
        4 => Value::Date(rng.gen_range(-1000..30000)),
        _ => Value::Interval(rng.gen_range(-90..90)),
    }
}

fn random_message(rng: &mut SmallRng) -> Message {
    let id = rng.gen_range(0..1 << 20);
    match rng.gen_range(1..12) {
        1 => Message::Hello {
            version: rng.gen_range(0..3),
            client: random_string(rng),
        },
        2 => Message::Welcome {
            version: rng.gen_range(0..3),
            server: random_string(rng),
            core_budget: rng.gen_range(1..64),
        },
        3 => Message::Busy {
            scope: if rng.gen_bool(0.5) {
                BusyScope::Connections
            } else {
                BusyScope::Queries
            },
            message: random_string(rng),
        },
        4 => Message::Query {
            id,
            sql: random_string(rng),
            timeout_ms: rng.gen_range(0..5000),
        },
        5 => Message::Cancel { id },
        6 => {
            let flags = rng.gen_range(0..4u8);
            let width = rng.gen_range(0..4);
            Message::RowBatch {
                id,
                flags,
                columns: if flags & BATCH_FIRST != 0 {
                    (0..width).map(|_| random_string(rng)).collect()
                } else {
                    Vec::new()
                },
                rows: (0..rng.gen_range(0..6))
                    .map(|_| (0..width).map(|_| random_value(rng)).collect())
                    .collect(),
                summary: (flags & BATCH_LAST != 0).then(|| BatchSummary {
                    rows: rng.gen_range(0..100),
                    slices: rng.gen_range(0..100),
                    cache_hit: rng.gen_bool(0.5),
                    warm_start: rng.gen_bool(0.5),
                    total_nanos: rng.next_u64(),
                }),
            }
        }
        7 => Message::Error {
            id,
            code: ErrorCode::Internal,
            message: random_string(rng),
        },
        8 => Message::StatsRequest,
        9 => Message::Stats(WireStats {
            counters: (0..rng.gen_range(0..4))
                .map(|_| (random_string(rng), rng.next_u64()))
                .collect(),
        }),
        10 => Message::Goodbye {
            reason: random_string(rng),
        },
        _ => Message::Shutdown,
    }
}

/// A stream of 1–5 frames, their payloads, and each frame's offset.
fn frame_stream(rng: &mut SmallRng) -> (Vec<u8>, Vec<Vec<u8>>, Vec<usize>) {
    let (mut bytes, mut payloads, mut starts) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..rng.gen_range(1..6) {
        let msg = random_message(rng);
        starts.push(bytes.len());
        write_frame(&mut bytes, msg.frame_type(), &msg.encode()).unwrap();
        payloads.push(msg.encode());
    }
    (bytes, payloads, starts)
}

fn sknf_case(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let (a, mut payloads, a_starts) = frame_stream(&mut rng);
    let (b, b_payloads, b_starts) = frame_stream(&mut rng);
    payloads.extend(b_payloads);
    let mut bytes = a.clone();
    match rng.gen_range(0..4) {
        0 => flip_bits(&mut rng, &mut bytes),
        1 => bytes.truncate(cut_point(&mut rng, a.len(), 0, &a_starts, HEADER_BYTES)),
        2 => {
            // An inflated payload length in one frame header.
            let at = a_starts[rng.gen_range(0..a_starts.len())] + 5;
            let v = inflated(&mut rng, a.len() - at);
            bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
        }
        _ => bytes = splice(&mut rng, &a, &a_starts, &b, &b_starts),
    }

    let mut r = &bytes[..];
    loop {
        let (frame, peak) = peak_heap(|| {
            read_frame(&mut r).map(|f| f.map(|(ty, p)| (ty, Message::decode(ty, &p), p)))
        });
        assert_heap(peak, bytes.len(), "read_frame + decode");
        match frame {
            Ok(Some((_, _, payload))) => {
                // The payload is checksummed: it must be one that was sent.
                assert!(payloads.contains(&payload), "read a payload never written");
            }
            Ok(None) | Err(_) => break,
        }
    }
}

fn message_case(seed: u64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let msg = random_message(&mut rng);
    let valid = msg.encode();
    let mutants: Vec<Vec<u8>> = match rng.gen_range(0..4) {
        0 => {
            let mut p = valid.clone();
            flip_bits(&mut rng, &mut p);
            vec![p]
        }
        1 => vec![valid[..rng.gen_range(0..valid.len() + 1)].to_vec()],
        // Every 4-byte window in turn, so each count field is hit.
        2 => (0..valid.len().saturating_sub(3))
            .map(|at| {
                let mut p = valid.clone();
                let v = inflated(&mut rng, valid.len() - at);
                p[at..at + 4].copy_from_slice(&v.to_le_bytes());
                p
            })
            .collect(),
        _ => {
            let other = random_message(&mut rng).encode();
            let (i, j) = (
                rng.gen_range(0..valid.len() + 1),
                rng.gen_range(0..other.len() + 1),
            );
            vec![[&valid[..i], &other[j..]].concat()]
        }
    };
    for payload in mutants {
        // Any frame type may carry any payload on a hostile wire.
        let ty = if rng.gen_bool(0.25) {
            FrameType::from_u8(rng.gen_range(1..12)).unwrap()
        } else {
            msg.frame_type()
        };
        let (decoded, peak) = peak_heap(|| Message::decode(ty, &payload));
        assert_heap(peak, payload.len(), "Message::decode");
        if payload == valid && ty == msg.frame_type() {
            assert_eq!(decoded.as_ref(), Some(&msg));
        }
    }
}

proptest! {
    #[test]
    fn sklc_loader_survives_mutations(seed in any::<u64>()) {
        let dir = case_dir(&format!("sklc-{seed:x}"));
        sklc_case(seed, &dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn skks_loader_survives_mutations(seed in any::<u64>()) {
        let dir = case_dir(&format!("skks-{seed:x}"));
        skks_case(seed, &dir);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn read_frame_survives_mutations(seed in any::<u64>()) {
        sknf_case(seed);
    }

    #[test]
    fn message_decode_survives_mutations(seed in any::<u64>()) {
        message_case(seed);
    }
}

/// Hostile counts in every count field of the wire decoder fail on the
/// count bound, within the heap bound — including a 1 MiB `RowBatch`
/// whose cell count claims every byte, the worst honest case.
#[test]
fn hostile_counts_stay_within_heap_bound() {
    let row_batch = |flags: u8, columns: u32, rows: u32, cells: u32, body: usize| {
        let mut p = Vec::new();
        put_u64(&mut p, 1);
        put_u8(&mut p, flags);
        if flags & BATCH_FIRST != 0 {
            put_u32(&mut p, columns);
        }
        put_u32(&mut p, rows);
        put_u32(&mut p, cells);
        p.resize(p.len() + body, 0);
        p
    };
    let mut stats = Vec::new();
    put_u32(&mut stats, u32::MAX);
    let cases = [
        (
            FrameType::RowBatch,
            row_batch(BATCH_FIRST, u32::MAX, 1, 0, 64),
        ),
        (FrameType::RowBatch, row_batch(0, 0, u32::MAX, 0, 64)),
        (FrameType::RowBatch, row_batch(0, 0, 1, u32::MAX, 64)),
        // ~1M cells claimed and backed by NULL tags but for a bad last
        // one: the count passes its bound, the decoder fills ~24 B per
        // wire byte, then fails.
        (FrameType::RowBatch, {
            let mut p = row_batch(0, 0, 1, 1 << 20, 1 << 20);
            *p.last_mut().unwrap() = 0xFF;
            p
        }),
        (FrameType::Stats, stats),
    ];
    for (ty, payload) in cases {
        let (decoded, peak) = peak_heap(|| Message::decode(ty, &payload));
        assert!(decoded.is_none(), "{ty:?} with a hostile count decoded");
        assert_heap(peak, payload.len(), "hostile count");
    }

    // A frame header claiming the largest legal payload, then silence:
    // the reader must not reserve the claimed size up front.
    let mut frame = Vec::new();
    write_frame(&mut frame, FrameType::Query, b"SELECT 1").unwrap();
    frame[5..9].copy_from_slice(&(MAX_FRAME_BYTES as u32).to_le_bytes());
    let (res, peak) = peak_heap(|| read_frame(&mut &frame[..]));
    assert!(res.is_err());
    assert_heap(peak, frame.len(), "read_frame with a hostile length");
}
