//! Byte compatibility of the three checksummed byte formats.
//!
//! `tests/golden/` holds bytes written by the encoders before they were
//! folded onto one shared codec (`skinner_engine::codec`):
//!
//! * `learning_cache.sklc` — a two-record learning-cache file (`SKLC`);
//! * `knowledge.skks` — a knowledge file with a reward-scale, two table
//!   and one edge record (`SKKS`);
//! * `frames.sknf` — one wire frame (`SKNF`) of each of the 11 frame
//!   types, in tag order.
//!
//! Each test decodes its fixture to the values below and re-encodes
//! those values byte for byte. The fixtures are never regenerated: a
//! failure here means the on-disk or on-wire format changed.

use skinner_net::frame::{read_frame, write_frame, FrameType, PROTOCOL_VERSION};
use skinner_net::proto::{
    BatchSummary, BusyScope, ErrorCode, Message, WireStats, BATCH_FIRST, BATCH_LAST,
};
use skinnerdb::engine::LearnedState;
use skinnerdb::knowledge::{persist as kpersist, EdgeStat, KnowledgeStore, TableStat};
use skinnerdb::query::TemplateKey;
use skinnerdb::service::cache::TableDeps;
use skinnerdb::service::persist::{load_entries, save_entries, PersistRecord};
use skinnerdb::storage::Value;
use skinnerdb::uct::{SnapshotNode, TreeSnapshot};
use std::path::{Path, PathBuf};

const UNEXPANDED: usize = usize::MAX;

fn golden(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn case_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("skinner-golden-{name}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ---------------------------------------------------------------------
// Learning cache (SKLC)
// ---------------------------------------------------------------------

fn snapshot(rounds: u64, root_visits: u64) -> TreeSnapshot<usize> {
    let node = |visits, reward_sum, actions: Vec<usize>, children: Vec<usize>| SnapshotNode {
        visits,
        reward_sum,
        actions,
        children,
    };
    let nodes = vec![
        node(root_visits, 12.5, vec![0, 1, 2], vec![2, 1, UNEXPANDED]),
        node(20, 11.25, vec![0, 2], vec![UNEXPANDED, 3]),
        node(9, 1.75, vec![1, 2], vec![UNEXPANDED, UNEXPANDED]),
        node(12, 8.0, vec![0], vec![UNEXPANDED]),
    ];
    TreeSnapshot::from_parts(nodes, rounds).expect("well-formed snapshot")
}

fn learning_entries() -> Vec<(TemplateKey, TableDeps, LearnedState)> {
    let entry = |name: &str, deps: TableDeps, rounds, root_visits| {
        (
            TemplateKey::from_canonical(format!("[{name}]|{name}.x=?")),
            deps,
            LearnedState {
                snapshot: snapshot(rounds, root_visits),
                best_order: vec![1, 2, 0],
                planned_orders: vec![vec![0, 1, 2], vec![1, 0, 2]],
            },
        )
    };
    vec![
        entry("a", vec![("a".into(), 3)], 30, 30),
        entry("b", vec![("b".into(), 3), ("c".into(), 7)], 60, 41),
    ]
}

fn assert_record_eq(got: &PersistRecord, want: &(TemplateKey, TableDeps, LearnedState)) {
    assert_eq!(got.key, want.0);
    assert_eq!(got.deps, want.1);
    assert_eq!(got.learning.best_order, want.2.best_order);
    assert_eq!(got.learning.planned_orders, want.2.planned_orders);
    assert_eq!(got.learning.snapshot.to_parts(), want.2.snapshot.to_parts());
}

#[test]
fn learning_cache_golden_decodes_and_reencodes() {
    let bytes = std::fs::read(golden("learning_cache.sklc")).expect("fixture");
    let want = learning_entries();

    let (records, report) = load_entries(&golden("learning_cache.sklc")).expect("load");
    assert_eq!((report.loaded, report.corrupt, report.stale), (2, 0, 0));
    assert!(!report.truncated && !report.format_mismatch);
    assert_eq!(records.len(), want.len());
    for (got, want) in records.iter().zip(&want) {
        assert_record_eq(got, want);
    }

    let dir = case_dir("sklc");
    let path = dir.join("cache.bin");
    assert_eq!(save_entries(&path, &want).unwrap(), 2);
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "SKLC bytes changed");
    let decoded: Vec<_> = records
        .into_iter()
        .map(|r| (r.key, r.deps, r.learning))
        .collect();
    save_entries(&path, &decoded).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes,
        "SKLC re-encode differs"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Knowledge store (SKKS)
// ---------------------------------------------------------------------

const SCALE: (f64, u64) = (-2.5, 5);

fn knowledge_store() -> KnowledgeStore {
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
    store.seed_scale_entry(SCALE.0, SCALE.1);
    store
}

#[test]
fn knowledge_golden_decodes_and_reencodes() {
    let bytes = std::fs::read(golden("knowledge.skks")).expect("fixture");
    let want = knowledge_store();

    let mut back = KnowledgeStore::default();
    let report = kpersist::load(&mut back, &golden("knowledge.skks")).expect("load");
    assert_eq!((report.loaded, report.corrupt, report.stale), (3, 0, 0));
    assert!(!report.truncated && !report.format_mismatch);
    assert_eq!(back.export(), want.export());
    assert_eq!(back.scale_raw(), SCALE);

    let dir = case_dir("skks");
    let path = dir.join("knowledge.bin");
    assert_eq!(kpersist::save(&want, &path).unwrap(), 3);
    assert_eq!(std::fs::read(&path).unwrap(), bytes, "SKKS bytes changed");
    kpersist::save(&back, &path).unwrap();
    assert_eq!(
        std::fs::read(&path).unwrap(),
        bytes,
        "SKKS re-encode differs"
    );
    std::fs::remove_dir_all(&dir).ok();
}

// ---------------------------------------------------------------------
// Wire frames (SKNF)
// ---------------------------------------------------------------------

fn messages() -> Vec<Message> {
    vec![
        Message::Hello {
            version: PROTOCOL_VERSION,
            client: "golden-client/0.1".into(),
        },
        Message::Welcome {
            version: PROTOCOL_VERSION,
            server: "golden-server/0.1".into(),
            core_budget: 4,
        },
        Message::Busy {
            scope: BusyScope::Queries,
            message: "in-flight query cap reached".into(),
        },
        Message::Query {
            id: 7,
            sql: "SELECT COUNT(*) AS n FROM title t".into(),
            timeout_ms: 2500,
        },
        Message::Cancel { id: 7 },
        Message::RowBatch {
            id: 7,
            flags: BATCH_FIRST | BATCH_LAST,
            columns: vec!["n".into(), "s".into()],
            rows: vec![
                vec![Value::Int(-3), Value::str("héllo")],
                vec![Value::Null, Value::Float(2.5)],
                vec![Value::Date(17959), Value::Interval(-4)],
            ],
            summary: Some(BatchSummary {
                rows: 3,
                slices: 12,
                cache_hit: true,
                warm_start: false,
                total_nanos: 1_234_567,
            }),
        },
        Message::Error {
            id: 7,
            code: ErrorCode::Parse,
            message: "unknown table".into(),
        },
        Message::StatsRequest,
        Message::Stats(WireStats {
            counters: vec![("queries".into(), 42), ("connections_open".into(), 3)],
        }),
        Message::Goodbye {
            reason: "client done".into(),
        },
        Message::Shutdown,
    ]
}

fn encode_frames(msgs: &[Message]) -> Vec<u8> {
    let mut out = Vec::new();
    for m in msgs {
        write_frame(&mut out, m.frame_type(), &m.encode()).unwrap();
    }
    out
}

#[test]
fn wire_frames_golden_decode_and_reencode() {
    let bytes = std::fs::read(golden("frames.sknf")).expect("fixture");
    let want = messages();

    let mut r = &bytes[..];
    let mut got = Vec::new();
    while let Some((ty, payload)) = read_frame(&mut r).expect("frame") {
        got.push(Message::decode(ty, &payload).expect("payload"));
        assert_eq!(got.last().unwrap().frame_type(), ty);
    }
    assert_eq!(got, want);
    let tags: Vec<u8> = got.iter().map(|m| m.frame_type() as u8).collect();
    assert_eq!(tags, (1..=11).collect::<Vec<u8>>(), "one frame per type");
    assert!((1..=11).all(|t| FrameType::from_u8(t).is_some()));

    assert_eq!(encode_frames(&want), bytes, "SKNF bytes changed");
    assert_eq!(encode_frames(&got), bytes, "SKNF re-encode differs");
}
