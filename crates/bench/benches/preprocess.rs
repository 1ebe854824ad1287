//! Criterion bench: Skinner-C pre-processing — unary filtering plus hash
//! indexing of a 4-table query, sequential and on the worker pool — and
//! the hash-index layouts on their own:
//!
//! - `index_build` / `index_probe`: one index over 200k rows with 50k
//!   distinct keys, built and probed with dense foreign keys (`0..50k`,
//!   the direct-addressed layout) and with the same key multiset
//!   scattered over the whole `i64` range (the hash-map layout);
//! - `index_build/str` and `index_build/float`: the same rows as 5k
//!   distinct strings sharing a prefix, and as 50k half-step floats —
//!   join keys that are hashes or bit patterns, whose sparse span map
//!   must not crowd a few buckets.
//!
//! Run with `cargo bench --bench preprocess`. Means, the dense-over-sparse
//! ratios and `host_cores` are merged into `BENCH_join.json` under the
//! `preprocess` key.

use criterion::{BenchmarkId, Criterion};
use skinner_engine::PreparedQuery;
use skinner_query::{Expr, Query, QueryBuilder};
use skinner_storage::{Catalog, Column, ColumnDef, HashIndex, Schema, Table, ValueType};

/// Rows per table of the 4-table query.
const QUERY_ROWS: usize = 50_000;
/// Rows and distinct keys of the single-index cases.
const INDEX_ROWS: i64 = 200_000;
const INDEX_KEYS: i64 = 50_000;
/// Probes per `index_probe` iteration.
const PROBES: usize = 100_000;
/// Thread counts of the whole-query case: sequential, and the pool path.
const THREADS: [usize; 2] = [1, 2];

fn setup(rows: usize) -> (Catalog, Query) {
    let mut cat = Catalog::new();
    for t in 0..4 {
        cat.register(
            Table::new(
                format!("t{t}"),
                Schema::new([
                    ColumnDef::new("k", ValueType::Int),
                    ColumnDef::new("v", ValueType::Int),
                ]),
                vec![
                    Column::from_ints((0..rows as i64).map(|i| i % 1000).collect()),
                    Column::from_ints((0..rows as i64).collect()),
                ],
            )
            .unwrap(),
        );
    }
    let mut qb = QueryBuilder::new(&cat);
    for t in 0..4 {
        qb.table(&format!("t{t}")).unwrap();
    }
    for t in 0..3 {
        let j = qb
            .col(&format!("t{t}.k"))
            .unwrap()
            .eq(qb.col(&format!("t{}.k", t + 1)).unwrap());
        qb.filter(j);
        let f = qb
            .col(&format!("t{t}.v"))
            .unwrap()
            .gt(Expr::lit((rows / 4) as i64));
        qb.filter(f);
    }
    qb.select_col("t0.v").unwrap();
    let q = qb.build().unwrap();
    (cat, q)
}

/// Foreign keys into `0..INDEX_KEYS`, scrambled so equal keys are not
/// adjacent (as in a generated fact table).
fn fk_keys() -> Vec<i64> {
    (0..INDEX_ROWS).map(|i| (i * 7919) % INDEX_KEYS).collect()
}

/// A bijective scramble of `k` over the whole `i64` range: the sparse
/// keys keep the dense keys' multiset shape without their arithmetic
/// progression.
fn scatter(k: i64) -> i64 {
    let z = (k as u64 ^ (k as u64 >> 7)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    (z ^ (z >> 29)) as i64
}

fn bench_preprocess(c: &mut Criterion) {
    let mut group = c.benchmark_group("preprocess");
    group.sample_size(20);
    let (_cat, q) = setup(QUERY_ROWS);
    // Bring up the shared pool before timing: its one-time thread spawns
    // are not pre-processing cost.
    PreparedQuery::new(&q, true, 2);
    for threads in THREADS {
        group.bench_with_input(
            BenchmarkId::new("filter_and_hash", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let pq = PreparedQuery::new(&q, true, threads);
                    criterion::black_box(pq.cards.clone())
                })
            },
        );
    }

    let dense = Column::from_ints(fk_keys());
    let sparse = Column::from_ints(fk_keys().into_iter().map(scatter).collect());
    let strs = Column::from_strs(fk_keys().iter().map(|k| format!("name-{}", k % 5000)));
    let floats = Column::from_floats(fk_keys().into_iter().map(|k| k as f64 * 0.5).collect());
    let builds = [
        ("dense_fk", &dense),
        ("sparse", &sparse),
        ("str", &strs),
        ("float", &floats),
    ];
    for (tag, col) in builds {
        group.bench_with_input(BenchmarkId::new("index_build", tag), &tag, |b, _| {
            b.iter(|| criterion::black_box(HashIndex::build(col, None).len()))
        });
    }
    // Probe keys in a scrambled order; one in nine misses.
    let probe_ids: Vec<i64> = (0..PROBES as i64)
        .map(|i| (i * 104_729) % (INDEX_KEYS + INDEX_KEYS / 8))
        .collect();
    let scattered: Vec<i64> = probe_ids.iter().map(|&k| scatter(k)).collect();
    for (tag, col, probes) in [
        ("dense_fk", &dense, &probe_ids),
        ("sparse", &sparse, &scattered),
    ] {
        let index = HashIndex::build(col, None);
        group.bench_with_input(BenchmarkId::new("index_probe", tag), &tag, |b, _| {
            b.iter(|| {
                let hits: usize = probes.iter().map(|&k| index.probe(k).len()).sum();
                criterion::black_box(hits)
            })
        });
    }
    group.finish();
}

fn main() {
    let mut criterion = Criterion::default();
    bench_preprocess(&mut criterion);

    let get = |name: &str| -> f64 {
        criterion
            .results
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, ns)| *ns)
            .expect("bench result")
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let ratio = |kind: &str| {
        get(&format!("preprocess/{kind}/sparse")) / get(&format!("preprocess/{kind}/dense_fk"))
    };
    let (build, probe) = (ratio("index_build"), ratio("index_probe"));
    let mut section = String::from("{\n");
    section.push_str(&format!(
        "    \"workload\": \"filter_and_hash: 4-table FK chain, {QUERY_ROWS} rows/table, \
         unary filters on 3 tables, threads 1 (sequential) and 2 (worker pool); \
         index_build/index_probe: {INDEX_ROWS} rows, {INDEX_KEYS} distinct keys, dense \
         FKs vs the same keys scattered over i64, {PROBES} probes; index_build/str and \
         /float: the same rows as 5000 prefixed strings and as half-step floats\",\n"
    ));
    section.push_str(&format!("    \"host_cores\": {cores},\n"));
    section.push_str("    \"mean_ns\": {\n");
    let means = &criterion.results;
    for (i, (name, ns)) in means.iter().enumerate() {
        let sep = if i + 1 < means.len() { "," } else { "" };
        section.push_str(&format!("      \"{name}\": {ns:.0}{sep}\n"));
    }
    section.push_str("    },\n");
    section.push_str(&format!(
        "    \"dense_over_sparse\": {{ \"build\": {build:.2}, \"probe\": {probe:.2} }}\n  }}"
    ));
    println!("dense over sparse: build {build:.2}x, probe {probe:.2}x (host cores: {cores})");
    let path = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_join.json"
    ));
    skinner_bench::upsert_bench_json(path, "preprocess", &section).expect("write BENCH_join.json");
}
