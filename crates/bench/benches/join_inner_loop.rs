//! Criterion bench: compiled vs. generic-eval multi-way join kernels on
//! a 4-table FK chain.
//!
//! The compiled kernel executes an order bound by `plan_order` (typed
//! column slices per predicate, posting-list cursors per jump, arena
//! result set); the generic kernel re-resolves tables/columns via
//! `CompiledPred::eval` and probes the `(table, column)` index map on
//! every advance — the pre-specialization implementation kept as the
//! reference. The acceptance bar for the specialization is ≥ 1.5×.
//!
//! Run with `cargo bench --bench join_inner_loop`. The measured means
//! and the speedup ratio are merged into `BENCH_join.json` (repo root)
//! under the `join_inner_loop` key; `join_parallel` records the
//! partitioned-slice numbers next to them.

use criterion::{BenchmarkId, Criterion};
use skinner_engine::multiway::{ResultSet, ResultSink};
use skinner_engine::{MultiwayJoin, PreparedQuery};
use skinner_query::{Query, QueryBuilder};
use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};
use skinner_storage::{FxHashSet, RowId};

/// The seed implementation's result set — one `Box<[RowId]>` heap
/// allocation per insert attempt, hash-set dedup — kept here as the
/// baseline sink so the bench measures the full pre-refactor
/// configuration (generic kernel + boxed result set) against the
/// specialized kernel + arena result set.
#[derive(Debug, Default)]
struct BoxedResultSet {
    set: FxHashSet<Box<[RowId]>>,
}

impl ResultSink for BoxedResultSet {
    #[inline]
    fn insert(&mut self, tuple: &[RowId]) -> bool {
        self.set.insert(tuple.into())
    }
}

const TABLES: usize = 4;
const ROWS: usize = 4096;
const KEYS: i64 = 256;
const STEPS: u64 = 100_000;

/// 4-table FK chain: t0.k = t1.k, t1.k = t2.k, t2.k = t3.k.
fn fk_chain() -> (Catalog, Query) {
    let mut cat = Catalog::new();
    for t in 0..TABLES {
        cat.register(
            Table::new(
                format!("t{t}"),
                Schema::new([
                    ColumnDef::new("k", ValueType::Int),
                    ColumnDef::new("v", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(
                        (0..ROWS as i64)
                            .map(|i| i.wrapping_mul(2654435761).rem_euclid(KEYS))
                            .collect(),
                    ),
                    Column::from_ints((0..ROWS as i64).collect()),
                ],
            )
            .unwrap(),
        );
    }
    let q = {
        let mut qb = QueryBuilder::new(&cat);
        for t in 0..TABLES {
            qb.table(&format!("t{t}")).unwrap();
        }
        for t in 0..TABLES - 1 {
            let j = qb
                .col(&format!("t{t}.k"))
                .unwrap()
                .eq(qb.col(&format!("t{}.k", t + 1)).unwrap());
            qb.filter(j);
        }
        qb.select_col("t0.v").unwrap();
        qb.build().unwrap()
    };
    (cat, q)
}

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("join_inner_loop");
    for &indexes in &[true, false] {
        let tag = if indexes { "indexed" } else { "scan" };
        let (_cat, q) = fk_chain();
        let pq = PreparedQuery::new(&q, indexes, 1);
        let order: Vec<usize> = (0..TABLES).collect();
        let plan = pq.plan_order(&order);
        let spec = pq.plan_spec(&order);
        let offsets = vec![0u32; TABLES];

        group.bench_with_input(BenchmarkId::new("specialized", tag), &indexes, |b, _| {
            let mut join = MultiwayJoin::new(&pq);
            b.iter(|| {
                let mut state = offsets.clone();
                let mut rs = ResultSet::new();
                let (_r, steps) =
                    join.continue_join(&order, &plan, &offsets, &mut state, STEPS, &mut rs);
                criterion::black_box((steps, rs.len()))
            })
        });
        group.bench_with_input(BenchmarkId::new("generic", tag), &indexes, |b, _| {
            let mut join = MultiwayJoin::new(&pq);
            b.iter(|| {
                let mut state = offsets.clone();
                let mut rs = BoxedResultSet::default();
                let (_r, steps) =
                    join.continue_join_generic(&order, &spec, &offsets, &mut state, STEPS, &mut rs);
                criterion::black_box((steps, rs.set.len()))
            })
        });
    }
    group.finish();
}

fn main() {
    let mut criterion = Criterion::default();
    bench_kernels(&mut criterion);

    // Record the numbers (mean ns per kernel run of `STEPS` steps, plus
    // the specialized-over-generic speedup per configuration).
    let get = |name: &str| -> f64 {
        criterion
            .results
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, ns)| *ns)
            .expect("bench result")
    };
    let mut section = String::from("{\n");
    section.push_str(&format!(
        "    \"workload\": \"{TABLES}-table FK chain, {ROWS} rows/table, {KEYS} keys, {STEPS} steps\",\n"
    ));
    section.push_str("    \"mean_ns\": {\n");
    let names = [
        "join_inner_loop/specialized/indexed",
        "join_inner_loop/generic/indexed",
        "join_inner_loop/specialized/scan",
        "join_inner_loop/generic/scan",
    ];
    for (i, n) in names.iter().enumerate() {
        section.push_str(&format!(
            "      \"{n}\": {:.0}{}\n",
            get(n),
            if i + 1 < names.len() { "," } else { "" }
        ));
    }
    section.push_str("    },\n");
    let sp_indexed =
        get("join_inner_loop/generic/indexed") / get("join_inner_loop/specialized/indexed");
    let sp_scan = get("join_inner_loop/generic/scan") / get("join_inner_loop/specialized/scan");
    section.push_str(&format!(
        "    \"speedup\": {{ \"indexed\": {sp_indexed:.2}, \"scan\": {sp_scan:.2} }}\n  }}"
    ));
    println!("speedup: indexed {sp_indexed:.2}x, scan {sp_scan:.2}x");
    let path = std::path::Path::new(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../BENCH_join.json"
    ));
    skinner_bench::upsert_bench_json(path, "join_inner_loop", &section)
        .expect("write BENCH_join.json");
}
