//! NULL-heavy + string-join stress workload.
//!
//! Every other workload in this crate joins on dense non-nullable
//! integer keys — the fast path the join kernel targets (`IntEq` jumps
//! with elided equalities). This workload deliberately exercises the
//! kernel's `KeyEq` posting cursors instead: dictionary-encoded
//! **string** join keys (whose
//! 64-bit join keys are content hashes that may collide and must be
//! re-verified by the predicate) and **nullable** columns (NULL never
//! matches an equality, never enters a hash index, rejects at the
//! compiled jump's NULL check, and must survive three-valued predicate
//! logic end to end).
//!
//! The scenario is a small "log analytics" schema: `users` and `events`
//! join on a nullable string `uid`, `domains` joins `users` on a
//! lower-cardinality string `domain` (hash-collision pressure), and
//! `scores` carries a nullable int key. Queries mix string equi-joins,
//! `IS [NOT] NULL` filters, `LIKE` filters and aggregates.
//!
//! All generators are seeded and deterministic. [`generate_case`]
//! produces small randomized single-query cases for the differential
//! property tests in `tests/property.rs`.

use crate::NamedQuery;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use skinner_query::{AggFunc, Expr, Query, QueryBuilder};
use skinner_storage::{Catalog, Column, ColumnBuilder, ColumnDef, Schema, Table, Value, ValueType};

/// A generated NULL/string stress workload.
pub struct NullsWorkload {
    /// The catalog (string-keyed, NULL-riddled tables).
    pub catalog: Catalog,
    /// The benchmark queries.
    pub queries: Vec<NamedQuery>,
}

/// Base table sizes at `scale = 1.0`.
const USERS: usize = 2_000;
const EVENTS: usize = 6_000;
const DOMAINS: usize = 24;
const SCORES: usize = 1_500;

fn sz(base: usize, scale: f64) -> usize {
    ((base as f64 * scale) as usize).max(6)
}

/// Build a nullable string column: `gen` yields `Some(string)` or `None`.
fn str_col(n: usize, mut gen: impl FnMut(usize) -> Option<String>) -> Column {
    let mut b = ColumnBuilder::new(ValueType::Str);
    for i in 0..n {
        match gen(i) {
            Some(s) => b.push(&Value::Str(s.into())),
            None => b.push(&Value::Null),
        }
    }
    b.finish()
}

/// Build a nullable int column.
fn int_col(n: usize, mut gen: impl FnMut(usize) -> Option<i64>) -> Column {
    let mut b = ColumnBuilder::new(ValueType::Int);
    for i in 0..n {
        match gen(i) {
            Some(v) => b.push(&Value::Int(v)),
            None => b.push(&Value::Null),
        }
    }
    b.finish()
}

/// Generate the workload. `scale` multiplies table sizes; `seed` fixes
/// data and query constants.
pub fn generate(scale: f64, seed: u64) -> NullsWorkload {
    let mut rng = SmallRng::seed_from_u64(seed);
    let n_users = sz(USERS, scale);
    let n_events = sz(EVENTS, scale);
    let n_domains = sz(DOMAINS, scale.max(0.25));
    let n_scores = sz(SCORES, scale);

    let mut catalog = Catalog::new();

    // users(uid TEXT ~5% NULL, domain TEXT, age INT ~10% NULL)
    let uid = |i: usize| format!("user-{i:05}");
    let domain_name = |d: usize| format!("host{d}.example"); // shared prefix: LIKE pressure
    let user_domains: Vec<usize> = (0..n_users).map(|_| rng.gen_range(0..n_domains)).collect();
    let user_uid_null: Vec<bool> = (0..n_users).map(|_| rng.gen_range(0..20) == 0).collect();
    catalog.register(
        Table::new(
            "users",
            Schema::new([
                ColumnDef::new("uid", ValueType::Str),
                ColumnDef::new("domain", ValueType::Str),
                ColumnDef::new("age", ValueType::Int),
            ]),
            vec![
                str_col(n_users, |i| (!user_uid_null[i]).then(|| uid(i))),
                str_col(n_users, |i| Some(domain_name(user_domains[i]))),
                int_col(n_users, {
                    let mut r = SmallRng::seed_from_u64(seed ^ 1);
                    move |_| (r.gen_range(0..10) != 0).then(|| r.gen_range(18..80))
                }),
            ],
        )
        .expect("users"),
    );

    // events(uid TEXT ~15% NULL, kind TEXT, weight INT)
    catalog.register(
        Table::new(
            "events",
            Schema::new([
                ColumnDef::new("uid", ValueType::Str),
                ColumnDef::new("kind", ValueType::Str),
                ColumnDef::new("weight", ValueType::Int),
            ]),
            vec![
                str_col(n_events, {
                    let mut r = SmallRng::seed_from_u64(seed ^ 2);
                    move |_| (r.gen_range(0..7) != 0).then(|| uid(r.gen_range(0..n_users)))
                }),
                str_col(n_events, {
                    let mut r = SmallRng::seed_from_u64(seed ^ 3);
                    let kinds = ["click", "view", "purchase", "error"];
                    move |_| Some(kinds[r.gen_range(0..kinds.len())].to_string())
                }),
                int_col(n_events, {
                    let mut r = SmallRng::seed_from_u64(seed ^ 4);
                    move |_| Some(r.gen_range(0..100))
                }),
            ],
        )
        .expect("events"),
    );

    // domains(name TEXT, tier INT ~20% NULL)
    catalog.register(
        Table::new(
            "domains",
            Schema::new([
                ColumnDef::new("name", ValueType::Str),
                ColumnDef::new("tier", ValueType::Int),
            ]),
            vec![
                str_col(n_domains, |i| Some(domain_name(i))),
                int_col(n_domains, {
                    let mut r = SmallRng::seed_from_u64(seed ^ 5);
                    move |_| (r.gen_range(0..5) != 0).then(|| r.gen_range(1..4))
                }),
            ],
        )
        .expect("domains"),
    );

    // scores(uid TEXT, points INT ~25% NULL) — nullable *int* join side.
    catalog.register(
        Table::new(
            "scores",
            Schema::new([
                ColumnDef::new("uid", ValueType::Str),
                ColumnDef::new("points", ValueType::Int),
            ]),
            vec![
                str_col(n_scores, {
                    let mut r = SmallRng::seed_from_u64(seed ^ 6);
                    move |_| Some(uid(r.gen_range(0..n_users)))
                }),
                int_col(n_scores, {
                    let mut r = SmallRng::seed_from_u64(seed ^ 7);
                    move |_| (r.gen_range(0..4) != 0).then(|| r.gen_range(0..1000))
                }),
            ],
        )
        .expect("scores"),
    );

    let queries = queries(&catalog);
    NullsWorkload { catalog, queries }
}

/// The benchmark queries over a generated catalog.
fn queries(catalog: &Catalog) -> Vec<NamedQuery> {
    let mut out = Vec::new();

    // n01: plain string equi-join; NULL uids on either side must drop out.
    let mut qb = QueryBuilder::new(catalog);
    qb.table("users").expect("users");
    qb.table("events").expect("events");
    let j = qb
        .col("users.uid")
        .expect("col")
        .eq(qb.col("events.uid").expect("col"));
    qb.filter(j);
    qb.select_agg(AggFunc::Count, None, "n");
    out.push(NamedQuery::new("n01-string-join", qb.build().expect("q")));

    // n02: three-way string join through the low-cardinality domain key,
    // grouped by a nullable grouping column.
    let mut qb = QueryBuilder::new(catalog);
    qb.table("users").expect("users");
    qb.table("events").expect("events");
    qb.table("domains").expect("domains");
    let j1 = qb
        .col("users.uid")
        .expect("col")
        .eq(qb.col("events.uid").expect("col"));
    let j2 = qb
        .col("users.domain")
        .expect("col")
        .eq(qb.col("domains.name").expect("col"));
    qb.filter(j1);
    qb.filter(j2);
    let tier = qb.col("domains.tier").expect("col");
    qb.select_expr(tier.clone(), "tier");
    qb.select_agg(AggFunc::Count, None, "n");
    qb.group_by(tier);
    qb.order_by("tier", true);
    out.push(NamedQuery::new("n02-domain-rollup", qb.build().expect("q")));

    // n03: IS NULL / IS NOT NULL filters astride a string join.
    let mut qb = QueryBuilder::new(catalog);
    qb.table("users").expect("users");
    qb.table("scores").expect("scores");
    let j = qb
        .col("users.uid")
        .expect("col")
        .eq(qb.col("scores.uid").expect("col"));
    qb.filter(j);
    qb.filter(Expr::IsNull {
        expr: Box::new(qb.col("scores.points").expect("col")),
        negated: true,
    });
    qb.filter(Expr::IsNull {
        expr: Box::new(qb.col("users.age").expect("col")),
        negated: false,
    });
    qb.select_agg(
        AggFunc::Sum,
        Some(qb.col("scores.points").expect("col")),
        "pts",
    );
    out.push(NamedQuery::new("n03-null-filters", qb.build().expect("q")));

    // n04: LIKE over the shared-prefix domain strings + string join.
    let mut qb = QueryBuilder::new(catalog);
    qb.table("users").expect("users");
    qb.table("domains").expect("domains");
    let j = qb
        .col("users.domain")
        .expect("col")
        .eq(qb.col("domains.name").expect("col"));
    qb.filter(j);
    qb.filter(qb.col("domains.name").expect("col").like("host1%"));
    qb.select_agg(AggFunc::Count, None, "n");
    out.push(NamedQuery::new("n04-like-join", qb.build().expect("q")));

    // n05: four-way join mixing every fallback: two string joins, one of
    // them NULL-heavy, plus a predicate on a nullable int.
    let mut qb = QueryBuilder::new(catalog);
    qb.table("users").expect("users");
    qb.table("events").expect("events");
    qb.table("domains").expect("domains");
    qb.table("scores").expect("scores");
    let j1 = qb
        .col("users.uid")
        .expect("col")
        .eq(qb.col("events.uid").expect("col"));
    let j2 = qb
        .col("users.domain")
        .expect("col")
        .eq(qb.col("domains.name").expect("col"));
    let j3 = qb
        .col("users.uid")
        .expect("col")
        .eq(qb.col("scores.uid").expect("col"));
    qb.filter(j1);
    qb.filter(j2);
    qb.filter(j3);
    let f = qb.col("scores.points").expect("col").gt(Expr::lit(500));
    qb.filter(f);
    qb.select_agg(AggFunc::Count, None, "n");
    qb.select_agg(
        AggFunc::Min,
        Some(qb.col("events.weight").expect("col")),
        "wmin",
    );
    out.push(NamedQuery::new("n05-four-way", qb.build().expect("q")));

    out
}

/// A small randomized (catalog, query) case for property tests: a chain
/// of 2–4 tables joined on nullable *string* keys drawn from a small
/// alphabet (high collision rate in the dictionary and the hash keys),
/// with one random unary filter (`IS NOT NULL`, `LIKE`, or a comparison
/// on a nullable int).
pub fn generate_case(seed: u64) -> (Catalog, Query) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let m = rng.gen_range(2..5);
    let rows = rng.gen_range(4..24);
    let key_space = rng.gen_range(2..6);
    let null_pct = rng.gen_range(0..40);

    let mut cat = Catalog::new();
    for t in 0..m {
        let n = rows + rng.gen_range(0..8);
        cat.register(
            Table::new(
                format!("t{t}"),
                Schema::new([
                    ColumnDef::new("k", ValueType::Str),
                    ColumnDef::new("v", ValueType::Int),
                ]),
                vec![
                    str_col(n, |_| {
                        (rng.gen_range(0..100) >= null_pct)
                            .then(|| format!("key-{}", rng.gen_range(0..key_space)))
                    }),
                    int_col(n, |_| {
                        (rng.gen_range(0..10) != 0).then(|| rng.gen_range(0..20))
                    }),
                ],
            )
            .expect("case table"),
        );
    }

    let mut qb = QueryBuilder::new(&cat);
    for t in 0..m {
        qb.table(&format!("t{t}")).expect("table");
    }
    for t in 0..m - 1 {
        let j = qb
            .col(&format!("t{t}.k"))
            .expect("col")
            .eq(qb.col(&format!("t{}.k", t + 1)).expect("col"));
        qb.filter(j);
    }
    let ft = rng.gen_range(0..m);
    let unary = match rng.gen_range(0..3) {
        0 => Expr::IsNull {
            expr: Box::new(qb.col(&format!("t{ft}.k")).expect("col")),
            negated: true,
        },
        1 => qb
            .col(&format!("t{ft}.k"))
            .expect("col")
            .like(format!("key-{}%", rng.gen_range(0..key_space))),
        _ => qb
            .col(&format!("t{ft}.v"))
            .expect("col")
            .lt(Expr::lit(rng.gen_range(1..20i64))),
    };
    qb.filter(unary);
    qb.select_col("t0.v").expect("select");
    (cat.clone(), qb.build().expect("case query"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_core::{run_engine, SkinnerDB};
    use skinner_engine::SkinnerCConfig;
    use skinner_simdb::exec::ExecOptions;
    use skinner_simdb::{ColEngine, Engine};

    #[test]
    fn workload_is_deterministic() {
        let a = generate(0.02, 9);
        let b = generate(0.02, 9);
        assert_eq!(a.queries.len(), 5);
        for (qa, qb_) in a.queries.iter().zip(&b.queries) {
            assert_eq!(qa.id, qb_.id);
        }
        let ta = a.catalog.get("users").expect("users");
        let tb = b.catalog.get("users").expect("users");
        assert_eq!(ta.num_rows(), tb.num_rows());
    }

    #[test]
    fn null_join_keys_never_match() {
        // The NULL-uid rows must not contribute to the string join.
        let wl = generate(0.02, 9);
        let users = wl.catalog.get("users").expect("users");
        let nulls = (0..users.num_rows())
            .filter(|&i| users.column(0).is_null(i))
            .count();
        assert!(nulls > 0, "workload must actually contain NULL keys");
        let q = &wl.queries[0].query;
        let skinner = SkinnerDB::skinner_c(SkinnerCConfig {
            budget: 100,
            ..Default::default()
        })
        .execute(q);
        let engine = run_engine(&ColEngine::new(), q, &ExecOptions::default());
        assert!(skinner.table.same_rows(&engine.table));
    }

    #[test]
    fn all_queries_match_engine_baseline() {
        let wl = generate(0.015, 5);
        let col = ColEngine::new();
        for nq in &wl.queries {
            let truth = col
                .execute(
                    &nq.query,
                    &ExecOptions {
                        count_only: true,
                        ..Default::default()
                    },
                )
                .result_count;
            let out = SkinnerDB::skinner_c(SkinnerCConfig {
                budget: 64,
                ..Default::default()
            })
            .execute(&nq.query);
            assert_eq!(out.stats.result_count, truth, "{} diverged", nq.id);
        }
    }

    /// The whole NULL/string workload runs on the compiled kernel —
    /// every slice, string and nullable key shapes included — and each
    /// query's tuples equal the generic oracle's.
    #[test]
    fn workload_runs_entirely_on_codegen_tier() {
        use skinner_engine::SkinnerC;
        let wl = generate(0.015, 5);
        for nq in &wl.queries {
            let out = SkinnerC::new(SkinnerCConfig {
                budget: 64,
                ..Default::default()
            })
            .run(&nq.query);
            assert!(out.metrics.slices > 0, "{} never joined", nq.id);
            assert_eq!(out.metrics.codegen_slices, out.metrics.slices, "{}", nq.id);
            let mut got: Vec<Vec<u32>> = out
                .tuples
                .chunks(out.num_tables)
                .map(<[u32]>::to_vec)
                .collect();
            got.sort();
            assert_eq!(got, crate::oracle_tuples(&nq.query), "{}", nq.id);
        }
    }

    #[test]
    fn generated_cases_have_nullable_string_keys() {
        // The property-test generator must actually hit the KeyEq jump:
        // string key columns, frequently nullable.
        let mut saw_nullable = false;
        for seed in 0..20 {
            let (cat, q) = generate_case(seed);
            assert!(q.num_tables() >= 2);
            for t in 0..q.num_tables() {
                let table = cat.get(&format!("t{t}")).expect("table");
                assert_eq!(table.column(0).value_type(), ValueType::Str);
                saw_nullable |= table.column(0).nullable();
            }
        }
        assert!(saw_nullable, "no nullable key column in 20 seeds");
    }
}
