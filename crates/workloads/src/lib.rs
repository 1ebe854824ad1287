//! # skinner-workloads
//!
//! Deterministic workload generators reproducing the paper's benchmark
//! suite (with documented substitutions — see DESIGN.md §3):
//!
//! * [`job`] — a synthetic stand-in for the Join Order Benchmark over
//!   IMDB: ten correlated, Zipf-skewed tables and 33 query templates of
//!   3–8 joins. The real JOB's difficulty comes from correlated real
//!   data breaking the independence assumption; the generator injects the
//!   same pathologies synthetically.
//! * [`tpch`] — dbgen-lite: the eight TPC-H tables at a configurable
//!   scale factor, plus SPJA forms of Q2, Q3, Q5, Q7, Q8, Q9, Q10, Q11,
//!   Q18, Q21 and their UDF variants (every unary predicate wrapped in an
//!   opaque, semantically identical UDF — the paper's TPC-UDF).
//! * [`torture`] — the appendix micro-benchmarks: UDF torture
//!   (chain/star, one empty-result "good" predicate among always-true
//!   ones), correlation torture (skewed, correlated chains with the
//!   selective join at parameterized position `m`), and the trivial
//!   optimization benchmark (all non-Cartesian plans equivalent).
//! * [`nulls`] — NULL-heavy, string-join stress: nullable
//!   dictionary-encoded string keys exercising the join kernel's
//!   `KeyEq` posting cursors (hash-verified string keys, NULL semantics
//!   through joins, indexes and aggregates).
//! * [`wide`] — wide-schema stress: dozen-plus-column tables,
//!   high-cardinality string dictionaries, and non-nullable **Float**
//!   join keys exercising the join kernel's `FloatEq` posting cursors.
//! * [`correlated`] — JOB-shaped link tables with **composite**
//!   `(movie_id, person_id)` join keys (the join kernel's fused-key
//!   `FusedEq` posting cursors) and `DATE` columns with TPC-H-style
//!   date-range predicates.
//!
//! All generators are seeded and deterministic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlated;
pub mod job;
pub mod nulls;
pub mod torture;
pub mod tpch;
pub mod util;
pub mod wide;

use skinner_query::Query;

/// The generic reference kernel's distinct join tuples for `q` (FROM
/// order, one shot), sorted: the oracle the workload tests compare the
/// compiled kernel's results against.
#[cfg(test)]
fn oracle_tuples(q: &Query) -> Vec<Vec<u32>> {
    use skinner_engine::multiway::ResultSet;
    use skinner_engine::{MultiwayJoin, PreparedQuery};
    let pq = PreparedQuery::new(q, true, 1);
    let order: Vec<usize> = (0..q.num_tables()).collect();
    let offsets = vec![0u32; order.len()];
    let mut state = offsets.clone();
    let mut rs = ResultSet::new();
    MultiwayJoin::new(&pq).continue_join_generic(
        &order,
        &pq.plan_spec(&order),
        &offsets,
        &mut state,
        u64::MAX,
        &mut rs,
    );
    let mut tuples: Vec<Vec<u32>> = rs.iter().map(<[u32]>::to_vec).collect();
    tuples.sort();
    tuples
}

/// A benchmark query with a stable identifier.
pub struct NamedQuery {
    /// Identifier (e.g. `"q07"`, `"chain-6"`).
    pub id: String,
    /// The resolved query.
    pub query: Query,
}

impl NamedQuery {
    /// Convenience constructor.
    pub fn new(id: impl Into<String>, query: Query) -> NamedQuery {
        NamedQuery {
            id: id.into(),
            query,
        }
    }
}
