//! Pre-processing (paper §3, §4.5): unary filtering, hash indexing, and
//! plan-time binding of join orders.
//!
//! "Here, we filter base tables via unary predicates [...] we create hash
//! tables on all columns subject to equality predicates during
//! pre-processing. [...] those overheads are typically small as only
//! tuples satisfying all unary predicates are hashed."
//!
//! The prepared query holds, per table, the *filtered positions* (base
//! row ids surviving unary predicates); all Skinner-C state lives in this
//! filtered position space. With `threads > 1`, pre-processing runs on
//! the run's worker pool: one filter task per table (the paper's Table 2
//! parallelism, its only one; this reproduction additionally partitions
//! the join phase itself, see [`crate::partition`]), then one task per
//! single-column index and per composite-group side, largest first.
//!
//! # Two plan layers
//!
//! Planning one join order happens in two steps:
//!
//! 1. [`PreparedQuery::plan_spec`] derives the *logical* [`OrderSpec`]:
//!    per position, which join conjuncts become applicable (indices into
//!    `join_preds`) and which equality predicate can drive a hash-index
//!    jump ([`JumpSpec`], as `(table, column)` ids). The generic
//!    reference kernel interprets this layer directly.
//! 2. [`PreparedQuery::plan_order`] *binds* that spec into the join
//!    kernel's positions ([`CompiledKernel`]): each position caches its
//!    filtered cardinality and base-row slice, each predicate is
//!    specialized into a [`BoundPred`] over raw typed column slices, and
//!    each jump holds a direct [`HashIndex`] reference plus a key source
//!    specialized to the key column's representation.
//!
//! The bound kernel is the closest safe-Rust stand-in for the paper's §6
//! per-query code generation. Orders are bound once and cached across
//! time slices, so the thousands of join-order switches per second
//! never re-resolve a table, column, or index.

use skinner_codegen::{CompiledKernel, KernelJump, KernelPosition};
use skinner_pool::WorkerPool;
use skinner_query::{compile_predicates, BoundPred, CompiledPred, Query, TableId, TableSet};
use skinner_storage::table::TableRef;
use skinner_storage::{fused_join_key, FxHashMap, FxHashSet, HashIndex, RowId};
use std::sync::Arc;

/// One composite (multi-column) equi-join key group, materialized at
/// prepare time: a pair of tables connected by two or more equality
/// conjuncts. Both sides get a *fused* key per base row — an FxHash
/// combine of the component join keys in canonical pair order (see
/// [`fused_join_key`]) — and a composite hash index over their filtered
/// positions. Fused keys are hashes, so a composite jump never implies
/// its driving predicates: the kernel re-verifies every group conjunct,
/// exactly as it does for string keys. Correlated component columns are
/// where this pays: a single-column jump enumerates every row matching
/// one component and rejects the rest per tuple, while the composite
/// index jumps straight to rows matching the whole key.
pub struct CompositeKeyGroup {
    /// The connected tables, `a < b`.
    pub tables: (TableId, TableId),
    /// Paired component columns (`cols.0[i]` of side `a` joins
    /// `cols.1[i]` of side `b`), sorted canonically.
    pub cols: (Vec<usize>, Vec<usize>),
    /// Indices into `join_preds` of the group's equality conjuncts.
    pub preds: Vec<usize>,
    /// Fused keys per **base row** of each side (`None` = a NULL
    /// component; such rows never match).
    pub keys: (Vec<Option<i64>>, Vec<Option<i64>>),
    /// Composite indexes over each side's **filtered positions**.
    pub indexes: (HashIndex, HashIndex),
}

/// One direction of a composite jump: the earlier (key-providing) side
/// and the later (indexed, probed) side, resolved from `src_is_a`. The
/// single source of truth for side selection — the bound plan, the
/// generic oracle, and the jump heuristic all go through it.
pub struct CompositeSides<'a> {
    /// The earlier table providing the key tuple.
    pub src_table: TableId,
    /// The source side's fused keys per base row.
    pub src_keys: &'a [Option<i64>],
    /// The source side's component columns (paired order).
    pub src_cols: &'a [usize],
    /// The probed side's composite index (filtered positions).
    pub index: &'a HashIndex,
    /// The probed side's component columns (paired order).
    pub index_cols: &'a [usize],
}

impl CompositeKeyGroup {
    /// Resolve the jump direction: `src_is_a` means the group's `a` side
    /// provides the key and the `b` side is probed.
    pub fn sides(&self, src_is_a: bool) -> CompositeSides<'_> {
        if src_is_a {
            CompositeSides {
                src_table: self.tables.0,
                src_keys: &self.keys.0,
                src_cols: &self.cols.0,
                index: &self.indexes.1,
                index_cols: &self.cols.1,
            }
        } else {
            CompositeSides {
                src_table: self.tables.1,
                src_keys: &self.keys.1,
                src_cols: &self.cols.1,
                index: &self.indexes.0,
                index_cols: &self.cols.0,
            }
        }
    }
}

/// One index-build task of pre-processing.
#[derive(Clone, Copy)]
enum IndexJob {
    /// Single-column index on `(table, column)`.
    Single(TableId, usize),
    /// One side of a composite group (`true` = side `b`): its fused keys
    /// per base row and its composite index.
    Side(usize, bool),
}

/// `f` over every job, returned in job order. Jobs start largest
/// `weight` first, so the longest task is never the last to begin; on
/// `pool` they run as one batch (the calling thread helps), otherwise
/// sequentially on the calling thread.
fn run_largest_first<J: Sync, R: Send>(
    pool: Option<&WorkerPool>,
    jobs: &[J],
    weight: impl Fn(&J) -> usize,
    f: impl Fn(&J) -> R + Send + Sync,
) -> Vec<R> {
    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weight(&jobs[i])));
    let mut slots: Vec<(usize, Option<R>)> = order.into_iter().map(|i| (i, None)).collect();
    let run = |_: usize, (i, out): &mut (usize, Option<R>)| *out = Some(f(&jobs[*i]));
    match pool {
        Some(pool) => pool.run_batch_mut(&mut slots, run),
        None => slots
            .iter_mut()
            .enumerate()
            .for_each(|(k, slot)| run(k, slot)),
    }
    slots.sort_unstable_by_key(|&(i, _)| i);
    slots
        .into_iter()
        .map(|(_, out)| out.expect("every job ran"))
        .collect()
}

/// A query after pre-processing, ready for multi-way join execution.
pub struct PreparedQuery {
    /// The query's tables in FROM order.
    pub tables: Vec<TableRef>,
    /// Filtered positions: `filtered[t][pos]` = base row id.
    pub filtered: Vec<Vec<RowId>>,
    /// Filtered cardinalities (`filtered[t].len()` cached as u32).
    pub cards: Vec<u32>,
    /// Compiled join conjuncts (tables ≥ 2); unary conjuncts are consumed
    /// by the filter step.
    pub join_preds: Vec<CompiledPred>,
    /// Hash indexes on equi-join columns, keyed by `(table, column)`;
    /// postings are filtered positions.
    pub indexes: FxHashMap<(TableId, usize), HashIndex>,
    /// Composite key groups (empty unless indexes were built and some
    /// table pair is connected by ≥ 2 equality conjuncts).
    pub composites: Vec<CompositeKeyGroup>,
    /// Wall time spent pre-processing.
    pub preprocess_time: std::time::Duration,
}

impl PreparedQuery {
    /// Run pre-processing for `query`.
    ///
    /// `build_indexes` corresponds to the "indexes" feature of Table 6;
    /// `threads > 1` runs the filter and index-build tasks on the
    /// process-wide shared [`WorkerPool`] (see
    /// [`with_pool`](PreparedQuery::with_pool)).
    pub fn new(query: &Query, build_indexes: bool, threads: usize) -> PreparedQuery {
        PreparedQuery::with_pool(query, build_indexes, threads, None)
    }

    /// [`new`](PreparedQuery::new), running its tasks on a specific pool
    /// (the engine passes the run's pool here); `None` falls back to the
    /// shared global pool, as in `MultiwayJoin::with_pool`.
    ///
    /// Pre-processing is two batches of independent tasks, each
    /// submitted largest first: one unary-filter task per table, then one
    /// task per single-column index and per composite-group side. With
    /// `threads <= 1` both batches run sequentially on the calling
    /// thread and no pool is touched. The prepared query is identical
    /// for every thread count and pool size.
    pub fn with_pool(
        query: &Query,
        build_indexes: bool,
        threads: usize,
        pool: Option<Arc<WorkerPool>>,
    ) -> PreparedQuery {
        let start = std::time::Instant::now();
        let pool = (threads > 1).then(|| pool.unwrap_or_else(WorkerPool::global));
        let pool = pool.as_deref();
        let tables: Vec<TableRef> = query.tables.iter().map(|b| b.table.clone()).collect();
        let m = tables.len();
        let all_preds = compile_predicates(query);

        // Partition conjuncts into unary (per table) and join predicates.
        let mut unary: Vec<Vec<&CompiledPred>> = vec![Vec::new(); m];
        let mut join_preds = Vec::new();
        for p in &all_preds {
            let ts = p.tables();
            if ts.len() == 1 {
                unary[ts.iter().next().expect("singleton set")].push(p);
            } else if ts.len() >= 2 {
                join_preds.push(p.clone());
            }
            // 0-table predicates (constant folding) are rare; treat a
            // constant-false conjunct as filtering everything.
        }
        let const_false = all_preds
            .iter()
            .any(|p| p.tables().is_empty() && !p.eval(&vec![0u32; m], &tables));

        // Filter each table: one task per table. Splitting a table into
        // row morsels would make them contend on shared UDF call counters
        // and dictionary string refcounts.
        let table_ids: Vec<TableId> = (0..m).collect();
        let filtered: Vec<Vec<RowId>> = run_largest_first(
            pool,
            &table_ids,
            |&t| tables[t].num_rows(),
            |&t| {
                if const_false {
                    return Vec::new();
                }
                // Bound once per table: typed column slices, no per-row
                // table/column resolution.
                let preds: Vec<BoundPred> = unary[t].iter().map(|p| p.bind(&tables)).collect();
                let mut rows = vec![0u32; m];
                let mut keep = Vec::new();
                for r in 0..tables[t].num_rows() as u32 {
                    rows[t] = r;
                    if preds.iter().all(|p| p.eval(&rows)) {
                        keep.push(r);
                    }
                }
                keep
            },
        );

        let cards: Vec<u32> = filtered.iter().map(|f| f.len() as u32).collect();

        // Index builds over the filtered positions: every column used by
        // an equi-join predicate, and both sides of every table pair
        // connected by ≥ 2 sound equality conjuncts (composite groups).
        let mut jobs: Vec<IndexJob> = Vec::new();
        let mut composites: Vec<CompositeKeyGroup> = Vec::new();
        if build_indexes {
            let mut seen = FxHashSet::default();
            for (a, b) in query.equi_join_pairs() {
                for c in [a, b] {
                    if seen.insert((c.table, c.column)) {
                        jobs.push(IndexJob::Single(c.table, c.column));
                    }
                }
            }
            for ((ta, tb), mut pairs) in query.composite_key_groups() {
                // Key-convention guard, as for single jumps: drop
                // component pairs whose equality cannot be accelerated
                // by key comparison (Int vs Float widening); they stay
                // residual predicates. A group needs ≥ 2 sound pairs.
                pairs.retain(|&(ca, cb)| {
                    tables[ta]
                        .column(ca)
                        .join_key_compatible(tables[tb].column(cb))
                });
                if pairs.len() < 2 {
                    continue;
                }
                // Map the group's conjuncts to join_preds indices.
                let preds: Vec<usize> = join_preds
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| {
                        p.expr().as_equi_join().is_some_and(|(x, y)| {
                            let ((xa, ca), (xb, cb)) = if x.table < y.table {
                                ((x.table, x.column), (y.table, y.column))
                            } else {
                                ((y.table, y.column), (x.table, x.column))
                            };
                            xa == ta && xb == tb && pairs.contains(&(ca, cb))
                        })
                    })
                    .map(|(pi, _)| pi)
                    .collect();
                jobs.push(IndexJob::Side(composites.len(), false));
                jobs.push(IndexJob::Side(composites.len(), true));
                // Keys and indexes are filled in once the jobs have run.
                composites.push(CompositeKeyGroup {
                    tables: (ta, tb),
                    cols: (
                        pairs.iter().map(|&(a, _)| a).collect(),
                        pairs.iter().map(|&(_, b)| b).collect(),
                    ),
                    preds,
                    keys: Default::default(),
                    indexes: Default::default(),
                });
            }
        }
        let side = |g: usize, is_b: bool| {
            let g = &composites[g];
            if is_b {
                (g.tables.1, &g.cols.1)
            } else {
                (g.tables.0, &g.cols.0)
            }
        };
        let built = run_largest_first(
            pool,
            &jobs,
            |&job| match job {
                IndexJob::Single(t, _) => filtered[t].len(),
                IndexJob::Side(g, is_b) => filtered[side(g, is_b).0].len(),
            },
            |&job| match job {
                IndexJob::Single(t, c) => (
                    Vec::new(),
                    HashIndex::build(tables[t].column(c), Some(&filtered[t])),
                ),
                IndexJob::Side(g, is_b) => {
                    // Fused keys are only ever read for rows that survived
                    // the unary filters (indexes cover filtered positions;
                    // source lookups hold filtered base ids), so hash only
                    // those — on a selectively filtered link table this is
                    // most of the prepare cost.
                    let (t, cols) = side(g, is_b);
                    let mut keys = vec![None; tables[t].num_rows()];
                    let filtered_keys: Vec<Option<i64>> = filtered[t]
                        .iter()
                        .map(|&r| {
                            let cols = cols.iter().map(|&c| tables[t].column(c));
                            keys[r as usize] = fused_join_key(cols, r as usize);
                            keys[r as usize]
                        })
                        .collect();
                    (keys, HashIndex::from_keys(&filtered_keys))
                }
            },
        );
        let mut indexes = FxHashMap::default();
        for (&job, (keys, index)) in jobs.iter().zip(built) {
            match job {
                IndexJob::Single(t, c) => {
                    indexes.insert((t, c), index);
                }
                IndexJob::Side(g, false) => {
                    composites[g].keys.0 = keys;
                    composites[g].indexes.0 = index;
                }
                IndexJob::Side(g, true) => {
                    composites[g].keys.1 = keys;
                    composites[g].indexes.1 = index;
                }
            }
        }

        PreparedQuery {
            tables,
            filtered,
            cards,
            join_preds,
            indexes,
            composites,
            preprocess_time: start.elapsed(),
        }
    }

    /// Number of joined tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// True if some table filtered down to zero tuples (empty result).
    pub fn any_empty(&self) -> bool {
        self.cards.contains(&0)
    }

    /// Map a filtered position of table `t` to its base row id.
    #[inline]
    pub fn base_row(&self, t: TableId, pos: u32) -> RowId {
        self.filtered[t][pos as usize]
    }

    /// Approximate bytes held by the hash indexes (single-column and
    /// composite, including the fused key vectors).
    pub fn index_bytes(&self) -> usize {
        let single: usize = self.indexes.values().map(HashIndex::approx_bytes).sum();
        let composite: usize = self
            .composites
            .iter()
            .map(|g| {
                g.indexes.0.approx_bytes()
                    + g.indexes.1.approx_bytes()
                    + (g.keys.0.len() + g.keys.1.len()) * std::mem::size_of::<Option<i64>>()
            })
            .sum();
        single + composite
    }

    /// The per-position applicable predicates and jump index for one join
    /// order, as *indices* into the prepared query (see [`OrderSpec`]).
    /// The execution engines use the fully bound [`plan_order`] instead;
    /// this logical layer drives the generic reference kernel and plan
    /// introspection.
    ///
    /// [`plan_order`]: PreparedQuery::plan_order
    pub fn plan_spec(&self, order: &[TableId]) -> OrderSpec {
        let m = order.len();
        let mut joined = TableSet::EMPTY;
        let mut positions = Vec::with_capacity(m);
        for (i, &t) in order.iter().enumerate() {
            let mut with_t = joined;
            with_t.insert(t);
            let applicable: Vec<usize> = self
                .join_preds
                .iter()
                .enumerate()
                .filter(|(_, p)| {
                    let ts = p.tables();
                    ts.contains(t) && ts.is_subset_of(with_t)
                })
                .map(|(pi, _)| pi)
                .collect();
            let mut jump = None;
            if i > 0 {
                // Composite jumps first: a fused multi-column key
                // enumerates only rows matching *all* conjuncts of the
                // group — but only when the pair is genuinely more
                // selective than its best single component. When one
                // component alone partitions the table just as finely
                // (a near-unique id), the single-column jump wins: it
                // keeps exact keys and predicate elision, which fused
                // (hashed) keys forfeit.
                for (gi, g) in self.composites.iter().enumerate() {
                    let src_is_a = if g.tables.0 == t && joined.contains(g.tables.1) {
                        false // src = b side
                    } else if g.tables.1 == t && joined.contains(g.tables.0) {
                        true // src = a side
                    } else {
                        continue;
                    };
                    let sides = g.sides(src_is_a);
                    let best_single = sides
                        .index_cols
                        .iter()
                        .filter_map(|&c| self.indexes.get(&(t, c)).map(HashIndex::distinct_keys))
                        .max()
                        .unwrap_or(0);
                    if sides.index.distinct_keys() <= best_single {
                        continue; // a single component is as selective
                    }
                    // The group's conjuncts all connect exactly {a, b},
                    // so they become applicable precisely here.
                    if !g.preds.is_empty() && g.preds.iter().all(|pi| applicable.contains(pi)) {
                        jump = Some(JumpSpec::Composite {
                            group: gi,
                            src_is_a,
                        });
                        break;
                    }
                }
                // Otherwise the first applicable single-column equality
                // with an index drives the jump, as before.
                if jump.is_none() {
                    for (k, &pi) in applicable.iter().enumerate() {
                        if let Some((a, b)) = self.join_preds[pi].expr().as_equi_join() {
                            let (tc, oc) = if a.table == t { (a, b) } else { (b, a) };
                            if tc.table == t
                                && joined.contains(oc.table)
                                && self.indexes.contains_key(&(t, tc.column))
                                // Key-convention guard: an Int = Float
                                // equality is true under numeric widening
                                // while the key conventions differ — a
                                // key-driven jump would skip real matches.
                                && self.tables[t]
                                    .column(tc.column)
                                    .join_key_compatible(self.tables[oc.table].column(oc.column))
                            {
                                jump = Some(JumpSpec::Single {
                                    index_col: tc.column,
                                    src_table: oc.table,
                                    src_col: oc.column,
                                    pred: k,
                                });
                                break;
                            }
                        }
                    }
                }
            }
            positions.push(PositionPlan {
                table: t,
                applicable,
                jump,
            });
            joined = with_t;
        }
        OrderSpec { positions }
    }

    /// Bind one join order into the join kernel: every
    /// table/column/index indirection is resolved now, at plan time, so
    /// the kernel's inner loop touches only raw slices and direct index
    /// references. This is the plan-time specialization that stands in
    /// for the paper's per-query code generation (§6).
    ///
    /// Each position's predicates are specialized into [`BoundPred`]s,
    /// and each jump picks the key source matching the predecessor key
    /// column's representation: exact integer keys (whose driving
    /// equality is elided when it compiled to the exact integer fast
    /// path), float bit patterns, fused composite keys, or
    /// [`Column::join_key`](skinner_storage::Column::join_key) for
    /// strings and nullable columns. Only exact integer keys are ever
    /// elided; the others are hash-derived and re-verified.
    pub fn plan_order(&self, order: &[TableId]) -> CompiledKernel<'_> {
        let spec = self.plan_spec(order);
        let positions = spec
            .positions
            .iter()
            .map(|p| {
                let t = p.table;
                let mut preds: Vec<BoundPred<'_>> = p
                    .applicable
                    .iter()
                    .map(|&pi| self.join_preds[pi].bind(&self.tables))
                    .collect();
                let (jump, elided) = match &p.jump {
                    None => (KernelJump::Scan, None),
                    Some(JumpSpec::Single {
                        index_col,
                        src_table,
                        src_col,
                        pred,
                    }) => {
                        let index = &self.indexes[&(t, *index_col)];
                        let (src, col) = (*src_table, self.tables[*src_table].column(*src_col));
                        match (col.nullable(), col.i64s(), col.floats()) {
                            (false, Some(keys), _) => (
                                KernelJump::IntEq { keys, src, index },
                                preds[*pred].is_exact_int_eq().then_some(*pred),
                            ),
                            (false, _, Some(keys)) => {
                                (KernelJump::FloatEq { keys, src, index }, None)
                            }
                            _ => (KernelJump::KeyEq { col, src, index }, None),
                        }
                    }
                    Some(JumpSpec::Composite { group, src_is_a }) => {
                        // The index lives on this position's table; the
                        // key vector on the earlier (source) side.
                        let sides = self.composites[*group].sides(*src_is_a);
                        let jump = KernelJump::FusedEq {
                            keys: sides.src_keys,
                            src: sides.src_table,
                            index: sides.index,
                        };
                        (jump, None)
                    }
                };
                if let Some(pred) = elided {
                    preds.remove(pred);
                }
                KernelPosition {
                    table: t,
                    card: self.cards[t],
                    base: &self.filtered[t],
                    preds,
                    jump,
                    elided: elided.is_some(),
                }
            })
            .collect();
        CompiledKernel::new(positions)
    }
}

/// Equality-predicate jump at one join-order position (§4.5: "jump
/// directly to the next highest tuple index that satisfies at least all
/// applicable equality predicates"), as logical indices.
#[derive(Debug, Clone)]
pub enum JumpSpec {
    /// One equality conjunct drives the jump through a single-column
    /// hash index.
    Single {
        /// Indexed column of the position's table.
        index_col: usize,
        /// Earlier table providing the key.
        src_table: TableId,
        /// Key column in the earlier table.
        src_col: usize,
        /// Index of the driving equality conjunct within this position's
        /// applicable-predicate list.
        pred: usize,
    },
    /// A composite key group drives the jump: the fused multi-column key
    /// of the earlier table probes the composite index of this
    /// position's table, satisfying *all* of the group's conjuncts at
    /// once (modulo hash collisions, which the re-verified predicates
    /// reject).
    Composite {
        /// Index into [`PreparedQuery::composites`].
        group: usize,
        /// True when the earlier (key-providing) table is the group's
        /// `a` side, i.e. this position's table is side `b`.
        src_is_a: bool,
    },
}

impl JumpSpec {
    /// The earlier table providing the jump key, given the prepared
    /// query the spec was planned against.
    pub fn src_table(&self, pq: &PreparedQuery) -> TableId {
        match self {
            JumpSpec::Single { src_table, .. } => *src_table,
            JumpSpec::Composite { group, src_is_a } => {
                pq.composites[*group].sides(*src_is_a).src_table
            }
        }
    }
}

/// Per-position logical plan for one join order (indices into the
/// prepared query, not yet bound to storage).
#[derive(Debug, Clone)]
pub struct PositionPlan {
    /// The table joined at this position.
    pub table: TableId,
    /// Indices into `join_preds` newly applicable at this position.
    pub applicable: Vec<usize>,
    /// Hash-index jump, if an equi predicate connects to earlier tables.
    pub jump: Option<JumpSpec>,
}

/// Logical per-order plan: what [`PreparedQuery::plan_order`] binds into
/// the join kernel. Used directly by the generic reference kernel.
#[derive(Debug, Clone)]
pub struct OrderSpec {
    /// One entry per join-order position.
    pub positions: Vec<PositionPlan>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use skinner_query::{Expr, QueryBuilder};
    use skinner_storage::{Catalog, Column, ColumnDef, Schema, Table, ValueType};

    fn catalog() -> Catalog {
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "a",
                Schema::new([
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("v", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![1, 2, 3, 4]),
                    Column::from_ints(vec![10, 20, 30, 40]),
                ],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "b",
                Schema::new([ColumnDef::new("a_id", ValueType::Int)]),
                vec![Column::from_ints(vec![1, 3, 3, 7])],
            )
            .unwrap(),
        );
        cat
    }

    fn query(cat: &Catalog) -> Query {
        let mut qb = QueryBuilder::new(cat);
        qb.table("a").unwrap();
        qb.table("b").unwrap();
        let j = qb.col("a.id").unwrap().eq(qb.col("b.a_id").unwrap());
        let f = qb.col("a.v").unwrap().ge(Expr::lit(20));
        qb.filter(j);
        qb.filter(f);
        qb.select_col("a.v").unwrap();
        qb.build().unwrap()
    }

    #[test]
    fn filtering_and_cards() {
        let cat = catalog();
        let q = query(&cat);
        let p = PreparedQuery::new(&q, true, 1);
        assert_eq!(p.cards, vec![3, 4]); // a.v>=20 keeps rows 1,2,3
        assert_eq!(p.filtered[0], vec![1, 2, 3]);
        assert!(!p.any_empty());
        assert_eq!(p.base_row(0, 0), 1);
    }

    #[test]
    fn parallel_filter_matches_serial() {
        let cat = catalog();
        let q = query(&cat);
        let serial = PreparedQuery::new(&q, true, 1);
        let parallel = PreparedQuery::new(&q, true, 4);
        assert_eq!(serial.filtered, parallel.filtered);
    }

    #[test]
    fn indexes_on_equi_columns() {
        let cat = catalog();
        let q = query(&cat);
        let p = PreparedQuery::new(&q, true, 1);
        assert!(p.indexes.contains_key(&(0, 0)));
        assert!(p.indexes.contains_key(&(1, 0)));
        assert_eq!(p.indexes.len(), 2);
        assert!(p.index_bytes() > 0);
        // postings are filtered positions: a.id=3 is base row 2, which is
        // filtered position 1 (filter keeps base rows [1,2,3])
        let idx = &p.indexes[&(0, 0)];
        assert_eq!(idx.probe(3), &[1]);
        // disabled indexes
        let p2 = PreparedQuery::new(&q, false, 1);
        assert!(p2.indexes.is_empty());
    }

    #[test]
    fn order_plan_applicable_and_jump() {
        let cat = catalog();
        let q = query(&cat);
        let p = PreparedQuery::new(&q, true, 1);
        let spec = p.plan_spec(&[0, 1]);
        assert!(spec.positions[0].applicable.is_empty());
        assert_eq!(spec.positions[1].applicable, vec![0]);
        let jump = spec.positions[1].jump.clone().expect("jump expected");
        let JumpSpec::Single {
            index_col,
            src_table,
            src_col,
            ..
        } = jump
        else {
            panic!("expected single-column jump");
        };
        assert_eq!(index_col, 0);
        assert_eq!(src_table, 0);
        assert_eq!(src_col, 0);
        // reversed order jumps through a's index
        let spec = p.plan_spec(&[1, 0]);
        let jump = spec.positions[1].jump.as_ref().expect("jump expected");
        assert_eq!(jump.src_table(&p), 1);
    }

    #[test]
    fn bound_plan_captures_slices_and_index() {
        let cat = catalog();
        let q = query(&cat);
        let p = PreparedQuery::new(&q, true, 1);
        let plan = p.plan_order(&[0, 1]);
        let positions = plan.positions();
        assert_eq!(positions.len(), 2);
        assert_eq!(positions[0].table, 0);
        assert_eq!(positions[0].card, 3);
        assert_eq!(positions[0].base, &[1, 2, 3]);
        assert!(positions[0].preds.is_empty());
        assert!(matches!(positions[0].jump, KernelJump::Scan));
        let pos1 = &positions[1];
        assert_eq!(pos1.table, 1);
        assert_eq!(pos1.card, 4);
        // The exact int equality driving the jump is elided.
        assert!(pos1.elided);
        assert!(pos1.preds.is_empty());
        let KernelJump::IntEq { keys, src, index } = pos1.jump else {
            panic!("expected an exact int jump");
        };
        assert_eq!(src, 0);
        // key source is a's id column — non-nullable INT slice
        assert_eq!((keys[0], keys[3]), (1, 4));
        // the bound index is b's index: base row of b with a_id=3 is row 1
        assert_eq!(index.probe(3), &[1, 2]);
        // no indexes ⇒ no jumps (and no elision) in the bound plan either
        let p2 = PreparedQuery::new(&q, false, 1);
        let plan2 = p2.plan_order(&[0, 1]);
        assert!(matches!(plan2.positions()[1].jump, KernelJump::Scan));
        assert_eq!(plan2.positions()[1].preds.len(), 1);
    }

    fn composite_catalog() -> Catalog {
        let mut cat = Catalog::new();
        // l1 and l2 share a two-column key (x, y); single components
        // collide heavily (x repeats, y repeats) but pairs are selective.
        cat.register(
            Table::new(
                "l1",
                Schema::new([
                    ColumnDef::new("x", ValueType::Int),
                    ColumnDef::new("y", ValueType::Int),
                    ColumnDef::new("v", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![1, 1, 2, 2]),
                    Column::from_ints(vec![10, 20, 10, 20]),
                    Column::from_ints(vec![0, 1, 2, 3]),
                ],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "l2",
                Schema::new([
                    ColumnDef::new("x", ValueType::Int),
                    ColumnDef::new("y", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![1, 2, 1, 1]),
                    Column::from_ints(vec![10, 20, 20, 10]),
                ],
            )
            .unwrap(),
        );
        cat
    }

    fn composite_query(cat: &Catalog) -> Query {
        let mut qb = QueryBuilder::new(cat);
        qb.table("l1").unwrap();
        qb.table("l2").unwrap();
        let j1 = qb.col("l1.x").unwrap().eq(qb.col("l2.x").unwrap());
        let j2 = qb.col("l1.y").unwrap().eq(qb.col("l2.y").unwrap());
        qb.filter(j1);
        qb.filter(j2);
        qb.select_col("l1.v").unwrap();
        qb.build().unwrap()
    }

    #[test]
    fn composite_group_prepared_and_planned() {
        let cat = composite_catalog();
        let q = composite_query(&cat);
        let p = PreparedQuery::new(&q, true, 1);
        assert_eq!(p.composites.len(), 1);
        let g = &p.composites[0];
        assert_eq!(g.tables, (0, 1));
        assert_eq!(g.cols, (vec![0, 1], vec![0, 1]));
        assert_eq!(g.preds.len(), 2);
        // l1 row 0 = (1, 10) matches l2 filtered positions 0 and 3.
        let key = g.keys.0[0].expect("non-null fused key");
        assert_eq!(g.indexes.1.probe(key), &[0, 3]);
        // l1's (2, 10) pair (row 2) matches nothing in l2, though each
        // component occurs there — the fused key must separate them.
        let key = g.keys.0[2].expect("non-null fused key");
        assert_eq!(g.indexes.1.probe(key), &[] as &[u32]);

        // Both directions plan a composite jump at position 1.
        for order in [[0usize, 1], [1usize, 0]] {
            let spec = p.plan_spec(&order);
            match spec.positions[1].jump.as_ref().expect("jump") {
                JumpSpec::Composite { group, .. } => assert_eq!(*group, 0),
                other => panic!("expected composite jump, got {other:?}"),
            }
            // The bound plan carries the fused key source and composite
            // index; both conjuncts stay for re-verification.
            let plan = p.plan_order(&order);
            let pos1 = &plan.positions()[1];
            assert!(matches!(pos1.jump, KernelJump::FusedEq { .. }));
            assert_eq!(pos1.preds.len(), 2);
            assert!(!pos1.elided);
        }

        // Without indexes there is no composite machinery at all.
        let p2 = PreparedQuery::new(&q, false, 1);
        assert!(p2.composites.is_empty());
        assert!(p2.plan_spec(&[0, 1]).positions[1].jump.is_none());
        // index_bytes accounts for the composite structures.
        assert!(p.index_bytes() > p2.index_bytes());
    }

    #[test]
    fn unique_single_component_outranks_composite() {
        // (id, grp) group where id alone is unique: the composite fused
        // key partitions no finer than id, so the planner must keep the
        // single-column Int jump — exact keys and elision.
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "u1",
                Schema::new([
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("grp", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![1, 2, 3, 4]),
                    Column::from_ints(vec![0, 0, 1, 1]),
                ],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "u2",
                Schema::new([
                    ColumnDef::new("id", ValueType::Int),
                    ColumnDef::new("grp", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![3, 1, 2]),
                    Column::from_ints(vec![1, 0, 0]),
                ],
            )
            .unwrap(),
        );
        let mut qb = QueryBuilder::new(&cat);
        qb.table("u1").unwrap();
        qb.table("u2").unwrap();
        let j1 = qb.col("u1.id").unwrap().eq(qb.col("u2.id").unwrap());
        let j2 = qb.col("u1.grp").unwrap().eq(qb.col("u2.grp").unwrap());
        qb.filter(j1);
        qb.filter(j2);
        qb.select_col("u1.id").unwrap();
        let q = qb.build().unwrap();
        let p = PreparedQuery::new(&q, true, 1);
        assert_eq!(p.composites.len(), 1, "the group itself still exists");
        let plan = p.plan_order(&[0, 1]);
        let pos1 = &plan.positions()[1];
        assert!(
            matches!(pos1.jump, KernelJump::IntEq { .. }),
            "unique component must keep the exact single-column jump"
        );
        assert!(pos1.elided, "the exact jump keeps its elision");
    }

    #[test]
    fn cross_type_int_float_join_gets_no_jump() {
        // `2 = 2.0` is true under numeric widening, but Int and Float
        // key conventions differ (value vs bit pattern) — a key-driven
        // jump would skip the match. The planner must refuse the jump
        // (and any composite group containing such a pair) and fall
        // back to scan + predicate.
        let mut cat = Catalog::new();
        cat.register(
            Table::new(
                "ia",
                Schema::new([
                    ColumnDef::new("k", ValueType::Int),
                    ColumnDef::new("k2", ValueType::Int),
                ]),
                vec![
                    Column::from_ints(vec![1, 2, 3]),
                    Column::from_ints(vec![7, 8, 9]),
                ],
            )
            .unwrap(),
        );
        cat.register(
            Table::new(
                "fb",
                Schema::new([
                    ColumnDef::new("k", ValueType::Float),
                    ColumnDef::new("k2", ValueType::Int),
                ]),
                vec![
                    Column::from_floats(vec![2.0, 3.0, 9.5]),
                    Column::from_ints(vec![8, 9, 7]),
                ],
            )
            .unwrap(),
        );
        let mut qb = QueryBuilder::new(&cat);
        qb.table("ia").unwrap();
        qb.table("fb").unwrap();
        let j = qb.col("ia.k").unwrap().eq(qb.col("fb.k").unwrap());
        qb.filter(j);
        qb.select_col("ia.k").unwrap();
        let q = qb.build().unwrap();
        let p = PreparedQuery::new(&q, true, 1);
        for order in [[0usize, 1], [1usize, 0]] {
            assert!(
                p.plan_spec(&order).positions[1].jump.is_none(),
                "cross-convention pair must not drive a jump"
            );
        }
        // A mixed composite group keeps only its sound pairs: here the
        // Int=Float pair drops out, leaving one pair — no group.
        let mut qb = QueryBuilder::new(&cat);
        qb.table("ia").unwrap();
        qb.table("fb").unwrap();
        let j1 = qb.col("ia.k").unwrap().eq(qb.col("fb.k").unwrap());
        let j2 = qb.col("ia.k2").unwrap().eq(qb.col("fb.k2").unwrap());
        qb.filter(j1);
        qb.filter(j2);
        qb.select_col("ia.k").unwrap();
        let q2 = qb.build().unwrap();
        assert_eq!(q2.composite_key_groups().len(), 1, "structurally a group");
        let p2 = PreparedQuery::new(&q2, true, 1);
        assert!(p2.composites.is_empty(), "unsound pair must not fuse");
        // The surviving Int=Int conjunct still drives a single jump.
        assert!(matches!(
            p2.plan_spec(&[0, 1]).positions[1].jump,
            Some(JumpSpec::Single { .. })
        ));
    }

    #[test]
    fn single_column_joins_unaffected_by_composite_detection() {
        // A query with one equality conjunct per pair must keep its
        // single-column jump exactly as before.
        let cat = catalog();
        let q = query(&cat);
        let p = PreparedQuery::new(&q, true, 1);
        assert!(p.composites.is_empty());
        let spec = p.plan_spec(&[0, 1]);
        assert!(matches!(
            spec.positions[1].jump,
            Some(JumpSpec::Single { .. })
        ));
    }

    #[test]
    fn empty_filter_flags_empty() {
        let cat = catalog();
        let mut qb = QueryBuilder::new(&cat);
        qb.table("a").unwrap();
        qb.table("b").unwrap();
        let j = qb.col("a.id").unwrap().eq(qb.col("b.a_id").unwrap());
        let f = qb.col("a.v").unwrap().gt(Expr::lit(999));
        qb.filter(j);
        qb.filter(f);
        qb.select_col("a.v").unwrap();
        let q = qb.build().unwrap();
        let p = PreparedQuery::new(&q, true, 1);
        assert!(p.any_empty());
    }
}
