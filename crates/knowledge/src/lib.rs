//! # skinner-knowledge
//!
//! Cross-query knowledge: learning that transfers to queries that have
//! *never run before*.
//!
//! The service layer's `LearningCache` reuses a complete learned state —
//! UCT snapshot plus bound plans — but only for an exact template match
//! ([`TemplateKey`](skinner_query::TemplateKey)). Every genuinely new
//! query still pays the full cold-start exploration cost, even when the
//! workload has joined the same tables on the same keys hundreds of
//! times. This crate closes that gap with a [`KnowledgeStore`] keyed by
//! *coarse* fingerprints ([`skinner_query::fingerprint`]) that recur
//! across templates:
//!
//! * per-(table, predicate-shape) **observed selectivities** — how many
//!   rows survived pre-processing, and
//! * per-join-edge **directed reward statistics** — the mean slice
//!   reward earned when one side of an equi-join edge preceded the
//!   other in the chosen order.
//!
//! After every finished run, [`observe`] extracts both from the
//! engine's [`ExecMetrics`](skinner_engine::ExecMetrics) and
//! [`KnowledgeStore::record`] folds them in. Before a cold run,
//! [`KnowledgeStore::seed`] assembles an
//! [`ArmPriors`](skinner_uct::ArmPriors) table for the query's
//! join-order space: optimistic initialization that biases UCT's
//! exploration *order* toward historically rewarding arms without ever
//! pruning one — prior-seeded runs produce results identical to cold
//! runs, only (usually) in fewer exploration slices.
//!
//! Knowledge is catalog-versioned: every entry carries the
//! `(table name, version)` pairs it was learned against, entries are
//! dropped eagerly when a table is re-registered
//! ([`KnowledgeStore::invalidate_table`]) and skipped lazily when their
//! versions no longer match at seed time. [`persist`] gives the store
//! the same crash-safe single-file durability as the learning cache.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod persist;
pub mod store;

pub use store::{
    observe, EdgeObs, EdgeStat, KnowledgeConfig, KnowledgeStats, KnowledgeStore, Observation,
    TableObs, TableStat,
};
