//! # skinner-codegen
//!
//! The join kernel: the reproduction's stand-in for Skinner-C's
//! per-query code generation (§6 of Trummer et al., SIGMOD 2019).
//!
//! The paper compiles each query into a specialized execution loop so
//! that the millions of per-tuple steps the regret-bounded executor
//! takes stay cheap. This crate is the safe-Rust analogue:
//! [`CompiledKernel`] is a join order *bound* to a prepared query (the
//! engine's `PreparedQuery::plan_order` produces one per order) and
//! executed by one depth-first loop (see [`kernel`]):
//!
//! * the position count is a runtime value (1 to
//!   [`skinner_query::MAX_TABLES`]), with per-position cursors in a
//!   fixed-capacity stack array, so no slice allocates;
//! * index-driven positions walk posting-list cursors — one hash probe
//!   per descent, one slice pop per advance — for integer, float, fused
//!   composite ([`KernelJump::FusedEq`]) and string/nullable
//!   ([`KernelJump::KeyEq`], with an explicit null-reject) keys;
//! * index-implied exact integer equalities are elided;
//! * the last position runs in a tight leaf loop with its fields
//!   hoisted, under exactly the same step accounting, so a slice never
//!   spends more than its step budget.
//!
//! Every order of every query runs on this one kernel, sequentially or
//! through the engine's offset-range partitioning. The engine keeps one
//! other executor, the interpreted `MultiwayJoin::continue_join_generic`,
//! as the differential oracle; both speak the [`ResultSink`] protocol
//! defined here and produce byte-for-byte identical results, which the
//! differential properties in the workspace's `tests/property.rs` and
//! `tests/fuzz_differential.rs` enforce.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernel;
pub mod sink;

pub use kernel::{CompiledKernel, KernelJump, KernelPosition};
pub use sink::{ContinueResult, ResultSink};
