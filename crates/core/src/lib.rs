//! Memory persistency models and persist-ordering analysis — a from-scratch
//! reproduction of *Memory Persistency* (Pelley, Chen & Wenisch, ISCA 2014).
//!
//! The paper frames the ordering of NVRAM writes ("persists") as a
//! consistency problem: a **recovery observer** atomically reads all of
//! persistent memory at the moment of failure, and a *persistency model*
//! prescribes which persist orderings that observer may witness. Relaxing
//! the model exposes persist concurrency and hides NVRAM write latency.
//!
//! This crate implements the paper's models and its entire evaluation
//! machinery:
//!
//! - [`Model`] — the five persistency models, and [`rules`], the one table
//!   of which orderings each keeps that every engine and consumer reads,
//! - [`timing`] — the persist ordering constraint **critical path**
//!   simulator (§7), with persist coalescing at configurable atomic-persist
//!   granularity and conflict detection at configurable tracking
//!   granularity (Figures 4 and 5),
//! - [`dag`] — an explicit persist-order constraint DAG over the same
//!   semantics, for the recovery observer,
//! - [`observer`] — consistent-cut enumeration/sampling: every recoverable
//!   persistent-memory state,
//! - [`buffer`] — finite persist-buffer and persist-sync simulation (the
//!   §3/§4.1 buffered-execution regime),
//! - [`crash`] — a crash-consistency checker that materializes recovered
//!   images and checks workload invariants over them,
//! - [`cycle`] — the Figure 1 analysis: detecting unenforceable persist
//!   orders when store visibility reorders across persist barriers under
//!   strong persist atomicity,
//! - [`throughput`] — the §8 rate model combining critical path, persist
//!   latency and instruction execution rate.
//!
//! # Example
//!
//! ```rust
//! use mem_trace::{TracedMem, FreeRunScheduler};
//! use persistency::{timing, AnalysisConfig, Model};
//!
//! let mem = TracedMem::new(FreeRunScheduler);
//! let trace = mem.run(1, |ctx| {
//!     let a = ctx.palloc(64, 8).unwrap();
//!     ctx.store_u64(a, 1);          // persist
//!     ctx.persist_barrier();
//!     ctx.store_u64(a.add(8), 2);   // persist, ordered after the first
//! });
//!
//! let strict = timing::analyze(&trace, &AnalysisConfig::new(Model::Strict));
//! let epoch = timing::analyze(&trace, &AnalysisConfig::new(Model::Epoch));
//! assert_eq!(strict.critical_path, 2);
//! assert_eq!(epoch.critical_path, 2); // the barrier orders them here too
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod block_table;
pub mod buffer;
pub mod crash;
pub mod cycle;
pub mod dag;
pub mod litmus;
pub mod exhaustive;
mod domain;
mod engine;
mod model;
pub mod observer;
pub mod partition;
pub mod profile;
pub mod rules;
pub mod smallvec;
pub mod throughput;
pub mod timing;

pub use domain::{EventRef, WriteRec};
pub use model::{AnalysisConfig, Model};
