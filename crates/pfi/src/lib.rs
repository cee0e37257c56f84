//! Persistent fault injection (`pfi`): native crash testing for the
//! recovery protocols built on [`persist_mem::PmemBackend`].
//!
//! The trace-driven analyses elsewhere in this workspace *measure* what a
//! persistency model allows; this crate *exploits* it. A workload runs
//! against a [`ShadowPmem`] that records every store, flush, fence and
//! strand barrier. The injector then picks crash points (systematically
//! and at random), computes which recorded writes the chosen persistency
//! model lets the NVRAM lose, materializes each post-crash
//! [`persist_mem::MemoryImage`], runs the structure's *real* recovery
//! code, and checks its invariants plus linearizable-prefix durability
//! against the pre-crash operation history. Failures are shrunk to a
//! minimal crash point and dropped-line set; re-crashing during recovery
//! (multi-crash) is supported for structures whose recovery itself writes.
//!
//! Modules:
//!
//! - [`shadow`] — the recording backend and [`Recording`];
//! - [`inject`] — fragments, per-model durability/drop rules, crash-case
//!   sampling, legality, materialization and shrinking;
//! - [`replay`] — the delta replayer: checkpoint-ladder materialization
//!   over a pooled scratch image, O(touched lines) per new crash point and
//!   O(survivors + recovery writes) per further injection at that point;
//! - [`targets`] — the fuzz targets (queues, KV store, transaction log),
//!   including the deliberately broken barrier-elided queue;
//! - [`fuzz`] — the per-cell (structure × model) fuzz loop, which visits
//!   each shard's injections in crash-point order;
//! - [`report`] — JSON rendering of fuzz results.

#![warn(missing_docs)]

pub mod fuzz;
pub mod inject;
pub mod replay;
pub mod report;
pub mod shadow;
pub mod targets;

pub use fuzz::{CellPlan, CellReport, FailureReport, FuzzCell, FuzzConfig, ShardReport, Structure};
pub use inject::{CrashCase, Fragment, FragmentSet, Survivor};
pub use replay::Replayer;
pub use shadow::{Recording, ShadowEvent, ShadowPmem};
pub use targets::FuzzTarget;
