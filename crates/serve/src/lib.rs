//! Sharded open-loop service harness with per-model tail-latency
//! attribution.
//!
//! The analysis crates in this repo answer the paper's question — how much
//! persist concurrency does each persistency model *admit* — by measuring
//! critical paths over captured traces. This crate asks the operational
//! follow-up: what do those models do to the **tail latency of a live
//! store**? It runs the repo's native persistent structures
//! ([`pstruct::kv::PersistentKv`], [`pqueue::pmem::PmemCwlQueue`],
//! [`pstruct::txn::UndoLog`]) as a sharded in-process service under an
//! open-loop Zipfian workload, couples every persist to a finite-bank
//! NVRAM device model, and reports p50/p99/p999 per persistency model.
//!
//! Pipeline:
//!
//! 1. [`gen`] — seeded open-loop generator: Poisson arrivals at a
//!    configured rate, Zipfian keys over millions of distinct keys,
//!    a hash partition of keys onto shards, and the compact per-shard
//!    arrival logs the virtual-time mode replays.
//! 2. [`shard`] — each shard is an independent recovery unit: one
//!    structure instance over a private persistent image, validated by
//!    actually running recovery after the run.
//! 3. [`device`] — a per-shard [`device::ShardDevice`] mirrors every
//!    persist into banked NVRAM timing under the semantics of the active
//!    [`persistency::Model`]; this is where strict ordering turns into
//!    queueing delay and epoch/strand concurrency turns into overlap.
//! 4. [`harness`] — admission control (bounded queue + shed accounting),
//!    virtual-time deterministic simulation or wall-clock worker threads,
//!    and merged [`harness::ModelReport`]s rendered as a table or the
//!    `psim_serve_v1` JSON schema.

#![warn(missing_docs)]

pub mod device;
pub mod gen;
pub mod harness;
pub mod knee;
pub mod shard;

pub use device::{DeviceStats, ShardDevice};
pub use gen::{shard_of, Op, OpKind, OpStream, Zipfian};
pub use harness::{run_model, run_models, ModelReport, Mode, ServeConfig};
pub use knee::{find_knee, find_knees, KneeConfig, KneeLimit, KneeResult};
pub use shard::{Shard, StoreKind};
