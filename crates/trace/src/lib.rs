//! SC memory-trace capture — the reproduction's stand-in for the paper's
//! PIN-based tracing pipeline (§7 of *Memory Persistency*, ISCA 2014).
//!
//! The paper instruments queue benchmarks with PIN, serializing every memory
//! access through a bank of per-address locks so that the captured trace is
//! an exact sequentially consistent interleaving ("analysis-atomicity").
//! This crate provides the same artifact for workloads written in Rust:
//!
//! - [`Event`]/[`Op`] — the trace event model: loads, stores, RMWs, persist
//!   barriers, strand barriers, persist sync, persistent malloc/free, and
//!   work markers,
//! - [`TracedMem`]/[`ThreadCtx`] — a shared simulated memory; every access
//!   takes the owning word shard locks, is stamped from a global sequence
//!   counter, and is appended to the issuing thread's event buffer,
//! - [`FreeRunScheduler`]/[`SeededScheduler`] — interleaving control:
//!   free-running real threads (like the paper's native+PIN runs) or a
//!   deterministic seeded round-robin gate for reproducible tests,
//! - [`locks`] — spin, ticket and MCS locks implemented *on top of the
//!   traced memory*, so their accesses appear in the trace (the paper uses
//!   MCS locks for all critical sections),
//! - [`Trace`] — the merged, totally ordered trace with SC validation and
//!   replay,
//! - [`TraceBuilder`] — hand-authored traces, including non-SC visibility
//!   orders used to reproduce the paper's Figure 1 cycle argument,
//! - [`stats`] — insert-distance distributions (§7 "Performance
//!   Validation"),
//! - [`io`] — binary trace serialization (fixed-width MPTRACE1 and the
//!   compact varint/delta MPTRACE2; capture once, analyze many),
//! - [`mmapio`] — zero-copy `mmap` ingestion of MPTRACE2 shards; the
//!   segment-index footer lets independent decoders seek mid-file,
//! - [`EventSource`] — slab delivery: one-pass analyses pull event slabs
//!   from an in-memory [`Trace`] or straight off a mapped MPTRACE2 file
//!   without materializing the event vector.
//!
//! # Example
//!
//! ```rust
//! use mem_trace::{TracedMem, FreeRunScheduler};
//! use persist_mem::MemAddr;
//!
//! let mem = TracedMem::new(FreeRunScheduler);
//! let trace = mem.run(2, |ctx| {
//!     let a = MemAddr::persistent(64);
//!     ctx.store_u64(a.add(8 * ctx.thread_id().as_u64()), 7);
//!     ctx.persist_barrier();
//! });
//! assert_eq!(trace.events().len(), 4); // 2 stores + 2 barriers
//! trace.validate_sc().unwrap();
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod builder;
mod event;
pub mod io;
pub mod locks;
mod mem;
pub mod mmapio;
pub mod profile;
pub mod rng;
mod sched;
mod source;
pub mod stats;
mod trace;

pub use builder::TraceBuilder;
pub use event::{Event, Op, PackedEvent, ThreadId};
pub use mem::{CaptureStats, ThreadCtx, TracedMem};
pub use sched::{FreeRunScheduler, Scheduler, SeededScheduler};
pub use source::{collect_trace, for_each_slab, EventSource, TraceSource, SLAB_EVENTS};
pub use trace::{ScViolation, Trace};
