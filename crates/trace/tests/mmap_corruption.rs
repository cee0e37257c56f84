//! The mmap reader never panics on damaged MPTRACE2 files.
//!
//! [`MappedTrace`] decodes whatever bytes are on disk, eliding bounds
//! checks only inside a worst-case event window, so every decode path
//! must convert damage — truncation at any length, single-bit flips
//! anywhere (header, body, segment index, trailer), and torn mid-page
//! writes — into `io::Error` or a silent loss of seekability, never a
//! panic or an out-of-bounds read, and must agree with the per-event,
//! fully bounds-checked reference decode. A panic anywhere in this suite
//! fails the test.

use mem_trace::io::{self as trace_io, SlabDecoder};
use mem_trace::mmapio::MappedTrace;
use mem_trace::{EventSource, SeededScheduler, Trace, TracedMem};
use persist_mem::MemAddr;

/// A multi-thread capture; `iters` scales the serialized size.
fn capture(iters: u64) -> Trace {
    let mem = TracedMem::new(SeededScheduler::new(11));
    mem.run(3, |ctx| {
        let t = ctx.thread_id().as_u64();
        let base = MemAddr::persistent(1 << 16).add(t << 13);
        for i in 0..iters {
            ctx.store_u64(base.add(8 * (i % 64)), i);
            if i % 7 == 0 {
                ctx.load_u64(base.add(8 * (i % 64)));
            }
            if i % 9 == 0 {
                ctx.persist_barrier();
            }
            if i % 31 == 0 {
                ctx.work_begin(i);
                ctx.work_end(i);
            }
        }
    })
}

/// Serializes with a small segment index so even small files carry
/// several index entries.
fn image(trace: &Trace, segment_events: u64) -> Vec<u8> {
    let mut bytes = Vec::new();
    trace_io::write_trace2_segmented(trace, &mut bytes, segment_events).unwrap();
    bytes
}

/// Drains one source through both decode paths — the per-event
/// reference and the batched slab — and asserts they accept/reject
/// identically: same decoded prefix, same terminal outcome. Errors are
/// fine; panics and divergence are not. Returns the events decoded.
fn drain_both(reference: SlabDecoder<'_>, slab: SlabDecoder<'_>) -> u64 {
    let (events, outcome) = reference.decode_reference();
    let outcome = outcome.map_err(|e| (e.kind(), e.to_string()));
    let mut src = slab;
    let mut slab_events = Vec::new();
    let slab_outcome = loop {
        match src.fill_slab(&mut slab_events, 128) {
            Ok(0) => break Ok(()),
            Ok(_) => {}
            Err(e) => break Err((e.kind(), e.to_string())),
        }
    };
    assert_eq!(events, slab_events, "slab decode diverged from per-event decode");
    assert_eq!(outcome, slab_outcome, "slab decode accepted/rejected differently");
    events.len() as u64
}

/// Fully drains every decode surface of a parsed image: the sequential
/// source and each segment source, each through the reference *and* the
/// slab path. Errors are fine; panics are not.
fn drain_all(map: &MappedTrace) -> u64 {
    let mut decoded = drain_both(map.source(), map.source());
    for i in 0..map.segment_count() {
        decoded += drain_both(map.segment_source(i), map.segment_source(i));
    }
    decoded
}

#[test]
fn truncation_at_every_length_never_panics() {
    let bytes = image(&capture(80), 64);
    for cut in 0..bytes.len() {
        if let Ok(map) = MappedTrace::from_bytes(bytes[..cut].to_vec()) {
            drain_all(&map);
        }
    }
}

#[test]
fn single_bit_flips_never_panic() {
    let bytes = image(&capture(80), 64);
    let total = bytes.len() as u64;
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut dam = bytes.clone();
            dam[pos] ^= 1 << bit;
            if let Ok(map) = MappedTrace::from_bytes(dam) {
                let decoded = drain_all(&map);
                // The sequential pass plus the per-segment passes revisit
                // each event at most twice; a flip must not inflate the
                // count past the stream's own bound.
                assert!(
                    decoded <= 2 * total,
                    "flip at byte {pos} bit {bit} decoded {decoded} events"
                );
            }
        }
    }
}

#[test]
fn footer_damage_costs_only_seekability() {
    let trace = capture(80);
    let bytes = image(&trace, 64);
    let indexed = MappedTrace::from_bytes(bytes.clone()).unwrap();
    assert!(indexed.is_indexed());
    assert_eq!(indexed.collect().unwrap(), trace);

    // Flip one bit in every byte of the file's tail (index block plus
    // trailer): whether or not the index survives, sequential decode of
    // the main stream must never panic, and when the index is rejected
    // the decode must still reproduce the trace exactly.
    let tail = bytes.len().saturating_sub(128);
    for pos in tail..bytes.len() {
        let mut dam = bytes.clone();
        dam[pos] ^= 0x40;
        if let Ok(map) = MappedTrace::from_bytes(dam) {
            if let Ok(t) = map.collect() {
                if !map.is_indexed() {
                    assert_eq!(t, trace, "flip at {pos}: rejected index must not alter decode");
                }
            }
        }
    }
    // With the trailer magic destroyed outright, decode is exact.
    let mut dam = bytes.clone();
    let n = dam.len();
    dam[n - 1] ^= 0xFF;
    let map = MappedTrace::from_bytes(dam).unwrap();
    assert!(!map.is_indexed(), "broken magic must drop the index");
    assert_eq!(map.collect().unwrap(), trace);
}

#[test]
fn torn_page_writes_never_panic() {
    let bytes = image(&capture(600), 256);
    assert!(bytes.len() > 2 * 4096, "need a multi-page image, got {}", bytes.len());
    // A torn write leaves a 4 KiB page stale: simulate with a page of
    // zeros, a page of 0xFF, and a half-zeroed page, at each boundary.
    for page_start in (0..bytes.len()).step_by(4096).skip(1) {
        let end = (page_start + 4096).min(bytes.len());
        for fill in [0x00u8, 0xFF] {
            let mut dam = bytes.clone();
            for b in &mut dam[page_start..end] {
                *b = fill;
            }
            if let Ok(map) = MappedTrace::from_bytes(dam) {
                drain_all(&map);
            }
        }
        let mid = page_start + (end - page_start) / 2;
        let mut dam = bytes.clone();
        for b in &mut dam[mid..end] {
            *b = 0;
        }
        if let Ok(map) = MappedTrace::from_bytes(dam) {
            drain_all(&map);
        }
    }
}

#[test]
fn damaged_files_on_disk_never_panic() {
    // Same shapes, but through the real mmap path.
    let bytes = image(&capture(600), 256);
    let path =
        std::env::temp_dir().join(format!("mptrace-corrupt-{}.trace", std::process::id()));
    let variants = [
        bytes[..bytes.len() / 2].to_vec(),
        bytes[..10].to_vec(),
        Vec::new(),
        {
            let mut d = bytes.clone();
            let n = d.len();
            d[n / 2] ^= 0x10;
            d
        },
    ];
    for dam in variants {
        std::fs::write(&path, &dam).unwrap();
        if let Ok(map) = MappedTrace::open(&path) {
            drain_all(&map);
        }
    }
    let _ = std::fs::remove_file(&path);
}
