//! Differential tests: batched slab decoding vs the per-event reference.
//!
//! `SlabDecoder::fill_slab` — the only MPTRACE2 decoder, behind
//! `MappedTrace` sources, segment sources and `read_trace` — elides
//! bounds checks inside a worst-case event window.
//! `SlabDecoder::decode_reference` decodes the same bytes one event at a
//! time with every read bounds-checked. This suite holds the two
//! bit-equal: on randomized traces covering every tag kind, extreme
//! ("wrapping") offset deltas, and arbitrary thread interleavings, both
//! must decode the identical event sequence; and on damaged inputs
//! (truncation at every length, bit flips) both must accept or reject
//! exactly the same bytes with the same error, never panicking.

use mem_trace::io::{self as trace_io, SlabDecoder};
use mem_trace::mmapio::MappedTrace;
use mem_trace::rng::SmallRng;
use mem_trace::{Event, EventSource, Op, ThreadId, Trace};
use persist_mem::MemAddr;
use std::io::ErrorKind;

/// Terminal outcome of a drain: clean end or `(kind, message)`.
type Outcome = Result<(), (ErrorKind, String)>;

/// Decodes everything through the per-event reference decoder.
fn drain_reference(src: SlabDecoder<'_>) -> (Vec<Event>, Outcome) {
    let (events, res) = src.decode_reference();
    (events, res.map_err(|e| (e.kind(), e.to_string())))
}

/// Decodes everything through `fill_slab` in blocks of `max`.
fn drain_slabs<E: EventSource>(mut src: E, max: usize) -> (Vec<Event>, Outcome) {
    let mut out = Vec::new();
    loop {
        match src.fill_slab(&mut out, max) {
            Ok(0) => return (out, Ok(())),
            Ok(_) => {}
            Err(e) => return (out, Err((e.kind(), e.to_string()))),
        }
    }
}

/// A random address exercising the delta predictor's extremes: small
/// offsets, offsets near the top of the 63-bit space, and uniform jumps
/// — consecutive events wrap from one end of the space to the other, so
/// the zigzag deltas cover the largest positive and negative values.
fn rand_addr(rng: &mut SmallRng) -> MemAddr {
    let offset = match rng.gen_below(4) {
        0 => rng.gen_below(1 << 12),
        1 => (1 << 62) + rng.gen_below(1 << 12),
        2 => ((1u64 << 63) - 1) - rng.gen_below(1 << 12),
        _ => rng.next_u64() & ((1u64 << 63) - 1),
    };
    if rng.gen_below(2) == 0 {
        MemAddr::persistent(offset)
    } else {
        MemAddr::volatile(offset)
    }
}

/// One random op, uniform over every tag kind.
fn rand_op(rng: &mut SmallRng) -> Op {
    let len = (rng.gen_below(8) + 1) as u8;
    let mask = u64::MAX >> (64 - 8 * len as u32);
    match rng.gen_below(11) {
        0 => Op::Load { addr: rand_addr(rng), len, value: rng.next_u64() & mask },
        1 => Op::Store { addr: rand_addr(rng), len, value: rng.next_u64() & mask },
        2 => Op::Rmw {
            addr: rand_addr(rng),
            len,
            old: rng.next_u64() & mask,
            new: rng.next_u64() & mask,
        },
        3 => Op::PersistBarrier,
        4 => Op::MemBarrier,
        5 => Op::NewStrand,
        6 => Op::PersistSync,
        7 => Op::PAlloc { addr: rand_addr(rng), size: rng.next_u64() },
        8 => Op::PFree { addr: rand_addr(rng) },
        9 => Op::WorkBegin { id: rng.next_u64() },
        _ => Op::WorkEnd { id: rng.next_u64() },
    }
}

/// A trace of `n` random ops interleaved across `nthreads` threads.
fn rand_trace(rng: &mut SmallRng, nthreads: u32, n: usize) -> Trace {
    let mut po = vec![0u32; nthreads as usize];
    let events = (0..n)
        .map(|_| {
            let t = rng.gen_below(u64::from(nthreads)) as usize;
            let e = Event { thread: ThreadId(t as u32), po: po[t], op: rand_op(rng) };
            po[t] += 1;
            e
        })
        .collect();
    Trace::from_events(nthreads, events)
}

#[test]
fn slab_decode_matches_per_event_on_random_traces() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF_5AB5);
    let sizes = [0usize, 1, 2, 37, 500, 3000];
    for case in 0..24 {
        let nthreads = 1 + (case % 5) as u32;
        let n = sizes[case % sizes.len()];
        let trace = rand_trace(&mut rng, nthreads, n);
        // Unindexed, densely indexed, and default-indexed images.
        for seg in [0u64, 64, 1 << 16] {
            let mut bytes = Vec::new();
            trace_io::write_trace2_segmented(&trace, &mut bytes, seg).unwrap();
            let map = MappedTrace::from_bytes(bytes.clone()).unwrap();

            // Reference: one checked decode per event.
            let (ref_events, ref_res) = drain_reference(map.source());
            assert!(ref_res.is_ok());
            assert_eq!(ref_events, trace.events(), "per-event reference is the roundtrip oracle");

            // The slab decoder over the whole stream, at awkward block sizes.
            for max in [1usize, 7, 911, 4096, usize::MAX] {
                let (ev, res) = drain_slabs(map.source(), max);
                assert!(res.is_ok(), "case {case} seg {seg} max {max}: {res:?}");
                assert_eq!(ev, trace.events(), "case {case} seg {seg} max {max}");
            }
            assert_eq!(trace_io::read_trace(bytes.as_slice()).unwrap(), trace);

            // Per-segment decodes concatenate to the exact stream, on both paths.
            let (mut segev, mut refev) = (Vec::new(), Vec::new());
            for i in 0..map.segment_count() {
                map.segment_source(i).fill_slab(&mut segev, usize::MAX).unwrap();
                let (ev, res) = drain_reference(map.segment_source(i));
                assert!(res.is_ok());
                refev.extend(ev);
            }
            assert_eq!(segev, trace.events(), "case {case} seg {seg} segment concat");
            assert_eq!(refev, trace.events(), "case {case} seg {seg} reference segment concat");
        }
    }
}

#[test]
fn in_memory_source_slab_override_matches() {
    let mut rng = SmallRng::seed_from_u64(42);
    let trace = rand_trace(&mut rng, 4, 257);
    for max in [1usize, 13, 10_000] {
        let (ev, res) = drain_slabs(trace.source(), max);
        assert!(res.is_ok());
        assert_eq!(ev, trace.events(), "max {max}");
    }
}

/// Asserts the reference and slab paths agree on `bytes` — same decoded
/// prefix, same terminal accept/reject — on the whole stream and every
/// segment, and that `read_trace` accepts exactly what they accept.
fn assert_paths_agree(bytes: &[u8]) {
    let read = trace_io::read_trace(bytes);
    let Ok(map) = MappedTrace::from_bytes(bytes.to_vec()) else {
        // A header that does not parse is rejected by every path.
        assert!(read.is_err(), "read_trace accepted a header the mapper rejects");
        return;
    };
    let (ev_r, res_r) = drain_reference(map.source());
    let (ev_s, res_s) = drain_slabs(map.source(), 256);
    assert_eq!(ev_r, ev_s, "stream: decoded prefixes diverge");
    assert_eq!(res_r, res_s, "stream: outcomes diverge");
    match (read, res_r) {
        (Ok(t), Ok(())) => assert_eq!(t.events(), ev_r.as_slice(), "read_trace diverges"),
        (Err(e), Err(r)) => assert_eq!((e.kind(), e.to_string()), r, "read_trace error diverges"),
        (read, res) => panic!("read_trace {:?} vs reference {res:?}", read.map(|_| ())),
    }
    for i in 0..map.segment_count() {
        let (ev_r, res_r) = drain_reference(map.segment_source(i));
        let (ev_s, res_s) = drain_slabs(map.segment_source(i), 256);
        assert_eq!(ev_r, ev_s, "segment {i}: decoded prefixes diverge");
        assert_eq!(res_r, res_s, "segment {i}: outcomes diverge");
    }
}

/// Appends `v` as a ten-byte varint: the longest encoding a decoder
/// accepts (non-canonical for every value below 2^63).
fn var10(out: &mut Vec<u8>, v: u64) {
    for i in 0..9 {
        out.push(((v >> (7 * i)) & 0x7F) as u8 | 0x80);
    }
    out.push((v >> 63) as u8);
}

/// An image of worst-case events only: persistent 8-byte RMWs whose five
/// varints are all padded to ten bytes, 51 bytes each — the most one
/// event decode can read. Cutting it at every length puts the last
/// event's start at every distance from the end of the slice, on both
/// sides of the window inside which the slab loop elides bounds checks.
#[test]
fn worst_case_events_agree_at_every_cut() {
    let n = 4u8;
    let mut bytes = b"MPTRACE2".to_vec();
    bytes.extend([1, n]); // varint(nthreads), varint(count)
    let (mut want, mut offset) = (Vec::new(), 0u64);
    for i in 0..u64::from(n) {
        let delta = 1u64 << (40 + i);
        offset += delta;
        let (old, new) = (u64::MAX - i, i << 60);
        bytes.push(0xF2); // RMW, len 8, persistent space
        for field in [0, 0, 2 * delta, old, new] {
            // thread 0, dense program order, zigzag(+delta), old, new
            var10(&mut bytes, field);
        }
        let op = Op::Rmw { addr: MemAddr::persistent(offset), len: 8, old, new };
        want.push(Event { thread: ThreadId(0), po: i as u32, op });
    }
    assert_eq!(bytes.len(), 10 + 51 * usize::from(n));
    let map = MappedTrace::from_bytes(bytes.clone()).unwrap();
    assert_eq!(drain_reference(map.source()), (want.clone(), Ok(())));
    assert_eq!(drain_slabs(map.source(), usize::MAX), (want, Ok(())));
    for cut in 0..bytes.len() {
        assert_paths_agree(&bytes[..cut]);
    }
}

#[test]
fn truncation_accept_reject_is_identical() {
    let mut rng = SmallRng::seed_from_u64(99);
    let trace = rand_trace(&mut rng, 3, 220);
    let mut bytes = Vec::new();
    trace_io::write_trace2_segmented(&trace, &mut bytes, 64).unwrap();
    for cut in 0..bytes.len() {
        assert_paths_agree(&bytes[..cut]);
    }
}

#[test]
fn bit_flip_accept_reject_is_identical() {
    let mut rng = SmallRng::seed_from_u64(1234);
    let trace = rand_trace(&mut rng, 3, 150);
    let mut bytes = Vec::new();
    trace_io::write_trace2_segmented(&trace, &mut bytes, 64).unwrap();
    for pos in 0..bytes.len() {
        for bit in 0..8 {
            let mut dam = bytes.clone();
            dam[pos] ^= 1 << bit;
            assert_paths_agree(&dam);
        }
    }
}
