//! Pinned capture bytes: seeded captures must encode to the same MPTRACE2
//! bytes as before, whatever the scheduler does internally to hand the
//! turn over. Each case is the in-process twin of
//!
//! ```text
//! psim capture --queue Q [--mode racing] --threads T --inserts 16 --seed 42 --out x.trace
//! ```
//!
//! and its pin is the FNV-1a 64 of that file. Thread counts 1–8 cover
//! both of the scheduler's waits on a small host: spinning while every
//! capture thread fits a core, parking when they do not.

use mem_trace::io::write_trace2;
use mem_trace::{SeededScheduler, Trace, TracedMem};
use pqueue::bounded::run_bounded_workload;
use pqueue::traced::{run_2lc_workload, run_cwl_workload, BarrierMode, QueueParams};
use std::process::Command;

const SEED: u64 = 42;
const INSERTS: u64 = 16;

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ b as u64).wrapping_mul(0x100_0000_01b3))
}

fn mem() -> TracedMem<SeededScheduler> {
    TracedMem::new(SeededScheduler::new(SEED))
}

/// The queue capacity `psim capture` picks.
fn params(threads: u32) -> QueueParams {
    QueueParams::new((threads as u64 * INSERTS).next_power_of_two().max(64))
}

fn pin(trace: &Trace) -> u64 {
    let mut bytes = Vec::new();
    write_trace2(trace, &mut bytes).expect("encode capture");
    fnv64(&bytes)
}

#[test]
fn racing_cwl_captures_match_pins() {
    for (threads, want) in [
        (1, 0xb895_942c_9c5f_a090),
        (2, 0x8ebb_32dc_cf42_93a5),
        (3, 0x47ed_a614_da69_3042),
        (4, 0x2411_6970_9f6a_540a),
        (8, 0xd7b8_16bc_9b6c_133a),
    ] {
        let (trace, _) = run_cwl_workload(mem(), params(threads), BarrierMode::Racing, threads, INSERTS);
        assert_eq!(pin(&trace), want, "cwl racing, {threads} threads");
    }
}

#[test]
fn two_lock_capture_matches_pin() {
    let (trace, _) = run_2lc_workload(mem(), params(2), 2, INSERTS);
    assert_eq!(pin(&trace), 0x6e9d_a8e7_be12_0d75);
}

#[test]
fn bounded_capture_matches_pin() {
    // Two producers plus the consumer thread.
    let (trace, _) = run_bounded_workload(mem(), params(2), 2, INSERTS);
    assert_eq!(pin(&trace), 0x9fd5_ecaa_7572_f7fe);
}

/// `OBSV=1 psim capture` explains its scheduler on stderr: the turn and
/// hand-off counts are part of the seeded schedule, so two runs agree on
/// them (parks depend on timing and are not compared).
#[test]
fn obsv_capture_reports_turns_and_handoffs() {
    let dir = std::env::temp_dir().join("psim-capture-pins");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let out = dir.join("obsv.trace");
    let run = || {
        let o = Command::new(env!("CARGO_BIN_EXE_psim"))
            .args(["capture", "--queue", "cwl", "--mode", "racing", "--threads", "3"])
            .args(["--inserts", "16", "--out"])
            .arg(&out)
            .env("OBSV", "1")
            .output()
            .expect("run psim capture");
        assert!(o.status.success(), "capture failed: {}", String::from_utf8_lossy(&o.stderr));
        let stderr = String::from_utf8(o.stderr).unwrap();
        let counter = |name: &str| -> u64 {
            let key = format!("\"{name}\": ");
            let at = stderr.find(&key).unwrap_or_else(|| panic!("no {name} in {stderr}"));
            let digits: String =
                stderr[at + key.len()..].chars().take_while(char::is_ascii_digit).collect();
            digits.parse().unwrap()
        };
        (counter("capture.events"), counter("capture.turns"), counter("capture.handoffs"))
    };
    let (events, turns, handoffs) = run();
    assert_eq!(events, 2420);
    // Bulk copies stamp several events in one turn.
    assert!(0 < turns && turns <= events, "turns {turns}, events {events}");
    assert!(0 < handoffs && handoffs <= turns, "handoffs {handoffs}, turns {turns}");
    assert_eq!(run(), (events, turns, handoffs));
}
