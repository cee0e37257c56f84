//! End-to-end tests of the `psim` CLI binary.

use std::process::Command;

fn psim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_psim"))
}

fn tmp(name: &str) -> String {
    let dir = std::env::temp_dir().join("psim-cli-tests");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name).to_string_lossy().into_owned()
}

#[test]
fn capture_analyze_cuts_crash_roundtrip() {
    let trace = tmp("roundtrip.trace");
    let out = psim()
        .args(["capture", "--queue", "cwl", "--threads", "2", "--inserts", "8", "--out", &trace])
        .output()
        .expect("run psim capture");
    assert!(out.status.success(), "capture failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("16 inserts"));
    assert!(std::path::Path::new(&format!("{trace}.meta")).exists());

    let out = psim().args(["analyze", "--trace", &trace]).output().expect("analyze");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for model in ["strict", "strict-rmo", "epoch", "bpfs", "strand"] {
        assert!(text.contains(model), "analyze output missing {model}:\n{text}");
    }

    let out = psim()
        .args(["cuts", "--trace", &trace, "--model", "epoch", "--samples", "20"])
        .output()
        .expect("cuts");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("recovery states"));

    let out = psim()
        .args(["crash", "--trace", &trace, "--model", "strand", "--samples", "50"])
        .output()
        .expect("crash");
    assert!(out.status.success(), "crash check failed: {}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("consistent"));
}

#[test]
fn capture_bounded_and_crash_under_strand() {
    let trace = tmp("bounded.trace");
    let out = psim()
        .args([
            "capture", "--queue", "bounded", "--threads", "1", "--inserts", "10", "--capacity",
            "4", "--out", &trace,
        ])
        .output()
        .expect("capture bounded");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let out = psim()
        .args(["crash", "--trace", &trace, "--model", "strand", "--samples", "60"])
        .output()
        .expect("crash bounded");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stdout));
}

#[test]
fn analyze_respects_granularity_flags() {
    let trace = tmp("gran.trace");
    assert!(psim()
        .args(["capture", "--queue", "cwl", "--inserts", "20", "--out", &trace])
        .status()
        .expect("capture")
        .success());
    let fine = psim()
        .args(["analyze", "--trace", &trace, "--model", "strict", "--atomic", "8"])
        .output()
        .expect("analyze fine");
    let coarse = psim()
        .args(["analyze", "--trace", &trace, "--model", "strict", "--atomic", "256"])
        .output()
        .expect("analyze coarse");
    // Figure 4's effect visible through the CLI: coarse atomic persists
    // shrink strict's critical path.
    let cp = |o: &std::process::Output| -> u64 {
        String::from_utf8_lossy(&o.stdout)
            .lines()
            .find(|l| l.trim_start().starts_with("strict "))
            .and_then(|l| l.split_whitespace().nth(1).map(|v| v.parse().unwrap()))
            .expect("strict row")
    };
    assert!(cp(&fine) > cp(&coarse), "fine {} vs coarse {}", cp(&fine), cp(&coarse));
}

#[test]
fn profile_json_is_byte_identical_across_worker_counts() {
    let trace = tmp("profile.trace");
    assert!(psim()
        .args(["capture", "--queue", "cwl", "--threads", "2", "--inserts", "30", "--out", &trace])
        .status()
        .expect("capture")
        .success());

    let run = |threads: &str| -> String {
        let out = psim()
            .args(["profile", "--trace", &trace, "--model", "epoch", "--barriers", "16", "--json"])
            .env("SWEEP_THREADS", threads)
            .output()
            .expect("profile");
        assert!(out.status.success(), "profile failed: {}", String::from_utf8_lossy(&out.stderr));
        // Only the single-line meta object may vary (it records the
        // effective worker count and timestamp).
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.trim_start().starts_with("\"meta\""))
            .collect::<Vec<_>>()
            .join("\n")
    };
    let serial = run("1");
    assert_eq!(serial, run("4"), "profile JSON diverged between 1 and 4 workers");
    assert!(serial.contains("\"schema\": \"psim_profile_v1\""));
    assert!(serial.contains("\"critical_path\""));
    assert!(serial.contains("\"checks\""));
}

/// `psim analyze --json` and `psim cuts --json`, below the meta line, must
/// reproduce checked-in bytes at one worker and at three: a worker-count
/// diff alone misses a change applied to both paths alike. `cuts` runs
/// with zero samples, which pins the DAG build; sampling keeps every
/// prefix of every linear extension, quadratic in the DAG's 36k nodes.
///
/// After a deliberate output change, regenerate with:
///
/// ```sh
/// psim capture --queue cwl --mode racing --threads 2 --inserts 1200 --seed 42 --out pin.trace
/// psim analyze --trace pin.trace --json | grep -v '^  "meta"' \
///     > crates/bench/tests/fixtures/analyze_cwl_racing.json
/// psim cuts --trace pin.trace --json --model epoch --samples 0 | grep -v '^  "meta"' \
///     > crates/bench/tests/fixtures/cuts_cwl_racing_epoch.json
/// ```
#[test]
fn analyze_and_cuts_json_match_checked_in_fixtures() {
    let trace = tmp("pinned.trace");
    let out = psim()
        .args([
            "capture", "--queue", "cwl", "--mode", "racing", "--threads", "2", "--inserts",
            "1200", "--seed", "42", "--out", &trace,
        ])
        .output()
        .expect("run psim capture");
    assert!(out.status.success(), "capture failed: {}", String::from_utf8_lossy(&out.stderr));
    let map = mem_trace::mmapio::MappedTrace::open(&trace).expect("map capture");
    assert!(map.segment_count() >= 2, "want a multi-segment capture, got {}", map.segment_count());

    let below_meta = |args: &[&str], threads: &str| -> String {
        let out = psim().args(args).env("SWEEP_THREADS", threads).output().expect("run psim");
        assert!(out.status.success(), "{args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("  \"meta\""))
            .map(|l| format!("{l}\n"))
            .collect()
    };
    for threads in ["1", "3"] {
        assert_eq!(
            below_meta(&["analyze", "--trace", &trace, "--json"], threads),
            include_str!("fixtures/analyze_cwl_racing.json"),
            "analyze at SWEEP_THREADS={threads}"
        );
        assert_eq!(
            below_meta(
                &["cuts", "--trace", &trace, "--json", "--model", "epoch", "--samples", "0"],
                threads
            ),
            include_str!("fixtures/cuts_cwl_racing_epoch.json"),
            "cuts at SWEEP_THREADS={threads}"
        );
    }
}

/// `psim profile --json`, below the meta line, must reproduce checked-in
/// bytes under every model at one worker and at three. Thirteen barriers
/// make an uneven split into lane groups: one full group of eight and a
/// partial one of five.
///
/// After a deliberate output change, regenerate with:
///
/// ```sh
/// psim capture --queue cwl --mode racing --threads 2 --inserts 16 --seed 42 --out pin.trace
/// for m in strict strict-rmo epoch bpfs strand; do
///     psim profile --trace pin.trace --model $m --barriers 13 --json | grep -v '^  "meta"' \
///         > crates/bench/tests/fixtures/profile_$m.json
/// done
/// ```
#[test]
fn profile_json_matches_checked_in_fixtures() {
    let trace = tmp("profile_pinned.trace");
    let out = psim()
        .args([
            "capture", "--queue", "cwl", "--mode", "racing", "--threads", "2", "--inserts", "16",
            "--seed", "42", "--out", &trace,
        ])
        .output()
        .expect("run psim capture");
    assert!(out.status.success(), "capture failed: {}", String::from_utf8_lossy(&out.stderr));
    let fixtures = [
        ("strict", include_str!("fixtures/profile_strict.json")),
        ("strict-rmo", include_str!("fixtures/profile_strict-rmo.json")),
        ("epoch", include_str!("fixtures/profile_epoch.json")),
        ("bpfs", include_str!("fixtures/profile_bpfs.json")),
        ("strand", include_str!("fixtures/profile_strand.json")),
    ];
    for threads in ["1", "3"] {
        for (model, want) in fixtures {
            let out = psim()
                .args(["profile", "--trace", &trace, "--model", model, "--barriers", "13", "--json"])
                .env("SWEEP_THREADS", threads)
                .output()
                .expect("run psim profile");
            assert!(out.status.success(), "{model}: {}", String::from_utf8_lossy(&out.stderr));
            let got: String = String::from_utf8_lossy(&out.stdout)
                .lines()
                .filter(|l| !l.starts_with("  \"meta\""))
                .map(|l| format!("{l}\n"))
                .collect();
            assert_eq!(got, want, "profile {model} at SWEEP_THREADS={threads}");
        }
    }
}

/// `psim crash-fuzz --json` over every structure and model with torn
/// persists, below the meta line, must reproduce checked-in bytes at one
/// worker and at three. The four relaxed-model cells of the barrier-elided
/// queue fail, so the fixture also pins their shrunk reproducers (crash
/// point and dropped lines) and the exit status.
///
/// After a deliberate output change, regenerate with:
///
/// ```sh
/// psim crash-fuzz --structure all --model all --ops 16 --injections 400 --torn --seed 7 \
///     --json | grep -v '^  "meta"' > crates/bench/tests/fixtures/crash_fuzz_all_torn.json
/// ```
#[test]
fn crash_fuzz_json_matches_checked_in_fixture() {
    for threads in ["1", "3"] {
        let out = psim()
            .args([
                "crash-fuzz", "--structure", "all", "--model", "all", "--ops", "16",
                "--injections", "400", "--torn", "--seed", "7", "--json",
            ])
            .env("SWEEP_THREADS", threads)
            .output()
            .expect("run psim crash-fuzz");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "SWEEP_THREADS={threads}: {stderr}");
        assert!(
            stderr.contains("crash-fuzz found failures in 4 cell(s)"),
            "SWEEP_THREADS={threads}: {stderr}"
        );
        let got: String = String::from_utf8_lossy(&out.stdout)
            .lines()
            .filter(|l| !l.starts_with("  \"meta\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert_eq!(
            got,
            include_str!("fixtures/crash_fuzz_all_torn.json"),
            "crash-fuzz at SWEEP_THREADS={threads}"
        );
    }
}

#[test]
fn profile_table_reports_sources_and_barriers() {
    let trace = tmp("profile_table.trace");
    assert!(psim()
        .args(["capture", "--queue", "2lc", "--threads", "2", "--inserts", "20", "--out", &trace])
        .status()
        .expect("capture")
        .success());
    let out = psim()
        .args(["profile", "--trace", &trace, "--model", "epoch"])
        .output()
        .expect("profile");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("critical path"), "missing header:\n{text}");
    assert!(text.contains("top constraint sources"), "missing sources:\n{text}");
    assert!(text.contains("barriers:"), "missing barrier section:\n{text}");
}

#[test]
fn errors_are_reported_cleanly() {
    // Unknown command.
    let out = psim().arg("frobnicate").output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    // Missing trace file.
    let out = psim().args(["analyze", "--trace", "/nonexistent.trace"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("open"));

    // Bad model name.
    let trace = tmp("err.trace");
    assert!(psim()
        .args(["capture", "--queue", "cwl", "--inserts", "3", "--out", &trace])
        .status()
        .expect("capture")
        .success());
    let out = psim().args(["analyze", "--trace", &trace, "--model", "sc"]).output().expect("run");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown model"));

    // Corrupt trace file.
    let bad = tmp("bad.trace");
    std::fs::write(&bad, b"definitely not a trace").unwrap();
    let out = psim().args(["analyze", "--trace", &bad]).output().expect("run");
    assert!(!out.status.success());

    // Non-finite or out-of-range serve flags: an error naming the flag,
    // never a panic and never a report.
    for (flag, value) in [
        ("--rate", "nan"),
        ("--rate", "inf"),
        ("--rate", "0"),
        ("--cpu-ns", "nan"),
        ("--cpu-ns", "-1"),
        ("--latency", "nan"),
        ("--latency", "0"),
        ("--batch-wait-ns", "-1e12"),
        ("--batch-wait-ns", "inf"),
        ("--theta", "nan"),
        ("--get-ratio", "nan"),
        ("--interleave", "3"),
        ("--knee-shed", "nan"),
        ("--knee-p99", "-1"),
        ("--knee-floor", "nan"),
    ] {
        let mut args = vec!["serve", "--smoke", "--ops", "100", "--keys", "100", flag, value];
        if flag.starts_with("--knee") {
            args.push("--knee");
        }
        let out = psim().args(&args).output().expect("run");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{flag} {value} not named: {stderr}");
        assert!(!stderr.contains("panicked"), "{flag} {value} panicked: {stderr}");
        assert!(out.stdout.is_empty(), "{flag} {value} rendered a report");
    }
}

#[test]
fn help_prints_usage() {
    let out = psim().arg("--help").output().expect("run");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for cmd in ["capture", "analyze", "cuts", "crash", "profile"] {
        assert!(text.contains(cmd));
    }
}
