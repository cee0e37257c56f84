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

/// Captures a two-thread racing CWL run of `inserts` inserts per thread
/// (seed 42) as MPTRACE2 and returns its path.
fn capture_racing(name: &str, inserts: u64) -> String {
    let trace = tmp(name);
    let out = psim()
        .args([
            "capture", "--queue", "cwl", "--mode", "racing", "--threads", "2", "--inserts",
            &inserts.to_string(), "--seed", "42", "--out", &trace,
        ])
        .output()
        .expect("run psim capture");
    assert!(out.status.success(), "capture failed: {}", String::from_utf8_lossy(&out.stderr));
    trace
}

/// Rewrites an MPTRACE2 capture as MPTRACE1 under `name` and returns
/// that path.
fn to_mptrace1(mptrace2: &str, name: &str) -> String {
    let trace = mem_trace::mmapio::MappedTrace::open(mptrace2)
        .and_then(|map| map.collect())
        .expect("decode capture");
    let path = tmp(name);
    let file = std::fs::File::create(&path).expect("create MPTRACE1 file");
    mem_trace::io::write_trace(&trace, std::io::BufWriter::new(file)).expect("write MPTRACE1");
    path
}

/// Runs psim with `SWEEP_THREADS=threads` and returns its stdout without
/// the single-line meta object, which records the worker count and time.
fn below_meta(args: &[&str], threads: &str) -> String {
    let out = psim().args(args).env("SWEEP_THREADS", threads).output().expect("run psim");
    assert!(out.status.success(), "{args:?} failed: {}", String::from_utf8_lossy(&out.stderr));
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter(|l| !l.starts_with("  \"meta\""))
        .map(|l| format!("{l}\n"))
        .collect()
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
    let trace = capture_racing("pinned.trace", 1200);
    let map = mem_trace::mmapio::MappedTrace::open(&trace).expect("map capture");
    assert!(map.segment_count() >= 2, "want a multi-segment capture, got {}", map.segment_count());
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

/// `psim analyze --json` away from the default granularity, and for one
/// model, on the capture of
/// [`analyze_and_cuts_json_match_checked_in_fixtures`], at one worker and
/// at three. The 64-byte run has accesses that span tracking blocks,
/// evicts atomic blocks, and turns false sharing into conflicts.
///
/// After a deliberate output change, regenerate with:
///
/// ```sh
/// psim capture --queue cwl --mode racing --threads 2 --inserts 1200 --seed 42 --out pin.trace
/// psim analyze --trace pin.trace --json --atomic 64 --tracking 64 | grep -v '^  "meta"' \
///     > crates/bench/tests/fixtures/analyze_cwl_racing_a64_t64.json
/// psim analyze --trace pin.trace --json --model strand | grep -v '^  "meta"' \
///     > crates/bench/tests/fixtures/analyze_cwl_racing_strand.json
/// ```
#[test]
fn analyze_granularity_and_single_model_match_checked_in_fixtures() {
    let trace = capture_racing("pinned_gran.trace", 1200);
    for threads in ["1", "3"] {
        assert_eq!(
            below_meta(
                &["analyze", "--trace", &trace, "--json", "--atomic", "64", "--tracking", "64"],
                threads
            ),
            include_str!("fixtures/analyze_cwl_racing_a64_t64.json"),
            "64-byte analyze at SWEEP_THREADS={threads}"
        );
        assert_eq!(
            below_meta(&["analyze", "--trace", &trace, "--json", "--model", "strand"], threads),
            include_str!("fixtures/analyze_cwl_racing_strand.json"),
            "strand analyze at SWEEP_THREADS={threads}"
        );
    }
}

/// `psim analyze`'s and `psim cuts`'s meta lines report the configured
/// workers and the decode threads that ran: one per worker on a capture
/// with at least as many segments, one on a single-segment capture.
#[test]
fn meta_counts_decode_threads() {
    let multi = capture_racing("meta_multi.trace", 2000);
    let map = mem_trace::mmapio::MappedTrace::open(&multi).expect("map capture");
    assert!(map.segment_count() >= 3, "want 3+ segments, got {}", map.segment_count());
    let single = capture_racing("meta_single.trace", 40);
    for (trace, effective) in [(&multi, 3), (&single, 1)] {
        for cmd in [&["analyze"][..], &["cuts", "--samples", "0"]] {
            let out = psim()
                .args(cmd)
                .args(["--trace", trace, "--json"])
                .env("SWEEP_THREADS", "3")
                .output()
                .expect("run psim");
            assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
            let stdout = String::from_utf8_lossy(&out.stdout);
            let meta = stdout.lines().find(|l| l.starts_with("  \"meta\"")).expect("meta line");
            assert!(meta.contains("\"workers_configured\": 3"), "{cmd:?} {trace}: {meta}");
            let want = format!("\"workers_effective\": {effective}");
            assert!(meta.contains(&want), "{cmd:?} {trace}: {meta}");
        }
    }
}

/// The same capture written as fixed-width MPTRACE1 reproduces the
/// MPTRACE2 fixtures of `analyze` and `cuts` at one worker and at three,
/// and the same `profile` report.
#[test]
fn mptrace1_input_matches_mptrace2_reports() {
    let v2 = capture_racing("pinned_v1src.trace", 1200);
    let v1 = to_mptrace1(&v2, "pinned.mptrace1");
    for threads in ["1", "3"] {
        assert_eq!(
            below_meta(&["analyze", "--trace", &v1, "--json"], threads),
            include_str!("fixtures/analyze_cwl_racing.json"),
            "MPTRACE1 analyze at SWEEP_THREADS={threads}"
        );
        assert_eq!(
            below_meta(
                &["cuts", "--trace", &v1, "--json", "--model", "epoch", "--samples", "0"],
                threads
            ),
            include_str!("fixtures/cuts_cwl_racing_epoch.json"),
            "MPTRACE1 cuts at SWEEP_THREADS={threads}"
        );
    }
    assert_eq!(
        below_meta(&["profile", "--trace", &v1, "--json"], "1"),
        below_meta(&["profile", "--trace", &v2, "--json"], "1"),
        "MPTRACE1 and MPTRACE2 profiles differ"
    );
}

/// Every trace-reading subcommand fails with one exact line on stderr and
/// exit status 1, never a panic, for a missing file, bytes that are no
/// trace, and a capture cut in half in either format.
#[test]
fn trace_input_errors_are_exact() {
    let missing = tmp("missing.trace");
    let _ = std::fs::remove_file(&missing);
    let not_found = std::fs::File::open(&missing).unwrap_err();
    let bad = tmp("not_a_trace.trace");
    std::fs::write(&bad, b"definitely not a trace").unwrap();
    let v2 = capture_racing("truncate_src.trace", 40);
    let v1 = to_mptrace1(&v2, "truncate_src.mptrace1");
    let halve = |src: &str, name: &str| -> String {
        let bytes = std::fs::read(src).unwrap();
        let path = tmp(name);
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        path
    };
    let v2_cut = halve(&v2, "truncated.trace");
    let v1_cut = halve(&v1, "truncated.mptrace1");
    for cmd in ["analyze", "cuts", "profile", "crash"] {
        let v2_cut_msg = if cmd == "cuts" {
            "trace stream failed: truncated event".to_string()
        } else {
            format!("read {v2_cut}: truncated event")
        };
        for (path, msg) in [
            (&missing, format!("open {missing}: {not_found}")),
            (&bad, format!("read {bad}: not an MPTRACE1/MPTRACE2 trace")),
            (&v2_cut, v2_cut_msg),
            (&v1_cut, format!("read {v1_cut}: failed to fill whole buffer")),
        ] {
            let out = psim().args([cmd, "--trace", path]).output().expect("run psim");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(1), "{cmd} {path}: {stderr}");
            assert_eq!(stderr, format!("psim: {msg}\n"), "{cmd} {path}");
            assert!(!stderr.contains("panicked"), "{cmd} {path}: {stderr}");
            assert!(out.stdout.is_empty(), "{cmd} {path} printed a report");
        }
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
    let trace = capture_racing("profile_pinned.trace", 16);
    let fixtures = [
        ("strict", include_str!("fixtures/profile_strict.json")),
        ("strict-rmo", include_str!("fixtures/profile_strict-rmo.json")),
        ("epoch", include_str!("fixtures/profile_epoch.json")),
        ("bpfs", include_str!("fixtures/profile_bpfs.json")),
        ("strand", include_str!("fixtures/profile_strand.json")),
    ];
    for threads in ["1", "3"] {
        for (model, want) in fixtures {
            let got = below_meta(
                &["profile", "--trace", &trace, "--model", model, "--barriers", "13", "--json"],
                threads,
            );
            assert_eq!(got, want, "profile {model} at SWEEP_THREADS={threads}");
        }
    }
}

/// `psim profile --json` on the smallest seed-42 two-thread 2LC captures
/// whose persist DAGs run past the 32 chains of the DAG's reachability
/// index (2 inserts per thread under strand, 206 under epoch), so the
/// off-chain fallback is pinned end to end. Below the meta line the
/// output must reproduce checked-in bytes at one worker and at three.
///
/// After a deliberate output change, regenerate with:
///
/// ```sh
/// psim capture --queue 2lc --threads 2 --inserts 2 --seed 42 --out strand.trace
/// psim profile --trace strand.trace --model strand --barriers 13 --json | grep -v '^  "meta"' \
///     > crates/bench/tests/fixtures/profile_2lc_strand.json
/// psim capture --queue 2lc --threads 2 --inserts 206 --seed 42 --out epoch.trace
/// psim profile --trace epoch.trace --model epoch --barriers 13 --json | grep -v '^  "meta"' \
///     > crates/bench/tests/fixtures/profile_2lc_epoch.json
/// ```
#[test]
fn wide_dag_profiles_match_checked_in_fixtures() {
    let cases = [
        ("strand", 2, include_str!("fixtures/profile_2lc_strand.json")),
        ("epoch", 206, include_str!("fixtures/profile_2lc_epoch.json")),
    ];
    for (model, inserts, want) in cases {
        let trace = tmp(&format!("profile_2lc_{model}.trace"));
        let out = psim()
            .args([
                "capture", "--queue", "2lc", "--threads", "2", "--inserts", &inserts.to_string(),
                "--seed", "42", "--out", &trace,
            ])
            .output()
            .expect("run psim capture");
        assert!(out.status.success(), "capture failed: {}", String::from_utf8_lossy(&out.stderr));
        for threads in ["1", "3"] {
            let got = below_meta(
                &["profile", "--trace", &trace, "--model", model, "--barriers", "13", "--json"],
                threads,
            );
            assert_eq!(got, want, "2LC profile {model} at SWEEP_THREADS={threads}");
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

/// The `[timing]` line counts the events the engines walked: the DAG
/// build, the baseline and one pass per lane walk of what-ifs. Strict
/// persistency folds on no barrier, so its rules decide every candidate
/// and the line counts no what-if walk.
#[test]
fn profile_timing_counts_only_walked_what_ifs() {
    let trace = capture_racing("profile_timing.trace", 16);
    let events = mem_trace::mmapio::MappedTrace::open(&trace)
        .and_then(|map| map.collect())
        .expect("decode capture")
        .events()
        .len() as u64;
    let timed = |model: &str| -> u64 {
        let out = psim()
            .args(["profile", "--trace", &trace, "--model", model, "--barriers", "64"])
            .output()
            .expect("run psim profile");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        let line = stderr
            .lines()
            .find(|l| l.starts_with("[timing] psim profile:"))
            .unwrap_or_else(|| panic!("no timing line in {stderr}"));
        line.split_whitespace().nth(3).and_then(|n| n.parse().ok()).expect("event count")
    };
    assert_eq!(timed("strict"), 2 * events);
    assert!(timed("epoch") > 2 * events);
}

/// `psim analyze`'s `[timing]` line counts the two walks that run: the
/// profile and one engine walk carrying every model as a lane, in the
/// table and the JSON report alike.
#[test]
fn analyze_timing_counts_one_walk_for_every_model() {
    let trace = capture_racing("analyze_timing.trace", 16);
    let events = mem_trace::mmapio::MappedTrace::open(&trace)
        .and_then(|map| map.collect())
        .expect("decode capture")
        .events()
        .len() as u64;
    let timed = |extra: &[&str]| -> u64 {
        let out = psim()
            .args(["analyze", "--trace", &trace])
            .args(extra)
            .output()
            .expect("run psim analyze");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        let line = stderr
            .lines()
            .find(|l| l.starts_with("[timing] psim analyze:"))
            .unwrap_or_else(|| panic!("no timing line in {stderr}"));
        line.split_whitespace().nth(3).and_then(|n| n.parse().ok()).expect("event count")
    };
    assert_eq!(timed(&[]), 2 * events);
    assert_eq!(timed(&["--json"]), 2 * events);
    assert_eq!(timed(&["--model", "strand"]), 2 * events);
}

/// Under `OBSV=1`, `psim analyze` prints the engine's counters on stderr,
/// among them the pages its block tables hold.
#[test]
fn analyze_obsv_prints_engine_counters() {
    let trace = capture_racing("analyze_obsv.trace", 16);
    let out = psim()
        .args(["analyze", "--trace", &trace, "--json"])
        .env("OBSV", "1")
        .output()
        .expect("run psim analyze");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    for counter in ["\"engine.runs\": 1", "\"engine.block_pages\": "] {
        assert!(stderr.contains(counter), "no {counter} in {stderr}");
    }
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
