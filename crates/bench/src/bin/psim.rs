//! `psim` — command-line driver for the memory-persistency toolkit.
//!
//! Capture queue workloads to trace files, analyze them under any
//! persistency model, and explore their recovery states:
//!
//! ```text
//! psim capture --queue cwl --mode full --threads 2 --inserts 100 \
//!              --seed 42 --out /tmp/run.trace
//! psim analyze --trace /tmp/run.trace --model epoch [--atomic 64] [--tracking 8]
//! psim cuts    --trace /tmp/run.trace --model epoch --samples 200
//! psim crash   --trace /tmp/run.trace --model strand
//! psim crash-fuzz --structure all --model all --injections 1000 --seed 7
//! ```
//!
//! `capture` writes the compact MPTRACE2 format; every reading subcommand
//! also reads the older fixed-width MPTRACE1. `analyze` and `cuts` decode
//! a mapped MPTRACE2 file segment by segment, so they handle traces larger
//! than memory. `capture` also writes a
//! `.meta` sidecar recording the queue layout so `crash` can run the
//! queue's recovery invariant later. `crash-fuzz` needs no trace: it
//! drives the native protocols through the `pfi` shadow backend and
//! injects model-legal crashes directly.
//!
//! Analysis subcommands accept `--json` for machine-readable output, and
//! exit nonzero when a consistency check fails.

use bench::fmt::num;
use bench::profile as profcli;
use bench::sweep::{SelfTimer, SweepRunner};
use obsv::runmeta::RunMeta;
use obsv::{series, tracefmt};
use mem_trace::mmapio::MappedTrace;
use mem_trace::{io as trace_io, SeededScheduler, Trace, TracedMem};
use persist_mem::{AtomicPersistSize, MemAddr, TrackingGranularity};
use persistency::crash::{check, Exploration};
use persistency::dag::PersistDag;
use persistency::observer::RecoveryObserver;
use persistency::partition::{self, ChunkFeed, TraceChunks};
use persistency::{AnalysisConfig, Model};
use pfi::fuzz::{shard_ranges, CellPlan, FuzzCell, FuzzConfig, ShardReport, Structure};
use pqueue::bounded::{bounded_crash_invariant, run_bounded_workload, BoundedLayout};
use pqueue::recovery::crash_invariant;
use pqueue::traced::{run_2lc_workload, run_cwl_workload, BarrierMode, QueueLayout, QueueParams};
use serve::harness::{render_json, render_table, run_models, Mode, ServeConfig};
use serve::knee::{find_knees, render_knee_json, render_knee_table, KneeConfig};
use serve::StoreKind;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::process::ExitCode;

struct Args(Vec<String>);

impl Args {
    fn get(&self, flag: &str) -> Option<&str> {
        self.0.iter().position(|a| a == flag).and_then(|i| self.0.get(i + 1)).map(|s| s.as_str())
    }

    fn num(&self, flag: &str, default: u64) -> Result<u64, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag} expects a number, got {v}")),
        }
    }

    fn fnum(&self, flag: &str, default: f64) -> Result<f64, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("{flag} expects a number, got {v}")),
        }
    }

    /// A float flag that must be finite and satisfy `ok`; `what` says
    /// which values are allowed, for the error message.
    fn fnum_where(
        &self,
        flag: &str,
        default: f64,
        what: &str,
        ok: impl Fn(f64) -> bool,
    ) -> Result<f64, String> {
        let v = self.fnum(flag, default)?;
        if v.is_finite() && ok(v) {
            Ok(v)
        } else {
            Err(format!("{flag} must be {what}, got {v}"))
        }
    }

    fn required(&self, flag: &str) -> Result<&str, String> {
        self.get(flag).ok_or_else(|| format!("missing required {flag}"))
    }

    fn has(&self, flag: &str) -> bool {
        self.0.iter().any(|a| a == flag)
    }
}

/// Escapes a string for a JSON literal.
fn esc(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' => "\\\"".chars().collect::<Vec<_>>(),
            '\\' => "\\\\".chars().collect(),
            '\n' => "\\n".chars().collect(),
            c if (c as u32) < 0x20 => format!("\\u{:04x}", c as u32).chars().collect(),
            c => vec![c],
        })
        .collect()
}

fn parse_model(s: &str) -> Result<Model, String> {
    Model::ALL
        .into_iter()
        .find(|m| m.name() == s)
        .ok_or_else(|| format!("unknown model {s}; use one of strict, strict-rmo, epoch, bpfs, strand"))
}

/// A `--trace` input. An MPTRACE2 capture is memory-mapped and decoded
/// segment by segment; anything else goes through `read_trace`, which
/// loads an MPTRACE1 file into memory and reports the real error for
/// bytes that are no trace.
enum TraceInput {
    Mapped(MappedTrace),
    Loaded(Trace),
}

impl TraceInput {
    fn open(path: &str) -> Result<Self, String> {
        match MappedTrace::open(path) {
            Ok(map) => Ok(TraceInput::Mapped(map)),
            Err(_) => {
                let f = File::open(path).map_err(|e| format!("open {path}: {e}"))?;
                let trace = trace_io::read_trace(BufReader::new(f))
                    .map_err(|e| format!("read {path}: {e}"))?;
                Ok(TraceInput::Loaded(trace))
            }
        }
    }

    fn event_count(&self) -> u64 {
        match self {
            TraceInput::Mapped(map) => map.event_count(),
            TraceInput::Loaded(trace) => trace.events().len() as u64,
        }
    }

    /// Runs `f` over the input as chunks: a mapped file's segments, or a
    /// loaded trace as one chunk.
    fn with_feed<R>(&self, f: impl FnOnce(&dyn ChunkFeed) -> R) -> R {
        match self {
            TraceInput::Mapped(map) => f(map),
            TraceInput::Loaded(trace) => f(&TraceChunks::new(trace, usize::MAX)),
        }
    }

    /// The whole input as an in-memory trace.
    fn into_trace(self) -> io::Result<Trace> {
        match self {
            TraceInput::Mapped(map) => map.collect(),
            TraceInput::Loaded(trace) => Ok(trace),
        }
    }
}

/// Loads `--trace` as an in-memory trace, for commands that walk it more
/// than once.
fn load_trace(path: &str) -> Result<Trace, String> {
    TraceInput::open(path)?.into_trace().map_err(|e| format!("read {path}: {e}"))
}

/// Serializes a capture as MPTRACE2.
fn write_capture(trace: &Trace, out: &str) -> Result<(), String> {
    let f = File::create(out).map_err(|e| format!("create {out}: {e}"))?;
    trace_io::write_trace2(trace, BufWriter::new(f)).map_err(|e| format!("write {out}: {e}"))
}

fn config_from(args: &Args, model: Model) -> Result<AnalysisConfig, String> {
    let mut cfg = AnalysisConfig::new(model);
    if let Some(a) = args.get("--atomic") {
        let bytes = a.parse().map_err(|_| format!("bad --atomic {a}"))?;
        cfg = cfg.with_atomic_persist(AtomicPersistSize::new(bytes).map_err(|e| e.to_string())?);
    }
    if let Some(t) = args.get("--tracking") {
        let bytes = t.parse().map_err(|_| format!("bad --tracking {t}"))?;
        cfg = cfg.with_tracking(TrackingGranularity::new(bytes).map_err(|e| e.to_string())?);
    }
    Ok(cfg)
}

/// Arms the time-resolved observability layers from `--timeline FILE`,
/// `--series-ns N`, `--timeline-sample N`, and `--obsv`. Any of them
/// opens the one-atomic obsv gate; the series and trace layers stay off
/// unless their own flag asks for them. Returns the timeline output
/// path, if one was requested.
fn arm_observability(args: &Args) -> Result<Option<String>, String> {
    let timeline = args.get("--timeline").map(str::to_owned);
    let series_ns = args.num("--series-ns", 0)?;
    if timeline.is_some() || series_ns != 0 || args.has("--obsv") {
        obsv::set_enabled(true);
    }
    if series_ns != 0 {
        series::set_window_ns(series_ns);
    }
    if timeline.is_some() {
        tracefmt::set_recording(true);
        tracefmt::set_sample(args.num("--timeline-sample", 16)?);
    }
    Ok(timeline)
}

/// Writes the recorded timeline as Chrome-trace-event JSON (loadable in
/// Perfetto / `chrome://tracing`).
fn write_timeline(path: &str, meta: &RunMeta) -> Result<(), String> {
    let json = tracefmt::render(&meta.to_json_object());
    std::fs::write(path, json).map_err(|e| format!("write {path}: {e}"))
}

/// Splices the windowed series (restricted to `prefix`) into a rendered
/// report as a top-level `"series"` member, just before the closing
/// brace. Returns the report unchanged when the series layer is off.
fn splice_series(json: String, prefix: &str) -> String {
    if !series::active() {
        return json;
    }
    obsv::flush();
    let block = series::snapshot().filter_prefix(prefix).to_json("  ");
    let Some(pos) = json.rfind('}') else { return json };
    let head = json[..pos].trim_end();
    format!("{head},\n  \"series\": {block}\n{}", &json[pos..])
}

/// Splices the obsv counter/histogram snapshot (restricted to `prefix`)
/// into a rendered report as a top-level `"obsv"` member.
fn splice_obsv(json: String, prefix: &str) -> String {
    obsv::flush();
    let block = obsv::snapshot().filter_prefix(prefix).to_json();
    let block = block.trim_end().replace('\n', "\n  ");
    let Some(pos) = json.rfind('}') else { return json };
    let head = json[..pos].trim_end();
    format!("{head},\n  \"obsv\": {block}\n{}", &json[pos..])
}

/// Under `OBSV`, writes the `capture.*` counters to stderr: the
/// scheduler's `turns`, `handoffs` (turns granted to another thread) and
/// `parks`, beside the executor's event counts.
fn print_capture_obsv() {
    if obsv::enabled() {
        eprint!("{}", obsv::snapshot().filter_prefix("capture.").to_json_full());
    }
}

fn cmd_capture(args: &Args) -> Result<u64, String> {
    let queue = args.get("--queue").unwrap_or("cwl");
    let threads = args.num("--threads", 1)? as u32;
    let inserts = args.num("--inserts", 100)?;
    let seed = args.num("--seed", 42)?;
    let capacity = args.num("--capacity", (threads as u64 * inserts).next_power_of_two().max(64))?;
    let out = args.required("--out")?;

    let params = QueueParams::new(capacity);
    let (trace, layout): (Trace, QueueLayout) = match queue {
        "cwl" => {
            let mode = match args.get("--mode").unwrap_or("full") {
                "full" => BarrierMode::Full,
                "racing" => BarrierMode::Racing,
                other => return Err(format!("unknown --mode {other}; use full or racing")),
            };
            run_cwl_workload(TracedMem::new(SeededScheduler::new(seed)), params, mode, threads, inserts)
        }
        "2lc" => {
            run_2lc_workload(TracedMem::new(SeededScheduler::new(seed)), params, threads, inserts)
        }
        "bounded" => {
            // Producer/consumer variant: `threads` producers + 1 consumer.
            let (trace, blayout) = run_bounded_workload(
                TracedMem::new(SeededScheduler::new(seed)),
                params,
                threads,
                inserts,
            );
            trace.validate_sc().map_err(|e| format!("non-SC capture: {e}"))?;
            write_capture(&trace, out)?;
            let meta = format!(
                "queue=bounded\nhead={}\ntail={}\ndata={}\ncapacity_entries={}\nrecovery_margin=0\n",
                blayout.head.to_bits(),
                blayout.tail.to_bits(),
                blayout.data.to_bits(),
                blayout.params.capacity_entries,
            );
            let mut mf = File::create(format!("{out}.meta")).map_err(|e| e.to_string())?;
            mf.write_all(meta.as_bytes()).map_err(|e| e.to_string())?;
            print_capture_obsv();
            println!(
                "captured {} events ({} persists, {} inserts + consumer) to {out}",
                trace.events().len(),
                trace.persist_count(),
                trace.work_count()
            );
            return Ok(trace.events().len() as u64);
        }
        other => return Err(format!("unknown --queue {other}; use cwl, 2lc or bounded")),
    };
    trace.validate_sc().map_err(|e| format!("capture produced a non-SC trace: {e}"))?;

    write_capture(&trace, out)?;
    // Sidecar metadata for `crash`.
    let meta = format!(
        "queue={queue}\nhead={}\ndata={}\ncapacity_entries={}\nrecovery_margin={}\n",
        layout.head.to_bits(),
        layout.data.to_bits(),
        layout.params.capacity_entries,
        layout.params.recovery_margin,
    );
    let mut mf = File::create(format!("{out}.meta")).map_err(|e| e.to_string())?;
    mf.write_all(meta.as_bytes()).map_err(|e| e.to_string())?;
    print_capture_obsv();
    println!(
        "captured {} events ({} persists, {} inserts) to {out}",
        trace.events().len(),
        trace.persist_count(),
        trace.work_count()
    );
    Ok(trace.events().len() as u64)
}

fn load_layout(path: &str) -> Result<QueueLayout, String> {
    let meta = std::fs::read_to_string(format!("{path}.meta"))
        .map_err(|e| format!("read {path}.meta: {e}"))?;
    let field = |k: &str| -> Result<u64, String> {
        meta.lines()
            .find_map(|l| l.strip_prefix(&format!("{k}=")))
            .ok_or_else(|| format!("{path}.meta missing {k}"))?
            .parse()
            .map_err(|_| format!("{path}.meta has bad {k}"))
    };
    let mut params = QueueParams::new(field("capacity_entries")?);
    let margin = field("recovery_margin")?;
    if margin > 0 {
        params = params.with_recovery_margin(margin);
    }
    Ok(QueueLayout {
        head: MemAddr::from_bits(field("head")?),
        data: MemAddr::from_bits(field("data")?),
        params,
    })
}

fn cmd_analyze(args: &Args) -> Result<u64, String> {
    // One pass feeds the profile and one engine walk that carries every
    // model as a lane. A mapped capture is decoded chunk-parallel: the
    // segment index lets decode workers fill one shared in-order window.
    // The output below the meta line is byte-identical for any worker
    // count.
    let path = args.required("--trace")?;
    let timeline = arm_observability(args)?;
    let models: Vec<Model> = match args.get("--model") {
        Some(m) => vec![parse_model(m)?],
        None => Model::ALL.to_vec(),
    };
    let configs: Vec<AnalysisConfig> =
        models.iter().map(|&m| config_from(args, m)).collect::<Result<_, _>>()?;
    let workers = SweepRunner::from_env().workers();
    let (decoders, analysis) = TraceInput::open(path)?.with_feed(|feed| {
        (partition::decode_threads(feed, workers), partition::analyze_full(feed, &configs, workers))
    });
    let (profile, reports) = analysis.map_err(|e| format!("read {path}: {e}"))?;
    // The `[timing]` line counts the events each sink walked: the
    // profile and one engine walk per lane group.
    let sinks = partition::analyze_sinks(&configs);
    let meta = RunMeta::collect(workers, decoders);
    if obsv::enabled() {
        eprint!("{}", obsv::snapshot().filter_prefix("engine.").to_json_full());
    }
    if args.has("--json") {
        let mut rows = Vec::new();
        for (model, r) in models.iter().zip(&reports) {
            rows.push(format!(
                "    {{\"model\": \"{}\", \"critical_path\": {}, \"critical_path_per_insert\": {:.3}, \"persists\": {}, \"coalesced\": {}, \"barriers\": {}}}",
                model,
                r.critical_path,
                r.critical_path_per_work(),
                r.stats.persist_ops,
                r.stats.coalesced,
                r.stats.barriers
            ));
        }
        let json = format!(
            "{{\n  \"schema\": \"psim_analyze_v1\",\n  \"meta\": {},\n  \"trace\": {{\"events\": {}, \"persists\": {}, \"persist_barriers\": {}, \"work_items\": {}}},\n  \"models\": [\n{}\n  ]\n}}",
            meta.to_json_object(),
            profile.events,
            profile.persists,
            profile.persist_barriers,
            profile.work_items,
            rows.join(",\n")
        );
        println!("{}", splice_series(json, "analyze."));
        if let Some(path) = &timeline {
            write_timeline(path, &meta)?;
        }
        return Ok(profile.events * sinks as u64);
    }
    println!(
        "trace: {} events, {} persists ({}% of accesses), {} barriers, \
         mean epoch {} persists, {} work items",
        profile.events,
        profile.persists,
        (100.0 * profile.persist_density()).round(),
        profile.persist_barriers,
        num(profile.mean_epoch_size()),
        profile.work_items
    );
    println!();
    println!(
        "{:<11} {:>12} {:>10} {:>10} {:>10} {:>10}",
        "model", "critical", "cp/insert", "persists", "coalesced", "barriers"
    );
    for (model, r) in models.iter().zip(&reports) {
        println!(
            "{:<11} {:>12} {:>10} {:>10} {:>10} {:>10}",
            model.to_string(),
            r.critical_path,
            num(r.critical_path_per_work()),
            r.stats.persist_ops,
            r.stats.coalesced,
            r.stats.barriers
        );
    }
    if let Some(path) = &timeline {
        write_timeline(path, &meta)?;
    }
    Ok(profile.events * sinks as u64)
}

fn cmd_cuts(args: &Args) -> Result<u64, String> {
    let path = args.required("--trace")?;
    let model = parse_model(args.get("--model").unwrap_or("epoch"))?;
    let samples = args.num("--samples", 100)? as usize;
    let cfg = config_from(args, model)?;
    // The DAG build consumes events in stream order, so a mapped capture
    // feeds it through the decode-parallel window without loading the
    // event vector.
    let input = TraceInput::open(path)?;
    let workers = SweepRunner::from_env().workers();
    let (decoders, dag) = input.with_feed(|feed| {
        (partition::decode_threads(feed, workers), partition::build_dag(feed, &cfg, workers))
    });
    let dag = dag.map_err(|e| e.to_string())?;
    let events = input.event_count();
    let obs = RecoveryObserver::new(&dag);
    let cuts = obs.sample_cuts(args.num("--seed", 1)?, samples);
    let sizes: Vec<usize> = cuts.iter().map(|c| c.len()).collect();
    let max = sizes.iter().copied().max().unwrap_or(0);
    if args.has("--json") {
        println!(
            "{{\n  \"schema\": \"psim_cuts_v1\",\n  \"meta\": {},\n  \"model\": \"{model}\",\n  \"persists\": {},\n  \"states_sampled\": {},\n  \"max_cut\": {max}\n}}",
            RunMeta::collect(workers, decoders).to_json_object(),
            dag.len(),
            cuts.len()
        );
        return Ok(events);
    }
    println!("model {model}: {} persists, {} distinct recovery states sampled", dag.len(), cuts.len());
    println!("cut sizes: min 0, max {max} (full = {})", dag.len());
    Ok(events)
}

fn cmd_crash(args: &Args) -> Result<u64, String> {
    let path = args.required("--trace")?;
    let trace = load_trace(path)?;
    let model = parse_model(args.get("--model").unwrap_or("epoch"))?;
    let cfg = config_from(args, model)?;
    let dag = PersistDag::build(&trace, &cfg).map_err(|e| e.to_string())?;
    let exploration = Exploration::Sampled {
        seed: args.num("--seed", 1)?,
        extensions: args.num("--samples", 200)? as usize,
    };
    let meta = std::fs::read_to_string(format!("{path}.meta"))
        .map_err(|e| format!("read {path}.meta: {e}"))?;
    let report = if meta.contains("queue=bounded") {
        let field = |k: &str| -> Result<u64, String> {
            meta.lines()
                .find_map(|l| l.strip_prefix(&format!("{k}=")))
                .ok_or_else(|| format!("{path}.meta missing {k}"))?
                .parse()
                .map_err(|_| format!("{path}.meta has bad {k}"))
        };
        let blayout = BoundedLayout {
            head: MemAddr::from_bits(field("head")?),
            tail: MemAddr::from_bits(field("tail")?),
            data: MemAddr::from_bits(field("data")?),
            params: QueueParams::new(field("capacity_entries")?),
        };
        check(&dag, exploration, bounded_crash_invariant(blayout)).map_err(|e| e.to_string())?
    } else {
        let layout = load_layout(path)?;
        check(&dag, exploration, crash_invariant(layout)).map_err(|e| e.to_string())?
    };
    if args.has("--json") {
        let violations = report
            .violations
            .iter()
            .take(3)
            .map(|v| format!("\"{}\"", esc(&v.to_string())))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "{{\n  \"schema\": \"psim_crash_v1\",\n  \"meta\": {},\n  \"model\": \"{model}\",\n  \"consistent\": {},\n  \"violations\": [{violations}]\n}}",
            RunMeta::collect(1, 1).to_json_object(),
            report.is_consistent()
        );
    } else {
        println!("model {model}: {report}");
        if !report.is_consistent() {
            for v in report.violations.iter().take(3) {
                println!("  {v}");
            }
        }
    }
    if !report.is_consistent() {
        return Err("recovery invariant violated".into());
    }
    Ok(trace.events().len() as u64)
}

fn cmd_crash_fuzz(args: &Args) -> Result<u64, String> {
    let timeline = arm_observability(args)?;
    let structures: Vec<Structure> = match args.get("--structure") {
        None | Some("all") => Structure::ALL.to_vec(),
        Some("stock") => Structure::STOCK.to_vec(),
        Some(s) => vec![Structure::from_name(s).ok_or_else(|| {
            format!("unknown --structure {s}; use all, stock, cwl, cwl-elided, 2lc, kv or txn")
        })?],
    };
    let models: Vec<Model> = match args.get("--model") {
        None | Some("all") => Model::ALL.to_vec(),
        Some(m) => vec![parse_model(m)?],
    };
    let cfg = FuzzConfig {
        ops: args.num("--ops", 24)?,
        injections: args.num("--injections", 1000)?,
        seed: args.num("--seed", 7)?,
        multi_crash: !args.has("--no-multi-crash"),
        torn: args.has("--torn"),
    };
    let cells: Vec<FuzzCell> = structures
        .iter()
        .flat_map(|&structure| models.iter().map(move |&model| FuzzCell { structure, model }))
        .collect();

    // Every injection owns a private RNG stream, so cells can be split
    // into injection shards at any boundary and the merged report is
    // byte-identical for any worker count.
    let runner = SweepRunner::from_env();
    let plans: Vec<CellPlan> = cells.iter().map(|&cell| CellPlan::new(&cfg, cell)).collect();
    let shards_per_cell = runner.workers() as u64;
    let items: Vec<(usize, u64, u64)> = plans
        .iter()
        .enumerate()
        .flat_map(|(ci, plan)| {
            shard_ranges(plan.injections(), shards_per_cell)
                .into_iter()
                .map(move |(lo, hi)| (ci, lo, hi))
        })
        .collect();
    let shard_reports = runner.run(&items, |_, &(ci, lo, hi)| plans[ci].run_shard(lo, hi));
    let mut grouped: Vec<Vec<ShardReport>> = plans.iter().map(|_| Vec::new()).collect();
    for (&(ci, _, _), r) in items.iter().zip(shard_reports) {
        grouped[ci].push(r);
    }
    let reports: Vec<_> =
        plans.iter().zip(&grouped).map(|(plan, shards)| plan.merge(shards)).collect();
    let meta = RunMeta::collect(runner.workers(), runner.effective_workers(items.len()));
    let json = pfi::report::render_with_meta(&cfg, &reports, Some(&meta.to_json_object()));
    let json = splice_series(json, "pfi.");
    if let Some(path) = &timeline {
        write_timeline(path, &meta)?;
    }
    if let Some(path) = args.get("--out") {
        std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
    }
    if args.has("--json") {
        print!("{json}");
    } else {
        println!(
            "crash-fuzz: {} cells, {} injections each, ops {}, seed {}, multi-crash {}, torn {}, {} workers",
            cells.len(),
            cfg.injections,
            cfg.ops,
            cfg.seed,
            cfg.multi_crash,
            cfg.torn,
            runner.workers()
        );
        println!(
            "{:<11} {:<11} {:>7} {:>11} {:>12} {:>9}",
            "structure", "model", "events", "injections", "rec-crashes", "failures"
        );
        for r in &reports {
            println!(
                "{:<11} {:<11} {:>7} {:>11} {:>12} {:>9}",
                r.structure, r.model, r.events, r.injections, r.recovery_crashes, r.failures
            );
        }
        for r in &reports {
            if let Some(f) = &r.first_failure {
                let second = f
                    .second_crash_point
                    .map(|p| format!(" then at recovery event {p}"))
                    .unwrap_or_default();
                println!(
                    "FAIL {}/{}: crash at event {}{} dropping lines {:?}: {}",
                    r.structure, r.model, f.crash_point, second, f.dropped_lines, f.message
                );
            }
        }
    }
    let failing = reports.iter().filter(|r| !r.passed()).count();
    if failing > 0 {
        return Err(format!("crash-fuzz found failures in {failing} cell(s)"));
    }
    Ok(reports.iter().map(|r| r.events as u64).sum())
}

fn cmd_profile(args: &Args) -> Result<u64, String> {
    let path = args.required("--trace")?;
    // Profiling walks the trace several times (DAG build, baseline, one
    // pass per lane group of walked barrier what-ifs), so materialize it.
    let trace = load_trace(path)?;
    let model = parse_model(args.get("--model").unwrap_or("epoch"))?;
    let cfg = config_from(args, model)?;
    let top = args.num("--top", 10)? as usize;
    let max_barriers = args.num("--barriers", 64)? as usize;

    let runner = SweepRunner::from_env();
    let report = profcli::run_profile(&trace, &cfg, max_barriers, &runner)
        .map_err(|e| e.to_string())?;
    // Events pushed through the engines, one sweep cell each: the DAG
    // build, the baseline timing pass and every lane walk of what-ifs the
    // rules left open.
    let cells = 2 + report.lane_walks;
    let events = trace.events().len() as u64 * cells as u64;
    if obsv::enabled() {
        eprint!("{}", obsv::snapshot().filter_prefix("profile.").to_json_full());
    }

    if args.has("--json") {
        let meta = RunMeta::collect(runner.workers(), runner.effective_workers(cells));
        let json = profcli::render_json(&report, &meta, top);
        if let Some(path) = args.get("--out") {
            std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
        }
        print!("{json}");
    } else {
        print!("{}", profcli::render_table(&report, top));
    }
    Ok(events)
}

fn cmd_serve(args: &Args) -> Result<u64, String> {
    let kind = args.get("--structure").unwrap_or("kv");
    let kind = StoreKind::from_name(kind)
        .ok_or_else(|| format!("unknown --structure {kind}; use kv, queue or txn"))?;
    let models: Vec<Model> = match args.get("--model") {
        None | Some("all") => Model::ALL.to_vec(),
        Some(m) => vec![parse_model(m)?],
    };
    let mut cfg = ServeConfig::new(kind);
    cfg.shards = args.num("--shards", cfg.shards as u64)?.max(1) as usize;
    cfg.keys = args.num("--keys", cfg.keys)?.max(1);
    cfg.ops = args.num("--ops", cfg.ops)?;
    let positive = |flag: &str, default: f64| {
        args.fnum_where(flag, default, "positive and finite", |v| v > 0.0)
    };
    let nonnegative = |flag: &str, default: f64| {
        args.fnum_where(flag, default, "nonnegative and finite", |v| v >= 0.0)
    };
    cfg.rate_ops_per_sec = positive("--rate", cfg.rate_ops_per_sec)?;
    cfg.theta = args.fnum_where("--theta", cfg.theta, "in [0, 1)", |v| (0.0..1.0).contains(&v))?;
    cfg.get_ratio =
        args.fnum_where("--get-ratio", cfg.get_ratio, "in [0, 1]", |v| (0.0..=1.0).contains(&v))?;
    cfg.qdepth = args.num("--qdepth", cfg.qdepth as u64)?.max(1) as usize;
    cfg.batch = args.num("--batch", cfg.batch as u64)?.max(1) as usize;
    cfg.batch_wait_ns = nonnegative("--batch-wait-ns", cfg.batch_wait_ns)?;
    cfg.cpu_ns = nonnegative("--cpu-ns", cfg.cpu_ns)?;
    cfg.banks = args.num("--banks", cfg.banks as u64)?.max(1) as usize;
    cfg.write_latency_ns = positive("--latency", cfg.write_latency_ns)?;
    cfg.interleave_bytes = args.num("--interleave", cfg.interleave_bytes)?;
    cfg.seed = args.num("--seed", cfg.seed)?;
    if !cfg.interleave_bytes.is_power_of_two() {
        return Err(format!("--interleave must be a power of two, got {}", cfg.interleave_bytes));
    }
    // `--smoke` runs the deterministic virtual-time simulation (the CI
    // determinism contract); the default paces real worker threads.
    let mode = if args.has("--smoke") { Mode::Virtual } else { Mode::Wall };
    let timeline = arm_observability(args)?;
    let runner = SweepRunner::from_env();
    if args.has("--knee") {
        // Saturation-knee sweep: always virtual time (each probe is a full
        // deterministic run; --rate is ignored, the sweep owns the rate).
        let knee = KneeConfig {
            shed_frac: nonnegative("--knee-shed", 0.01)?,
            p99_limit_ns: nonnegative("--knee-p99", 0.0)?,
            rate_floor: positive("--knee-floor", 50_000.0)?,
            probes: args.num("--knee-probes", 6)? as usize,
            workers: runner.workers(),
        };
        let results = find_knees(&cfg, &models, &knee)?;
        let runs: u64 = results.iter().map(|k| k.runs as u64).sum();
        let meta = RunMeta::collect(runner.workers(), runner.effective_workers(cfg.shards));
        let json = render_knee_json(&cfg, &knee, &results, &meta.to_json_object());
        let json = splice_series(json, "serve.");
        if let Some(path) = &timeline {
            write_timeline(path, &meta)?;
        }
        if let Some(path) = args.get("--out") {
            std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
        }
        if args.has("--json") {
            print!("{json}");
        } else {
            print!("{}", render_knee_table(&cfg, &knee, &results));
        }
        return Ok(cfg.ops * runs);
    }
    let reports = run_models(&cfg, &models, mode, runner.workers())?;
    let meta = RunMeta::collect(runner.workers(), runner.effective_workers(cfg.shards));
    let mut json = render_json(&cfg, mode, &reports, &meta.to_json_object());
    json = splice_series(json, "serve.");
    if args.has("--obsv") {
        // Whole-run counters and histograms the report's own summary rows
        // don't carry (see the harness `serve.*` obsv block).
        json = splice_obsv(json, "serve.");
    }
    if let Some(path) = &timeline {
        write_timeline(path, &meta)?;
    }
    if let Some(path) = args.get("--out") {
        std::fs::write(path, &json).map_err(|e| format!("write {path}: {e}"))?;
    }
    if args.has("--json") {
        print!("{json}");
    } else {
        print!("{}", render_table(&cfg, mode, &reports));
    }
    Ok(cfg.ops * models.len() as u64)
}

fn usage() -> String {
    "usage: psim <capture|analyze|cuts|crash|crash-fuzz|profile|serve> [flags]\n\
     capture:    --queue cwl|2lc|bounded [--mode full|racing] [--threads N] [--inserts N]\n\
                 [--seed N] [--capacity N] --out FILE  (writes MPTRACE2)\n\
     analyze:    --trace FILE [--model NAME] [--atomic N] [--tracking N] [--json]\n\
     cuts:       --trace FILE [--model NAME] [--samples N] [--seed N] [--json]\n\
     crash:      --trace FILE [--model NAME] [--samples N] [--seed N] [--json]\n\
     crash-fuzz: [--structure all|stock|cwl|cwl-elided|2lc|kv|txn] [--model all|NAME]\n\
                 [--ops N] [--injections N] [--seed N] [--no-multi-crash] [--torn]\n\
                 [--json] [--out FILE] [--serial]\n\
     profile:    --trace FILE [--model NAME] [--atomic N] [--tracking N] [--top N]\n\
                 [--barriers N] [--json] [--out FILE] [--serial]\n\
     serve:      [--structure kv|queue|txn] [--model all|NAME] [--shards N] [--keys N]\n\
                 [--ops N] [--rate OPS_PER_SEC] [--theta F] [--get-ratio F] [--qdepth N]\n\
                 [--batch N] [--batch-wait-ns F] [--cpu-ns F] [--banks N] [--latency NS]\n\
                 [--interleave BYTES] [--seed N] [--smoke] [--json] [--out FILE] [--serial]\n\
                 [--knee [--knee-shed F] [--knee-p99 NS] [--knee-floor OPS] [--knee-probes N]]\n\
                 [--obsv]  (--smoke = virtual time; --knee = saturation sweep, always virtual)\n\
     time-resolved (analyze, crash-fuzz, serve):\n\
                 [--timeline FILE.json]  write a Perfetto-loadable trace-event timeline\n\
                 [--timeline-sample N]   keep 1-in-N request spans / stall markers (default 16)\n\
                 [--series-ns N]         windowed metric series, embedded in --json reports\n\
                 (serve --obsv embeds the whole-run obsv counter block in the report)\n\
     analysis commands exit nonzero when a consistency check fails"
        .into()
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = argv.first().cloned() else {
        eprintln!("{}", usage());
        return ExitCode::FAILURE;
    };
    let args = Args(argv);
    // Every subcommand self-times through the obsv layer; the `[timing]`
    // stderr line is the rendered view (stdout stays untouched for the
    // determinism tests).
    let timer = SelfTimer::start(&format!("psim {cmd}"), &SweepRunner::from_env());
    let result = match cmd.as_str() {
        "capture" => cmd_capture(&args),
        "analyze" => cmd_analyze(&args),
        "cuts" => cmd_cuts(&args),
        "crash" => cmd_crash(&args),
        "crash-fuzz" => cmd_crash_fuzz(&args),
        "profile" => cmd_profile(&args),
        "serve" => cmd_serve(&args),
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(0)
        }
        other => Err(format!("unknown command {other}\n{}", usage())),
    };
    match result {
        Ok(events) => {
            timer.finish(events);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("psim: {e}");
            ExitCode::FAILURE
        }
    }
}
