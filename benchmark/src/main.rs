//! `mpbench` — end-to-end and layer-attributed benchmark of the
//! memory-persistency toolkit.
//!
//! ```text
//! mpbench --workload NAME --seed N [--seconds S] [--trace 0|1]
//!         [--out RESULT.json] [--spans SPANS.json] [--workdir DIR]
//!         [--golden FILE] [--bless]
//! ```
//!
//! One call runs one workload (see `workloads`) in this process and
//! prints a human summary followed, as the last line of stdout, by one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1` the
//! workload runs decomposed into per-layer calls inside spans and the
//! metrics are the per-layer ones (the layer table goes to stdout, the
//! spans to `--spans` as a Perfetto-loadable timeline). Outputs are
//! checked against `golden.json` for the seeds it holds; a mismatch fails
//! the repetitions it occurred in and the exit code is 1. `--bless`
//! records the current outputs as golden instead. Exit code 2 means the
//! run could not be carried out and nothing was printed.

mod golden;
mod json;
mod metrics;
mod run;
mod spans;
mod workloads;

use golden::Golden;
use run::Opts;
use std::path::PathBuf;
use std::process::ExitCode;

struct Cli {
    opts: Opts,
    out: Option<PathBuf>,
    spans: Option<PathBuf>,
    workdir: PathBuf,
    golden: PathBuf,
    bless: bool,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut cli_out = None;
    let mut spans = None;
    let mut workdir = PathBuf::from("mpbench-work");
    let mut golden = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("golden.json");
    let mut bless = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--bless" {
            bless = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("--seconds must be in [0, 3600], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace expects 0 or 1, got {value}")),
                }
            }
            "--out" => cli_out = Some(PathBuf::from(value)),
            "--spans" => spans = Some(PathBuf::from(value)),
            "--workdir" => workdir = PathBuf::from(value),
            "--golden" => golden = PathBuf::from(value),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; use one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    if bless && trace {
        return Err("--bless records untraced outputs; run it with --trace 0".into());
    }
    Ok(Cli {
        opts: Opts {
            workload,
            seed: seed.ok_or("missing --seed")?,
            seconds,
            trace,
        },
        out: cli_out,
        spans,
        workdir,
        golden,
        bless,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mpbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// `Ok(correct)` once a result was printed; `Err` when none could be.
fn real_main(args: &[String]) -> Result<bool, String> {
    let cli = parse(args)?;
    // The program's own instrumentation stays off: traced or not, the
    // measured code is the code users run.
    obsv::set_enabled(false);
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 2 {
        return Err(format!(
            "needs at least 2 cores for its 2 load threads, found {cores}"
        ));
    }
    let mut golden = Golden::load(&cli.golden)?;
    let reference = if cli.bless {
        Golden::default()
    } else {
        golden.clone()
    };
    let out = run::run(
        &cli.opts,
        workloads::Scale::full(),
        &cli.workdir,
        &reference,
    )?;
    let meta = obsv::runmeta::RunMeta::collect(2, 2);

    let o = &cli.opts;
    println!(
        "mpbench {} seed {} ({}): {} operations, {} failed, golden {}, host {} cores, rev {}",
        o.workload,
        o.seed,
        if o.trace { "traced" } else { "untraced" },
        out.attempted,
        out.failed,
        if out.has_golden {
            "checked"
        } else {
            "none for this seed"
        },
        meta.host_cores,
        meta.git_rev
    );
    for e in &out.errors {
        println!("  error: {e}");
    }
    if let Some(table) = &out.table {
        print!("{table}");
    }
    for m in out.metrics.iter().chain(&out.detail) {
        println!("  {:<40} {:>18} {}", m.name, json::num(m.value), m.unit);
    }
    if let (Some(path), Some(tl)) = (&cli.spans, &out.timeline) {
        std::fs::write(path, tl).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if let Some(path) = &cli.out {
        std::fs::write(path, metrics::result_file(o, &out, &meta))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    if cli.bless && out.semantic.is_empty() {
        println!(
            "nothing to bless: {} has no deterministic outputs",
            o.workload
        );
    } else if cli.bless && out.correct() {
        golden.set(&o.workload, o.seed, out.semantic.clone());
        std::fs::write(&cli.golden, golden.render())
            .map_err(|e| format!("write {}: {e}", cli.golden.display()))?;
        println!(
            "blessed {} seed {} into {}",
            o.workload,
            o.seed,
            cli.golden.display()
        );
    }
    println!("{}", metrics::result_line(&out));
    Ok(out.correct())
}

#[cfg(test)]
mod tests;
