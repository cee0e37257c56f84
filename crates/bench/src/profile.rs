//! `psim profile` pipeline: parallel barrier scoring and report
//! rendering.
//!
//! The attribution analysis itself lives in [`persistency::profile`]; this
//! module owns the harness side — fanning the DAG build and the barrier
//! what-ifs out across one [`SweepRunner`] and rendering the report as a
//! human table or a JSON artifact. Barriers the model never folds on are
//! decided by its rules without a walk; the rest are scored [`LANES`] at a
//! time as the lanes of one timing pass over the unmodified trace (lane *k*
//! leaves out barrier *k*'s epoch fold, which is exactly what removing it
//! changes), so each what-if cell is one lane group, not one barrier.
//!
//! Rendering is deterministic: everything below the single-line `meta`
//! object depends only on (trace, config, top, max_barriers), never on
//! worker count — the determinism tests diff the output across worker
//! counts after dropping the `"meta"` line.

use crate::sweep::SweepRunner;
use mem_trace::Trace;
use obsv::runmeta::RunMeta;
use persistency::dag::{DagError, PersistDag};
use persistency::profile::{
    attribute, barrier_candidates, critical_paths_without, walked_barriers, EdgeKind,
    ProfileReport, LANES,
};
use persistency::{timing, AnalysisConfig};
use std::fmt::Write as _;

/// Path steps included in the JSON artifact; longer paths are truncated
/// (the table never prints the raw path).
const JSON_PATH_CAP: usize = 10_000;

/// One cell of a profile's sweep.
enum Cell<'a> {
    /// Build the persist DAG and attribute its critical path.
    Dag,
    /// The timing critical path of the whole trace.
    Baseline,
    /// The timing critical paths without each of up to [`LANES`] barriers.
    Walk(&'a [usize]),
}

/// Profiles `trace` under `config`, scoring up to `max_barriers` ordering
/// barriers on `runner`. The DAG build, the timing baseline and one lane
/// group of up to [`LANES`] walked barriers per cell share the pool;
/// barriers the model's rules decide take no cell.
///
/// # Errors
///
/// Returns [`DagError::TooManyPersists`] if the trace exceeds the DAG
/// node cap.
pub fn run_profile(
    trace: &Trace,
    config: &AnalysisConfig,
    max_barriers: usize,
    runner: &SweepRunner,
) -> Result<ProfileReport, DagError> {
    let candidates = barrier_candidates(trace);
    let scored = &candidates[..max_barriers.min(candidates.len())];
    let walked = walked_barriers(trace, config, scored);
    // The DAG build is the longest cell, so it starts first and the other
    // cells run beside it. Each cell drops its own working state (the DAG,
    // a lane scratch) when it ends.
    let cells: Vec<Cell> = [Cell::Dag, Cell::Baseline]
        .into_iter()
        .chain(walked.chunks(LANES).map(Cell::Walk))
        .collect();
    // Results come back in cell order regardless of worker interleaving.
    let mut outs = runner.run(&cells, |_, cell| match *cell {
        Cell::Dag => {
            let _span = obsv::span("profile.dag");
            let report = PersistDag::build(trace, config).map(|dag| attribute(trace, &dag));
            (Some(report), Vec::new())
        }
        Cell::Baseline => (None, vec![timing::analyze(trace, config).critical_path]),
        Cell::Walk(group) => {
            let _span = obsv::span("profile.whatif");
            (None, critical_paths_without(trace, config, group))
        }
    });
    let mut report = outs[0].0.take().expect("cell 0 builds the DAG")?;
    let baseline = outs[1].1[0];
    let paths: Vec<u64> = outs[2..].iter().flat_map(|(_, p)| p).copied().collect();
    report.judge_barriers(trace, baseline, scored, &paths, cells.len() - 2);
    report.record_metrics();
    Ok(report)
}

/// Renders the human-readable profile table.
pub fn render_table(r: &ProfileReport, top: usize) -> String {
    let mut out = String::new();
    let cfg = &r.config;
    let _ = writeln!(
        out,
        "profile: model {}, critical path {} ({} persist nodes, atomic {} B, tracking {} B)",
        cfg.model,
        r.critical_path,
        r.persist_nodes,
        cfg.atomic_persist.bytes(),
        cfg.tracking.bytes()
    );
    let kinds: Vec<String> = r
        .edge_counts()
        .iter()
        .filter(|(k, c)| *c > 0 && *k != EdgeKind::Root)
        .map(|(k, c)| format!("{} {}", k.name(), c))
        .collect();
    let _ = writeln!(
        out,
        "path edges: {}",
        if kinds.is_empty() { "none".to_string() } else { kinds.join(", ") }
    );

    let _ = writeln!(out);
    let _ = writeln!(out, "top constraint sources (critical-path steps by thread/epoch):");
    let _ = writeln!(
        out,
        "{:>4} {:>7} {:>7} {:>7} {:>12} {:>8}",
        "#", "thread", "epoch", "steps", "first-level", "share"
    );
    for (i, s) in r.sources.iter().take(top).enumerate() {
        let share = if r.critical_path > 0 {
            100.0 * s.steps as f64 / r.critical_path as f64
        } else {
            0.0
        };
        let _ = writeln!(
            out,
            "{:>4} {:>7} {:>7} {:>7} {:>12} {:>7.1}%",
            i + 1,
            s.thread.0,
            s.epoch,
            s.steps,
            s.first_level,
            share
        );
    }
    if r.sources.len() > top {
        let _ = writeln!(out, "  ... {} more sources", r.sources.len() - top);
    }

    let _ = writeln!(out);
    if r.barriers.is_empty() {
        let _ = writeln!(
            out,
            "barriers: {} candidates, none scored (use --barriers N)",
            r.barrier_candidates
        );
    } else {
        let redundant = r.barriers.iter().filter(|b| b.redundant).count();
        let _ = writeln!(
            out,
            "barriers: scored {} of {} candidates, {} redundant (removal keeps timing critical path {})",
            r.barriers.len(),
            r.barrier_candidates,
            redundant,
            r.timing_critical_path
        );
        let _ = writeln!(
            out,
            "{:>10} {:>7} {:<16} {:>11} {:<9}",
            "event", "thread", "kind", "cp-without", "verdict"
        );
        for b in &r.barriers {
            let _ = writeln!(
                out,
                "{:>10} {:>7} {:<16} {:>11} {:<9}",
                b.trace_index,
                b.thread.0,
                b.op.name(),
                b.critical_path_without,
                if b.redundant { "redundant" } else { "needed" }
            );
        }
    }
    out
}

/// Renders the machine-readable profile artifact. The `meta` object is
/// the only line that varies between runs with identical inputs.
pub fn render_json(r: &ProfileReport, meta: &RunMeta, top: usize) -> String {
    let cfg = &r.config;
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"psim_profile_v1\",");
    let _ = writeln!(out, "  \"meta\": {},", meta.to_json_object());
    let _ = writeln!(out, "  \"model\": \"{}\",", cfg.model);
    let _ = writeln!(out, "  \"atomic_persist_bytes\": {},", cfg.atomic_persist.bytes());
    let _ = writeln!(out, "  \"tracking_bytes\": {},", cfg.tracking.bytes());
    let _ = writeln!(out, "  \"critical_path\": {},", r.critical_path);
    let _ = writeln!(out, "  \"timing_critical_path\": {},", r.timing_critical_path);
    let _ = writeln!(out, "  \"persist_nodes\": {},", r.persist_nodes);

    let kinds: Vec<String> = r
        .edge_counts()
        .iter()
        .filter(|(k, _)| *k != EdgeKind::Root)
        .map(|(k, c)| format!("\"{}\": {c}", k.name()))
        .collect();
    let _ = writeln!(out, "  \"edge_counts\": {{{}}},", kinds.join(", "));

    let srcs: Vec<String> = r
        .sources
        .iter()
        .take(top)
        .map(|s| {
            format!(
                "    {{\"thread\": {}, \"epoch\": {}, \"steps\": {}, \"first_level\": {}}}",
                s.thread.0, s.epoch, s.steps, s.first_level
            )
        })
        .collect();
    let _ = writeln!(out, "  \"sources\": [\n{}\n  ],", srcs.join(",\n"));

    let _ = writeln!(out, "  \"path_len\": {},", r.path.len());
    let steps: Vec<String> = r
        .path
        .iter()
        .take(JSON_PATH_CAP)
        .map(|s| {
            let work =
                s.work.map(|w| w.to_string()).unwrap_or_else(|| "null".to_string());
            format!(
                "    {{\"node\": {}, \"level\": {}, \"thread\": {}, \"epoch\": {}, \"work\": {work}, \"addr\": {}, \"len\": {}, \"trace_index\": {}, \"edge\": \"{}\"}}",
                s.node,
                s.level,
                s.thread.0,
                s.epoch,
                s.addr.offset(),
                s.len,
                s.trace_index,
                s.edge.name()
            )
        })
        .collect();
    if steps.is_empty() {
        let _ = writeln!(out, "  \"path\": [],");
    } else {
        let _ = writeln!(out, "  \"path\": [\n{}\n  ],", steps.join(",\n"));
    }

    let checks: Vec<String> = r
        .barriers
        .iter()
        .map(|b| {
            format!(
                "      {{\"trace_index\": {}, \"thread\": {}, \"kind\": \"{}\", \"critical_path_without\": {}, \"redundant\": {}}}",
                b.trace_index,
                b.thread.0,
                b.op.name(),
                b.critical_path_without,
                b.redundant
            )
        })
        .collect();
    let redundant = r.barriers.iter().filter(|b| b.redundant).count();
    let _ = writeln!(out, "  \"barriers\": {{");
    let _ = writeln!(out, "    \"candidates\": {},", r.barrier_candidates);
    let _ = writeln!(out, "    \"scored\": {},", r.barriers.len());
    let _ = writeln!(out, "    \"redundant\": {redundant},");
    if checks.is_empty() {
        let _ = writeln!(out, "    \"checks\": []");
    } else {
        let _ = writeln!(out, "    \"checks\": [\n{}\n    ]", checks.join(",\n"));
    }
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mem_trace::{FreeRunScheduler, TracedMem};
    use persistency::Model;

    fn sample_trace() -> Trace {
        let mem = TracedMem::new(FreeRunScheduler);
        mem.run(2, |ctx| {
            let a = ctx.palloc(1024, 64).unwrap();
            let base = ctx.thread_id().index() as u64 * 512;
            for i in 0..8 {
                ctx.store_u64(a.add(base + 8 * i), i);
                if i % 2 == 0 {
                    ctx.persist_barrier();
                }
            }
        })
    }

    #[test]
    fn rendered_output_is_worker_count_independent() {
        let trace = sample_trace();
        let cfg = AnalysisConfig::new(Model::Epoch);
        let mut outputs = Vec::new();
        for workers in [1usize, 2, 8] {
            let runner = SweepRunner::new(workers);
            let r = run_profile(&trace, &cfg, 16, &runner).unwrap();
            let meta = RunMeta {
                git_rev: "test".into(),
                timestamp_utc: "1970-01-01T00:00:00Z".into(),
                host_cores: workers,
                workers_configured: workers,
                workers_effective: workers,
            };
            // The meta line varies by construction; everything else must
            // not.
            let json: String = render_json(&r, &meta, 10)
                .lines()
                .filter(|l| !l.trim_start().starts_with("\"meta\""))
                .collect::<Vec<_>>()
                .join("\n");
            outputs.push((render_table(&r, 10), json));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }

    #[test]
    fn table_mentions_scored_barriers() {
        let trace = sample_trace();
        let cfg = AnalysisConfig::new(Model::Epoch);
        let r = run_profile(&trace, &cfg, 4, &SweepRunner::serial()).unwrap();
        assert_eq!(r.barriers.len(), 4);
        let table = render_table(&r, 5);
        assert!(table.contains("scored 4 of"));
        assert!(table.contains("top constraint sources"));
    }
}
