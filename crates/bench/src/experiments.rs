//! Experiment pipelines behind the figure/table binaries.
//!
//! Each function builds one experiment's full stdout report and returns it
//! together with the number of trace events pushed through the analysis
//! engines, so binaries (and tests) can run the same pipeline with any
//! [`SweepRunner`]. Two pipeline rules keep the sweeps fast and
//! reproducible:
//!
//! - **Capture once, analyze many**: a trace is captured once per
//!   (workload, thread-count) group and shared by every model analyzed on
//!   it, instead of re-running the traced workload per table cell. Trace
//!   capture drives real threads through a seeded condvar scheduler and
//!   dominates the serial pipeline's cost.
//! - **Deterministic output**: independent cells fan out across the
//!   runner's workers, but results are assembled in input order, so the
//!   report is byte-identical for any worker count.

use crate::deps::{classify_edges, DepClass};
use crate::fmt::{num, rate, table};
use crate::sweep::SweepRunner;
use crate::workloads::{cwl_trace, tlc_trace, StdWorkload};
use persist_mem::{AtomicPersistSize, TrackingGranularity};
use persistency::dag::PersistDag;
use persistency::throughput::{
    achievable_rate, break_even_latency, normalized_rate, persist_bound_rate, PersistLatency,
};
use persistency::{timing, AnalysisConfig, Model};
use pqueue::traced::BarrierMode;
use std::fmt::Write;

/// A finished experiment: its stdout report and the analysis volume.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Full report text (what the binary prints to stdout).
    pub report: String,
    /// Trace events processed by the analysis engines, summed over every
    /// (trace, config) cell — the numerator of the events/sec self-timing.
    pub events: u64,
}

/// The three queue workload groups the thread sweeps iterate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum QueueGroup {
    CwlFull,
    CwlRacing,
    Tlc,
}

impl QueueGroup {
    fn capture(self, w: &StdWorkload) -> mem_trace::Trace {
        match self {
            QueueGroup::CwlFull => cwl_trace(w, BarrierMode::Full).0,
            QueueGroup::CwlRacing => cwl_trace(w, BarrierMode::Racing).0,
            QueueGroup::Tlc => tlc_trace(w).0,
        }
    }
}

/// Figure 2 — queue persist dependences by class.
pub fn fig2_deps(runner: &SweepRunner, inserts: u64) -> Experiment {
    let groups: [(&str, u32); 3] =
        [("CWL (1 thread)", 1), ("CWL (2 threads)", 2), ("2LC (2 threads)", 2)];
    let sections = runner.run(&groups, |_, &(name, threads)| {
        let w = StdWorkload::figure(threads, inserts / threads as u64);
        let (trace, layout) = if name.starts_with("2LC") {
            tlc_trace(&w)
        } else {
            cwl_trace(&w, BarrierMode::Full)
        };
        let mut events = 0u64;
        let mut rows = Vec::new();
        for model in [Model::Strict, Model::Epoch, Model::Strand] {
            let dag = PersistDag::build(&trace, &AnalysisConfig::new(model))
                .expect("figure-2 runs are small");
            events += trace.events().len() as u64;
            let counts = classify_edges(&dag, &layout);
            let mut row = vec![model.to_string()];
            for class in DepClass::ALL {
                row.push(counts.get(&class).copied().unwrap_or(0).to_string());
            }
            rows.push(row);
        }
        let header: Vec<&str> = std::iter::once("model")
            .chain(DepClass::ALL.iter().map(|c| c.label()))
            .collect();
        (format!("{name}:\n{}\n", table(&header, &rows)), events)
    });

    let mut report = String::new();
    writeln!(report, "Figure 2: queue persist dependences by class (per {} inserts)", inserts)
        .unwrap();
    writeln!(report).unwrap();
    let mut events = 0;
    for (section, ev) in sections {
        report.push_str(&section);
        events += ev;
    }
    writeln!(report, "paper shape: required constraints (solid arrows in the paper's Figure 2)")
        .unwrap();
    writeln!(report, "survive every model; epoch persistency removes the A edges, strand")
        .unwrap();
    writeln!(report, "persistency also removes the B edges.").unwrap();
    Experiment { report, events }
}

/// Thread-count sweep — persist critical path per insert for 1–8 threads,
/// per queue group and model.
pub fn sweep_threads(runner: &SweepRunner, total_inserts: u64) -> Experiment {
    let groups: [(&str, QueueGroup); 3] = [
        ("CWL (full barriers)", QueueGroup::CwlFull),
        ("CWL (racing epochs)", QueueGroup::CwlRacing),
        ("2LC", QueueGroup::Tlc),
    ];
    let threads = [1u32, 2, 4, 8];
    let models = [Model::Strict, Model::Epoch, Model::Strand];

    // One cell per (group, thread count): capture the trace once, analyze
    // every model on it with a reused scratch.
    let cells: Vec<(usize, u32)> = groups
        .iter()
        .enumerate()
        .flat_map(|(g, _)| threads.iter().map(move |&t| (g, t)))
        .collect();
    let results = runner.run(&cells, |_, &(g, t)| {
        let w = StdWorkload::figure(t, total_inserts / t as u64);
        let trace = groups[g].1.capture(&w);
        let mut an = timing::Analyzer::new();
        let cps: Vec<f64> = models
            .iter()
            .map(|&m| an.analyze(&trace, &AnalysisConfig::new(m)).critical_path_per_work())
            .collect();
        (cps, models.len() as u64 * trace.events().len() as u64)
    });

    let mut report = String::new();
    writeln!(
        report,
        "thread scaling: persist critical path per insert ({total_inserts} total inserts)"
    )
    .unwrap();
    writeln!(report).unwrap();
    let mut events = 0;
    for (g, (name, _)) in groups.iter().enumerate() {
        writeln!(report, "{name}:").unwrap();
        let mut rows = Vec::new();
        for (mi, model) in models.iter().enumerate() {
            let mut row = vec![model.to_string()];
            for (ti, _) in threads.iter().enumerate() {
                let (cps, _) = &results[g * threads.len() + ti];
                row.push(num(cps[mi]));
            }
            rows.push(row);
        }
        for (_, ev) in &results[g * threads.len()..(g + 1) * threads.len()] {
            events += ev;
        }
        let header: Vec<String> = std::iter::once("model".to_string())
            .chain(threads.iter().map(|t| format!("{t} thr")))
            .collect();
        let header_refs: Vec<&str> = header.iter().map(|s| s.as_str()).collect();
        report.push_str(&table(&header_refs, &rows));
        writeln!(report).unwrap();
    }
    writeln!(report, "shape: CWL's lock serializes persists under strict and (non-racing) epoch")
        .unwrap();
    writeln!(report, "regardless of threads; racing epochs and 2LC convert thread concurrency")
        .unwrap();
    writeln!(report, "into persist concurrency (cp/insert falls ~1/threads); strand needs no")
        .unwrap();
    writeln!(report, "threads at all — the paper's §5/§8 scaling story in one table.").unwrap();
    Experiment { report, events }
}

/// Figure 3 — achievable insert rate vs persist latency. `instr` is the
/// natively measured instruction execution rate (measured by the binary;
/// kept out of the pipeline so the report is deterministic given a rate).
pub fn fig3_latency(runner: &SweepRunner, inserts: u64, points: usize, instr: f64) -> Experiment {
    let w = StdWorkload::figure(1, inserts);
    let (trace, _) = cwl_trace(&w, BarrierMode::Full);

    let models = [Model::Strict, Model::Epoch, Model::Strand];
    let cps = runner.run(&models, |_, &m| {
        timing::analyze(&trace, &AnalysisConfig::new(m)).critical_path_per_work()
    });
    let events = models.len() as u64 * trace.events().len() as u64;

    let mut report = String::new();
    writeln!(
        report,
        "Figure 3: achievable rate vs persist latency (CWL, 1 thread, {} inserts)",
        inserts
    )
    .unwrap();
    writeln!(report, "instruction execution rate: {}", rate(instr)).unwrap();
    writeln!(report).unwrap();

    let sweep = PersistLatency::log_sweep(
        PersistLatency::from_ns(10.0),
        PersistLatency::from_ns(1e5),
        points,
    );
    let rows: Vec<Vec<String>> = sweep
        .iter()
        .map(|&lat| {
            let mut row = vec![num(lat.ns())];
            for &cp in &cps {
                row.push(rate(achievable_rate(instr, cp, lat)));
            }
            row
        })
        .collect();
    report.push_str(&table(&["latency(ns)", "strict", "epoch", "strand"], &rows));

    writeln!(report).unwrap();
    writeln!(report, "break-even latency (compute-bound -> persist-bound crossover):").unwrap();
    for (m, cp) in models.iter().zip(&cps) {
        match break_even_latency(instr, *cp) {
            Some(l) => writeln!(
                report,
                "  {:<7} cp/insert {:>8}  break-even {:>10} ns",
                m,
                num(*cp),
                num(l.ns())
            )
            .unwrap(),
            None => {
                writeln!(report, "  {:<7} cp/insert {:>8}  never persist-bound", m, num(*cp))
                    .unwrap()
            }
        }
    }
    writeln!(report).unwrap();
    writeln!(report, "paper shape: strict rolls off at tens of ns, epoch around a hundred ns,")
        .unwrap();
    writeln!(report, "strand only in the microsecond range — relaxed models are resilient to")
        .unwrap();
    writeln!(report, "large persist latency (500 ns NVRAM leaves strand compute-bound).")
        .unwrap();
    Experiment { report, events }
}

/// Figure 4 — critical path per insert vs atomic persist granularity.
pub fn fig4_granularity(runner: &SweepRunner, inserts: u64) -> Experiment {
    let w = StdWorkload::figure(1, inserts);
    let (trace, _) = cwl_trace(&w, BarrierMode::Full);

    let sizes = [8u64, 16, 32, 64, 128, 256];
    let models = [Model::Strict, Model::Epoch];
    let cells: Vec<(u64, Model)> =
        sizes.iter().flat_map(|&b| models.iter().map(move |&m| (b, m))).collect();
    let results = runner.run(&cells, |_, &(bytes, model)| {
        let atomic = AtomicPersistSize::new(bytes).expect("valid sweep size");
        let cfg = AnalysisConfig::new(model).with_atomic_persist(atomic);
        let r = timing::analyze(&trace, &cfg);
        (r.critical_path_per_work(), r.coalesce_rate())
    });
    let events = cells.len() as u64 * trace.events().len() as u64;

    let mut report = String::new();
    writeln!(report, "Figure 4: persist critical path per insert vs atomic persist size")
        .unwrap();
    writeln!(
        report,
        "          (CWL, 1 thread, {} inserts, 8-byte dependence tracking)",
        inserts
    )
    .unwrap();
    writeln!(report).unwrap();

    let mut rows = Vec::new();
    for (si, &bytes) in sizes.iter().enumerate() {
        let mut row = vec![format!("{bytes}B")];
        for mi in 0..models.len() {
            let (cp, coal) = results[si * models.len() + mi];
            row.push(num(cp));
            row.push(format!("{:.0}%", 100.0 * coal));
        }
        rows.push(row);
    }
    report.push_str(&table(
        &["atomic", "strict cp/ins", "strict coal", "epoch cp/ins", "epoch coal"],
        &rows,
    ));
    writeln!(report).unwrap();
    writeln!(report, "paper shape: strict falls steadily with persist size and matches epoch at")
        .unwrap();
    writeln!(report, "256 B; epoch is flat — large atomic persists are an alternative to relaxed")
        .unwrap();
    writeln!(report, "persistency for strict models, but offer relaxed models nothing.").unwrap();
    Experiment { report, events }
}

/// Figure 5 — critical path per insert vs dependence tracking granularity.
pub fn fig5_false_sharing(runner: &SweepRunner, inserts: u64) -> Experiment {
    let w = StdWorkload::figure(1, inserts);
    let (trace, _) = cwl_trace(&w, BarrierMode::Full);

    let sizes = [8u64, 16, 32, 64, 128, 256];
    let models = [Model::Strict, Model::Epoch];
    let cells: Vec<(u64, Model)> =
        sizes.iter().flat_map(|&b| models.iter().map(move |&m| (b, m))).collect();
    let results = runner.run(&cells, |_, &(bytes, model)| {
        let tracking = TrackingGranularity::new(bytes).expect("valid sweep size");
        let cfg = AnalysisConfig::new(model).with_tracking(tracking);
        timing::analyze(&trace, &cfg).critical_path_per_work()
    });
    let events = cells.len() as u64 * trace.events().len() as u64;

    let mut report = String::new();
    writeln!(report, "Figure 5: persist critical path per insert vs tracking granularity")
        .unwrap();
    writeln!(report, "          (CWL, 1 thread, {} inserts, 8-byte atomic persists)", inserts)
        .unwrap();
    writeln!(report).unwrap();

    let mut rows = Vec::new();
    for (si, &bytes) in sizes.iter().enumerate() {
        let mut row = vec![format!("{bytes}B")];
        for mi in 0..models.len() {
            row.push(num(results[si * models.len() + mi]));
        }
        rows.push(row);
    }
    report.push_str(&table(&["tracking", "strict cp/ins", "epoch cp/ins"], &rows));
    writeln!(report).unwrap();
    writeln!(report, "paper shape: strict is flat; epoch's critical path grows with tracking")
        .unwrap();
    writeln!(
        report,
        "granularity as false sharing reintroduces the constraints relaxation removed,"
    )
    .unwrap();
    writeln!(report, "approaching strict at 256 B.").unwrap();
    Experiment { report, events }
}

/// Natively measured instruction-execution rates for one thread count.
#[derive(Debug, Clone, Copy)]
pub struct NativeRates {
    /// Simulated threads the rates were measured at.
    pub threads: u32,
    /// Copy While Locked native insert rate (inserts/s).
    pub cwl: f64,
    /// Two-Lock Concurrent native insert rate (inserts/s).
    pub tlc: f64,
}

/// Table 1 — persist-bound insert rate normalized to instruction execution
/// rate. Native rates are measured by the binary (they time real execution
/// and must not share the machine with sweep workers) and passed in.
pub fn table1(runner: &SweepRunner, inserts: u64, ext: bool, native: &[NativeRates]) -> Experiment {
    let latency = PersistLatency::TABLE1;

    // One cell per thread group: capture the group's three traces once and
    // analyze every model on them with a reused scratch.
    let results = runner.run(native, |_, rates| {
        let threads = rates.threads;
        let w = StdWorkload::figure(threads, inserts / threads as u64);
        let (cwl_full, _) = cwl_trace(&w, BarrierMode::Full);
        let (cwl_racing, _) = cwl_trace(&w, BarrierMode::Racing);
        let (tlc, _) = tlc_trace(&w);

        let mut configs: Vec<(&str, &mem_trace::Trace, f64, Model, &str)> = vec![
            ("CWL", &cwl_full, rates.cwl, Model::Strict, "strict"),
            ("CWL", &cwl_full, rates.cwl, Model::Epoch, "epoch"),
            ("CWL", &cwl_racing, rates.cwl, Model::Epoch, "racing epochs"),
            ("CWL", &cwl_full, rates.cwl, Model::Strand, "strand"),
            ("2LC", &tlc, rates.tlc, Model::Strict, "strict"),
            ("2LC", &tlc, rates.tlc, Model::Epoch, "epoch"),
            ("2LC", &tlc, rates.tlc, Model::Epoch, "racing epochs"),
            ("2LC", &tlc, rates.tlc, Model::Strand, "strand"),
        ];
        if ext {
            configs.push(("CWL", &cwl_full, rates.cwl, Model::Bpfs, "bpfs (ext)"));
            configs.push(("2LC", &tlc, rates.tlc, Model::Bpfs, "bpfs (ext)"));
            configs.push(("CWL", &cwl_full, rates.cwl, Model::StrictRmo, "strict@rmo (ext)"));
            configs.push(("2LC", &tlc, rates.tlc, Model::StrictRmo, "strict@rmo (ext)"));
        }

        let mut an = timing::Analyzer::new();
        let mut events = 0u64;
        let mut rows = Vec::new();
        for (queue, trace, instr, model, label) in configs {
            let report = an.analyze(trace, &AnalysisConfig::new(model));
            events += trace.events().len() as u64;
            let cp = report.critical_path_per_work();
            let norm = normalized_rate(instr, cp, latency);
            rows.push(vec![
                queue.to_string(),
                threads.to_string(),
                label.to_string(),
                num(cp),
                rate(persist_bound_rate(cp, latency)),
                rate(instr),
                if norm >= 1.0 { format!("*{}*", num(norm)) } else { num(norm) },
            ]);
        }
        (rows, events)
    });

    let mut report = String::new();
    writeln!(
        report,
        "Table 1: persist-bound insert rate normalized to instruction execution rate"
    )
    .unwrap();
    writeln!(
        report,
        "         ({} ns persists; traced inserts per config: {})",
        latency.ns(),
        inserts
    )
    .unwrap();
    writeln!(report).unwrap();

    let mut rows = Vec::new();
    let mut events = 0;
    for (group_rows, ev) in results {
        rows.extend(group_rows);
        events += ev;
    }
    report.push_str(&table(
        &["queue", "threads", "model", "cp/insert", "persist-bound", "instr-rate", "normalized"],
        &rows,
    ));
    writeln!(report).unwrap();
    writeln!(
        report,
        "normalized >= 1 (starred) = compute-bound: relaxed persistency has fully hidden"
    )
    .unwrap();
    writeln!(report, "NVRAM write latency, matching the paper's bold Table 1 entries.").unwrap();
    Experiment { report, events }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_parallel_matches_serial() {
        let serial = fig2_deps(&SweepRunner::serial(), 12);
        let parallel = fig2_deps(&SweepRunner::new(4), 12);
        assert_eq!(serial.report, parallel.report);
        assert_eq!(serial.events, parallel.events);
        assert!(serial.events > 0);
    }

    #[test]
    fn sweep_threads_has_all_groups() {
        let e = sweep_threads(&SweepRunner::new(2), 64);
        assert!(e.report.contains("CWL (full barriers):"));
        assert!(e.report.contains("CWL (racing epochs):"));
        assert!(e.report.contains("2LC:"));
    }

    #[test]
    fn table1_rows_cover_models() {
        let native = [NativeRates { threads: 1, cwl: 1e7, tlc: 1e7 }];
        let e = table1(&SweepRunner::serial(), 40, false, &native);
        assert!(e.report.contains("racing epochs"));
        assert!(e.report.contains("strand"));
    }
}
