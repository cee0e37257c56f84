//! Metric catalogue and result rendering.
//!
//! Every run emits the same names whatever the workload, so the names
//! here are exactly those `BENCHMARK.json` declares: the end-to-end
//! metrics for an untraced run, the per-layer metrics for a traced one.
//! A layer a workload does not exercise reports a 0 share.

use crate::json;
use crate::run::{Opts, Outcome};
use crate::spans::{Recorder, UNATTRIBUTED};
use crate::workloads::{median, pct};
use obsv::runmeta::RunMeta;

/// One named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Every layer a traced run can attribute time to. Each is reported as
/// `<layer>.pct`, its self time as a share of the traced end-to-end time.
pub const LAYERS: [&str; 27] = [
    "trace.capture",
    "trace.validate",
    "trace.encode",
    "trace.mmap",
    "trace.decode",
    "trace.profile",
    "core.timing.strict",
    "core.timing.strict-rmo",
    "core.timing.epoch",
    "core.timing.bpfs",
    "core.timing.strand",
    "core.dag",
    "core.profile.path",
    "core.timing.full_pass",
    "core.profile.whatif",
    "pfi.record",
    "pfi.draw",
    "pfi.replay",
    "pfi.recover",
    "pfi.check",
    "pfi.multi_crash",
    "serve.warmup",
    "serve.gen",
    "serve.shard",
    "serve.validate",
    "serve.wall.paced",
    "report.render",
];

/// Per-layer ratios, counts and rates: `(name, unit)`. Workloads report
/// the ones they measure; the rest read 0.
pub const LAYER_VALUES: [(&str, &str); 22] = [
    ("core.partition.overhead_pct", "%"),
    ("core.partition.speedup_w2", "x"),
    ("trace.encode.bytes_per_event", "B/event"),
    ("trace.decode.mb_per_s", "MB/s"),
    ("core.dag.nodes", "count"),
    ("core.profile.whatifs", "count"),
    ("core.profile.reduce_pct", "%"),
    ("bench.sweep.speedup_w2", "x"),
    ("pfi.multi_crash.leg_ratio", "x"),
    ("pfi.injections_per_s.cwl", "1/s"),
    ("pfi.injections_per_s.2lc", "1/s"),
    ("pfi.injections_per_s.kv", "1/s"),
    ("pfi.injections_per_s.txn", "1/s"),
    ("serve.gen.amplification", "x"),
    ("serve.harness.overhead_pct", "%"),
    ("serve.parallel.speedup_w2", "x"),
    ("serve.wall.queue_wait_share.strict", "%"),
    ("serve.wall.queue_wait_share.epoch", "%"),
    ("serve.wall.stall_share.strict", "%"),
    ("serve.wall.stall_share.epoch", "%"),
    ("bench.trace_overhead", "x"),
    ("bench.unattributed.pct", "%"),
];

/// Every per-layer metric name, in output order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    LAYERS
        .iter()
        .map(|l| (format!("{l}.pct"), "%"))
        .chain(LAYER_VALUES.iter().map(|&(n, u)| (n.to_string(), u)))
        .collect()
}

/// The per-layer metrics of a traced run: layer shares, the workload's
/// own values, the unattributed share and the tracing overhead.
pub fn per_layer(rec: &Recorder, trace_overhead: f64, own: &[(&'static str, f64)]) -> Vec<Metric> {
    let total = rec.traced_secs();
    per_layer_names()
        .into_iter()
        .map(|(name, unit)| {
            let value =
                if let Some(layer) = name.strip_suffix(".pct").filter(|l| LAYERS.contains(l)) {
                    pct(rec.busy(layer), total)
                } else if name == format!("{UNATTRIBUTED}.pct") {
                    pct(rec.unattributed_secs(), total)
                } else if name == "bench.trace_overhead" {
                    trace_overhead
                } else {
                    own.iter()
                        .find(|(n, _)| *n == name)
                        .map_or(0.0, |&(_, v)| v)
                };
            Metric { name, value, unit }
        })
        .collect()
}

/// Peak resident set (`VmHWM`) of this process so far, in MB: setup and
/// every repetition.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

fn metrics_object(ms: &[Metric]) -> String {
    let rows: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                json::esc(&m.name),
                json::num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", rows.join(", "))
}

/// The single-line result the benchmark prints last.
pub fn result_line(out: &Outcome) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.correct(),
        out.attempted,
        out.failed,
        metrics_object(&out.metrics)
    )
}

/// The full result file: the result line's fields plus run metadata,
/// timing summaries, extra values, semantic outputs and errors.
pub fn result_file(opts: &Opts, out: &Outcome, meta: &RunMeta) -> String {
    let timings: Vec<String> = out
        .timings
        .iter()
        .map(|(name, xs)| {
            let max = xs.iter().copied().fold(f64::NAN, f64::max);
            let samples: Vec<String> = xs.iter().map(|&x| json::num(x)).collect();
            format!(
                "    \"{name}\": {{\"median\": {}, \"max\": {}, \"count\": {}, \"samples\": [{}]}}",
                json::num(median(xs)),
                json::num(max),
                xs.len(),
                samples.join(", ")
            )
        })
        .collect();
    let semantic: Vec<String> = out
        .semantic
        .iter()
        .map(|(k, v)| format!("    \"{}\": {v}", json::esc(k)))
        .collect();
    let errors: Vec<String> = out
        .errors
        .iter()
        .map(|e| format!("\"{}\"", json::esc(e)))
        .collect();
    format!(
        "{{\n  \"schema\": \"mpbench_result_v1\",\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \"meta\": {},\n  \"correct\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"golden\": {},\n  \"metrics\": {},\n  \"detail\": {},\n  \"timings\": {{\n{}\n  }},\n  \"semantic\": {{\n{}\n  }},\n  \"errors\": [{}]\n}}\n",
        json::esc(&opts.workload),
        opts.seed,
        json::num(opts.seconds),
        opts.trace,
        meta.to_json_object(),
        out.correct(),
        out.attempted,
        out.failed,
        out.has_golden,
        metrics_object(&out.metrics),
        metrics_object(&out.detail),
        timings.join(",\n"),
        semantic.join(",\n"),
        errors.join(", ")
    )
}
