//! Run metadata for machine-readable artifacts.
//!
//! Every `--json` report and `BENCH_engine.json` carries a `meta` object
//! so artifacts stay attributable after the fact: which revision produced
//! them, when, on how many cores, and with what worker configuration.
//! The object is rendered as a single JSON line, so determinism checks
//! that compare reports across worker counts can drop it with a one-line
//! filter (the payload below it must be byte-identical; the metadata by
//! design is not).

use std::process::Command;
use std::time::{SystemTime, UNIX_EPOCH};

/// Provenance of one artifact-producing run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunMeta {
    /// Abbreviated git revision of the working tree, suffixed `-dirty`
    /// when tracked files have uncommitted changes (`unknown` outside a
    /// repository or without a `git` binary).
    pub git_rev: String,
    /// UTC wall-clock time the metadata was collected, ISO-8601.
    pub timestamp_utc: String,
    /// Core count of the host (the larger of `available_parallelism`,
    /// which cgroup CPU quotas can clamp, and the `/proc/cpuinfo`
    /// processor count).
    pub host_cores: usize,
    /// Workers the run was configured with (`SWEEP_THREADS`, `--serial`).
    pub workers_configured: usize,
    /// Workers that could actually be used (≤ configured when the work
    /// had fewer independent cells).
    pub workers_effective: usize,
}

/// Resolves the working tree's git revision once per call, with a
/// `-dirty` suffix when tracked files differ from `HEAD`. Honors
/// `OBSV_GIT_REV` (useful for hermetic builds) before shelling out.
fn git_revision() -> String {
    if let Ok(rev) = std::env::var("OBSV_GIT_REV") {
        if !rev.is_empty() {
            return rev;
        }
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
    };
    let Some(rev) = git(&["rev-parse", "--short=12", "HEAD"])
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
    else {
        return "unknown".to_string();
    };
    let status = git(&["status", "--porcelain", "--untracked-files=no"]).unwrap_or_default();
    mark_dirty(rev, &status)
}

/// Appends `-dirty` to `rev` when `git status --porcelain` printed any
/// change.
fn mark_dirty(rev: String, porcelain: &str) -> String {
    if porcelain.trim().is_empty() {
        rev
    } else {
        rev + "-dirty"
    }
}

/// Counts the host's cores. `available_parallelism` alone under-reports
/// inside containers with a cgroup CPU quota (it reflects the quota, not
/// the machine), so the `processor` entries of `/proc/cpuinfo` are counted
/// too and the larger value wins; on non-Linux hosts the file is simply
/// absent and `available_parallelism` decides.
pub fn host_core_count() -> usize {
    let avail = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let listed = std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0);
    avail.max(listed).max(1)
}

/// Formats seconds since the Unix epoch as `YYYY-MM-DDTHH:MM:SSZ`,
/// using the standard days-to-civil conversion.
pub fn format_utc(secs_since_epoch: u64) -> String {
    let days = (secs_since_epoch / 86_400) as i64;
    let rem = secs_since_epoch % 86_400;
    let (h, m, s) = (rem / 3600, (rem % 3600) / 60, rem % 60);
    // civil_from_days (Howard Hinnant's algorithm), valid for the Unix
    // era and far beyond.
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let mo = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if mo <= 2 { y + 1 } else { y };
    format!("{y:04}-{mo:02}-{d:02}T{h:02}:{m:02}:{s:02}Z")
}

impl RunMeta {
    /// Collects metadata for a run with the given worker configuration.
    /// `SOURCE_DATE_EPOCH` overrides the timestamp for reproducible
    /// artifacts.
    pub fn collect(workers_configured: usize, workers_effective: usize) -> Self {
        let secs = std::env::var("SOURCE_DATE_EPOCH")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| {
                SystemTime::now()
                    .duration_since(UNIX_EPOCH)
                    .map(|d| d.as_secs())
                    .unwrap_or(0)
            });
        RunMeta {
            git_rev: git_revision(),
            timestamp_utc: format_utc(secs),
            host_cores: host_core_count(),
            workers_configured,
            workers_effective,
        }
    }

    /// Renders the metadata as one single-line JSON object (no trailing
    /// newline), e.g. for embedding as `"meta": <object>`.
    pub fn to_json_object(&self) -> String {
        format!(
            "{{\"git_rev\": \"{}\", \"timestamp_utc\": \"{}\", \"host_cores\": {}, \"workers_configured\": {}, \"workers_effective\": {}}}",
            self.git_rev.replace('\\', "\\\\").replace('"', "\\\""),
            self.timestamp_utc,
            self.host_cores,
            self.workers_configured,
            self.workers_effective
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn utc_formatting_matches_known_instants() {
        assert_eq!(format_utc(0), "1970-01-01T00:00:00Z");
        assert_eq!(format_utc(951_782_400), "2000-02-29T00:00:00Z");
        assert_eq!(format_utc(1_785_974_401), "2026-08-06T00:00:01Z");
    }

    #[test]
    fn meta_renders_one_line() {
        let m = RunMeta {
            git_rev: "abc123".into(),
            timestamp_utc: format_utc(0),
            host_cores: 8,
            workers_configured: 4,
            workers_effective: 2,
        };
        let j = m.to_json_object();
        assert!(!j.contains('\n'));
        assert!(j.contains("\"workers_effective\": 2"));
    }

    #[test]
    fn dirty_trees_get_a_suffix() {
        assert_eq!(mark_dirty("abc123def456".into(), ""), "abc123def456");
        assert_eq!(mark_dirty("abc123def456".into(), "\n"), "abc123def456");
        assert_eq!(mark_dirty("abc123def456".into(), " M src/lib.rs\n"), "abc123def456-dirty");
    }

    #[test]
    fn collect_is_well_formed() {
        let m = RunMeta::collect(3, 3);
        assert!(m.host_cores >= 1);
        assert!(m.timestamp_utc.ends_with('Z'));
        assert!(!m.git_rev.is_empty());
    }

    #[test]
    fn host_cores_at_least_cpuinfo_count() {
        let listed = std::fs::read_to_string("/proc/cpuinfo")
            .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
            .unwrap_or(0);
        assert!(host_core_count() >= listed.max(1));
    }
}
