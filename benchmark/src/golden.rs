//! Golden semantic checks.
//!
//! Every workload's deterministic outputs (critical paths, crash-fuzz
//! tallies, virtual-time latencies, the capture's content hash) are
//! *results*, not timings: for a given seed they must repeat exactly. A
//! run collects them as a flat `name -> integer` map. For the committed
//! seeds `golden.json` holds the expected map; for any other seed the first
//! observation of a value is what later repetitions must reproduce.

use crate::json;
use std::collections::BTreeMap;
use std::path::Path;

/// Deterministic outputs of one repetition (or of the whole run).
pub type Semantic = BTreeMap<String, u64>;

/// The parsed golden file: workload -> seed -> expected outputs.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Golden(BTreeMap<String, BTreeMap<String, Semantic>>);

impl Golden {
    /// Reads `path`. A missing file is an error, not an empty golden set,
    /// so a misplaced file cannot silently turn the check off.
    pub fn load(path: &Path) -> Result<Golden, String> {
        let text =
            std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Golden::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    pub fn parse(text: &str) -> Result<Golden, String> {
        let doc = json::parse(text)?;
        let mut out = BTreeMap::new();
        for (workload, seeds) in doc.members() {
            let mut by_seed = BTreeMap::new();
            for (seed, values) in seeds.members() {
                let mut sem = Semantic::new();
                for (k, v) in values.members() {
                    let n = v
                        .as_u64()
                        .ok_or_else(|| format!("{workload}/{seed}/{k} is not an integer"))?;
                    sem.insert(k.clone(), n);
                }
                by_seed.insert(seed.clone(), sem);
            }
            out.insert(workload.clone(), by_seed);
        }
        Ok(Golden(out))
    }

    pub fn expected(&self, workload: &str, seed: u64) -> Option<&Semantic> {
        self.0.get(workload)?.get(&seed.to_string())
    }

    pub fn set(&mut self, workload: &str, seed: u64, sem: Semantic) {
        self.0
            .entry(workload.to_string())
            .or_default()
            .insert(seed.to_string(), sem);
    }

    /// Mutable access for tests that corrupt one value.
    #[cfg(test)]
    pub fn entry_mut(&mut self, workload: &str, seed: u64) -> Option<&mut Semantic> {
        self.0.get_mut(workload)?.get_mut(&seed.to_string())
    }

    pub fn render(&self) -> String {
        let mut out = String::from("{\n");
        for (wi, (workload, seeds)) in self.0.iter().enumerate() {
            out.push_str(&format!("  \"{}\": {{\n", json::esc(workload)));
            for (si, (seed, sem)) in seeds.iter().enumerate() {
                out.push_str(&format!("    \"{}\": {{\n", json::esc(seed)));
                let rows: Vec<String> = sem
                    .iter()
                    .map(|(k, v)| format!("      \"{}\": {v}", json::esc(k)))
                    .collect();
                out.push_str(&rows.join(",\n"));
                out.push_str(if si + 1 < seeds.len() {
                    "\n    },\n"
                } else {
                    "\n    }\n"
                });
            }
            out.push_str(if wi + 1 < self.0.len() {
                "  },\n"
            } else {
                "  }\n"
            });
        }
        out.push_str("}\n");
        out
    }
}

/// Checks each repetition's outputs against the golden entry, or, without
/// one, against the first value seen for each name.
#[derive(Debug)]
pub struct Checker {
    golden: Option<Semantic>,
    seen: Semantic,
    /// Human-readable descriptions of every mismatch, first few kept.
    pub mismatches: Vec<String>,
}

impl Checker {
    pub fn new(golden: Option<&Semantic>) -> Self {
        Checker {
            golden: golden.cloned(),
            seen: Semantic::new(),
            mismatches: Vec::new(),
        }
    }

    /// Whether this run has a golden entry to match.
    pub fn has_golden(&self) -> bool {
        self.golden.is_some()
    }

    /// Records `sem`; returns `false` if any value disagrees.
    pub fn check(&mut self, sem: &Semantic) -> bool {
        let mut ok = true;
        for (k, &v) in sem {
            let want = self
                .golden
                .as_ref()
                .and_then(|g| g.get(k).copied())
                .or_else(|| self.seen.get(k).copied());
            match want {
                Some(w) if w != v => {
                    ok = false;
                    if self.mismatches.len() < 8 {
                        self.mismatches.push(format!("{k}: expected {w}, got {v}"));
                    }
                }
                Some(_) => {}
                None if self.golden.is_some() => {
                    ok = false;
                    if self.mismatches.len() < 8 {
                        self.mismatches.push(format!("{k}: not in the golden file"));
                    }
                }
                None => {}
            }
            self.seen.entry(k.clone()).or_insert(v);
        }
        ok
    }

    /// Golden names the run never produced (an incomplete run cannot pass).
    pub fn missing(&self) -> Vec<String> {
        self.golden
            .iter()
            .flat_map(|g| g.keys())
            .filter(|k| !self.seen.contains_key(*k))
            .cloned()
            .collect()
    }

    /// Everything observed, in the shape `--bless` writes.
    pub fn observed(&self) -> &Semantic {
        &self.seen
    }
}

/// FNV-1a, 64-bit: the capture fingerprint recorded in the golden file.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sem(pairs: &[(&str, u64)]) -> Semantic {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn render_parses_back() {
        let mut g = Golden::default();
        g.set("analyze-queue", 42, sem(&[("a", 1), ("h", u64::MAX)]));
        g.set("analyze-queue", 7, sem(&[("a", 2)]));
        g.set("fuzz-matrix", 7, sem(&[("x", 0)]));
        assert_eq!(Golden::parse(&g.render()).unwrap(), g);
    }

    #[test]
    fn checker_uses_golden_then_first_sight() {
        let golden = sem(&[("a", 1), ("b", 2)]);
        let mut c = Checker::new(Some(&golden));
        assert!(c.check(&sem(&[("a", 1)])));
        assert!(!c.check(&sem(&[("b", 3)])));
        assert!(!c.check(&sem(&[("zz", 3)])));
        assert!(c.missing().is_empty());
        let mut c = Checker::new(None);
        assert!(c.check(&sem(&[("a", 5)])));
        assert!(c.check(&sem(&[("a", 5)])));
        assert!(!c.check(&sem(&[("a", 6)])));
        assert_eq!(c.observed(), &sem(&[("a", 5)]));
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
