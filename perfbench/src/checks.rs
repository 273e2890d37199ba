//! Output checks: digests of every result body a workload writes or
//! loads, model invariants, and the tally that feeds `failed_frac`.

use dsa_core::domain::fnv1a;
use dsa_core::results::PraResults;
use std::collections::BTreeMap;
use std::path::Path;

/// The default seed (`PraConfig::default().seed`): the seed the pinned
/// digests were taken at.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// FNV-1a digests of every cache file each workload leaves behind at the
/// default seed, by file name. A change to any result byte shows here.
pub const PINNED: &[(&str, &[(&str, u64)])] = &[
    ("pra-swarm", &[("pra-swarm-smoke.csv", 0x3ee336e3141c2746)]),
    (
        "pipeline-rep-gossip",
        &[
            ("attack-gossip-adaptive-lab.csv", 0xf47dd9755ea822f9),
            ("attack-gossip-collusion-lab.csv", 0x33bf1cf6f645a880),
            ("attack-gossip-sybil-lab.csv", 0xd4806be47b1a114c),
            ("attack-gossip-whitewash-lab.csv", 0xdfa4c4c41a598b74),
            ("attack-rep-adaptive-lab.csv", 0x7eaee66bcc926a3e),
            ("attack-rep-collusion-lab.csv", 0x42711d2a391bbdaf),
            ("attack-rep-sybil-lab.csv", 0x1550462863ada7bf),
            ("attack-rep-whitewash-lab.csv", 0x39b9d9bacecee204),
            ("evo-gossip-lab.csv", 0xc37e66b1f5b30543),
            ("evo-rep-lab.csv", 0xbd838eba0fe0bce9),
            ("pra-gossip-lab.csv", 0x01473d64efeccad6),
            ("pra-rep-lab.csv", 0x9aaedfa0a8f34ba3),
        ],
    ),
    (
        "reload-warm",
        &[
            ("attack-gossip-adaptive-smoke.csv", 0xe5cff434d9d56d9e),
            ("attack-gossip-collusion-smoke.csv", 0x0b8e4d3be911b391),
            ("attack-gossip-sybil-smoke.csv", 0xfd9d01120d101743),
            ("attack-gossip-whitewash-smoke.csv", 0x8d3febdc5ea97f25),
            ("attack-rep-adaptive-smoke.csv", 0xc5717acca01b8c53),
            ("attack-rep-collusion-smoke.csv", 0xcb81161b8486b705),
            ("attack-rep-sybil-smoke.csv", 0x6851a4f784f58330),
            ("attack-rep-whitewash-smoke.csv", 0xa949825150cfd992),
            ("attrib-gossip-attack-smoke.csv", 0x31833b411924674b),
            ("attrib-gossip-evolution-smoke.csv", 0x2d5094d3a54280a9),
            ("attrib-gossip-pra-smoke.csv", 0x64bb6599f63660e1),
            ("attrib-rep-attack-smoke.csv", 0x65df3b38e002fd25),
            ("attrib-rep-evolution-smoke.csv", 0x5b3917708ab3fae3),
            ("attrib-rep-pra-smoke.csv", 0xd9794ab25ca98bb4),
            ("evo-gossip-smoke.csv", 0x41c2bb11e8787759),
            ("evo-rep-smoke.csv", 0xa4f72ad355e8d257),
            ("pra-gossip-smoke.csv", 0xa304c6881f41c480),
            ("pra-rep-smoke.csv", 0xe088a78d1f5186e3),
        ],
    ),
];

/// A tally of output checks.
#[derive(Debug, Default, Clone)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// One line per failure (the first few are printed).
    pub notes: Vec<String>,
}

impl Checks {
    /// Records one check; `what` names it when it fails.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    /// Failed checks over checks made.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    /// PRA invariants: every measure finite and in `[0, 1]`, and the
    /// best performance exactly 1 (performance is normalized by its max).
    pub fn pra(&mut self, what: &str, r: &PraResults) {
        for (axis, values) in [
            ("performance", &r.performance),
            ("robustness", &r.robustness),
            ("aggressiveness", &r.aggressiveness),
        ] {
            self.check(values.iter().all(|v| (0.0..=1.0).contains(v)), || {
                format!("{what}: {axis} outside [0,1] or not finite")
            });
        }
        self.check(r.performance_raw.iter().all(|v| v.is_finite()), || {
            format!("{what}: raw performance not finite")
        });
        let best = r.performance.iter().copied().fold(f64::MIN, f64::max);
        self.check(best == 1.0, || {
            format!("{what}: best performance is {best}, not 1")
        });
    }

    /// Attack invariant: every robustness value finite and in `[0, 1]`.
    pub fn robustness(&mut self, what: &str, rows: &[Vec<f64>]) {
        self.check(
            rows.iter().flatten().all(|v| (0.0..=1.0).contains(v)),
            || format!("{what}: robustness outside [0,1] or not finite"),
        );
    }

    /// Evolution invariant: every payoff finite.
    pub fn payoffs(&mut self, what: &str, payoff: &[Vec<f64>]) {
        self.check(payoff.iter().flatten().all(|v| v.is_finite()), || {
            format!("{what}: payoff not finite")
        });
    }

    /// Compares two digest sets file by file (one check per file in
    /// either set).
    pub fn same_digests(&mut self, what: &str, want: &Digests, got: &Digests) {
        let names: std::collections::BTreeSet<&String> = want.keys().chain(got.keys()).collect();
        for name in names {
            let (w, g) = (want.get(name), got.get(name));
            self.check(w.is_some() && w == g, || {
                format!("{what}: {name} digest {g:016x?} != {w:016x?}")
            });
        }
    }

    /// At the default seed, compares a workload's file digests with the
    /// pinned ones.
    pub fn pinned(&mut self, workload: &str, seed: u64, got: &Digests) {
        if seed != DEFAULT_SEED {
            return;
        }
        let want: Digests = PINNED
            .iter()
            .find(|(w, _)| *w == workload)
            .map(|(_, files)| files.iter().map(|&(n, d)| (n.to_string(), d)).collect())
            .unwrap_or_default();
        self.same_digests("pinned", &want, got);
    }
}

/// File name → FNV-1a digest of the file's bytes.
pub type Digests = BTreeMap<String, u64>;

/// Digests every regular file in `dir`.
///
/// # Errors
///
/// Returns a message when the directory or a file cannot be read.
pub fn digest_dir(dir: &Path) -> Result<Digests, String> {
    let mut out = Digests::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("listing {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("listing {}: {e}", dir.display()))?;
        let bytes = std::fs::read(entry.path())
            .map_err(|e| format!("reading {}: {e}", entry.path().display()))?;
        out.insert(
            entry.file_name().to_string_lossy().into_owned(),
            fnv1a(&bytes),
        );
    }
    Ok(out)
}

/// The digest a cache file holding `stamp` and `body` has: what a loaded
/// and re-serialized result must reproduce.
pub fn stamped_digest(stamp: &str, body: &str) -> u64 {
    let mut text = String::with_capacity(stamp.len() + 1 + body.len());
    text.push_str(stamp);
    text.push('\n');
    text.push_str(body);
    fnv1a(text.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_missing_or_extra_file_is_counted() {
        let mut want = Digests::new();
        want.insert("a.csv".into(), 1);
        let mut got = Digests::new();
        got.insert("b.csv".into(), 1);
        let mut checks = Checks::default();
        checks.same_digests("files", &want, &got);
        assert_eq!((checks.attempted, checks.failed), (2, 2));
    }

    #[test]
    fn invariants_catch_out_of_range_values() {
        let ok = PraResults::new(
            vec![2.0, 1.0],
            vec![1.0, 0.5],
            vec![0.0, 1.0],
            vec![0.5, 0.5],
        );
        let mut checks = Checks::default();
        checks.pra("ok", &ok);
        assert_eq!(checks.failed, 0);
        let bad = PraResults::new(
            vec![2.0, 1.0],
            vec![0.9, f64::NAN],
            vec![0.0, 1.5],
            vec![0.5, 0.5],
        );
        checks.pra("bad", &bad);
        // performance NaN, robustness 1.5, best performance 0.9
        assert_eq!(checks.failed, 3);
        checks.payoffs("evo", &[vec![1.0, f64::INFINITY]]);
        checks.robustness("attack", &[vec![0.2, -0.1]]);
        assert_eq!(checks.failed, 5);
    }
}
