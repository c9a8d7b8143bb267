//! Output checks: every pass's results are compared against the
//! committed campaign baseline, the pinned per-experiment digests, and
//! the first pass of the same run. Each comparison counts as one
//! attempted check; a mismatch counts as failed.

use bpred_results::campaign::{self, CampaignArtifact};
use bpred_results::fingerprint::{fnv1a, to_hex};
use std::collections::BTreeMap;

/// Tally of attempted and failed checks, with the first failures kept
/// for the report.
#[derive(Debug, Default)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
}

/// How many failure descriptions are kept.
const KEPT_FAILURES: usize = 20;

impl Checks {
    /// Count `attempted` checks of which `failed` failed.
    pub fn count(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < KEPT_FAILURES {
            self.failures
                .push(format!("{failed} of {attempted}: {}", what()));
        }
    }

    /// Count one check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count(1, u64::from(!ok), what);
    }

    /// Failed checks over attempted ones (0 when none were made).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Digest of one experiment's rendered output.
pub fn digest(rendered: &[u8]) -> u64 {
    fnv1a(rendered)
}

/// Experiment id → digest of its rendered output.
pub type Digests = BTreeMap<String, u64>;

/// Parse a digest file: `<experiment-id> <16 hex digits>` per line;
/// blank lines and `#` comments are skipped.
pub fn parse_digests(text: &str) -> Result<Digests, String> {
    let mut out = Digests::new();
    for (n, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let bad = || format!("digest line {}: expected `<id> <hex>`, got `{line}`", n + 1);
        let (id, hex) = line.split_once(' ').ok_or_else(bad)?;
        let value = u64::from_str_radix(hex.trim(), 16).map_err(|_| bad())?;
        if out.insert(id.to_string(), value).is_some() {
            return Err(format!("digest line {}: `{id}` listed twice", n + 1));
        }
    }
    Ok(out)
}

/// Serialize digests in the format [`parse_digests`] reads.
pub fn format_digests(digests: &Digests, header: &str) -> String {
    let mut out = format!("# {header}\n");
    for (id, value) in digests {
        out.push_str(&format!("{id} {}\n", to_hex(*value)));
    }
    out
}

/// One check per experiment of `want`: `got` must hold the same digest.
pub fn check_digests(checks: &mut Checks, got: &Digests, want: &Digests, against: &str) {
    for (id, value) in want {
        checks.check(got.get(id) == Some(value), || {
            format!("experiment `{id}` output differs from {against}")
        });
    }
}

/// Diff `candidate` against `baseline` at tolerance 0: one check per
/// baseline cell, plus one per structural difference.
pub fn check_baseline(
    checks: &mut Checks,
    baseline: &CampaignArtifact,
    candidate: &CampaignArtifact,
) {
    let diff = campaign::diff(baseline, candidate, 0.0);
    let failed = diff.regressions.len() as u64;
    checks.count(
        (diff.cells_compared as u64).max(failed).max(1),
        failed,
        || {
            let first = diff
                .regressions
                .first()
                .map_or(String::new(), |r| format!(" (first: {})", r.path));
            format!("campaign cells differ from the baseline at tol 0{first}")
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_roundtrip_and_reject_garbage() {
        let mut digests = Digests::new();
        digests.insert("fig5".into(), digest(b"table"));
        digests.insert("three-c".into(), 7);
        let text = format_digests(&digests, "seed 0x5eed0000");
        assert_eq!(parse_digests(&text).unwrap(), digests);
        assert!(parse_digests("fig5").is_err());
        assert!(parse_digests("fig5 xyz").is_err());
        assert!(parse_digests("fig5 01\nfig5 02").is_err());
    }

    #[test]
    fn mismatched_digest_fails_one_check() {
        let mut want = Digests::new();
        want.insert("a".into(), 1);
        want.insert("b".into(), 2);
        let mut got = want.clone();
        got.insert("b".into(), 3);
        let mut checks = Checks::default();
        check_digests(&mut checks, &got, &want, "the pin");
        assert_eq!((checks.attempted, checks.failed), (2, 1));
        assert!(checks.fail_ratio() > 0.0);
    }
}
