//! The bimodal predictor: one table of counters indexed by the branch
//! address alone (Smith, 1981; the `address mod 2^n` scheme).

use crate::counter::CounterKind;
use crate::error::ConfigError;
use crate::index::IndexFunction;
use crate::onebank::OneBank;
use crate::predictor::{BranchPredictor, Outcome, Prediction};

/// A direct-mapped, tag-less table of saturating counters indexed by the
/// low-order branch address bits.
///
/// This is the `h = 0` degenerate point of the history-length sweeps
/// (figures 7 and 12), and the address-indexed bank 0 of the enhanced
/// skewed predictor uses the same indexing.
///
/// ```
/// use bpred_core::prelude::*;
///
/// let mut p = Bimodal::new(10, CounterKind::TwoBit)?;
/// let pc = 0x400;
/// p.update(pc, Outcome::Taken);
/// p.update(pc, Outcome::Taken);
/// assert_eq!(p.predict(pc).outcome, Outcome::Taken);
/// # Ok::<(), bpred_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bimodal {
    inner: OneBank,
}

impl Bimodal {
    /// A bimodal predictor with `2^entries_log2` counters.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `entries_log2` is 0 or above 30.
    pub fn new(entries_log2: u32, kind: CounterKind) -> Result<Self, ConfigError> {
        Ok(Bimodal {
            inner: OneBank::new(entries_log2, 0, kind, IndexFunction::Bimodal)?,
        })
    }

    /// `log2` of the table size.
    pub fn entries_log2(&self) -> u32 {
        self.inner.entries_log2()
    }

    /// Counter width.
    pub fn counter_kind(&self) -> CounterKind {
        self.inner.counter_kind()
    }
}

impl BranchPredictor for Bimodal {
    fn predict(&mut self, pc: u64) -> Prediction {
        self.inner.predict(pc)
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        self.inner.update(pc, outcome);
    }

    #[inline(always)]
    fn step(&mut self, pc: u64, outcome: Outcome) -> Prediction {
        self.inner.step_with(IndexFunction::Bimodal, pc, outcome)
    }

    fn name(&self) -> String {
        format!(
            "bimodal {} {}",
            1u64 << self.inner.entries_log2(),
            self.inner.counter_kind()
        )
    }

    fn storage_bits(&self) -> u64 {
        self.inner.storage_bits()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_a_biased_branch() {
        let mut p = Bimodal::new(8, CounterKind::TwoBit).unwrap();
        let pc = 0x1000;
        for _ in 0..4 {
            p.update(pc, Outcome::Taken);
        }
        assert_eq!(p.predict(pc).outcome, Outcome::Taken);
    }

    #[test]
    fn different_addresses_use_different_entries() {
        let mut p = Bimodal::new(8, CounterKind::TwoBit).unwrap();
        let a = 0x1000;
        let b = 0x1004;
        for _ in 0..4 {
            p.update(a, Outcome::Taken);
            p.update(b, Outcome::NotTaken);
        }
        assert_eq!(p.predict(a).outcome, Outcome::Taken);
        assert_eq!(p.predict(b).outcome, Outcome::NotTaken);
    }

    #[test]
    fn aliased_addresses_interfere() {
        // Two addresses 2^(n+2) bytes apart map to the same entry: the
        // basic aliasing phenomenon the paper studies.
        let mut p = Bimodal::new(4, CounterKind::TwoBit).unwrap();
        let a = 0x1000;
        let b = a + (1 << (4 + 2));
        for _ in 0..4 {
            p.update(a, Outcome::Taken);
        }
        assert_eq!(
            p.predict(b).outcome,
            Outcome::Taken,
            "b reads a's counter (destructive aliasing candidate)"
        );
    }

    #[test]
    fn history_is_ignored() {
        let mut p = Bimodal::new(8, CounterKind::TwoBit).unwrap();
        let pc = 0x2000;
        p.update(0x3000, Outcome::Taken);
        let before = p.predict(pc);
        p.record_unconditional(0x4000);
        assert_eq!(p.predict(pc), before);
    }

    #[test]
    fn rejects_bad_config() {
        assert!(Bimodal::new(0, CounterKind::TwoBit).is_err());
        assert!(Bimodal::new(31, CounterKind::TwoBit).is_err());
    }

    #[test]
    fn name_and_storage() {
        let p = Bimodal::new(10, CounterKind::TwoBit).unwrap();
        assert_eq!(p.name(), "bimodal 1024 2-bit");
        assert_eq!(p.storage_bits(), 2048);
    }

    #[test]
    fn reset_forgets_training() {
        let mut p = Bimodal::new(8, CounterKind::TwoBit).unwrap();
        let pc = 0x1000;
        for _ in 0..4 {
            p.update(pc, Outcome::NotTaken);
        }
        assert_eq!(p.predict(pc).outcome, Outcome::NotTaken);
        p.reset();
        // Boot state is weakly taken (static always-taken behaviour).
        assert_eq!(p.predict(pc).outcome, Outcome::Taken);
    }
}
