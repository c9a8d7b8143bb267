//! The *gshare* predictor (McFarling, 1993): global history XORed with the
//! branch address. The paper's standard single-bank baseline.

use crate::counter::CounterKind;
use crate::error::ConfigError;
use crate::index::IndexFunction;
use crate::onebank::OneBank;
use crate::predictor::{BranchPredictor, Outcome, Prediction};

/// A single-bank, tag-less gshare predictor.
///
/// When the history is shorter than the index, history bits are XORed with
/// the *high-order* end of the low-order address bits (footnote 1 of the
/// paper).
///
/// ```
/// use bpred_core::prelude::*;
///
/// let mut p = Gshare::new(12, 8, CounterKind::TwoBit)?;
/// let pc = 0x4000_0040;
/// let _ = p.predict(pc);
/// p.update(pc, Outcome::Taken);
/// # Ok::<(), bpred_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gshare {
    inner: OneBank,
}

impl Gshare {
    /// A gshare predictor with `2^entries_log2` counters and `history_bits`
    /// bits of global history.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `entries_log2` is 0 or above 30, or if
    /// `history_bits` exceeds 64.
    pub fn new(
        entries_log2: u32,
        history_bits: u32,
        kind: CounterKind,
    ) -> Result<Self, ConfigError> {
        Ok(Gshare {
            inner: OneBank::new(entries_log2, history_bits, kind, IndexFunction::Gshare)?,
        })
    }

    /// `log2` of the table size.
    pub fn entries_log2(&self) -> u32 {
        self.inner.entries_log2()
    }

    /// History register length.
    pub fn history_bits(&self) -> u32 {
        self.inner.history_bits()
    }

    /// Counter width.
    pub fn counter_kind(&self) -> CounterKind {
        self.inner.counter_kind()
    }
}

impl BranchPredictor for Gshare {
    fn predict(&mut self, pc: u64) -> Prediction {
        self.inner.predict(pc)
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        self.inner.update(pc, outcome);
    }

    #[inline(always)]
    fn step(&mut self, pc: u64, outcome: Outcome) -> Prediction {
        self.inner.step_with(IndexFunction::Gshare, pc, outcome)
    }

    fn record_unconditional(&mut self, pc: u64) {
        self.inner.record_unconditional(pc);
    }

    fn name(&self) -> String {
        format!(
            "gshare {} h={} {}",
            1u64 << self.inner.entries_log2(),
            self.inner.history_bits(),
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

    /// Train an alternating branch whose direction is fully determined by
    /// the previous outcome; a history-indexed predictor learns it, a
    /// bimodal one cannot.
    #[test]
    fn learns_history_correlated_pattern() {
        let mut p = Gshare::new(10, 4, CounterKind::TwoBit).unwrap();
        let pc = 0x1000;
        // Pattern T,N,T,N,...: after warmup, every prediction is correct.
        let mut last = Outcome::NotTaken;
        for _ in 0..64 {
            last = last.flipped();
            p.update(pc, last);
        }
        let mut correct = 0;
        for _ in 0..32 {
            last = last.flipped();
            if p.predict(pc).outcome == last {
                correct += 1;
            }
            p.update(pc, last);
        }
        assert_eq!(correct, 32, "alternating pattern should be fully learned");
    }

    #[test]
    fn unconditional_branches_shift_history() {
        let mut a = Gshare::new(10, 4, CounterKind::TwoBit).unwrap();
        let mut b = a.clone();
        // Same conditional stream, but `b` also sees an unconditional jump:
        // as in the paper, it shifts into the global history, so the two
        // predictors' states diverge.
        a.update(0x100, Outcome::NotTaken);
        b.update(0x100, Outcome::NotTaken);
        assert_eq!(a, b);
        b.record_unconditional(0x200);
        assert_ne!(a, b, "unconditional branch must shift history");
    }

    #[test]
    fn rejects_bad_config() {
        assert!(Gshare::new(0, 4, CounterKind::TwoBit).is_err());
        assert!(Gshare::new(10, 65, CounterKind::TwoBit).is_err());
    }

    #[test]
    fn name_mentions_parameters() {
        let p = Gshare::new(14, 12, CounterKind::TwoBit).unwrap();
        assert_eq!(p.name(), "gshare 16384 h=12 2-bit");
        assert_eq!(p.storage_bits(), 16384 * 2);
    }

    #[test]
    fn reset_clears_tables_and_history() {
        let mut p = Gshare::new(8, 8, CounterKind::TwoBit).unwrap();
        for i in 0..100u64 {
            p.update(0x1000 + 4 * (i % 7), Outcome::Taken);
        }
        p.reset();
        let q = Gshare::new(8, 8, CounterKind::TwoBit).unwrap();
        assert_eq!(p.predict(0x1000).outcome, {
            let mut q = q;
            q.predict(0x1000).outcome
        });
    }
}
