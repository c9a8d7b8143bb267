//! The *agree* predictor (Sprangle, Chappell, Alsup & Patt, ISCA 1997).
//!
//! Published at the same conference as the skewed predictor and attacking
//! the same enemy, the agree predictor re-encodes predictions as
//! *agreement with a per-branch bias bit*. Because most branches agree
//! with their bias most of the time, two substreams sharing a counter
//! usually push it in the *same* (agree) direction — destructive aliasing
//! is converted into neutral or constructive aliasing instead of being
//! dispersed across banks. It is included here as the natural comparison
//! point for gskew in the anti-aliasing design space.
//!
//! Model notes: the original stores the bias bit alongside the branch in
//! the BTB / instruction cache, set on first execution. We model that
//! with a direct-mapped bias-bit table indexed by the branch address plus
//! a valid bit per entry (the BTB-allocation event); bias-table aliasing
//! between branches is therefore modeled too, as it would be in a
//! finite BTB.

use crate::counter::{CounterKind, CounterTable};
use crate::error::ConfigError;
use crate::history::GlobalHistory;
use crate::index::IndexFunction;
use crate::predictor::{BranchPredictor, Outcome, Prediction};

/// The agree predictor: gshare-indexed agreement counters over a
/// per-address bias bit.
///
/// ```
/// use bpred_core::agree::Agree;
/// use bpred_core::counter::CounterKind;
/// use bpred_core::predictor::{BranchPredictor, Outcome};
///
/// let mut p = Agree::new(12, 8, 12, CounterKind::TwoBit)?;
/// let _ = p.predict(0x1000);
/// p.update(0x1000, Outcome::Taken);
/// # Ok::<(), bpred_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Agree {
    /// Agreement counters: taken = "agrees with the bias bit".
    counters: CounterTable,
    /// One bias bit per entry, indexed by address truncation.
    bias: Vec<bool>,
    /// Whether the bias bit has been set (BTB-resident).
    bias_valid: Vec<bool>,
    history: GlobalHistory,
    n: u32,
    bias_n: u32,
}

impl Agree {
    /// An agree predictor with `2^entries_log2` agreement counters,
    /// `history_bits` of global history and `2^bias_entries_log2` bias
    /// bits.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if either size is out of `1..=30` or the
    /// history exceeds 64 bits.
    pub fn new(
        entries_log2: u32,
        history_bits: u32,
        bias_entries_log2: u32,
        kind: CounterKind,
    ) -> Result<Self, ConfigError> {
        if entries_log2 == 0 || entries_log2 > 30 {
            return Err(ConfigError::invalid(
                "entries_log2",
                entries_log2,
                "must be in 1..=30",
            ));
        }
        if bias_entries_log2 == 0 || bias_entries_log2 > 30 {
            return Err(ConfigError::invalid(
                "bias_entries_log2",
                bias_entries_log2,
                "must be in 1..=30",
            ));
        }
        if history_bits > 64 {
            return Err(ConfigError::invalid(
                "history_bits",
                history_bits,
                "must be at most 64",
            ));
        }
        Ok(Agree {
            counters: CounterTable::new(entries_log2, kind),
            bias: vec![false; 1 << bias_entries_log2],
            bias_valid: vec![false; 1 << bias_entries_log2],
            history: GlobalHistory::new(history_bits),
            n: entries_log2,
            bias_n: bias_entries_log2,
        })
    }

    #[inline]
    fn bias_index(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1 << self.bias_n) - 1)) as usize
    }

    #[inline]
    fn counter_index(&self, pc: u64) -> u64 {
        IndexFunction::Gshare.index(&self.history.vector(pc), self.n)
    }

    /// The current bias direction for `pc` (default taken when unset,
    /// matching the static always-taken fallback).
    pub fn bias_for(&self, pc: u64) -> Outcome {
        let i = self.bias_index(pc);
        if self.bias_valid[i] {
            Outcome::from(self.bias[i])
        } else {
            Outcome::Taken
        }
    }
}

impl BranchPredictor for Agree {
    fn predict(&mut self, pc: u64) -> Prediction {
        let bias = self.bias_for(pc);
        let agrees = self.counters.predict(self.counter_index(pc)).is_taken();
        Prediction::of(if agrees { bias } else { bias.flipped() })
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        self.step(pc, outcome);
    }

    #[inline(always)]
    fn step(&mut self, pc: u64, outcome: Outcome) -> Prediction {
        let predicted_bias = self.bias_for(pc);
        let i = self.bias_index(pc);
        if !self.bias_valid[i] {
            // First execution allocates the bias bit with the outcome —
            // the BTB-fill event of the original design.
            self.bias_valid[i] = true;
            self.bias[i] = outcome.is_taken();
        }
        let bias = Outcome::from(self.bias[i]);
        let idx = self.counter_index(pc);
        let agrees = self
            .counters
            .predict_train(idx, Outcome::from(outcome == bias))
            .is_taken();
        self.history.push(outcome);
        Prediction::of(if agrees {
            predicted_bias
        } else {
            predicted_bias.flipped()
        })
    }

    fn record_unconditional(&mut self, _pc: u64) {
        self.history.push(Outcome::Taken);
    }

    fn name(&self) -> String {
        format!(
            "agree {} h={} bias={} {}",
            1u64 << self.n,
            self.history.len(),
            1u64 << self.bias_n,
            self.counters.kind()
        )
    }

    fn storage_bits(&self) -> u64 {
        // Agreement counters + bias bit and valid bit per bias entry.
        self.counters.storage_bits() + 2 * (1u64 << self.bias_n)
    }

    fn reset(&mut self) {
        self.counters.reset();
        self.bias.fill(false);
        self.bias_valid.fill(false);
        self.history.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn agree() -> Agree {
        Agree::new(8, 4, 8, CounterKind::TwoBit).unwrap()
    }

    #[test]
    fn learns_biased_branches_in_both_directions() {
        // h = 0 keeps the counter index address-only so the prediction
        // read-back is deterministic; pcs use distinct bias slots.
        let mut p = Agree::new(8, 0, 8, CounterKind::TwoBit).unwrap();
        for _ in 0..8 {
            p.update(0x1000, Outcome::Taken);
            p.update(0x1004, Outcome::NotTaken);
        }
        assert_eq!(p.predict(0x1000).outcome, Outcome::Taken);
        assert_eq!(p.predict(0x1004).outcome, Outcome::NotTaken);
    }

    #[test]
    fn bias_bit_is_first_outcome() {
        let mut p = agree();
        p.update(0x1000, Outcome::NotTaken);
        assert_eq!(p.bias_for(0x1000), Outcome::NotTaken);
        // Later taken outcomes don't rewrite the bias bit...
        for _ in 0..8 {
            p.update(0x1000, Outcome::Taken);
        }
        assert_eq!(p.bias_for(0x1000), Outcome::NotTaken);
        // ...but the agreement counters learn to disagree.
        assert_eq!(p.predict(0x1000).outcome, Outcome::Taken);
    }

    #[test]
    fn unset_bias_defaults_taken() {
        let mut p = agree();
        assert_eq!(p.bias_for(0x1234), Outcome::Taken);
        assert_eq!(p.predict(0x1234).outcome, Outcome::Taken);
    }

    #[test]
    fn aliasing_between_agreeing_substreams_is_harmless() {
        // Two branches, both agreeing with their own bias, collide in the
        // agreement table: both push the shared counter toward "agree",
        // so neither mispredicts — the agree predictor's selling point.
        let mut p = Agree::new(2, 0, 8, CounterKind::TwoBit).unwrap();
        let a = 0x1000;
        // Same counter index (h=0 means index = pc-derived; choose pcs
        // colliding modulo 4 entries), different bias slots.
        let b = a + (1 << (2 + 2)) * 16;
        assert_eq!(p.counter_index(a), p.counter_index(b));
        assert_ne!(p.bias_index(a), p.bias_index(b));
        let mut wrong = 0;
        for i in 0..100 {
            for (pc, dir) in [(a, Outcome::Taken), (b, Outcome::NotTaken)] {
                if i > 0 && p.predict(pc).outcome != dir {
                    wrong += 1;
                }
                p.update(pc, dir);
            }
        }
        assert_eq!(wrong, 0, "agree encoding should neutralize this conflict");
    }

    #[test]
    fn storage_accounting() {
        let p = Agree::new(12, 8, 10, CounterKind::TwoBit).unwrap();
        assert_eq!(p.storage_bits(), 4096 * 2 + 2 * 1024);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut p = agree();
        for i in 0..100u64 {
            p.update(0x1000 + 4 * (i % 7), Outcome::from(i % 2 == 0));
        }
        p.reset();
        assert_eq!(p, agree());
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(Agree::new(0, 4, 8, CounterKind::TwoBit).is_err());
        assert!(Agree::new(8, 4, 0, CounterKind::TwoBit).is_err());
        assert!(Agree::new(8, 65, 8, CounterKind::TwoBit).is_err());
    }
}
