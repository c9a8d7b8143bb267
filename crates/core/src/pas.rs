//! Per-address (local-history) two-level predictors, and their skewed
//! variant.
//!
//! Section 7 of the paper: "The same technique could be applied to remove
//! aliasing in other prediction methods, including per-address history
//! schemes". This module provides the substrate for that claim:
//!
//! * [`Pas`] — a classic PAs-style two-level predictor (Yeh & Patt): a
//!   tag-less branch-history table of per-branch local histories, and a
//!   pattern table indexed by the concatenation of address and local
//!   history. Being direct-mapped and tag-less, both levels alias.
//! * [`SkewedPas`] — the future-work variant: the same first level, but
//!   three pattern banks indexed with the inter-bank skewing functions
//!   over the `(address, local history)` vector, majority-voted, with
//!   partial update — gskew's recipe transplanted to local histories.

use crate::counter::{CounterBanks, CounterKind, CounterTable};
use crate::error::ConfigError;
use crate::gskew::UpdatePolicy;
use crate::index::IndexFunction;
use crate::predictor::{BranchPredictor, Outcome, Prediction};
use crate::skew::skew_index;
use crate::vector::InfoVector;

/// The first level shared by both variants: a table of per-branch local
/// history registers, indexed by address truncation (tag-less, so two
/// branches may share a history register — first-level aliasing).
#[derive(Debug, Clone, PartialEq, Eq)]
struct BranchHistoryTable {
    histories: Vec<u64>,
    n: u32,
    local_bits: u32,
}

impl BranchHistoryTable {
    fn new(entries_log2: u32, local_bits: u32) -> Result<Self, ConfigError> {
        if entries_log2 == 0 || entries_log2 > 30 {
            return Err(ConfigError::invalid(
                "bht_entries_log2",
                entries_log2,
                "must be in 1..=30",
            ));
        }
        if local_bits == 0 || local_bits > 32 {
            return Err(ConfigError::invalid(
                "local_bits",
                local_bits,
                "must be in 1..=32",
            ));
        }
        Ok(BranchHistoryTable {
            histories: vec![0; 1 << entries_log2],
            n: entries_log2,
            local_bits,
        })
    }

    #[inline]
    fn slot(&self, pc: u64) -> usize {
        ((pc >> 2) & ((1 << self.n) - 1)) as usize
    }

    #[inline]
    fn history(&self, pc: u64) -> u64 {
        self.histories[self.slot(pc)]
    }

    #[inline]
    fn push(&mut self, pc: u64, outcome: Outcome) {
        let slot = self.slot(pc);
        let mask = (1u64 << self.local_bits) - 1;
        self.histories[slot] = ((self.histories[slot] << 1) | u64::from(outcome.is_taken())) & mask;
    }

    fn storage_bits(&self) -> u64 {
        self.histories.len() as u64 * u64::from(self.local_bits)
    }

    fn reset(&mut self) {
        self.histories.fill(0);
    }
}

/// A PAs-style local-history predictor with a single direct-mapped
/// pattern table.
///
/// ```
/// use bpred_core::pas::Pas;
/// use bpred_core::counter::CounterKind;
/// use bpred_core::predictor::{BranchPredictor, Outcome};
///
/// let mut p = Pas::new(10, 8, 12, CounterKind::TwoBit)?;
/// // An alternating branch is learned from its own local history alone.
/// for i in 0..64 {
///     p.update(0x1000, if i % 2 == 0 { Outcome::Taken } else { Outcome::NotTaken });
/// }
/// # Ok::<(), bpred_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pas {
    bht: BranchHistoryTable,
    table: CounterTable,
    n: u32,
}

impl Pas {
    /// A PAs predictor: `2^bht_entries_log2` local histories of
    /// `local_bits` bits, and a `2^entries_log2`-entry pattern table.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on out-of-range sizes.
    pub fn new(
        bht_entries_log2: u32,
        local_bits: u32,
        entries_log2: u32,
        kind: CounterKind,
    ) -> Result<Self, ConfigError> {
        if entries_log2 == 0 || entries_log2 > 30 {
            return Err(ConfigError::invalid(
                "entries_log2",
                entries_log2,
                "must be in 1..=30",
            ));
        }
        Ok(Pas {
            bht: BranchHistoryTable::new(bht_entries_log2, local_bits)?,
            table: CounterTable::new(entries_log2, kind),
            n: entries_log2,
        })
    }

    #[inline]
    fn index(&self, pc: u64) -> u64 {
        let v = InfoVector::new(pc, self.bht.history(pc), self.bht.local_bits);
        // PAs concatenates address bits above the local history.
        IndexFunction::Gselect.index(&v, self.n)
    }
}

impl BranchPredictor for Pas {
    fn predict(&mut self, pc: u64) -> Prediction {
        Prediction::of(self.table.predict(self.index(pc)))
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        self.step(pc, outcome);
    }

    #[inline(always)]
    fn step(&mut self, pc: u64, outcome: Outcome) -> Prediction {
        let predicted = self.table.predict_train(self.index(pc), outcome);
        self.bht.push(pc, outcome);
        Prediction::of(predicted)
    }

    fn name(&self) -> String {
        format!(
            "pas bht={}x{} table={} {}",
            self.bht.histories.len(),
            self.bht.local_bits,
            1u64 << self.n,
            self.table.kind()
        )
    }

    fn storage_bits(&self) -> u64 {
        self.bht.storage_bits() + self.table.storage_bits()
    }

    fn reset(&mut self) {
        self.bht.reset();
        self.table.reset();
    }
}

/// The skewed per-address predictor: three pattern banks indexed by the
/// `f0..f2` skewing functions over `(address, local history)`, majority
/// vote, and (by default) partial update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkewedPas {
    bht: BranchHistoryTable,
    banks: CounterBanks,
    n: u32,
    policy: UpdatePolicy,
}

impl SkewedPas {
    /// A skewed PAs: `2^bht_entries_log2` local histories of `local_bits`
    /// bits, and three `2^bank_entries_log2`-entry pattern banks.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on out-of-range sizes.
    pub fn new(
        bht_entries_log2: u32,
        local_bits: u32,
        bank_entries_log2: u32,
        kind: CounterKind,
        policy: UpdatePolicy,
    ) -> Result<Self, ConfigError> {
        if !(2..=30).contains(&bank_entries_log2) {
            return Err(ConfigError::invalid(
                "bank_entries_log2",
                bank_entries_log2,
                "must be in 2..=30",
            ));
        }
        Ok(SkewedPas {
            bht: BranchHistoryTable::new(bht_entries_log2, local_bits)?,
            banks: CounterBanks::new(3, bank_entries_log2, kind),
            n: bank_entries_log2,
            policy,
        })
    }

    /// The three bank indices of `pc` under its local history.
    #[inline]
    fn indices(&self, pc: u64) -> [u64; 3] {
        let packed = InfoVector::new(pc, self.bht.history(pc), self.bht.local_bits).packed();
        [
            skew_index(0, packed, self.n),
            skew_index(1, packed, self.n),
            skew_index(2, packed, self.n),
        ]
    }
}

impl BranchPredictor for SkewedPas {
    fn predict(&mut self, pc: u64) -> Prediction {
        let idx = self.indices(pc);
        let taken = (0..3)
            .filter(|&b| self.banks.predict(b, idx[b]).is_taken())
            .count();
        Prediction::of(Outcome::from(2 * taken > 3))
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        self.step(pc, outcome);
    }

    #[inline(always)]
    fn step(&mut self, pc: u64, outcome: Outcome) -> Prediction {
        let idx = self.indices(pc);
        let overall = self
            .banks
            .vote_step(idx, outcome, self.policy == UpdatePolicy::Partial);
        self.bht.push(pc, outcome);
        Prediction::of(overall)
    }

    fn name(&self) -> String {
        format!(
            "spas bht={}x{} 3x{} {} {}",
            self.bht.histories.len(),
            self.bht.local_bits,
            1u64 << self.n,
            self.banks.kind(),
            self.policy
        )
    }

    fn storage_bits(&self) -> u64 {
        self.bht.storage_bits() + self.banks.storage_bits()
    }

    fn reset(&mut self) {
        self.bht.reset();
        self.banks.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(p: &mut dyn BranchPredictor, pc: u64, pattern: &[bool], reps: usize) -> f64 {
        let mut wrong = 0u64;
        let mut total = 0u64;
        for rep in 0..reps {
            for &taken in pattern {
                let outcome = Outcome::from(taken);
                if rep > reps / 2 {
                    total += 1;
                    if p.predict(pc).outcome != outcome {
                        wrong += 1;
                    }
                }
                p.update(pc, outcome);
            }
        }
        wrong as f64 / total.max(1) as f64
    }

    #[test]
    fn pas_learns_local_patterns() {
        let mut p = Pas::new(8, 8, 12, CounterKind::TwoBit).unwrap();
        // A period-3 pattern is invisible to a bimodal predictor but
        // trivial from local history.
        let miss = drive(&mut p, 0x1000, &[true, true, false], 60);
        assert_eq!(miss, 0.0, "period-3 pattern fully learned");
    }

    #[test]
    fn skewed_pas_learns_local_patterns() {
        let mut p = SkewedPas::new(8, 8, 10, CounterKind::TwoBit, UpdatePolicy::Partial).unwrap();
        let miss = drive(&mut p, 0x1000, &[true, false, false, true], 60);
        assert_eq!(miss, 0.0);
    }

    #[test]
    fn local_histories_are_per_address() {
        let mut p = Pas::new(8, 4, 12, CounterKind::TwoBit).unwrap();
        // Interleave two branches with different periodic patterns; local
        // histories keep them separate.
        let mut wrong = 0;
        for i in 0..400u32 {
            let a_out = Outcome::from(i % 2 == 0);
            let b_out = Outcome::from(i % 3 == 0);
            if i > 200 {
                wrong += u32::from(p.predict(0x1000).outcome != a_out);
                wrong += u32::from(p.predict(0x1004).outcome != b_out);
            }
            p.update(0x1000, a_out);
            p.update(0x1004, b_out);
        }
        assert_eq!(wrong, 0);
    }

    #[test]
    fn first_level_aliasing_exists() {
        // Two branches 2^(n+2) apart share a BHT slot: their histories
        // intermingle, the first-level aliasing the tag-less BHT implies.
        let mut p = Pas::new(4, 4, 12, CounterKind::TwoBit).unwrap();
        let a = 0x1000;
        let b = a + (1 << (4 + 2));
        assert_eq!(p.bht.slot(a), p.bht.slot(b));
        p.update(a, Outcome::Taken);
        assert_eq!(p.bht.history(b), 0b1, "b sees a's history bit");
    }

    #[test]
    fn storage_and_names() {
        let p = Pas::new(10, 8, 12, CounterKind::TwoBit).unwrap();
        assert_eq!(p.storage_bits(), 1024 * 8 + 4096 * 2);
        assert_eq!(p.name(), "pas bht=1024x8 table=4096 2-bit");
        let s = SkewedPas::new(10, 8, 10, CounterKind::TwoBit, UpdatePolicy::Partial).unwrap();
        assert_eq!(s.storage_bits(), 1024 * 8 + 3 * 1024 * 2);
        assert_eq!(s.name(), "spas bht=1024x8 3x1024 2-bit partial");
    }

    #[test]
    fn unconditional_branches_do_not_touch_local_history() {
        let mut p = Pas::new(8, 4, 10, CounterKind::TwoBit).unwrap();
        let before = p.clone();
        p.record_unconditional(0x1000);
        assert_eq!(p, before);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut p = SkewedPas::new(8, 6, 8, CounterKind::TwoBit, UpdatePolicy::Partial).unwrap();
        for i in 0..100u64 {
            p.update(0x1000 + 4 * (i % 9), Outcome::from(i % 2 == 0));
        }
        p.reset();
        let fresh = SkewedPas::new(8, 6, 8, CounterKind::TwoBit, UpdatePolicy::Partial).unwrap();
        assert_eq!(p, fresh);
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(Pas::new(0, 8, 12, CounterKind::TwoBit).is_err());
        assert!(Pas::new(8, 0, 12, CounterKind::TwoBit).is_err());
        assert!(Pas::new(8, 33, 12, CounterKind::TwoBit).is_err());
        assert!(Pas::new(8, 8, 0, CounterKind::TwoBit).is_err());
        assert!(SkewedPas::new(8, 8, 1, CounterKind::TwoBit, UpdatePolicy::Partial).is_err());
    }
}
