//! The *bi-mode* predictor (Lee, Chen & Mudge, MICRO 1997).
//!
//! The other contemporary anti-aliasing design: branches are dynamically
//! split into a mostly-taken and a mostly-not-taken population, each with
//! its own gshare-indexed direction bank, and a bimodal *choice* table
//! selects the bank per branch address. Branches colliding inside a bank
//! then usually want the same direction, so the interference is mostly
//! neutral — the same destructive-to-harmless conversion as the agree
//! predictor, without bias bits.

use crate::counter::{CounterBanks, CounterKind, CounterTable};
use crate::error::ConfigError;
use crate::history::GlobalHistory;
use crate::index::IndexFunction;
use crate::predictor::{BranchPredictor, Outcome, Prediction};

/// The bi-mode predictor: a choice table and two direction banks.
///
/// ```
/// use bpred_core::bimode::BiMode;
/// use bpred_core::counter::CounterKind;
/// use bpred_core::predictor::{BranchPredictor, Outcome};
///
/// let mut p = BiMode::new(12, 8, 12, CounterKind::TwoBit)?;
/// let _ = p.predict(0x1000);
/// p.update(0x1000, Outcome::NotTaken);
/// # Ok::<(), bpred_core::error::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BiMode {
    /// Per-address choice counters: taken = "use the taken bank".
    choice: CounterTable,
    /// Direction banks: `[not-taken population, taken population]`.
    banks: CounterBanks,
    history: GlobalHistory,
    n: u32,
    choice_n: u32,
}

impl BiMode {
    /// A bi-mode predictor with two `2^entries_log2`-entry direction
    /// banks, `history_bits` of global history and a
    /// `2^choice_entries_log2`-entry choice table.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if either size is out of `1..=30` or the
    /// history exceeds 64 bits.
    pub fn new(
        entries_log2: u32,
        history_bits: u32,
        choice_entries_log2: u32,
        kind: CounterKind,
    ) -> Result<Self, ConfigError> {
        if entries_log2 == 0 || entries_log2 > 30 {
            return Err(ConfigError::invalid(
                "entries_log2",
                entries_log2,
                "must be in 1..=30",
            ));
        }
        if choice_entries_log2 == 0 || choice_entries_log2 > 30 {
            return Err(ConfigError::invalid(
                "choice_entries_log2",
                choice_entries_log2,
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
        Ok(BiMode {
            choice: CounterTable::new(choice_entries_log2, kind),
            banks: CounterBanks::new(2, entries_log2, kind),
            history: GlobalHistory::new(history_bits),
            n: entries_log2,
            choice_n: choice_entries_log2,
        })
    }

    #[inline]
    fn choice_index(&self, pc: u64) -> u64 {
        (pc >> 2) & ((1 << self.choice_n) - 1)
    }

    #[inline]
    fn direction_index(&self, pc: u64) -> u64 {
        IndexFunction::Gshare.index(&self.history.vector(pc), self.n)
    }

    /// The bank the choice table selects for `pc`.
    #[inline]
    fn selected_bank(&self, pc: u64) -> usize {
        usize::from(self.choice.predict(self.choice_index(pc)).is_taken())
    }
}

impl BranchPredictor for BiMode {
    fn predict(&mut self, pc: u64) -> Prediction {
        Prediction::of(
            self.banks
                .predict(self.selected_bank(pc), self.direction_index(pc)),
        )
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        self.step(pc, outcome);
    }

    #[inline(always)]
    fn step(&mut self, pc: u64, outcome: Outcome) -> Prediction {
        let bank = self.selected_bank(pc);
        // Only the selected bank trains — the serialization that keeps the
        // two populations separate.
        let direction = self
            .banks
            .predict_train(bank, self.direction_index(pc), outcome);
        // The choice table trains with the outcome, EXCEPT when it was
        // overridden successfully: selected bank correct while the choice
        // direction itself disagreed with the outcome.
        let choice_direction = Outcome::from(bank == 1);
        let overridden_successfully = direction == outcome && choice_direction != outcome;
        if !overridden_successfully {
            self.choice.train(self.choice_index(pc), outcome);
        }
        self.history.push(outcome);
        Prediction::of(direction)
    }

    fn record_unconditional(&mut self, _pc: u64) {
        self.history.push(Outcome::Taken);
    }

    fn name(&self) -> String {
        format!(
            "bimode 2x{} h={} choice={} {}",
            1u64 << self.n,
            self.history.len(),
            1u64 << self.choice_n,
            self.banks.kind()
        )
    }

    fn storage_bits(&self) -> u64 {
        self.banks.storage_bits() + self.choice.storage_bits()
    }

    fn reset(&mut self) {
        self.choice.reset();
        self.banks.reset();
        self.history.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bimode() -> BiMode {
        BiMode::new(8, 4, 8, CounterKind::TwoBit).unwrap()
    }

    #[test]
    fn learns_biased_branches() {
        // h = 0 keeps the direction index address-only so the read-back
        // is deterministic; distinct choice slots for the two branches.
        let mut p = BiMode::new(8, 0, 8, CounterKind::TwoBit).unwrap();
        for _ in 0..8 {
            p.update(0x1000, Outcome::Taken);
            p.update(0x1004, Outcome::NotTaken);
        }
        assert_eq!(p.predict(0x1000).outcome, Outcome::Taken);
        assert_eq!(p.predict(0x1004).outcome, Outcome::NotTaken);
    }

    #[test]
    fn populations_separate_opposite_biases() {
        // Two opposite-biased branches that collide in the direction
        // banks: the choice table routes them to different banks, so the
        // conflict disappears (the bi-mode selling point).
        let mut p = BiMode::new(2, 0, 10, CounterKind::TwoBit).unwrap();
        let a = 0x1000;
        let b = a + (1 << (2 + 2)) * 64;
        assert_eq!(p.direction_index(a), p.direction_index(b));
        assert_ne!(p.choice_index(a), p.choice_index(b));
        // Warm up the choice table.
        for _ in 0..4 {
            p.update(a, Outcome::Taken);
            p.update(b, Outcome::NotTaken);
        }
        let mut wrong = 0;
        for _ in 0..100 {
            if p.predict(a).outcome != Outcome::Taken {
                wrong += 1;
            }
            p.update(a, Outcome::Taken);
            if p.predict(b).outcome != Outcome::NotTaken {
                wrong += 1;
            }
            p.update(b, Outcome::NotTaken);
        }
        assert_eq!(wrong, 0, "bi-mode should separate the two populations");
    }

    #[test]
    fn choice_not_trained_on_successful_override() {
        let mut p = BiMode::new(8, 0, 8, CounterKind::TwoBit).unwrap();
        let pc = 0x1000;
        // Drive the choice counter to strongly-taken.
        for _ in 0..4 {
            p.update(pc, Outcome::Taken);
        }
        let ci = p.choice_index(pc);
        let strong = p.choice.value(ci);
        // Now train the taken-bank entry toward not-taken until the bank
        // overrides the choice direction successfully; the choice value
        // must stay pinned during successful overrides.
        for _ in 0..6 {
            p.update(pc, Outcome::NotTaken);
        }
        let after = p.choice.value(ci);
        assert!(
            after >= strong.saturating_sub(3),
            "choice should be mostly spared by successful overrides"
        );
        assert_eq!(p.predict(pc).outcome, Outcome::NotTaken, "bank overrides");
    }

    #[test]
    fn storage_accounting_and_name() {
        let p = BiMode::new(12, 8, 10, CounterKind::TwoBit).unwrap();
        assert_eq!(p.storage_bits(), 2 * 4096 * 2 + 1024 * 2);
        assert_eq!(p.name(), "bimode 2x4096 h=8 choice=1024 2-bit");
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut p = bimode();
        for i in 0..100u64 {
            p.update(0x1000 + 4 * (i % 5), Outcome::from(i % 3 == 0));
        }
        p.reset();
        assert_eq!(p, bimode());
    }

    #[test]
    fn rejects_bad_configs() {
        assert!(BiMode::new(0, 4, 8, CounterKind::TwoBit).is_err());
        assert!(BiMode::new(8, 4, 31, CounterKind::TwoBit).is_err());
        assert!(BiMode::new(8, 99, 8, CounterKind::TwoBit).is_err());
    }
}
