//! Shared implementation of a single-bank, tag-less, direct-mapped
//! predictor: one counter table, one index function, one global history
//! register. `bimodal`, `gshare` and `gselect` are thin wrappers.

use crate::counter::{CounterKind, CounterTable};
use crate::error::ConfigError;
use crate::history::GlobalHistory;
use crate::index::IndexFunction;
use crate::predictor::{Outcome, Prediction};

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct OneBank {
    table: CounterTable,
    history: GlobalHistory,
    func: IndexFunction,
    n: u32,
}

impl OneBank {
    pub(crate) fn new(
        entries_log2: u32,
        history_bits: u32,
        kind: CounterKind,
        func: IndexFunction,
    ) -> Result<Self, ConfigError> {
        if entries_log2 == 0 || entries_log2 > 30 {
            return Err(ConfigError::invalid(
                "entries_log2",
                entries_log2,
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
        Ok(OneBank {
            table: CounterTable::new(entries_log2, kind),
            history: GlobalHistory::new(history_bits),
            func,
            n: entries_log2,
        })
    }

    #[inline]
    pub(crate) fn predict(&self, pc: u64) -> Prediction {
        let idx = self.func.index(&self.history.vector(pc), self.n);
        Prediction::of(self.table.predict(idx))
    }

    #[inline]
    pub(crate) fn update(&mut self, pc: u64, outcome: Outcome) {
        self.step_with(self.func, pc, outcome);
    }

    /// The fused predict-and-train step. Each wrapper passes its own
    /// constant index function (always equal to `self.func`), so the
    /// index computation specializes to that function when inlined.
    #[inline(always)]
    pub(crate) fn step_with(
        &mut self,
        func: IndexFunction,
        pc: u64,
        outcome: Outcome,
    ) -> Prediction {
        debug_assert_eq!(func, self.func);
        let idx = func.index(&self.history.vector(pc), self.n);
        let predicted = self.table.predict_train(idx, outcome);
        // Bimodal's register has length 0: skipping the push keeps a
        // store-to-load dependency out of its per-branch loop.
        if func != IndexFunction::Bimodal {
            self.history.push(outcome);
        }
        Prediction::of(predicted)
    }

    #[inline]
    pub(crate) fn record_unconditional(&mut self, _pc: u64) {
        self.history.push(Outcome::Taken);
    }

    pub(crate) fn storage_bits(&self) -> u64 {
        self.table.storage_bits()
    }

    pub(crate) fn reset(&mut self) {
        self.table.reset();
        self.history.clear();
    }

    pub(crate) fn entries_log2(&self) -> u32 {
        self.n
    }

    pub(crate) fn history_bits(&self) -> u32 {
        self.history.len()
    }

    pub(crate) fn counter_kind(&self) -> CounterKind {
        self.table.kind()
    }

    #[cfg(test)]
    pub(crate) fn clear_history_for_test(&mut self) {
        self.history.clear();
    }
}
