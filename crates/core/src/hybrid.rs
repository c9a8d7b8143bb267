//! Hybrid predictors: the McFarling combining predictor and 2bc-gskew.
//!
//! Section 7 of the paper suggests applying skewing inside hybrid schemes
//! as future work. Both structures here realize that suggestion:
//!
//! * [`McFarling`] combines any two component predictors with a meta table
//!   of 2-bit counters (McFarling, 1993) — e.g. gshare + bimodal, or
//!   gskew + bimodal.
//! * [`TwoBcGskew`] is the arrangement eventually adopted (in refined form)
//!   by the Alpha EV8: a bimodal bank, two skew-indexed global banks with
//!   different history lengths, and a meta bank choosing between the
//!   bimodal prediction and the 3-way majority. Our update rules follow the
//!   published EV8 description in simplified form: on a correct overall
//!   prediction only agreeing tables are strengthened (partial update); on
//!   a misprediction all participating tables are trained; the meta table
//!   is trained whenever the bimodal and majority predictions disagree.

use crate::counter::{CounterBanks, CounterKind, CounterTable};
use crate::error::ConfigError;
use crate::history::GlobalHistory;
use crate::predictor::{BranchPredictor, Outcome, Prediction};
use crate::skew::skew_index;
use crate::vector::InfoVector;
use std::fmt;

/// A combining predictor: two components and a meta-predictor choosing
/// between them per branch address.
///
/// The meta table holds 2-bit counters indexed by the branch address; a
/// high counter selects component 1, a low counter component 0. The meta
/// counter is trained only when the components disagree.
///
/// The components are any two predictors whose `predict` leaves their
/// state unchanged (true of every predictor in this crate), boxed or
/// concrete.
///
/// ```
/// use bpred_core::prelude::*;
///
/// let gshare = Gshare::new(10, 8, CounterKind::TwoBit)?;
/// let bimodal = Bimodal::new(10, CounterKind::TwoBit)?;
/// let mut p = McFarling::new(bimodal, gshare, 10)?;
/// let _ = p.predict(0x1000);
/// p.update(0x1000, Outcome::Taken);
/// # Ok::<(), bpred_core::error::ConfigError>(())
/// ```
pub struct McFarling<A = Box<dyn BranchPredictor>, B = Box<dyn BranchPredictor>> {
    c0: A,
    c1: B,
    meta: CounterTable,
    meta_n: u32,
}

impl<A: BranchPredictor, B: BranchPredictor> McFarling<A, B> {
    /// Combine `c0` and `c1` with a `2^meta_entries_log2`-entry meta table.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `meta_entries_log2` is 0 or above 30.
    pub fn new(c0: A, c1: B, meta_entries_log2: u32) -> Result<Self, ConfigError> {
        if meta_entries_log2 == 0 || meta_entries_log2 > 30 {
            return Err(ConfigError::invalid(
                "meta_entries_log2",
                meta_entries_log2,
                "must be in 1..=30",
            ));
        }
        Ok(McFarling {
            c0,
            c1,
            meta: CounterTable::new(meta_entries_log2, CounterKind::TwoBit),
            meta_n: meta_entries_log2,
        })
    }

    #[inline]
    fn meta_index(&self, pc: u64) -> u64 {
        (pc >> 2) & ((1 << self.meta_n) - 1)
    }

    /// Which component the meta table currently selects for `pc`.
    pub fn selects_component_1(&self, pc: u64) -> bool {
        self.meta.predict(self.meta_index(pc)).is_taken()
    }
}

impl<A: BranchPredictor, B: BranchPredictor> fmt::Debug for McFarling<A, B> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("McFarling")
            .field("c0", &self.c0.name())
            .field("c1", &self.c1.name())
            .field("meta_entries", &(1u64 << self.meta_n))
            .finish()
    }
}

impl<A: BranchPredictor, B: BranchPredictor> BranchPredictor for McFarling<A, B> {
    fn predict(&mut self, pc: u64) -> Prediction {
        if self.selects_component_1(pc) {
            self.c1.predict(pc)
        } else {
            self.c0.predict(pc)
        }
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        self.step(pc, outcome);
    }

    #[inline(always)]
    fn step(&mut self, pc: u64, outcome: Outcome) -> Prediction {
        let select_1 = self.selects_component_1(pc);
        let p0 = self.c0.step(pc, outcome);
        let p1 = self.c1.step(pc, outcome);
        if p0.outcome != p1.outcome {
            // Train the chooser toward whichever component was right.
            self.meta
                .train(self.meta_index(pc), Outcome::from(p1.outcome == outcome));
        }
        if select_1 {
            p1
        } else {
            p0
        }
    }

    fn record_unconditional(&mut self, pc: u64) {
        self.c0.record_unconditional(pc);
        self.c1.record_unconditional(pc);
    }

    fn name(&self) -> String {
        format!("mcfarling[{} | {}]", self.c0.name(), self.c1.name())
    }

    fn storage_bits(&self) -> u64 {
        self.c0.storage_bits() + self.c1.storage_bits() + self.meta.storage_bits()
    }

    fn reset(&mut self) {
        self.c0.reset();
        self.c1.reset();
        self.meta.reset();
    }
}

/// The 2bc-gskew predictor: bimodal + two skewed global banks + meta.
///
/// All four banks have `2^n` entries of 2-bit counters. The G0 bank uses a
/// shortened history (`h/2` bits) and the G1 bank the full `h` bits; both
/// are indexed with skewing functions, the bimodal and meta banks with
/// address truncation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoBcGskew {
    /// The four banks, flat: [`BIM`], [`G0`], [`G1`] and [`META`].
    banks: CounterBanks,
    n: u32,
    history: GlobalHistory,
    short_bits: u32,
}

const BIM: usize = 0;
const G0: usize = 1;
const G1: usize = 2;
const META: usize = 3;

impl TwoBcGskew {
    /// A 4x`2^n`-entry 2bc-gskew with `history_bits` of global history.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if `n` is out of `2..=30` or `history_bits`
    /// exceeds 64.
    pub fn new(n: u32, history_bits: u32) -> Result<Self, ConfigError> {
        if !(2..=30).contains(&n) {
            return Err(ConfigError::invalid("n", n, "must be in 2..=30"));
        }
        if history_bits > 64 {
            return Err(ConfigError::invalid(
                "history_bits",
                history_bits,
                "must be at most 64",
            ));
        }
        Ok(TwoBcGskew {
            banks: CounterBanks::new(4, n, CounterKind::TwoBit),
            n,
            history: GlobalHistory::new(history_bits),
            short_bits: history_bits / 2,
        })
    }

    /// The bimodal/meta, G0 and G1 indices of `pc` under the current
    /// history.
    #[inline]
    fn indices(&self, pc: u64) -> [u64; 3] {
        let hist = self.history.value();
        let short = InfoVector::new(pc, hist, self.short_bits);
        let long = self.history.vector(pc);
        [
            (pc >> 2) & ((1 << self.n) - 1),
            skew_index(1, short.packed(), self.n),
            skew_index(2, long.packed(), self.n),
        ]
    }

    /// The bimodal, G0 and G1 votes, whether the meta bank selects the
    /// majority, and the overall prediction.
    #[inline]
    fn components(&self, [ib, i0, i1]: [u64; 3]) -> ([Outcome; 3], bool, Outcome) {
        let votes = [
            self.banks.predict(BIM, ib),
            self.banks.predict(G0, i0),
            self.banks.predict(G1, i1),
        ];
        let use_gskew = self.banks.predict(META, ib).is_taken();
        let overall = if use_gskew {
            Self::majority(votes)
        } else {
            votes[0]
        };
        (votes, use_gskew, overall)
    }

    #[inline]
    fn majority(votes: [Outcome; 3]) -> Outcome {
        Outcome::from(votes.iter().filter(|o| o.is_taken()).count() >= 2)
    }
}

impl BranchPredictor for TwoBcGskew {
    fn predict(&mut self, pc: u64) -> Prediction {
        Prediction::of(self.components(self.indices(pc)).2)
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        self.step(pc, outcome);
    }

    #[inline(always)]
    fn step(&mut self, pc: u64, outcome: Outcome) -> Prediction {
        let idx = self.indices(pc);
        let (votes, _, overall) = self.components(idx);
        let majority = Self::majority(votes);

        // Train the meta chooser when the two candidate predictions differ.
        if majority != votes[0] {
            self.banks
                .train(META, idx[0], Outcome::from(majority == outcome));
        }

        // Partial update: on a correct overall prediction strengthen only
        // the agreeing tables; on a misprediction train all three.
        for (bank, (i, vote)) in [BIM, G0, G1].into_iter().zip(idx.into_iter().zip(votes)) {
            if overall != outcome || vote == outcome {
                self.banks.train(bank, i, outcome);
            }
        }
        self.history.push(outcome);
        Prediction::of(overall)
    }

    fn record_unconditional(&mut self, _pc: u64) {
        self.history.push(Outcome::Taken);
    }

    fn name(&self) -> String {
        format!("2bcgskew 4x{} h={}", 1u64 << self.n, self.history.len())
    }

    fn storage_bits(&self) -> u64 {
        self.banks.storage_bits()
    }

    fn reset(&mut self) {
        self.banks.reset();
        self.history.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bimodal::Bimodal;
    use crate::gshare::Gshare;

    fn mcf() -> McFarling<Bimodal, Gshare> {
        McFarling::new(
            Bimodal::new(8, CounterKind::TwoBit).unwrap(),
            Gshare::new(8, 4, CounterKind::TwoBit).unwrap(),
            8,
        )
        .unwrap()
    }

    #[test]
    fn mcfarling_learns_biased_branch() {
        let mut p = mcf();
        for _ in 0..8 {
            p.update(0x1000, Outcome::Taken);
        }
        assert_eq!(p.predict(0x1000).outcome, Outcome::Taken);
    }

    #[test]
    fn mcfarling_meta_moves_toward_better_component() {
        let mut p = mcf();
        // Alternating branch: gshare (with history) learns it, bimodal
        // oscillates. The meta table should migrate toward component 1.
        let mut o = Outcome::Taken;
        for _ in 0..200 {
            p.update(0x2000, o);
            o = o.flipped();
        }
        assert!(
            p.selects_component_1(0x2000),
            "chooser should pick the history-based component for an alternating branch"
        );
        // And the overall prediction should now be correct.
        let mut correct = 0;
        for _ in 0..20 {
            if p.predict(0x2000).outcome == o {
                correct += 1;
            }
            p.update(0x2000, o);
            o = o.flipped();
        }
        assert!(correct >= 18, "got {correct}/20");
    }

    #[test]
    fn mcfarling_storage_sums_components() {
        let p = mcf();
        assert_eq!(p.storage_bits(), 256 * 2 + 256 * 2 + 256 * 2);
    }

    #[test]
    fn mcfarling_rejects_bad_meta() {
        let r = McFarling::new(
            Bimodal::new(8, CounterKind::TwoBit).unwrap(),
            Bimodal::new(8, CounterKind::TwoBit).unwrap(),
            0,
        );
        assert!(r.is_err());
    }

    #[test]
    fn mcfarling_propagates_unconditionals_to_components() {
        let mut a = McFarling::new(
            Gshare::new(8, 4, CounterKind::TwoBit).unwrap(),
            Gshare::new(8, 4, CounterKind::TwoBit).unwrap(),
            8,
        )
        .unwrap();
        // Same updates with and without an interleaved unconditional: the
        // history-sensitive components must diverge.
        let drive = |p: &mut McFarling<Gshare, Gshare>, uncond: bool| {
            p.update(0x100, Outcome::Taken);
            if uncond {
                p.record_unconditional(0x200);
            }
            // Not-taken training against the weakly-taken boot state, so
            // trained entries are distinguishable from untouched ones.
            for _ in 0..4 {
                p.update(0x300, Outcome::NotTaken);
            }
            p.predict(0x304).outcome
        };
        let mut b = McFarling::new(
            Gshare::new(8, 4, CounterKind::TwoBit).unwrap(),
            Gshare::new(8, 4, CounterKind::TwoBit).unwrap(),
            8,
        )
        .unwrap();
        let _ = drive(&mut a, false);
        let _ = drive(&mut b, true);
        // The two meta tables saw identical agreement patterns, but the
        // component tables were trained at different indices; probe a pc
        // whose counter was trained only in one of them.
        let mut diverged = false;
        for pc in (0x0..0x400u64).step_by(4) {
            if a.predict(pc) != b.predict(pc) {
                diverged = true;
                break;
            }
        }
        assert!(diverged, "unconditional history shift had no effect");
    }

    #[test]
    fn mcfarling_reset_restores_initial_behavior() {
        let mut p = mcf();
        let fresh_prediction = p.predict(0x1234);
        for i in 0..200u64 {
            p.update(0x1000 + 4 * (i % 13), Outcome::from(i % 3 == 0));
        }
        p.reset();
        assert_eq!(p.predict(0x1234), fresh_prediction);
    }

    #[test]
    fn mcfarling_name_lists_components() {
        let p = mcf();
        let name = p.name();
        assert!(name.contains("bimodal"), "{name}");
        assert!(name.contains("gshare"), "{name}");
    }

    #[test]
    fn twobc_learns_biased_branch() {
        let mut p = TwoBcGskew::new(8, 8).unwrap();
        for _ in 0..8 {
            p.update(0x1000, Outcome::Taken);
        }
        assert_eq!(p.predict(0x1000).outcome, Outcome::Taken);
    }

    #[test]
    fn twobc_learns_alternating_branch() {
        let mut p = TwoBcGskew::new(10, 8).unwrap();
        let mut o = Outcome::Taken;
        for _ in 0..300 {
            p.update(0x2000, o);
            o = o.flipped();
        }
        let mut correct = 0;
        for _ in 0..40 {
            if p.predict(0x2000).outcome == o {
                correct += 1;
            }
            p.update(0x2000, o);
            o = o.flipped();
        }
        assert!(correct >= 36, "got {correct}/40");
    }

    #[test]
    fn twobc_storage_and_name() {
        let p = TwoBcGskew::new(10, 12).unwrap();
        assert_eq!(p.storage_bits(), 4 * 1024 * 2);
        assert_eq!(p.name(), "2bcgskew 4x1024 h=12");
    }

    #[test]
    fn twobc_reset() {
        let mut p = TwoBcGskew::new(8, 8).unwrap();
        for i in 0..100u64 {
            p.update(0x1000 + 4 * (i % 9), Outcome::from(i % 2 == 0));
        }
        let fresh = TwoBcGskew::new(8, 8).unwrap();
        p.reset();
        assert_eq!(p, fresh);
    }

    #[test]
    fn twobc_rejects_bad_config() {
        assert!(TwoBcGskew::new(1, 8).is_err());
        assert!(TwoBcGskew::new(10, 65).is_err());
    }
}
