//! Lockstep predictor duels with a paired significance test.
//!
//! Comparing two predictors by their overall misprediction percentages
//! hides the pairing: both saw the *same* branches. A McNemar-style
//! analysis of the per-branch discordant outcomes (A right / B wrong vs
//! A wrong / B right) gives the comparison statistical teeth — the
//! experiment harness uses it to state that the paper's orderings are
//! significant rather than noise.

use crate::engine::{self, Mode, NovelPolicy};
use bpred_core::predictor::{BranchPredictor, Outcome, Prediction};
use bpred_trace::soa::TraceColumns;

/// The outcome of a lockstep duel between two predictors.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DuelResult {
    /// Conditional branches both predictors predicted.
    pub branches: u64,
    /// Branches only predictor A mispredicted (B was right).
    pub only_a_wrong: u64,
    /// Branches only predictor B mispredicted (A was right).
    pub only_b_wrong: u64,
    /// Branches both mispredicted.
    pub both_wrong: u64,
}

impl DuelResult {
    /// Misprediction percentage of predictor A.
    pub fn a_pct(&self) -> f64 {
        percentage(self.only_a_wrong + self.both_wrong, self.branches)
    }

    /// Misprediction percentage of predictor B.
    pub fn b_pct(&self) -> f64 {
        percentage(self.only_b_wrong + self.both_wrong, self.branches)
    }

    /// The McNemar z statistic over the discordant pairs,
    /// `(b - c) / sqrt(b + c)`; positive means predictor A mispredicts
    /// more. |z| > 1.96 is significant at the 5 % level, > 2.58 at 1 %.
    ///
    /// Returns 0 when there are no discordant branches.
    pub fn mcnemar_z(&self) -> f64 {
        let b = self.only_a_wrong as f64;
        let c = self.only_b_wrong as f64;
        if b + c == 0.0 {
            return 0.0;
        }
        (b - c) / (b + c).sqrt()
    }

    /// `true` when B beats A significantly at the 1 % level.
    pub fn b_significantly_better(&self) -> bool {
        self.mcnemar_z() > 2.58
    }

    /// `true` when A beats B significantly at the 1 % level.
    pub fn a_significantly_better(&self) -> bool {
        self.mcnemar_z() < -2.58
    }
}

#[inline]
fn percentage(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        100.0 * num as f64 / den as f64
    }
}

/// Drive two predictors over the same trace in lockstep and tally the
/// paired outcomes. Novel predictions are accounted per `novel_policy`
/// for both predictors symmetrically (an excluded branch is excluded
/// from the pairing entirely when *either* prediction is novel, so the
/// pairing stays balanced).
///
/// The pair runs through [`engine::simulate`] as one predictor.
pub fn duel<A, B>(a: A, b: B, columns: &TraceColumns, novel_policy: NovelPolicy) -> DuelResult
where
    A: BranchPredictor + 'static,
    B: BranchPredictor + 'static,
{
    let mut pair = Lockstep {
        a,
        b,
        exclude: novel_policy == NovelPolicy::Exclude,
        result: DuelResult::default(),
    };
    engine::simulate(&mut pair, columns, Mode::Plain, NovelPolicy::Count);
    pair.result
}

/// Two predictors stepped as one. `step` steps both and tallies the
/// pairing — the one method that does more than its predict-then-update
/// default, which is why the pair stays private to [`duel`].
struct Lockstep<A, B> {
    a: A,
    b: B,
    exclude: bool,
    result: DuelResult,
}

impl<A: BranchPredictor, B: BranchPredictor> BranchPredictor for Lockstep<A, B> {
    fn predict(&mut self, pc: u64) -> Prediction {
        self.a.predict(pc)
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        self.a.update(pc, outcome);
        self.b.update(pc, outcome);
    }

    #[inline]
    fn step(&mut self, pc: u64, outcome: Outcome) -> Prediction {
        let pa = self.a.step(pc, outcome);
        let pb = self.b.step(pc, outcome);
        if !(self.exclude && (pa.novel || pb.novel)) {
            let r = &mut self.result;
            r.branches += 1;
            match (pa.outcome != outcome, pb.outcome != outcome) {
                (true, false) => r.only_a_wrong += 1,
                (false, true) => r.only_b_wrong += 1,
                (true, true) => r.both_wrong += 1,
                (false, false) => {}
            }
        }
        pa
    }

    fn record_unconditional(&mut self, pc: u64) {
        self.a.record_unconditional(pc);
        self.b.record_unconditional(pc);
    }

    fn name(&self) -> String {
        format!("{} vs {}", self.a.name(), self.b.name())
    }

    fn storage_bits(&self) -> u64 {
        self.a.storage_bits() + self.b.storage_bits()
    }

    fn reset(&mut self) {
        self.a.reset();
        self.b.reset();
        self.result = DuelResult::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_core::prelude::*;
    use bpred_core::spec::parse_spec;
    use bpred_trace::prelude::*;
    use bpred_trace::soa::TraceColumns;

    fn columns(records: impl Iterator<Item = BranchRecord>) -> TraceColumns {
        records.collect()
    }

    #[test]
    fn identical_predictors_never_discord() {
        let a = parse_spec("gshare:n=10,h=4").unwrap();
        let b = parse_spec("gshare:n=10,h=4").unwrap();
        let r = duel(
            a,
            b,
            &columns(
                IbsBenchmark::Verilog
                    .spec()
                    .build()
                    .take_conditionals(20_000),
            ),
            NovelPolicy::Count,
        );
        assert_eq!(r.only_a_wrong, 0);
        assert_eq!(r.only_b_wrong, 0);
        assert!(r.both_wrong > 0);
        assert_eq!(r.mcnemar_z(), 0.0);
        assert!((r.a_pct() - r.b_pct()).abs() < 1e-12);
    }

    #[test]
    fn duel_percentages_match_solo_runs() {
        let spec = IbsBenchmark::Groff.spec();
        let len = 30_000;
        let a = parse_spec("gshare:n=12,h=6").unwrap();
        let b = parse_spec("gskew:n=10,h=6").unwrap();
        let r = duel(
            a,
            b,
            &columns(spec.build().take_conditionals(len)),
            NovelPolicy::Count,
        );
        let mut solo_a = parse_spec("gshare:n=12,h=6").unwrap();
        let solo = crate::engine::run(&mut solo_a, spec.build().take_conditionals(len));
        assert!((r.a_pct() - solo.mispredict_pct()).abs() < 1e-9);
    }

    #[test]
    fn big_table_beats_tiny_table_significantly() {
        let tiny = parse_spec("gshare:n=6,h=4").unwrap();
        let big = parse_spec("gshare:n=14,h=4").unwrap();
        let r = duel(
            tiny,
            big,
            &columns(IbsBenchmark::Gs.spec().build().take_conditionals(150_000)),
            NovelPolicy::Count,
        );
        assert!(
            r.b_significantly_better(),
            "z = {:.2} should exceed 2.58",
            r.mcnemar_z()
        );
        assert!(!r.a_significantly_better());
    }

    #[test]
    fn statics_duel_deterministically() {
        let t = AlwaysTaken::new();
        let n = AlwaysNotTaken::new();
        let records = vec![
            BranchRecord::conditional(0x100, true),
            BranchRecord::conditional(0x104, true),
            BranchRecord::conditional(0x108, false),
        ];
        let r = duel(t, n, &columns(records.into_iter()), NovelPolicy::Count);
        assert_eq!(r.branches, 3);
        assert_eq!(r.only_a_wrong, 1); // the not-taken branch
        assert_eq!(r.only_b_wrong, 2); // the two taken branches
        assert_eq!(r.both_wrong, 0);
        assert!(r.mcnemar_z() < 0.0, "A (always-taken) wins here");
    }

    #[test]
    fn empty_duel_is_zero() {
        let a = AlwaysTaken::new();
        let b = AlwaysNotTaken::new();
        let r = duel(a, b, &columns(std::iter::empty()), NovelPolicy::Count);
        assert_eq!(r, DuelResult::default());
        assert_eq!(r.a_pct(), 0.0);
    }
}
