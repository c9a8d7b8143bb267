//! The [`BranchPredictor`] trait and the types shared by every predictor.
//!
//! All predictors in this crate are *trace driven*: the simulation engine
//! calls [`BranchPredictor::predict`] for each dynamic conditional branch,
//! then immediately reveals the outcome through
//! [`BranchPredictor::update`]. Unconditional control flow is reported with
//! [`BranchPredictor::record_unconditional`] so that, as in the paper,
//! unconditional branches participate in the global history ("we include
//! unconditional branches as part of the global-history bits").

use std::fmt;

/// The resolved direction of a conditional branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum Outcome {
    /// The branch fell through.
    #[default]
    NotTaken,
    /// The branch was taken.
    Taken,
}

impl Outcome {
    /// Returns `true` for [`Outcome::Taken`].
    #[inline]
    pub fn is_taken(self) -> bool {
        matches!(self, Outcome::Taken)
    }

    /// The opposite direction.
    #[inline]
    pub fn flipped(self) -> Outcome {
        match self {
            Outcome::Taken => Outcome::NotTaken,
            Outcome::NotTaken => Outcome::Taken,
        }
    }
}

impl From<bool> for Outcome {
    #[inline]
    fn from(taken: bool) -> Self {
        if taken {
            Outcome::Taken
        } else {
            Outcome::NotTaken
        }
    }
}

impl From<Outcome> for bool {
    #[inline]
    fn from(o: Outcome) -> bool {
        o.is_taken()
    }
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Outcome::Taken => "taken",
            Outcome::NotTaken => "not-taken",
        })
    }
}

/// The result of a prediction lookup.
///
/// `novel` is set by predictors that can detect the *first* occurrence of a
/// branch substream (the ideal unaliased predictor of section 3.1 and the
/// tagged tables of section 3.2). The paper does not charge such compulsory
/// encounters as mispredictions; the simulation engine uses this flag to
/// apply the same accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Prediction {
    /// Predicted direction.
    pub outcome: Outcome,
    /// `true` when the predictor has never seen this substream before.
    pub novel: bool,
}

impl Prediction {
    /// A plain prediction of a previously seen substream.
    #[inline]
    pub fn of(outcome: Outcome) -> Self {
        Prediction {
            outcome,
            novel: false,
        }
    }

    /// A prediction for a substream encountered for the first time.
    #[inline]
    pub fn novel(outcome: Outcome) -> Self {
        Prediction {
            outcome,
            novel: true,
        }
    }
}

impl fmt::Display for Prediction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}",
            self.outcome,
            if self.novel { " (novel)" } else { "" }
        )
    }
}

/// A dynamic conditional branch predictor.
///
/// The contract between the engine and a predictor for each dynamic
/// conditional branch at address `pc` is:
///
/// 1. `let p = predictor.predict(pc);`
/// 2. `predictor.update(pc, actual_outcome);`
///
/// or, fused, `let p = predictor.step(pc, actual_outcome);`.
///
/// [`BranchPredictor::update`] must be called with the *same* `pc` that was
/// just predicted; it both trains the tables (using the history as it was at
/// prediction time) and shifts the actual outcome into the global history.
/// Unconditional branches are reported with
/// [`BranchPredictor::record_unconditional`] and only affect history.
pub trait BranchPredictor {
    /// Predict the direction of the conditional branch at `pc` under the
    /// current global history.
    fn predict(&mut self, pc: u64) -> Prediction;

    /// Reveal the actual outcome of the conditional branch at `pc`, training
    /// the predictor and updating the global history.
    fn update(&mut self, pc: u64, outcome: Outcome);

    /// Predict the conditional branch at `pc`, then train with its actual
    /// `outcome`: one fused step, returning the prediction made *before*
    /// training.
    ///
    /// Must be observably identical to `predict` followed by `update`,
    /// which is the default. Predictors override it to compute their
    /// table indices (or hash keys) once per branch instead of twice; the
    /// simulation engine drives every conditional branch through it.
    #[inline]
    fn step(&mut self, pc: u64, outcome: Outcome) -> Prediction {
        let prediction = self.predict(pc);
        self.update(pc, outcome);
        prediction
    }

    /// Report an unconditional transfer of control at `pc`.
    ///
    /// Following the paper, unconditional branches are shifted into the
    /// global history as *taken*; predictors without history ignore this.
    fn record_unconditional(&mut self, _pc: u64) {}

    /// A short human-readable description, e.g. `gskew 3x4096 h=8 partial`.
    fn name(&self) -> String;

    /// The number of storage bits the hardware structure would require.
    ///
    /// For tag-less tables this is `entries * counter_bits`; tagged tables
    /// also charge tag and replacement state. Used for the equal-storage
    /// comparisons of figures 5–8 and 12.
    fn storage_bits(&self) -> u64;

    /// Restore the predictor to its just-constructed state.
    fn reset(&mut self);
}

impl BranchPredictor for Box<dyn BranchPredictor> {
    fn predict(&mut self, pc: u64) -> Prediction {
        (**self).predict(pc)
    }
    fn update(&mut self, pc: u64, outcome: Outcome) {
        (**self).update(pc, outcome)
    }
    fn step(&mut self, pc: u64, outcome: Outcome) -> Prediction {
        (**self).step(pc, outcome)
    }
    fn record_unconditional(&mut self, pc: u64) {
        (**self).record_unconditional(pc)
    }
    fn name(&self) -> String {
        (**self).name()
    }
    fn storage_bits(&self) -> u64 {
        (**self).storage_bits()
    }
    fn reset(&mut self) {
        (**self).reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_roundtrips_through_bool() {
        assert_eq!(Outcome::from(true), Outcome::Taken);
        assert_eq!(Outcome::from(false), Outcome::NotTaken);
        assert!(bool::from(Outcome::Taken));
        assert!(!bool::from(Outcome::NotTaken));
    }

    #[test]
    fn outcome_flips() {
        assert_eq!(Outcome::Taken.flipped(), Outcome::NotTaken);
        assert_eq!(Outcome::NotTaken.flipped(), Outcome::Taken);
        assert_eq!(Outcome::Taken.flipped().flipped(), Outcome::Taken);
    }

    #[test]
    fn outcome_default_is_not_taken() {
        assert_eq!(Outcome::default(), Outcome::NotTaken);
    }

    #[test]
    fn prediction_constructors() {
        let p = Prediction::of(Outcome::Taken);
        assert!(!p.novel);
        assert!(p.outcome.is_taken());
        let q = Prediction::novel(Outcome::NotTaken);
        assert!(q.novel);
        assert!(!q.outcome.is_taken());
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(Outcome::Taken.to_string(), "taken");
        assert_eq!(Outcome::NotTaken.to_string(), "not-taken");
        assert_eq!(Prediction::of(Outcome::Taken).to_string(), "taken");
        assert_eq!(
            Prediction::novel(Outcome::NotTaken).to_string(),
            "not-taken (novel)"
        );
    }
}
