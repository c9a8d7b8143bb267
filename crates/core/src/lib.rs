//! # bpred-core — conditional branch predictors, including the skewed branch predictor
//!
//! This crate implements the primary contribution of Michaud, Seznec and
//! Uhlig, *"Trading Conflict and Capacity Aliasing in Conditional Branch
//! Predictors"* (ISCA 1997): the **skewed branch predictor** (`gskew`) and
//! its **enhanced** variant (`e-gskew`), together with every reference
//! predictor the paper compares against and the building blocks they share.
//!
//! ## Layout
//!
//! * [`counter`] — 1-bit, 2-bit and n-bit saturating prediction counters and
//!   the flat [`counter::CounterTable`] used by all tag-less predictors.
//! * [`history`] — the global branch history register.
//! * [`hash`] — the deterministic hasher of the lookup-only substream
//!   maps.
//! * [`index`] — the classic tag-less index functions: bimodal bit
//!   truncation, *gshare* (XOR, with the paper's footnote-1 alignment rule)
//!   and *gselect* (concatenation).
//! * [`skew`] — the inter-bank dispersion functions `H`, `H⁻¹` and
//!   `f0`,`f1`,`f2` from the skewed-associative cache work, generalized to
//!   five banks.
//! * [`predictor`] — the [`predictor::BranchPredictor`] trait and shared
//!   plumbing.
//! * [`bimodal`], [`gshare`], [`gselect`] — single-bank reference schemes.
//! * [`gskew`] — the skewed branch predictor (section 4 of the paper) and
//!   the enhanced skewed branch predictor (section 6), with total and
//!   partial update policies.
//! * [`ideal`] — the infinite, unaliased predictor of section 3.1.
//! * [`assoc`] — tagged fully-associative (LRU) and set-associative
//!   predictor tables (section 3.3's "costly" alternative, used as the
//!   capacity-aliasing yardstick in figure 8).
//! * [`hybrid`] — McFarling-style combining predictor and the
//!   2bc-gskew arrangement (the paper's "future work", later the Alpha EV8
//!   predictor).
//! * [`agree`], [`bimode`] — the two contemporary anti-aliasing designs
//!   (Sprangle et al., ISCA'97; Lee et al., MICRO'97), included as
//!   comparison points in the same design space.
//! * [`pas`] — per-address two-level prediction and its skewed variant
//!   (section 7's "the same technique could be applied to per-address
//!   history schemes").
//! * [`distributed`] — the shared-hysteresis skewed predictor, answering
//!   section 7's "distributed predictor encodings" question with the
//!   split-counter design the Alpha EV8 later shipped.
//! * [`spec`] — textual predictor specifications (`"gskew:n=12,h=8"`)
//!   used by the CLI and experiment harness.
//!
//! ## Quick start
//!
//! ```
//! use bpred_core::prelude::*;
//!
//! // A 3x1K-entry skewed predictor, 8 bits of global history,
//! // 2-bit counters, partial update.
//! let mut pred = Gskew::builder()
//!     .bank_entries_log2(10)
//!     .history_bits(8)
//!     .build()
//!     .expect("valid configuration");
//!
//! // Drive it: predict, then reveal the outcome.
//! let pc = 0x4000_1000;
//! let p = pred.predict(pc);
//! pred.update(pc, Outcome::Taken);
//! assert!(matches!(p.outcome, Outcome::Taken | Outcome::NotTaken));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agree;
pub mod assoc;
pub mod bimodal;
pub mod bimode;
pub mod counter;
pub mod distributed;
pub mod error;
pub mod gselect;
pub mod gshare;
pub mod gskew;
pub mod hash;
pub mod history;
pub mod hybrid;
pub mod ideal;
pub mod index;
mod onebank;
pub mod pas;
pub mod predictor;
pub mod skew;
pub mod spec;
pub mod statics;
pub mod vector;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::agree::Agree;
    pub use crate::assoc::{FullyAssociative, SetAssociative};
    pub use crate::bimodal::Bimodal;
    pub use crate::bimode::BiMode;
    pub use crate::counter::{CounterKind, CounterTable, SatCounter};
    pub use crate::distributed::SharedHysteresisGskew;
    pub use crate::error::ConfigError;
    pub use crate::gselect::Gselect;
    pub use crate::gshare::Gshare;
    pub use crate::gskew::{Gskew, GskewBuilder, UpdatePolicy};
    pub use crate::history::GlobalHistory;
    pub use crate::hybrid::{McFarling, TwoBcGskew};
    pub use crate::ideal::Ideal;
    pub use crate::index::IndexFunction;
    pub use crate::pas::{Pas, SkewedPas};
    pub use crate::predictor::{BranchPredictor, Outcome, Prediction};
    pub use crate::spec::parse_spec;
    pub use crate::statics::{AlwaysNotTaken, AlwaysTaken};
    pub use crate::vector::InfoVector;
}

pub use predictor::{BranchPredictor, Outcome, Prediction};
