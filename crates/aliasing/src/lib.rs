//! # bpred-aliasing — the three-Cs classification of branch aliasing
//!
//! Section 2 of the paper transplants Hill's three-Cs cache-miss model to
//! branch-predictor tables:
//!
//! * **compulsory** aliasing — a branch substream (an `(address, history)`
//!   pair) is seen for the first time;
//! * **capacity** aliasing — the working set of substreams exceeds the
//!   table size (measured as misses of a *fully-associative LRU* tagged
//!   table);
//! * **conflict** aliasing — two concurrently live substreams collide in a
//!   direct-mapped table even though capacity would suffice (the
//!   difference between direct-mapped and fully-associative miss ratios).
//!
//! The measurement instrument (section 3) is a table that stores, instead
//! of counters, the *identity* of the last pair that touched each entry:
//! a cache with a line size of one datum. This crate provides those
//! instruments plus the last-use-distance machinery behind the paper's
//! analytical model:
//!
//! * [`cursor`] — turns a branch-record stream into `(address, history)`
//!   references.
//! * [`tagged`] — direct-mapped tagged table
//!   ([`tagged::TaggedDirectMapped`]).
//! * [`fully_assoc`] — fully-associative LRU tagged table.
//! * [`three_c`] — one-pass classifier producing the compulsory /
//!   capacity / conflict breakdown of figures 1 and 2.
//! * [`batch`] — single-pass batched grid classification: monomorphized
//!   direct-mapped kernels over a column-view trace plus one shared
//!   last-use-distance pass serving every fully-associative capacity at
//!   once (`distance < N` ⟺ hit in an N-entry LRU table).
//! * [`distance`] — O(log n) last-use distance (distinct pairs since last
//!   occurrence), the `D` of formulas (1) and (2).
//! * [`substream`] — substream-ratio and compulsory-aliasing measurement
//!   (Table 2).
//! * [`nature`] — destructive / harmless / constructive classification of
//!   individual aliasing events (the Young–Gloy–Smith taxonomy of
//!   section 1), for a whole table-size sweep in one walk.
//! * [`set_assoc`] — the identity-tagged set-associative bridge between
//!   the direct-mapped and fully-associative curves (quantifying the
//!   "costly alternative" of section 3.3).
//! * [`offenders`] — pairwise interference attribution: which static
//!   branches conflict, and how concentrated the conflicts are.
//! * [`bias`] — the bias parameter `b` of the analytical model.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod bias;
pub mod cursor;
pub mod distance;
pub mod fully_assoc;
pub mod nature;
pub mod offenders;
pub mod set_assoc;
pub mod substream;
pub mod tagged;
pub mod three_c;

/// Convenient re-exports of the most commonly used items.
pub mod prelude {
    pub use crate::batch::ThreeCCell;
    pub use crate::bias::BiasStats;
    pub use crate::cursor::PairCursor;
    pub use crate::distance::{CapacitySweep, DistanceHistogram, LastUseDistance};
    pub use crate::fully_assoc::TaggedFullyAssociative;
    pub use crate::nature::NatureCounts;
    pub use crate::offenders::{OffenderAnalysis, OffenderPair};
    pub use crate::set_assoc::TaggedSetAssociative;
    pub use crate::substream::SubstreamStats;
    pub use crate::tagged::TaggedDirectMapped;
    pub use crate::three_c::{AliasingBreakdown, ThreeCClassifier, ThreeCCounts};
}
