//! Textual predictor specifications.
//!
//! The CLI and the experiment harness describe predictors as compact spec
//! strings of the form `name:key=value,key=value`. Example specs:
//!
//! ```text
//! gshare:n=14,h=12              16K-entry gshare, 12 bits of history
//! gskew:n=12,h=8                3x4K gskew, partial update (defaults)
//! gskew:n=12,h=8,update=total   ... with total update
//! egskew:n=12,h=11              enhanced gskew
//! gskew:n=12,h=8,banks=5        5-bank ablation
//! bimodal:n=14                  bimodal
//! ideal:h=12,ctr=1              unaliased predictor, 1-bit automatons
//! falru:cap=4096,h=4            fully-associative LRU tagged table
//! setassoc:n=10,ways=4,h=4      4-way set-associative tagged table
//! mcfarling:n=12,h=10           gshare+bimodal combining predictor
//! 2bcgskew:n=12,h=12            EV8-style hybrid
//! always-taken                  static baseline
//! ```
//!
//! Recognized keys (unknown keys are an error): `n` (log2 entries per
//! table/bank), `h` (history bits), `ctr` (counter bits), `banks`,
//! `update` (`partial`/`total`), `skew` (`on`/`off`, the
//! identical-indexing ablation), `cap` (entry count for `falru`), `ways`,
//! `miss` (`taken`/`nottaken`), `bias` (agree bias-table log2), `choice`
//! (bimode choice-table log2), `bht`/`l` (per-address first-level log2 /
//! local history bits).

//! Additional families beyond the paper's: `agree:n=12,h=8`,
//! `bimode:n=12,h=8`, `pas:bht=10,l=8,n=12`, `spas:bht=10,l=8,n=10`.
//!
//! A parsed [`PredictorSpec`] displays as its canonical spelling, with
//! every key written out in a fixed order, which parses back to an equal
//! value.

use crate::agree::Agree;
use crate::assoc::{FullyAssociative, MissPolicy, SetAssociative};
use crate::bimodal::Bimodal;
use crate::bimode::BiMode;
use crate::counter::CounterKind;
use crate::distributed::SharedHysteresisGskew;
use crate::error::ConfigError;
use crate::gselect::Gselect;
use crate::gshare::Gshare;
use crate::gskew::{Gskew, GskewOf, UpdatePolicy};
use crate::hybrid::{McFarling, TwoBcGskew};
use crate::ideal::Ideal;
use crate::pas::{Pas, SkewedPas};
use crate::predictor::{BranchPredictor, Outcome, Prediction};
use crate::statics::{AlwaysNotTaken, AlwaysTaken};
use std::collections::HashMap;
use std::fmt;

/// Parsed key=value parameters of a spec string.
#[derive(Debug, Clone, Default)]
struct Params {
    map: HashMap<String, String>,
}

impl Params {
    fn parse(body: &str) -> Result<Self, ConfigError> {
        let mut map = HashMap::new();
        for item in body.split(',').filter(|s| !s.is_empty()) {
            let (k, v) = item
                .split_once('=')
                .ok_or_else(|| ConfigError::Parse(format!("expected key=value, got `{item}`")))?;
            if map
                .insert(k.trim().to_string(), v.trim().to_string())
                .is_some()
            {
                return Err(ConfigError::Parse(format!("duplicate key `{k}`")));
            }
        }
        Ok(Params { map })
    }

    fn u32(&mut self, key: &str, default: u32) -> Result<u32, ConfigError> {
        match self.map.remove(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ConfigError::Parse(format!("`{key}` must be an integer, got `{v}`"))),
        }
    }

    fn usize(&mut self, key: &str, default: usize) -> Result<usize, ConfigError> {
        match self.map.remove(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| ConfigError::Parse(format!("`{key}` must be an integer, got `{v}`"))),
        }
    }

    fn counter(&mut self, default: CounterKind) -> Result<CounterKind, ConfigError> {
        match self.map.remove("ctr") {
            None => Ok(default),
            Some(v) => {
                let bits: u8 = v.parse().map_err(|_| {
                    ConfigError::Parse(format!("`ctr` must be an integer, got `{v}`"))
                })?;
                CounterKind::from_bits(bits)
                    .ok_or_else(|| ConfigError::invalid("ctr", bits, "must be in 1..=7"))
            }
        }
    }

    fn update_policy(&mut self) -> Result<UpdatePolicy, ConfigError> {
        match self.map.remove("update") {
            None => Ok(UpdatePolicy::Partial),
            Some(v) => UpdatePolicy::from_name(&v).ok_or_else(|| {
                ConfigError::Parse(format!("`update` must be partial|total, got `{v}`"))
            }),
        }
    }

    fn miss_policy(&mut self) -> Result<MissPolicy, ConfigError> {
        match self.map.remove("miss").as_deref() {
            None | Some("taken") => Ok(MissPolicy::AlwaysTaken),
            Some("nottaken") => Ok(MissPolicy::AlwaysNotTaken),
            Some(v) => Err(ConfigError::Parse(format!(
                "`miss` must be taken|nottaken, got `{v}`"
            ))),
        }
    }

    fn finish(self) -> Result<(), ConfigError> {
        if let Some(key) = self.map.keys().next() {
            return Err(ConfigError::Parse(format!("unknown key `{key}`")));
        }
        Ok(())
    }
}

/// A structured predictor description: the parsed form of a spec string,
/// before any table is allocated.
///
/// Splitting [`parse_spec`] into [`PredictorSpec::parse`] (cheap, pure)
/// and [`PredictorSpec::concrete`] / [`PredictorSpec::build`] (allocate
/// the predictor, as its own type or boxed) lets callers inspect *what* a
/// spec asks for without paying for it, and build it where it runs.
///
/// Parameter *range* validation stays in the predictor constructors, so
/// `parse` accepts e.g. `gshare:n=0` and the error surfaces at `build`,
/// exactly as it did when parsing and construction were fused.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[allow(missing_docs)] // field meanings are the spec-string keys documented above
pub enum PredictorSpec {
    /// `bimodal`: address-indexed counter table.
    Bimodal { n: u32, ctr: CounterKind },
    /// `gshare`: address XOR history.
    Gshare { n: u32, h: u32, ctr: CounterKind },
    /// `gselect`: address/history concatenation.
    Gselect { n: u32, h: u32, ctr: CounterKind },
    /// `gskew` / `egskew`: the skewed predictor family. `enhanced` is the
    /// e-gskew bank-0 address indexing; `skewing: false` is the
    /// identical-indexing ablation (`skew=off`).
    Gskew {
        n: u32,
        h: u32,
        banks: usize,
        ctr: CounterKind,
        update: UpdatePolicy,
        enhanced: bool,
        skewing: bool,
    },
    /// `agree`: biasing-bit agree predictor.
    Agree {
        n: u32,
        h: u32,
        bias: u32,
        ctr: CounterKind,
    },
    /// `bimode`: choice-steered taken/not-taken tables.
    BiMode {
        n: u32,
        h: u32,
        choice: u32,
        ctr: CounterKind,
    },
    /// `pas`: per-address two-level predictor.
    Pas {
        bht: u32,
        l: u32,
        n: u32,
        ctr: CounterKind,
    },
    /// `spas`: skewed per-address predictor.
    Spas {
        bht: u32,
        l: u32,
        n: u32,
        ctr: CounterKind,
        update: UpdatePolicy,
    },
    /// `ideal`: the unaliased (infinite-table) predictor.
    Ideal { h: u32, ctr: CounterKind },
    /// `falru`: fully-associative tagged LRU table.
    Falru {
        cap: usize,
        h: u32,
        ctr: CounterKind,
        miss: MissPolicy,
    },
    /// `setassoc`: set-associative tagged table.
    SetAssoc {
        n: u32,
        ways: usize,
        h: u32,
        ctr: CounterKind,
        miss: MissPolicy,
    },
    /// `mcfarling`: bimodal+gshare combining predictor.
    McFarling { n: u32, h: u32, ctr: CounterKind },
    /// `shgskew`: shared-hysteresis gskew.
    Shgskew {
        n: u32,
        h: u32,
        update: UpdatePolicy,
    },
    /// `2bcgskew`: EV8-style hybrid.
    TwoBcGskew { n: u32, h: u32 },
    /// `always-taken`.
    AlwaysTaken,
    /// `always-nottaken`.
    AlwaysNotTaken,
}

impl PredictorSpec {
    /// Parse a spec string into its structured form without building the
    /// predictor.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] for unknown predictor names and malformed,
    /// unknown or non-numeric keys. Out-of-range *values* (`gshare:n=0`)
    /// parse fine and fail at [`build`](Self::build).
    pub fn parse(spec: &str) -> Result<PredictorSpec, ConfigError> {
        let (name, body) = match spec.split_once(':') {
            Some((n, b)) => (n.trim(), b),
            None => (spec.trim(), ""),
        };
        let mut p = Params::parse(body)?;
        let parsed = match name {
            "bimodal" => {
                let n = p.u32("n", 12)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                p.finish()?;
                PredictorSpec::Bimodal { n, ctr }
            }
            "gshare" => {
                let n = p.u32("n", 12)?;
                let h = p.u32("h", 8)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                p.finish()?;
                PredictorSpec::Gshare { n, h, ctr }
            }
            "gselect" => {
                let n = p.u32("n", 12)?;
                let h = p.u32("h", 8)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                p.finish()?;
                PredictorSpec::Gselect { n, h, ctr }
            }
            "gskew" | "egskew" => {
                let n = p.u32("n", 12)?;
                let h = p.u32("h", 8)?;
                let banks = p.usize("banks", 3)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                let update = p.update_policy()?;
                let skewing = match p.map.remove("skew").as_deref() {
                    None | Some("on") => true,
                    Some("off") => false,
                    Some(v) => {
                        return Err(ConfigError::Parse(format!(
                            "`skew` must be on|off, got `{v}`"
                        )))
                    }
                };
                p.finish()?;
                PredictorSpec::Gskew {
                    n,
                    h,
                    banks,
                    ctr,
                    update,
                    enhanced: name == "egskew",
                    skewing,
                }
            }
            "agree" => {
                let n = p.u32("n", 12)?;
                let h = p.u32("h", 8)?;
                let bias = p.u32("bias", 0)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                p.finish()?;
                let bias = if bias == 0 { n } else { bias };
                PredictorSpec::Agree { n, h, bias, ctr }
            }
            "bimode" => {
                let n = p.u32("n", 12)?;
                let h = p.u32("h", 8)?;
                let choice = p.u32("choice", 0)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                p.finish()?;
                let choice = if choice == 0 { n } else { choice };
                PredictorSpec::BiMode { n, h, choice, ctr }
            }
            "pas" => {
                let bht = p.u32("bht", 10)?;
                let l = p.u32("l", 8)?;
                let n = p.u32("n", 12)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                p.finish()?;
                PredictorSpec::Pas { bht, l, n, ctr }
            }
            "spas" => {
                let bht = p.u32("bht", 10)?;
                let l = p.u32("l", 8)?;
                let n = p.u32("n", 10)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                let update = p.update_policy()?;
                p.finish()?;
                PredictorSpec::Spas {
                    bht,
                    l,
                    n,
                    ctr,
                    update,
                }
            }
            "ideal" => {
                let h = p.u32("h", 8)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                p.finish()?;
                PredictorSpec::Ideal { h, ctr }
            }
            "falru" => {
                let cap = p.usize("cap", 4096)?;
                let h = p.u32("h", 8)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                let miss = p.miss_policy()?;
                p.finish()?;
                PredictorSpec::Falru { cap, h, ctr, miss }
            }
            "setassoc" => {
                let n = p.u32("n", 10)?;
                let ways = p.usize("ways", 4)?;
                let h = p.u32("h", 8)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                let miss = p.miss_policy()?;
                p.finish()?;
                PredictorSpec::SetAssoc {
                    n,
                    ways,
                    h,
                    ctr,
                    miss,
                }
            }
            "mcfarling" => {
                let n = p.u32("n", 12)?;
                let h = p.u32("h", 8)?;
                let ctr = p.counter(CounterKind::TwoBit)?;
                p.finish()?;
                PredictorSpec::McFarling { n, h, ctr }
            }
            "shgskew" => {
                let n = p.u32("n", 12)?;
                let h = p.u32("h", 8)?;
                let update = p.update_policy()?;
                p.finish()?;
                PredictorSpec::Shgskew { n, h, update }
            }
            "2bcgskew" => {
                let n = p.u32("n", 12)?;
                let h = p.u32("h", 12)?;
                p.finish()?;
                PredictorSpec::TwoBcGskew { n, h }
            }
            "always-taken" => {
                p.finish()?;
                PredictorSpec::AlwaysTaken
            }
            "always-nottaken" => {
                p.finish()?;
                PredictorSpec::AlwaysNotTaken
            }
            other => return Err(ConfigError::UnknownPredictor(other.to_string())),
        };
        Ok(parsed)
    }

    /// Allocate the predictor this spec describes, boxed.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when a parameter is out of its legal range
    /// (constructor validation).
    pub fn build(&self) -> Result<Box<dyn BranchPredictor>, ConfigError> {
        Ok(self.concrete()?.boxed())
    }

    /// Allocate the predictor this spec describes as its concrete type —
    /// the one place a spec becomes a predictor.
    ///
    /// # Errors
    ///
    /// As [`PredictorSpec::build`].
    pub fn concrete(&self) -> Result<Concrete, ConfigError> {
        Ok(match *self {
            PredictorSpec::Bimodal { n, ctr } => Concrete::Bimodal(Bimodal::new(n, ctr)?),
            PredictorSpec::Gshare { n, h, ctr } => Concrete::Gshare(Gshare::new(n, h, ctr)?),
            PredictorSpec::Gselect { n, h, ctr } => Concrete::Gselect(Gselect::new(n, h, ctr)?),
            PredictorSpec::Gskew {
                n,
                h,
                banks,
                ctr,
                update,
                enhanced,
                skewing,
            } => Concrete::gskew(
                Gskew::builder()
                    .banks(banks)
                    .bank_entries_log2(n)
                    .history_bits(h)
                    .counter(ctr)
                    .update_policy(update)
                    .enhanced(enhanced)
                    .identical_indexing(!skewing)
                    .build()?,
            ),
            PredictorSpec::Agree { n, h, bias, ctr } => {
                Concrete::Agree(Agree::new(n, h, bias, ctr)?)
            }
            PredictorSpec::BiMode { n, h, choice, ctr } => {
                Concrete::BiMode(BiMode::new(n, h, choice, ctr)?)
            }
            PredictorSpec::Pas { bht, l, n, ctr } => Concrete::Pas(Pas::new(bht, l, n, ctr)?),
            PredictorSpec::Spas {
                bht,
                l,
                n,
                ctr,
                update,
            } => Concrete::Spas(SkewedPas::new(bht, l, n, ctr, update)?),
            PredictorSpec::Ideal { h, ctr } => Concrete::Ideal(Ideal::new(h, ctr)?),
            PredictorSpec::Falru { cap, h, ctr, miss } => {
                Concrete::Falru(FullyAssociative::new(cap, h, ctr)?.with_miss_policy(miss))
            }
            PredictorSpec::SetAssoc {
                n,
                ways,
                h,
                ctr,
                miss,
            } => Concrete::SetAssoc(SetAssociative::new(n, ways, h, ctr)?.with_miss_policy(miss)),
            PredictorSpec::McFarling { n, h, ctr } => Concrete::McFarling(McFarling::new(
                Bimodal::new(n, ctr)?,
                Gshare::new(n, h, ctr)?,
                n,
            )?),
            PredictorSpec::Shgskew { n, h, update } => {
                Concrete::Shgskew(SharedHysteresisGskew::with_policy(n, h, update)?)
            }
            PredictorSpec::TwoBcGskew { n, h } => Concrete::TwoBcGskew(TwoBcGskew::new(n, h)?),
            PredictorSpec::AlwaysTaken => Concrete::AlwaysTaken(AlwaysTaken::new()),
            PredictorSpec::AlwaysNotTaken => Concrete::AlwaysNotTaken(AlwaysNotTaken::new()),
        })
    }
}

/// The canonical spelling: the family name, then every parameter of the
/// family written out, in a fixed key order. [`PredictorSpec::parse`]
/// reads it back to an equal value, so every spelling of one predictor
/// (`gskew:n=9,h=4`, `gskew:n=9,h=4,update=partial,ctr=2`) has the same
/// canonical string: `gskew:n=9,h=4,banks=3,ctr=2,update=partial,skew=on`.
impl fmt::Display for PredictorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let miss_name = |miss: MissPolicy| match miss {
            MissPolicy::AlwaysTaken => "taken",
            MissPolicy::AlwaysNotTaken => "nottaken",
        };
        match *self {
            PredictorSpec::Bimodal { n, ctr } => write!(f, "bimodal:n={n},ctr={}", ctr.bits()),
            PredictorSpec::Gshare { n, h, ctr } => {
                write!(f, "gshare:n={n},h={h},ctr={}", ctr.bits())
            }
            PredictorSpec::Gselect { n, h, ctr } => {
                write!(f, "gselect:n={n},h={h},ctr={}", ctr.bits())
            }
            PredictorSpec::Gskew {
                n,
                h,
                banks,
                ctr,
                update,
                enhanced,
                skewing,
            } => write!(
                f,
                "{}:n={n},h={h},banks={banks},ctr={},update={update},skew={}",
                if enhanced { "egskew" } else { "gskew" },
                ctr.bits(),
                if skewing { "on" } else { "off" },
            ),
            PredictorSpec::Agree { n, h, bias, ctr } => {
                write!(f, "agree:n={n},h={h},bias={bias},ctr={}", ctr.bits())
            }
            PredictorSpec::BiMode { n, h, choice, ctr } => {
                write!(f, "bimode:n={n},h={h},choice={choice},ctr={}", ctr.bits())
            }
            PredictorSpec::Pas { bht, l, n, ctr } => {
                write!(f, "pas:bht={bht},l={l},n={n},ctr={}", ctr.bits())
            }
            PredictorSpec::Spas {
                bht,
                l,
                n,
                ctr,
                update,
            } => write!(
                f,
                "spas:bht={bht},l={l},n={n},ctr={},update={update}",
                ctr.bits()
            ),
            PredictorSpec::Ideal { h, ctr } => write!(f, "ideal:h={h},ctr={}", ctr.bits()),
            PredictorSpec::Falru { cap, h, ctr, miss } => write!(
                f,
                "falru:cap={cap},h={h},ctr={},miss={}",
                ctr.bits(),
                miss_name(miss)
            ),
            PredictorSpec::SetAssoc {
                n,
                ways,
                h,
                ctr,
                miss,
            } => write!(
                f,
                "setassoc:n={n},ways={ways},h={h},ctr={},miss={}",
                ctr.bits(),
                miss_name(miss)
            ),
            PredictorSpec::McFarling { n, h, ctr } => {
                write!(f, "mcfarling:n={n},h={h},ctr={}", ctr.bits())
            }
            PredictorSpec::Shgskew { n, h, update } => {
                write!(f, "shgskew:n={n},h={h},update={update}")
            }
            PredictorSpec::TwoBcGskew { n, h } => write!(f, "2bcgskew:n={n},h={h}"),
            PredictorSpec::AlwaysTaken => f.write_str("always-taken"),
            PredictorSpec::AlwaysNotTaken => f.write_str("always-nottaken"),
        }
    }
}

/// Generic code over one concrete predictor type, run by
/// [`Concrete::visit`]: a visitor's `visit` is compiled once per
/// predictor type, so a loop inside it calls that type's methods
/// directly instead of dispatching on every branch.
pub trait Visit {
    /// What the visit produces.
    type Output;

    /// Consume the predictor.
    fn visit<P: BranchPredictor + 'static>(self, predictor: P) -> Self::Output;
}

macro_rules! concrete {
    ($($variant:ident($ty:ty),)*) => {
        /// A predictor built from a [`PredictorSpec`], held as its
        /// concrete type ([`PredictorSpec::concrete`]).
        ///
        /// Each gskew shape (bank count, enhanced bank 0, skewing) is its
        /// own [`GskewOf`] variant, so visiting one compiles its per-branch
        /// step for exactly that shape. As a [`BranchPredictor`] itself a
        /// `Concrete` dispatches on every call; use [`Concrete::visit`]
        /// for long runs.
        #[derive(Debug)]
        #[allow(missing_docs)] // one variant per predictor type, named after it
        pub enum Concrete {
            $($variant($ty),)*
        }

        impl Concrete {
            /// Hand the predictor, as its own type, to `visitor`.
            pub fn visit<V: Visit>(self, visitor: V) -> V::Output {
                match self {
                    $(Concrete::$variant(p) => visitor.visit(p),)*
                }
            }

            /// The predictor behind a `dyn` pointer.
            pub fn boxed(self) -> Box<dyn BranchPredictor> {
                match self {
                    $(Concrete::$variant(p) => Box::new(p),)*
                }
            }
        }

        impl BranchPredictor for Concrete {
            fn predict(&mut self, pc: u64) -> Prediction {
                match self {
                    $(Concrete::$variant(p) => p.predict(pc),)*
                }
            }

            fn update(&mut self, pc: u64, outcome: Outcome) {
                match self {
                    $(Concrete::$variant(p) => p.update(pc, outcome),)*
                }
            }

            fn step(&mut self, pc: u64, outcome: Outcome) -> Prediction {
                match self {
                    $(Concrete::$variant(p) => p.step(pc, outcome),)*
                }
            }

            fn record_unconditional(&mut self, pc: u64) {
                match self {
                    $(Concrete::$variant(p) => p.record_unconditional(pc),)*
                }
            }

            fn name(&self) -> String {
                match self {
                    $(Concrete::$variant(p) => p.name(),)*
                }
            }

            fn storage_bits(&self) -> u64 {
                match self {
                    $(Concrete::$variant(p) => p.storage_bits(),)*
                }
            }

            fn reset(&mut self) {
                match self {
                    $(Concrete::$variant(p) => p.reset(),)*
                }
            }
        }
    };
}

concrete! {
    Bimodal(Bimodal),
    Gshare(Gshare),
    Gselect(Gselect),
    Gskew3(GskewOf<3, false, true>),
    Gskew3Same(GskewOf<3, false, false>),
    Egskew3(GskewOf<3, true, true>),
    Egskew3Same(GskewOf<3, true, false>),
    Gskew5(GskewOf<5, false, true>),
    Gskew5Same(GskewOf<5, false, false>),
    Egskew5(GskewOf<5, true, true>),
    Egskew5Same(GskewOf<5, true, false>),
    Agree(Agree),
    BiMode(BiMode),
    Pas(Pas),
    Spas(SkewedPas),
    Ideal(Ideal),
    Falru(FullyAssociative),
    SetAssoc(SetAssociative),
    McFarling(McFarling<Bimodal, Gshare>),
    Shgskew(SharedHysteresisGskew),
    TwoBcGskew(TwoBcGskew),
    AlwaysTaken(AlwaysTaken),
    AlwaysNotTaken(AlwaysNotTaken),
}

impl Concrete {
    /// The [`GskewOf`] variant matching `gskew`'s shape.
    fn gskew(gskew: Gskew) -> Concrete {
        macro_rules! first_fit {
            ($g:ident: $($variant:ident),*) => {
                $(let $g = match GskewOf::new($g) {
                    Ok(p) => return Concrete::$variant(p),
                    Err(g) => g,
                };)*
            };
        }
        first_fit!(
            gskew: Gskew3,
            Gskew3Same,
            Egskew3,
            Egskew3Same,
            Gskew5,
            Gskew5Same,
            Egskew5,
            Egskew5Same
        );
        unreachable!(
            "GskewBuilder admits 3 or 5 banks, not {}",
            gskew.num_banks()
        )
    }
}

/// Build a predictor from a spec string:
/// [`PredictorSpec::parse`] followed by [`PredictorSpec::build`].
///
/// # Errors
///
/// Returns [`ConfigError`] for unknown predictor names, malformed or
/// unknown keys, and out-of-range parameter values.
///
/// ```
/// use bpred_core::spec::parse_spec;
///
/// let p = parse_spec("gskew:n=12,h=8")?;
/// assert_eq!(p.name(), "gskew 3x4096 h=8 2-bit partial");
/// # Ok::<(), bpred_core::error::ConfigError>(())
/// ```
pub fn parse_spec(spec: &str) -> Result<Box<dyn BranchPredictor>, ConfigError> {
    PredictorSpec::parse(spec)?.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_predictor_name() {
        for spec in [
            "bimodal:n=10",
            "gshare:n=12,h=8",
            "gselect:n=12,h=6",
            "gskew:n=10,h=8",
            "gskew:n=10,h=8,banks=5,update=total",
            "egskew:n=10,h=11",
            "ideal:h=4,ctr=1",
            "falru:cap=512,h=4",
            "setassoc:n=8,ways=4,h=4,miss=nottaken",
            "mcfarling:n=10,h=8",
            "2bcgskew:n=10,h=10",
            "always-taken",
            "always-nottaken",
            "agree:n=10,h=6",
            "agree:n=10,h=6,bias=8",
            "bimode:n=10,h=6,choice=9",
            "pas:bht=8,l=6,n=10",
            "spas:bht=8,l=6,n=8,update=total",
            "shgskew:n=10,h=6",
            "shgskew:n=10,h=6,update=total",
            "gskew:n=10,h=4,skew=off",
        ] {
            let p = parse_spec(spec).unwrap_or_else(|e| panic!("{spec}: {e}"));
            assert!(!p.name().is_empty());
        }
    }

    #[test]
    fn defaults_are_sane() {
        let p = parse_spec("gskew").unwrap();
        assert_eq!(p.name(), "gskew 3x4096 h=8 2-bit partial");
    }

    #[test]
    fn rejects_unknown_name() {
        assert!(matches!(
            parse_spec("tage:n=12"),
            Err(ConfigError::UnknownPredictor(_))
        ));
    }

    #[test]
    fn rejects_unknown_key() {
        let e = match parse_spec("gshare:n=12,bogus=1") {
            Err(e) => e,
            Ok(_) => panic!("unknown key accepted"),
        };
        assert!(e.to_string().contains("bogus"), "{e}");
    }

    #[test]
    fn rejects_malformed_pairs() {
        assert!(parse_spec("gshare:n").is_err());
        assert!(parse_spec("gshare:n=abc").is_err());
        assert!(parse_spec("gshare:n=12,n=13").is_err());
    }

    #[test]
    fn rejects_out_of_range_values() {
        assert!(parse_spec("gshare:n=0").is_err());
        assert!(parse_spec("gshare:ctr=9").is_err());
        assert!(parse_spec("gskew:banks=2").is_err());
        assert!(parse_spec("gskew:update=sometimes").is_err());
        assert!(parse_spec("falru:cap=0").is_err());
        assert!(parse_spec("falru:miss=maybe").is_err());
    }

    #[test]
    fn spec_controls_update_policy() {
        let p = parse_spec("gskew:n=10,h=4,update=total").unwrap();
        assert!(p.name().contains("total"));
        let q = parse_spec("gskew:n=10,h=4").unwrap();
        assert!(q.name().contains("partial"));
    }

    #[test]
    fn skew_off_is_the_identical_indexing_ablation() {
        let p = parse_spec("gskew:n=10,h=4,skew=off").unwrap();
        assert!(p.name().ends_with("same-index"));
        assert!(parse_spec("gskew:skew=sideways").is_err());
    }

    #[test]
    fn agree_bias_defaults_to_counter_size() {
        let p = parse_spec("agree:n=11,h=6").unwrap();
        assert!(p.name().contains("bias=2048"), "{}", p.name());
    }

    #[test]
    fn egskew_is_enhanced() {
        let p = parse_spec("egskew:n=10,h=11").unwrap();
        assert!(p.name().starts_with("egskew"));
    }

    #[test]
    fn structured_parse_carries_every_knob() {
        assert_eq!(
            PredictorSpec::parse("gskew:n=10,h=6,banks=5,update=total,skew=off").unwrap(),
            PredictorSpec::Gskew {
                n: 10,
                h: 6,
                banks: 5,
                ctr: CounterKind::TwoBit,
                update: UpdatePolicy::Total,
                enhanced: false,
                skewing: false,
            }
        );
        assert_eq!(
            PredictorSpec::parse("egskew:n=12,h=11").unwrap(),
            PredictorSpec::Gskew {
                n: 12,
                h: 11,
                banks: 3,
                ctr: CounterKind::TwoBit,
                update: UpdatePolicy::Partial,
                enhanced: true,
                skewing: true,
            }
        );
        assert_eq!(
            PredictorSpec::parse("gshare:n=14,h=4,ctr=1").unwrap(),
            PredictorSpec::Gshare {
                n: 14,
                h: 4,
                ctr: CounterKind::OneBit,
            }
        );
    }

    #[test]
    fn out_of_range_values_parse_but_fail_to_build() {
        // Range validation lives in the constructors: `parse` is happy,
        // `build` reports the same error `parse_spec` always did.
        let spec = PredictorSpec::parse("gshare:n=0").unwrap();
        assert!(spec.build().is_err());
        let spec = PredictorSpec::parse("gskew:banks=2").unwrap();
        assert!(spec.build().is_err());
    }

    #[test]
    fn canonical_spelling_writes_every_parameter() {
        for (spec, canonical) in [
            (
                "gskew:n=9,h=4",
                "gskew:n=9,h=4,banks=3,ctr=2,update=partial,skew=on",
            ),
            (
                "egskew:skew=off,update=total,n=12,h=11",
                "egskew:n=12,h=11,banks=3,ctr=2,update=total,skew=off",
            ),
            ("agree:n=11,h=6", "agree:n=11,h=6,bias=11,ctr=2"),
            ("falru:cap=512,h=4", "falru:cap=512,h=4,ctr=2,miss=taken"),
            ("2bcgskew", "2bcgskew:n=12,h=12"),
            ("always-taken", "always-taken"),
        ] {
            let parsed = PredictorSpec::parse(spec).unwrap();
            assert_eq!(parsed.to_string(), canonical, "{spec}");
            assert_eq!(PredictorSpec::parse(canonical).unwrap(), parsed, "{spec}");
        }
    }

    #[test]
    fn structured_build_matches_fused_parse() {
        for spec in ["gshare:n=12,h=8", "gskew:n=10,h=4", "mcfarling:n=10,h=8"] {
            let fused = parse_spec(spec).unwrap();
            let staged = PredictorSpec::parse(spec).unwrap().build().unwrap();
            assert_eq!(fused.name(), staged.name());
            assert_eq!(fused.storage_bits(), staged.storage_bits());
        }
    }
}
