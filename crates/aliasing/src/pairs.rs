//! The pair walk: the one place that turns a column-view trace into
//! `(address, history)` pair references and gives the pairs dense ids.
//!
//! The paper measures all aliasing in pairs: tagged tables hold pair
//! identities (section 2), the last-use distance counts distinct pairs
//! (section 5.2) and Table 2's substreams are pairs. [`walk`] forms each
//! conditional record's [`InfoVector`] under `h` bits of global history,
//! unconditional branches shifting in as taken. [`walk_ids`] also numbers
//! the pairs densely in first-appearance order, so instruments index
//! flat vectors by id (last-use stamps, bias tallies, owner arrays, the
//! unaliased [`Shadow`]) instead of hashing pairs; [`PairIds`] holds the
//! crate's only pair-keyed map, for the length of one walk.
//! [`crate::cursor::PairCursor`] is the independent record-stream oracle
//! the walk is tested against.

use bpred_core::counter::{CounterKind, SatCounter};
use bpred_core::hash::PairMap;
use bpred_core::history::history_mask;
use bpred_core::predictor::{Outcome, Prediction};
use bpred_core::vector::InfoVector;
use bpred_trace::soa::TraceColumns;

/// One conditional branch as the walk hands it to an instrument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    /// The branch address.
    pub pc: u64,
    /// Its `(address, history)` vector.
    pub vector: InfoVector,
    /// The resolved direction.
    pub taken: bool,
}

/// A pair's dense id (never `u32::MAX`, which instruments may use as a
/// sentinel) and whether this reference is the pair's first.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PairId {
    /// Pairs are numbered from 0 in first-appearance order.
    pub id: u32,
    /// `true` exactly on the pair's first reference.
    pub first: bool,
}

/// Interns `(address, history)` pairs into [`PairId`]s.
#[derive(Debug, Clone, Default)]
pub struct PairIds {
    ids: PairMap<u32>,
}

impl PairIds {
    /// An empty interner.
    pub fn new() -> Self {
        PairIds::default()
    }

    /// The id of `pair`, assigning the next one on its first reference.
    ///
    /// # Panics
    ///
    /// Panics past `u32::MAX - 1` distinct pairs.
    #[inline]
    pub fn intern(&mut self, pair: (u64, u64)) -> PairId {
        let next = u32::try_from(self.ids.len())
            .ok()
            .filter(|&id| id != u32::MAX)
            .expect("more distinct pairs than pair ids");
        let id = *self.ids.entry(pair).or_insert(next);
        PairId {
            id,
            first: id == next,
        }
    }
}

/// Call `visit` for every conditional record of `cols`, in order.
///
/// # Panics
///
/// Panics if `history_bits` exceeds 64.
#[inline(always)]
pub fn walk(cols: &TraceColumns, history_bits: u32, mut visit: impl FnMut(Reference)) {
    assert!(history_bits <= 64, "history_bits {history_bits} above 64");
    let hmask = history_mask(history_bits);
    let mut hist = 0u64;
    for (i, &pc) in cols.pcs().iter().enumerate() {
        let (conditional, taken) = cols.cond_taken(i);
        if conditional {
            let vector = InfoVector::new(pc, hist, history_bits);
            visit(Reference { pc, vector, taken });
            hist = ((hist << 1) | u64::from(taken)) & hmask;
        } else {
            hist = ((hist << 1) | 1) & hmask;
        }
    }
}

/// [`walk`] with each reference's [`PairId`], panicking as `walk` does;
/// returns the number of distinct pairs.
#[inline(always)]
pub fn walk_ids(
    cols: &TraceColumns,
    history_bits: u32,
    mut visit: impl FnMut(Reference, PairId),
) -> u64 {
    let mut ids = PairIds::new();
    walk(cols, history_bits, |r| {
        visit(r, ids.intern(r.vector.pair()))
    });
    ids.ids.len() as u64
}

/// The unaliased predictor over pair ids: one automaton per pair, seeded
/// with its first outcome. First references are novel and not charged,
/// as for `bpred_core::ideal::Ideal`.
#[derive(Debug, Clone)]
pub struct Shadow {
    kind: CounterKind,
    counters: Vec<SatCounter>,
    misses: u64,
}

impl Shadow {
    /// An empty shadow of `kind` automatons.
    pub fn new(kind: CounterKind) -> Self {
        Shadow {
            kind,
            counters: Vec::new(),
            misses: 0,
        }
    }

    /// Predict the pair's direction, then train on `outcome`; a first
    /// reference seeds the automaton and is predicted novel not-taken.
    /// Ids must come from one walk, in order.
    #[inline]
    pub fn step(&mut self, pair: PairId, outcome: Outcome) -> Prediction {
        if pair.first {
            debug_assert_eq!(pair.id as usize, self.counters.len(), "ids out of order");
            self.counters.push(SatCounter::seeded(self.kind, outcome));
            return Prediction::novel(Outcome::NotTaken);
        }
        let counter = &mut self.counters[pair.id as usize];
        let predicted = counter.predict();
        counter.train(outcome);
        self.misses += u64::from(predicted != outcome);
        Prediction::of(predicted)
    }

    /// Mispredictions charged so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::PairCursor;
    use bpred_core::ideal::Ideal;
    use bpred_core::predictor::BranchPredictor;
    use bpred_trace::record::{BranchKind, BranchRecord, Privilege};
    use proptest::prelude::*;

    /// Records of all four kinds over a small pc pool, so pairs repeat.
    fn arb_record() -> impl Strategy<Value = BranchRecord> {
        (0u64..12, any::<bool>(), 0u8..4, any::<bool>()).prop_map(|(slot, taken, kind, kernel)| {
            BranchRecord {
                pc: 0x4000 + slot * 4,
                kind: [
                    BranchKind::Conditional,
                    BranchKind::Unconditional,
                    BranchKind::Call,
                    BranchKind::Return,
                ][usize::from(kind)],
                taken,
                privilege: if kernel {
                    Privilege::Kernel
                } else {
                    Privilege::User
                },
            }
        })
    }

    proptest! {
        /// The walk forms the pair `PairCursor` forms for every
        /// conditional record, and numbers pairs densely in
        /// first-appearance order with `first` on exactly the first
        /// reference.
        #[test]
        fn walk_matches_the_pair_cursor(
            records in proptest::collection::vec(arb_record(), 0..300),
            history_bits in 0u32..=64,
        ) {
            let mut cursor = PairCursor::new(history_bits);
            let mut want = Vec::new();
            for r in &records {
                if r.kind == BranchKind::Conditional {
                    want.push((r.pc, cursor.pair(r.pc), r.taken));
                }
                cursor.advance(r);
            }
            let cols = TraceColumns::from_records(&records);
            let mut got = Vec::new();
            let distinct = walk_ids(&cols, history_bits, |r, id| got.push((r, id)));
            prop_assert_eq!(got.len(), want.len());
            let mut seen: Vec<(u64, u64)> = Vec::new();
            for (i, ((r, id), &(pc, pair, taken))) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!((r.pc, r.vector.pair(), r.taken), (pc, pair, taken), "ref {}", i);
                prop_assert_eq!(r.vector.hist_bits(), history_bits);
                let earlier = seen.iter().position(|&p| p == pair);
                prop_assert_eq!(id.first, earlier.is_none(), "ref {}", i);
                let expected = earlier.unwrap_or_else(|| {
                    seen.push(pair);
                    seen.len() - 1
                });
                prop_assert_eq!(id.id as usize, expected, "ref {}", i);
            }
            prop_assert_eq!(distinct, seen.len() as u64);
        }

        /// The shadow is the `Ideal` predictor: same prediction and
        /// novel flag on every reference, and the same miss count.
        #[test]
        fn shadow_matches_ideal(
            records in proptest::collection::vec(arb_record(), 0..300),
            history_bits in 0u32..=8,
            one_bit in any::<bool>(),
        ) {
            let kind = if one_bit { CounterKind::OneBit } else { CounterKind::TwoBit };
            let mut ideal = Ideal::new(history_bits, kind).unwrap();
            let mut want = Vec::new();
            let mut ideal_misses = 0u64;
            for r in &records {
                if r.kind == BranchKind::Conditional {
                    let outcome = Outcome::from(r.taken);
                    let p = ideal.step(r.pc, outcome);
                    ideal_misses += u64::from(!p.novel && p.outcome != outcome);
                    want.push(p);
                } else {
                    ideal.record_unconditional(r.pc);
                }
            }
            let mut shadow = Shadow::new(kind);
            let mut got = Vec::new();
            walk_ids(&TraceColumns::from_records(&records), history_bits, |r, id| {
                got.push(shadow.step(id, Outcome::from(r.taken)));
            });
            prop_assert_eq!(got, want);
            prop_assert_eq!(shadow.misses(), ideal_misses);
        }
    }

    #[test]
    fn unconditional_branches_shift_in_taken() {
        let records = [
            BranchRecord::conditional(0x100, false),
            BranchRecord::unconditional(0x104),
            BranchRecord::conditional(0x108, true),
            BranchRecord::conditional(0x200, false),
        ];
        let mut hists = Vec::new();
        walk(&TraceColumns::from_records(&records), 3, |r| {
            hists.push(r.vector.hist())
        });
        assert_eq!(hists, [0b000, 0b001, 0b011]);
    }

    #[test]
    fn interning_is_dense_and_flags_first_use() {
        let mut ids = PairIds::new();
        assert_eq!(ids.intern((7, 1)), PairId { id: 0, first: true });
        assert_eq!(ids.intern((7, 2)), PairId { id: 1, first: true });
        assert_eq!(
            ids.intern((7, 1)),
            PairId {
                id: 0,
                first: false
            }
        );
    }
}
