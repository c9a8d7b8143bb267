//! Destructive / harmless / constructive aliasing classification.
//!
//! Section 1 of the paper recalls Young, Gloy and Smith's taxonomy:
//! aliasing is *destructive* when sharing an entry causes a misprediction,
//! *harmless* when it does not change the prediction's correctness, and
//! *constructive* when the intruder's training accidentally fixes a
//! prediction that would have been wrong. The paper leans on this when
//! explaining why its analytical model overestimates gskew's misprediction
//! rate ("constructive aliasing … is not modeled").
//!
//! [`run_sizes`] runs the aliased predictor and an unaliased shadow (one
//! automaton per `(address, history)` pair) side by side. For each
//! dynamic branch where the tagged table detects aliasing, the pair of
//! (aliased, unaliased) correctness classifies the event.
//!
//! The shadow does not depend on the table size, so one walk over a
//! trace serves a whole size sweep: pairs are interned into dense ids
//! once, the shadow is updated once per record, and only the aliased
//! table and its owner array are kept per size.

use bpred_core::counter::{CounterKind, CounterTable, SatCounter};
use bpred_core::hash::PairMap;
use bpred_core::history::history_mask;
use bpred_core::index::IndexFunction;
use bpred_core::predictor::Outcome;
use bpred_core::vector::InfoVector;
use bpred_trace::soa::TraceColumns;

/// Counts of aliasing events by their effect on the prediction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NatureCounts {
    /// Aliased references where the unaliased shadow was right and the
    /// aliased table was wrong.
    pub destructive: u64,
    /// Aliased references where both agreed (right or wrong together).
    pub harmless: u64,
    /// Aliased references where the aliased table was right and the
    /// shadow wrong.
    pub constructive: u64,
    /// References that were not aliased at all.
    pub unaliased: u64,
    /// First encounters (no shadow state yet); excluded from the three
    /// classes.
    pub compulsory: u64,
}

impl NatureCounts {
    /// Total aliased references that were classified.
    pub fn aliased(&self) -> u64 {
        self.destructive + self.harmless + self.constructive
    }

    /// Destructive events per aliased reference.
    pub fn destructive_ratio(&self) -> f64 {
        ratio(self.destructive, self.aliased())
    }

    /// Constructive events per aliased reference.
    pub fn constructive_ratio(&self) -> f64 {
        ratio(self.constructive, self.aliased())
    }

    /// Net misprediction overhead caused by aliasing, per dynamic branch:
    /// `(destructive - constructive) / total`.
    pub fn net_overhead(&self) -> f64 {
        let total = self.aliased() + self.unaliased + self.compulsory;
        if total == 0 {
            return 0.0;
        }
        (self.destructive as f64 - self.constructive as f64) / total as f64
    }
}

#[inline]
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Cold-entry sentinel of the per-size owner arrays: pair ids are dense
/// from 0, so `u32::MAX` never names a pair.
const COLD: u32 = u32::MAX;

/// One table size under classification: the aliased table, who touched
/// each entry last (a pair id, or [`COLD`]) and its tallies.
struct Bank {
    entries_log2: u32,
    table: CounterTable,
    owners: Vec<u32>,
    counts: NatureCounts,
}

/// Classify the aliasing of a direct-mapped, tag-less counter table at
/// every size in `entries_log2` (each a `2^n`-entry table with
/// `history_bits` of global history, `func` indexing and `kind`
/// automatons) in one walk over `cols`. Entry `i` of the result is the
/// classification at `entries_log2[i]`.
///
/// The unaliased shadow depends only on the `(address, history)` pair
/// stream, not on the table size, so it is built once and shared by
/// every size: each pair is interned into a dense id on first sight, the
/// shadow is one automaton per id, and each size's owner array stores
/// ids. A reference is aliased when its entry was last touched by a
/// different pair (a cold entry is not an inter-substream event); the
/// first reference to a pair is compulsory and left unclassified.
///
/// # Panics
///
/// Panics if any size is outside `1..=30` or `history_bits` exceeds 64.
pub fn run_sizes(
    cols: &TraceColumns,
    history_bits: u32,
    func: IndexFunction,
    kind: CounterKind,
    entries_log2: &[u32],
) -> Vec<NatureCounts> {
    for &n in entries_log2 {
        assert!(n > 0 && n <= 30, "entries_log2 {n} out of 1..=30");
    }
    assert!(history_bits <= 64, "history_bits {history_bits} above 64");
    // Pin the index-function variant outside the loop, as `dm_pass` does.
    match func {
        IndexFunction::Bimodal => drive(cols, history_bits, kind, entries_log2, |v, n| {
            IndexFunction::Bimodal.index(v, n)
        }),
        IndexFunction::Gshare => drive(cols, history_bits, kind, entries_log2, |v, n| {
            IndexFunction::Gshare.index(v, n)
        }),
        IndexFunction::Gselect => drive(cols, history_bits, kind, entries_log2, |v, n| {
            IndexFunction::Gselect.index(v, n)
        }),
    }
}

#[inline(always)]
fn drive(
    cols: &TraceColumns,
    history_bits: u32,
    kind: CounterKind,
    entries_log2: &[u32],
    index: impl Fn(&InfoVector, u32) -> u64,
) -> Vec<NatureCounts> {
    let mut banks: Vec<Bank> = entries_log2
        .iter()
        .map(|&n| Bank {
            entries_log2: n,
            table: CounterTable::new(n, kind),
            owners: vec![COLD; 1 << n],
            counts: NatureCounts::default(),
        })
        .collect();
    let mut ids: PairMap<u32> = PairMap::default();
    // The unaliased shadow: one automaton per pair id.
    let mut shadow: Vec<SatCounter> = Vec::new();
    let mut compulsory = 0u64;
    let hmask = history_mask(history_bits);
    let mut hist = 0u64;
    for (i, &pc) in cols.pcs().iter().enumerate() {
        let (conditional, taken) = cols.cond_taken(i);
        if !conditional {
            hist = ((hist << 1) | 1) & hmask;
            continue;
        }
        let v = InfoVector::new(pc, hist, history_bits);
        let outcome = Outcome::from(taken);
        let next = u32::try_from(shadow.len())
            .ok()
            .filter(|&id| id != COLD)
            .expect("more distinct pairs than pair ids");
        let id = *ids.entry(v.pair()).or_insert(next);
        // Whether the shadow predicted right; `None` on a first encounter.
        let shadow_right = if id == next {
            shadow.push(SatCounter::seeded(kind, outcome));
            compulsory += 1;
            None
        } else {
            let counter = &mut shadow[id as usize];
            let right = counter.predict() == outcome;
            counter.train(outcome);
            Some(right)
        };
        for bank in &mut banks {
            let idx = index(&v, bank.entries_log2);
            // Value-neutral mask (the index is already in range) that
            // lets the compiler drop the bounds check.
            let entry = idx as usize & (bank.owners.len() - 1);
            // A pair seen before last indexed this same entry, so a
            // classified reference never finds it cold: any other owner
            // is another substream.
            let aliased = std::mem::replace(&mut bank.owners[entry], id) != id;
            let aliased_right = bank.table.predict_train(idx, outcome) == outcome;
            let counts = &mut bank.counts;
            match shadow_right {
                None => {}
                Some(_) if !aliased => counts.unaliased += 1,
                Some(shadow_right) => match (aliased_right, shadow_right) {
                    (false, true) => counts.destructive += 1,
                    (true, false) => counts.constructive += 1,
                    _ => counts.harmless += 1,
                },
            }
        }
        hist = ((hist << 1) | u64::from(taken)) & hmask;
    }
    banks
        .into_iter()
        .map(|bank| NatureCounts {
            compulsory,
            ..bank.counts
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::PairCursor;
    use bpred_trace::prelude::*;
    use bpred_trace::record::{BranchKind, BranchRecord, Privilege};
    use proptest::prelude::*;
    use std::collections::HashMap;

    /// The streaming, one-size-per-walk classifier: the reference model
    /// [`run_sizes`] must match field for field. It keeps its own shadow
    /// keyed by the raw pair and an `Option` owner per entry.
    #[derive(Debug, Clone)]
    struct AliasingNature {
        cursor: PairCursor,
        table: CounterTable,
        owners: Vec<Option<(u64, u64)>>,
        shadow: HashMap<(u64, u64), SatCounter>,
        func: IndexFunction,
        n: u32,
        kind: CounterKind,
        counts: NatureCounts,
    }

    impl AliasingNature {
        fn new(
            entries_log2: u32,
            history_bits: u32,
            func: IndexFunction,
            kind: CounterKind,
        ) -> Self {
            AliasingNature {
                cursor: PairCursor::new(history_bits),
                table: CounterTable::new(entries_log2, kind),
                owners: vec![None; 1 << entries_log2],
                shadow: HashMap::new(),
                func,
                n: entries_log2,
                kind,
                counts: NatureCounts::default(),
            }
        }

        fn observe(&mut self, record: &BranchRecord) {
            if record.kind == BranchKind::Conditional {
                let v = self.cursor.vector(record.pc);
                let pair = v.pair();
                let idx = self.func.index(&v, self.n);
                let outcome = Outcome::from(record.taken);

                let aliased = match self.owners[idx as usize] {
                    Some(owner) => owner != pair,
                    None => false,
                };
                let aliased_prediction = self.table.predict(idx);

                match self.shadow.get_mut(&pair) {
                    None => {
                        self.counts.compulsory += 1;
                        self.shadow
                            .insert(pair, SatCounter::seeded(self.kind, outcome));
                    }
                    Some(shadow_counter) => {
                        let shadow_prediction = shadow_counter.predict();
                        if aliased {
                            let aliased_right = aliased_prediction == outcome;
                            let shadow_right = shadow_prediction == outcome;
                            match (aliased_right, shadow_right) {
                                (false, true) => self.counts.destructive += 1,
                                (true, false) => self.counts.constructive += 1,
                                _ => self.counts.harmless += 1,
                            }
                        } else {
                            self.counts.unaliased += 1;
                        }
                        shadow_counter.train(outcome);
                    }
                }

                self.table.train(idx, outcome);
                self.owners[idx as usize] = Some(pair);
            }
            self.cursor.advance(record);
        }

        fn run(mut self, records: &[BranchRecord]) -> NatureCounts {
            for r in records {
                self.observe(r);
            }
            self.counts
        }
    }

    fn classify(entries_log2: u32, records: &[BranchRecord]) -> NatureCounts {
        let cols = TraceColumns::from_records(records);
        run_sizes(
            &cols,
            0,
            IndexFunction::Bimodal,
            CounterKind::TwoBit,
            &[entries_log2],
        )[0]
    }

    /// Two opposite-biased branches forced into one entry: destructive.
    #[test]
    fn opposite_biases_are_destructive() {
        let a = 0x1000;
        let b = a + (1 << (1 + 2)); // collides in a 2-entry table
        let mut records = Vec::new();
        for _ in 0..50 {
            records.push(BranchRecord::conditional(a, true));
            records.push(BranchRecord::conditional(b, false));
        }
        let counts = classify(1, &records);
        assert!(counts.aliased() > 0);
        assert!(
            counts.destructive > counts.constructive,
            "opposite biases should be destructive: {counts:?}"
        );
        assert!(counts.net_overhead() > 0.1);
    }

    /// Two same-direction branches sharing an entry: harmless.
    #[test]
    fn agreeing_biases_are_harmless() {
        let a = 0x1000;
        let b = a + (1 << (1 + 2));
        let mut records = Vec::new();
        for _ in 0..50 {
            records.push(BranchRecord::conditional(a, true));
            records.push(BranchRecord::conditional(b, true));
        }
        let counts = classify(1, &records);
        assert!(counts.aliased() > 0);
        assert_eq!(counts.destructive, 0, "{counts:?}");
        assert!(counts.harmless > 0);
        assert!(counts.net_overhead().abs() < 1e-9);
    }

    /// A flip-flopping branch can be rescued by a steadier intruder — the
    /// constructive case exists but is rarer, as Young et al. report.
    #[test]
    fn constructive_aliasing_is_rarer_on_real_workloads() {
        let cols: TraceColumns = IbsBenchmark::Groff
            .spec()
            .build()
            .take_conditionals(120_000)
            .collect();
        let counts = run_sizes(&cols, 4, IndexFunction::Gshare, CounterKind::TwoBit, &[10])[0];
        assert!(counts.aliased() > 0);
        assert!(counts.compulsory > 0);
        assert!(
            counts.destructive > counts.constructive,
            "destructive should dominate: {counts:?}"
        );
        assert!(
            counts.constructive > 0,
            "some constructive aliasing should occur: {counts:?}"
        );
    }

    #[test]
    fn empty_stream_is_zero() {
        let counts = classify(4, &[]);
        assert_eq!(counts, NatureCounts::default());
        assert_eq!(counts.net_overhead(), 0.0);
        assert_eq!(counts.destructive_ratio(), 0.0);
    }

    #[test]
    fn unaliased_references_counted() {
        // One lone branch: after the compulsory reference everything is
        // unaliased.
        let records = vec![BranchRecord::conditional(0x100, true); 10];
        let counts = classify(4, &records);
        assert_eq!(counts.compulsory, 1);
        assert_eq!(counts.unaliased, 9);
        assert_eq!(counts.aliased(), 0);
    }

    #[test]
    fn no_sizes_yield_no_counts() {
        let records = vec![BranchRecord::conditional(0x100, true); 4];
        let cols = TraceColumns::from_records(&records);
        let counts = run_sizes(&cols, 4, IndexFunction::Gshare, CounterKind::TwoBit, &[]);
        assert!(counts.is_empty());
    }

    #[test]
    #[should_panic(expected = "out of 1..=30")]
    fn zero_size_panics() {
        let cols = TraceColumns::from_records(&[]);
        let _ = run_sizes(&cols, 4, IndexFunction::Gshare, CounterKind::TwoBit, &[0]);
    }

    /// Branches drawn from a small pc pool so tiny tables alias, with
    /// unconditional branches mixed in (they advance history only).
    fn arb_record() -> impl Strategy<Value = BranchRecord> {
        (0u64..16, any::<bool>(), 0u8..6).prop_map(|(slot, taken, kind)| BranchRecord {
            pc: 0x1000 + slot * 4,
            kind: if kind == 0 {
                BranchKind::Unconditional
            } else {
                BranchKind::Conditional
            },
            taken: kind == 0 || taken,
            privilege: Privilege::User,
        })
    }

    proptest! {
        /// One walk over every size equals one streaming oracle per size,
        /// field for field.
        #[test]
        fn run_sizes_matches_the_streaming_oracle(
            records in proptest::collection::vec(arb_record(), 0..400),
            sizes in proptest::collection::vec(1u32..=6, 1..5),
            history_bits in 0u32..=8,
            func in prop_oneof![
                Just(IndexFunction::Bimodal),
                Just(IndexFunction::Gshare),
                Just(IndexFunction::Gselect)
            ],
            one_bit in any::<bool>(),
        ) {
            let kind = if one_bit { CounterKind::OneBit } else { CounterKind::TwoBit };
            let cols = TraceColumns::from_records(&records);
            let got = run_sizes(&cols, history_bits, func, kind, &sizes);
            prop_assert_eq!(got.len(), sizes.len());
            for (&n, got) in sizes.iter().zip(&got) {
                let want = AliasingNature::new(n, history_bits, func, kind).run(&records);
                prop_assert_eq!(*got, want, "n={} h={} {:?} {:?}", n, history_bits, func, kind);
            }
        }
    }
}
