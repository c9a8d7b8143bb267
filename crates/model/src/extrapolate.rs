//! The figure 11 pipeline: extrapolate the gskew misprediction rate from
//! measured last-use distances and compare against simulation.
//!
//! The paper's procedure (section 5.2):
//!
//! 1. measure the bias `b` over the whole trace (density of static
//!    `(address, history)` pairs biased taken);
//! 2. re-walk the trace, measuring the last-use distance `D` of every
//!    dynamic reference, convert it to a per-bank aliasing probability
//!    with formula (1) (`p = 1` for first encounters), and average
//!    formula (3);
//! 3. add the unaliased misprediction rate of the 1-bit ideal predictor
//!    (Table 2) — compulsory encounters only contribute through the
//!    overhead term.
//!
//! The model assumes 1-bit automatons and *total* update, and is expected
//! to slightly **over**-estimate the simulated rate because constructive
//! aliasing is not modeled.

use bpred_aliasing::bias::BiasStats;
use bpred_aliasing::cursor::PairCursor;
use bpred_aliasing::distance::LastUseDistance;
use bpred_core::counter::CounterKind;
use bpred_core::ideal::Ideal;
use bpred_core::predictor::{BranchPredictor, Outcome};
use bpred_trace::record::{BranchKind, BranchRecord};

use crate::prob::aliasing_probability;
use crate::skew::p_sk;

/// The result of an extrapolation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Extrapolation {
    /// Measured bias `b` (static pairs biased taken).
    pub bias: f64,
    /// Unaliased 1-bit misprediction rate (compulsory excluded).
    pub unaliased_rate: f64,
    /// Average of formula (3) over all dynamic references.
    pub aliasing_overhead: f64,
    /// `unaliased_rate + aliasing_overhead` — the figure 11 estimate.
    pub extrapolated_rate: f64,
    /// Dynamic conditional branches processed.
    pub references: u64,
}

/// Configured extrapolator for one gskew geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extrapolator {
    /// Entries per bank of the modeled 3-bank skewed predictor.
    pub bank_entries: u64,
    /// Global history length in bits.
    pub history_bits: u32,
}

impl Extrapolator {
    /// Run the two-pass pipeline. `pass1` and `pass2` must yield the same
    /// record stream (re-build the workload for each).
    ///
    /// # Panics
    ///
    /// Panics if `bank_entries` is zero.
    pub fn run(
        &self,
        pass1: impl Iterator<Item = BranchRecord>,
        pass2: impl Iterator<Item = BranchRecord>,
    ) -> Extrapolation {
        Self::run_sizes(self.history_bits, &[self.bank_entries], pass1, pass2)[0]
    }

    /// [`Extrapolator::run`] for every bank size in `bank_entries` at
    /// once. The bias pass, the last-use-distance walk and the 1-bit
    /// unaliased predictor do not depend on the bank size, so one walk
    /// serves every size, keeping a formula (3) sum per size. Entry `i`
    /// of the result is bit-identical to `run` with `bank_entries[i]`.
    ///
    /// # Panics
    ///
    /// Panics if any bank size is zero.
    pub fn run_sizes(
        history_bits: u32,
        bank_entries: &[u64],
        pass1: impl Iterator<Item = BranchRecord>,
        pass2: impl Iterator<Item = BranchRecord>,
    ) -> Vec<Extrapolation> {
        assert!(
            bank_entries.iter().all(|&n| n > 0),
            "bank size must be nonzero"
        );

        // Pass 1: bias over the entire trace.
        let bias = BiasStats::new(history_bits).run(pass1);
        let b = bias.static_bias_taken();

        // Pass 2: last-use distances, overhead, and the unaliased 1-bit
        // base rate, in one walk.
        let mut cursor = PairCursor::new(history_bits);
        let mut distances = LastUseDistance::new();
        let mut ideal = Ideal::new(history_bits, CounterKind::OneBit)
            .expect("history length validated by caller");
        let sizes = bank_entries.len();
        let mut overhead_sums = vec![0.0f64; sizes];
        // First encounters: the paper applies formula (3) with p = 1.
        let first_use = p_sk(1.0, b);
        // Formula (3) per (distance, size), filled on first use of a
        // distance: `terms[d * sizes + i]` is the term for distance `d` at
        // `bank_entries[i]`, NaN until computed. Distances repeat heavily
        // and stay below the number of distinct pairs, so the table is
        // small and every term is the same expression, added in the same
        // order, as computing it per reference.
        let mut terms: Vec<f64> = Vec::new();
        let mut unaliased_misses = 0u64;
        let mut references = 0u64;

        for record in pass2 {
            if record.kind == BranchKind::Conditional {
                references += 1;
                match distances.observe(cursor.pair(record.pc)) {
                    Some(d) => {
                        let row = d as usize * sizes;
                        if terms.len() < row + sizes {
                            terms.resize(row + sizes, f64::NAN);
                        }
                        let row = &mut terms[row..row + sizes];
                        if row.first().is_some_and(|t| t.is_nan()) {
                            for (term, &n) in row.iter_mut().zip(bank_entries) {
                                *term = p_sk(aliasing_probability(d, n), b);
                            }
                        }
                        for (sum, term) in overhead_sums.iter_mut().zip(row) {
                            *sum += *term;
                        }
                    }
                    None => overhead_sums.iter_mut().for_each(|sum| *sum += first_use),
                }
                let outcome = Outcome::from(record.taken);
                let prediction = ideal.step(record.pc, outcome);
                if !prediction.novel && prediction.outcome != outcome {
                    unaliased_misses += 1;
                }
            } else {
                ideal.record_unconditional(record.pc);
            }
            cursor.advance(&record);
        }

        let refs_f = references.max(1) as f64;
        let unaliased_rate = unaliased_misses as f64 / refs_f;
        overhead_sums
            .into_iter()
            .map(|sum| {
                let aliasing_overhead = sum / refs_f;
                Extrapolation {
                    bias: b,
                    unaliased_rate,
                    aliasing_overhead,
                    extrapolated_rate: unaliased_rate + aliasing_overhead,
                    references,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::prelude::*;

    fn run(bank_entries: u64, len: u64) -> Extrapolation {
        let spec = IbsBenchmark::Verilog.spec();
        Extrapolator {
            bank_entries,
            history_bits: 4,
        }
        .run(
            spec.build().take_conditionals(len),
            spec.build().take_conditionals(len),
        )
    }

    #[test]
    fn produces_sane_rates() {
        let e = run(1024, 50_000);
        assert_eq!(e.references, 50_000);
        assert!((0.0..=1.0).contains(&e.bias));
        assert!(e.bias > 0.3, "most pairs lean taken-or-not plausibly");
        assert!(e.unaliased_rate > 0.0 && e.unaliased_rate < 0.3);
        assert!(e.aliasing_overhead >= 0.0);
        assert!((e.extrapolated_rate - e.unaliased_rate - e.aliasing_overhead).abs() < 1e-12);
    }

    #[test]
    fn bigger_banks_shrink_overhead() {
        let small = run(256, 50_000);
        let large = run(8192, 50_000);
        assert!(
            large.aliasing_overhead < small.aliasing_overhead,
            "{} !< {}",
            large.aliasing_overhead,
            small.aliasing_overhead
        );
        // The unaliased base rate does not depend on the bank size.
        assert!((large.unaliased_rate - small.unaliased_rate).abs() < 1e-12);
    }

    fn bits(e: &Extrapolation) -> [u64; 5] {
        [
            e.bias.to_bits(),
            e.unaliased_rate.to_bits(),
            e.aliasing_overhead.to_bits(),
            e.extrapolated_rate.to_bits(),
            e.references,
        ]
    }

    /// The pipeline for one bank size with formula (3) evaluated afresh
    /// for every reference: the oracle for the memoized terms.
    fn reference(bank_entries: u64, history_bits: u32, len: u64) -> Extrapolation {
        let spec = IbsBenchmark::Groff.spec();
        let b = BiasStats::new(history_bits)
            .run(spec.build().take_conditionals(len))
            .static_bias_taken();
        let mut cursor = PairCursor::new(history_bits);
        let mut distances = LastUseDistance::new();
        let mut ideal = Ideal::new(history_bits, CounterKind::OneBit).unwrap();
        let (mut sum, mut unaliased_misses, mut references) = (0.0f64, 0u64, 0u64);
        for record in spec.build().take_conditionals(len) {
            if record.kind == BranchKind::Conditional {
                references += 1;
                sum += match distances.observe(cursor.pair(record.pc)) {
                    Some(d) => p_sk(aliasing_probability(d, bank_entries), b),
                    None => p_sk(1.0, b),
                };
                let outcome = Outcome::from(record.taken);
                let prediction = ideal.step(record.pc, outcome);
                unaliased_misses += u64::from(!prediction.novel && prediction.outcome != outcome);
            } else {
                ideal.record_unconditional(record.pc);
            }
            cursor.advance(&record);
        }
        let refs_f = references.max(1) as f64;
        let unaliased_rate = unaliased_misses as f64 / refs_f;
        let aliasing_overhead = sum / refs_f;
        Extrapolation {
            bias: b,
            unaliased_rate,
            aliasing_overhead,
            extrapolated_rate: unaliased_rate + aliasing_overhead,
            references,
        }
    }

    #[test]
    fn run_sizes_is_bit_identical_to_run_per_size() {
        let spec = IbsBenchmark::Groff.spec();
        for (history_bits, sizes) in [
            (4, vec![64u64, 1024, 8192]),
            // Nine sizes, including the 1-entry bank (formula (1)'s
            // `N = 1` branch).
            (12, vec![1u64, 2, 16, 64, 256, 1024, 4096, 8192, 16384]),
        ] {
            let batched = Extrapolator::run_sizes(
                history_bits,
                &sizes,
                spec.build().take_conditionals(20_000),
                spec.build().take_conditionals(20_000),
            );
            for (&bank_entries, got) in sizes.iter().zip(&batched) {
                let want = reference(bank_entries, history_bits, 20_000);
                let single = Extrapolator {
                    bank_entries,
                    history_bits,
                }
                .run(
                    spec.build().take_conditionals(20_000),
                    spec.build().take_conditionals(20_000),
                );
                assert_eq!(bits(&single), bits(&want), "run, bank size {bank_entries}");
                assert_eq!(
                    bits(got),
                    bits(&want),
                    "bank size {bank_entries}, h={history_bits}"
                );
            }
        }
    }

    #[test]
    fn deterministic() {
        assert_eq!(run(1024, 20_000), run(1024, 20_000));
    }
}
