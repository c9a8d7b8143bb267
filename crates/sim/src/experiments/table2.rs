//! Table 2: the unaliased (infinite) predictor.
//!
//! For history lengths of 4 and 12 bits, per benchmark: the substream
//! ratio, the compulsory-aliasing percentage, and the misprediction ratio
//! of 1-bit and 2-bit automatons in an infinite table (first encounters
//! not charged).

use super::helpers::columns;
use super::{ExperimentOpts, ExperimentOutput};
use crate::report::{pct, ratio, Table};
use crate::runner::parallel_map;
use bpred_aliasing::pairs::{walk_ids, Shadow};
use bpred_aliasing::substream::SubstreamStats;
use bpred_core::counter::CounterKind;
use bpred_core::predictor::Outcome;
use bpred_trace::workload::IbsBenchmark;

/// One benchmark's Table 2 row for one history length.
struct Row {
    bench: IbsBenchmark,
    substreams: SubstreamStats,
    one_bit_pct: f64,
    two_bit_pct: f64,
}

/// One pair walk computing all four quantities: the substream counts and
/// a 1-bit and a 2-bit unaliased shadow.
fn measure(bench: IbsBenchmark, history_bits: u32, len: u64) -> Row {
    let mut substreams = SubstreamStats::default();
    let mut one = Shadow::new(CounterKind::OneBit);
    let mut two = Shadow::new(CounterKind::TwoBit);
    walk_ids(&columns(bench, len), history_bits, |r, pair| {
        substreams.observe(&r, pair);
        let outcome = Outcome::from(r.taken);
        one.step(pair, outcome);
        two.step(pair, outcome);
    });
    let denom = substreams.dynamic_branches().max(1) as f64;
    Row {
        bench,
        one_bit_pct: 100.0 * one.misses() as f64 / denom,
        two_bit_pct: 100.0 * two.misses() as f64 / denom,
        substreams,
    }
}

fn table_for(history_bits: u32, opts: &ExperimentOpts) -> Table {
    let mut table = Table::with_columns(
        format!("Unaliased predictor, {history_bits}-bit history"),
        &[
            "benchmark",
            "substream ratio",
            "compulsory aliasing %",
            "mispredict % (1-bit)",
            "mispredict % (2-bit)",
        ],
    );
    let rows = parallel_map(IbsBenchmark::all().to_vec(), opts.threads, |bench| {
        measure(bench, history_bits, opts.len_for(bench))
    });
    for row in rows {
        table.push_row(vec![
            row.bench.name().to_string(),
            ratio(row.substreams.substream_ratio()),
            pct(100.0 * row.substreams.compulsory_ratio()),
            pct(row.one_bit_pct),
            pct(row.two_bit_pct),
        ]);
    }
    table
}

pub(super) fn run(opts: &ExperimentOpts) -> ExperimentOutput {
    ExperimentOutput {
        id: "table2",
        title: "Table 2 — unaliased predictor (substream ratio, compulsory aliasing, \
                1-/2-bit misprediction)"
            .into(),
        tables: vec![table_for(4, opts), table_for(12, opts)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_bit_beats_one_bit_unaliased() {
        // Table 2's consistent finding.
        let r = measure(IbsBenchmark::Nroff, 4, 60_000);
        assert!(
            r.two_bit_pct < r.one_bit_pct,
            "2-bit {} >= 1-bit {}",
            r.two_bit_pct,
            r.one_bit_pct
        );
    }

    #[test]
    fn longer_history_improves_accuracy_and_multiplies_substreams() {
        let short = measure(IbsBenchmark::Groff, 4, 80_000);
        let long = measure(IbsBenchmark::Groff, 12, 80_000);
        assert!(long.two_bit_pct < short.two_bit_pct);
        assert!(long.substreams.substream_ratio() > short.substreams.substream_ratio());
        let compulsory_pct = |row: &Row| 100.0 * row.substreams.compulsory_ratio();
        assert!(compulsory_pct(&long) > compulsory_pct(&short));
    }

    /// Four instruments each count the distinct `(address, history)`
    /// pairs of a trace in their own way — compulsory misses of the FA
    /// pass, compulsory references of the nature classifier, Table 2's
    /// substreams and the `Ideal` predictor's novel pairs — so the counts
    /// must agree.
    #[test]
    fn every_instrument_counts_the_same_distinct_pairs() {
        use crate::engine::{simulate, Mode, NovelPolicy};
        use bpred_aliasing::{batch::fa_pass, nature};
        use bpred_core::ideal::Ideal;
        use bpred_core::index::IndexFunction;

        let opts = ExperimentOpts::quick();
        for bench in IbsBenchmark::all() {
            let len = opts.len_for(bench);
            let cols = columns(bench, len);
            for h in [0u32, 4, 12] {
                let fa = fa_pass(&cols, h, &[1]).cold_misses;
                let compulsory =
                    nature::run_sizes(&cols, h, IndexFunction::Gshare, CounterKind::TwoBit, &[6])
                        [0]
                    .compulsory;
                let substreams = measure(bench, h, len).substreams.distinct_pairs();
                let mut ideal = Ideal::new(h, CounterKind::TwoBit).unwrap();
                simulate(&mut ideal, &cols, Mode::Plain, NovelPolicy::Count);
                let counts = [fa, compulsory, substreams, ideal.distinct_pairs()];
                assert!(counts[0] > 0, "{bench} h={h}");
                assert!(
                    counts.iter().all(|&c| c == counts[0]),
                    "{bench} h={h}: fa {fa}, nature {compulsory}, table2 {substreams}, \
                     ideal {}",
                    counts[3]
                );
            }
        }
    }

    #[test]
    fn output_shape() {
        let out = run(&ExperimentOpts::quick());
        assert_eq!(out.tables.len(), 2);
        assert_eq!(out.tables[0].rows().len(), 6);
    }
}
