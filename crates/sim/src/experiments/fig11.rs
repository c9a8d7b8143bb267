//! Figure 11: extrapolated (analytical) vs measured misprediction of the
//! skewed predictor — 1-bit automatons, total update, 4-bit history —
//! across bank sizes.
//!
//! The model is expected to slightly *over*-estimate the measured rate
//! (constructive aliasing is not modeled).

use super::helpers::{columns, sim_pct};
use super::{ExperimentOpts, ExperimentOutput};
use crate::report::{pct, Table};
use crate::runner::parallel_map;
use bpred_model::extrapolate::Extrapolator;
use bpred_trace::workload::IbsBenchmark;

const BANK_LOG2: std::ops::RangeInclusive<u32> = 6..=14;
const HISTORY: u32 = 4;

fn spec(bank_log2: u32) -> String {
    format!("gskew:n={bank_log2},h={HISTORY},ctr=1,update=total")
}

/// Extrapolated and measured misprediction % of one benchmark at every
/// bank size of `banks_log2`: one model walk serves all sizes.
fn measure(bench: IbsBenchmark, banks_log2: &[u32], len: u64) -> Vec<(f64, f64)> {
    let entries: Vec<u64> = banks_log2.iter().map(|&n| 1 << n).collect();
    let trace = columns(bench, len);
    let extrapolations =
        Extrapolator::run_sizes(HISTORY, &entries, trace.records(), trace.records());
    banks_log2
        .iter()
        .zip(extrapolations)
        .map(|(&n, e)| (100.0 * e.extrapolated_rate, sim_pct(&spec(n), bench, len)))
        .collect()
}

pub(super) fn run(opts: &ExperimentOpts) -> ExperimentOutput {
    let banks: Vec<u32> = BANK_LOG2.collect();
    let per_bench = parallel_map(IbsBenchmark::all().to_vec(), opts.threads, |bench| {
        measure(bench, &banks, opts.len_for(bench))
    });

    let mut columns = vec!["bank entries".to_string()];
    columns.extend(IbsBenchmark::all().iter().map(|b| b.name().to_string()));
    let mut extrapolated = Table::new(
        "Extrapolated mispredict % (model: 1-bit, total update, h=4)",
        columns.clone(),
    );
    let mut measured = Table::new(
        "Measured mispredict % (simulated 3-bank gskew: 1-bit, total update, h=4)",
        columns,
    );
    for (i, &n) in banks.iter().enumerate() {
        let label = format!("3x{}", 1u64 << n);
        extrapolated.push_row(
            std::iter::once(label.clone())
                .chain(per_bench.iter().map(|cells| pct(cells[i].0)))
                .collect(),
        );
        measured.push_row(
            std::iter::once(label)
                .chain(per_bench.iter().map(|cells| pct(cells[i].1)))
                .collect(),
        );
    }
    ExperimentOutput {
        id: "fig11",
        title: "Figure 11 — extrapolated vs measured gskew misprediction".into(),
        tables: vec![extrapolated, measured],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_tracks_simulation() {
        let (extrapolated, measured) = measure(IbsBenchmark::Verilog, &[10], 60_000)[0];
        // Same ballpark...
        assert!(
            (extrapolated - measured).abs() < measured.max(2.0),
            "extrapolated {extrapolated} vs measured {measured}"
        );
        // ...and the paper notes the model overestimates slightly; allow
        // a little slack for workload noise.
        assert!(
            extrapolated > measured - 1.0,
            "extrapolated {extrapolated} unexpectedly far below measured {measured}"
        );
    }

    #[test]
    fn output_shape() {
        let mut opts = ExperimentOpts::quick();
        opts.len_override = Some(15_000);
        let out = run(&opts);
        assert_eq!(out.tables.len(), 2);
        assert_eq!(out.tables[0].rows().len(), 9);
    }
}
