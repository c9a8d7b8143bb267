//! Batched entry points over one shared trace: a list of predictor
//! specs, or a three-C aliasing grid, fanned out across worker threads
//! that all read the same [`TraceColumns`].
//!
//! [`run_specs`] is the sweep entry point of the experiments and the
//! CLI: every row becomes its concrete predictor type inside its own
//! task and runs through [`engine::simulate_spec`], so no row pays for
//! dynamic dispatch and at most `threads` predictors are alive at once.

use crate::engine::{self, Mode, NovelPolicy, RunResult};
use crate::runner::parallel_map;
use crate::timing;
use bpred_aliasing::batch::{self, DmCounts, FaCounts, ThreeCCell};
use bpred_aliasing::three_c::ThreeCCounts;
use bpred_core::error::ConfigError;
use bpred_core::spec::PredictorSpec;
use bpred_trace::record::BranchRecord;
use bpred_trace::soa::TraceColumns;
use std::time::Instant;

/// Run every spec over one trace, one task per spec, on up to `threads`
/// workers sharing `columns` (`records` is the same trace as records;
/// only its length is checked). Results keep the order of `specs` and
/// equal [`engine::run_many`] over the built predictors.
///
/// # Errors
///
/// Returns the first [`ConfigError`] in spec order: malformed specs
/// before any simulation runs, out-of-range values once the tasks that
/// build them have run.
pub fn run_specs(
    specs: &[String],
    records: &[BranchRecord],
    columns: &TraceColumns,
    policy: NovelPolicy,
    threads: usize,
) -> Result<Vec<RunResult>, ConfigError> {
    debug_assert_eq!(records.len(), columns.len());
    let parsed = specs
        .iter()
        .map(|s| PredictorSpec::parse(s))
        .collect::<Result<Vec<_>, _>>()?;
    run_parsed(&parsed, columns, policy, threads)
}

/// [`run_specs`] over already-parsed specs.
///
/// # Errors
///
/// Returns the first out-of-range [`ConfigError`] in spec order.
pub fn run_parsed(
    specs: &[PredictorSpec],
    columns: &TraceColumns,
    policy: NovelPolicy,
    threads: usize,
) -> Result<Vec<RunResult>, ConfigError> {
    parallel_map(specs.iter().collect(), threads, |spec| {
        engine::simulate_spec(spec, columns, Mode::Plain, policy).map(|sim| sim.result)
    })
    .into_iter()
    .collect()
}

/// Batched three-C classification of a whole `(size × index-fn ×
/// history)` grid in one logical pass over `columns`, fanned out across
/// up to `threads` workers: one [`batch::dm_pass`] unit per cell plus one
/// shared [`batch::fa_pass`] unit per distinct history length (the
/// fully-associative reference depends on history alone, and one
/// last-use-distance walk serves every capacity at once). Results keep
/// the order of `cells` and are bit-identical to running
/// `ThreeCClassifier` per cell over the same records.
///
/// Time spent in the units is credited to the kernel path of
/// [`crate::timing`].
pub fn run_three_c(
    cells: &[ThreeCCell],
    columns: &TraceColumns,
    threads: usize,
) -> Vec<ThreeCCounts> {
    let groups = batch::fa_groups(cells);
    let (dm, fa) = run_three_c_units(cells, &groups, columns, threads);
    let dm: Vec<DmCounts> = dm.into_iter().map(|(c, _)| c).collect();
    let fa: Vec<FaCounts> = fa.into_iter().map(|(c, _)| c).collect();
    batch::assemble(cells, &groups, &dm, &fa)
}

/// A work unit's result paired with the unit's own elapsed
/// milliseconds (for per-cell accounting in the results store).
pub type Timed<T> = (T, f64);

/// The work units behind [`run_three_c`], exposed separately so the
/// resume layer can run *only* the units whose results are not already
/// stored: direct-mapped units for `dm_cells` and one fully-associative
/// unit per `(history, capacities)` group. Each result carries the unit's
/// own elapsed milliseconds (for per-cell accounting in the results
/// store). All units share one `parallel_map` fan-out, so a mixed batch
/// keeps every worker busy.
pub fn run_three_c_units(
    dm_cells: &[ThreeCCell],
    fa_groups: &[(u32, Vec<u64>)],
    columns: &TraceColumns,
    threads: usize,
) -> (Vec<Timed<DmCounts>>, Vec<Timed<FaCounts>>) {
    enum Unit {
        Dm(usize),
        Fa(usize),
    }
    let units: Vec<Unit> = (0..dm_cells.len())
        .map(Unit::Dm)
        .chain((0..fa_groups.len()).map(Unit::Fa))
        .collect();
    enum Done {
        Dm(usize, DmCounts, f64),
        Fa(usize, FaCounts, f64),
    }
    let results = parallel_map(units, threads, |unit| {
        let start = Instant::now();
        let done = match unit {
            Unit::Dm(i) => {
                let cell = &dm_cells[i];
                let counts =
                    batch::dm_pass(columns, cell.entries_log2, cell.history_bits, cell.func);
                Done::Dm(i, counts, ms_since(start))
            }
            Unit::Fa(g) => {
                let (history_bits, caps) = &fa_groups[g];
                let counts = batch::fa_pass(columns, *history_bits, caps);
                Done::Fa(g, counts, ms_since(start))
            }
        };
        timing::record_kernel(columns.len() as u64, start.elapsed());
        done
    });
    let mut dm: Vec<(DmCounts, f64)> = vec![(DmCounts::default(), 0.0); dm_cells.len()];
    let mut fa: Vec<(FaCounts, f64)> = vec![(FaCounts::default(), 0.0); fa_groups.len()];
    for done in results {
        match done {
            Done::Dm(i, counts, ms) => dm[i] = (counts, ms),
            Done::Fa(g, counts, ms) => fa[g] = (counts, ms),
        }
    }
    (dm, fa)
}

#[inline]
fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_core::index::IndexFunction;
    use bpred_core::spec::parse_spec;
    use bpred_trace::cache;
    use bpred_trace::workload::IbsBenchmark;

    #[test]
    fn run_specs_matches_run_many_in_order() {
        let bench = IbsBenchmark::Verilog;
        let len = 5_000;
        let cols = cache::columns(bench, len);
        let records: Vec<BranchRecord> = cols.records().collect();
        let specs: Vec<String> = [
            "gshare:n=9,h=4",
            "mcfarling:n=9,h=6",
            "gskew:n=8,h=4",
            "ideal:h=4",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        for policy in [NovelPolicy::Count, NovelPolicy::Exclude] {
            let routed = run_specs(&specs, &records, &cols, policy, 2).unwrap();
            let mut predictors: Vec<_> = specs.iter().map(|s| parse_spec(s).unwrap()).collect();
            let reference = engine::run_many(&mut predictors, &records, policy);
            assert_eq!(routed, reference, "{policy:?}");
        }
    }

    #[test]
    fn run_specs_surfaces_config_errors() {
        let cols = cache::columns(IbsBenchmark::Verilog, 100);
        let records: Vec<BranchRecord> = cols.records().collect();
        let bad = vec!["gshare:n=9".to_string(), "gshare:n=0".to_string()];
        assert!(run_specs(&bad, &records, &cols, NovelPolicy::Count, 2).is_err());
        let unknown = vec!["tage:n=12".to_string()];
        assert!(run_specs(&unknown, &records, &cols, NovelPolicy::Count, 1).is_err());
    }

    #[test]
    fn run_three_c_matches_the_classifier_under_any_thread_count() {
        use bpred_aliasing::three_c::ThreeCClassifier;
        let cols = cache::columns(IbsBenchmark::Groff, 8_000);
        let cells: Vec<ThreeCCell> = [
            (6u32, 4u32, IndexFunction::Gshare),
            (6, 4, IndexFunction::Gselect),
            (8, 4, IndexFunction::Gshare),
            (8, 12, IndexFunction::Gselect),
            (10, 0, IndexFunction::Bimodal),
        ]
        .iter()
        .map(|&(n, h, func)| ThreeCCell {
            entries_log2: n,
            history_bits: h,
            func,
        })
        .collect();
        let sequential = run_three_c(&cells, &cols, 1);
        let parallel = run_three_c(&cells, &cols, 4);
        assert_eq!(sequential, parallel, "thread count must not matter");
        for (cell, counts) in cells.iter().zip(&sequential) {
            let reference = ThreeCClassifier::new(cell.entries_log2, cell.history_bits, cell.func)
                .run_counts(cols.records());
            assert_eq!(*counts, reference, "{cell:?}");
        }
    }
}
