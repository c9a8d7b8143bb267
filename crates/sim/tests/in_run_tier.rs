//! The in-run result tier of the resume layer: without any store, a cell
//! one experiment resolved is reused by a later experiment that asks the
//! same question, however it spells the spec.
//!
//! The resume context is process-global, so this binary holds ONE
//! `#[test]`: integration tests get their own process, and a single test
//! body keeps the configure/deconfigure sequence strictly ordered.

use bpred_sim::experiments::{self, ExperimentOpts};
use bpred_sim::resume;

#[test]
fn fig8_partial_update_table_is_served_from_fig5s_cells() {
    let mut opts = ExperimentOpts::quick();
    opts.len_override = Some(10_000);
    resume::deconfigure();
    let store = resume::stats();

    experiments::run("fig5", &opts).unwrap();
    let after_fig5 = resume::in_run_stats();
    assert!(after_fig5.cells_simulated > 0);
    let fig8 = experiments::run("fig8", &opts).unwrap();
    let after_fig8 = resume::in_run_stats();

    // fig8's partial-update rows (`gskew:n=6..=14,h=4,update=partial`)
    // are fig5's `gskew:n=6..=14,h=4` rows: 9 sizes x 6 benchmarks.
    assert_eq!(after_fig8.cells_reused - after_fig5.cells_reused, 9 * 6);
    // Its FA-LRU and total-update tables are new cells.
    assert_eq!(
        after_fig8.cells_simulated - after_fig5.cells_simulated,
        2 * 9 * 6
    );
    assert_eq!(
        resume::stats(),
        store,
        "detached runs move no store counter"
    );

    // The reused table renders exactly as fig8 alone does.
    resume::deconfigure();
    assert_eq!(resume::in_run_stats(), resume::InRunStats::default());
    let alone = experiments::run("fig8", &opts).unwrap();
    let alone_stats = resume::in_run_stats();
    assert_eq!(alone_stats.cells_reused, 0, "a reset run starts empty");
    assert_eq!(alone_stats.cells_simulated, 3 * 9 * 6);
    assert_eq!(fig8.render(), alone.render());
    resume::deconfigure();
}
