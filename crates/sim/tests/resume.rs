//! Acceptance pins for the resume layer (ISSUE 2).
//!
//! The resume context is process-global, so everything runs inside ONE
//! `#[test]` in this dedicated integration-test binary: integration
//! tests get their own process, and a single test body keeps the
//! configure/deconfigure sequence strictly ordered.

use bpred_results::store::ResultsStore;
use bpred_sim::experiments::{self, ExperimentOpts};
use bpred_sim::resume;
use std::path::PathBuf;

fn temp_store(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bpred-sim-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn render(output: &experiments::ExperimentOutput) -> String {
    output.render()
}

fn fast_opts() -> ExperimentOpts {
    let mut opts = ExperimentOpts::quick();
    opts.len_override = Some(20_000);
    opts
}

#[test]
fn warm_store_resumes_with_zero_simulations_and_identical_bytes() {
    let root = temp_store("fig5");
    let opts = fast_opts();

    // Cold run: simulate everything, persist every cell.
    resume::configure(ResultsStore::open(&root).unwrap(), true, true);
    let cold = render(&experiments::run("fig5", &opts).unwrap());
    let after_cold = resume::stats();
    assert_eq!(
        after_cold.cells_skipped, 0,
        "cold store has nothing to serve"
    );
    assert!(after_cold.cells_simulated > 0);
    assert_eq!(
        after_cold.records_saved, after_cold.cells_simulated,
        "every simulated cell persists"
    );
    resume::deconfigure().unwrap();

    // Warm run in a *fresh* store handle: every cell must come from
    // disk — zero simulations — and the rendered table must be
    // byte-identical to the cold run.
    resume::configure(ResultsStore::open(&root).unwrap(), true, true);
    let warm = render(&experiments::run("fig5", &opts).unwrap());
    let after_warm = resume::stats();
    assert_eq!(
        after_warm.cells_simulated, after_cold.cells_simulated,
        "warm run performs zero simulations"
    );
    assert_eq!(
        after_warm.cells_skipped, after_cold.cells_simulated,
        "every cell is served from the store"
    );
    assert_eq!(warm, cold, "resumed table is byte-identical");
    resume::deconfigure().unwrap();

    // A different workload seed misses the store completely: the
    // fingerprint covers the seeded workload parameters.
    experiments::set_workload_seed(0x1234_5678);
    resume::configure(ResultsStore::open(&root).unwrap(), true, false);
    let reseeded = render(&experiments::run("fig5", &opts).unwrap());
    let after_reseed = resume::stats();
    assert_eq!(
        after_reseed.cells_skipped, after_warm.cells_skipped,
        "no stored cell matches the new seed"
    );
    assert!(after_reseed.cells_simulated > after_warm.cells_simulated);
    assert_ne!(reseeded, cold, "a different seed is a different workload");
    resume::deconfigure().unwrap();
    experiments::set_workload_seed(bpred_trace::workload::DEFAULT_SEED_BASE);

    // The per-cell path (`sim_pct` via fig7's bench sweep) resumes too.
    let before = resume::stats();
    resume::configure(ResultsStore::open(&root).unwrap(), true, true);
    let fig7_cold = render(&experiments::run("fig7", &opts).unwrap());
    let mid = resume::stats();
    assert!(mid.cells_simulated > before.cells_simulated);
    // fig7's h=4 rows are fig5 cells already in the store.
    let fig7_cells =
        (mid.cells_simulated - before.cells_simulated) + (mid.cells_skipped - before.cells_skipped);
    resume::deconfigure().unwrap();

    // Rerun against a fresh context, so the in-run tier is empty and
    // every cell must come from the store.
    resume::configure(ResultsStore::open(&root).unwrap(), true, true);
    let fig7_warm = render(&experiments::run("fig7", &opts).unwrap());
    let after = resume::stats();
    assert_eq!(
        after.cells_simulated, mid.cells_simulated,
        "warm per-cell rerun performs zero simulations"
    );
    assert_eq!(
        after.cells_skipped - mid.cells_skipped,
        fig7_cells,
        "every fig7 cell is served from the store"
    );
    assert_eq!(fig7_warm, fig7_cold);

    // A third run in the same context is served by the in-run tier,
    // before the store is asked.
    let reused = resume::in_run_stats().cells_reused;
    let fig7_again = render(&experiments::run("fig7", &opts).unwrap());
    assert_eq!(resume::stats(), after, "the store is not asked");
    assert_eq!(resume::in_run_stats().cells_reused - reused, fig7_cells);
    assert_eq!(fig7_again, fig7_cold);
    resume::deconfigure().unwrap();

    // Without a store attached the counters stand still.
    let idle = resume::stats();
    let _ = render(&experiments::run("fig5", &opts).unwrap());
    assert_eq!(resume::stats(), idle, "detached runs bypass the counters");

    let _ = std::fs::remove_dir_all(&root);
}
