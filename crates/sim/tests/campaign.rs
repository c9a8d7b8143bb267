//! Acceptance pins for campaign artifacts and regression diffing
//! (ISSUE 2). Lives in its own integration-test binary so the
//! process-global resume context exercised by `tests/resume.rs` can
//! never leak into these runs. Within this binary the two tests would
//! share the context's in-run tier, so each takes [`SERIAL`] and starts
//! every campaign from a reset context.

use bpred_results::campaign::{diff, CampaignArtifact};
use bpred_sim::campaign;
use bpred_sim::experiments::ExperimentOpts;
use bpred_sim::resume;
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn campaign_artifact_roundtrips_and_diffs_clean() {
    let _serial = serial();
    // No store attached: the campaign itself must not require one.
    resume::deconfigure();
    let mut opts = ExperimentOpts::quick();
    opts.len_override = Some(10_000);
    let quick = campaign::find("quick").unwrap();
    let a = campaign::run(quick, &opts);
    assert_eq!(a.name, "quick");
    assert_eq!(a.experiments.len(), quick.experiments.len());
    assert!(a.experiments.iter().all(|e| !e.tables.is_empty()));

    // Artifact -> pretty JSON -> artifact is lossless, and identical
    // artifacts diff clean at zero tolerance.
    let reparsed = CampaignArtifact::parse(&a.to_pretty_string()).unwrap();
    assert_eq!(reparsed, a);
    let d = diff(&a, &reparsed, 0.0);
    assert!(d.is_clean());
    assert!(d.cells_compared > 0);

    // A perturbed numeric cell beyond tolerance is reported per cell.
    let mut perturbed = a.clone();
    let cell = perturbed.experiments[0].tables[0]
        .rows
        .get_mut(0)
        .and_then(|row| row.get_mut(1))
        .expect("fig5 has at least one data cell");
    let bumped: f64 = cell.parse::<f64>().expect("data cell is numeric") + 1.0;
    *cell = format!("{bumped:.2}");
    let d = diff(&a, &perturbed, 0.25);
    assert_eq!(d.regressions.len(), 1);
    assert!(d.regressions[0].delta.unwrap() > 0.25);
    // ... and within tolerance it passes.
    assert!(diff(&a, &perturbed, 2.0).is_clean());
}

#[test]
fn campaign_is_deterministic_across_runs() {
    let mut opts = ExperimentOpts::quick();
    opts.len_override = Some(10_000);
    opts.threads = 2;
    let _serial = serial();
    let quick = campaign::find("quick").unwrap();
    resume::deconfigure();
    let first = campaign::run(quick, &opts);
    let first_cells = resume::in_run_stats();
    assert!(first_cells.cells_simulated > 0);
    // A fresh context: the second run must resolve every cell itself
    // rather than adopt the first run's results.
    resume::deconfigure();
    opts.threads = 1;
    let second = campaign::run(quick, &opts);
    assert_eq!(
        resume::in_run_stats(),
        first_cells,
        "the second run simulates exactly the cells the first did"
    );
    assert_eq!(
        first.to_pretty_string(),
        second.to_pretty_string(),
        "artifacts are byte-identical regardless of thread count"
    );
}
