//! A results-store write that fails during a sweep is kept, not lost:
//! the sweep finishes, and the first failure, naming the path it could
//! not write, is waiting in the resume context.
//!
//! The resume context is process-global, so this binary holds ONE
//! `#[test]`.

use bpred_results::store::ResultsStore;
use bpred_sim::experiments::{self, ExperimentOpts};
use bpred_sim::resume;

#[test]
fn a_failed_store_write_is_kept_for_the_command() {
    let root = std::env::temp_dir().join(format!("bpred-sim-write-fail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let store = ResultsStore::open(&root).unwrap();
    // A plain file where the segments directory goes: creating this
    // handle's segment, and so every record write, now fails, whoever
    // runs the process (unlike a permission change, which root ignores).
    let segments = root.join("segments");
    let _ = std::fs::remove_dir_all(&segments);
    std::fs::write(&segments, b"not a directory").unwrap();

    resume::configure(store, false, true);
    let mut opts = ExperimentOpts::quick();
    opts.len_override = Some(5_000);
    let output = experiments::run("fig5", &opts).expect("the sweep itself succeeds");
    assert!(!output.tables.is_empty());
    assert!(resume::stats().cells_simulated > 0);
    assert_eq!(resume::stats().records_saved, 0, "no write can succeed");
    let error = resume::take_write_error().expect("the failed write is kept");
    assert!(
        error.contains(&segments.display().to_string()),
        "the message names the failing path: {error}"
    );
    assert_eq!(resume::take_write_error(), None, "taking it clears it");
    resume::deconfigure();
    let _ = std::fs::remove_dir_all(&root);
}
