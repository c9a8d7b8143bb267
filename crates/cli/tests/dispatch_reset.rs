//! `dispatch` starts every call from a fresh results context: a second
//! command in the same process re-simulates its cells instead of reusing
//! the first command's in-run results.
//!
//! Engine counters are process-global, so this binary holds ONE
//! `#[test]`.

use bpred_sim::timing;

#[test]
fn repeated_dispatch_calls_do_not_share_cells() {
    let argv = || -> Vec<String> {
        ["experiment", "fig5", "--quick", "--len", "20000"]
            .iter()
            .map(|s| s.to_string())
            .collect()
    };
    let start = timing::stats().kernel_applications;
    bpred_cli::dispatch(argv()).unwrap();
    let first = timing::stats().kernel_applications - start;
    assert!(first > 0, "the first call simulates");
    bpred_cli::dispatch(argv()).unwrap();
    let second = timing::stats().kernel_applications - start - first;
    assert_eq!(second, first, "the second call simulates every cell again");
}
