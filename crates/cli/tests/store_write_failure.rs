//! A command whose results-store writes fail exits with an error naming
//! the path, instead of reporting success.
//!
//! `dispatch` runs in this process so the test can predict the store's
//! temporary file names (they carry the process id); the resume context
//! is process-global, so this binary holds ONE `#[test]`.

#[test]
fn a_failed_store_write_fails_the_command() {
    let root = std::env::temp_dir().join(format!("bpred-cli-write-fail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    // The store rewrites its index through `index.tmp<pid>`: a directory
    // in that place makes every index write fail, while opening the
    // store still succeeds.
    let blocker = root.join(format!("index.tmp{}", std::process::id()));
    std::fs::create_dir_all(&blocker).unwrap();
    let argv: Vec<String> = [
        "experiment",
        "fig5",
        "--quick",
        "--len",
        "5000",
        "--save-results",
        "--results-dir",
        root.to_str().unwrap(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let error = bpred_cli::dispatch(argv).expect_err("the command must fail");
    assert!(
        error.contains("results store write failed")
            && error.contains(&blocker.display().to_string()),
        "unexpected message: {error}"
    );
    let _ = std::fs::remove_dir_all(&root);
}
