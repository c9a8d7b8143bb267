//! A command whose results-store writes fail exits with an error naming
//! the path, instead of reporting success.
//!
//! `dispatch` runs in this process so the test can prepare the store
//! before the command opens it; the resume context is process-global,
//! so this binary holds ONE `#[test]`.

#[cfg(unix)]
#[test]
fn a_failed_store_write_fails_the_command() {
    let root = std::env::temp_dir().join(format!("bpred-cli-write-fail-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();
    // A dangling symlink where the segments directory goes: opening the
    // store lists no segments and succeeds, but creating the directory
    // for this process's segment, and so every record write, fails.
    let blocker = root.join("segments");
    std::os::unix::fs::symlink(root.join("missing").join("segments"), &blocker).unwrap();
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
