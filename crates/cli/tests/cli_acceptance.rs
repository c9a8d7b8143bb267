//! End-to-end acceptance pins, driven through the real
//! `bpsim` binary so exit codes, stdout bytes and the `--verbose`
//! counters are all exercised exactly as CI and users see them.

use bpred_results::json::Json;
use bpred_results::record::{CellKey, ResultRecord};
use bpred_results::store::ResultsStore;
use std::path::PathBuf;
use std::process::{Command, Output};

fn bpsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_bpsim"))
        .args(args)
        .output()
        .expect("spawn bpsim")
}

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bpsim-accept-{tag}-{}", std::process::id()))
}

#[test]
fn resumed_rerun_skips_every_cell_and_is_byte_identical() {
    let store = temp_path("store");
    let _ = std::fs::remove_dir_all(&store);
    let store = store.to_str().unwrap();
    // Keep the pin fast: fig5 at a small fixed length.
    let run = |_: ()| {
        bpsim(&[
            "run",
            "fig5",
            "--quick",
            "--len",
            "20000",
            "--resume",
            "--verbose",
            "--results-dir",
            store,
        ])
    };

    let cold = run(());
    assert!(
        cold.status.success(),
        "{}",
        String::from_utf8_lossy(&cold.stderr)
    );
    let cold_err = String::from_utf8_lossy(&cold.stderr);
    assert!(
        cold_err.contains("0 cells skipped"),
        "cold run starts empty: {cold_err}"
    );

    let warm = run(());
    assert!(warm.status.success());
    let warm_err = String::from_utf8_lossy(&warm.stderr);
    assert!(
        warm_err.contains("0 cells simulated"),
        "warm rerun performs zero simulations: {warm_err}"
    );
    assert!(
        warm_err.contains("150 cells skipped"),
        "the skip counter reports every cell: {warm_err}"
    );
    assert!(
        warm_err.contains("cells: 0 simulated, 0 reused in-run"),
        "the cells line reports the warm run: {warm_err}"
    );
    assert_eq!(
        cold.stdout, warm.stdout,
        "resumed table is byte-identical to the cold run"
    );
    let _ = std::fs::remove_dir_all(store);
}

#[test]
fn verbose_reports_cells_without_a_store() {
    let out = bpsim(&["run", "fig5", "--quick", "--len", "20000", "--verbose"]);
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("cells: 150 simulated, 0 reused in-run"),
        "{err}"
    );
    assert!(!err.contains("results store:"), "no store attached: {err}");
}

#[test]
fn campaign_diff_gates_on_tolerance_with_proper_exit_codes() {
    let dir = temp_path("campaign");
    std::fs::create_dir_all(&dir).unwrap();
    let baseline = dir.join("baseline.json");
    let baseline_str = baseline.to_str().unwrap();

    // A tiny artifact pair: the gate's exit-code contract does not need a
    // real simulation run.
    let artifact = |cell: &str| {
        format!(
            concat!(
                "{{\"name\":\"quick\",\"engine_version\":\"1\",\"seed\":\"000000005eed0000\",",
                "\"experiments\":[{{\"id\":\"fig5\",\"title\":\"t\",\"tables\":[{{\"title\":\"g\",",
                "\"columns\":[\"size\",\"groff\"],\"rows\":[[\"64\",\"{}\"]]}}]}}]}}"
            ),
            cell
        )
    };
    std::fs::write(&baseline, artifact("9.41")).unwrap();
    let candidate = dir.join("candidate.json");
    let candidate_str = candidate.to_str().unwrap();
    std::fs::write(&candidate, artifact("9.81")).unwrap();

    // Identical artifacts: exit 0.
    let same = bpsim(&["campaign", "diff", baseline_str, baseline_str]);
    assert!(same.status.success());

    // 0.40 beyond a 0.25 tolerance: nonzero exit and a per-cell report.
    let bad = bpsim(&[
        "campaign",
        "diff",
        baseline_str,
        candidate_str,
        "--tol",
        "0.25",
    ]);
    assert!(!bad.status.success());
    let report = String::from_utf8_lossy(&bad.stdout);
    assert!(
        report.contains("fig5/g/64/groff") && report.contains("9.41 -> 9.81"),
        "per-cell report names the cell: {report}"
    );

    // The same delta within tolerance: exit 0.
    let ok = bpsim(&[
        "campaign",
        "diff",
        baseline_str,
        candidate_str,
        "--tol",
        "0.5",
    ]);
    assert!(
        ok.status.success(),
        "{}",
        String::from_utf8_lossy(&ok.stderr)
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn seed_changes_direct_runs_deterministically() {
    let base = bpsim(&[
        "run",
        "--pred",
        "gshare:n=8,h=4",
        "--bench",
        "verilog",
        "--len",
        "5000",
    ]);
    assert!(base.status.success());
    let seeded = bpsim(&[
        "run",
        "--pred",
        "gshare:n=8,h=4",
        "--bench",
        "verilog",
        "--len",
        "5000",
        "--seed",
        "0x1234",
    ]);
    assert!(seeded.status.success());
    let seeded_again = bpsim(&[
        "run",
        "--pred",
        "gshare:n=8,h=4",
        "--bench",
        "verilog",
        "--len",
        "5000",
        "--seed",
        "4660",
    ]);
    assert!(seeded_again.status.success());
    assert_ne!(base.stdout, seeded.stdout, "a new seed is a new workload");
    assert_eq!(
        seeded.stdout, seeded_again.stdout,
        "hex and decimal spellings of one seed agree"
    );
}

#[test]
fn forged_binary_trace_header_is_an_error_not_an_abort() {
    // "BPT1" plus a record count of 2^48 - 1 and no records.
    let path = temp_path("forged.bpt");
    let mut bytes = b"BPT1".to_vec();
    bytes.extend_from_slice(&[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x00, 0x00]);
    std::fs::write(&path, bytes).unwrap();
    let out = bpsim(&["trace", "info", "--file", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("read "), "{err}");
}

#[test]
fn trace_cache_bypass_leaves_stdout_byte_identical() {
    // table1 reads every record field (privilege included) and fig11
    // walks records twice per benchmark; both must print the same with
    // the trace cache and without it.
    for args in [
        &["experiment", "table1", "--quick"][..],
        &["experiment", "fig11", "--quick", "--len", "20000"][..],
    ] {
        let cached = bpsim(args);
        let bypassed = bpsim(&[args, &["--no-trace-cache"][..]].concat());
        assert!(
            cached.status.success() && bypassed.status.success(),
            "{args:?}: {}{}",
            String::from_utf8_lossy(&cached.stderr),
            String::from_utf8_lossy(&bypassed.stderr)
        );
        assert!(!cached.stdout.is_empty(), "{args:?}");
        assert_eq!(
            String::from_utf8_lossy(&cached.stdout),
            String::from_utf8_lossy(&bypassed.stdout),
            "{args:?}"
        );
    }
}

#[test]
fn unknown_options_exit_1_with_a_hint() {
    for (args, want) in [
        (
            &["experiment", "ext-delay", "--quik"][..],
            "bpsim: unknown option --quik (did you mean --quick?)",
        ),
        (
            &["run", "--pred", "gshare:n=10,h=4", "--bogus-flag", "7"][..],
            "bpsim: unknown option --bogus-flag; try `bpsim help`",
        ),
    ] {
        let out = bpsim(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {err}");
        assert_eq!(err.trim_end(), want, "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
    }
}

#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    let store = temp_path("closed-stdout");
    let _ = std::fs::remove_dir_all(&store);
    for args in [
        &["list"][..],
        &["results", "stats", "--results-dir", store.to_str().unwrap()][..],
        &["experiment", "table1", "--quick"][..],
    ] {
        // The read end is closed before the child starts, so its first
        // write to stdout meets a broken pipe.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_bpsim"))
            .args(args)
            .stdout(writer)
            .output()
            .expect("spawn bpsim");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{args:?}: {err}");
        assert!(err.is_empty(), "{args:?} printed: {err}");
    }
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn gc_deletes_nothing_the_index_names_outside_the_store() {
    let dir = temp_path("gc-traversal");
    let _ = std::fs::remove_dir_all(&dir);
    let store = dir.join("store");
    std::fs::create_dir_all(store.join("records")).unwrap();
    let relative_victim = dir.join("victim.txt");
    let absolute_victim = dir.join("absolute-victim.txt");
    for victim in [&relative_victim, &absolute_victim] {
        std::fs::write(victim, "keep me").unwrap();
    }
    // An index (in the per-record layout's schema) naming one file by a
    // path that climbs out of the store and another by an absolute path.
    let entry = |fp: &str, file: &str, stamp: f64| {
        Json::obj(vec![
            ("fingerprint", Json::Str(fp.into())),
            ("file", Json::Str(file.into())),
            ("bytes", Json::Num(10.0)),
            ("stamp", Json::Num(stamp)),
        ])
    };
    let index = Json::obj(vec![
        ("version", Json::Num(1.0)),
        ("next_stamp", Json::Num(2.0)),
        (
            "entries",
            Json::Arr(vec![
                entry("0000000000000001", "../victim.txt", 0.0),
                entry("0000000000000002", absolute_victim.to_str().unwrap(), 1.0),
            ]),
        ),
    ]);
    std::fs::write(store.join("index.json"), index.to_string_compact()).unwrap();
    let out = bpsim(&[
        "results",
        "gc",
        "--budget",
        "0",
        "--results-dir",
        store.to_str().unwrap(),
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        relative_victim.exists(),
        "gc deleted {}",
        relative_victim.display()
    );
    assert!(
        absolute_victim.exists(),
        "gc deleted {}",
        absolute_victim.display()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn results_stats_counts_a_torn_last_line() {
    let dir = temp_path("torn-stats");
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = ResultsStore::open(&dir).unwrap();
    for n in [10, 11] {
        let key = CellKey {
            bench: "groff".into(),
            spec: format!("gshare:n={n},h=4"),
            len: 1000,
            seed: 0,
            policy: "count".into(),
        };
        let fingerprint = key.fingerprint("wl", "1");
        store
            .put(&ResultRecord {
                experiment: "fig5".into(),
                key,
                fingerprint,
                engine_version: "1".into(),
                conditional: 1000,
                mispredicted: n,
                novel: 0,
                elapsed_ms: 1.0,
            })
            .unwrap();
    }
    drop(store);
    // Cut the second line short, as a write killed mid-line would.
    let segment = std::fs::read_dir(dir.join("segments"))
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let bytes = std::fs::read(&segment).unwrap();
    std::fs::write(&segment, &bytes[..bytes.len() - 20]).unwrap();
    let out = bpsim(&["results", "stats", "--results-dir", dir.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("records:  1\n"), "{stdout}");
    assert!(stdout.contains("warnings: 1\n"), "{stdout}");
    assert!(stdout.contains(":2: torn last line skipped"), "{stdout}");
    let _ = std::fs::remove_dir_all(&dir);
}
