//! Two processes writing one results store at once lose no record: each
//! appends to its own segment, so the shared store ends up holding
//! exactly what the same two commands leave when run one after the
//! other.

use gskew::results::record::ResultRecord;
use gskew::results::store::ResultsStore;
use std::path::Path;
use std::process::{Command, Stdio};

fn experiment(id: &str, store: &Path) -> Command {
    let mut command = Command::new(env!("CARGO_BIN_EXE_gskew"));
    command
        .args([
            "experiment",
            id,
            "--quick",
            "--len",
            "5000",
            "--save-results",
        ])
        .arg("--results-dir")
        .arg(store)
        .stdout(Stdio::null());
    command
}

/// A record without the two fields that are not the cell's: its
/// wall-clock time, and the experiment label, which names whichever
/// experiment wrote a cell last (fig5 and fig7 share cells).
fn cell(record: &ResultRecord) -> ResultRecord {
    ResultRecord {
        experiment: String::new(),
        elapsed_ms: 0.0,
        ..record.clone()
    }
}

#[test]
fn concurrent_writers_lose_no_record() {
    let base = std::env::temp_dir().join(format!("gskew-concurrent-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let (serial, shared) = (base.join("serial"), base.join("shared"));
    let ids = ["fig5", "fig7"];

    for id in ids {
        assert!(experiment(id, &serial).status().unwrap().success(), "{id}");
    }
    let children: Vec<_> = ids
        .iter()
        .map(|id| experiment(id, &shared).spawn().unwrap())
        .collect();
    for mut child in children {
        assert!(child.wait().unwrap().success());
    }

    let serial = ResultsStore::open(&serial).unwrap();
    let shared = ResultsStore::open(&shared).unwrap();
    assert!(!serial.is_empty());
    assert_eq!(
        shared.len(),
        serial.len(),
        "the concurrent store lost records"
    );
    for record in serial.records() {
        let stored = shared
            .get(record.fingerprint)
            .unwrap_or_else(|| panic!("missing {}", record.key));
        assert_eq!(cell(&stored), cell(&record));
    }
    assert!(shared.warnings().is_empty(), "{:?}", shared.warnings());
    let _ = std::fs::remove_dir_all(&base);
}
