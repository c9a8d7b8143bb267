//! The benchmark's own tests, at tiny trace lengths.

use bpred_results::campaign::CampaignArtifact;
use bpred_results::json::Json;
use perfbench::report::{self, valid_name};
use perfbench::workload::{self, Config, Outcome, Workload};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// The engine, trace cache and results store keep process-global state,
/// so the runs in this file take turns.
static SERIAL: Mutex<()> = Mutex::new(());

const TINY_LEN: u64 = 2_000;
const SEED: u64 = 0x5EED_0007;

fn work_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn tiny(workload: Workload, trace: bool, tag: &str) -> Config {
    Config {
        workload,
        seed: SEED,
        seconds: 0.0,
        trace,
        threads: 2,
        len: Some(TINY_LEN),
        work_dir: work_dir(tag),
        baseline: None,
        digests: None,
    }
}

fn run(cfg: &Config) -> Outcome {
    let outcome = workload::run(cfg).expect("tiny run succeeds");
    let _ = std::fs::remove_dir_all(&cfg.work_dir);
    outcome
}

/// The campaign artifact the CLI writes for the tiny configuration.
fn tiny_campaign(tag: &str) -> CampaignArtifact {
    let dir = work_dir(tag);
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("campaign.json");
    let argv = [
        "campaign",
        "quick",
        "--len",
        &TINY_LEN.to_string(),
        "--seed",
        &SEED.to_string(),
        "--out",
        path.to_str().unwrap(),
    ];
    bpred_cli::dispatch(argv.iter().map(|s| s.to_string()).collect()).unwrap();
    let artifact = CampaignArtifact::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    artifact
}

#[test]
fn names_are_valid_and_benchmark_json_matches_the_catalog() {
    let mut names: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    names.extend(report::end_to_end().into_iter().map(|m| m.name));
    names.extend(report::per_layer().into_iter().map(|m| m.name));
    for name in &names {
        assert!(valid_name(name), "`{name}` is not [A-Za-z0-9_.-]+");
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "every name is used once");
    for w in Workload::ALL {
        assert!(w.why().len() <= 200 && !w.why().contains('\n'));
    }

    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let committed = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    assert_eq!(
        committed,
        report::benchmark_json(),
        "BENCHMARK.json differs from `perfbench --catalog`"
    );
}

#[test]
fn result_line_parses_with_exactly_the_contract_keys() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let outcome = run(&tiny(Workload::CampaignCold, false, "line"));
    assert_eq!(outcome.checks.failed, 0, "{:?}", outcome.checks.failures);
    let metrics = report::select(&report::end_to_end(), outcome.values).unwrap();
    let line = report::result_line(outcome.checks.attempted, outcome.checks.failed, &metrics);
    let Json::Obj(pairs) = Json::parse(&line).unwrap() else {
        panic!("result line is not an object: {line}");
    };
    let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    let result = Json::Obj(pairs);
    assert_eq!(result.get("correct"), Some(&Json::Bool(true)));
    assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
    for m in report::end_to_end() {
        let metric = result
            .get("metrics")
            .and_then(|ms| ms.get(&m.name))
            .unwrap();
        assert!(
            metric.get("value").and_then(Json::as_f64).unwrap() > 0.0,
            "{}",
            m.name
        );
        assert_eq!(metric.get("unit").and_then(Json::as_str), Some(m.unit));
    }
}

#[test]
fn a_corrupted_baseline_cell_drives_fail_ratio_above_zero() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let baseline = tiny_campaign("baseline-src");

    let mut cfg = tiny(Workload::CampaignCold, false, "baseline-clean");
    cfg.baseline = Some(baseline.clone());
    let clean = run(&cfg);
    assert_eq!(clean.checks.failed, 0, "{:?}", clean.checks.failures);

    let mut corrupted = baseline;
    let cell = &mut corrupted.experiments[0].tables[0].rows[0][1];
    cell.push('9');
    let mut cfg = tiny(Workload::CampaignCold, false, "baseline-corrupt");
    cfg.baseline = Some(corrupted);
    let outcome = run(&cfg);
    assert!(outcome.checks.failed > 0);
    assert!(outcome.checks.fail_ratio() > 0.0);
}

#[test]
fn a_corrupted_digest_drives_fail_ratio_above_zero() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let pin = tiny(Workload::ExperimentsAll, false, "digest-src");
    let mut digests = workload::pin_digests(&pin).unwrap();
    let _ = std::fs::remove_dir_all(&pin.work_dir);
    assert_eq!(digests.len(), bpred_sim::experiments::ALL_IDS.len());

    let mut cfg = tiny(Workload::ExperimentsAll, false, "digest-clean");
    cfg.digests = Some(digests.clone());
    let clean = run(&cfg);
    assert_eq!(clean.checks.failed, 0, "{:?}", clean.checks.failures);

    *digests.get_mut("fig5").unwrap() ^= 1;
    let mut cfg = tiny(Workload::ExperimentsAll, false, "digest-corrupt");
    cfg.digests = Some(digests);
    let outcome = run(&cfg);
    assert!(outcome.checks.failed > 0);
    assert!(outcome.checks.fail_ratio() > 0.0);
}

#[test]
fn traced_campaign_warm_simulates_nothing_and_emits_every_layer_metric() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let outcome = run(&tiny(Workload::CampaignWarm, true, "warm-traced"));
    assert_eq!(outcome.checks.failed, 0, "{:?}", outcome.checks.failures);
    assert_eq!(outcome.values["sim.resume.simulated"], 0.0);
    assert!(outcome.values["sim.resume.skipped"] > 0.0);
    assert_eq!(outcome.values["fail_ratio"], 0.0);
    report::select(&report::per_layer(), outcome.values).expect("every per-layer metric");
}
