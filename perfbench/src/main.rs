//! `perfbench --workload <name> [--seed S] [--seconds N] [--trace 0|1]`
//!
//! Prints one JSON result object as the last line of standard output;
//! `--catalog` prints the `BENCHMARK.json` document instead, and
//! `--pin-digests` rewrites the pinned `experiment all` digests.

use bpred_results::campaign::CampaignArtifact;
use bpred_results::json::Json;
use perfbench::checks::{self, Digests};
use perfbench::report::{self, RUN_SECONDS};
use perfbench::sys;
use perfbench::workload::{self, Config, Pass, Workload, DEFAULT_SEED};
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "usage: perfbench --workload <campaign-cold|campaign-warm|experiments-all> \
[--seed S] [--seconds N] [--trace 0|1] | --catalog | --pin-digests";

/// The pinned digest file, relative to the repository root.
const DIGESTS: &str = "perfbench/digests.txt";
/// The committed quick-campaign baseline, relative to the repository root.
const BASELINE: &str = "baselines/quick-campaign.json";

fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    let parsed = match value
        .strip_prefix("0x")
        .or_else(|| value.strip_prefix("0X"))
    {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    parsed.map_err(|_| format!("{flag} needs a whole number, got `{value}`"))
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

enum Mode {
    Run(Config),
    Catalog,
    PinDigests(Config),
}

fn parse_args(raw: &[String], root: &Path) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = RUN_SECONDS as f64;
    let mut trace = false;
    let (mut catalog, mut pin) = (false, false);
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(name)
                        .ok_or_else(|| format!("unknown workload `{name}`"))?,
                );
            }
            "--seed" => seed = parse_u64(flag, value()?)?,
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds needs a nonnegative number, got `{v}`"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got `{other}`")),
                }
            }
            "--catalog" => catalog = true,
            "--pin-digests" => pin = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if catalog {
        return Ok(Mode::Catalog);
    }
    let workload = if pin {
        Workload::ExperimentsAll
    } else {
        workload.ok_or("--workload is required")?
    };
    let pinned = seed == DEFAULT_SEED;
    if pin && !pinned {
        return Err("--pin-digests pins the default seed; drop --seed".into());
    }
    let baseline = if pinned && workload != Workload::ExperimentsAll {
        let path = root.join(BASELINE);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Some(CampaignArtifact::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?)
    } else {
        None
    };
    let digests = if pinned && workload == Workload::ExperimentsAll && !pin {
        let path = root.join(DIGESTS);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        Some(checks::parse_digests(&text).map_err(|e| format!("{}: {e}", path.display()))?)
    } else {
        None
    };
    let cfg = Config {
        workload,
        seed,
        seconds,
        trace,
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        len: None,
        work_dir: root
            .join(".perfbench")
            .join(format!("work-{}", std::process::id())),
        baseline,
        digests,
    };
    Ok(if pin {
        Mode::PinDigests(cfg)
    } else {
        Mode::Run(cfg)
    })
}

fn pin_digests(cfg: &Config, root: &Path) -> Result<(), String> {
    let digests: Digests = workload::pin_digests(cfg)?;
    let header = format!(
        "per-experiment FNV-1a digests of `experiment all --quick` rendered output, seed {:#x}",
        cfg.seed
    );
    let path = root.join(DIGESTS);
    std::fs::write(&path, checks::format_digests(&digests, &header))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("wrote {} digests to {}", digests.len(), path.display());
    Ok(())
}

fn run(cfg: &Config, root: &Path) -> Result<String, String> {
    let outcome = workload::run(cfg)?;
    let passes = |ps: &[Pass]| {
        Json::Arr(
            ps.iter()
                .map(|p| {
                    Json::obj(vec![
                        ("wall_s", Json::Num(p.wall_s)),
                        ("steal_s", Json::Num(p.steal_s)),
                        ("cpu_s", Json::Num(p.cpu_s)),
                        ("peak_heap_mib", Json::Num(p.peak_heap_mib)),
                    ])
                })
                .collect(),
        )
    };
    let strs = |xs: &[String]| Json::Arr(xs.iter().map(|x| Json::Str(x.clone())).collect());
    let meta = Json::obj(vec![
        ("workload", Json::Str(cfg.workload.name().into())),
        ("seed", Json::Str(format!("{:#x}", cfg.seed))),
        ("trace", Json::Bool(cfg.trace)),
        ("threads", Json::Num(cfg.threads as f64)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("cpu_model", Json::Str(sys::cpu_model())),
        (
            "commit",
            Json::Str(sys::command_line("git", &["rev-parse", "HEAD"], root)),
        ),
        (
            "rustc",
            Json::Str(sys::command_line("rustc", &["-V"], root)),
        ),
        ("store_fs", Json::Str(sys::fs_type(&cfg.work_dir))),
        ("setup", passes(&outcome.setup)),
        ("passes", passes(&outcome.passes)),
        ("process_peak_rss_mib", Json::Num(sys::peak_rss_mib())),
        ("notes", strs(&outcome.notes)),
        ("failures", strs(&outcome.checks.failures)),
    ]);
    for line in outcome.notes.iter().chain(&outcome.checks.failures) {
        eprintln!("perfbench: {line}");
    }
    let catalog = if cfg.trace {
        report::per_layer()
    } else {
        report::end_to_end()
    };
    let metrics = report::select(&catalog, outcome.values)?;
    let line = report::result_line(outcome.checks.attempted, outcome.checks.failed, &metrics);

    let results = root.join(".perfbench").join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("create {}: {e}", results.display()))?;
    let mut record = vec![
        ("meta", meta.clone()),
        (
            "result",
            Json::parse(&line).map_err(|e| format!("own result line: {e}"))?,
        ),
    ];
    if let Some(spans) = outcome.spans {
        record.push(("spans", spans));
    }
    let path = results.join(format!(
        "{}-seed{:x}-trace{}.json",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace)
    ));
    std::fs::write(&path, Json::obj(record).to_string_compact())
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("perfbench meta {}", meta.to_string_compact());
    Ok(line)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let root = repo_root();
    let result = parse_args(&raw, &root).and_then(|mode| match mode {
        Mode::Catalog => Ok(Some(report::benchmark_json().to_string_compact())),
        Mode::PinDigests(cfg) => {
            let pinned = pin_digests(&cfg, &root);
            let _ = std::fs::remove_dir_all(&cfg.work_dir);
            pinned.map(|()| None)
        }
        Mode::Run(cfg) => {
            let line = run(&cfg, &root);
            let _ = std::fs::remove_dir_all(&cfg.work_dir);
            line.map(Some)
        }
    });
    match result {
        Ok(line) => {
            if let Some(line) = line {
                println!("{line}");
            }
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}
