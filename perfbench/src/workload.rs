//! The workloads and the passes that drive them.
//!
//! An end-to-end pass calls `bpred_cli::dispatch` with the argv a user
//! would type, after resetting the process-global state a fresh process
//! would not have: resident traces, engine counters and any attached
//! results store. Counters that survive the reset (trace-cache and
//! results-store totals) are read as deltas.

use crate::checks::{self, Checks, Digests};
use crate::layers;
use crate::report::median;
use crate::spans::{Counters, Tracer};
use crate::{heap, sys};
use bpred_results::campaign::CampaignArtifact;
use bpred_results::store::{self, ResultsStore};
use bpred_sim::experiments::{self, ExperimentOpts, ExperimentOutput};
use bpred_sim::resume::{self, ENGINE_VERSION};
use bpred_sim::{campaign, timing};
use bpred_trace::cache as trace_cache;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The default workload seed: the one the committed baseline and the
/// pinned digests were produced with.
pub const DEFAULT_SEED: u64 = 0x5EED_0000;

/// The campaign both campaign workloads run.
const CAMPAIGN: &str = "quick";

/// Set-up passes of the campaign workloads; `setup_s` is their median.
const CAMPAIGN_SETUP_PASSES: usize = 3;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `campaign quick --resume` into an empty store on every pass.
    CampaignCold,
    /// The same command against the store set-up filled.
    CampaignWarm,
    /// `experiment all --quick` with no store.
    ExperimentsAll,
}

impl Workload {
    /// Every workload, in catalog order.
    pub const ALL: [Workload; 3] = [
        Workload::CampaignCold,
        Workload::CampaignWarm,
        Workload::ExperimentsAll,
    ];

    /// The workload's name on the command line and in the catalog.
    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignCold => "campaign-cold",
            Workload::CampaignWarm => "campaign-warm",
            Workload::ExperimentsAll => "experiments-all",
        }
    }

    /// Why the workload is in the benchmark (one line).
    pub fn why(self) -> &'static str {
        match self {
            Workload::CampaignCold => {
                "first-time and CI cost: trace generation, kernel sweeps, the batched 3C engine and 738 store writes"
            }
            Workload::CampaignWarm => {
                "rerun against a filled store: 0 cells simulated, so store reads, fingerprints and trace generation dominate"
            }
            Workload::ExperimentsAll => {
                "all 29 experiments without a store: the only workload where the dyn engine path carries real work"
            }
        }
    }

    /// Look a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The experiment ids one pass runs.
    pub fn experiment_ids(self) -> Vec<&'static str> {
        match self {
            Workload::ExperimentsAll => experiments::ALL_IDS.to_vec(),
            _ => campaign::find(CAMPAIGN)
                .expect("the quick campaign is defined")
                .experiments
                .to_vec(),
        }
    }
}

/// Everything one benchmark run needs.
#[derive(Debug)]
pub struct Config {
    /// The workload to drive.
    pub workload: Workload,
    /// Workload seed base passed as `--seed`.
    pub seed: u64,
    /// Seconds of measured passes (at least one pass runs).
    pub seconds: f64,
    /// Follow the measured passes with the traced pass and the direct
    /// layer calls, and report per-layer metrics.
    pub trace: bool,
    /// Worker threads (`--threads`).
    pub threads: usize,
    /// Trace-length override (`--len`), for tiny test runs.
    pub len: Option<u64>,
    /// Scratch directory for stores and outputs; the caller removes it.
    pub work_dir: PathBuf,
    /// The committed campaign every campaign artifact must equal at tol 0.
    pub baseline: Option<CampaignArtifact>,
    /// Pinned per-experiment digests of `experiment all` output.
    pub digests: Option<Digests>,
}

impl Config {
    /// The experiment options every pass runs with.
    pub(crate) fn opts(&self) -> ExperimentOpts {
        ExperimentOpts {
            len_override: self.len,
            threads: self.threads,
            quick: true,
        }
    }
}

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every check made, with its failures.
    pub checks: Checks,
    /// Metric name → value: the end-to-end metrics, or the per-layer
    /// metrics of a traced run.
    pub values: BTreeMap<String, f64>,
    /// Every set-up pass.
    pub setup: Vec<Pass>,
    /// Every measured pass.
    pub passes: Vec<Pass>,
    /// Free-form findings of the traced run (uncounted experiments, …).
    pub notes: Vec<String>,
    /// The traced run's spans, when one ran.
    pub spans: Option<bpred_results::json::Json>,
}

/// What one pass cost.
#[derive(Debug, Clone, Copy)]
pub struct Pass {
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds.
    pub cpu_s: f64,
    /// Peak live heap in counted allocations, MiB.
    pub peak_heap_mib: f64,
    /// Wall seconds the hypervisor took from this machine's CPUs, per
    /// CPU: stolen time, which no change to the program can move.
    pub steal_s: f64,
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Pass) {
    heap::reset_peak();
    let (cpu, steal) = (sys::process_cpu_s(), sys::steal_s());
    let start = Instant::now();
    let result = f();
    let wall_s = start.elapsed().as_secs_f64();
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pass = Pass {
        wall_s,
        cpu_s: sys::process_cpu_s() - cpu,
        peak_heap_mib: heap::peak_mib(),
        steal_s: (sys::steal_s() - steal) / cpus as f64,
    };
    (result, pass)
}

impl Pass {
    /// Wall seconds less stolen time: what the pass took while this
    /// machine's CPUs were its own. Equals `wall_s` on bare metal.
    pub fn run_s(&self) -> f64 {
        (self.wall_s - self.steal_s).max(0.0)
    }
}

/// Return the process to the state a fresh `bpsim` process starts in.
fn reset_process_state() {
    trace_cache::clear();
    timing::reset();
    resume::deconfigure();
}

fn remove_dir(path: &Path) -> Result<(), String> {
    match fs::remove_dir_all(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("remove {}: {e}", path.display())),
    }
}

struct Runner<'a> {
    cfg: &'a Config,
    checks: Checks,
    /// The first campaign artifact of this run, byte for byte.
    first_artifact: Option<Vec<u8>>,
    /// The first `experiment all` digests of this run.
    first_digests: Option<Digests>,
    passes: usize,
}

impl Runner<'_> {
    fn common_args(&self) -> Vec<String> {
        let mut args = vec![
            "--threads".to_string(),
            self.cfg.threads.to_string(),
            "--seed".to_string(),
            format!("{:#x}", self.cfg.seed),
        ];
        if let Some(len) = self.cfg.len {
            args.extend(["--len".to_string(), len.to_string()]);
        }
        args
    }

    fn fresh_store(&mut self) -> Result<PathBuf, String> {
        self.passes += 1;
        let dir = self.cfg.work_dir.join(format!("store-{}", self.passes));
        remove_dir(&dir)?;
        Ok(dir)
    }

    /// `campaign quick --resume` against `store`, then its checks.
    fn campaign_pass(&mut self, store: &Path, warm: bool) -> Result<Pass, String> {
        reset_process_state();
        let artifact = self.cfg.work_dir.join("campaign.json");
        let mut argv: Vec<String> = ["campaign", CAMPAIGN, "--resume", "--results-dir"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        argv.push(store.display().to_string());
        argv.extend(["--out".to_string(), artifact.display().to_string()]);
        argv.extend(self.common_args());
        let before = Counters::now();
        let (result, time) = timed(|| bpred_cli::dispatch(argv));
        result?;
        let delta = Counters::now().since(&before);
        let bytes = fs::read(&artifact).map_err(|e| format!("read {}: {e}", artifact.display()))?;
        self.check_campaign(&bytes, &delta, warm);
        Ok(time)
    }

    fn check_campaign(&mut self, bytes: &[u8], delta: &Counters, warm: bool) {
        let checks = &mut self.checks;
        if warm {
            // Every lookup should hit: a miss is simulated instead.
            checks.count(delta.skipped + delta.simulated, delta.simulated, || {
                "warm lookups missed the store".to_string()
            });
            checks.check(delta.saved == 0, || {
                "a warm pass wrote to the store".to_string()
            });
        } else {
            checks.check(delta.simulated > 0, || {
                "a cold pass simulated nothing".to_string()
            });
            // One check per store write: every simulated cell is saved.
            checks.count(
                delta.simulated.max(delta.saved),
                delta.simulated.abs_diff(delta.saved),
                || "simulated cells that were not saved".to_string(),
            );
        }
        match &self.first_artifact {
            None => self.first_artifact = Some(bytes.to_vec()),
            Some(first) => checks.check(first.as_slice() == bytes, || {
                let kind = if warm { "warm" } else { "cold" };
                format!("{kind} artifact differs from the first cold artifact")
            }),
        }
        if let Some(baseline) = &self.cfg.baseline {
            match CampaignArtifact::parse(&String::from_utf8_lossy(bytes)) {
                Ok(candidate) => checks::check_baseline(checks, baseline, &candidate),
                Err(e) => checks.check(false, || format!("artifact does not parse: {e}")),
            }
        }
    }

    /// `experiment all --quick --out DIR`, then its checks.
    fn experiments_pass(&mut self) -> Result<Pass, String> {
        reset_process_state();
        let out = self.cfg.work_dir.join("experiments");
        remove_dir(&out)?;
        let mut argv: Vec<String> = ["experiment", "all", "--quick", "--out"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        argv.push(out.display().to_string());
        argv.extend(self.common_args());
        let (result, time) = timed(|| bpred_cli::dispatch(argv));
        result?;
        let mut got = Digests::new();
        for id in experiments::ALL_IDS {
            let path = out.join(format!("{id}.txt"));
            let text = fs::read(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            got.insert(id.to_string(), checks::digest(&text));
        }
        remove_dir(&out)?;
        self.check_experiments(&got);
        Ok(time)
    }

    fn check_experiments(&mut self, got: &Digests) {
        match &self.first_digests {
            None => self.first_digests = Some(got.clone()),
            Some(first) => checks::check_digests(&mut self.checks, got, first, "the first pass"),
        }
        if let Some(pinned) = &self.cfg.digests {
            checks::check_digests(&mut self.checks, got, pinned, "the pinned digest");
        }
    }

    /// One pass of the workload. `warm_store` is the store set-up filled.
    fn pass(&mut self, warm_store: Option<&Path>) -> Result<Pass, String> {
        match (self.cfg.workload, warm_store) {
            (Workload::ExperimentsAll, _) => self.experiments_pass(),
            (_, Some(store)) => self.campaign_pass(store, true),
            (_, None) => {
                let store = self.fresh_store()?;
                let time = self.campaign_pass(&store, false)?;
                remove_dir(&store)?;
                Ok(time)
            }
        }
    }

    /// The workload's work replayed through the library calls the
    /// command makes (`resume::configure`, `experiments::run`,
    /// `campaign::capture`), one span around each.
    fn traced_pass(&mut self, tracer: &mut Tracer, store: Option<&Path>) -> Result<Traced, String> {
        reset_process_state();
        experiments::set_workload_seed(self.cfg.seed);
        let opts = self.cfg.opts();
        let is_campaign = self.cfg.workload != Workload::ExperimentsAll;
        let out_dir = self.cfg.work_dir.join("traced");
        remove_dir(&out_dir)?;
        fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
        let before = Counters::now();
        let (result, time) = timed(|| -> Result<_, String> {
            let root = tracer.enter(format!("pass.{}", self.cfg.workload.name()));
            if let Some(dir) = store {
                let opened = tracer.leaf("results.store.open", || ResultsStore::open(dir))?;
                tracer.leaf("sim.resume.configure", || {
                    resume::configure(opened, true, true)
                });
            }
            let mut outputs = Vec::new();
            let mut captured = Vec::new();
            let mut digests = Digests::new();
            for id in self.cfg.workload.experiment_ids() {
                let output = tracer
                    .leaf(format!("exp.{id}"), || experiments::run(id, &opts))
                    .ok_or_else(|| format!("unknown experiment `{id}`"))?;
                if is_campaign {
                    captured.push(
                        tracer.leaf("results.campaign.capture", || campaign::capture(&output)),
                    );
                } else {
                    let text = tracer.leaf("sim.report.render", || output.render());
                    tracer.leaf("results.out.write", || {
                        write_outputs(&out_dir, &output, &text)
                    })?;
                    digests.insert(id.to_string(), checks::digest(text.as_bytes()));
                }
                outputs.push(output);
            }
            let artifact = CampaignArtifact {
                name: CAMPAIGN.to_string(),
                engine_version: ENGINE_VERSION.to_string(),
                seed: experiments::workload_seed(),
                experiments: captured,
            };
            let mut bytes = Vec::new();
            if is_campaign {
                bytes = artifact.to_pretty_string().into_bytes();
                let path = out_dir.join("campaign.json");
                tracer.leaf("results.campaign.write", || {
                    store::write_atomic(&path, &bytes)
                })?;
            }
            if store.is_some() {
                tracer.leaf("sim.resume.deconfigure", resume::deconfigure);
            }
            tracer.exit(root);
            Ok((root, outputs, artifact, bytes, digests))
        });
        let (root, outputs, artifact, bytes, digests) = result?;
        let delta = Counters::now().since(&before);
        let cache = trace_cache::stats();
        remove_dir(&out_dir)?;
        if is_campaign {
            self.check_campaign(&bytes, &delta, self.cfg.workload == Workload::CampaignWarm);
        } else {
            self.check_experiments(&digests);
        }
        Ok(Traced {
            root,
            time,
            delta,
            cache,
            outputs,
            artifact,
        })
    }
}

/// What `bpsim experiment --out DIR` writes for one experiment.
fn write_outputs(dir: &Path, output: &ExperimentOutput, rendered: &str) -> Result<(), String> {
    for (i, table) in output.tables.iter().enumerate() {
        let path = dir.join(format!("{}-{i}.csv", output.id));
        fs::write(&path, table.to_csv()).map_err(|e| format!("write {}: {e}", path.display()))?;
    }
    let path = dir.join(format!("{}.txt", output.id));
    fs::write(&path, rendered).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The traced pass's results.
pub(crate) struct Traced {
    /// Index of the pass's root span.
    pub root: usize,
    time: Pass,
    /// Counter movement over the pass.
    pub delta: Counters,
    /// The trace cache when the pass ended (evictions count from the
    /// `clear` the pass started with).
    pub cache: trace_cache::CacheStats,
    /// Every experiment output of the pass.
    pub outputs: Vec<ExperimentOutput>,
    /// The campaign artifact (empty for `experiments-all`).
    pub artifact: CampaignArtifact,
}

/// Run one benchmark: set-up, measured passes for `cfg.seconds`, and —
/// when tracing — the traced pass and the direct layer calls.
///
/// # Errors
///
/// Returns a message when a command fails or a scratch file cannot be
/// read or written.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("create {}: {e}", cfg.work_dir.display()))?;
    let mut runner = Runner {
        cfg,
        checks: Checks::default(),
        first_artifact: None,
        first_digests: None,
        passes: 0,
    };
    let mut outcome = Outcome::default();

    // Set-up: untimed first passes; for campaign-warm, cold runs.
    let setup_passes = match cfg.workload {
        Workload::ExperimentsAll => 1,
        _ => CAMPAIGN_SETUP_PASSES,
    };
    let warm_store = cfg.work_dir.join("warm-store");
    for _ in 0..setup_passes {
        let time = if cfg.workload == Workload::CampaignWarm {
            // The last of these fills the store the measured passes read.
            remove_dir(&warm_store)?;
            runner.campaign_pass(&warm_store, false)?
        } else {
            runner.pass(None)?
        };
        outcome.setup.push(time);
    }
    let warm = (cfg.workload == Workload::CampaignWarm).then_some(warm_store.as_path());

    let start = Instant::now();
    while outcome.passes.is_empty() || start.elapsed().as_secs_f64() < cfg.seconds {
        let time = runner.pass(warm)?;
        outcome.passes.push(time);
    }
    let runs: Vec<f64> = outcome.passes.iter().map(Pass::run_s).collect();
    let heap: Vec<f64> = outcome.passes.iter().map(|p| p.peak_heap_mib).collect();
    let wall_s = median(&runs);
    // `/proc/self/stat` counts 10 ms ticks, so CPU is averaged over the
    // passes rather than taken per pass.
    let cpu_s = outcome.passes.iter().map(|p| p.cpu_s).sum::<f64>() / outcome.passes.len() as f64;

    if cfg.trace {
        let mut tracer = Tracer::default();
        let store = match cfg.workload {
            Workload::CampaignCold => Some(runner.fresh_store()?),
            Workload::CampaignWarm => Some(warm_store.clone()),
            Workload::ExperimentsAll => None,
        };
        let traced = runner.traced_pass(&mut tracer, store.as_deref())?;
        let mut values = traced_metrics(cfg, &tracer, &traced, wall_s, &mut outcome.notes);
        layers::measure(cfg, &traced, &mut tracer, &mut runner.checks, &mut values)?;
        values.insert("fail_ratio".into(), runner.checks.fail_ratio());
        outcome.values = values;
        outcome.spans = Some(tracer.to_json());
    } else {
        outcome.values = BTreeMap::from([
            ("wall_s".to_string(), wall_s),
            ("cpu_s".to_string(), cpu_s),
            ("peak_heap_mib".to_string(), median(&heap)),
            (
                "setup_s".to_string(),
                median(&outcome.setup.iter().map(Pass::run_s).collect::<Vec<_>>()),
            ),
        ]);
    }
    reset_process_state();
    outcome.checks = runner.checks;
    Ok(outcome)
}

/// Per-layer metrics read off the traced pass's spans and counters.
fn traced_metrics(
    cfg: &Config,
    tracer: &Tracer,
    traced: &Traced,
    untraced_wall_s: f64,
    notes: &mut Vec<String>,
) -> BTreeMap<String, f64> {
    let d = &traced.delta;
    let rate = |apps: u64, nanos: u64| {
        if nanos == 0 {
            0.0
        } else {
            apps as f64 / (nanos as f64 / 1e9) / 1e6
        }
    };
    let mut v = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    put("trace.cache.hits", d.cache_hits as f64);
    put("trace.cache.misses", d.cache_misses as f64);
    put("trace.cache.evictions", traced.cache.evictions as f64);
    put(
        "trace.cache.resident_mib",
        traced.cache.resident_bytes as f64 / (1u64 << 20) as f64,
    );
    put("sim.kernel.apps", d.kernel_apps as f64);
    put("sim.kernel.cpu_s", d.kernel_nanos as f64 / 1e9);
    put("sim.kernel.mrec_per_s", rate(d.kernel_apps, d.kernel_nanos));
    put("sim.engine.apps", d.dyn_apps as f64);
    put("sim.engine.cpu_s", d.dyn_nanos as f64 / 1e9);
    put("sim.engine.mrec_per_s", rate(d.dyn_apps, d.dyn_nanos));
    put(
        "sim.runner.util",
        traced.time.cpu_s / (traced.time.run_s() * cfg.threads as f64),
    );
    put("sim.resume.skipped", d.skipped as f64);
    put("sim.resume.simulated", d.simulated as f64);
    put("sim.resume.saved", d.saved as f64);
    let root = &tracer.spans()[traced.root];
    put("trace.overhead", traced.time.run_s() / untraced_wall_s);
    put(
        "trace.coverage",
        tracer.child_s(traced.root) / root.duration_s(),
    );
    let mut render_s = 0.0;
    let mut uncounted = Vec::new();
    for span in tracer
        .spans()
        .iter()
        .filter(|s| s.parent == Some(traced.root))
    {
        if span.name == "sim.report.render" {
            render_s += span.duration_s();
        }
        if let Some(id) = span.name.strip_prefix("exp.") {
            v.insert(format!("exp.{id}.wall_s"), span.duration_s());
            if span.delta.kernel_apps == 0 && span.delta.dyn_apps == 0 {
                uncounted.push(id.to_string());
            }
        }
    }
    if cfg.workload == Workload::ExperimentsAll {
        v.insert("sim.report.render_s".into(), render_s);
    }
    v.insert("exp.uncounted".into(), uncounted.len() as f64);
    notes.push(format!(
        "experiments that moved no engine counter: {}",
        if uncounted.is_empty() {
            "none".to_string()
        } else {
            uncounted.join(" ")
        }
    ));
    notes.push(format!(
        "traced pass: {:.3} s wall, {:.1}% covered by spans, {:.3}x the untraced median",
        root.duration_s(),
        100.0 * tracer.child_s(traced.root) / root.duration_s(),
        traced.time.run_s() / untraced_wall_s,
    ));
    v
}

/// The per-experiment digests of one `experiment all` pass at `cfg`'s
/// seed and length, for pinning in the benchmark's digest file.
pub fn pin_digests(cfg: &Config) -> Result<Digests, String> {
    let mut runner = Runner {
        cfg,
        checks: Checks::default(),
        first_artifact: None,
        first_digests: None,
        passes: 0,
    };
    fs::create_dir_all(&cfg.work_dir)
        .map_err(|e| format!("create {}: {e}", cfg.work_dir.display()))?;
    runner.experiments_pass()?;
    reset_process_state();
    Ok(runner.first_digests.unwrap_or_default())
}
