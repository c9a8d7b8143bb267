//! Direct calls into each layer's public functions, timed from outside:
//! trace generation and column build, the kernel and dyn simulation
//! paths per predictor family, the aliasing engine's DM and FA passes,
//! the results store, campaign artifacts and rendering, and every
//! experiment the traced pass did not run.

use crate::checks::{self, Checks};
use crate::report::{median, ENGINE_FAMILIES, KERNEL_FAMILIES};
use crate::spans::{Counters, Tracer};
use crate::workload::{Config, Traced};
use bpred_aliasing::batch::{self, ThreeCCell};
use bpred_core::index::IndexFunction;
use bpred_core::spec::parse_spec;
use bpred_results::campaign::CampaignArtifact;
use bpred_results::record::{CellKey, ResultRecord};
use bpred_results::store::{self, ResultsStore};
use bpred_sim::campaign;
use bpred_sim::engine::{self, NovelPolicy};
use bpred_sim::experiments;
use bpred_sim::kernel;
use bpred_sim::resume::ENGINE_VERSION;
use bpred_trace::cache as trace_cache;
use bpred_trace::record::BranchRecord;
use bpred_trace::soa::TraceColumns;
use bpred_trace::workload::IbsBenchmark;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Records written to the scratch store: the quick campaign's cold
/// store writes.
const STORE_RECORDS: usize = 738;
/// Puts whose median is `results.store.put_tail_s`.
const STORE_TAIL: usize = 100;
/// Repetitions of the short calls whose median is reported.
const REPEATS: usize = 5;

type Trace = (Arc<[BranchRecord]>, TraceColumns);

/// Kernel-path spec lists: the `bpsim bench` size sweeps.
fn kernel_specs(family: &str) -> Vec<String> {
    match family {
        "gskew" | "egskew" => (5..=12).map(|n| format!("{family}:n={n},h=4")).collect(),
        "bimodal" => (6..=13).map(|n| format!("bimodal:n={n}")).collect(),
        _ => (6..=13).map(|n| format!("{family}:n={n},h=4")).collect(),
    }
}

/// Dyn-path spec lists: four sizes of each family the experiments run
/// through `engine::run_many`.
fn engine_specs(family: &str) -> Vec<String> {
    (10..=13)
        .map(|n| match family {
            "mcfarling" => format!("mcfarling:n={n},h=10"),
            "bimode" => format!("bimode:n={n},h=8,choice={n}"),
            "agree" => format!("agree:n={n},h=8,bias={n}"),
            "pas" => format!("pas:bht=10,l=8,n={n}"),
            "gskew_ctr1" => format!("gskew:n={n},h=8,ctr=1"),
            "falru" => format!("falru:cap={},h=4", 1u64 << n),
            other => unreachable!("no engine specs for `{other}`"),
        })
        .collect()
}

/// The `three-c` experiment's grid: 13 sizes × gshare/gselect at h=8.
fn three_c_grid() -> Vec<ThreeCCell> {
    (6..=18)
        .flat_map(|n| {
            [IndexFunction::Gshare, IndexFunction::Gselect].map(|func| ThreeCCell {
                entries_log2: n,
                history_bits: 8,
                func,
            })
        })
        .collect()
}

/// Million record applications per second, 0 when nothing ran.
fn mrec_per_s(apps: u64, nanos: u64) -> f64 {
    if nanos == 0 {
        0.0
    } else {
        apps as f64 / (nanos as f64 / 1e9) / 1e6
    }
}

/// Measure every layer by direct calls and add its metrics to `v`.
pub(crate) fn measure(
    cfg: &Config,
    traced: &Traced,
    tracer: &mut Tracer,
    checks: &mut Checks,
    v: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let root = tracer.enter("layers");
    let traces = trace_layers(cfg, tracer, v);
    kernel_layers(cfg, &traces, tracer, v)?;
    engine_layers(&traces, tracer, v)?;
    aliasing_layers(cfg, &traces, tracer, v);
    drop(traces);
    store_layer(cfg, tracer, checks, v)?;
    artifact_layers(cfg, traced, tracer, checks, v)?;
    experiment_layers(cfg, traced, tracer, v)?;
    tracer.exit(root);
    Ok(())
}

/// `trace.gen` and `trace.soa`: generate each quick-length trace after
/// emptying the cache, then build its columns.
fn trace_layers(cfg: &Config, tracer: &mut Tracer, v: &mut BTreeMap<String, f64>) -> Vec<Trace> {
    let opts = cfg.opts();
    trace_cache::clear();
    let (mut gen_s, mut soa_s, mut records, mut column_bytes) = (0.0, 0.0, 0usize, 0usize);
    let mut traces = Vec::new();
    for bench in IbsBenchmark::all() {
        let len = opts.len_for(bench);
        let (trace, s) = tracer.leaf_s(format!("trace.gen.{}", bench.name()), || {
            trace_cache::materialize_seeded(bench, len, cfg.seed)
        });
        gen_s += s;
        let (columns, s) = tracer.leaf_s(format!("trace.soa.{}", bench.name()), || {
            TraceColumns::from_records(&trace)
        });
        soa_s += s;
        records += trace.len();
        column_bytes += columns.heap_bytes();
        traces.push((trace, columns));
    }
    v.insert("trace.gen.calls".into(), traces.len() as f64);
    v.insert("trace.gen.busy_s".into(), gen_s);
    v.insert("trace.gen.mrec_per_s".into(), records as f64 / gen_s / 1e6);
    v.insert("trace.soa.busy_s".into(), soa_s);
    v.insert(
        "trace.soa.bytes_per_rec".into(),
        column_bytes as f64 / records.max(1) as f64,
    );
    traces
}

/// `sim.kernel.<family>.mrec_per_s`: `kernel::run_specs` over every trace.
fn kernel_layers(
    cfg: &Config,
    traces: &[Trace],
    tracer: &mut Tracer,
    v: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    for family in KERNEL_FAMILIES {
        let specs = kernel_specs(family);
        let before = Counters::now();
        tracer.leaf(format!("sim.kernel.{family}"), || -> Result<(), String> {
            for (records, columns) in traces {
                let results =
                    kernel::run_specs(&specs, records, columns, NovelPolicy::Count, cfg.threads)
                        .map_err(|e| format!("{family} specs: {e}"))?;
                black_box(results);
            }
            Ok(())
        })?;
        let d = Counters::now().since(&before);
        v.insert(
            format!("sim.kernel.{family}.mrec_per_s"),
            mrec_per_s(d.kernel_apps, d.kernel_nanos),
        );
    }
    Ok(())
}

/// `sim.engine.<family>.mrec_per_s`: `engine::run_many` over every trace.
fn engine_layers(
    traces: &[Trace],
    tracer: &mut Tracer,
    v: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    for family in ENGINE_FAMILIES {
        let specs = engine_specs(family);
        let before = Counters::now();
        tracer.leaf(format!("sim.engine.{family}"), || -> Result<(), String> {
            for (records, _) in traces {
                let mut predictors = specs
                    .iter()
                    .map(|s| parse_spec(s).map_err(|e| format!("`{s}`: {e}")))
                    .collect::<Result<Vec<_>, _>>()?;
                black_box(engine::run_many(
                    &mut predictors,
                    records,
                    NovelPolicy::Count,
                ));
            }
            Ok(())
        })?;
        let d = Counters::now().since(&before);
        v.insert(
            format!("sim.engine.{family}.mrec_per_s"),
            mrec_per_s(d.dyn_apps, d.dyn_nanos),
        );
    }
    Ok(())
}

/// `aliasing.dm` and `aliasing.fa`: the three-C grid's direct-mapped
/// units and its shared fully-associative units, run apart.
fn aliasing_layers(
    cfg: &Config,
    traces: &[Trace],
    tracer: &mut Tracer,
    v: &mut BTreeMap<String, f64>,
) {
    let cells = three_c_grid();
    let groups = batch::fa_groups(&cells);
    for (name, dm, fa) in [("dm", &cells[..], &[][..]), ("fa", &[][..], &groups[..])] {
        let before = Counters::now();
        tracer.leaf(format!("aliasing.{name}"), || {
            for (_, columns) in traces {
                black_box(kernel::run_three_c_units(dm, fa, columns, cfg.threads));
            }
        });
        let d = Counters::now().since(&before);
        v.insert(
            format!("aliasing.{name}.busy_s"),
            d.kernel_nanos as f64 / 1e9,
        );
        v.insert(
            format!("aliasing.{name}.mrec_per_s"),
            mrec_per_s(d.kernel_apps, d.kernel_nanos),
        );
    }
}

fn store_record(i: usize, seed: u64) -> ResultRecord {
    let benches = IbsBenchmark::all();
    let key = CellKey {
        bench: benches[i % benches.len()].name().to_string(),
        spec: format!("gshare:n={},h={}", 6 + i % 13, i / 13),
        len: 120_000,
        seed,
        policy: "count".to_string(),
    };
    let fingerprint = key.fingerprint("perfbench", ENGINE_VERSION);
    ResultRecord {
        experiment: "perfbench".to_string(),
        key,
        fingerprint,
        engine_version: ENGINE_VERSION.to_string(),
        conditional: 120_000,
        mispredicted: 1_000 + i as u64,
        novel: i as u64,
        elapsed_ms: i as f64 / 4.0,
    }
}

/// `results.store`: 738 puts into an empty scratch store, reopening it,
/// and reading every record back (each read is a check).
fn store_layer(
    cfg: &Config,
    tracer: &mut Tracer,
    checks: &mut Checks,
    v: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let dir = cfg.work_dir.join("layer-store");
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    }
    let records: Vec<ResultRecord> = (0..STORE_RECORDS)
        .map(|i| store_record(i, cfg.seed))
        .collect();
    let mut opened = ResultsStore::open(&dir)?;
    let mut puts = Vec::with_capacity(records.len());
    let put_root = tracer.enter("results.store.put");
    for record in &records {
        let start = Instant::now();
        opened.put(record)?;
        puts.push(start.elapsed().as_secs_f64());
    }
    tracer.exit(put_root);
    drop(opened);
    let mut opens = Vec::new();
    let mut reopened = None;
    for _ in 0..REPEATS {
        let (store, s) = tracer.leaf_s("results.store.open", || ResultsStore::open(&dir));
        opens.push(s);
        reopened = Some(store?);
    }
    let reopened = reopened.expect("REPEATS > 0");
    let (hits, get_s) = tracer.leaf_s("results.store.get", || {
        records
            .iter()
            .filter(|r| reopened.get(r.fingerprint).as_ref() == Some(*r))
            .count()
    });
    checks.count(records.len() as u64, (records.len() - hits) as u64, || {
        "scratch-store reads that did not return the record put".to_string()
    });
    let index = std::fs::metadata(dir.join("index.json"))
        .map_err(|e| format!("stat {}: {e}", dir.display()))?
        .len();
    std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))?;
    v.insert("results.store.open_s".into(), median(&opens));
    v.insert("results.store.put_s".into(), puts.iter().sum());
    v.insert(
        "results.store.put_tail_s".into(),
        median(&puts[puts.len().saturating_sub(STORE_TAIL)..]),
    );
    v.insert("results.store.get_s".into(), get_s);
    v.insert("results.store.index_kib".into(), index as f64 / 1024.0);
    Ok(())
}

/// `results.campaign.{write_s,diff_s}` on the traced pass's artifact (for
/// `experiments-all`, every experiment captured into one), and
/// `sim.report.render_s` for the campaign workloads, whose command does
/// not render.
fn artifact_layers(
    cfg: &Config,
    traced: &Traced,
    tracer: &mut Tracer,
    checks: &mut Checks,
    v: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let mut artifact = traced.artifact.clone();
    if artifact.experiments.is_empty() {
        artifact.experiments = traced.outputs.iter().map(campaign::capture).collect();
    }
    let path = cfg.work_dir.join("layer-campaign.json");
    let mut writes = Vec::new();
    for _ in 0..REPEATS {
        let (written, s) = tracer.leaf_s("results.campaign.write", || {
            store::write_atomic(&path, artifact.to_pretty_string().as_bytes())
        });
        written?;
        writes.push(s);
    }
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    std::fs::remove_file(&path).map_err(|e| format!("remove {}: {e}", path.display()))?;
    let reread = CampaignArtifact::parse(&text)?;
    let mut diffs = Vec::new();
    for _ in 0..REPEATS {
        let (diff, s) = tracer.leaf_s("results.campaign.diff", || {
            bpred_results::campaign::diff(&artifact, &reread, 0.0)
        });
        black_box(diff);
        diffs.push(s);
    }
    checks::check_baseline(checks, &artifact, &reread);
    v.insert("results.campaign.write_s".into(), median(&writes));
    v.insert("results.campaign.diff_s".into(), median(&diffs));
    if !v.contains_key("sim.report.render_s") {
        let (_, s) = tracer.leaf_s("sim.report.render", || {
            traced
                .outputs
                .iter()
                .map(|o| black_box(o.render()).len())
                .sum::<usize>()
        });
        v.insert("sim.report.render_s".into(), s);
    }
    Ok(())
}

/// `exp.<id>.wall_s` for the experiments the traced pass did not run,
/// each called directly with no store attached.
fn experiment_layers(
    cfg: &Config,
    traced: &Traced,
    tracer: &mut Tracer,
    v: &mut BTreeMap<String, f64>,
) -> Result<(), String> {
    let opts = cfg.opts();
    experiments::set_workload_seed(cfg.seed);
    for id in experiments::ALL_IDS {
        if traced.outputs.iter().any(|o| o.id == *id) {
            continue;
        }
        let (output, s) = tracer.leaf_s(format!("exp.{id}"), || experiments::run(id, &opts));
        output.ok_or_else(|| format!("unknown experiment `{id}`"))?;
        v.insert(format!("exp.{id}.wall_s"), s);
    }
    Ok(())
}
