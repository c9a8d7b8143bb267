//! The metric catalog (names, units, which direction is better) and the
//! result line the benchmark prints last.
//!
//! `BENCHMARK.json` at the repository root is this catalog serialized by
//! [`benchmark_json`]; a test keeps the two identical.

use crate::workload::Workload;
use bpred_results::json::Json;
use bpred_sim::experiments::ALL_IDS;
use std::collections::BTreeMap;

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// One metric the benchmark reports.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: String,
    /// Unit the value is given in.
    pub unit: &'static str,
    /// `lower` or `higher`.
    pub better: &'static str,
    /// End-to-end metrics only: the share of the parent's median by
    /// which the metric may worsen before a change is refused.
    pub bound: Option<f64>,
}

fn spec(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> MetricSpec {
    MetricSpec {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, reported with tracing off.
pub fn end_to_end() -> Vec<MetricSpec> {
    vec![
        spec("wall_s", "s", "lower", Some(0.25)),
        spec("cpu_s", "s", "lower", Some(0.25)),
        spec("peak_heap_mib", "MiB", "lower", Some(0.2)),
        spec("setup_s", "s", "lower", Some(0.25)),
    ]
}

/// The per-layer metrics, reported by the traced run.
pub fn per_layer() -> Vec<MetricSpec> {
    let lower = |name: &str, unit| spec(name, unit, "lower", None);
    let higher = |name: &str, unit| spec(name, unit, "higher", None);
    let mut out = vec![
        higher("trace.gen.calls", "count"),
        lower("trace.gen.busy_s", "s"),
        higher("trace.gen.mrec_per_s", "Mrec/s"),
        lower("trace.soa.busy_s", "s"),
        lower("trace.soa.bytes_per_rec", "B/rec"),
        higher("trace.cache.hits", "count"),
        lower("trace.cache.misses", "count"),
        lower("trace.cache.evictions", "count"),
        lower("trace.cache.resident_mib", "MiB"),
        higher("sim.kernel.apps", "count"),
        lower("sim.kernel.cpu_s", "s"),
        higher("sim.kernel.mrec_per_s", "Mrec/s"),
    ];
    for family in KERNEL_FAMILIES {
        out.push(higher(&format!("sim.kernel.{family}.mrec_per_s"), "Mrec/s"));
    }
    out.extend([
        lower("sim.engine.apps", "count"),
        lower("sim.engine.cpu_s", "s"),
        higher("sim.engine.mrec_per_s", "Mrec/s"),
    ]);
    for family in ENGINE_FAMILIES {
        out.push(higher(&format!("sim.engine.{family}.mrec_per_s"), "Mrec/s"));
    }
    out.extend([
        lower("aliasing.dm.busy_s", "s"),
        higher("aliasing.dm.mrec_per_s", "Mrec/s"),
        lower("aliasing.fa.busy_s", "s"),
        higher("aliasing.fa.mrec_per_s", "Mrec/s"),
        higher("sim.runner.util", "ratio"),
        higher("sim.resume.skipped", "count"),
        lower("sim.resume.simulated", "count"),
        lower("sim.resume.saved", "count"),
        lower("results.store.open_s", "s"),
        lower("results.store.put_s", "s"),
        lower("results.store.put_tail_s", "s"),
        lower("results.store.get_s", "s"),
        lower("results.store.index_kib", "KiB"),
        lower("results.campaign.write_s", "s"),
        lower("results.campaign.diff_s", "s"),
        lower("sim.report.render_s", "s"),
    ]);
    for id in ALL_IDS {
        out.push(lower(&format!("exp.{id}.wall_s"), "s"));
    }
    out.extend([
        lower("trace.overhead", "ratio"),
        higher("trace.coverage", "ratio"),
        lower("exp.uncounted", "count"),
        lower("fail_ratio", "ratio"),
    ]);
    out
}

/// Kernel-path families timed by direct `kernel::run_specs` calls.
pub const KERNEL_FAMILIES: [&str; 5] = ["gshare", "gselect", "bimodal", "gskew", "egskew"];

/// Dyn-path families timed by direct `engine::run_many` calls.
pub const ENGINE_FAMILIES: [&str; 6] =
    ["mcfarling", "bimode", "agree", "pas", "gskew_ctr1", "falru"];

/// Whether `name` is a legal metric or workload name.
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// The whole catalog as the `BENCHMARK.json` document.
pub fn benchmark_json() -> Json {
    let metric = |m: &MetricSpec| {
        let mut pairs = vec![
            ("name", Json::Str(m.name.clone())),
            ("unit", Json::Str(m.unit.to_string())),
            ("better", Json::Str(m.better.to_string())),
        ];
        if let Some(bound) = m.bound {
            pairs.push(("bound", Json::Num(bound)));
        }
        Json::obj(pairs)
    };
    Json::obj(vec![
        (
            "command",
            Json::Arr(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "perfbench/Cargo.toml",
                    "--bin",
                    "perfbench",
                    "--",
                ]
                .iter()
                .map(|s| Json::Str(s.to_string()))
                .collect(),
            ),
        ),
        ("paths", Json::Arr(vec![Json::Str("perfbench".into())])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj(vec![
                            ("name", Json::Str(w.name().into())),
                            ("why", Json::Str(w.why().into())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(end_to_end().iter().map(metric).collect()),
        ),
        (
            "per_layer",
            Json::Arr(per_layer().iter().map(metric).collect()),
        ),
    ])
}

/// Order `values` by `catalog`, attaching units. Fails when a catalog
/// metric is missing or a value is not in the catalog.
pub fn select(
    catalog: &[MetricSpec],
    mut values: BTreeMap<String, f64>,
) -> Result<Vec<(MetricSpec, f64)>, String> {
    let mut out = Vec::with_capacity(catalog.len());
    for m in catalog {
        let value = values
            .remove(&m.name)
            .ok_or_else(|| format!("metric `{}` was not measured", m.name))?;
        if !value.is_finite() {
            return Err(format!("metric `{}` is not finite ({value})", m.name));
        }
        out.push((m.clone(), value));
    }
    match values.keys().next() {
        Some(extra) => Err(format!("metric `{extra}` is not in the catalog")),
        None => Ok(out),
    }
}

/// The last line of standard output.
pub fn result_line(attempted: u64, failed: u64, metrics: &[(MetricSpec, f64)]) -> String {
    Json::obj(vec![
        ("correct", Json::Bool(failed == 0 && attempted > 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|(m, value)| {
                        (
                            m.name.clone(),
                            Json::obj(vec![
                                ("value", Json::Num(*value)),
                                ("unit", Json::Str(m.unit.to_string())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .to_string_compact()
}

/// The median of `values` (mean of the middle two for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}
