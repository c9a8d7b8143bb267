//! Fused-vs-unfused throughput race behind `bpsim bench`.
//!
//! Every predictor family implements [`BranchPredictor::step`], a fused
//! predict-and-train that computes its indices (or hash keys) once per
//! branch. Each [`BenchCase`] is a sweep-shaped list of one family's
//! specs driven over the quick-campaign workloads twice, both times
//! through [`engine::simulate`] over the concrete predictor type: once
//! as is, and once behind [`Unfused`], whose trait impl forwards
//! `predict` and `update` only, so the default predict-then-update
//! `step` runs. Both paths are timed as summed CPU seconds, so the
//! reported speedup is independent of the worker-thread count, and both
//! results are compared cell by cell — a throughput run doubles as the
//! equivalence check of every fused `step`.
//!
//! [`BenchReport::to_json`] serializes the measurement for
//! `BENCH_kernels.json`, the artifact the CI bench smoke job tracks.

use bpred_aliasing::batch::{self, ThreeCCell};
use bpred_aliasing::three_c::ThreeCClassifier;
use bpred_core::index::IndexFunction;
use bpred_core::predictor::{BranchPredictor, Outcome, Prediction};
use bpred_core::spec::{PredictorSpec, Visit};
use bpred_results::json::Json;
use bpred_sim::engine::{self, Mode, NovelPolicy, RunResult};
use bpred_sim::experiments::workload_seed;
use bpred_sim::kernel;
use bpred_sim::runner::parallel_map;
use bpred_trace::cache;
use bpred_trace::record::BranchRecord;
use bpred_trace::soa::TraceColumns;
use bpred_trace::workload::IbsBenchmark;
use std::time::Instant;

/// The quick-campaign trace-length cap (`ExperimentOpts::len_for`).
pub const QUICK_LEN_CAP: u64 = 120_000;

/// Runs per side and spec in [`run`]; the fastest of each side counts.
pub const RACE_ROUNDS: usize = 3;

/// One named list of predictor specs to race.
#[derive(Debug, Clone)]
pub struct BenchCase {
    /// Case name (one row of the report).
    pub name: &'static str,
    /// The predictor specs the case drives.
    pub specs: Vec<String>,
}

fn case(name: &'static str, specs: impl IntoIterator<Item = String>) -> BenchCase {
    BenchCase {
        name,
        specs: specs.into_iter().collect(),
    }
}

/// The default case list: one case per predictor family, each in the
/// sweep shape the experiments simulate it in. The static predictors
/// have nothing to fuse and are left out.
pub fn default_cases() -> Vec<BenchCase> {
    vec![
        case("gshare-size", (6..=13).map(|n| format!("gshare:n={n},h=4"))),
        case("gskew-size", (5..=12).map(|n| format!("gskew:n={n},h=4"))),
        case(
            "gskew-history",
            (0..=8).map(|h| format!("gskew:n=12,h={h}")),
        ),
        case(
            "variants",
            [
                "bimodal:n=12",
                "gselect:n=10,h=6",
                "egskew:n=10,h=6",
                "gskew:n=10,h=6,update=total",
                "gskew:n=10,h=6,banks=5",
                "gskew:n=10,h=6,skew=off",
            ]
            .map(String::from),
        ),
        case(
            "counters",
            (6..=14)
                .step_by(2)
                .map(|n| format!("gskew:n={n},h=4,ctr=1,update=total"))
                .chain([
                    "gshare:n=10,h=4,ctr=1".into(),
                    "gskew:n=10,h=4,ctr=3".into(),
                ]),
        ),
        case(
            "antialias",
            [4, 8, 12].into_iter().flat_map(|h| {
                [
                    format!("agree:n=13,h={h},bias=12"),
                    format!("bimode:n=12,h={h},choice=12"),
                ]
            }),
        ),
        case(
            "pas",
            (8..=14).step_by(2).flat_map(|n| {
                [
                    format!("pas:bht=10,l=8,n={n}"),
                    format!("spas:bht=10,l=8,n={n}"),
                ]
            }),
        ),
        case(
            "hybrid",
            [4, 10, 16].into_iter().flat_map(|h| {
                [
                    format!("2bcgskew:n=12,h={h}"),
                    format!("mcfarling:n=12,h={h}"),
                ]
            }),
        ),
        case(
            "shgskew",
            (8..=14).step_by(2).map(|n| format!("shgskew:n={n},h=6")),
        ),
        case(
            "ideal",
            [4, 12]
                .into_iter()
                .flat_map(|h| [format!("ideal:h={h},ctr=1"), format!("ideal:h={h}")]),
        ),
        case(
            "falru",
            (6..=14)
                .step_by(2)
                .map(|n| format!("falru:cap={},h=4", 1u64 << n)),
        ),
        case(
            "setassoc",
            (6..=10)
                .step_by(2)
                .map(|n| format!("setassoc:n={n},ways=4,h=4,miss=nottaken")),
        ),
    ]
}

/// A predictor whose trait impl forwards everything *but* `step`, so the
/// engine runs the default predict-then-update step: the unfused
/// reference of the race.
#[derive(Debug, Clone)]
pub struct Unfused<P>(pub P);

impl<P: BranchPredictor> BranchPredictor for Unfused<P> {
    fn predict(&mut self, pc: u64) -> Prediction {
        self.0.predict(pc)
    }

    fn update(&mut self, pc: u64, outcome: Outcome) {
        self.0.update(pc, outcome);
    }

    fn record_unconditional(&mut self, pc: u64) {
        self.0.record_unconditional(pc);
    }

    fn name(&self) -> String {
        self.0.name()
    }

    fn storage_bits(&self) -> u64 {
        self.0.storage_bits()
    }

    fn reset(&mut self) {
        self.0.reset();
    }
}

/// Simulate one concrete predictor, fused or behind [`Unfused`], timing
/// the run alone.
struct Race<'a> {
    columns: &'a TraceColumns,
    fused: bool,
}

impl Visit for Race<'_> {
    type Output = (RunResult, f64);

    fn visit<P: BranchPredictor + 'static>(self, predictor: P) -> (RunResult, f64) {
        let start = Instant::now();
        let result = if self.fused {
            let mut predictor = predictor;
            engine::simulate(
                &mut predictor,
                self.columns,
                Mode::Plain,
                NovelPolicy::Count,
            )
        } else {
            let mut predictor = Unfused(predictor);
            engine::simulate(
                &mut predictor,
                self.columns,
                Mode::Plain,
                NovelPolicy::Count,
            )
        };
        (result.result, start.elapsed().as_secs_f64())
    }
}

/// The timing of one [`BenchCase`] across all workloads.
#[derive(Debug, Clone)]
pub struct CaseMeasurement {
    /// Case name.
    pub name: &'static str,
    /// Number of predictor specs driven.
    pub specs: usize,
    /// Record applications per path (records × specs, summed over
    /// workloads).
    pub applications: u64,
    /// CPU seconds of the unfused (predict-then-update) runs, fastest
    /// round per spec, summed.
    pub unfused_seconds: f64,
    /// CPU seconds of the fused runs, fastest round per spec, summed.
    pub fused_seconds: f64,
    /// Whether every fused result matched the unfused result bit for bit.
    pub matched: bool,
}

impl CaseMeasurement {
    /// Unfused throughput in record applications per second.
    pub fn unfused_rate(&self) -> f64 {
        rate(self.applications, self.unfused_seconds)
    }

    /// Fused throughput in record applications per second.
    pub fn fused_rate(&self) -> f64 {
        rate(self.applications, self.fused_seconds)
    }

    /// Fused speedup over unfused (CPU-time ratio).
    pub fn speedup(&self) -> f64 {
        ratio(self.unfused_seconds, self.fused_seconds)
    }
}

fn rate(applications: u64, seconds: f64) -> f64 {
    if seconds == 0.0 {
        0.0
    } else {
        applications as f64 / seconds
    }
}

fn ratio(slow: f64, fast: f64) -> f64 {
    if fast == 0.0 {
        0.0
    } else {
        slow / fast
    }
}

/// The quick three-C sweep shape raced by [`run_aliasing`]: the fig-1/2
/// size axis at two history lengths, both indexed flavors.
pub fn default_aliasing_grid() -> Vec<ThreeCCell> {
    let mut cells = Vec::new();
    for h in [4u32, 12] {
        for n in 6..=13 {
            for func in [IndexFunction::Gshare, IndexFunction::Gselect] {
                cells.push(ThreeCCell {
                    entries_log2: n,
                    history_bits: h,
                    func,
                });
            }
        }
    }
    cells
}

/// The timing of one three-C grid across all workloads: per-config
/// classifier walks vs the batched single-pass engine.
#[derive(Debug, Clone)]
pub struct AliasingMeasurement {
    /// Grid cells classified.
    pub cells: usize,
    /// Record applications per path (records × cells, summed over
    /// workloads) — the work both paths account for, however many trace
    /// traversals they need to do it.
    pub applications: u64,
    /// CPU seconds spent in the per-configuration classifiers.
    pub dyn_seconds: f64,
    /// CPU seconds spent in the batched passes (summed across workers).
    pub batch_seconds: f64,
    /// Whether every batched cell matched the classifier bit for bit —
    /// raw counts and the derived breakdown.
    pub matched: bool,
}

impl AliasingMeasurement {
    /// Per-config-path throughput in record applications per second.
    pub fn dyn_rate(&self) -> f64 {
        rate(self.applications, self.dyn_seconds)
    }

    /// Batched-path throughput in record applications per second.
    pub fn batch_rate(&self) -> f64 {
        rate(self.applications, self.batch_seconds)
    }

    /// Batched speedup over the per-config path (CPU-time ratio).
    pub fn speedup(&self) -> f64 {
        if self.batch_seconds == 0.0 {
            0.0
        } else {
            self.dyn_seconds / self.batch_seconds
        }
    }

    /// The JSON fragment stored under `aliasing` in the bench report.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("cells", Json::Num(self.cells as f64)),
            ("applications", Json::Num(self.applications as f64)),
            ("dyn_seconds", Json::Num(self.dyn_seconds)),
            ("batch_seconds", Json::Num(self.batch_seconds)),
            ("dyn_rate", Json::Num(self.dyn_rate())),
            ("batch_rate", Json::Num(self.batch_rate())),
            ("speedup", Json::Num(self.speedup())),
            ("matched", Json::Bool(self.matched)),
        ])
    }
}

/// Race one three-C grid over the six IBS-like workloads: the
/// per-configuration [`ThreeCClassifier`] (one full trace walk per cell)
/// against the batched engine ([`kernel::run_three_c_units`]: one
/// direct-mapped kernel pass per cell plus one shared-distance pass per
/// distinct history). Both paths are timed as summed CPU seconds and
/// compared cell by cell — counts must be identical integer for integer,
/// and the derived breakdowns bit for bit.
pub fn run_aliasing(cells: &[ThreeCCell], quick: bool, threads: usize) -> AliasingMeasurement {
    let seed = workload_seed();
    let mut applications = 0u64;
    let mut dyn_seconds = 0.0;
    let mut batch_seconds = 0.0;
    let mut matched = true;
    for bench in IbsBenchmark::all() {
        let len = if quick {
            bench.default_len().min(QUICK_LEN_CAP)
        } else {
            bench.default_len()
        };
        let cols = cache::columns_seeded(bench, len, seed);
        // The classifier walks a record slice built outside the timed
        // region, so its time is the classification alone.
        let trace: Vec<BranchRecord> = cols.records().collect();
        applications += trace.len() as u64 * cells.len() as u64;

        let trace_ref = &trace;
        let timed_dyn: Vec<_> = parallel_map(cells.to_vec(), threads, move |cell| {
            let start = Instant::now();
            let counts = ThreeCClassifier::new(cell.entries_log2, cell.history_bits, cell.func)
                .run_counts(trace_ref.iter().copied());
            (counts, start.elapsed().as_secs_f64())
        });
        dyn_seconds += timed_dyn.iter().map(|(_, s)| s).sum::<f64>();

        let groups = batch::fa_groups(cells);
        let (dm_done, fa_done) = kernel::run_three_c_units(cells, &groups, &cols, threads);
        batch_seconds += dm_done.iter().map(|(_, ms)| ms).sum::<f64>() / 1e3
            + fa_done.iter().map(|(_, ms)| ms).sum::<f64>() / 1e3;
        let dm: Vec<_> = dm_done.into_iter().map(|(c, _)| c).collect();
        let fa: Vec<_> = fa_done.into_iter().map(|(c, _)| c).collect();
        let batched = batch::assemble(cells, &groups, &dm, &fa);
        for ((dyn_counts, _), batch_counts) in timed_dyn.iter().zip(&batched) {
            matched &=
                dyn_counts == batch_counts && dyn_counts.breakdown() == batch_counts.breakdown();
        }
    }
    AliasingMeasurement {
        cells: cells.len(),
        applications,
        dyn_seconds,
        batch_seconds,
        matched,
    }
}

/// A full `bpsim bench` measurement.
#[derive(Debug, Clone)]
pub struct BenchReport {
    /// Whether trace lengths were capped at [`QUICK_LEN_CAP`].
    pub quick: bool,
    /// The per-benchmark trace-length cap in effect.
    pub len_cap: Option<u64>,
    /// Per-case measurements.
    pub cases: Vec<CaseMeasurement>,
    /// The batched three-C race, when the bench ran it
    /// ([`run_aliasing`]); `None` in kernel-only runs.
    pub aliasing: Option<AliasingMeasurement>,
}

impl BenchReport {
    /// Total record applications across cases.
    pub fn applications(&self) -> u64 {
        self.cases.iter().map(|c| c.applications).sum()
    }

    /// Total unfused CPU seconds.
    pub fn unfused_seconds(&self) -> f64 {
        self.cases.iter().map(|c| c.unfused_seconds).sum()
    }

    /// Total fused CPU seconds.
    pub fn fused_seconds(&self) -> f64 {
        self.cases.iter().map(|c| c.fused_seconds).sum()
    }

    /// Overall fused speedup (total CPU-time ratio).
    pub fn speedup(&self) -> f64 {
        ratio(self.unfused_seconds(), self.fused_seconds())
    }

    /// The case with the lowest speedup, if any case ran.
    pub fn slowest_case(&self) -> Option<&CaseMeasurement> {
        self.cases
            .iter()
            .min_by(|a, b| a.speedup().total_cmp(&b.speedup()))
    }

    /// Whether every case's fused results matched the unfused results.
    pub fn all_matched(&self) -> bool {
        self.cases.iter().all(|c| c.matched)
    }

    /// The JSON document written to `BENCH_kernels.json`.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("version", Json::Num(2.0)),
            ("quick", Json::Bool(self.quick)),
            (
                "len_cap",
                match self.len_cap {
                    Some(cap) => Json::Num(cap as f64),
                    None => Json::Null,
                },
            ),
            (
                "cases",
                Json::Arr(
                    self.cases
                        .iter()
                        .map(|c| {
                            Json::obj(vec![
                                ("name", Json::Str(c.name.to_string())),
                                ("specs", Json::Num(c.specs as f64)),
                                ("applications", Json::Num(c.applications as f64)),
                                ("unfused_seconds", Json::Num(c.unfused_seconds)),
                                ("fused_seconds", Json::Num(c.fused_seconds)),
                                ("unfused_rate", Json::Num(c.unfused_rate())),
                                ("fused_rate", Json::Num(c.fused_rate())),
                                ("speedup", Json::Num(c.speedup())),
                                ("matched", Json::Bool(c.matched)),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "aliasing",
                match &self.aliasing {
                    Some(a) => a.to_json(),
                    None => Json::Null,
                },
            ),
            (
                "overall",
                Json::obj(vec![
                    ("applications", Json::Num(self.applications() as f64)),
                    ("unfused_seconds", Json::Num(self.unfused_seconds())),
                    ("fused_seconds", Json::Num(self.fused_seconds())),
                    ("speedup", Json::Num(self.speedup())),
                    (
                        "min_case_speedup",
                        Json::Num(self.slowest_case().map_or(0.0, CaseMeasurement::speedup)),
                    ),
                    ("matched", Json::Bool(self.all_matched())),
                ]),
            ),
        ])
    }
}

/// Race `cases` over the six IBS-like workloads, fused vs unfused,
/// [`RACE_ROUNDS`] times per spec.
///
/// `quick` caps every trace at [`QUICK_LEN_CAP`] conditional branches
/// (the quick-campaign lengths); `threads` bounds the workers — timing
/// is per-run CPU seconds either way, so the speedup does not depend on
/// it.
///
/// # Panics
///
/// Panics if a case holds an invalid spec — the case lists are
/// bench-owned, so that is a bug, not input.
pub fn run(cases: &[BenchCase], quick: bool, threads: usize) -> BenchReport {
    let seed = workload_seed();
    let mut measurements = Vec::with_capacity(cases.len());
    for case in cases {
        let specs: Vec<PredictorSpec> = case
            .specs
            .iter()
            .map(|s| {
                PredictorSpec::parse(s).unwrap_or_else(|e| panic!("bad bench spec `{s}`: {e}"))
            })
            .collect();
        let mut measurement = CaseMeasurement {
            name: case.name,
            specs: specs.len(),
            applications: 0,
            unfused_seconds: 0.0,
            fused_seconds: 0.0,
            matched: true,
        };
        for bench in IbsBenchmark::all() {
            let len = if quick {
                bench.default_len().min(QUICK_LEN_CAP)
            } else {
                bench.default_len()
            };
            let columns = cache::columns_seeded(bench, len, seed);
            measurement.applications += columns.len() as u64 * specs.len() as u64;
            let columns = &columns;
            // Each spec races both ways inside one task, alternating, so
            // the pair sees the same machine state; the fastest of
            // `RACE_ROUNDS` runs per side discounts interference from
            // other processes.
            let raced = parallel_map(specs.clone(), threads, move |spec| {
                let run = |fused| {
                    spec.concrete()
                        .unwrap_or_else(|e| panic!("bad bench spec `{spec:?}`: {e}"))
                        .visit(Race { columns, fused })
                };
                let (mut unfused_s, mut fused_s) = (f64::MAX, f64::MAX);
                let mut matched = true;
                for _ in 0..RACE_ROUNDS {
                    let (unfused, u) = run(false);
                    let (fused, f) = run(true);
                    matched &= fused == unfused;
                    unfused_s = unfused_s.min(u);
                    fused_s = fused_s.min(f);
                }
                (matched, unfused_s, fused_s)
            });
            for (matched, unfused_s, fused_s) in raced {
                measurement.unfused_seconds += unfused_s;
                measurement.fused_seconds += fused_s;
                measurement.matched &= matched;
            }
        }
        measurements.push(measurement);
    }
    BenchReport {
        quick,
        len_cap: quick.then_some(QUICK_LEN_CAP),
        cases: measurements,
        aliasing: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_bench_runs_and_serializes() {
        let cases = vec![BenchCase {
            name: "tiny",
            specs: vec!["gshare:n=8,h=4".into(), "gskew:n=8,h=4".into()],
        }];
        let report = run(&cases, true, 2);
        assert_eq!(report.cases.len(), 1);
        let case = &report.cases[0];
        assert!(case.matched, "fused step diverged from predict-then-update");
        assert!(case.applications > 0);
        assert!(case.unfused_seconds > 0.0);
        assert!(case.fused_seconds > 0.0);
        let doc = report.to_json();
        let text = doc.to_string_compact();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed.get("quick").unwrap(), &Json::Bool(true));
        let overall = parsed.get("overall").unwrap();
        assert_eq!(overall.get("matched").unwrap(), &Json::Bool(true));
        assert!(overall.get("speedup").unwrap().as_f64().unwrap() > 0.0);
        assert!(overall.get("min_case_speedup").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn unfused_runs_the_default_step() {
        // A predictor whose override disagrees with its predict/update
        // pair: through `Unfused` the default step must run instead.
        struct Odd(u64);
        impl BranchPredictor for Odd {
            fn predict(&mut self, _pc: u64) -> Prediction {
                Prediction::of(Outcome::Taken)
            }
            fn update(&mut self, _pc: u64, _outcome: Outcome) {
                self.0 += 1;
            }
            fn step(&mut self, _pc: u64, _outcome: Outcome) -> Prediction {
                Prediction::of(Outcome::NotTaken)
            }
            fn name(&self) -> String {
                "odd".into()
            }
            fn storage_bits(&self) -> u64 {
                0
            }
            fn reset(&mut self) {}
        }
        let mut unfused = Unfused(Odd(0));
        assert_eq!(
            unfused.step(0x40, Outcome::NotTaken).outcome,
            Outcome::Taken
        );
        assert_eq!(unfused.0 .0, 1);
    }

    #[test]
    fn tiny_aliasing_race_matches_and_serializes() {
        // A two-cell grid keeps the per-config path affordable in a unit
        // test while still exercising the shared-distance FA pass (both
        // cells share one history).
        let cells = vec![
            ThreeCCell {
                entries_log2: 8,
                history_bits: 4,
                func: IndexFunction::Gshare,
            },
            ThreeCCell {
                entries_log2: 8,
                history_bits: 4,
                func: IndexFunction::Gselect,
            },
        ];
        let a = run_aliasing(&cells, true, 2);
        assert!(a.matched, "batched three-C diverged from the classifier");
        assert_eq!(a.cells, 2);
        assert!(a.applications > 0);
        assert!(a.dyn_seconds > 0.0);
        assert!(a.batch_seconds > 0.0);
        let mut report = run(&[], true, 1);
        report.aliasing = Some(a);
        let parsed = Json::parse(&report.to_json().to_string_compact()).unwrap();
        let aliasing = parsed.get("aliasing").unwrap();
        assert_eq!(aliasing.get("matched").unwrap(), &Json::Bool(true));
        assert!(aliasing.get("speedup").unwrap().as_f64().unwrap() > 0.0);
    }

    #[test]
    fn default_aliasing_grid_is_the_quick_sweep_shape() {
        let grid = default_aliasing_grid();
        assert_eq!(grid.len(), 2 * 8 * 2, "2 histories × 8 sizes × 2 fns");
        assert!(grid.iter().all(|c| (6..=13).contains(&c.entries_log2)));
        // Exactly two distinct FA groups: one shared-distance pass per
        // history, regardless of index function.
        assert_eq!(batch::fa_groups(&grid).len(), 2);
    }

    #[test]
    fn default_cases_cover_every_fused_family() {
        let specs: Vec<PredictorSpec> = default_cases()
            .iter()
            .flat_map(|c| c.specs.iter().map(|s| PredictorSpec::parse(s).unwrap()))
            .collect();
        let has = |pred: fn(&PredictorSpec) -> bool| specs.iter().any(pred);
        assert!(has(|s| matches!(s, PredictorSpec::Bimodal { .. })));
        assert!(has(|s| matches!(s, PredictorSpec::Gshare { .. })));
        assert!(has(|s| matches!(s, PredictorSpec::Gselect { .. })));
        assert!(has(|s| matches!(s, PredictorSpec::Gskew { .. })));
        assert!(has(|s| matches!(s, PredictorSpec::Agree { .. })));
        assert!(has(|s| matches!(s, PredictorSpec::BiMode { .. })));
        assert!(has(|s| matches!(s, PredictorSpec::Pas { .. })));
        assert!(has(|s| matches!(s, PredictorSpec::Spas { .. })));
        assert!(has(|s| matches!(s, PredictorSpec::Ideal { .. })));
        assert!(has(|s| matches!(s, PredictorSpec::Falru { .. })));
        assert!(has(|s| matches!(s, PredictorSpec::SetAssoc { .. })));
        assert!(has(|s| matches!(s, PredictorSpec::McFarling { .. })));
        assert!(has(|s| matches!(s, PredictorSpec::Shgskew { .. })));
        assert!(has(|s| matches!(s, PredictorSpec::TwoBcGskew { .. })));
    }
}
