//! The trace-driven simulation engine: one generic loop, [`simulate`],
//! drives any predictor over a trace's column view and accounts
//! mispredictions.
//!
//! Every conditional branch goes through [`BranchPredictor::step`], the
//! fused predict-and-train call each predictor family implements once in
//! `bpred-core`; unconditional branches go through
//! [`BranchPredictor::record_unconditional`], so they shift global
//! histories exactly as in the paper. [`simulate`] is generic over the
//! predictor type: over a concrete type (a [`Concrete`] variant, chosen
//! once per spec by [`simulate_spec`]) the whole step inlines into the
//! loop; over `Box<dyn BranchPredictor>` it costs one virtual call per
//! record. The entry points below are thin wrappers over it.
//!
//! [`Concrete`]: bpred_core::spec::Concrete

use crate::timing;
use bpred_core::error::ConfigError;
use bpred_core::predictor::{BranchPredictor, Outcome, Prediction};
use bpred_core::spec::{PredictorSpec, Visit};
use bpred_trace::record::BranchRecord;
use bpred_trace::soa::TraceColumns;
use std::any::TypeId;
use std::time::Instant;

/// How predictions flagged *novel* (first encounter of a substream, only
/// produced by the ideal and tagged predictors) are accounted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NovelPolicy {
    /// Count the prediction like any other (figure 8's fully-associative
    /// table: its always-taken miss fallback is charged normally).
    #[default]
    Count,
    /// Exclude the reference from the misprediction accounting (Table 2's
    /// unaliased predictor: first encounters are not mispredictions).
    Exclude,
}

/// Misprediction accounting for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RunResult {
    /// Dynamic conditional branches predicted.
    pub conditional: u64,
    /// Mispredicted conditional branches (after the novel policy).
    pub mispredicted: u64,
    /// References whose prediction was flagged novel.
    pub novel: u64,
}

impl RunResult {
    /// Misprediction percentage over all conditional branches.
    pub fn mispredict_pct(&self) -> f64 {
        if self.conditional == 0 {
            0.0
        } else {
            100.0 * self.mispredicted as f64 / self.conditional as f64
        }
    }

    /// Misprediction ratio in `[0, 1]`.
    pub fn mispredict_ratio(&self) -> f64 {
        self.mispredict_pct() / 100.0
    }

    /// Account one prediction against the actual outcome; returns whether
    /// it counts as a misprediction under the policy.
    #[inline(always)]
    fn account(&mut self, prediction: Prediction, outcome: Outcome, exclude_novel: bool) -> bool {
        self.conditional += 1;
        self.novel += u64::from(prediction.novel);
        let wrong = prediction.outcome != outcome && !(prediction.novel && exclude_novel);
        self.mispredicted += u64::from(wrong);
        wrong
    }
}

/// How [`simulate`] walks the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Account every conditional branch.
    #[default]
    Plain,
    /// Exclude the first `n` conditional branches from the accounting
    /// (the predictor still trains on them). The paper measures whole
    /// traces with no warmup — cold-start effects are part of its
    /// aliasing story — so the experiments use [`Mode::Plain`]; this
    /// exists for steady-state studies.
    Warm(u64),
    /// Retirement-time training: every prediction is made with tables
    /// and history that lag the youngest `d` records (they are still in
    /// flight), and records train the predictor in order, `d` behind the
    /// prediction point. This is the pessimistic no-speculative-history
    /// design point; its gap against delay 0 (which equals
    /// [`Mode::Plain`]) motivates speculative history update — see the
    /// `ext-delay` experiment.
    Delayed(usize),
    /// Plain accounting, plus the misprediction percentage of each
    /// consecutive window of `k` conditional branches — the phase-level
    /// view (context switches, working-set shifts and cold starts show up
    /// as spikes). The final partial window is included when it holds at
    /// least one branch. Under [`NovelPolicy::Exclude`] novel references
    /// stay in their window's denominator but are never charged, so the
    /// mean of equal-sized windows reproduces the total percentage.
    Windowed(u64),
}

/// What one [`simulate`] run produced.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Simulation {
    /// The misprediction accounting.
    pub result: RunResult,
    /// Per-window misprediction percentages ([`Mode::Windowed`] only;
    /// empty otherwise).
    pub windows: Vec<f64>,
}

/// Drive `predictor` over `columns` under `mode`, accounting novel
/// predictions per `policy` — the simulation engine.
///
/// The time spent is credited to [`crate::timing`]: to the dyn counters
/// when `P` is `dyn BranchPredictor` or `Box<dyn BranchPredictor>`, to
/// the kernel counters for every concrete predictor type.
///
/// # Panics
///
/// Panics on [`Mode::Windowed`] with a zero window.
pub fn simulate<P: BranchPredictor + ?Sized + 'static>(
    predictor: &mut P,
    columns: &TraceColumns,
    mode: Mode,
    policy: NovelPolicy,
) -> Simulation {
    let start = Instant::now();
    let exclude = policy == NovelPolicy::Exclude;
    let simulation = match mode {
        // Plain passes a literal 0 so its copy of the loop compiles
        // without the warmup test.
        Mode::Plain => Simulation {
            result: walk(predictor, columns, exclude, 0, |_| {}),
            windows: Vec::new(),
        },
        Mode::Warm(warmup) => Simulation {
            result: walk(predictor, columns, exclude, warmup, |_| {}),
            windows: Vec::new(),
        },
        Mode::Delayed(delay) => Simulation {
            result: delayed(predictor, columns, exclude, delay),
            windows: Vec::new(),
        },
        Mode::Windowed(window) => windowed(predictor, columns, exclude, window),
    };
    let applications = columns.len() as u64;
    let id = TypeId::of::<P>();
    if id == TypeId::of::<dyn BranchPredictor>() || id == TypeId::of::<Box<dyn BranchPredictor>>() {
        timing::record_dyn(applications, start.elapsed());
    } else {
        timing::record_kernel(applications, start.elapsed());
    }
    simulation
}

/// The fused walk: one [`BranchPredictor::step`] per conditional record,
/// accounting from the `warmup + 1`-th conditional on; `on_branch` sees
/// whether each accounted branch was charged.
#[inline(always)]
fn walk<P: BranchPredictor + ?Sized>(
    predictor: &mut P,
    columns: &TraceColumns,
    exclude: bool,
    warmup: u64,
    mut on_branch: impl FnMut(bool),
) -> RunResult {
    let mut result = RunResult::default();
    let mut skipped = 0u64;
    for (pcs, conditional, taken) in columns.blocks() {
        for (j, &pc) in pcs.iter().enumerate() {
            if (conditional >> j) & 1 == 1 {
                let outcome = Outcome::from((taken >> j) & 1 == 1);
                let prediction = predictor.step(pc, outcome);
                if skipped >= warmup {
                    on_branch(result.account(prediction, outcome, exclude));
                } else {
                    skipped += 1;
                }
            } else {
                predictor.record_unconditional(pc);
            }
        }
    }
    result
}

fn windowed<P: BranchPredictor + ?Sized>(
    predictor: &mut P,
    columns: &TraceColumns,
    exclude: bool,
    window: u64,
) -> Simulation {
    assert!(window > 0, "window must be nonzero");
    let mut windows = Vec::new();
    let (mut in_window, mut wrong) = (0u64, 0u64);
    let result = walk(predictor, columns, exclude, 0, |charged| {
        in_window += 1;
        wrong += u64::from(charged);
        if in_window == window {
            windows.push(100.0 * wrong as f64 / window as f64);
            (in_window, wrong) = (0, 0);
        }
    });
    if in_window > 0 {
        windows.push(100.0 * wrong as f64 / in_window as f64);
    }
    Simulation { result, windows }
}

fn delayed<P: BranchPredictor + ?Sized>(
    predictor: &mut P,
    columns: &TraceColumns,
    exclude: bool,
    delay: usize,
) -> RunResult {
    let retire = |predictor: &mut P, i: usize| match columns.cond_taken(i) {
        (true, taken) => predictor.update(columns.pc(i), Outcome::from(taken)),
        (false, _) => predictor.record_unconditional(columns.pc(i)),
    };
    let mut result = RunResult::default();
    for (i, &pc) in columns.pcs().iter().enumerate() {
        if let (true, taken) = columns.cond_taken(i) {
            let prediction = predictor.predict(pc);
            result.account(prediction, Outcome::from(taken), exclude);
        }
        if i >= delay {
            retire(predictor, i - delay);
        }
    }
    // Drain the pipeline (no more predictions to account).
    for i in columns.len().saturating_sub(delay)..columns.len() {
        retire(predictor, i);
    }
    result
}

/// Build the predictor `spec` describes as its concrete type
/// ([`PredictorSpec::concrete`]) and [`simulate`] it: the type is chosen
/// once here, so the per-record loop is compiled for it alone.
///
/// # Errors
///
/// Returns [`ConfigError`] when a parameter is out of its legal range.
pub fn simulate_spec(
    spec: &PredictorSpec,
    columns: &TraceColumns,
    mode: Mode,
    policy: NovelPolicy,
) -> Result<Simulation, ConfigError> {
    struct Drive<'a> {
        columns: &'a TraceColumns,
        mode: Mode,
        policy: NovelPolicy,
    }
    impl Visit for Drive<'_> {
        type Output = Simulation;
        fn visit<P: BranchPredictor + 'static>(self, mut predictor: P) -> Simulation {
            simulate(&mut predictor, self.columns, self.mode, self.policy)
        }
    }
    Ok(spec.concrete()?.visit(Drive {
        columns,
        mode,
        policy,
    }))
}

/// Run `predictor` over `records` with the default accounting
/// ([`NovelPolicy::Count`]).
pub fn run(
    predictor: &mut (dyn BranchPredictor + 'static),
    records: impl Iterator<Item = BranchRecord>,
) -> RunResult {
    run_with(predictor, records, NovelPolicy::Count)
}

/// Run `predictor` over `records` with an explicit novel-reference
/// policy: the records are collected into columns and [`simulate`]d.
pub fn run_with(
    predictor: &mut (dyn BranchPredictor + 'static),
    records: impl Iterator<Item = BranchRecord>,
    novel_policy: NovelPolicy,
) -> RunResult {
    simulate(predictor, &records.collect(), Mode::Plain, novel_policy).result
}

/// Drive every predictor in `predictors` over one materialized trace,
/// under one novel-reference policy. The result for predictor `i` is
/// exactly [`run_with`]`(predictors[i], records.iter().copied(),
/// novel_policy)`: the predictors share the trace's column view, not any
/// state.
pub fn run_many(
    predictors: &mut [Box<dyn BranchPredictor>],
    records: &[BranchRecord],
    novel_policy: NovelPolicy,
) -> Vec<RunResult> {
    let columns = TraceColumns::from_records(records);
    predictors
        .iter_mut()
        .map(|predictor| simulate(predictor, &columns, Mode::Plain, novel_policy).result)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_core::prelude::*;
    use bpred_trace::prelude::*;

    /// [`simulate`] over an iterator of records.
    fn sim(
        predictor: &mut (dyn BranchPredictor + 'static),
        records: impl Iterator<Item = BranchRecord>,
        mode: Mode,
        policy: NovelPolicy,
    ) -> Simulation {
        simulate(predictor, &records.collect(), mode, policy)
    }

    #[test]
    fn always_taken_scores_the_taken_ratio() {
        let records = vec![
            BranchRecord::conditional(0x100, true),
            BranchRecord::conditional(0x104, false),
            BranchRecord::conditional(0x108, false),
            BranchRecord::unconditional(0x10c),
        ];
        let mut p = AlwaysTaken::new();
        let r = run(&mut p, records.into_iter());
        assert_eq!(r.conditional, 3);
        assert_eq!(r.mispredicted, 2);
        assert!((r.mispredict_pct() - 200.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn novel_exclusion_matches_paper_accounting() {
        // One branch, h=0: the first reference is novel; with Exclude it
        // must not be charged.
        let records = [
            BranchRecord::conditional(0x100, true),
            BranchRecord::conditional(0x100, true),
        ];
        let mut ideal = Ideal::new(0, CounterKind::TwoBit).unwrap();
        let r = run_with(&mut ideal, records.iter().copied(), NovelPolicy::Exclude);
        assert_eq!(r.novel, 1);
        assert_eq!(r.mispredicted, 0);

        let mut ideal = Ideal::new(0, CounterKind::TwoBit).unwrap();
        let r = run_with(&mut ideal, records.iter().copied(), NovelPolicy::Count);
        // Counted: the novel prediction (not-taken default) is wrong.
        assert_eq!(r.mispredicted, 1);
    }

    #[test]
    fn gshare_learns_the_workload_better_than_static() {
        let len = 40_000;
        let spec = IbsBenchmark::Nroff.spec();
        let mut gshare = Gshare::new(12, 4, CounterKind::TwoBit).unwrap();
        let g = run(&mut gshare, spec.build().take_conditionals(len));
        let mut taken = AlwaysTaken::new();
        let t = run(&mut taken, spec.build().take_conditionals(len));
        assert!(
            g.mispredict_pct() < t.mispredict_pct(),
            "gshare {} >= always-taken {}",
            g.mispredict_pct(),
            t.mispredict_pct()
        );
    }

    #[test]
    fn windowed_rates_average_to_the_total() {
        let spec = IbsBenchmark::Groff.spec();
        let len = 40_000u64;
        let window = 4_000u64;
        let mut p = Gshare::new(10, 6, CounterKind::TwoBit).unwrap();
        let windows = sim(
            &mut p,
            spec.build().take_conditionals(len),
            Mode::Windowed(window),
            NovelPolicy::Count,
        )
        .windows;
        assert_eq!(windows.len(), (len / window) as usize);
        let mut q = Gshare::new(10, 6, CounterKind::TwoBit).unwrap();
        let total = run(&mut q, spec.build().take_conditionals(len));
        let mean = windows.iter().sum::<f64>() / windows.len() as f64;
        assert!(
            (mean - total.mispredict_pct()).abs() < 1e-9,
            "windowed mean {mean} vs total {}",
            total.mispredict_pct()
        );
    }

    #[test]
    fn windowed_cold_start_is_visible() {
        let spec = IbsBenchmark::Gs.spec();
        let mut p = Gshare::new(12, 8, CounterKind::TwoBit).unwrap();
        let windows = sim(
            &mut p,
            spec.build().take_conditionals(100_000),
            Mode::Windowed(10_000),
            NovelPolicy::Count,
        )
        .windows;
        assert!(
            windows[0] > *windows.last().unwrap(),
            "first (cold) window {} should exceed the last {}",
            windows[0],
            windows.last().unwrap()
        );
    }

    #[test]
    fn windowed_matches_total_under_both_policies() {
        // The windowed view is the same accounting as `run_with`, sliced:
        // with equal-sized windows the mean window rate must reproduce the
        // total percentage under Count AND Exclude. The ideal predictor
        // flags first encounters novel, so Exclude actually diverges from
        // Count here and both paths are exercised.
        let len = 20_000u64;
        let window = 2_000u64;
        for policy in [NovelPolicy::Count, NovelPolicy::Exclude] {
            let mut windowed = Ideal::new(6, CounterKind::TwoBit).unwrap();
            let windows = sim(
                &mut windowed,
                IbsBenchmark::Nroff.spec().build().take_conditionals(len),
                Mode::Windowed(window),
                policy,
            )
            .windows;
            assert_eq!(windows.len(), (len / window) as usize);
            let mut total = Ideal::new(6, CounterKind::TwoBit).unwrap();
            let r = run_with(
                &mut total,
                IbsBenchmark::Nroff.spec().build().take_conditionals(len),
                policy,
            );
            let mean = windows.iter().sum::<f64>() / windows.len() as f64;
            assert!(
                (mean - r.mispredict_pct()).abs() < 1e-9,
                "{policy:?}: windowed mean {mean} vs total {}",
                r.mispredict_pct()
            );
        }
        // Sanity: the two policies disagree on this workload (novel
        // references exist), so the loop above covered distinct paths.
        let mut a = Ideal::new(6, CounterKind::TwoBit).unwrap();
        let count = run_with(
            &mut a,
            IbsBenchmark::Nroff.spec().build().take_conditionals(len),
            NovelPolicy::Count,
        );
        let mut b = Ideal::new(6, CounterKind::TwoBit).unwrap();
        let exclude = run_with(
            &mut b,
            IbsBenchmark::Nroff.spec().build().take_conditionals(len),
            NovelPolicy::Exclude,
        );
        assert!(exclude.mispredicted < count.mispredicted);
    }

    #[test]
    fn partial_final_window_counts() {
        let mut p = AlwaysTaken::new();
        let records = vec![
            BranchRecord::conditional(0x100, true),
            BranchRecord::conditional(0x104, false),
            BranchRecord::conditional(0x108, false),
        ];
        let windows = sim(
            &mut p,
            records.into_iter(),
            Mode::Windowed(2),
            NovelPolicy::Count,
        )
        .windows;
        assert_eq!(windows.len(), 2);
        assert!((windows[0] - 50.0).abs() < 1e-12);
        assert!((windows[1] - 100.0).abs() < 1e-12);
    }

    #[test]
    fn zero_delay_equals_plain_run() {
        let spec = IbsBenchmark::MpegPlay.spec();
        let mut a = Gshare::new(10, 6, CounterKind::TwoBit).unwrap();
        let plain = run(&mut a, spec.build().take_conditionals(20_000));
        let mut b = Gshare::new(10, 6, CounterKind::TwoBit).unwrap();
        let delayed = sim(
            &mut b,
            spec.build().take_conditionals(20_000),
            Mode::Delayed(0),
            NovelPolicy::Count,
        )
        .result;
        assert_eq!(plain, delayed);
    }

    #[test]
    fn delay_hurts_history_predictors_more_than_bimodal() {
        let spec = IbsBenchmark::Groff.spec();
        let len = 60_000;
        let measure = |spec_str: &str, delay: usize| {
            let mut p = bpred_core::spec::parse_spec(spec_str).unwrap();
            sim(
                &mut p,
                spec.build().take_conditionals(len),
                Mode::Delayed(delay),
                NovelPolicy::Count,
            )
            .result
            .mispredict_pct()
        };
        let gshare_penalty = measure("gshare:n=12,h=8", 16) - measure("gshare:n=12,h=8", 0);
        let bimodal_penalty = measure("bimodal:n=12", 16) - measure("bimodal:n=12", 0);
        assert!(gshare_penalty > 0.2, "gshare penalty {gshare_penalty}");
        assert!(
            bimodal_penalty < gshare_penalty,
            "bimodal {bimodal_penalty} should suffer less than gshare {gshare_penalty}"
        );
    }

    #[test]
    fn empty_stream_is_zero() {
        let mut p = AlwaysTaken::new();
        let r = run(&mut p, std::iter::empty());
        assert_eq!(r, RunResult::default());
        assert_eq!(r.mispredict_pct(), 0.0);
    }

    #[test]
    fn warmup_excludes_cold_start() {
        let spec = IbsBenchmark::Verilog.spec();
        let mut cold = Gshare::new(10, 4, CounterKind::TwoBit).unwrap();
        let full = run(&mut cold, spec.build().take_conditionals(30_000));
        let mut warm = Gshare::new(10, 4, CounterKind::TwoBit).unwrap();
        let warmed = sim(
            &mut warm,
            spec.build().take_conditionals(30_000),
            Mode::Warm(10_000),
            NovelPolicy::Count,
        )
        .result;
        assert_eq!(warmed.conditional, 20_000);
        assert!(
            warmed.mispredict_pct() < full.mispredict_pct(),
            "steady state {warmed:?} should beat whole-trace {full:?}"
        );
    }

    #[test]
    fn warmup_longer_than_trace_counts_nothing() {
        let mut p = AlwaysTaken::new();
        let r = sim(
            &mut p,
            IbsBenchmark::Verilog.spec().build().take_conditionals(100),
            Mode::Warm(1_000),
            NovelPolicy::Count,
        )
        .result;
        assert_eq!(r, RunResult::default());
    }

    #[test]
    fn deterministic_across_runs() {
        let spec = IbsBenchmark::Groff.spec();
        let mut a = Gskew::standard(8, 4).unwrap();
        let ra = run(&mut a, spec.build().take_conditionals(20_000));
        let mut b = Gskew::standard(8, 4).unwrap();
        let rb = run(&mut b, spec.build().take_conditionals(20_000));
        assert_eq!(ra, rb);
    }
}
