//! Differential tests of the one simulation path: for every predictor
//! spec variant, [`engine::simulate`] over the concrete predictor type
//! equals a plain predict-then-update reference loop over the records —
//! on the full `RunResult` (`novel` included), under both novel-branch
//! policies and in every mode. The reference loops live here, in test
//! code, and call only `predict`, `update` and `record_unconditional`,
//! never the fused `step`.

use bpred_core::predictor::{BranchPredictor, Outcome, Prediction};
use bpred_core::spec::{parse_spec, PredictorSpec};
use bpred_sim::engine::{self, Mode, NovelPolicy, RunResult, Simulation};
use bpred_trace::cache;
use bpred_trace::record::{BranchKind, BranchRecord};
use bpred_trace::soa::TraceColumns;
use bpred_trace::workload::IbsBenchmark;
use proptest::prop_assert_eq;
use std::collections::VecDeque;

/// The reference engine: predict, account, update — one record at a time.
fn reference(
    predictor: &mut dyn BranchPredictor,
    records: &[BranchRecord],
    mode: Mode,
    policy: NovelPolicy,
) -> Simulation {
    let mut result = RunResult::default();
    let mut windows = Vec::new();
    let (mut in_window, mut wrong_in_window) = (0u64, 0u64);
    let mut seen = 0u64;
    let warmup = match mode {
        Mode::Warm(n) => n,
        _ => 0,
    };
    let delay = match mode {
        Mode::Delayed(d) => d,
        _ => 0,
    };
    let mut in_flight: VecDeque<BranchRecord> = VecDeque::new();
    let retire = |predictor: &mut dyn BranchPredictor, r: BranchRecord| {
        if r.kind == BranchKind::Conditional {
            predictor.update(r.pc, Outcome::from(r.taken));
        } else {
            predictor.record_unconditional(r.pc);
        }
    };
    for &record in records {
        if record.kind == BranchKind::Conditional {
            let prediction: Prediction = predictor.predict(record.pc);
            let outcome = Outcome::from(record.taken);
            seen += 1;
            if seen > warmup {
                result.conditional += 1;
                result.novel += u64::from(prediction.novel);
                let counted = !(prediction.novel && policy == NovelPolicy::Exclude);
                let wrong = counted && prediction.outcome != outcome;
                result.mispredicted += u64::from(wrong);
                if let Mode::Windowed(window) = mode {
                    in_window += 1;
                    wrong_in_window += u64::from(wrong);
                    if in_window == window {
                        windows.push(100.0 * wrong_in_window as f64 / window as f64);
                        (in_window, wrong_in_window) = (0, 0);
                    }
                }
            }
        }
        in_flight.push_back(record);
        if in_flight.len() > delay {
            retire(predictor, in_flight.pop_front().expect("nonempty queue"));
        }
    }
    while let Some(record) = in_flight.pop_front() {
        retire(predictor, record);
    }
    if in_window > 0 {
        windows.push(100.0 * wrong_in_window as f64 / in_window as f64);
    }
    Simulation { result, windows }
}

/// A random valid spec of one of the 16 families, with every shape knob
/// the families expose drawn from `knobs`.
fn spec_from(family: u8, n: u32, h: u32, knobs: u32) -> String {
    let bit = |i: u32| (knobs >> i) & 1 == 1;
    let ctr = 1 + knobs % 3; // 1-, 2- and 3-bit counters
    let update = if bit(2) { "total" } else { "partial" };
    let miss = if bit(3) { "nottaken" } else { "taken" };
    let n2 = n.max(2);
    match family % 16 {
        0 => format!("bimodal:n={n},ctr={ctr}"),
        1 => format!("gshare:n={n},h={h},ctr={ctr}"),
        2 => format!("gselect:n={n},h={h},ctr={ctr}"),
        3 => {
            let name = if bit(4) { "egskew" } else { "gskew" };
            let banks = if bit(5) { 5 } else { 3 };
            let skew = if bit(6) { "off" } else { "on" };
            format!("{name}:n={n2},h={h},banks={banks},ctr={ctr},update={update},skew={skew}")
        }
        4 => format!("agree:n={n},h={h},bias={},ctr={ctr}", 1 + knobs % 10),
        5 => format!("bimode:n={n},h={h},choice={},ctr={ctr}", 1 + knobs % 10),
        6 => format!("pas:bht={},l={},n={n},ctr={ctr}", 1 + knobs % 8, 1 + h % 12),
        7 => format!(
            "spas:bht={},l={},n={n2},ctr={ctr},update={update}",
            1 + knobs % 8,
            1 + h % 12
        ),
        8 => format!("ideal:h={h},ctr={ctr}"),
        9 => format!("falru:cap={},h={h},ctr={ctr},miss={miss}", 1 + knobs % 300),
        10 => format!(
            "setassoc:n={},ways={},h={h},ctr={ctr},miss={miss}",
            1 + n % 8,
            1 + knobs % 6
        ),
        11 => format!("mcfarling:n={n},h={h},ctr={ctr}"),
        12 => format!("shgskew:n={n2},h={h},update={update}"),
        13 => format!("2bcgskew:n={n2},h={h}"),
        14 => "always-taken".to_string(),
        _ => "always-nottaken".to_string(),
    }
}

fn bench_from(i: u8) -> IbsBenchmark {
    let all = IbsBenchmark::all();
    all[i as usize % all.len()]
}

fn mode_from(i: u8, param: u64) -> Mode {
    match i % 4 {
        0 => Mode::Plain,
        1 => Mode::Warm(param),
        2 => Mode::Delayed(param as usize % 40),
        _ => Mode::Windowed(1 + param),
    }
}

/// Simulate `spec` the engine's way and the reference way.
fn both(
    spec: &str,
    records: &[BranchRecord],
    mode: Mode,
    policy: NovelPolicy,
) -> (Simulation, Simulation) {
    let columns = TraceColumns::from_records(records);
    let parsed = PredictorSpec::parse(spec).expect("generated specs parse");
    let fused =
        engine::simulate_spec(&parsed, &columns, mode, policy).expect("generated specs build");
    let mut predictor = parse_spec(spec).expect("generated specs build");
    (fused, reference(&mut *predictor, records, mode, policy))
}

proptest::proptest! {
    #[test]
    fn simulate_matches_predict_update_on_random_specs(
        family in proptest::any::<u8>(),
        n in 1u32..=12,
        h in 0u32..=18,
        knobs in proptest::any::<u32>(),
        bench_i in proptest::any::<u8>(),
        len in 200u64..1_500,
        seed in proptest::any::<u64>(),
        mode_i in proptest::any::<u8>(),
        mode_param in 0u64..700,
        exclude in proptest::any::<bool>(),
    ) {
        let spec = spec_from(family, n, h, knobs);
        let records = cache::materialize_seeded(bench_from(bench_i), len, seed);
        let mode = mode_from(mode_i, mode_param);
        let policy = if exclude { NovelPolicy::Exclude } else { NovelPolicy::Count };
        let (fused, reference) = both(&spec, &records, mode, policy);
        prop_assert_eq!(
            fused, reference,
            "{} under {:?}/{:?} on len {} seed {:#x}",
            &spec, mode, policy, len, seed
        );
    }

    #[test]
    fn run_specs_matches_run_many(
        n in 2u32..=10,
        h in 0u32..=10,
        bench_i in proptest::any::<u8>(),
        len in 200u64..1_000,
        seed in proptest::any::<u64>(),
    ) {
        let records = cache::materialize_seeded(bench_from(bench_i), len, seed);
        let columns = TraceColumns::from_records(&records);
        let specs = vec![
            format!("gskew:n={n},h={h}"),
            format!("mcfarling:n={n},h={h}"),
            format!("falru:cap={},h={h}", 1 << n),
            format!("gshare:n={n},h={h}"),
        ];
        let routed = bpred_sim::kernel::run_specs(&specs, &records, &columns, NovelPolicy::Count, 2)
            .unwrap();
        let mut predictors: Vec<_> = specs.iter().map(|s| parse_spec(s).unwrap()).collect();
        let reference = engine::run_many(&mut predictors, &records, NovelPolicy::Count);
        prop_assert_eq!(routed, reference);
    }
}

/// Every variant and shape knob, on a full quick-length trace, under both
/// policies and every mode: the deterministic counterpart of the
/// proptest above.
#[test]
fn every_variant_matches_in_every_mode() {
    let specs = [
        "bimodal:n=10,ctr=1",
        "bimodal:n=10",
        "gshare:n=10,h=6,ctr=3",
        "gselect:n=10,h=12",
        "gskew:n=9,h=6",
        "gskew:n=9,h=6,ctr=1,update=total",
        "gskew:n=9,h=6,ctr=3",
        "gskew:n=9,h=6,banks=5",
        "gskew:n=9,h=6,skew=off",
        "gskew:n=9,h=6,banks=5,skew=off,update=total",
        "egskew:n=9,h=10",
        "egskew:n=9,h=10,banks=5",
        "egskew:n=9,h=10,skew=off",
        "egskew:n=9,h=10,banks=5,skew=off",
        "agree:n=11,h=8,bias=10",
        "bimode:n=10,h=8,choice=10",
        "pas:bht=8,l=6,n=10",
        "spas:bht=8,l=6,n=9,update=total",
        "ideal:h=8",
        "ideal:h=4,ctr=1",
        "falru:cap=512,h=4",
        "falru:cap=512,h=4,miss=nottaken",
        "setassoc:n=6,ways=4,h=4",
        "setassoc:n=6,ways=2,h=4,miss=nottaken",
        "mcfarling:n=10,h=8",
        "shgskew:n=9,h=6",
        "shgskew:n=9,h=6,update=total",
        "2bcgskew:n=9,h=10",
        "always-taken",
        "always-nottaken",
    ];
    let records: Vec<_> = cache::columns(IbsBenchmark::Gs, 12_000).records().collect();
    for spec in specs {
        for policy in [NovelPolicy::Count, NovelPolicy::Exclude] {
            for mode in [
                Mode::Plain,
                Mode::Warm(3_000),
                Mode::Delayed(7),
                Mode::Windowed(1_000),
            ] {
                let (fused, reference) = both(spec, &records, mode, policy);
                assert_eq!(fused, reference, "{spec} under {mode:?}/{policy:?}");
            }
        }
    }
}

/// `Box<dyn BranchPredictor>` must forward `step` to the boxed type's
/// override, not fall back to the trait's predict-then-update default.
#[test]
fn boxed_predictors_run_the_step_override() {
    /// `step` disagrees with `predict` on purpose, so the two are told
    /// apart.
    struct Marked;
    impl BranchPredictor for Marked {
        fn predict(&mut self, _pc: u64) -> Prediction {
            Prediction::of(Outcome::Taken)
        }
        fn update(&mut self, _pc: u64, _outcome: Outcome) {}
        fn step(&mut self, _pc: u64, _outcome: Outcome) -> Prediction {
            Prediction::novel(Outcome::NotTaken)
        }
        fn name(&self) -> String {
            "marked".into()
        }
        fn storage_bits(&self) -> u64 {
            0
        }
        fn reset(&mut self) {}
    }
    let mut boxed: Box<dyn BranchPredictor> = Box::new(Marked);
    assert_eq!(
        boxed.step(0x40, Outcome::Taken),
        Prediction::novel(Outcome::NotTaken)
    );
    let records = [BranchRecord::conditional(0x40, true)];
    let result = engine::run_many(&mut [boxed], &records, NovelPolicy::Count)[0];
    assert_eq!((result.novel, result.mispredicted), (1, 1));
}
