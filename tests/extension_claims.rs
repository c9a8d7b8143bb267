//! End-to-end claims for the extensions: the future-work features of
//! section 7 realized, and the aliasing-taxonomy measurements.

use gskew::aliasing::nature;
use gskew::core::counter::CounterKind;
use gskew::core::index::IndexFunction;
use gskew::core::spec::parse_spec;
use gskew::model::skew::{p_dm, p_sk_general};
use gskew::sim::engine;
use gskew::trace::mix::MultiProgram;
use gskew::trace::prelude::*;

const LEN: u64 = 200_000;

fn pct(spec: &str, bench: IbsBenchmark) -> f64 {
    let mut p = parse_spec(spec).expect("valid spec");
    engine::run(&mut p, bench.spec().build().take_conditionals(LEN)).mispredict_pct()
}

fn mean_pct(spec: &str) -> f64 {
    IbsBenchmark::all()
        .iter()
        .map(|&b| pct(spec, b))
        .sum::<f64>()
        / 6.0
}

/// Figure 12's storage claim: 3x4K e-gskew performs like a 32K gshare at
/// long history lengths, with less than half the storage.
#[test]
fn egskew_rivals_double_storage_gshare_at_long_history() {
    let egskew = mean_pct("egskew:n=12,h=12"); // 24.6 Kbit
    let gshare = mean_pct("gshare:n=15,h=12"); // 65.5 Kbit
    assert!(
        egskew <= gshare + 0.5,
        "e-gskew {egskew:.3} should rival the 2.7x-storage gshare {gshare:.3}"
    );
}

/// Destructive aliasing must dominate constructive on every workload —
/// the Young/Gloy/Smith result the paper cites, and the reason the
/// figure 11 model errs on the high side.
#[test]
fn destructive_dominates_constructive_everywhere() {
    for bench in IbsBenchmark::all() {
        let cols: TraceColumns = bench.spec().build().take_conditionals(100_000).collect();
        let counts =
            nature::run_sizes(&cols, 8, IndexFunction::Gshare, CounterKind::TwoBit, &[10])[0];
        assert!(counts.aliased() > 0, "{bench}: no aliasing measured");
        assert!(
            counts.destructive > 2 * counts.constructive,
            "{bench}: destructive {} vs constructive {}",
            counts.destructive,
            counts.constructive
        );
        assert!(counts.net_overhead() > 0.0, "{bench}");
    }
}

/// The identical-indexing ablation: removing the distinct functions must
/// cost accuracy on every benchmark (the voting redundancy alone is
/// worthless).
#[test]
fn inter_bank_dispersion_is_the_point() {
    for bench in IbsBenchmark::all() {
        let skewed = pct("gskew:n=10,h=4", bench);
        let same = pct("gskew:n=10,h=4,skew=off", bench);
        assert!(
            skewed < same,
            "{bench}: skewed {skewed:.3} should beat same-index {same:.3}"
        );
    }
}

/// The shared-hysteresis encoding keeps accuracy close to the full 2-bit
/// structure at 75 % of the storage — the affirmative answer to
/// section 7's "distributed encodings" question.
#[test]
fn shared_hysteresis_accuracy_close_to_full_encoding() {
    let full = mean_pct("gskew:n=12,h=6");
    let shared = mean_pct("shgskew:n=12,h=6");
    assert!(
        shared <= full + 0.4,
        "shared-hysteresis {shared:.3} too far from full {full:.3}"
    );
    // And it must clearly beat spending the same area on a smaller full
    // structure is NOT guaranteed (the paper's open question) — only
    // check that it doesn't collapse.
    let small = mean_pct("gskew:n=11,h=6");
    assert!(
        shared <= small + 0.4,
        "shared-hysteresis {shared:.3} should be competitive with the 2/3-size full {small:.3}"
    );
}

/// A *negative* result worth pinning: transplanting skewing to local
/// histories (section 7's suggestion) LOSES on these workloads. PAs-style
/// concatenated indexing shares pattern entries between branches with the
/// same local history — and that sharing is largely *constructive*
/// (branches with the same loop pattern want the same prediction), so
/// dispersing it across banks throws the benefit away. Skewing pays off
/// when aliasing is destructive (global history), not when it is
/// constructive.
#[test]
fn skewing_local_histories_forfeits_constructive_aliasing() {
    let mut pas_wins = 0;
    for bench in IbsBenchmark::all() {
        let spas = pct("spas:bht=10,l=8,n=12", bench); // 3x4K pattern entries
        let pas = pct("pas:bht=10,l=8,n=13", bench); // 8K entries, 2/3 the bits
        if pas < spas {
            pas_wins += 1;
        }
    }
    assert!(
        pas_wins >= 4,
        "expected plain PAs to win on most benchmarks, won {pas_wins}/6"
    );
}

/// Multiprogramming degrades every predictor, and by more than trivial
/// noise for the global-history designs.
#[test]
fn multiprogramming_degrades_prediction() {
    let mix = [IbsBenchmark::Groff, IbsBenchmark::Gs, IbsBenchmark::Verilog];
    for spec in ["gshare:n=13,h=8", "gskew:n=11,h=8"] {
        let solo = mix.iter().map(|&b| pct(spec, b)).sum::<f64>() / 3.0;
        let mut predictor = parse_spec(spec).expect("valid spec");
        let mixed_stream = MultiProgram::new(mix.iter().map(|b| b.spec()).collect(), 20_000)
            .take_conditionals(LEN);
        let mixed = engine::run(&mut predictor, mixed_stream).mispredict_pct();
        assert!(
            mixed > solo + 0.2,
            "{spec}: mixed {mixed:.3} should exceed solo mean {solo:.3}"
        );
    }
}

/// The generalized analytical formula stays a probability and preserves
/// the polynomial-vs-linear relationship at every bias.
#[test]
fn general_model_bounds_and_ordering() {
    for m in [1u32, 3, 5] {
        for p in [0.0, 0.1, 0.5, 0.9, 1.0] {
            for b in [0.0, 0.25, 0.5, 0.75, 1.0] {
                let v = p_sk_general(p, b, m);
                assert!((0.0..=1.0).contains(&v), "m={m} p={p} b={b}: {v}");
            }
        }
    }
    for p in [0.05, 0.2, 0.5, 0.8] {
        for b in [0.3, 0.5, 0.7] {
            assert!(
                p_sk_general(p, b, 3) <= p_dm(p, b) + 1e-12,
                "3-bank should not exceed 1-bank at equal p (p={p}, b={b})"
            );
        }
    }
}

/// Agree and bi-mode genuinely reduce misprediction relative to a plain
/// gshare of the same counter budget on at least half the benchmarks
/// (they were published for a reason).
#[test]
fn antialias_designs_competitive_with_plain_gshare() {
    let mut agree_ok = 0;
    let mut bimode_ok = 0;
    for bench in IbsBenchmark::all() {
        let gshare = pct("gshare:n=13,h=6", bench); // 16.4 Kbit
        if pct("agree:n=13,h=6,bias=12", bench) <= gshare + 0.6 {
            agree_ok += 1;
        }
        if pct("bimode:n=12,h=6,choice=12", bench) <= gshare + 0.6 {
            bimode_ok += 1;
        }
    }
    assert!(agree_ok >= 3, "agree competitive on only {agree_ok}/6");
    assert!(bimode_ok >= 3, "bimode competitive on only {bimode_ok}/6");
}
