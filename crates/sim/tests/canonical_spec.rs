//! The canonical spelling of predictor specs, and the cell keys built on
//! it: every family's `Display` form parses back to an equal value, is a
//! fixed point, and every spelling of one predictor names one results
//! cell (one `resume::cell` fingerprint).

use bpred_core::spec::PredictorSpec;
use bpred_sim::engine::NovelPolicy;
use bpred_sim::resume;
use bpred_trace::workload::IbsBenchmark;
use proptest::prelude::*;

/// How a spec key's random value is drawn.
#[derive(Clone, Copy)]
enum Knob {
    /// A small integer (0 included: `bias=0`/`choice=0` mean "default").
    Int,
    Ctr,
    Update,
    Skew,
    Miss,
}

/// Every family name with the keys it accepts.
const FAMILIES: &[(&str, &[(&str, Knob)])] = &[
    ("bimodal", &[("n", Knob::Int), ("ctr", Knob::Ctr)]),
    (
        "gshare",
        &[("n", Knob::Int), ("h", Knob::Int), ("ctr", Knob::Ctr)],
    ),
    (
        "gselect",
        &[("n", Knob::Int), ("h", Knob::Int), ("ctr", Knob::Ctr)],
    ),
    (
        "gskew",
        &[
            ("n", Knob::Int),
            ("h", Knob::Int),
            ("banks", Knob::Int),
            ("ctr", Knob::Ctr),
            ("update", Knob::Update),
            ("skew", Knob::Skew),
        ],
    ),
    (
        "egskew",
        &[
            ("n", Knob::Int),
            ("h", Knob::Int),
            ("banks", Knob::Int),
            ("ctr", Knob::Ctr),
            ("update", Knob::Update),
            ("skew", Knob::Skew),
        ],
    ),
    (
        "agree",
        &[
            ("n", Knob::Int),
            ("h", Knob::Int),
            ("bias", Knob::Int),
            ("ctr", Knob::Ctr),
        ],
    ),
    (
        "bimode",
        &[
            ("n", Knob::Int),
            ("h", Knob::Int),
            ("choice", Knob::Int),
            ("ctr", Knob::Ctr),
        ],
    ),
    (
        "pas",
        &[
            ("bht", Knob::Int),
            ("l", Knob::Int),
            ("n", Knob::Int),
            ("ctr", Knob::Ctr),
        ],
    ),
    (
        "spas",
        &[
            ("bht", Knob::Int),
            ("l", Knob::Int),
            ("n", Knob::Int),
            ("ctr", Knob::Ctr),
            ("update", Knob::Update),
        ],
    ),
    ("ideal", &[("h", Knob::Int), ("ctr", Knob::Ctr)]),
    (
        "falru",
        &[
            ("cap", Knob::Int),
            ("h", Knob::Int),
            ("ctr", Knob::Ctr),
            ("miss", Knob::Miss),
        ],
    ),
    (
        "setassoc",
        &[
            ("n", Knob::Int),
            ("ways", Knob::Int),
            ("h", Knob::Int),
            ("ctr", Knob::Ctr),
            ("miss", Knob::Miss),
        ],
    ),
    (
        "mcfarling",
        &[("n", Knob::Int), ("h", Knob::Int), ("ctr", Knob::Ctr)],
    ),
    (
        "shgskew",
        &[("n", Knob::Int), ("h", Knob::Int), ("update", Knob::Update)],
    ),
    ("2bcgskew", &[("n", Knob::Int), ("h", Knob::Int)]),
    ("always-taken", &[]),
    ("always-nottaken", &[]),
];

fn knob_value(knob: Knob, draw: u32) -> String {
    match knob {
        Knob::Int => (draw % 24).to_string(),
        Knob::Ctr => (1 + draw % 7).to_string(),
        Knob::Update => ["partial", "total"][draw as usize % 2].to_string(),
        Knob::Skew => ["on", "off"][draw as usize % 2].to_string(),
        Knob::Miss => ["taken", "nottaken"][draw as usize % 2].to_string(),
    }
}

/// Shuffle `items` in place (Fisher-Yates over an LCG seeded by `seed`).
fn shuffle(items: &mut [String], mut seed: u64) {
    for i in (1..items.len()).rev() {
        seed = seed
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        items.swap(i, (seed >> 33) as usize % (i + 1));
    }
}

/// A random spelling of a random spec of family `family`: each key is
/// present or left to its default by bit `i` of `present`, and the
/// present keys appear in an order shuffled by `order`.
fn spelling(family: usize, draws: &[u32], present: u32, order: u64) -> String {
    let (name, keys) = FAMILIES[family];
    let mut pairs: Vec<String> = keys
        .iter()
        .enumerate()
        .filter(|&(i, _)| present >> i & 1 == 1)
        .map(|(i, &(key, knob))| format!("{key}={}", knob_value(knob, draws[i])))
        .collect();
    shuffle(&mut pairs, order);
    if pairs.is_empty() {
        name.to_string()
    } else {
        format!("{name}:{}", pairs.join(","))
    }
}

fn fingerprint(spec: &PredictorSpec) -> u64 {
    resume::cell(spec, IbsBenchmark::Groff, 1_000, 7, NovelPolicy::Count).1
}

proptest! {
    #[test]
    fn canonical_spelling_round_trips_for_every_family(
        family in 0usize..FAMILIES.len(),
        draws in proptest::collection::vec(any::<u32>(), 6..7),
        present in any::<u32>(),
        order in any::<u64>(),
    ) {
        let text = spelling(family, &draws, present, order);
        let spec = PredictorSpec::parse(&text)
            .unwrap_or_else(|e| panic!("`{text}` does not parse: {e}"));
        let canonical = spec.to_string();
        let reparsed = PredictorSpec::parse(&canonical)
            .unwrap_or_else(|e| panic!("canonical `{canonical}` does not parse: {e}"));
        prop_assert_eq!(&reparsed, &spec, "`{}` -> `{}`", text, canonical);
        prop_assert_eq!(reparsed.to_string(), canonical.clone(), "canonical is a fixed point");
        prop_assert!(
            canonical.starts_with(FAMILIES[family].0),
            "`{}` keeps its family name",
            canonical
        );
        prop_assert_eq!(fingerprint(&spec), fingerprint(&reparsed));
    }

    #[test]
    fn equivalent_spellings_share_one_cell(
        n in 1u32..=16,
        h in 0u32..=16,
        order in any::<u64>(),
    ) {
        let base = format!("gskew:n={n},h={h}");
        let expected = fingerprint(&PredictorSpec::parse(&base).unwrap());
        // Defaults written out, alone and together in a shuffled order.
        let mut explicit = vec![
            "update=partial".to_string(),
            "banks=3".to_string(),
            "ctr=2".to_string(),
            "skew=on".to_string(),
            format!("h={h}"),
            format!("n={n}"),
        ];
        shuffle(&mut explicit, order);
        for spelling in [
            format!("{base},update=partial"),
            format!("{base},banks=3"),
            format!("{base},ctr=2"),
            format!("gskew:{}", explicit.join(",")),
        ] {
            let spec = PredictorSpec::parse(&spelling).unwrap();
            prop_assert_eq!(fingerprint(&spec), expected, "`{}` vs `{}`", spelling, base);
        }
        // A different predictor is a different cell.
        for other in [
            format!("{base},update=total"),
            format!("{base},banks=5"),
            format!("{base},ctr=3"),
            format!("egskew:n={n},h={h}"),
        ] {
            let spec = PredictorSpec::parse(&other).unwrap();
            prop_assert!(fingerprint(&spec) != expected, "`{}` aliases `{}`", other, base);
        }
    }
}
