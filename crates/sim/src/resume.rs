//! Cell resolution: every simulated cell is resolved at most once per
//! run, and persisted across runs when a results store is attached.
//!
//! The experiment helpers ([`crate::experiments::sim_pct`], the
//! spec-sweep tables and the three-C grids) key every cell with [`cell`]
//! and resolve it through [`lookup`] before simulating it, then hand a
//! simulated result to [`record`]. A lookup tries two tiers in order:
//!
//! 1. the **in-run tier**, an in-memory map from a cell's fingerprint
//!    (which covers its canonical spec, benchmark, length, seed, policy,
//!    workload parameters and [`ENGINE_VERSION`] — the same identity the
//!    store keys by) to its counts,
//!    filled by every resolved cell whether or not a store is attached —
//!    so an experiment that repeats another's cell (ablation-update
//!    repeats fig5 and fig8) reuses it instead of re-simulating;
//! 2. a [`bpred_results::store::ResultsStore`], when one is attached with
//!    resume enabled: a fingerprint-identical hit is adopted wholesale
//!    (the stored counts reproduce the cell's rendering byte for byte),
//!    which makes whole experiment reruns incremental across processes.
//!
//! Misses are simulated by the caller and, when saving is enabled,
//! written back through the store's atomic path.
//!
//! The in-run tier lives as long as one run: [`configure`] and
//! [`deconfigure`] empty it, so a command (or a benchmark pass) that
//! starts from either sees exactly what a fresh process would. The
//! context is process-global by design, mirroring `bpred_trace::cache`:
//! only single-threaded entry points (the CLI) should configure it.
//! Lookups and records are safe from the parallel sweep workers.

use crate::engine::{NovelPolicy, RunResult};
use bpred_core::hash::PairHasher;
use bpred_core::spec::PredictorSpec;
use bpred_results::record::{CellKey, ResultRecord};
use bpred_results::store::ResultsStore;
use bpred_trace::workload::IbsBenchmark;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Version of the simulation engine's accounting, fingerprinted into
/// every stored cell. Bump this whenever a change alters what any
/// simulated number *means* (accounting rules, workload synthesis,
/// predictor semantics): old records stop matching and every cell
/// re-simulates instead of silently serving stale numbers.
pub const ENGINE_VERSION: &str = "1";

/// A results store attached by [`configure`].
struct Attached {
    store: ResultsStore,
    /// Serve fingerprint hits instead of simulating.
    resume: bool,
    /// Persist simulated cells.
    save: bool,
}

struct Context {
    store: Option<Attached>,
    /// The in-run tier: every cell resolved since the last
    /// [`configure`]/[`deconfigure`], keyed by fingerprint.
    memory: HashMap<u64, RunResult, BuildHasherDefault<PairHasher>>,
    in_run: InRunStats,
}

static CONTEXT: Mutex<Context> = Mutex::new(Context {
    store: None,
    memory: HashMap::with_hasher(BuildHasherDefault::new()),
    in_run: InRunStats {
        cells_simulated: 0,
        cells_reused: 0,
    },
});
static CELLS_SKIPPED: AtomicU64 = AtomicU64::new(0);
static CELLS_SIMULATED: AtomicU64 = AtomicU64::new(0);
static RECORDS_SAVED: AtomicU64 = AtomicU64::new(0);
/// The experiment id currently running, stamped into saved records
/// (informational only; not part of the fingerprint).
static EXPERIMENT: Mutex<Option<&'static str>> = Mutex::new(None);

fn context() -> MutexGuard<'static, Context> {
    CONTEXT.lock().expect("resume context poisoned")
}

/// Replace the attached store and start a new run: the in-run tier and
/// its counters are emptied. Returns the store that was attached.
fn start_run(store: Option<Attached>) -> Option<ResultsStore> {
    let mut ctx = context();
    ctx.memory.clear();
    ctx.in_run = InRunStats::default();
    std::mem::replace(&mut ctx.store, store).map(|attached| attached.store)
}

/// Attach a store and start a new run (the in-run tier is emptied).
/// `resume` serves fingerprint-identical hits without simulating; `save`
/// persists simulated cells. Both may be set.
pub fn configure(store: ResultsStore, resume: bool, save: bool) {
    start_run(Some(Attached {
        store,
        resume,
        save,
    }));
}

/// Detach and return the store, if one was configured, and start a new
/// run (the in-run tier is emptied).
pub fn deconfigure() -> Option<ResultsStore> {
    start_run(None)
}

/// Whether a store is currently attached.
pub fn is_active() -> bool {
    context().store.is_some()
}

/// Stamp the experiment id recorded on cells saved from now on.
pub fn set_experiment(id: &'static str) {
    *EXPERIMENT.lock().expect("experiment label poisoned") = Some(id);
}

fn experiment_label() -> String {
    EXPERIMENT
        .lock()
        .expect("experiment label poisoned")
        .unwrap_or("adhoc")
        .to_string()
}

/// Results-store counter snapshot for `--verbose` summaries. The
/// counters move only while a store is attached, and are cumulative
/// over the process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ResumeStats {
    /// Cells served from the store without simulating.
    pub cells_skipped: u64,
    /// Cells actually simulated while a store was attached.
    pub cells_simulated: u64,
    /// Records written to the store.
    pub records_saved: u64,
}

/// Snapshot the global counters.
pub fn stats() -> ResumeStats {
    ResumeStats {
        cells_skipped: CELLS_SKIPPED.load(Ordering::Relaxed),
        cells_simulated: CELLS_SIMULATED.load(Ordering::Relaxed),
        records_saved: RECORDS_SAVED.load(Ordering::Relaxed),
    }
}

/// Counters of the current run, with or without a store; emptied with
/// the in-run tier by [`configure`] and [`deconfigure`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct InRunStats {
    /// Cells simulated.
    pub cells_simulated: u64,
    /// Cells served from the in-run tier.
    pub cells_reused: u64,
}

/// Snapshot the current run's counters.
pub fn in_run_stats() -> InRunStats {
    context().in_run
}

/// The policy's stable name inside cell keys.
pub fn policy_name(policy: NovelPolicy) -> &'static str {
    match policy {
        NovelPolicy::Count => "count",
        NovelPolicy::Exclude => "exclude",
    }
}

/// Build the cell key and fingerprint for one simulation cell. The key
/// holds the spec's canonical spelling, so every spelling of one
/// predictor names one cell. The fingerprint covers the key, the *full*
/// workload parameter set (the benchmark's seeded `WorkloadSpec`, so
/// recalibrating a workload invalidates its cells) and
/// [`ENGINE_VERSION`].
pub fn cell(
    spec: &PredictorSpec,
    bench: IbsBenchmark,
    len: u64,
    seed: u64,
    policy: NovelPolicy,
) -> (CellKey, u64) {
    cell_keyed(&spec.to_string(), bench, len, seed, policy_name(policy))
}

/// [`cell`] with a free-form policy label — the shared core for cells
/// that are not predictor runs (the aliasing cells use the
/// [`ALIAS_POLICY`] label, where a `NovelPolicy` would be meaningless).
pub fn cell_keyed(
    spec: &str,
    bench: IbsBenchmark,
    len: u64,
    seed: u64,
    policy: &str,
) -> (CellKey, u64) {
    let key = CellKey {
        bench: bench.name().to_string(),
        spec: spec.to_string(),
        len,
        seed,
        policy: policy.to_string(),
    };
    let workload_params = format!("{:?}", bench.spec_seeded(seed));
    let fingerprint = key.fingerprint(&workload_params, ENGINE_VERSION);
    (key, fingerprint)
}

/// Policy label of three-C aliasing cells. Distinct from every
/// [`policy_name`] value, so an aliasing cell can never collide with a
/// predictor cell that happens to share a spec string.
pub const ALIAS_POLICY: &str = "alias";

/// Key + fingerprint of one *direct-mapped* three-C measurement: the
/// tagged-table pass of a grid cell. Stored as `conditional` =
/// references, `mispredicted` = misses, `novel` = cold misses.
pub fn alias_dm_cell(
    cell: &bpred_aliasing::batch::ThreeCCell,
    bench: IbsBenchmark,
    len: u64,
    seed: u64,
) -> (CellKey, u64) {
    let spec = format!(
        "3c-dm:ix={},n={},h={}",
        cell.func, cell.entries_log2, cell.history_bits
    );
    cell_keyed(&spec, bench, len, seed, ALIAS_POLICY)
}

/// Key + fingerprint of one *fully-associative* three-C measurement at
/// capacity `2^entries_log2` under `history_bits` of history. Keyed
/// without an index function — the FA reference is shared by every index
/// function of the grid, which is exactly what lets the batched engine
/// (and a resumed rerun) pay for it once. Stored as `conditional` =
/// references, `mispredicted` = misses, `novel` = cold misses.
pub fn alias_fa_cell(
    entries_log2: u32,
    history_bits: u32,
    bench: IbsBenchmark,
    len: u64,
    seed: u64,
) -> (CellKey, u64) {
    let spec = format!("3c-fa:n={entries_log2},h={history_bits}");
    cell_keyed(&spec, bench, len, seed, ALIAS_POLICY)
}

/// Look a cell up: in the in-run tier first, then in the attached store
/// when resume is enabled. A store hit joins the in-run tier.
pub fn lookup(fingerprint: u64) -> Option<RunResult> {
    let mut ctx = context();
    if let Some(&hit) = ctx.memory.get(&fingerprint) {
        ctx.in_run.cells_reused += 1;
        return Some(hit);
    }
    let record = ctx
        .store
        .as_ref()
        .filter(|attached| attached.resume)?
        .store
        .get(fingerprint)?;
    CELLS_SKIPPED.fetch_add(1, Ordering::Relaxed);
    let hit = RunResult {
        conditional: record.conditional,
        mispredicted: record.mispredicted,
        novel: record.novel,
    };
    ctx.memory.insert(fingerprint, hit);
    Some(hit)
}

/// Account one simulated cell: it joins the in-run tier and, when a
/// store is attached with saving enabled, is persisted. A write failure
/// is reported to stderr but never fails the sweep — the simulation
/// result is already in hand.
pub fn record(key: CellKey, fingerprint: u64, result: RunResult, elapsed_ms: f64) {
    let mut ctx = context();
    ctx.in_run.cells_simulated += 1;
    ctx.memory.insert(fingerprint, result);
    let Some(attached) = ctx.store.as_mut() else {
        return;
    };
    CELLS_SIMULATED.fetch_add(1, Ordering::Relaxed);
    if !attached.save {
        return;
    }
    let record = ResultRecord {
        experiment: experiment_label(),
        key,
        fingerprint,
        engine_version: ENGINE_VERSION.to_string(),
        conditional: result.conditional,
        mispredicted: result.mispredicted,
        novel: result.novel,
        elapsed_ms,
    };
    match attached.store.put(&record) {
        Ok(()) => {
            RECORDS_SAVED.fetch_add(1, Ordering::Relaxed);
        }
        Err(e) => eprintln!("bpsim: results store write failed: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(text: &str) -> PredictorSpec {
        PredictorSpec::parse(text).unwrap()
    }

    #[test]
    fn cell_keys_hold_the_canonical_spelling() {
        let (key, fingerprint) = cell(
            &spec("gskew:h=4,n=9,update=partial"),
            IbsBenchmark::Groff,
            1000,
            7,
            NovelPolicy::Count,
        );
        assert_eq!(
            key.spec,
            "gskew:n=9,h=4,banks=3,ctr=2,update=partial,skew=on"
        );
        let (_, plain) = cell(
            &spec("gskew:n=9,h=4"),
            IbsBenchmark::Groff,
            1000,
            7,
            NovelPolicy::Count,
        );
        assert_eq!(fingerprint, plain);
    }

    #[test]
    fn cell_fingerprints_separate_every_coordinate() {
        let (_, base) = cell(
            &spec("gshare:n=10,h=4"),
            IbsBenchmark::Groff,
            1000,
            7,
            NovelPolicy::Count,
        );
        let variants = [
            cell(
                &spec("gshare:n=11,h=4"),
                IbsBenchmark::Groff,
                1000,
                7,
                NovelPolicy::Count,
            )
            .1,
            cell(
                &spec("gshare:n=10,h=4"),
                IbsBenchmark::Gs,
                1000,
                7,
                NovelPolicy::Count,
            )
            .1,
            cell(
                &spec("gshare:n=10,h=4"),
                IbsBenchmark::Groff,
                1001,
                7,
                NovelPolicy::Count,
            )
            .1,
            cell(
                &spec("gshare:n=10,h=4"),
                IbsBenchmark::Groff,
                1000,
                8,
                NovelPolicy::Count,
            )
            .1,
            cell(
                &spec("gshare:n=10,h=4"),
                IbsBenchmark::Groff,
                1000,
                7,
                NovelPolicy::Exclude,
            )
            .1,
        ];
        for v in variants {
            assert_ne!(v, base);
        }
        let (_, again) = cell(
            &spec("gshare:n=10,h=4"),
            IbsBenchmark::Groff,
            1000,
            7,
            NovelPolicy::Count,
        );
        assert_eq!(again, base, "fingerprints are stable");
    }

    #[test]
    fn policy_names() {
        assert_eq!(policy_name(NovelPolicy::Count), "count");
        assert_eq!(policy_name(NovelPolicy::Exclude), "exclude");
    }

    #[test]
    fn alias_cells_fingerprint_every_coordinate() {
        use bpred_aliasing::batch::ThreeCCell;
        use bpred_core::index::IndexFunction;
        let cell = ThreeCCell {
            entries_log2: 10,
            history_bits: 4,
            func: IndexFunction::Gshare,
        };
        let (key, base) = alias_dm_cell(&cell, IbsBenchmark::Groff, 1000, 7);
        assert_eq!(key.policy, ALIAS_POLICY);
        let variants = [
            alias_dm_cell(
                &ThreeCCell {
                    entries_log2: 11,
                    ..cell
                },
                IbsBenchmark::Groff,
                1000,
                7,
            )
            .1,
            alias_dm_cell(
                &ThreeCCell {
                    history_bits: 5,
                    ..cell
                },
                IbsBenchmark::Groff,
                1000,
                7,
            )
            .1,
            alias_dm_cell(
                &ThreeCCell {
                    func: IndexFunction::Gselect,
                    ..cell
                },
                IbsBenchmark::Groff,
                1000,
                7,
            )
            .1,
            alias_dm_cell(&cell, IbsBenchmark::Gs, 1000, 7).1,
            alias_dm_cell(&cell, IbsBenchmark::Groff, 1001, 7).1,
            alias_dm_cell(&cell, IbsBenchmark::Groff, 1000, 8).1,
            // The FA cell of the same geometry is a different cell.
            alias_fa_cell(10, 4, IbsBenchmark::Groff, 1000, 7).1,
        ];
        for v in variants {
            assert_ne!(v, base);
        }
        assert_eq!(alias_dm_cell(&cell, IbsBenchmark::Groff, 1000, 7).1, base);
        // FA cells ignore the index function by construction: one key per
        // (capacity, history).
        assert_eq!(
            alias_fa_cell(10, 4, IbsBenchmark::Groff, 1000, 7).1,
            alias_fa_cell(10, 4, IbsBenchmark::Groff, 1000, 7).1
        );
    }

    // Lookup/record behaviour (both tiers) lives in `tests/resume.rs`:
    // the context is process-global, so it is exercised in a dedicated
    // integration-test process instead of this shared unit-test binary.
}
