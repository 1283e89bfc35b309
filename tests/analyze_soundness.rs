//! Soundness harness for the static footprint analysis: the interval
//! bounds `hintm analyze` reports must dominate what the simulator
//! actually does.
//!
//! For every workload × capacity model we check two directions:
//!
//! 1. **Bound soundness** — the module-worst static upper bound on the
//!    read (resp. write) footprint is ≥ the largest committed read-set
//!    (resp. write-set) the traced run observed. A transaction the
//!    analysis says "fits" but that dynamically overflows would show up
//!    here as a bound violation.
//! 2. **Fits verdicts are real** — when the worst verdict for a model is
//!    `fits`, a run on that model's HTM must exhibit zero capacity
//!    aborts.
//!
//! Dynamic sizes are commit-time set sizes, so aborted (overflowing)
//! attempts never weaken the check: committed footprints are always a
//! subset of what the static analysis bounded.
//!
//! A third check sandwiches the generated section streams themselves
//! between the module-wide `[total_lo, total_hi]` envelope, with no
//! simulator in between (see
//! [`transaction_block_counts_fit_the_static_envelope`]).

use hintm::{AbortKind, AllocConfig, Experiment, HtmKind};
use hintm_audit::{analyze_workload, htm_kind, AnalyzeReport, Scale};
use hintm_ir::{Bound, CapacityModel, Verdict};
use hintm_sim::Section;
use hintm_types::ThreadId;
use hintm_workloads::{by_name, WORKLOAD_NAMES};

/// Module-worst upper bound across transactions: `Unbounded` dominates
/// every dynamic observation.
fn worst_hi(report: &AnalyzeReport, pick: impl Fn(&hintm_ir::TxFootprint) -> Bound) -> Bound {
    report
        .footprint
        .txs
        .iter()
        .map(pick)
        .fold(Bound::Finite(0), |acc, b| match (acc, b) {
            (Bound::Finite(a), Bound::Finite(x)) => Bound::Finite(a.max(x)),
            _ => Bound::Unbounded,
        })
}

fn dominates(bound: Bound, observed: u64) -> bool {
    match bound {
        Bound::Finite(n) => n >= observed,
        Bound::Unbounded => true,
    }
}

#[test]
fn static_bounds_dominate_dynamic_footprints() {
    for name in WORKLOAD_NAMES {
        let report = analyze_workload(name, Scale::Sim).expect("known workload");
        let read_hi = worst_hi(&report, |tx| tx.read_hi);
        let write_hi = worst_hi(&report, |tx| tx.write_hi);
        for model in CapacityModel::ALL {
            let (run, _) = Experiment::new(name)
                .htm(htm_kind(model))
                .run_traced(1)
                .expect("known workload");
            let trace = run.trace.expect("traced run records metrics");
            assert!(
                dominates(read_hi, trace.read_set.max),
                "{name} on {}: static read bound {read_hi} < dynamic max read-set {}",
                htm_kind(model),
                trace.read_set.max,
            );
            assert!(
                dominates(write_hi, trace.write_set.max),
                "{name} on {}: static write bound {write_hi} < dynamic max write-set {}",
                htm_kind(model),
                trace.write_set.max,
            );
        }
    }
}

/// Every transaction a workload generates (seed 42, sim scale) touches at
/// most the module's largest per-transaction upper bound (`total_hi`) of
/// distinct blocks, and the stream's largest transaction reaches at least
/// the smallest per-transaction guarantee (`total_lo`). Per-TX lower
/// bounds cannot apply pointwise because the hand-written streams also
/// emit small bookkeeping transactions the idealized module does not
/// model. A generator that dropped or duplicated accesses, or an analysis
/// regression that narrowed a bound below reality, breaks the sandwich.
#[test]
fn transaction_block_counts_fit_the_static_envelope() {
    for name in WORKLOAD_NAMES {
        let report = analyze_workload(name, Scale::Sim).expect("known workload");
        assert!(
            !report.footprint.txs.is_empty(),
            "{name}: module declares no transactions"
        );
        let lo = report
            .footprint
            .txs
            .iter()
            .map(|tx| tx.total_lo)
            .min()
            .unwrap();
        let hi = worst_hi(&report, |tx| tx.total_hi);

        let mut w = by_name(name, Scale::Sim).expect("known workload");
        w.reset(42);
        let mut live = vec![true; w.num_threads()];
        let mut txs = 0u64;
        let mut largest = 0u64;
        while live.iter().any(|&l| l) {
            for (t, alive) in live.iter_mut().enumerate() {
                if !*alive {
                    continue;
                }
                let Some(section) = w.next_section(ThreadId(t as u32)) else {
                    *alive = false;
                    continue;
                };
                let Section::Tx(body) = section else {
                    continue;
                };
                txs += 1;
                let blocks = body.footprint_blocks() as u64;
                largest = largest.max(blocks);
                assert!(
                    dominates(hi, blocks),
                    "{name}: a TX touches {blocks} distinct blocks, above the \
                     static upper bound {hi}"
                );
            }
        }
        assert!(txs > 0, "{name}: stream contained no transactions");
        assert!(
            largest >= lo,
            "{name}: the largest TX touches {largest} distinct blocks, below \
             even the weakest static guarantee {lo}"
        );
    }
}

#[test]
fn fits_verdicts_mean_no_capacity_aborts() {
    let mut fits_cases = 0usize;
    for name in WORKLOAD_NAMES {
        let report = analyze_workload(name, Scale::Sim).expect("known workload");
        for model in CapacityModel::ALL {
            if report.worst(model) != Verdict::Fits {
                continue;
            }
            fits_cases += 1;
            let (run, _) = Experiment::new(name)
                .htm(htm_kind(model))
                .run_traced(1)
                .expect("known workload");
            assert_eq!(
                run.stats.aborts_of(AbortKind::Capacity),
                0,
                "{name} statically fits {} but dynamically overflowed",
                htm_kind(model),
            );
        }
    }
    // kmeans and ssca2 fit all five models; tpcc-p fits P8S, LRWS and
    // PStretch; tpcc-no fits P8S.
    assert_eq!(fits_cases, 14, "expected fits verdicts drifted");
}

#[test]
fn must_overflow_verdicts_mean_capacity_aborts_happen() {
    // labyrinth is guaranteed to exceed every bounded buffer model (its
    // write set alone overflows the 64-entry buffer, which no amount of
    // read spilling or stretching relieves): the run must actually hit
    // capacity aborts there, proving the lower bounds are not vacuous.
    let report = analyze_workload("labyrinth", Scale::Sim).expect("known workload");
    for model in [
        CapacityModel::P8,
        CapacityModel::P8S,
        CapacityModel::Lrws,
        CapacityModel::PStretch,
    ] {
        assert_eq!(report.worst(model), Verdict::MustOverflow);
        let (run, _) = Experiment::new("labyrinth")
            .htm(htm_kind(model))
            .run_traced(1)
            .expect("known workload");
        assert!(
            run.stats.aborts_of(AbortKind::Capacity) > 0,
            "labyrinth must-overflows {} statically but aborted zero times",
            htm_kind(model),
        );
    }
}

/// Malloc placement is a real capacity axis: coloring genome's heap
/// arenas (`--alloc-color`) moves which allocations share cache sets and
/// shifts the P8 capacity-abort count — but never the committed outcome.
/// Both pinned counts come from the same seed-42 run the digest table
/// locks; a drift here means heap placement leaked into tracking
/// semantics (or vice versa) rather than just into addresses.
#[test]
fn alloc_coloring_shifts_capacity_aborts_not_commits() {
    let run_colored = |stride: u64| {
        Experiment::new("genome")
            .htm(HtmKind::P8)
            .alloc(AllocConfig {
                color_stride: stride,
                ..AllocConfig::default()
            })
            .run()
            .expect("known workload")
    };
    let plain = run_colored(0);
    let colored = run_colored(64);

    // The sensitivity itself, pinned: different placements, different
    // capacity pressure.
    assert_eq!(plain.stats.aborts_of(AbortKind::Capacity), 172);
    assert_eq!(colored.stats.aborts_of(AbortKind::Capacity), 181);

    // ... but placement must never change what commits: every transaction
    // still completes (in HTM or on the fallback path) under both
    // placements.
    let committed = |r: &hintm::RunReport| r.stats.commits + r.stats.fallback_commits;
    assert_eq!(
        committed(&plain),
        committed(&colored),
        "alloc coloring changed the committed transaction count"
    );
    assert_eq!(committed(&plain), 352);
}
