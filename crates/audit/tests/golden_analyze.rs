//! Golden per-workload footprint bounds and capacity verdicts.
//!
//! Pins the static analysis output the same way
//! `golden_classification.rs` pins `ClassifyStats`: any change to the
//! workload IR modules, the interval lattice, or the per-model verdict
//! thresholds shows up as a diff against these rows and must be reviewed
//! (the soundness harness in `tests/analyze_soundness.rs` separately
//! proves the bounds dominate dynamic behaviour).

use hintm_audit::{analyze_workload, htm_kind, Scale};
use hintm_ir::{Bound, CapacityModel, Verdict};

/// `(read_hi, write_hi, total_hi, total_lo, write_lo)` with `None`
/// standing for an unbounded upper bound.
type TxBounds = (Option<u64>, Option<u64>, Option<u64>, u64, u64);

/// `(workload, per-tx bounds, worst verdict per model in
/// P8/P8S/L1TM/LRWS/PStretch order)`.
const GOLDEN: &[(&str, &[TxBounds], [Verdict; 5])] = {
    use Verdict::{Fits, MayOverflow, MustOverflow};
    &[
        (
            "bayes",
            &[(Some(948), Some(870), Some(954), 2, 2)],
            [
                MayOverflow,
                MayOverflow,
                MayOverflow,
                MayOverflow,
                MayOverflow,
            ],
        ),
        (
            "genome",
            &[(None, None, None, 0, 0), (Some(9), Some(9), Some(18), 0, 0)],
            [
                MayOverflow,
                MayOverflow,
                MayOverflow,
                MayOverflow,
                MayOverflow,
            ],
        ),
        (
            "intruder",
            &[(Some(1), Some(1), Some(2), 1, 1), (None, None, None, 0, 0)],
            [
                MayOverflow,
                MayOverflow,
                MayOverflow,
                MayOverflow,
                MayOverflow,
            ],
        ),
        (
            "kmeans",
            &[(Some(2), Some(1), Some(3), 2, 1)],
            [Fits, Fits, Fits, Fits, Fits],
        ),
        (
            "labyrinth",
            &[(Some(601), Some(403), Some(604), 403, 203)],
            [
                MustOverflow,
                MustOverflow,
                MayOverflow,
                MustOverflow,
                MustOverflow,
            ],
        ),
        (
            "ssca2",
            &[(Some(2), Some(2), Some(4), 2, 1)],
            [Fits, Fits, Fits, Fits, Fits],
        ),
        (
            "vacation",
            &[(Some(3076), Some(3077), Some(3077), 1, 1)],
            [
                MayOverflow,
                MayOverflow,
                MayOverflow,
                MayOverflow,
                MayOverflow,
            ],
        ),
        (
            "yada",
            &[(Some(4225), Some(4225), Some(4226), 1, 1)],
            [
                MayOverflow,
                MayOverflow,
                MayOverflow,
                MayOverflow,
                MayOverflow,
            ],
        ),
        (
            "tpcc-no",
            &[(Some(65), Some(49), Some(114), 3, 1)],
            [MayOverflow, Fits, MayOverflow, MayOverflow, MayOverflow],
        ),
        (
            "tpcc-p",
            &[(Some(81), Some(5), Some(85), 5, 5)],
            [MayOverflow, Fits, MayOverflow, Fits, Fits],
        ),
    ]
};

fn bound(b: Bound) -> Option<u64> {
    match b {
        Bound::Finite(n) => Some(n),
        Bound::Unbounded => None,
    }
}

#[test]
fn footprint_bounds_match_golden() {
    for &(name, txs, worst) in GOLDEN {
        let r = analyze_workload(name, Scale::Sim).expect("known workload");
        let got: Vec<TxBounds> = r
            .footprint
            .txs
            .iter()
            .map(|tx| {
                (
                    bound(tx.read_hi),
                    bound(tx.write_hi),
                    bound(tx.total_hi),
                    tx.total_lo,
                    tx.write_lo,
                )
            })
            .collect();
        assert_eq!(got, txs, "{name}: per-tx bounds drifted");
        for (model, want) in CapacityModel::ALL.into_iter().zip(worst) {
            assert_eq!(r.worst(model), want, "{name} on {}", htm_kind(model));
        }
        assert!(
            r.footprint.txs.iter().all(|tx| tx.balanced),
            "{name}: malformed transaction region"
        );
    }
}

#[test]
fn suite_analyzes_clean_with_hints_in_sync() {
    for &(name, _, _) in GOLDEN {
        let r = analyze_workload(name, Scale::Sim).expect("known workload");
        assert!(r.passed(), "{name}: {:?}", r.diagnostics);
        assert_eq!(r.declared, r.inferred, "{name}: stale hint table");
        assert_eq!(r.stats().num_txs, r.footprint.txs.len());
    }
}
