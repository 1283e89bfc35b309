//! Static capacity-footprint analysis and hint inference — the engine
//! behind `hintm analyze`.
//!
//! Purely static (no simulator run): for one workload module it
//!
//! 1. verifies structural well-formedness,
//! 2. bounds every transaction's read/write cache-block footprint with
//!    the [`hintm_ir::footprint()`] interval analysis and renders a
//!    per-HTM-model verdict (`fits` / `may-overflow` / `must-overflow`),
//! 3. re-infers the safe-site set with [`hintm_ir::classify()`] and diffs
//!    it against the set the workload *declares*, and
//! 4. runs the full lint stack (including the capacity lints) over the
//!    pipeline artifacts.
//!
//! The dynamic ground truth lives elsewhere: the root soundness harness
//! (`tests/analyze_soundness.rs`) checks these static bounds against the
//! read/write-set sizes traced from real runs, and the oracle in
//! [`crate::audit_module`] judges the inferred hints against observed
//! sharing.
//!
//! # Examples
//!
//! ```
//! use hintm_audit::{analyze_workload, Scale};
//! use hintm_ir::{CapacityModel, Verdict};
//!
//! let report = analyze_workload("kmeans", Scale::Sim).unwrap();
//! assert!(report.passed());
//! assert_eq!(report.worst(CapacityModel::P8), Verdict::Fits);
//! ```

use crate::{run_pipeline, Diagnostic, Severity, VerifyError};
use hintm_ir::{Bound, CapacityModel, Module, ModuleFootprint, Verdict};
use hintm_sim::HtmKind;
use hintm_types::SiteId;
use hintm_workloads::Scale;
use std::collections::BTreeSet;

/// The simulated HTM backend each static capacity model describes: the
/// one mapping between the analysis's models and the simulator's. A
/// model's name (table column, JSON key, lint message) is its backend's.
pub fn htm_kind(model: CapacityModel) -> HtmKind {
    match model {
        CapacityModel::P8 => HtmKind::P8,
        CapacityModel::P8S => HtmKind::P8S,
        CapacityModel::L1Tm => HtmKind::L1Tm,
        CapacityModel::Lrws => HtmKind::Lrws,
        CapacityModel::PStretch => HtmKind::PStretch,
    }
}

/// The static analysis verdict for one workload.
#[derive(Clone, Debug)]
pub struct AnalyzeReport {
    /// Workload (or fixture) name.
    pub workload: String,
    /// Structural IR violations (includes a fixpoint failure, if any).
    pub verify_errors: Vec<VerifyError>,
    /// Per-transaction footprint bounds, in module walk order.
    pub footprint: ModuleFootprint,
    /// Name of the function containing each transaction, parallel to
    /// `footprint.txs` (so consumers need not hold the module).
    pub tx_funcs: Vec<String>,
    /// The safe-site set the workload declares (what the simulator
    /// trusts).
    pub declared: BTreeSet<SiteId>,
    /// The safe-site set the classifier infers from the module today.
    pub inferred: BTreeSet<SiteId>,
    /// Lint findings, deterministically ordered.
    pub diagnostics: Vec<Diagnostic>,
}

impl AnalyzeReport {
    /// The worst verdict across the module's transactions for `model`.
    pub fn worst(&self, model: CapacityModel) -> Verdict {
        self.footprint.worst(model)
    }

    /// Number of `Error`-severity lint findings.
    pub fn lint_errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of `Warning`-severity lint findings.
    pub fn lint_warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// The analysis passes when the IR verifies and no lint *error*
    /// fired. Warnings (must-overflow transactions, missed hints) are
    /// informational.
    pub fn passed(&self) -> bool {
        self.verify_errors.is_empty() && self.lint_errors() == 0
    }

    /// The golden-able summary of this report.
    pub fn stats(&self) -> AnalyzeStats {
        AnalyzeStats {
            num_txs: self.footprint.txs.len(),
            unbounded_txs: self
                .footprint
                .txs
                .iter()
                .filter(|tx| tx.total_hi == Bound::Unbounded)
                .count(),
            worst: CapacityModel::ALL.map(|m| self.worst(m)),
            declared_safe: self.declared.len(),
            inferred_safe: self.inferred.len(),
        }
    }
}

/// Compact, comparable summary of an [`AnalyzeReport`] (golden-tested per
/// workload, like `ClassifyStats`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AnalyzeStats {
    /// Syntactic transactions found.
    pub num_txs: usize,
    /// Transactions whose total upper bound is unbounded.
    pub unbounded_txs: usize,
    /// Worst verdict per model, in [`CapacityModel::ALL`] order.
    pub worst: [Verdict; CapacityModel::ALL.len()],
    /// Declared safe sites.
    pub declared_safe: usize,
    /// Classifier-inferred safe sites.
    pub inferred_safe: usize,
}

/// Analyzes one `(module, declared safe set)` pair statically: verifier,
/// footprint bounds, hint inference diff, lints. No simulator run.
pub fn analyze_module(
    name: &str,
    module: &Module,
    declared_safe: &BTreeSet<SiteId>,
) -> AnalyzeReport {
    let pipeline = run_pipeline(module, declared_safe);
    let tx_funcs = pipeline
        .fp
        .txs
        .iter()
        .map(|tx| module.func(tx.func).name.clone())
        .collect();
    AnalyzeReport {
        workload: name.to_string(),
        verify_errors: pipeline.verify_errors,
        footprint: pipeline.fp,
        tx_funcs,
        declared: declared_safe.clone(),
        inferred: pipeline.inferred,
        diagnostics: pipeline.diagnostics,
    }
}

/// Analyzes one suite workload by name. Returns `None` for unknown
/// names.
pub fn analyze_workload(name: &str, scale: Scale) -> Option<AnalyzeReport> {
    let module = hintm_workloads::ir_module(name, scale)?;
    let workload = hintm_workloads::by_name(name, scale)?;
    let declared: BTreeSet<SiteId> = workload.static_safe_sites().into_iter().collect();
    Some(analyze_module(name, &module, &declared))
}

/// Analyzes every workload in the suite, in the paper's reporting order.
pub fn analyze_all(scale: Scale) -> Vec<AnalyzeReport> {
    hintm_workloads::WORKLOAD_NAMES
        .iter()
        .filter_map(|name| analyze_workload(name, scale))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kmeans_fits_every_model_and_is_clean() {
        let r = analyze_workload("kmeans", Scale::Sim).expect("known workload");
        assert!(r.passed(), "diags: {:?}", r.diagnostics);
        for m in CapacityModel::ALL {
            assert_eq!(r.worst(m), Verdict::Fits, "{}", htm_kind(m));
        }
        assert_eq!(r.declared, r.inferred, "shipped hints match inference");
    }

    #[test]
    fn labyrinth_must_overflow_p8_but_not_l1tm() {
        let r = analyze_workload("labyrinth", Scale::Sim).expect("known workload");
        assert_eq!(r.worst(CapacityModel::P8), Verdict::MustOverflow);
        assert_eq!(r.worst(CapacityModel::P8S), Verdict::MustOverflow);
        assert_eq!(r.worst(CapacityModel::L1Tm), Verdict::MayOverflow);
        // must-overflow is a warning, not an error: the report still passes.
        assert!(r.passed());
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.lint == "capacity-must-overflow"));
    }

    #[test]
    fn tpcc_write_footprint_fits_the_signature_model() {
        for name in ["tpcc-no", "tpcc-p"] {
            let r = analyze_workload(name, Scale::Sim).expect("known workload");
            assert_eq!(r.worst(CapacityModel::P8S), Verdict::Fits, "{name}");
            assert_eq!(r.worst(CapacityModel::P8), Verdict::MayOverflow, "{name}");
        }
    }

    #[test]
    fn unknown_workload_is_none() {
        assert!(analyze_workload("nope", Scale::Sim).is_none());
    }

    #[test]
    fn analyze_all_covers_the_suite_deterministically() {
        let a = analyze_all(Scale::Sim);
        let b = analyze_all(Scale::Sim);
        assert_eq!(a.len(), 10);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.stats(), y.stats());
            assert_eq!(x.diagnostics, y.diagnostics);
        }
    }
}
