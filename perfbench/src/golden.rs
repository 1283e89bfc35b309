//! The blessed fingerprints of `tests/golden/digest_table.inc`, compiled
//! in (never written): per workload, `(trace_digest, stats_fingerprint)`
//! for each of the eight models, all at seed 42 with hints off.

use crate::MODELS;
use hintm::{HtmKind, RunReport};
use hintm_trace::Fnv64;

// `BLESSED`, in `MODELS` column order.
include!("../../tests/golden/digest_table.inc");

pub struct Golden {
    pub rows: Vec<(&'static str, [(u64, u64); 8])>,
}

impl Golden {
    /// The blessed table.
    pub fn blessed() -> Golden {
        Golden {
            rows: BLESSED.to_vec(),
        }
    }

    /// `(trace_digest, stats_fingerprint)` blessed for `workload` × `htm`.
    pub fn expect(&self, workload: &str, htm: HtmKind) -> Option<(u64, u64)> {
        let col = MODELS.iter().position(|&m| m == htm)?;
        self.rows
            .iter()
            .find(|(name, _)| *name == workload)
            .map(|(_, row)| row[col])
    }
}

/// The stats fingerprint of the digest table: FNV-64 of the report's
/// canonical JSON, taken without a trace summary (as an untraced run).
pub fn stats_fingerprint(report: &RunReport) -> u64 {
    if report.trace.is_none() {
        return Fnv64::hash(report.to_json().as_bytes());
    }
    let mut plain = report.clone();
    plain.trace = None;
    Fnv64::hash(plain.to_json().as_bytes())
}
