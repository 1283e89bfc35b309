//! JSON ↔ domain mapping for the HTTP API.
//!
//! The wire sweep spec mirrors `hintm sweep`'s flags field-for-field:
//!
//! ```json
//! {
//!   "workloads": ["kmeans", "ssca2"],
//!   "htm": ["p8", "infcap"],
//!   "hints": ["off", "full"],
//!   "seeds": [1, 2],
//!   "scale": "sim",
//!   "threads": 8,
//!   "smt2": false,
//!   "preserve": false
//! }
//! ```
//!
//! Both are generated from the knob table in [`hintm::cell`], which
//! lists every field (the heap-placement axis, for one). Every field is
//! optional with the same defaults as the CLI, and unknown fields
//! are rejected so typos fail loudly instead of silently sweeping the
//! wrong grid. Cells on the claim/complete wire use the same JSON object
//! shape as the sweep manifest ([`hintm::cell_to_json`] /
//! [`hintm::cell_from_json`]).

use hintm::{cell_to_json, Json, RunReport};
use hintm_runner::{Cell, CellOutcome, CellResult, SweepResult, SweepSpec};
use std::time::Duration;

use crate::queue::{CellStatus, JobSnapshot};

/// Builds the cell grid for a `POST /sweeps` body.
///
/// # Errors
///
/// Returns a description of the first malformed, unknown, or invalid
/// field — including workload names that are not registered and thread
/// counts or color strides no cell could run with.
pub fn cells_from_spec_json(j: &Json) -> Result<Vec<Cell>, String> {
    SweepSpec::from_json(j)?.checked_cells()
}

/// Renders a claim as the `/claim` response body.
pub fn claim_to_json(claim: &crate::queue::Claim) -> Json {
    Json::Obj(vec![
        ("job".into(), Json::u64(claim.job as u64)),
        ("cell_index".into(), Json::u64(claim.cell_index as u64)),
        ("cell".into(), cell_to_json(&claim.cell)),
    ])
}

/// Renders one job snapshot as the `GET /sweeps/{id}` body: totals plus
/// per-cell progress.
pub fn job_to_json(snap: &JobSnapshot) -> Json {
    let cells = snap
        .cells
        .iter()
        .zip(&snap.status)
        .zip(&snap.walls)
        .map(|((cell, status), wall)| {
            let mut fields = vec![
                ("key".into(), Json::Str(cell.key())),
                ("label".into(), Json::Str(cell.label())),
                (
                    "state".into(),
                    Json::Str(
                        match status {
                            CellStatus::Pending => "pending",
                            CellStatus::Running => "running",
                            CellStatus::Done { .. } => "done",
                            CellStatus::Crashed(_) => "crashed",
                        }
                        .into(),
                    ),
                ),
            ];
            if let CellStatus::Done { cached } = status {
                fields.push(("cached".into(), Json::Bool(*cached)));
                fields.push(("wall_ms".into(), Json::u64(wall.as_millis() as u64)));
            }
            if let CellStatus::Crashed(msg) = status {
                fields.push(("error".into(), Json::Str(msg.clone())));
            }
            Json::Obj(fields)
        })
        .collect();
    Json::Obj(vec![
        ("id".into(), Json::u64(snap.id as u64)),
        ("total".into(), Json::u64(snap.cells.len() as u64)),
        ("finished".into(), Json::u64(snap.finished as u64)),
        ("cached".into(), Json::u64(snap.cached as u64)),
        ("crashed".into(), Json::u64(snap.crashed as u64)),
        ("complete".into(), Json::Bool(snap.complete())),
        ("wall_ms".into(), Json::u64(snap.wall.as_millis() as u64)),
        ("cells".into(), Json::Arr(cells)),
    ])
}

/// Reassembles a completed job's results into a [`SweepResult`], so the
/// report endpoints reuse the exact CSV/JSON rendering `hintm sweep`
/// writes — byte-identical output for identical specs.
pub fn sweep_result_from(results: Vec<CellResult>, wall: Duration, jobs: usize) -> SweepResult {
    let cache_hits = results.iter().filter(|r| r.cached).count();
    let crashed = results
        .iter()
        .filter(|r| matches!(r.outcome, CellOutcome::Crashed(_)))
        .count();
    SweepResult {
        executed: results.len() - cache_hits - crashed,
        cache_hits,
        crashed,
        cells: results,
        wall,
        jobs,
    }
}

/// Renders a completed-cell result as the `/complete` POST body a remote
/// worker sends back.
pub fn result_to_json(result: &CellResult) -> Json {
    let mut fields = vec![
        ("cached".into(), Json::Bool(result.cached)),
        ("wall_ms".into(), Json::u64(result.wall.as_millis() as u64)),
    ];
    match &result.outcome {
        CellOutcome::Done(report) => {
            fields.push(("report".into(), report.to_json_value()));
        }
        CellOutcome::Crashed(msg) => fields.push(("error".into(), Json::Str(msg.clone()))),
    }
    Json::Obj(fields)
}

/// Parses a `/complete` body back into the outcome for `cell`.
///
/// # Errors
///
/// Returns a description of the first missing or malformed field.
pub fn result_from_json(cell: &Cell, j: &Json) -> Result<CellResult, String> {
    let cached = match j.field("cached").map_err(|e| e.to_string())? {
        Json::Bool(b) => *b,
        _ => return Err("`cached` must be a boolean".into()),
    };
    let wall = Duration::from_millis(
        j.field("wall_ms")
            .and_then(|v| v.as_u64())
            .map_err(|e| e.to_string())?,
    );
    let outcome = if let Some(err) = j.get("error") {
        CellOutcome::Crashed(err.as_str().map_err(|e| e.to_string())?.to_string())
    } else {
        let report = RunReport::from_json_value(j.field("report").map_err(|e| e.to_string())?)
            .map_err(|e| e.to_string())?;
        CellOutcome::Done(Box::new(report))
    };
    Ok(CellResult {
        cell: cell.clone(),
        outcome,
        wall,
        cached,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hintm::WORKLOAD_NAMES;

    #[test]
    fn empty_spec_defaults_to_the_full_registry() {
        let cells = cells_from_spec_json(&Json::parse("{}").unwrap()).unwrap();
        assert_eq!(cells.len(), WORKLOAD_NAMES.len());
    }

    #[test]
    fn spec_rejects_bad_input() {
        for body in [
            r#"{"workloads":["not-a-workload"]}"#,
            r#"{"workloads":"kmeans"}"#,
            r#"{"htm":["weird"]}"#,
            r#"{"hints":"off"}"#,
            r#"{"seeds":["x"]}"#,
            r#"{"seed":1}"#,
            r#"{"scale":"huge"}"#,
            r#"{"scale":["sim"]}"#,
            r#"{"exec":"interp"}"#,
            r#"{"sim_threads":2}"#,
            r#"{"record_tx_sizes":true}"#,
            r#"{"smt2":"yes"}"#,
            r#"{"threads":"4"}"#,
            r#"{"threads":0}"#,
            r#"{"threads":9}"#,
            r#"{"threads":17,"smt2":true}"#,
            r#"{"frobnicate":1}"#,
            r#"[1,2]"#,
        ] {
            let j = Json::parse(body).unwrap();
            assert!(cells_from_spec_json(&j).is_err(), "accepted {body}");
        }
        let j = Json::parse(r#"{"workloads":["kmeans"],"threads":16,"smt2":true}"#).unwrap();
        assert_eq!(cells_from_spec_json(&j).unwrap()[0].threads, Some(16));
    }

    #[test]
    fn result_round_trips_including_crashes() {
        let cell = Cell::new("ssca2");
        let report = cell.run().unwrap();
        let ok = CellResult {
            cell: cell.clone(),
            outcome: CellOutcome::Done(Box::new(report)),
            wall: Duration::from_millis(12),
            cached: true,
        };
        let back = result_from_json(&cell, &result_to_json(&ok)).unwrap();
        assert!(back.cached);
        assert_eq!(back.wall, Duration::from_millis(12));
        assert_eq!(
            back.report().unwrap().to_json(),
            ok.report().unwrap().to_json()
        );

        let crashed = CellResult {
            cell: cell.clone(),
            outcome: CellOutcome::Crashed("boom".into()),
            wall: Duration::ZERO,
            cached: false,
        };
        let back = result_from_json(&cell, &result_to_json(&crashed)).unwrap();
        assert!(matches!(back.outcome, CellOutcome::Crashed(ref m) if m == "boom"));
    }
}
