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
//! Every field is optional with the same defaults as the CLI; unknown
//! fields are rejected so typos fail loudly instead of silently sweeping
//! the wrong grid. Cells on the claim/complete wire use the same JSON
//! object shape as the sweep manifest ([`hintm_runner::cell_to_json`]).
//! Older manifests and workers also send the lane-count and
//! execution-tier keys of engine configurations that no longer exist;
//! decoding a cell ignores them.

use hintm::cli::{parse_hints, parse_htm, parse_scale, scale_str};
use hintm::{HintMode, Json, RunReport, WORKLOAD_NAMES};
use hintm_runner::{cell_to_json, Cell, CellOutcome, CellResult, SweepResult, SweepSpec};
use std::time::Duration;

use crate::queue::{CellStatus, JobSnapshot};

/// Parses a hint-mode name: the CLI spellings (`off`, `static`, ...) plus
/// the report `Display` names (`baseline`, `HinTM-st`, ...), so cells
/// serialized from reports round-trip.
fn hint_from_str(v: &str) -> Result<HintMode, String> {
    parse_hints(v).or_else(|e| match v.to_ascii_lowercase().as_str() {
        "baseline" => Ok(HintMode::Off),
        "hintm-st" => Ok(HintMode::Static),
        "hintm-dyn" => Ok(HintMode::Dynamic),
        "hintm" => Ok(HintMode::Full),
        _ => Err(e.to_string()),
    })
}

fn str_items(j: &Json, field: &str) -> Result<Vec<String>, String> {
    j.as_arr()
        .map_err(|_| format!("`{field}` must be an array of strings"))?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_string)
                .map_err(|_| format!("`{field}` must be an array of strings"))
        })
        .collect()
}

/// Builds the cell grid for a `POST /sweeps` body.
///
/// # Errors
///
/// Returns a description of the first malformed, unknown, or invalid
/// field — including workload names that are not registered.
pub fn cells_from_spec_json(j: &Json) -> Result<Vec<Cell>, String> {
    let obj = match j {
        Json::Obj(fields) => fields,
        _ => return Err("sweep spec must be a JSON object".into()),
    };
    let mut spec = SweepSpec::new();
    for (name, value) in obj {
        match name.as_str() {
            "workloads" => {
                for w in str_items(value, "workloads")? {
                    if !WORKLOAD_NAMES.contains(&w.as_str()) {
                        return Err(format!("unknown workload `{w}`"));
                    }
                    spec = spec.workload(&w);
                }
            }
            "htm" => {
                for h in str_items(value, "htm")? {
                    spec = spec.htm(parse_htm(&h).map_err(|e| e.to_string())?);
                }
            }
            "hints" => {
                for h in str_items(value, "hints")? {
                    spec = spec.hint(hint_from_str(&h)?);
                }
            }
            "seeds" => {
                let seeds = value
                    .as_arr()
                    .map_err(|_| "`seeds` must be an array of integers".to_string())?;
                for s in seeds {
                    spec = spec.seed(s.as_u64().map_err(|_| "bad seed".to_string())?);
                }
            }
            "scale" => {
                let s = value.as_str().map_err(|_| "`scale` must be a string")?;
                spec = spec.scale(parse_scale(s).map_err(|e| e.to_string())?);
            }
            "threads" => {
                if !matches!(value, Json::Null) {
                    let t = value.as_u64().map_err(|_| "`threads` must be an integer")?;
                    spec = spec.threads(t as usize);
                }
            }
            "smt2" => spec = spec.smt2(as_bool(value, "smt2")?),
            "preserve" => spec = spec.preserve(as_bool(value, "preserve")?),
            "alloc_colors" => {
                let strides = value
                    .as_arr()
                    .map_err(|_| "`alloc_colors` must be an array of integers".to_string())?;
                for s in strides {
                    spec = spec.alloc_color(s.as_u64().map_err(|_| "bad alloc color".to_string())?);
                }
            }
            other => return Err(format!("unknown sweep spec field `{other}`")),
        }
    }
    let cells = spec.cells();
    if cells.is_empty() {
        return Err("sweep spec enumerates zero cells".into());
    }
    Ok(cells)
}

fn as_bool(j: &Json, field: &str) -> Result<bool, String> {
    match j {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("`{field}` must be a boolean")),
    }
}

/// Rebuilds a [`Cell`] from its [`cell_to_json`] object (the claim wire
/// format).
///
/// # Errors
///
/// Returns a description of the first missing or malformed field.
pub fn cell_from_json(j: &Json) -> Result<Cell, String> {
    let str_field = |name: &str| -> Result<&str, String> {
        j.field(name)
            .and_then(|v| v.as_str())
            .map_err(|e| e.to_string())
    };
    let bool_field = |name: &str| -> Result<bool, String> {
        match j.field(name).map_err(|e| e.to_string())? {
            Json::Bool(b) => Ok(*b),
            _ => Err(format!("`{name}` must be a boolean")),
        }
    };
    let mut cell = Cell::new(str_field("workload")?)
        .htm(parse_htm(str_field("htm")?).map_err(|e| e.to_string())?)
        .hint(hint_from_str(str_field("hints")?)?)
        .scale(parse_scale(str_field("scale")?).map_err(|e| e.to_string())?)
        .seed(
            j.field("seed")
                .and_then(|v| v.as_u64())
                .map_err(|e| e.to_string())?,
        )
        .smt2(bool_field("smt2")?)
        .preserve(bool_field("preserve")?)
        .record_tx_sizes(bool_field("record_tx_sizes")?)
        .profile_sharing(bool_field("profile_sharing")?);
    match j.field("threads").map_err(|e| e.to_string())? {
        Json::Null => {}
        v => cell = cell.threads(v.as_u64().map_err(|e| e.to_string())? as usize),
    }
    // Absent on pre-placement manifests: those cells used the packed
    // default layout.
    if let Some(v) = j.get("alloc_color") {
        cell = cell.alloc_color(v.as_u64().map_err(|e| e.to_string())?);
    }
    Ok(cell)
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

/// The canonical name of a cell's scale (re-exported for handlers).
pub fn cell_scale_str(cell: &Cell) -> &'static str {
    scale_str(cell.scale)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hintm::{HtmKind, Scale};

    #[test]
    fn spec_json_mirrors_the_cli_axes() {
        let j = Json::parse(
            r#"{"workloads":["kmeans","ssca2"],"htm":["p8","infcap"],
                "hints":["off","full"],"seeds":[1,2],"scale":"large",
                "threads":4,"smt2":true,"preserve":true}"#,
        )
        .unwrap();
        let cells = cells_from_spec_json(&j).unwrap();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        assert!(cells
            .iter()
            .all(|c| { c.scale == Scale::Large && c.threads == Some(4) && c.smt2 && c.preserve }));
        // Same grid the CLI would enumerate.
        let cli = SweepSpec::new()
            .workloads(["kmeans", "ssca2"])
            .htms([HtmKind::P8, HtmKind::InfCap])
            .hints([HintMode::Off, HintMode::Full])
            .seeds([1, 2])
            .scale(Scale::Large)
            .threads(4)
            .smt2(true)
            .preserve(true)
            .cells();
        assert_eq!(cells, cli);
    }

    #[test]
    fn empty_spec_defaults_to_the_full_registry() {
        let cells = cells_from_spec_json(&Json::parse("{}").unwrap()).unwrap();
        assert_eq!(cells.len(), WORKLOAD_NAMES.len());
    }

    #[test]
    fn spec_rejects_bad_input() {
        for body in [
            r#"{"workloads":["not-a-workload"]}"#,
            r#"{"htm":["weird"]}"#,
            r#"{"hints":"off"}"#,
            r#"{"seeds":["x"]}"#,
            r#"{"scale":"huge"}"#,
            r#"{"exec":"interp"}"#,
            r#"{"smt2":"yes"}"#,
            r#"{"frobnicate":1}"#,
            r#"[1,2]"#,
        ] {
            let j = Json::parse(body).unwrap();
            assert!(cells_from_spec_json(&j).is_err(), "accepted {body}");
        }
    }

    #[test]
    fn cell_round_trips_through_json() {
        let cells = [
            Cell::new("kmeans"),
            Cell::new("labyrinth")
                .htm(HtmKind::L1Tm)
                .hint(HintMode::Dynamic)
                .scale(Scale::Large)
                .seed(7)
                .threads(16)
                .smt2(true)
                .preserve(true),
        ];
        for cell in &cells {
            let back = cell_from_json(&cell_to_json(cell)).unwrap();
            assert_eq!(&back, cell);
            assert_eq!(back.key(), cell.key());
        }
    }

    #[test]
    fn cell_json_with_removed_engine_keys_still_decodes() {
        // A cell as manifests and claim wires carried it while the engine
        // still had generation lanes and a compiled tier: it decodes to
        // the same cell, with the same key, and re-encodes without the
        // two removed keys.
        let old = Json::parse(
            r#"{"workload":"kmeans","htm":"P8","hints":"baseline","scale":"sim",
                "seed":42,"threads":4,"sim_threads":8,"exec":"compiled",
                "smt2":false,"preserve":false,"alloc_color":0,
                "record_tx_sizes":false,"profile_sharing":false}"#,
        )
        .unwrap();
        let cell = Cell::new("kmeans").threads(4);
        let back = cell_from_json(&old).unwrap();
        assert_eq!(back, cell);
        assert_eq!(back.key(), cell.key());
        let (Json::Obj(old_fields), Json::Obj(new_fields)) = (&old, &cell_to_json(&back)) else {
            panic!("cells encode as objects");
        };
        assert_eq!(new_fields.len(), old_fields.len() - 2);
        assert!(new_fields.iter().all(|f| old_fields.contains(f)));
    }

    #[test]
    fn every_hint_display_name_parses_back() {
        for mode in [
            HintMode::Off,
            HintMode::Static,
            HintMode::Dynamic,
            HintMode::Full,
        ] {
            assert_eq!(hint_from_str(&mode.to_string()).unwrap(), mode);
        }
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
