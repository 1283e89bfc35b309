//! Remote worker mode: `hintm serve --join HOST:PORT`.
//!
//! A join worker is a second process (or machine) that drains a running
//! daemon's queue over HTTP: it polls `POST /claim`, executes each
//! claimed cell with the local [`Runner`] (cache consult + panic
//! isolation included), and posts the outcome back to
//! `POST /sweeps/{job}/cells/{idx}/result`. The daemon publishes posted
//! reports into its own cache, so the cross-job deduplication guarantees
//! hold no matter which side executed a cell.

use hintm_runner::{cell_from_json, CellOutcome, Runner};
use std::io;
use std::time::Duration;

use crate::api::result_to_json;
use crate::http::client_request;
use crate::queue::Claim;

/// How long a join worker sleeps after an empty `/claim` poll.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// What a join worker did before the daemon shut down.
#[derive(Clone, Copy, Debug, Default)]
pub struct JoinSummary {
    /// Cells executed (simulated or served from this worker's cache).
    pub completed: usize,
    /// Cells whose execution crashed (still reported to the daemon).
    pub crashed: usize,
}

fn invalid(msg: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

/// Runs the join loop against the daemon at `addr` until it signals
/// shutdown (HTTP 410 on `/claim`).
///
/// # Errors
///
/// Returns transport errors talking to the daemon, or `InvalidData` if
/// it sends a malformed claim or rejects a posted result.
pub fn join_loop(addr: &str, runner: &Runner) -> io::Result<JoinSummary> {
    let mut summary = JoinSummary::default();
    loop {
        let (status, body) = client_request(addr, "POST", "/claim", b"")?;
        let claim = match status {
            200 => parse_claim(&body).map_err(invalid)?,
            204 => {
                std::thread::sleep(POLL_INTERVAL);
                continue;
            }
            410 => return Ok(summary),
            other => return Err(invalid(format!("/claim returned HTTP {other}"))),
        };

        let result = runner.execute_cell(&claim.cell);
        if matches!(result.outcome, CellOutcome::Crashed(_)) {
            summary.crashed += 1;
        }
        let path = format!("/sweeps/{}/cells/{}/result", claim.job, claim.cell_index);
        let body = result_to_json(&result).to_string();
        let (status, _) = client_request(addr, "POST", &path, body.as_bytes())?;
        if status != 200 {
            return Err(invalid(format!("result post rejected: HTTP {status}")));
        }
        summary.completed += 1;
    }
}

/// Parses a `/claim` 200 body back into a [`Claim`].
fn parse_claim(body: &[u8]) -> Result<Claim, String> {
    let text = std::str::from_utf8(body).map_err(|_| "claim body is not UTF-8".to_string())?;
    let j = hintm::Json::parse(text).map_err(|e| e.to_string())?;
    let job = j
        .field("job")
        .and_then(|v| v.as_u64())
        .map_err(|e| e.to_string())? as usize;
    let cell_index = j
        .field("cell_index")
        .and_then(|v| v.as_u64())
        .map_err(|e| e.to_string())? as usize;
    let cell = cell_from_json(j.field("cell").map_err(|e| e.to_string())?)?;
    Ok(Claim {
        job,
        cell_index,
        cell,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::claim_to_json;
    use hintm_runner::Cell;

    #[test]
    fn claim_wire_format_round_trips() {
        let claim = Claim {
            job: 3,
            cell_index: 7,
            cell: Cell::new("kmeans").seed(9),
        };
        let body = claim_to_json(&claim).to_string();
        let back = parse_claim(body.as_bytes()).unwrap();
        assert_eq!((back.job, back.cell_index), (3, 7));
        assert_eq!(back.cell, claim.cell);
    }

    #[test]
    fn malformed_claims_are_rejected() {
        assert!(parse_claim(b"{\"job\":1}").is_err());
        assert!(parse_claim(b"not json").is_err());
    }
}
