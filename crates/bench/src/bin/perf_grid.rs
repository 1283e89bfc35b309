//! Engine-throughput harness over the pinned perf grid — the bench-side
//! front end for the same measurement `hintm perf` performs, for quick
//! interactive A/B runs while working on the hot path.
//!
//! ```sh
//! cargo run --release -p hintm-bench --bin perf_grid [-- --smoke]
//! HINTM_PERF_REPEAT=9 cargo run --release -p hintm-bench --bin perf_grid
//! ```
//!
//! Prints the per-cell and overall median events/sec without writing or
//! comparing `BENCH_*.json` snapshots; use `hintm perf` for the tracked,
//! threshold-checked version.

use hintm_runner::perf::{full_grid, measure_cell, overall_median, smoke_grid};
use std::process::ExitCode;

fn env_usize(var: &str, default: usize) -> usize {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() -> ExitCode {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let repeat = env_usize("HINTM_PERF_REPEAT", 5);
    let warmup = env_usize("HINTM_PERF_WARMUP", 1);
    let grid = if smoke { smoke_grid() } else { full_grid() };
    println!(
        "perf grid: {} cells, warmup {warmup} + repeat {repeat}",
        grid.len()
    );
    println!(
        "{:<10} {:<7} {:>10} {:>12} {:>12}",
        "workload", "htm", "events", "median ms", "events/sec"
    );
    let mut cells = Vec::with_capacity(grid.len());
    for c in &grid {
        match measure_cell(c, warmup, repeat) {
            Ok(m) => {
                println!(
                    "{:<10} {:<7} {:>10} {:>12.1} {:>12.0}",
                    m.workload,
                    m.htm,
                    m.events,
                    m.wall_ns as f64 / 1e6,
                    m.events_per_sec
                );
                cells.push(m);
            }
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    println!("overall median: {:.0} events/sec", overall_median(&cells));
    ExitCode::SUCCESS
}
