//! `trace-export`: the `hintm trace --out` path for the ten workloads ×
//! P8 × hints {off, full}: a run under a `Recording` sink at the CLI's
//! default retained-event cap, then the Chrome JSON and binlog files.

use crate::golden::stats_fingerprint;
use crate::layers::analyze_cell;
use crate::spans::SpanId;
use crate::{Ctx, Measured, MIN_PASSES, MIN_SAMPLES, SETUP_REPEATS};
use hintm::cli::TraceArgs;
use hintm::{chrome_trace, write_binlog, HintMode, HtmKind, RunReport, WORKLOAD_NAMES};
use hintm_runner::{Cell, SweepSpec};
use std::path::Path;
use std::time::Instant;

/// One exported cell: its report, stream digest, event and byte counts.
struct Exported {
    report: RunReport,
    digest: u64,
    events: u64,
    bytes: u64,
}

/// Traces `cell` and writes both files under `dir`, as `hintm trace`
/// does, with spans around the run and each exporter.
fn export(
    ctx: &mut Ctx,
    cell: &Cell,
    dir: &Path,
    idx: u32,
    parent: SpanId,
) -> Result<Exported, String> {
    let cap = TraceArgs::default().events;
    let sp = &mut ctx.spans;
    let (report, rec) = sp
        .time("export.run_traced", parent, idx, || cell.run_traced(cap))
        .map_err(|e| e.to_string())?;
    let events = rec.events();
    let io = |e: std::io::Error| format!("{}: write trace: {e}", cell.label());
    let json = dir.join(format!("{idx}.trace.json"));
    let json_bytes = sp.time("trace.chrome", parent, idx, || {
        let text = chrome_trace(&events);
        std::fs::write(&json, &text).map(|_| text.len())
    });
    let bin = dir.join(format!("{idx}.trace.bin"));
    let bin_bytes = sp.time("trace.binlog", parent, idx, || {
        let bytes = write_binlog(&events);
        std::fs::write(&bin, &bytes).map(|_| bytes.len())
    });
    let summary = rec.summary();
    Ok(Exported {
        report,
        digest: rec.digest(),
        events: summary.events,
        bytes: (json_bytes.map_err(io)? + bin_bytes.map_err(io)?) as u64,
    })
}

/// Checks one export: identical on every pass and, at seed 42 with hints
/// off, equal to both blessed columns.
fn verify(ctx: &mut Ctx, cell: &Cell, e: &Exported, first: &mut Option<(u64, u64)>) {
    let got = (e.digest, stats_fingerprint(&e.report));
    match *first {
        None => {
            *first = Some(got);
            ctx.check_golden(cell, &e.report, Some(e.digest));
        }
        Some(expected) => ctx.check(got == expected, || {
            format!("{}: trace or report changed between passes", cell.label())
        }),
    }
}

pub fn run(ctx: &mut Ctx) -> Result<Measured, String> {
    let mut m = Measured::default();
    let dir = ctx.work.join("traces");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;

    // Set-up: one untimed traced cell per workload (P8, hints off, seed
    // 42), each checked against both blessed columns.
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        for (i, w) in WORKLOAD_NAMES.iter().enumerate() {
            let warm = Cell::new(w);
            let e = export(ctx, &warm, &dir, i as u32, SpanId::NONE)?;
            ctx.check_golden(&warm, &e.report, Some(e.digest));
        }
        m.setup_s.push(t.elapsed().as_secs_f64());
    }

    let cells = SweepSpec::new()
        .workloads(WORKLOAD_NAMES.iter().copied())
        .htm(HtmKind::P8)
        .hints([HintMode::Off, HintMode::Full])
        .seed(ctx.seed)
        .cells();
    let mut first = vec![None; cells.len()];
    let budget = ctx.budget(if ctx.traced { 0.5 } else { 1.0 });
    let min_passes = MIN_PASSES.max(MIN_SAMPLES.div_ceil(cells.len()));
    let started = Instant::now();
    for pass in 1.. {
        for (i, cell) in cells.iter().enumerate() {
            let t = Instant::now();
            let exported = export(ctx, cell, &dir, i as u32, SpanId::NONE);
            let took = t.elapsed();
            let err = exported.map(|e| {
                verify(ctx, cell, &e, &mut first[i]);
                m.record(i, 1, e.report.stats.cache.accesses, took);
            });
            ctx.attempt(err.err());
        }
        let enough = ctx.traced || pass >= min_passes;
        if enough && started.elapsed() >= budget {
            break;
        }
    }

    if ctx.traced {
        let untraced_ms = m.mean_ms();
        ctx.spans.enable();
        for (i, cell) in cells.iter().enumerate() {
            let idx = i as u32;
            let root = ctx.spans.open("cell", SpanId::NONE, idx);
            let exported = export(ctx, cell, &dir, idx, root);
            let analyzed = exported.and_then(|e| {
                verify(ctx, cell, &e, &mut first[i]);
                ctx.count("trace.events", e.events as f64);
                ctx.count("trace.bytes", e.bytes as f64);
                analyze_cell(ctx, cell, idx, root)
            });
            ctx.spans.close(root);
            ctx.attempt(analyzed.err());
        }
        let traced_ms: f64 = ["export.run_traced", "trace.chrome", "trace.binlog"]
            .iter()
            .map(|name| ctx.spans.mean_ms(name))
            .sum();
        ctx.count("bench.trace_overhead", traced_ms / untraced_ms - 1.0);
    }
    Ok(m)
}
