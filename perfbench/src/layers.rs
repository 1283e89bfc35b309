//! Per-layer measurement of one simulated cell, timed from outside the
//! engine around calls into each crate's public functions.
//!
//! `cache`, `htm` and `vm` are timed by replay: the cell is recorded once
//! with a benchmark-owned [`Capture`] sink, and its events are fed into a
//! fresh `Hierarchy`, one `HtmThread` per hardware thread, and a fresh
//! `VmSystem`. Replays are stand-alone estimates: they need not sum to
//! the engine's run time.

use crate::spans::SpanId;
use crate::Ctx;
use hintm::cli::TraceArgs;
use hintm::{
    by_name, AbortKind, Recording, RunReport, RunStats, Simulator, TraceEvent, TraceSink, Workload,
};
use hintm_cache::{AccessOutcome, CacheStats, Hierarchy};
use hintm_htm::{HtmConfig, HtmThread, TxPhase};
use hintm_runner::Cell;
use hintm_types::{AccessKind, BlockAddr, CoreId, MachineConfig, ThreadId};
use hintm_vm::{VmStats, VmSystem};

/// Keeps every engine event of one run, accesses included.
#[derive(Default)]
pub struct Capture(pub Vec<TraceEvent>);

impl TraceSink for Capture {
    fn event(&mut self, ev: &TraceEvent) {
        self.0.push(*ev);
    }
}

/// The accesses that reached the cache hierarchy, in order, as
/// `(core, block, kind)`. The engine emits `Access` before translating;
/// when that translation shoots down a page the accessing transaction
/// had touched safely, the transaction page-mode aborts and the access
/// never reaches the cache. Such an access is followed by its own
/// `Shootdown` and its own `PageMode` abort, which is how it is dropped.
pub fn cache_accesses(events: &[TraceEvent], smt: usize) -> Vec<(CoreId, BlockAddr, AccessKind)> {
    let mut out = Vec::new();
    let mut pending: Option<(ThreadId, BlockAddr, AccessKind)> = None;
    let mut shot_down = false;
    let core = |t: ThreadId| CoreId(t.0 / smt as u32);
    for ev in events {
        match *ev {
            TraceEvent::Access { thread, access, .. } => {
                if let Some((t, b, k)) = pending.take() {
                    out.push((core(t), b, k));
                }
                pending = Some((thread, access.addr.block(), access.kind));
                shot_down = false;
            }
            TraceEvent::Shootdown { thread, .. } => {
                shot_down |= pending.is_some_and(|(t, _, _)| t == thread);
            }
            TraceEvent::TxAbort {
                thread,
                kind: AbortKind::PageMode,
                ..
            } if shot_down && pending.is_some_and(|(t, _, _)| t == thread) => pending = None,
            _ => {}
        }
    }
    out.extend(pending.map(|(t, b, k)| (core(t), b, k)));
    out
}

/// Replays the accesses into a fresh hierarchy.
pub fn replay_cache(
    accesses: &[(CoreId, BlockAddr, AccessKind)],
    machine: &MachineConfig,
) -> CacheStats {
    let mut h = Hierarchy::new(machine);
    let mut out = AccessOutcome::default();
    for &(core, block, kind) in accesses {
        h.access_into(core, block, kind, &mut out);
    }
    h.stats()
}

/// Counts from the HTM replay.
#[derive(Default)]
pub struct HtmReplay {
    pub tracked: u64,
    pub commits: u64,
    pub aborts: u64,
    pub aborts_capacity: u64,
    pub fallback_commits: u64,
}

/// Drives one `HtmThread` per hardware thread through the recorded
/// transaction lifecycle. An access is tracked unless the static hint
/// marks it safe under a static hint mode; the replay cannot see the
/// dynamic page verdicts, so its capacity aborts are an estimate.
pub fn replay_htm(
    events: &[TraceEvent],
    cfg: &HtmConfig,
    threads: usize,
    static_hints: bool,
) -> HtmReplay {
    let mut ts: Vec<HtmThread> = (0..threads).map(|_| HtmThread::new(cfg)).collect();
    for ev in events {
        match *ev {
            TraceEvent::TxBegin { thread, .. } => {
                let t = &mut ts[thread.0 as usize];
                if t.phase() == TxPhase::Idle {
                    t.begin();
                }
            }
            TraceEvent::Access {
                thread,
                access,
                in_tx: true,
                ..
            } => {
                let t = &mut ts[thread.0 as usize];
                let safe = static_hints && access.hint.is_safe();
                if t.is_active() && t.on_access(access.addr.block(), access.kind, safe).is_err() {
                    t.abort(AbortKind::Capacity);
                }
            }
            TraceEvent::TxCommit { thread, .. } => {
                let t = &mut ts[thread.0 as usize];
                if t.is_active() {
                    t.commit();
                }
            }
            TraceEvent::TxAbort { thread, kind, .. } => {
                let t = &mut ts[thread.0 as usize];
                if t.is_active() {
                    t.abort(kind);
                }
            }
            TraceEvent::FallbackAcquire { thread, .. } => {
                let t = &mut ts[thread.0 as usize];
                if t.phase() == TxPhase::Idle {
                    t.enter_fallback();
                }
            }
            TraceEvent::FallbackCommit { thread, .. } => {
                let t = &mut ts[thread.0 as usize];
                if t.phase() == TxPhase::Fallback {
                    t.commit_fallback();
                }
            }
            _ => {}
        }
    }
    let mut r = HtmReplay::default();
    for t in &ts {
        let s = t.stats();
        r.tracked += s.tracked;
        r.commits += s.commits;
        r.aborts += s.total_aborts();
        r.aborts_capacity += s.aborts_of(AbortKind::Capacity);
        r.fallback_commits += s.fallback_commits;
    }
    r
}

/// Translates every recorded access through a fresh VM system.
pub fn replay_vm(
    events: &[TraceEvent],
    machine: &MachineConfig,
    preserve: bool,
    smt: usize,
) -> (u64, VmStats) {
    let mut vm = VmSystem::new(machine, preserve);
    let mut n = 0;
    for ev in events {
        if let TraceEvent::Access { thread, access, .. } = *ev {
            let core = CoreId(thread.0 / smt as u32);
            std::hint::black_box(vm.access(core, thread, access.addr.page(), access.kind));
            n += 1;
        }
    }
    (n, vm.stats())
}

/// Resets the workload and drains its section generator round-robin over
/// its threads, without simulating. Returns the sections generated.
pub fn drain_sections(w: &mut dyn Workload, seed: u64) -> Result<u64, String> {
    const LIMIT: u64 = 100_000_000;
    w.reset(seed);
    let mut live = vec![true; w.num_threads()];
    let mut sections = 0u64;
    while live.iter().any(|&l| l) {
        for (tid, alive) in live.iter_mut().enumerate() {
            if *alive {
                match w.next_section(ThreadId(tid as u32)) {
                    Some(s) => {
                        std::hint::black_box(s);
                        sections += 1;
                    }
                    None => *alive = false,
                }
            }
        }
        if sections > LIMIT {
            return Err(format!("{}: generator did not finish", w.name()));
        }
    }
    Ok(sections)
}

/// Measures every simulation layer of one cell and returns its report
/// (from the untraced run). The same built workload also runs under a
/// `Recording` at the CLI's default event cap, so `sim.run_traced` minus
/// `sim.run` is the trace sink's cost alone. Checks that recording is
/// passive and that the cache replay reaches exactly
/// `RunStats.cache.accesses`.
pub fn analyze_cell(
    ctx: &mut Ctx,
    cell: &Cell,
    idx: u32,
    parent: SpanId,
) -> Result<RunReport, String> {
    let exp = cell.experiment();
    let cfg = exp.sim_config();
    let sp = &mut ctx.spans;
    let mut w = sp
        .time("workloads.build", parent, idx, || {
            by_name(&cell.workload, cell.scale)
        })
        .ok_or_else(|| format!("unknown workload {}", cell.workload))?;
    w.set_alloc_config(hintm::AllocConfig {
        color_stride: cell.alloc_color,
        ..Default::default()
    });
    let sections = sp.time("workloads.gen", parent, idx, || {
        drain_sections(w.as_mut(), cell.seed)
    })?;
    let sim = Simulator::new(cfg.clone());
    let stats: RunStats = sp.time("sim.run", parent, idx, || sim.run(w.as_mut(), cell.seed));
    let mut rec = Recording::new(TraceArgs::default().events);
    let traced = sp.time("sim.run_traced", parent, idx, || {
        sim.run_with_sink(w.as_mut(), cell.seed, &mut rec)
    });
    drop(rec);
    let mut capture = Capture::default();
    let recorded = sp.time("sim.record", parent, idx, || {
        sim.run_with_sink(w.as_mut(), cell.seed, &mut capture)
    });

    let smt = cfg.machine.smt.ways();
    let accesses = cache_accesses(&capture.0, smt);
    let replayed = accesses.len() as u64;
    let cache = sp.time("cache.replay", parent, idx, || {
        replay_cache(&accesses, &cfg.machine)
    });
    drop(accesses);
    let htm = sp.time("htm.replay", parent, idx, || {
        replay_htm(
            &capture.0,
            &cfg.htm,
            w.num_threads(),
            cfg.hint_mode.uses_static(),
        )
    });
    let (vm_accesses, vm) = sp.time("vm.replay", parent, idx, || {
        replay_vm(&capture.0, &cfg.machine, cfg.preserve, smt)
    });
    drop(capture);

    let report = RunReport {
        workload: cell.workload.clone(),
        htm: cell.htm,
        hint_mode: cell.hint,
        stats,
        trace: None,
    };
    let label = cell.label();
    let fingerprint = crate::golden::stats_fingerprint;
    for (sink, stats) in [("Capture", recorded), ("Recording", traced)] {
        let same = fingerprint(&report)
            == fingerprint(&RunReport {
                stats,
                ..report.clone()
            });
        ctx.check(same, || {
            format!("{label}: the {sink} sink changed RunStats")
        });
    }
    ctx.check(replayed == report.stats.cache.accesses, || {
        format!(
            "{label}: cache replay reached {replayed} accesses, RunStats.cache.accesses = {}",
            report.stats.cache.accesses
        )
    });
    ctx.count("cells", 1.0);
    ctx.count("workloads.sections", sections as f64);
    ctx.count("sim.accesses", report.stats.cache.accesses as f64);
    ctx.count("sim.steps", report.stats.steps as f64);
    ctx.count("cache.accesses", replayed as f64);
    ctx.count("cache.l1_hits", cache.l1_hits as f64);
    ctx.count("cache.peer_transfers", cache.peer_transfers as f64);
    ctx.count("cache.mem_fetches", cache.mem_fetches as f64);
    ctx.count("htm.tracked", htm.tracked as f64);
    ctx.count("htm.commits", htm.commits as f64);
    ctx.count("htm.aborts", htm.aborts as f64);
    ctx.count("htm.aborts_capacity", htm.aborts_capacity as f64);
    ctx.count("htm.fallback_commits", htm.fallback_commits as f64);
    ctx.count("vm.accesses", vm_accesses as f64);
    ctx.count("vm.shootdowns", vm.shootdowns as f64);
    ctx.count("vm.page_walks", vm.page_walks as f64);
    Ok(report)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The per-layer metrics of a traced run. Times are means per call (per
/// cell, per request, per report); counts are totals over the cells the
/// run measured. A layer the workload never calls reads 0.
pub fn per_layer(ctx: &Ctx) -> Vec<(&'static str, f64, &'static str)> {
    let s = &ctx.spans;
    let c = |name| ctx.counter(name);
    let (cache_ms, _) = s.total_ms("cache.replay");
    let (htm_ms, _) = s.total_ms("htm.replay");
    let (vm_ms, _) = s.total_ms("vm.replay");
    let engine_self = s.mean_ms("sim.run")
        - s.mean_ms("workloads.gen")
        - s.mean_ms("cache.replay")
        - s.mean_ms("htm.replay")
        - s.mean_ms("vm.replay");
    vec![
        ("workloads.build_ms", s.mean_ms("workloads.build"), "ms"),
        ("workloads.gen_ms", s.mean_ms("workloads.gen"), "ms"),
        ("workloads.sections", c("workloads.sections"), "count"),
        ("sim.run_ms", s.mean_ms("sim.run"), "ms"),
        ("sim.accesses", c("sim.accesses"), "count"),
        ("sim.steps", c("sim.steps"), "count"),
        ("sim.engine_self_ms", engine_self, "ms"),
        ("cache.replay_ms", s.mean_ms("cache.replay"), "ms"),
        (
            "cache.ns_per_access",
            ratio(cache_ms * 1e6, c("cache.accesses")),
            "ns",
        ),
        (
            "cache.l1_hit_ratio",
            ratio(c("cache.l1_hits"), c("cache.accesses")),
            "fraction",
        ),
        ("cache.peer_transfers", c("cache.peer_transfers"), "count"),
        ("cache.mem_fetches", c("cache.mem_fetches"), "count"),
        ("htm.replay_ms", s.mean_ms("htm.replay"), "ms"),
        (
            "htm.ns_per_tracked_access",
            ratio(htm_ms * 1e6, c("htm.tracked")),
            "ns",
        ),
        (
            "htm.commit_ratio",
            ratio(c("htm.commits"), c("htm.commits") + c("htm.aborts")),
            "fraction",
        ),
        ("htm.aborts_capacity", c("htm.aborts_capacity"), "count"),
        ("htm.fallback_commits", c("htm.fallback_commits"), "count"),
        ("vm.replay_ms", s.mean_ms("vm.replay"), "ms"),
        (
            "vm.ns_per_access",
            ratio(vm_ms * 1e6, c("vm.accesses")),
            "ns",
        ),
        ("vm.shootdowns", c("vm.shootdowns"), "count"),
        ("vm.page_walks", c("vm.page_walks"), "count"),
        (
            "trace.sink_ms",
            s.mean_ms("sim.run_traced") - s.mean_ms("sim.run"),
            "ms",
        ),
        ("trace.binlog_ms", s.mean_ms("trace.binlog"), "ms"),
        ("trace.chrome_ms", s.mean_ms("trace.chrome"), "ms"),
        ("trace.events", c("trace.events"), "count"),
        ("trace.bytes", c("trace.bytes"), "bytes"),
        ("runner.store_ms", s.mean_ms("runner.store"), "ms"),
        ("runner.load_us", s.mean_ms("runner.load") * 1e3, "us"),
        ("runner.csv_ms", s.mean_ms("runner.csv"), "ms"),
        ("json.parse_us", s.mean_ms("json.parse") * 1e3, "us"),
        ("json.encode_us", s.mean_ms("json.encode") * 1e3, "us"),
        ("serve.submit_ms", s.mean_ms("serve.submit"), "ms"),
        ("serve.wait_ms", s.mean_ms("serve.wait"), "ms"),
        ("serve.fetch_ms", s.mean_ms("serve.fetch"), "ms"),
        (
            "serve.polls_per_request",
            ratio(c("serve.polls"), c("serve.requests")),
            "count",
        ),
        ("serve.cached_frac", c("serve.cached_frac"), "fraction"),
        (
            "serve.queue_claim_us",
            s.mean_ms("serve.queue_claim") * 1e3,
            "us",
        ),
        (
            "bench.trace_overhead",
            c("bench.trace_overhead"),
            "fraction",
        ),
    ]
}

/// Times `RunReport::to_json` and `RunReport::from_json` on one report
/// and checks that the round trip is exact.
pub fn json_round_trip(ctx: &mut Ctx, report: &RunReport, idx: u32, parent: SpanId) {
    let text = ctx
        .spans
        .time("json.encode", parent, idx, || report.to_json());
    let back = ctx
        .spans
        .time("json.parse", parent, idx, || RunReport::from_json(&text));
    let exact = back.is_ok_and(|b| b.to_json() == text);
    ctx.check(exact, || {
        format!(
            "{}: RunReport JSON round trip is not exact",
            report.workload
        )
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use hintm::HintMode;

    /// The cache replay of a recorded kmeans/P8 run reaches exactly the
    /// run's `RunStats.cache.accesses`, with and without hints.
    #[test]
    fn replayed_accesses_equal_run_stats() {
        for hint in [HintMode::Off, HintMode::Full] {
            let cell = Cell::new("kmeans").hint(hint);
            let cfg = cell.experiment().sim_config();
            let mut w = by_name(&cell.workload, cell.scale).expect("kmeans is registered");
            let mut capture = Capture::default();
            let stats =
                Simulator::new(cfg.clone()).run_with_sink(w.as_mut(), cell.seed, &mut capture);
            let accesses = cache_accesses(&capture.0, cfg.machine.smt.ways());
            assert_eq!(accesses.len() as u64, stats.cache.accesses, "{hint:?}");
            let replayed = replay_cache(&accesses, &cfg.machine);
            assert_eq!(replayed.accesses, stats.cache.accesses, "{hint:?}");
        }
    }
}
