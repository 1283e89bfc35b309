//! The HinTM benchmark: runs one named workload in-process through the
//! crates' public APIs, checks its outputs, and prints every metric with
//! its unit. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-warm|trace-export \
//!     [--seed 42] [--seconds 30] [--trace 0|1]
//! ```
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
//! workload with spans around the calls into each layer and prints the
//! per-layer metrics instead, plus the tracing overhead against an
//! untraced phase of the same run. See `perfbench/README.md` for the
//! metric definitions and the layer → metric → workload map.

mod golden;
mod layers;
mod serve_warm;
mod spans;
mod trace_export;

use golden::Golden;
use hintm::{HintMode, HtmKind, Json, RunReport, WORKLOAD_NAMES};
use hintm_runner::{Cell, SweepSpec};
use spans::Spans;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// The eight HTM models every grid crosses.
pub const MODELS: [HtmKind; 8] = [
    HtmKind::P8,
    HtmKind::P8S,
    HtmKind::L1Tm,
    HtmKind::InfCap,
    HtmKind::Rot,
    HtmKind::LogTm,
    HtmKind::Lrws,
    HtmKind::PStretch,
];

/// The seed of the blessed digest table.
pub const GOLDEN_SEED: u64 = 42;

/// How many times each workload repeats its set-up; `setup_s` is the
/// median, so one slow first touch of the host does not set it.
pub const SETUP_REPEATS: usize = 5;

/// Percentiles need this many samples; p90 then has ten beyond it.
pub const MIN_SAMPLES: usize = 100;

/// Scratch space, relative to the repository root the benchmark runs in.
const WORK_DIR: &str = "perfbench/.work";

/// Every operation runs at least this often, for its median.
pub const MIN_PASSES: usize = 3;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    ServeWarm,
    TraceExport,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "serve-warm" => Some(Workload::ServeWarm),
            "trace-export" => Some(Workload::TraceExport),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::ServeWarm => "serve-warm",
            Workload::TraceExport => "trace-export",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ServeWarm,
        seed: GOLDEN_SEED,
        seconds: 30.0,
        trace: false,
    };
    let mut workload = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "bad --seconds")?;
                if !args.seconds.is_finite() || args.seconds <= 0.0 {
                    return Err("--seconds must be a positive number".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// State shared by every workload: settings, the span recorder, the
/// output checks and the failure count.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub golden: Golden,
    /// Scratch directory of this run; removed at exit.
    pub work: PathBuf,
    pub spans: Spans,
    /// Layer counters of the traced run, by metric name.
    pub counters: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub mismatches: Vec<String>,
}

impl Ctx {
    pub fn new(seed: u64, seconds: f64, traced: bool, work: PathBuf) -> Ctx {
        Ctx {
            seed,
            seconds,
            traced,
            golden: Golden::blessed(),
            work,
            spans: Spans::new(),
            counters: Vec::new(),
            attempted: 0,
            failed: 0,
            mismatches: Vec::new(),
        }
    }

    /// The run's exit code: 1 once any output check failed.
    pub fn exit_code(&self) -> i32 {
        if self.mismatches.is_empty() {
            0
        } else {
            1
        }
    }

    /// Records an output check; a false `ok` makes the run incorrect.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("MISMATCH: {msg}");
            self.mismatches.push(msg);
        }
    }

    /// Checks a seed-42 hints-off report (and, when given, its trace
    /// stream digest) against the blessed table. Other cells pass
    /// through unchecked.
    pub fn check_golden(&mut self, cell: &Cell, report: &RunReport, trace_digest: Option<u64>) {
        if cell.seed != GOLDEN_SEED || cell.hint != HintMode::Off {
            return;
        }
        let Some((trace, stats)) = self.golden.expect(&cell.workload, cell.htm) else {
            return self.check(false, || format!("{}: no golden row", cell.label()));
        };
        let got = golden::stats_fingerprint(report);
        self.check(got == stats, || {
            format!(
                "{}: stats fingerprint {got:016x}, blessed {stats:016x}",
                cell.label()
            )
        });
        if let Some(got) = trace_digest {
            self.check(got == trace, || {
                format!(
                    "{}: trace digest {got:016x}, blessed {trace:016x}",
                    cell.label()
                )
            });
        }
    }

    /// Counts one attempted operation, failed when `err` is set.
    pub fn attempt(&mut self, err: Option<String>) {
        self.attempted += 1;
        if let Some(e) = err {
            eprintln!("FAILED: {e}");
            self.failed += 1;
        }
    }

    /// Adds `v` to the layer counter `name`.
    pub fn count(&mut self, name: &'static str, v: f64) {
        match self.counters.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += v,
            None => self.counters.push((name, v)),
        }
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| *v)
    }

    /// The time budget of a phase taking `share` of `--seconds`.
    pub fn budget(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }
}

/// One operation of a pass (a cell, or a request) and its latency on
/// every pass.
#[derive(Clone, Default)]
pub struct Slot {
    /// Cells the operation delivers.
    pub cells: u64,
    /// Σ `RunStats.cache.accesses` over those cells.
    pub accesses: u64,
    /// Latency of each pass, in ms.
    pub ms: Vec<f64>,
}

/// What a workload's measurement yields; the end-to-end metrics are
/// derived from it the same way for every workload.
#[derive(Default)]
pub struct Measured {
    /// Seconds of each set-up repetition.
    pub setup_s: Vec<f64>,
    /// The operations of one pass, in order; each pass runs each once.
    pub slots: Vec<Slot>,
}

impl Measured {
    /// Records one operation at position `slot` of its pass.
    pub fn record(&mut self, slot: usize, cells: u64, accesses: u64, took: Duration) {
        if self.slots.len() <= slot {
            self.slots.resize(slot + 1, Slot::default());
        }
        let s = &mut self.slots[slot];
        s.cells = cells;
        s.accesses = accesses;
        s.ms.push(ms(took));
    }

    /// Every latency sample, in ms.
    pub fn samples(&self) -> Vec<f64> {
        self.slots
            .iter()
            .flat_map(|s| s.ms.iter().copied())
            .collect()
    }

    /// Mean latency of an operation, in ms.
    pub fn mean_ms(&self) -> f64 {
        let all = self.samples();
        all.iter().sum::<f64>() / all.len() as f64
    }

    /// Percentile `p` of the latencies, robust to a slow stretch of the
    /// host: the passes are split, in order, into windows of whole passes
    /// holding at least `MIN_SAMPLES` latencies each (the last window
    /// takes the remainder), and this is the median over the windows of
    /// each window's percentile. A run of fewer than `2 * MIN_SAMPLES`
    /// latencies is one window.
    pub fn windowed_percentile(&self, p: f64) -> f64 {
        let passes = self.slots.iter().map(|s| s.ms.len()).min().unwrap_or(0);
        let per_window = MIN_SAMPLES.div_ceil(self.slots.len().max(1));
        let windows = (passes / per_window).max(1);
        let per_window_p: Vec<f64> = (0..windows)
            .map(|w| {
                let end = if w + 1 == windows {
                    passes
                } else {
                    (w + 1) * per_window
                };
                let window: Vec<f64> = self
                    .slots
                    .iter()
                    .flat_map(|s| s.ms[w * per_window..end].iter().copied())
                    .collect();
                percentile(&window, p)
            })
            .collect();
        percentile(&per_window_p, 50.0)
    }

    /// Host seconds of a typical pass: each operation at its median over
    /// the passes, so a slow stretch of the host in one pass does not
    /// set the figure.
    pub fn typical_pass_s(&self) -> f64 {
        self.slots
            .iter()
            .map(|s| percentile(&s.ms, 50.0))
            .sum::<f64>()
            / 1e3
    }
}

/// The `grid`: all ten workloads × all eight models × hints {off, full}.
pub fn grid(seed: u64) -> Vec<Cell> {
    SweepSpec::new()
        .workloads(WORKLOAD_NAMES.iter().copied())
        .htms(MODELS)
        .hints([HintMode::Off, HintMode::Full])
        .seed(seed)
        .cells()
}

/// Median and other order statistics by linear interpolation between
/// closest ranks.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A fixed CPU-bound loop, best of three, in ms: a host-speed diagnostic
/// printed beside the metrics and never used to scale them.
fn host_probe_ms() -> f64 {
    (0..3)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..20_000_000u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x = x.wrapping_add(i);
            }
            std::hint::black_box(x);
            ms(t.elapsed())
        })
        .fold(f64::INFINITY, f64::min)
}

/// The process's peak resident set (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn end_to_end(m: &Measured) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let samples = m.samples();
    let passes = m.slots.iter().map(|s| s.ms.len()).min().unwrap_or(0);
    if samples.len() < MIN_SAMPLES || passes < MIN_PASSES {
        return Err(format!(
            "{} latency samples over {passes} passes; need {MIN_SAMPLES} over {MIN_PASSES}",
            samples.len()
        ));
    }
    let pass_s = m.typical_pass_s();
    let sum = |f: fn(&Slot) -> u64| m.slots.iter().map(f).sum::<u64>() as f64;
    Ok(vec![
        ("setup_s", percentile(&m.setup_s, 50.0), "s"),
        (
            "sim_accesses_per_s",
            sum(|s| s.accesses) / pass_s,
            "accesses/s",
        ),
        ("cells_per_s", sum(|s| s.cells) / pass_s, "cells/s"),
        ("report_ms_p50", m.windowed_percentile(50.0), "ms"),
        ("report_ms_p90", m.windowed_percentile(90.0), "ms"),
        ("peak_rss_mib", peak_rss_mib()?, "MiB"),
    ])
}

fn run(args: &Args) -> Result<i32, String> {
    let work = Path::new(WORK_DIR).join(format!("{}-{}", args.workload.name(), std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let mut ctx = Ctx::new(args.seed, args.seconds, args.trace, work.clone());

    let probe_start = host_probe_ms();
    let measured = match args.workload {
        Workload::ServeWarm => serve_warm::run(&mut ctx),
        Workload::TraceExport => trace_export::run(&mut ctx),
    };
    let probe_end = host_probe_ms();
    let _ = std::fs::remove_dir_all(&work);
    let measured = measured?;

    println!(
        "workload {} seed {} trace {}: host.probe_ms start {probe_start:.3} end {probe_end:.3}",
        args.workload.name(),
        args.seed,
        args.trace as u8
    );
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let mut m = layers::per_layer(&ctx);
        m.push(("host.probe_ms", (probe_start + probe_end) / 2.0, "ms"));
        let path = Path::new(WORK_DIR).join(format!(
            "spans-{}-seed{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        ctx.spans
            .write(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!("spans: {} written to {}", ctx.spans.len(), path.display());
        m
    } else {
        end_to_end(&measured)?
    };
    if ctx.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    println!(
        "operations: {} attempted, {} failed (failed_frac {:.6}); latency samples: {}",
        ctx.attempted,
        ctx.failed,
        ctx.failed as f64 / ctx.attempted as f64,
        measured.samples().len()
    );
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:>18.6} {unit}");
    }
    let mut fields = Vec::new();
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        fields.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".into(), Json::f64(*value)),
                ("unit".into(), Json::Str(unit.to_string())),
            ]),
        ));
    }
    let correct = ctx.exit_code() == 0;
    let line = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::u64(ctx.attempted)),
        ("failed".into(), Json::u64(ctx.failed)),
        ("metrics".into(), Json::Obj(fields)),
    ]);
    println!("{line}");
    Ok(ctx.exit_code())
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Ctx {
        Ctx::new(GOLDEN_SEED, 1.0, false, PathBuf::from("unused"))
    }

    /// kmeans × P8 passes against the blessed table; with one bit of its
    /// blessed stats fingerprint flipped, the check reports the mismatch
    /// and the run exits 1.
    #[test]
    fn one_wrong_expected_value_fails_the_run() {
        let cell = Cell::new("kmeans");
        let report = cell.run().expect("kmeans is registered");

        let mut good = ctx();
        good.check_golden(&cell, &report, None);
        assert_eq!(good.exit_code(), 0, "{:?}", good.mismatches);

        let mut bad = ctx();
        let row = bad
            .golden
            .rows
            .iter_mut()
            .find(|(name, _)| *name == "kmeans")
            .expect("kmeans row");
        row.1[0].1 ^= 1;
        bad.check_golden(&cell, &report, None);
        assert_eq!(bad.exit_code(), 1);
        assert_eq!(bad.mismatches.len(), 1);
        assert!(
            bad.mismatches[0].starts_with("kmeans/P8"),
            "{:?}",
            bad.mismatches
        );
    }

    /// Ten windows, one slow: the windowed p90 stays with the other nine.
    #[test]
    fn a_slow_window_does_not_set_the_percentile() {
        let mut m = Measured::default();
        for i in 0..10 * MIN_SAMPLES {
            let slow = i >= 9 * MIN_SAMPLES;
            let ms = if slow { 50.0 } else { 10.0 + (i % 10) as f64 };
            m.record(0, 1, 1, Duration::from_secs_f64(ms / 1e3));
        }
        assert!((m.windowed_percentile(90.0) - 18.1).abs() < 1e-6);
        assert!((m.windowed_percentile(50.0) - 14.5).abs() < 1e-6);
    }
}
