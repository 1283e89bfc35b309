//! Command-line interface: argument parsing and command execution for the
//! `hintm` binary.
//!
//! Hand-rolled parsing (no CLI dependency): three subcommands —
//!
//! ```text
//! hintm list
//! hintm run   --workload vacation [--htm p8|p8s|l1tm|infcap|rot|logtm|lrws|pstretch]
//!             [--hints off|static|dynamic|full] [--seed N] [--scale sim|large]
//!             [--threads N] [--smt2] [--preserve] [--csv]
//! hintm suite [--htm ...] [--hints ...] [--seed N] [--scale ...] [--csv]
//! hintm audit [--workloads a,b | --all] [--seed N] [--scale ...]
//! hintm trace <workload> [run options] [--events N] [--out <dir>]
//! ```

use crate::json::{analyze_report_to_json, audit_report_to_json, Json};
use crate::{
    chrome_trace, write_binlog, AbortKind, AllocConfig, Experiment, HintMode, HtmKind, RunReport,
    Scale, WORKLOAD_NAMES,
};
use hintm_audit::{AnalyzeReport, AuditReport};
use std::fmt;

/// A CLI parsing or execution error (rendered to stderr by the binary).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// A parsed command.
#[derive(Clone, Debug, PartialEq)]
pub enum Command {
    /// Print the workload registry.
    List,
    /// Run one experiment.
    Run(RunArgs),
    /// Run the whole suite under one configuration.
    Suite(RunArgs),
    /// Audit safety-hint soundness (verifier + lints + dynamic oracle).
    Audit(AuditArgs),
    /// Static capacity-footprint analysis + hint inference (no simulator
    /// run).
    Analyze(AnalyzeArgs),
    /// Run one experiment under a trace recorder and report/export the
    /// captured event stream.
    Trace(TraceArgs),
    /// Run a parallel sweep (dispatched by the `hintm-runner` binary).
    Sweep(SweepArgs),
    /// Time the pinned workload×model grid and compare against the newest
    /// committed baseline (dispatched by the `hintm-runner` binary).
    Perf(PerfArgs),
    /// Clear the on-disk result cache (dispatched by `hintm-serve`).
    CacheClear {
        /// Cache directory override.
        dir: Option<String>,
    },
    /// Summarize the on-disk result cache: entry count, bytes, schema,
    /// per-workload breakdown (dispatched by `hintm-serve`).
    CacheStats {
        /// Cache directory override.
        dir: Option<String>,
    },
    /// Run the sweep-as-a-service daemon (dispatched by `hintm-serve`).
    Serve(ServeArgs),
    /// Print usage.
    Help,
}

/// Options for `hintm serve`. Parsing lives here with the other commands;
/// execution lives in the `hintm-serve` crate, so [`execute`] rejects it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeArgs {
    /// Listen address (`HOST:PORT`).
    pub addr: String,
    /// Executor worker threads (`None` = the machine's available
    /// parallelism; `0` = serve the API only and rely on joined workers).
    pub workers: Option<usize>,
    /// Cache directory override.
    pub cache_dir: Option<String>,
    /// Instead of serving, join the daemon at this `HOST:PORT` as a
    /// worker: claim cells over HTTP, execute them locally, post the
    /// reports back.
    pub join: Option<String>,
}

impl Default for ServeArgs {
    fn default() -> Self {
        ServeArgs {
            addr: "127.0.0.1:8191".into(),
            workers: None,
            cache_dir: None,
            join: None,
        }
    }
}

/// Options for `hintm audit`.
#[derive(Clone, Debug, PartialEq)]
pub struct AuditArgs {
    /// Workloads to audit (empty = every registered workload).
    pub workloads: Vec<String>,
    /// Seed for the dynamically observed run.
    pub seed: u64,
    /// Input scale for the observed run.
    pub scale: Scale,
    /// Emit a JSON report instead of the table.
    pub json: bool,
}

impl Default for AuditArgs {
    fn default() -> Self {
        AuditArgs {
            workloads: Vec::new(),
            seed: 42,
            scale: Scale::Sim,
            json: false,
        }
    }
}

/// Options for `hintm analyze`.
#[derive(Clone, Debug, PartialEq)]
pub struct AnalyzeArgs {
    /// Workloads to analyze (empty = every registered workload).
    pub workloads: Vec<String>,
    /// Input scale the modules are annotated for.
    pub scale: Scale,
    /// Emit a JSON report instead of the table.
    pub json: bool,
}

impl Default for AnalyzeArgs {
    fn default() -> Self {
        AnalyzeArgs {
            workloads: Vec::new(),
            scale: Scale::Sim,
            json: false,
        }
    }
}

/// Options for `hintm trace`.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceArgs {
    /// Run configuration; the workload is `trace`'s positional argument.
    pub run: RunArgs,
    /// Directory for `<workload>.trace.json` (Chrome trace_event) and
    /// `<workload>.trace.bin` (compact binary log).
    pub out: Option<String>,
    /// Trace buffer capacity: how many events are retained verbatim
    /// (metrics and the digest always cover the whole run).
    pub events: usize,
}

impl Default for TraceArgs {
    fn default() -> Self {
        TraceArgs {
            run: RunArgs::default(),
            out: None,
            events: 100_000,
        }
    }
}

/// Options for `hintm sweep`. Parsing lives here with the other commands;
/// execution lives in the `hintm-runner` crate (which depends on this
/// one), so [`execute`] rejects it.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepArgs {
    /// Workloads to sweep (empty = every registered workload).
    pub workloads: Vec<String>,
    /// HTM configurations to sweep (empty = `[P8]`).
    pub htms: Vec<HtmKind>,
    /// Hint modes to sweep (empty = `[off]`).
    pub hints: Vec<HintMode>,
    /// Seeds to sweep (empty = `[42]`).
    pub seeds: Vec<u64>,
    /// Input scale.
    pub scale: Scale,
    /// Thread-count override.
    pub threads: Option<usize>,
    /// 2-way SMT.
    pub smt2: bool,
    /// §VI-B preserve optimization.
    pub preserve: bool,
    /// Heap-placement color strides to sweep (empty = `[0]`, the packed
    /// default). A result-affecting axis.
    pub alloc_colors: Vec<u64>,
    /// Sweep a three-workload smoke subset instead of every registered
    /// workload (ignored when `--workloads` names them explicitly).
    pub smoke: bool,
    /// Worker threads (`None` = the machine's available parallelism).
    pub jobs: Option<usize>,
    /// Bypass the result cache entirely.
    pub no_cache: bool,
    /// Resume an interrupted sweep from the cache (the default behavior;
    /// the flag documents intent and conflicts with `--no-cache`).
    pub resume: bool,
    /// Cache directory override.
    pub cache_dir: Option<String>,
    /// Artifact output directory (manifest + CSV/JSON tables).
    pub out: Option<String>,
    /// Also print the results CSV to stdout.
    pub csv: bool,
    /// Audit every swept workload after the sweep (fails on unsound hints).
    pub audit: bool,
    /// Statically analyze every swept workload after the sweep (fails on
    /// lint or verifier errors).
    pub analyze: bool,
    /// Trace every cell, summarizing metrics per cell and exporting the
    /// event streams under `<out>/traces/` (forces a cache bypass).
    pub trace: bool,
}

impl Default for SweepArgs {
    fn default() -> Self {
        SweepArgs {
            workloads: Vec::new(),
            htms: Vec::new(),
            hints: Vec::new(),
            seeds: Vec::new(),
            scale: Scale::Sim,
            threads: None,
            smt2: false,
            preserve: false,
            alloc_colors: Vec::new(),
            smoke: false,
            jobs: None,
            no_cache: false,
            resume: false,
            cache_dir: None,
            out: None,
            csv: false,
            audit: false,
            analyze: false,
            trace: false,
        }
    }
}

/// Options for `hintm perf`. Parsing lives here with the other commands;
/// execution lives in the `hintm-runner` crate, so [`execute`] rejects it.
#[derive(Clone, Debug, PartialEq)]
pub struct PerfArgs {
    /// Use the 5-cell smoke grid instead of the full 25-cell pinned grid.
    pub smoke: bool,
    /// Timed repetitions per cell. The slowest repetition is dropped as
    /// noise when `repeat >= 3`, then the median of the rest is reported.
    pub repeat: usize,
    /// Untimed warmup runs per cell.
    pub warmup: usize,
    /// Directory holding `BENCH_*.json` files (read and written).
    pub out: Option<String>,
    /// Explicit baseline file (default: newest `BENCH_*.json` in `out`).
    pub baseline: Option<String>,
    /// Regression threshold as a fraction (overrides
    /// `HINTM_PERF_THRESHOLD`; default 0.25 = fail when >25% slower).
    pub threshold: Option<f64>,
    /// Measure and write the snapshot without comparing to a baseline.
    pub no_compare: bool,
}

impl Default for PerfArgs {
    fn default() -> Self {
        PerfArgs {
            smoke: false,
            repeat: 5,
            warmup: 1,
            out: None,
            baseline: None,
            threshold: None,
            no_compare: false,
        }
    }
}

/// Options shared by `run` and `suite`.
#[derive(Clone, Debug, PartialEq)]
pub struct RunArgs {
    /// Workload name (`run` only; ignored by `suite`).
    pub workload: Option<String>,
    /// HTM configuration.
    pub htm: HtmKind,
    /// Hint mode.
    pub hints: HintMode,
    /// Run seed.
    pub seed: u64,
    /// Input scale.
    pub scale: Scale,
    /// Thread-count override.
    pub threads: Option<usize>,
    /// 2-way SMT.
    pub smt2: bool,
    /// §VI-B preserve optimization.
    pub preserve: bool,
    /// Heap-placement color stride in bytes (`--alloc-color`): padding
    /// inserted after every fresh heap allocation. `0` keeps the packed
    /// default. This changes simulated addresses, so it changes results.
    pub alloc_color: u64,
    /// Emit CSV instead of a table.
    pub csv: bool,
    /// Print a lifecycle timeline after the run (`run` only).
    pub trace: bool,
}

impl Default for RunArgs {
    fn default() -> Self {
        RunArgs {
            workload: None,
            htm: HtmKind::P8,
            hints: HintMode::Off,
            seed: 42,
            scale: Scale::Sim,
            threads: None,
            smt2: false,
            preserve: false,
            alloc_color: 0,
            csv: false,
            trace: false,
        }
    }
}

/// Usage text.
pub const USAGE: &str = "\
hintm — HinTM (HPCA 2023) reproduction CLI

USAGE:
  hintm list
  hintm run --workload <name> [options]
  hintm suite [options]
  hintm audit [audit options]
  hintm analyze [<workload>] [analyze options]
  hintm trace <workload> [options] [trace options]
  hintm sweep [sweep options]
  hintm perf [perf options]
  hintm serve [serve options]
  hintm cache clear [--cache-dir <dir>]
  hintm cache stats [--cache-dir <dir>]

OPTIONS:
  --workload <name>        one of the registered workloads (see `hintm list`)
  --htm <kind>             p8 | p8s | l1tm | infcap | rot | logtm |
                           lrws | pstretch                          [p8]
  --hints <mode>           off | static | dynamic | full            [off]
  --seed <n>               run seed                                  [42]
  --scale <s>              sim | large                              [sim]
  --threads <n>            override the workload's thread count
  --smt2                   2-way SMT (16 hardware threads)
  --preserve               enable the preserve page-transition optimization
  --alloc-color <bytes>    heap-placement color stride: pad every fresh heap
                           allocation by <bytes>. Changes simulated addresses
                           (and so abort counts), never committed state    [0]
  --csv                    machine-readable CSV output
  --trace                  print a per-thread lifecycle timeline (run only)

TRACE OPTIONS (records the run's event stream; run options above apply):
  --events <n>             events retained in the trace buffer         [100000]
  --out <dir>              write <workload>.trace.json (Chrome trace_event)
                           and <workload>.trace.bin (binary log) into <dir>

AUDIT OPTIONS (verifier + lints + dynamic sharing oracle; exits nonzero
on any unsound hint, lint error, verifier error, or hint-table mismatch):
  --workloads <a,b,..>     workloads to audit                  [all registered]
  --all                    audit every registered workload (the default)
  --seed / --scale         as above, for the dynamically observed run
  --json                   emit a JSON report instead of the table

ANALYZE OPTIONS (static capacity-footprint bounds + per-model verdicts +
hint inference diff; no simulator run; exits nonzero on any lint or
verifier error):
  <workload>               positional: analyze one workload
  --workloads <a,b,..>     workloads to analyze                [all registered]
  --all                    analyze every registered workload (the default)
  --scale <s>              scale the module annotations describe         [sim]
  --json                   emit a JSON report instead of the table

SWEEP OPTIONS (comma-separated lists sweep the cross product):
  --workloads <a,b,..>     workloads to sweep                  [all registered]
  --htm <k1,k2,..>         HTM configurations to sweep                    [p8]
  --models <k1,k2,..>      alias for --htm
  --hints <m1,m2,..>       hint modes to sweep                           [off]
  --seeds <n1,n2,..>       seeds to sweep                                 [42]
  --alloc-colors <b1,b2,.> heap-placement color strides to sweep (a
                           result-affecting axis; --alloc-color also works) [0]
  --smoke                  sweep a fast three-workload smoke subset instead
                           of every registered workload
  --scale / --threads / --smt2 / --preserve
                           as above, applied to every cell
  --jobs <n>               worker threads            [machine's parallelism]
  --no-cache               bypass the on-disk result cache
  --resume                 resume an interrupted sweep from the cache
  --cache-dir <dir>        cache location      [$HINTM_CACHE_DIR or .hintm-cache]
  --out <dir>              write manifest.json + results.{csv,json} here
  --csv                    also print the results CSV to stdout
  --audit                  audit every swept workload after the sweep
  --analyze                statically analyze every swept workload after the
                           sweep (fails on lint/verifier errors)
  --trace                  trace every cell (bypasses the cache); with --out,
                           exports event streams under <out>/traces/

SERVE OPTIONS (long-running daemon: HTTP API over a job queue that shares
the result cache across workers and repeat submissions):
  --addr <host:port>       listen address                     [127.0.0.1:8191]
  --workers <n>            executor threads [machine's parallelism; 0 = API
                           only, cells wait for joined workers]
  --cache-dir <dir>        cache location      [$HINTM_CACHE_DIR or .hintm-cache]
  --join <host:port>       join the daemon at host:port as a worker process:
                           claim cells over HTTP, run them, post reports back

PERF OPTIONS (times the pinned grid, writes BENCH_<date>.json, and fails
when the median events/sec regresses past the threshold):
  --smoke                  5-cell smoke grid instead of the full 25-cell grid
  --repeat <n>             timed repetitions per cell; with --repeat >= 3 the
                           slowest repetition is dropped as noise and the
                           median of the rest is reported (at 1-2 reps every
                           sample counts, so the median is over all of them) [5]
  --warmup <n>             untimed warmup runs per cell                    [1]
  --out <dir>              directory for BENCH_*.json snapshots            [.]
  --baseline <file>        explicit baseline   [newest BENCH_*.json in --out]
  --threshold <f>          failure threshold as a fraction
                           [$HINTM_PERF_THRESHOLD or 0.25]
  --no-compare             measure and write the snapshot only
";

/// Parses an HTM configuration name (`p8`, `infcap`, ...) as the CLI and
/// the server's sweep-spec JSON spell it.
///
/// # Errors
///
/// Returns [`CliError`] on an unknown name.
pub fn parse_htm(v: &str) -> Result<HtmKind, CliError> {
    match v.to_ascii_lowercase().as_str() {
        "p8" => Ok(HtmKind::P8),
        "p8s" => Ok(HtmKind::P8S),
        "l1tm" => Ok(HtmKind::L1Tm),
        "infcap" => Ok(HtmKind::InfCap),
        "rot" => Ok(HtmKind::Rot),
        "logtm" => Ok(HtmKind::LogTm),
        "lrws" => Ok(HtmKind::Lrws),
        "pstretch" => Ok(HtmKind::PStretch),
        other => Err(CliError(format!("unknown --htm `{other}`"))),
    }
}

/// Parses a hint-mode name (`off`, `static`, `dynamic`, `full`, plus the
/// `st`/`dyn` aliases) as the CLI and the server's sweep-spec JSON spell
/// it.
///
/// # Errors
///
/// Returns [`CliError`] on an unknown name.
pub fn parse_hints(v: &str) -> Result<HintMode, CliError> {
    match v.to_ascii_lowercase().as_str() {
        "off" => Ok(HintMode::Off),
        "static" | "st" => Ok(HintMode::Static),
        "dynamic" | "dyn" => Ok(HintMode::Dynamic),
        "full" => Ok(HintMode::Full),
        other => Err(CliError(format!("unknown --hints `{other}`"))),
    }
}

/// Parses a scale name (`sim` | `large`) as the CLI and the server's
/// sweep-spec JSON spell it.
///
/// # Errors
///
/// Returns [`CliError`] on an unknown name.
pub fn parse_scale(v: &str) -> Result<Scale, CliError> {
    match v.to_ascii_lowercase().as_str() {
        "sim" => Ok(Scale::Sim),
        "large" => Ok(Scale::Large),
        other => Err(CliError(format!("unknown --scale `{other}`"))),
    }
}

/// The inverse of [`parse_scale`]: a scale's canonical name.
pub fn scale_str(s: Scale) -> &'static str {
    match s {
        Scale::Sim => "sim",
        Scale::Large => "large",
    }
}

/// Parses an argument vector (without the program name).
///
/// # Errors
///
/// Returns [`CliError`] on unknown subcommands, unknown flags, missing or
/// malformed values.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let Some(sub) = args.first() else {
        return Ok(Command::Help);
    };
    match sub.as_str() {
        "list" => Ok(Command::List),
        "help" | "--help" | "-h" => Ok(Command::Help),
        "audit" => parse_audit(&args[1..]),
        "analyze" => parse_analyze(&args[1..]),
        "trace" => parse_trace(&args[1..]),
        "sweep" => parse_sweep(&args[1..]),
        "perf" => parse_perf(&args[1..]),
        "cache" => parse_cache(&args[1..]),
        "serve" => parse_serve(&args[1..]),
        "run" | "suite" => {
            let mut ra = RunArgs::default();
            let mut i = 1;
            let value = |i: &mut usize, flag: &str| -> Result<String, CliError> {
                *i += 1;
                args.get(*i)
                    .cloned()
                    .ok_or_else(|| CliError(format!("{flag} requires a value")))
            };
            while i < args.len() {
                match args[i].as_str() {
                    "--workload" => ra.workload = Some(value(&mut i, "--workload")?),
                    "--htm" => ra.htm = parse_htm(&value(&mut i, "--htm")?)?,
                    "--hints" => ra.hints = parse_hints(&value(&mut i, "--hints")?)?,
                    "--seed" => {
                        let v = value(&mut i, "--seed")?;
                        ra.seed = v
                            .parse()
                            .map_err(|_| CliError(format!("bad --seed `{v}`")))?;
                    }
                    "--scale" => ra.scale = parse_scale(&value(&mut i, "--scale")?)?,
                    "--threads" => {
                        let v = value(&mut i, "--threads")?;
                        ra.threads = Some(
                            v.parse()
                                .map_err(|_| CliError(format!("bad --threads `{v}`")))?,
                        );
                    }
                    "--smt2" => ra.smt2 = true,
                    "--preserve" => ra.preserve = true,
                    "--alloc-color" => {
                        ra.alloc_color = parse_alloc_color(&value(&mut i, "--alloc-color")?)?;
                    }
                    "--csv" => ra.csv = true,
                    "--trace" => ra.trace = true,
                    other => return Err(CliError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            if sub == "run" {
                if ra.workload.is_none() {
                    return Err(CliError("`run` requires --workload <name>".into()));
                }
                Ok(Command::Run(ra))
            } else {
                Ok(Command::Suite(ra))
            }
        }
        other => Err(CliError(format!(
            "unknown command `{other}` (try `hintm help`)"
        ))),
    }
}

/// Parses a heap-placement color stride in bytes (`--alloc-color`).
fn parse_alloc_color(v: &str) -> Result<u64, CliError> {
    v.parse()
        .map_err(|_| CliError(format!("bad --alloc-color `{v}` (expected bytes >= 0)")))
}

/// Splits a comma-separated flag value, mapping each piece through `f`.
fn parse_list<T>(v: &str, f: impl Fn(&str) -> Result<T, CliError>) -> Result<Vec<T>, CliError> {
    v.split(',').filter(|s| !s.is_empty()).map(f).collect()
}

fn parse_audit(args: &[String]) -> Result<Command, CliError> {
    let mut aa = AuditArgs::default();
    let mut all = false;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, CliError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| CliError(format!("{flag} requires a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workloads" => {
                aa.workloads = parse_list(&value(&mut i, "--workloads")?, |s| Ok(s.to_string()))?;
            }
            "--all" => all = true,
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                aa.seed = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --seed `{v}`")))?;
            }
            "--scale" => aa.scale = parse_scale(&value(&mut i, "--scale")?)?,
            "--json" => aa.json = true,
            other => return Err(CliError(format!("unknown flag `{other}`"))),
        }
        i += 1;
    }
    if all && !aa.workloads.is_empty() {
        return Err(CliError("--all conflicts with --workloads".into()));
    }
    Ok(Command::Audit(aa))
}

fn parse_analyze(args: &[String]) -> Result<Command, CliError> {
    let mut na = AnalyzeArgs::default();
    let mut all = false;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, CliError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| CliError(format!("{flag} requires a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workloads" => {
                na.workloads = parse_list(&value(&mut i, "--workloads")?, |s| Ok(s.to_string()))?;
            }
            "--all" => all = true,
            "--scale" => na.scale = parse_scale(&value(&mut i, "--scale")?)?,
            "--json" => na.json = true,
            name if !name.starts_with('-') => na.workloads.push(name.to_string()),
            other => return Err(CliError(format!("unknown flag `{other}`"))),
        }
        i += 1;
    }
    if all && !na.workloads.is_empty() {
        return Err(CliError("--all conflicts with naming workloads".into()));
    }
    Ok(Command::Analyze(na))
}

fn parse_trace(args: &[String]) -> Result<Command, CliError> {
    let mut ta = TraceArgs::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, CliError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| CliError(format!("{flag} requires a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workload" => ta.run.workload = Some(value(&mut i, "--workload")?),
            "--htm" => ta.run.htm = parse_htm(&value(&mut i, "--htm")?)?,
            "--hints" => ta.run.hints = parse_hints(&value(&mut i, "--hints")?)?,
            "--seed" => {
                let v = value(&mut i, "--seed")?;
                ta.run.seed = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --seed `{v}`")))?;
            }
            "--scale" => ta.run.scale = parse_scale(&value(&mut i, "--scale")?)?,
            "--threads" => {
                let v = value(&mut i, "--threads")?;
                ta.run.threads = Some(
                    v.parse()
                        .map_err(|_| CliError(format!("bad --threads `{v}`")))?,
                );
            }
            "--smt2" => ta.run.smt2 = true,
            "--preserve" => ta.run.preserve = true,
            "--alloc-color" => {
                ta.run.alloc_color = parse_alloc_color(&value(&mut i, "--alloc-color")?)?;
            }
            "--events" => {
                let v = value(&mut i, "--events")?;
                ta.events = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --events `{v}`")))?;
            }
            "--out" => ta.out = Some(value(&mut i, "--out")?),
            name if !name.starts_with('-') && ta.run.workload.is_none() => {
                ta.run.workload = Some(name.to_string());
            }
            other => return Err(CliError(format!("unknown flag `{other}`"))),
        }
        i += 1;
    }
    if ta.run.workload.is_none() {
        return Err(CliError("`trace` requires a workload name".into()));
    }
    Ok(Command::Trace(ta))
}

fn parse_sweep(args: &[String]) -> Result<Command, CliError> {
    let mut sa = SweepArgs::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, CliError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| CliError(format!("{flag} requires a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--workloads" => {
                sa.workloads = parse_list(&value(&mut i, "--workloads")?, |s| Ok(s.to_string()))?;
            }
            flag @ ("--htm" | "--models") => {
                sa.htms = parse_list(&value(&mut i, flag)?, parse_htm)?;
            }
            "--hints" => sa.hints = parse_list(&value(&mut i, "--hints")?, parse_hints)?,
            "--seeds" => {
                sa.seeds = parse_list(&value(&mut i, "--seeds")?, |s| {
                    s.parse().map_err(|_| CliError(format!("bad seed `{s}`")))
                })?;
            }
            "--scale" => sa.scale = parse_scale(&value(&mut i, "--scale")?)?,
            "--threads" => {
                let v = value(&mut i, "--threads")?;
                sa.threads = Some(
                    v.parse()
                        .map_err(|_| CliError(format!("bad --threads `{v}`")))?,
                );
            }
            "--smt2" => sa.smt2 = true,
            "--preserve" => sa.preserve = true,
            flag @ ("--alloc-color" | "--alloc-colors") => {
                sa.alloc_colors = parse_list(&value(&mut i, flag)?, parse_alloc_color)?;
            }
            "--smoke" => sa.smoke = true,
            "--jobs" => {
                let v = value(&mut i, "--jobs")?;
                sa.jobs = Some(
                    v.parse()
                        .map_err(|_| CliError(format!("bad --jobs `{v}`")))?,
                );
            }
            "--no-cache" => sa.no_cache = true,
            "--resume" => sa.resume = true,
            "--cache-dir" => sa.cache_dir = Some(value(&mut i, "--cache-dir")?),
            "--out" => sa.out = Some(value(&mut i, "--out")?),
            "--csv" => sa.csv = true,
            "--audit" => sa.audit = true,
            "--analyze" => sa.analyze = true,
            "--trace" => sa.trace = true,
            other => return Err(CliError(format!("unknown flag `{other}`"))),
        }
        i += 1;
    }
    if sa.no_cache && sa.resume {
        return Err(CliError("--resume needs the cache; drop --no-cache".into()));
    }
    Ok(Command::Sweep(sa))
}

fn parse_perf(args: &[String]) -> Result<Command, CliError> {
    let mut pa = PerfArgs::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, CliError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| CliError(format!("{flag} requires a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--smoke" => pa.smoke = true,
            "--repeat" => {
                let v = value(&mut i, "--repeat")?;
                pa.repeat = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --repeat `{v}`")))?;
            }
            "--warmup" => {
                let v = value(&mut i, "--warmup")?;
                pa.warmup = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --warmup `{v}`")))?;
            }
            "--out" => pa.out = Some(value(&mut i, "--out")?),
            "--baseline" => pa.baseline = Some(value(&mut i, "--baseline")?),
            "--threshold" => {
                let v = value(&mut i, "--threshold")?;
                let t: f64 = v
                    .parse()
                    .map_err(|_| CliError(format!("bad --threshold `{v}`")))?;
                if !(0.0..1.0).contains(&t) {
                    return Err(CliError(format!(
                        "--threshold must be a fraction in [0, 1), got `{v}`"
                    )));
                }
                pa.threshold = Some(t);
            }
            "--no-compare" => pa.no_compare = true,
            other => return Err(CliError(format!("unknown flag `{other}`"))),
        }
        i += 1;
    }
    if pa.repeat == 0 {
        return Err(CliError("--repeat must be at least 1".into()));
    }
    Ok(Command::Perf(pa))
}

fn parse_cache(args: &[String]) -> Result<Command, CliError> {
    match args.first().map(String::as_str) {
        Some(action @ ("clear" | "stats")) => {
            let mut dir = None;
            let mut i = 1;
            while i < args.len() {
                match args[i].as_str() {
                    "--cache-dir" => {
                        i += 1;
                        dir = Some(
                            args.get(i)
                                .cloned()
                                .ok_or_else(|| CliError("--cache-dir requires a value".into()))?,
                        );
                    }
                    other => return Err(CliError(format!("unknown flag `{other}`"))),
                }
                i += 1;
            }
            Ok(if action == "clear" {
                Command::CacheClear { dir }
            } else {
                Command::CacheStats { dir }
            })
        }
        Some(other) => Err(CliError(format!(
            "unknown cache action `{other}` (try `clear` or `stats`)"
        ))),
        None => Err(CliError(
            "`cache` requires an action (try `hintm cache clear` or `hintm cache stats`)".into(),
        )),
    }
}

fn parse_serve(args: &[String]) -> Result<Command, CliError> {
    let mut sa = ServeArgs::default();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, CliError> {
        *i += 1;
        args.get(*i)
            .cloned()
            .ok_or_else(|| CliError(format!("{flag} requires a value")))
    };
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => sa.addr = value(&mut i, "--addr")?,
            "--workers" => {
                let v = value(&mut i, "--workers")?;
                sa.workers = Some(
                    v.parse()
                        .map_err(|_| CliError(format!("bad --workers `{v}`")))?,
                );
            }
            "--cache-dir" => sa.cache_dir = Some(value(&mut i, "--cache-dir")?),
            "--join" => sa.join = Some(value(&mut i, "--join")?),
            other => return Err(CliError(format!("unknown flag `{other}`"))),
        }
        i += 1;
    }
    if sa.join.is_some() && sa.workers == Some(0) {
        return Err(CliError(
            "--join needs at least one worker; drop --workers 0".into(),
        ));
    }
    Ok(Command::Serve(sa))
}

fn experiment(name: &str, ra: &RunArgs) -> Experiment {
    let mut e = Experiment::new(name)
        .htm(ra.htm)
        .hint_mode(ra.hints)
        .seed(ra.seed)
        .scale(ra.scale)
        .smt2(ra.smt2)
        .preserve(ra.preserve)
        .alloc(AllocConfig {
            color_stride: ra.alloc_color,
            ..AllocConfig::default()
        });
    if let Some(t) = ra.threads {
        e = e.threads(t);
    }
    e
}

fn run_one(name: &str, ra: &RunArgs) -> Result<RunReport, CliError> {
    experiment(name, ra)
        .run()
        .map_err(|e| CliError(e.to_string()))
}

/// CSV header matching [`csv_row`].
pub const CSV_HEADER: &str = "workload,htm,hints,seed,cycles,commits,fallback,\
conflict,capacity,false_conflict,page_mode,lock,shootdowns,safe_pages,total_pages";

/// Renders one report as a CSV row.
pub fn csv_row(r: &RunReport, seed: u64) -> String {
    let s = &r.stats;
    format!(
        "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
        r.workload,
        r.htm,
        r.hint_mode,
        seed,
        s.total_cycles.raw(),
        s.commits,
        s.fallback_commits,
        s.aborts_of(AbortKind::Conflict),
        s.aborts_of(AbortKind::Capacity),
        s.aborts_of(AbortKind::FalseConflict),
        s.aborts_of(AbortKind::PageMode),
        s.aborts_of(AbortKind::FallbackLock),
        s.vm.shootdowns,
        s.safe_pages.0,
        s.safe_pages.1,
    )
}

/// Column header matching [`audit_row`].
pub fn audit_header() -> String {
    format!(
        "{:<12} {:>5} {:>5} {:>5} {:>7} {:>6} {:>5} {:>5}  verdict",
        "workload", "sites", "safe", "exec", "unsound", "missed", "lintE", "lintW",
    )
}

/// Renders one audit report as a fixed-width table row.
pub fn audit_row(r: &AuditReport) -> String {
    format!(
        "{:<12} {:>5} {:>5} {:>5} {:>7} {:>6} {:>5} {:>5}  {}",
        r.workload,
        r.stats.num_sites,
        r.stats.safe_loads + r.stats.safe_stores,
        r.sites_executed,
        r.unsound.len(),
        r.missed.len(),
        r.lint_errors(),
        r.lint_warnings(),
        if r.passed() { "PASS" } else { "FAIL" },
    )
}

/// Column header matching [`analyze_row`].
pub fn analyze_header() -> String {
    format!(
        "{:<12} {:>3} {:>3}  {:<13} {:<13} {:<13} {:<13} {:<13} {:>4} {:>4} {:>5} {:>5}  verdict",
        "workload",
        "txs",
        "unb",
        "P8",
        "P8S",
        "L1TM",
        "LRWS",
        "PStretch",
        "decl",
        "inf",
        "lintE",
        "lintW",
    )
}

/// Renders one analyze report as a fixed-width table row.
pub fn analyze_row(r: &AnalyzeReport) -> String {
    let s = r.stats();
    format!(
        "{:<12} {:>3} {:>3}  {:<13} {:<13} {:<13} {:<13} {:<13} {:>4} {:>4} {:>5} {:>5}  {}",
        r.workload,
        s.num_txs,
        s.unbounded_txs,
        s.worst[0].to_string(),
        s.worst[1].to_string(),
        s.worst[2].to_string(),
        s.worst[3].to_string(),
        s.worst[4].to_string(),
        s.declared_safe,
        s.inferred_safe,
        r.lint_errors(),
        r.lint_warnings(),
        if r.passed() { "PASS" } else { "FAIL" },
    )
}

/// Writes one analyze report's detail lines (per-transaction bounds,
/// verifier errors, lint diagnostics) beneath its table row.
fn analyze_details(r: &AnalyzeReport, out: &mut impl std::io::Write) -> std::io::Result<()> {
    for (tx, func) in r.footprint.txs.iter().zip(&r.tx_funcs) {
        writeln!(
            out,
            "    tx#{} in {func}: reads<={} writes<={} total<={}, guaranteed {} ({} written)",
            tx.index, tx.read_hi, tx.write_hi, tx.total_hi, tx.total_lo, tx.write_lo,
        )?;
    }
    for e in &r.verify_errors {
        writeln!(out, "    verify: {e}")?;
    }
    for d in &r.diagnostics {
        writeln!(out, "    {d}")?;
    }
    Ok(())
}

/// Writes one report's detail lines (verifier errors, lint diagnostics,
/// unsound hints, hint-table mismatch) beneath its table row.
fn audit_details(r: &AuditReport, out: &mut impl std::io::Write) -> std::io::Result<()> {
    for e in &r.verify_errors {
        writeln!(out, "    verify: {e}")?;
    }
    for d in &r.diagnostics {
        writeln!(out, "    {d}")?;
    }
    for u in &r.unsound {
        writeln!(
            out,
            "    unsound: site {} {:?} at {:#x} by thread {} in epoch {}",
            u.site.0,
            u.kind,
            u.addr.raw(),
            u.thread.0,
            u.epoch,
        )?;
    }
    if r.hint_mismatch {
        writeln!(out, "    hint table differs from the classifier's output")?;
    }
    Ok(())
}

/// Executes a parsed command, writing to `out`.
///
/// # Errors
///
/// Returns [`CliError`] if an experiment fails to run.
pub fn execute(cmd: &Command, out: &mut impl std::io::Write) -> Result<(), CliError> {
    let io = |e: std::io::Error| CliError(e.to_string());
    match cmd {
        Command::Sweep(_)
        | Command::Perf(_)
        | Command::Serve(_)
        | Command::CacheClear { .. }
        | Command::CacheStats { .. } => Err(CliError(
            "`sweep`, `perf`, `serve`, and `cache` are handled by the hintm binary from \
             the hintm-serve crate"
                .into(),
        )),
        Command::Help => writeln!(out, "{USAGE}").map_err(io),
        Command::List => {
            for name in WORKLOAD_NAMES {
                writeln!(out, "{name}").map_err(io)?;
            }
            Ok(())
        }
        Command::Run(ra) => {
            let name = ra.workload.as_deref().expect("validated by parse");
            if ra.trace {
                let (r, trace) = experiment(name, ra)
                    .run_traced(100_000)
                    .map_err(|e| CliError(e.to_string()))?;
                writeln!(out, "{r}").map_err(io)?;
                let threads = if ra.smt2 { 16 } else { 8 };
                writeln!(
                    out,
                    "
timeline (C commit, a/A/P aborts, F fallback, s shootdown):"
                )
                .map_err(io)?;
                writeln!(out, "{}", trace.render_timeline(threads, 100)).map_err(io)?;
                return Ok(());
            }
            let r = run_one(name, ra)?;
            if ra.csv {
                writeln!(out, "{CSV_HEADER}").map_err(io)?;
                writeln!(out, "{}", csv_row(&r, ra.seed)).map_err(io)?;
            } else {
                writeln!(out, "{r}").map_err(io)?;
            }
            Ok(())
        }
        Command::Trace(ta) => {
            let name = ta.run.workload.as_deref().expect("validated by parse");
            let (r, rec) = experiment(name, &ta.run)
                .run_traced(ta.events)
                .map_err(|e| CliError(e.to_string()))?;
            writeln!(out, "{r}").map_err(io)?;
            let t = r.trace.expect("run_traced fills the summary");
            writeln!(
                out,
                "trace: {} events ({} beyond the buffer), digest {:016x}",
                t.events, t.dropped, t.digest
            )
            .map_err(io)?;
            writeln!(
                out,
                "       occupancy hwm {} blocks; commit footprint mean {:.1}; \
                 retries mean {:.2}",
                t.occupancy_hwm,
                t.commit_footprint.mean(),
                t.retries.mean()
            )
            .map_err(io)?;
            let threads = if ta.run.smt2 { 16 } else { 8 };
            writeln!(
                out,
                "\ntimeline (C commit, a/A/P aborts, F fallback, s shootdown):"
            )
            .map_err(io)?;
            writeln!(out, "{}", rec.render_timeline(threads, 100)).map_err(io)?;
            if let Some(dir) = &ta.out {
                std::fs::create_dir_all(dir).map_err(io)?;
                let json_path = format!("{dir}/{name}.trace.json");
                let bin_path = format!("{dir}/{name}.trace.bin");
                let events = rec.events();
                std::fs::write(&json_path, chrome_trace(&events)).map_err(io)?;
                std::fs::write(&bin_path, write_binlog(&events)).map_err(io)?;
                writeln!(out, "wrote {json_path} and {bin_path}").map_err(io)?;
            }
            Ok(())
        }
        Command::Audit(aa) => {
            let names: Vec<String> = if aa.workloads.is_empty() {
                WORKLOAD_NAMES.iter().map(|s| s.to_string()).collect()
            } else {
                aa.workloads.clone()
            };
            if !aa.json {
                writeln!(out, "{}", audit_header()).map_err(io)?;
            }
            let mut failed = 0usize;
            let mut reports = Vec::new();
            for name in &names {
                let r = hintm_audit::audit_workload(name, aa.scale, aa.seed)
                    .ok_or_else(|| CliError(format!("unknown workload `{name}`")))?;
                if aa.json {
                    reports.push(audit_report_to_json(&r));
                } else {
                    writeln!(out, "{}", audit_row(&r)).map_err(io)?;
                    audit_details(&r, out).map_err(io)?;
                }
                if !r.passed() {
                    failed += 1;
                }
            }
            if aa.json {
                writeln!(out, "{}", Json::Arr(reports)).map_err(io)?;
            }
            if failed > 0 {
                return Err(CliError(format!("{failed} workload(s) failed the audit")));
            }
            Ok(())
        }
        Command::Analyze(na) => {
            let names: Vec<String> = if na.workloads.is_empty() {
                WORKLOAD_NAMES.iter().map(|s| s.to_string()).collect()
            } else {
                na.workloads.clone()
            };
            if !na.json {
                writeln!(out, "{}", analyze_header()).map_err(io)?;
            }
            let mut failed = 0usize;
            let mut reports = Vec::new();
            for name in &names {
                let r = hintm_audit::analyze_workload(name, na.scale)
                    .ok_or_else(|| CliError(format!("unknown workload `{name}`")))?;
                if na.json {
                    reports.push(analyze_report_to_json(&r));
                } else {
                    writeln!(out, "{}", analyze_row(&r)).map_err(io)?;
                    analyze_details(&r, out).map_err(io)?;
                }
                if !r.passed() {
                    failed += 1;
                }
            }
            if na.json {
                writeln!(out, "{}", Json::Arr(reports)).map_err(io)?;
            }
            if failed > 0 {
                return Err(CliError(format!(
                    "{failed} workload(s) failed the static analysis"
                )));
            }
            Ok(())
        }
        Command::Suite(ra) => {
            if ra.csv {
                writeln!(out, "{CSV_HEADER}").map_err(io)?;
            }
            for name in WORKLOAD_NAMES {
                let r = run_one(name, ra)?;
                if ra.csv {
                    writeln!(out, "{}", csv_row(&r, ra.seed)).map_err(io)?;
                } else {
                    writeln!(out, "{r}").map_err(io)?;
                }
            }
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_list_and_help() {
        assert_eq!(parse(&argv("list")).unwrap(), Command::List);
        assert_eq!(parse(&argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
    }

    #[test]
    fn parses_full_run_command() {
        let cmd = parse(&argv(
            "run --workload vacation --htm l1tm --hints full --seed 7 --scale large \
             --threads 16 --smt2 --preserve --csv",
        ))
        .unwrap();
        let Command::Run(ra) = cmd else {
            panic!("expected run")
        };
        assert_eq!(ra.workload.as_deref(), Some("vacation"));
        assert_eq!(ra.htm, HtmKind::L1Tm);
        assert_eq!(ra.hints, HintMode::Full);
        assert_eq!(ra.seed, 7);
        assert_eq!(ra.scale, Scale::Large);
        assert_eq!(ra.threads, Some(16));
        assert!(ra.smt2 && ra.preserve && ra.csv);
    }

    #[test]
    fn run_requires_workload() {
        assert!(parse(&argv("run --htm p8")).is_err());
    }

    #[test]
    fn rejects_unknown_values() {
        assert!(parse(&argv("run --workload x --htm weird")).is_err());
        assert!(parse(&argv("run --workload x --hints weird")).is_err());
        assert!(parse(&argv("run --workload x --seed nope")).is_err());
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("run --workload")).is_err());
    }

    #[test]
    fn hint_aliases() {
        assert_eq!(parse_hints("st").unwrap(), HintMode::Static);
        assert_eq!(parse_hints("dyn").unwrap(), HintMode::Dynamic);
    }

    #[test]
    fn parses_capacity_model_names() {
        assert_eq!(parse_htm("lrws").unwrap(), HtmKind::Lrws);
        assert_eq!(parse_htm("PStretch").unwrap(), HtmKind::PStretch);
        let Command::Run(ra) = parse(&argv("run --workload kmeans --htm pstretch")).unwrap() else {
            panic!("expected run")
        };
        assert_eq!(ra.htm, HtmKind::PStretch);
    }

    #[test]
    fn parses_alloc_color_everywhere() {
        let Command::Run(ra) = parse(&argv("run --workload kmeans --alloc-color 64")).unwrap()
        else {
            panic!("expected run")
        };
        assert_eq!(ra.alloc_color, 64);
        let Command::Trace(ta) = parse(&argv("trace kmeans --alloc-color 128")).unwrap() else {
            panic!("expected trace")
        };
        assert_eq!(ta.run.alloc_color, 128);
        let Command::Sweep(sa) = parse(&argv("sweep --alloc-colors 0,64,128")).unwrap() else {
            panic!("expected sweep")
        };
        assert_eq!(sa.alloc_colors, vec![0, 64, 128]);
        // Defaults keep the packed layout; garbage is rejected.
        assert_eq!(RunArgs::default().alloc_color, 0);
        assert!(SweepArgs::default().alloc_colors.is_empty());
        assert!(parse(&argv("run --workload kmeans --alloc-color nope")).is_err());
    }

    #[test]
    fn sweep_models_alias_and_smoke() {
        let Command::Sweep(sa) = parse(&argv("sweep --models lrws,pstretch --smoke")).unwrap()
        else {
            panic!("expected sweep")
        };
        assert_eq!(sa.htms, vec![HtmKind::Lrws, HtmKind::PStretch]);
        assert!(sa.smoke);
        let Command::Sweep(sa) = parse(&argv("sweep --htm p8")).unwrap() else {
            panic!("expected sweep")
        };
        assert_eq!(sa.htms, vec![HtmKind::P8]);
        assert!(!sa.smoke);
    }

    #[test]
    fn executes_list() {
        let mut buf = Vec::new();
        execute(&Command::List, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("vacation"));
        assert_eq!(s.lines().count(), WORKLOAD_NAMES.len());
    }

    #[test]
    fn executes_run_csv() {
        let cmd = parse(&argv("run --workload kmeans --csv --seed 3")).unwrap();
        let mut buf = Vec::new();
        execute(&cmd, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let mut lines = s.lines();
        assert_eq!(lines.next(), Some(CSV_HEADER));
        let row = lines.next().unwrap();
        assert!(row.starts_with("kmeans,P8,baseline,3,"));
        assert_eq!(row.split(',').count(), CSV_HEADER.split(',').count());
    }

    #[test]
    fn parses_audit_command() {
        assert_eq!(
            parse(&argv("audit")).unwrap(),
            Command::Audit(AuditArgs::default())
        );
        assert_eq!(
            parse(&argv("audit --all")).unwrap(),
            Command::Audit(AuditArgs::default())
        );
        let Command::Audit(aa) = parse(&argv(
            "audit --workloads kmeans,ssca2 --seed 7 --scale large",
        ))
        .unwrap() else {
            panic!("expected audit")
        };
        assert_eq!(aa.workloads, vec!["kmeans", "ssca2"]);
        assert_eq!(aa.seed, 7);
        assert_eq!(aa.scale, Scale::Large);
        assert!(parse(&argv("audit --all --workloads kmeans")).is_err());
        assert!(parse(&argv("audit --seed nope")).is_err());
        assert!(parse(&argv("audit --frobnicate")).is_err());
    }

    #[test]
    fn executes_audit_on_one_workload() {
        let cmd = parse(&argv("audit --workloads kmeans")).unwrap();
        let mut buf = Vec::new();
        execute(&cmd, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with(&audit_header()));
        assert!(s.contains("kmeans"));
        assert!(s.contains("PASS"), "kmeans hints must audit clean:\n{s}");
    }

    #[test]
    fn parses_analyze_command() {
        assert_eq!(
            parse(&argv("analyze")).unwrap(),
            Command::Analyze(AnalyzeArgs::default())
        );
        assert_eq!(
            parse(&argv("analyze --all")).unwrap(),
            Command::Analyze(AnalyzeArgs::default())
        );
        let Command::Analyze(na) = parse(&argv("analyze kmeans ssca2 --scale large")).unwrap()
        else {
            panic!("expected analyze")
        };
        assert_eq!(na.workloads, vec!["kmeans", "ssca2"]);
        assert_eq!(na.scale, Scale::Large);
        assert!(!na.json);
        let Command::Analyze(na) =
            parse(&argv("analyze --workloads tpcc-no,tpcc-p --json")).unwrap()
        else {
            panic!("expected analyze")
        };
        assert_eq!(na.workloads, vec!["tpcc-no", "tpcc-p"]);
        assert!(na.json);
        assert!(parse(&argv("analyze --all kmeans")).is_err());
        assert!(parse(&argv("analyze --scale weird")).is_err());
        assert!(parse(&argv("analyze --frobnicate")).is_err());
    }

    #[test]
    fn executes_analyze_on_one_workload() {
        let cmd = parse(&argv("analyze kmeans")).unwrap();
        let mut buf = Vec::new();
        execute(&cmd, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.starts_with(&analyze_header()));
        assert!(s.contains("kmeans"));
        assert!(s.contains("PASS"), "kmeans must analyze clean:\n{s}");
        assert!(s.contains("fits"), "kmeans fits every model:\n{s}");
    }

    #[test]
    fn executes_analyze_json() {
        let cmd = parse(&argv("analyze kmeans labyrinth --json")).unwrap();
        let mut buf = Vec::new();
        execute(&cmd, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let j = Json::parse(&s).expect("analyze --json emits valid JSON");
        let Json::Arr(reports) = j else {
            panic!("expected a JSON array")
        };
        assert_eq!(reports.len(), 2);
        assert!(s.contains("\"must-overflow\""), "{s}");
        assert!(s.contains("\"fits\""), "{s}");
        assert!(s.contains("\"histogram\""), "{s}");
    }

    #[test]
    fn executes_audit_json() {
        let cmd = parse(&argv("audit --workloads kmeans --json")).unwrap();
        let mut buf = Vec::new();
        execute(&cmd, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        let j = Json::parse(&s).expect("audit --json emits valid JSON");
        let Json::Arr(reports) = j else {
            panic!("expected a JSON array")
        };
        assert_eq!(reports.len(), 1);
        assert!(s.contains("\"unsound\""), "{s}");
    }

    #[test]
    fn analyze_reports_unknown_workload() {
        let cmd = parse(&argv("analyze nope")).unwrap();
        let mut buf = Vec::new();
        let err = execute(&cmd, &mut buf).unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn audit_reports_unknown_workload() {
        let cmd = parse(&argv("audit --workloads nope")).unwrap();
        let mut buf = Vec::new();
        let err = execute(&cmd, &mut buf).unwrap_err();
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn parses_trace_command() {
        let Command::Trace(ta) = parse(&argv(
            "trace vacation --htm l1tm --seed 7 --events 512 --out /tmp/t",
        ))
        .unwrap() else {
            panic!("expected trace")
        };
        assert_eq!(ta.run.workload.as_deref(), Some("vacation"));
        assert_eq!(ta.run.htm, HtmKind::L1Tm);
        assert_eq!(ta.run.seed, 7);
        assert_eq!(ta.events, 512);
        assert_eq!(ta.out.as_deref(), Some("/tmp/t"));

        // --workload spelling works too; defaults hold.
        let Command::Trace(ta) = parse(&argv("trace --workload kmeans")).unwrap() else {
            panic!("expected trace")
        };
        assert_eq!(ta.run.workload.as_deref(), Some("kmeans"));
        assert_eq!(ta.events, 100_000);
        assert_eq!(ta.out, None);

        assert!(parse(&argv("trace")).is_err());
        assert!(parse(&argv("trace kmeans --events nope")).is_err());
        assert!(parse(&argv("trace kmeans extra")).is_err());
    }

    #[test]
    fn executes_trace_and_exports_artifacts() {
        let dir = std::env::temp_dir().join("hintm-cli-trace-test");
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = parse(&argv(&format!(
            "trace kmeans --seed 3 --events 64 --out {}",
            dir.display()
        )))
        .unwrap();
        let mut buf = Vec::new();
        execute(&cmd, &mut buf).unwrap();
        let s = String::from_utf8(buf).unwrap();
        assert!(s.contains("trace:"), "{s}");
        assert!(s.contains("digest"), "{s}");
        let json = std::fs::read_to_string(dir.join("kmeans.trace.json")).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["));
        let bin = std::fs::read(dir.join("kmeans.trace.bin")).unwrap();
        assert_eq!(&bin[..4], b"HTRC");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parses_full_sweep_command() {
        let cmd = parse(&argv(
            "sweep --workloads vacation,labyrinth --htm p8,infcap --hints off,full \
             --seeds 1,2,3 --scale large --threads 16 --smt2 --preserve --jobs 8 \
             --cache-dir /tmp/c --out /tmp/o --csv --audit --analyze --trace",
        ))
        .unwrap();
        let Command::Sweep(sa) = cmd else {
            panic!("expected sweep")
        };
        assert!(sa.trace && sa.analyze);
        assert_eq!(sa.workloads, vec!["vacation", "labyrinth"]);
        assert_eq!(sa.htms, vec![HtmKind::P8, HtmKind::InfCap]);
        assert_eq!(sa.hints, vec![HintMode::Off, HintMode::Full]);
        assert_eq!(sa.seeds, vec![1, 2, 3]);
        assert_eq!(sa.scale, Scale::Large);
        assert_eq!(sa.threads, Some(16));
        assert_eq!(sa.jobs, Some(8));
        assert!(sa.smt2 && sa.preserve && sa.csv && sa.audit);
        assert_eq!(sa.cache_dir.as_deref(), Some("/tmp/c"));
        assert_eq!(sa.out.as_deref(), Some("/tmp/o"));
        assert!(!sa.no_cache && !sa.resume);
    }

    #[test]
    fn sweep_defaults_are_empty_axes() {
        let Command::Sweep(sa) = parse(&argv("sweep")).unwrap() else {
            panic!()
        };
        assert_eq!(sa, SweepArgs::default());
    }

    #[test]
    fn sweep_rejects_bad_input() {
        assert!(parse(&argv("sweep --htm p8,weird")).is_err());
        assert!(parse(&argv("sweep --seeds 1,x")).is_err());
        assert!(parse(&argv("sweep --jobs nope")).is_err());
        assert!(parse(&argv("sweep --frobnicate")).is_err());
        assert!(parse(&argv("sweep --no-cache --resume")).is_err());
    }

    #[test]
    fn parses_perf_command() {
        assert_eq!(
            parse(&argv("perf")).unwrap(),
            Command::Perf(PerfArgs::default())
        );
        let Command::Perf(pa) = parse(&argv(
            "perf --smoke --repeat 3 --warmup 0 --out bench --baseline BENCH_x.json \
             --threshold 0.1 --no-compare",
        ))
        .unwrap() else {
            panic!("expected perf")
        };
        assert!(pa.smoke && pa.no_compare);
        assert_eq!(pa.repeat, 3);
        assert_eq!(pa.warmup, 0);
        assert_eq!(pa.out.as_deref(), Some("bench"));
        assert_eq!(pa.baseline.as_deref(), Some("BENCH_x.json"));
        assert_eq!(pa.threshold, Some(0.1));
    }

    #[test]
    fn perf_rejects_bad_input() {
        assert!(parse(&argv("perf --repeat 0")).is_err());
        assert!(parse(&argv("perf --repeat nope")).is_err());
        assert!(parse(&argv("perf --threshold 1.5")).is_err());
        assert!(parse(&argv("perf --threshold -0.1")).is_err());
        assert!(parse(&argv("perf --frobnicate")).is_err());
        let mut buf = Vec::new();
        assert!(execute(&Command::Perf(PerfArgs::default()), &mut buf).is_err());
    }

    #[test]
    fn parses_cache_clear() {
        assert_eq!(
            parse(&argv("cache clear")).unwrap(),
            Command::CacheClear { dir: None }
        );
        assert_eq!(
            parse(&argv("cache clear --cache-dir /tmp/c")).unwrap(),
            Command::CacheClear {
                dir: Some("/tmp/c".into())
            }
        );
        assert!(parse(&argv("cache")).is_err());
        assert!(parse(&argv("cache nuke")).is_err());
    }

    #[test]
    fn parses_cache_stats() {
        assert_eq!(
            parse(&argv("cache stats")).unwrap(),
            Command::CacheStats { dir: None }
        );
        assert_eq!(
            parse(&argv("cache stats --cache-dir /tmp/c")).unwrap(),
            Command::CacheStats {
                dir: Some("/tmp/c".into())
            }
        );
        assert!(parse(&argv("cache stats --frobnicate")).is_err());
    }

    #[test]
    fn parses_serve_command() {
        assert_eq!(
            parse(&argv("serve")).unwrap(),
            Command::Serve(ServeArgs::default())
        );
        let Command::Serve(sa) = parse(&argv(
            "serve --addr 0.0.0.0:9000 --workers 4 --cache-dir /tmp/c",
        ))
        .unwrap() else {
            panic!("expected serve")
        };
        assert_eq!(sa.addr, "0.0.0.0:9000");
        assert_eq!(sa.workers, Some(4));
        assert_eq!(sa.cache_dir.as_deref(), Some("/tmp/c"));
        assert_eq!(sa.join, None);

        let Command::Serve(sa) = parse(&argv("serve --join 10.0.0.1:8191 --workers 2")).unwrap()
        else {
            panic!("expected serve")
        };
        assert_eq!(sa.join.as_deref(), Some("10.0.0.1:8191"));
        assert_eq!(sa.workers, Some(2));

        assert!(parse(&argv("serve --workers nope")).is_err());
        assert!(parse(&argv("serve --join 10.0.0.1:8191 --workers 0")).is_err());
        assert!(parse(&argv("serve --frobnicate")).is_err());
    }

    #[test]
    fn scale_round_trips_through_names() {
        for s in [Scale::Sim, Scale::Large] {
            assert_eq!(parse_scale(scale_str(s)).unwrap(), s);
        }
    }

    #[test]
    fn execute_defers_runner_commands() {
        let mut buf = Vec::new();
        let err = execute(&Command::Sweep(SweepArgs::default()), &mut buf).unwrap_err();
        assert!(err.to_string().contains("hintm-serve"));
        assert!(execute(&Command::CacheClear { dir: None }, &mut buf).is_err());
        assert!(execute(&Command::CacheStats { dir: None }, &mut buf).is_err());
        assert!(execute(&Command::Serve(ServeArgs::default()), &mut buf).is_err());
    }

    #[test]
    fn run_reports_unknown_workload() {
        let cmd = parse(&argv("run --workload nope")).unwrap();
        let mut buf = Vec::new();
        let err = execute(&cmd, &mut buf).unwrap_err();
        assert!(err.to_string().contains("nope"));
    }
}
