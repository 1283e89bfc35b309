//! Run cells, sweep specs, and the knob table that defines every run knob.
//!
//! A [`Cell`] is one fully-specified simulator run: workload, HTM model,
//! hint mode, input scale, seed, plus the less common knobs (thread
//! override, SMT, preserve, heap placement, profiling). [`SweepSpec`]
//! enumerates the cross product of the values given per knob, in a stable
//! workload-major order, and deduplicates cells that different axes
//! happen to produce twice.
//!
//! `KNOBS` is the only place a run knob is defined. Its row gives the
//! knob's `run`/`suite`/`trace` flag, its `hintm sweep` flags, its
//! `POST /sweeps` field and its cell JSON field, its parser, its
//! [`Cell::key`] fragment and its help line. The CLI, the daemon's spec
//! decoder ([`SweepSpec::from_json`]), [`cell_to_json`] /
//! [`cell_from_json`], [`Cell::key`] and the usage text all walk the
//! table. Adding a knob is one row here plus the simulator setting it
//! drives in [`Cell::experiment`].

use crate::{
    AllocConfig, Experiment, HintMode, HtmKind, Json, MachineConfig, Recording, RunReport, Scale,
    SmtMode, UnknownWorkload, WORKLOAD_NAMES,
};
use hintm_mem::HEAP_ARENA_SIZE;
use std::collections::HashSet;
use std::fmt::{self, Write as _};

/// One fully-specified simulator run.
#[derive(Clone, Debug, PartialEq)]
pub struct Cell {
    /// Workload name (see `hintm list`).
    pub workload: String,
    /// HTM configuration.
    pub htm: HtmKind,
    /// Hint mode.
    pub hint: HintMode,
    /// Input scale.
    pub scale: Scale,
    /// Run seed.
    pub seed: u64,
    /// Thread-count override (`None` = the workload's paper default).
    pub threads: Option<usize>,
    /// 2-way SMT (16 hardware threads on 8 cores).
    pub smt2: bool,
    /// §VI-B preserve optimization.
    pub preserve: bool,
    /// Heap-placement color stride in bytes (0 = packed). Placement
    /// changes simulated addresses and so abort counts, so it is part of
    /// [`Cell::key`].
    pub alloc_color: u64,
    /// Record per-committed-transaction footprints (Fig. 6 CDFs).
    pub record_tx_sizes: bool,
    /// Feed every access to the sharing profiler (Fig. 1 metrics).
    pub profile_sharing: bool,
}

/// A knob's value as [`Knob::get`] reads it off a cell. It converts to the
/// knob's JSON, and displays (unquoted) as its [`Cell::key`] fragment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Value<'a> {
    /// A name: JSON string.
    Str(&'a str),
    /// An unsigned integer: JSON number.
    Num(u64),
    /// A boolean: JSON `true`/`false`.
    Bool(bool),
    /// "Use the workload's default": JSON `null`, key `auto`.
    Auto,
}

impl fmt::Display for Value<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => f.write_str(s),
            Value::Num(n) => write!(f, "{n}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Auto => f.write_str("auto"),
        }
    }
}

impl From<Value<'_>> for Json {
    fn from(v: Value<'_>) -> Json {
        match v {
            Value::Str(s) => Json::Str(s.to_string()),
            Value::Num(n) => Json::u64(n),
            Value::Bool(b) => Json::Bool(b),
            Value::Auto => Json::Null,
        }
    }
}

/// One run knob: its spelling on every surface, its parser and its key
/// fragment. See the module docs.
pub(crate) struct Knob {
    /// Field name in cell JSON (manifests, the claim wire).
    pub(crate) field: &'static str,
    /// `run`/`suite`/`trace` flag (`None`: set only through the library).
    pub(crate) flag: Option<&'static str>,
    /// `hintm sweep` flags: the documented spelling first, then aliases.
    pub(crate) sweep_flags: &'static [&'static str],
    /// `POST /sweeps` field (`None`: not part of the wire spec).
    pub(crate) spec_field: Option<&'static str>,
    /// Sweeps take a list of values (a cross-product axis) rather than a
    /// single value applied to every cell.
    pub(crate) axis: bool,
    /// Cell JSON written before the knob existed omits it: a missing field
    /// means the default.
    pub(crate) optional: bool,
    /// The [`Cell::key`] fragment's label (`""`: the bare value).
    pub(crate) key: &'static str,
    /// The usage line: metavar and help text.
    pub(crate) help: (&'static str, fn() -> String),
    /// Reads the value off a cell.
    pub(crate) get: for<'a> fn(&'a Cell) -> Value<'a>,
    /// Parses a JSON (or command-line, via [`Knob::token`]) value into the
    /// cell. Range checks are [`Cell::validate`]'s.
    pub(crate) set: fn(&mut Cell, &Json) -> Result<(), String>,
}

impl Knob {
    /// Whether the knob is a command-line switch: a boolean, which its
    /// flag sets without taking a value.
    pub(crate) fn is_switch(&self) -> bool {
        matches!((self.get)(&Cell::new("")), Value::Bool(_))
    }

    /// The JSON a command-line token stands for: a number for numeric
    /// knobs, a string otherwise. Flags and JSON fields share one parser.
    pub(crate) fn token(&self, token: &str) -> Json {
        match (self.get)(&Cell::new("")) {
            Value::Str(_) => Json::Str(token.to_string()),
            _ => Json::Num(token.to_string()),
        }
    }
}

fn name_of(j: &Json) -> Result<&str, String> {
    j.as_str().map_err(|_| format!("expected a name, got {j}"))
}

fn u64_of(j: &Json) -> Result<u64, String> {
    j.as_u64()
        .map_err(|_| format!("expected an unsigned integer, got {j}"))
}

fn bool_of(j: &Json) -> Result<bool, String> {
    match j {
        Json::Bool(b) => Ok(*b),
        _ => Err(format!("expected true or false, got {j}")),
    }
}

/// Every run knob, in [`Cell::key`] and cell JSON order. A sweep's cross
/// product is workload-major in this order too.
pub(crate) static KNOBS: [Knob; 11] = [
    Knob {
        field: "workload",
        flag: Some("--workload"),
        sweep_flags: &["--workloads"],
        spec_field: Some("workloads"),
        axis: true,
        optional: false,
        key: "",
        help: ("<name>", || {
            "one of the registered workloads (see `hintm list`)".into()
        }),
        get: |c| Value::Str(&c.workload),
        set: |c, j| name_of(j).map(|v| c.workload = v.to_string()),
    },
    Knob {
        field: "htm",
        flag: Some("--htm"),
        sweep_flags: &["--htm", "--models"],
        spec_field: Some("htm"),
        axis: true,
        optional: false,
        key: "",
        help: ("<kind>", || {
            let names = HtmKind::ALL.map(|k| k.name().to_ascii_lowercase());
            format!("HTM model: {}  [p8]", names.join(" | "))
        }),
        get: |c| Value::Str(c.htm.name()),
        set: |c, j| name_of(j)?.parse().map(|v| c.htm = v),
    },
    Knob {
        field: "hints",
        flag: Some("--hints"),
        sweep_flags: &["--hints"],
        spec_field: Some("hints"),
        axis: true,
        optional: false,
        key: "",
        help: ("<mode>", || {
            let names = HintMode::ALL.map(HintMode::cli_name);
            format!("hint mode: {}  [off]", names.join(" | "))
        }),
        get: |c| Value::Str(c.hint.name()),
        set: |c, j| name_of(j)?.parse().map(|v| c.hint = v),
    },
    Knob {
        field: "scale",
        flag: Some("--scale"),
        sweep_flags: &["--scale"],
        spec_field: Some("scale"),
        axis: false,
        optional: false,
        key: "",
        help: ("<s>", || {
            let names = Scale::ALL.map(Scale::name);
            format!("input scale: {}  [sim]", names.join(" | "))
        }),
        get: |c| Value::Str(c.scale.name()),
        set: |c, j| name_of(j)?.parse().map(|v| c.scale = v),
    },
    Knob {
        field: "seed",
        flag: Some("--seed"),
        sweep_flags: &["--seeds"],
        spec_field: Some("seeds"),
        axis: true,
        optional: false,
        key: "seed",
        help: ("<n>", || "run seed  [42]".into()),
        get: |c| Value::Num(c.seed),
        set: |c, j| u64_of(j).map(|v| c.seed = v),
    },
    Knob {
        field: "threads",
        flag: Some("--threads"),
        sweep_flags: &["--threads"],
        spec_field: Some("threads"),
        axis: false,
        optional: false,
        key: "threads",
        help: ("<n>", || {
            "thread count override: 1-8, or 1-16 with --smt2".into()
        }),
        get: |c| c.threads.map_or(Value::Auto, |t| Value::Num(t as u64)),
        set: |c, j| {
            c.threads = match j {
                Json::Null => None,
                j => Some(usize::try_from(u64_of(j)?).map_err(|e| e.to_string())?),
            };
            Ok(())
        },
    },
    Knob {
        field: "smt2",
        flag: Some("--smt2"),
        sweep_flags: &["--smt2"],
        spec_field: Some("smt2"),
        axis: false,
        optional: false,
        key: "smt2",
        help: ("", || "2-way SMT (16 hardware threads)".into()),
        get: |c| Value::Bool(c.smt2),
        set: |c, j| bool_of(j).map(|v| c.smt2 = v),
    },
    Knob {
        field: "preserve",
        flag: Some("--preserve"),
        sweep_flags: &["--preserve"],
        spec_field: Some("preserve"),
        axis: false,
        optional: false,
        key: "preserve",
        help: ("", || {
            "enable the preserve page-transition optimization".into()
        }),
        get: |c| Value::Bool(c.preserve),
        set: |c, j| bool_of(j).map(|v| c.preserve = v),
    },
    Knob {
        field: "alloc_color",
        flag: Some("--alloc-color"),
        sweep_flags: &["--alloc-colors", "--alloc-color"],
        spec_field: Some("alloc_colors"),
        axis: true,
        optional: true,
        key: "color",
        help: ("<bytes>", || {
            "heap-placement color stride: pad every fresh heap allocation by \
             <bytes> (below 4 GiB). Changes simulated addresses (and so abort \
             counts), never committed state  [0]"
                .into()
        }),
        get: |c| Value::Num(c.alloc_color),
        set: |c, j| u64_of(j).map(|v| c.alloc_color = v),
    },
    Knob {
        field: "record_tx_sizes",
        flag: None,
        sweep_flags: &[],
        spec_field: None,
        axis: false,
        optional: false,
        key: "txsizes",
        help: ("", || "record per-transaction footprints".into()),
        get: |c| Value::Bool(c.record_tx_sizes),
        set: |c, j| bool_of(j).map(|v| c.record_tx_sizes = v),
    },
    Knob {
        field: "profile_sharing",
        flag: None,
        sweep_flags: &[],
        spec_field: None,
        axis: false,
        optional: false,
        key: "sharing",
        help: ("", || "feed every access to the sharing profiler".into()),
        get: |c| Value::Bool(c.profile_sharing),
        set: |c, j| bool_of(j).map(|v| c.profile_sharing = v),
    },
];

impl Cell {
    /// A cell with the paper's defaults: P8 HTM, no hints, `Scale::Sim`,
    /// seed 42 (mirrors [`Experiment::new`]).
    pub fn new(workload: &str) -> Cell {
        Cell {
            workload: workload.to_string(),
            htm: HtmKind::P8,
            hint: HintMode::Off,
            scale: Scale::Sim,
            seed: 42,
            threads: None,
            smt2: false,
            preserve: false,
            alloc_color: 0,
            record_tx_sizes: false,
            profile_sharing: false,
        }
    }

    /// Selects the HTM configuration.
    pub fn htm(mut self, kind: HtmKind) -> Self {
        self.htm = kind;
        self
    }

    /// Selects the hint mode.
    pub fn hint(mut self, mode: HintMode) -> Self {
        self.hint = mode;
        self
    }

    /// Selects the input scale.
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Sets the run seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Overrides the workload's thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Enables 2-way SMT.
    pub fn smt2(mut self, on: bool) -> Self {
        self.smt2 = on;
        self
    }

    /// Enables the preserve optimization.
    pub fn preserve(mut self, on: bool) -> Self {
        self.preserve = on;
        self
    }

    /// Sets the heap-placement color stride (bytes padded after every
    /// fresh allocation). Result-affecting: enters [`Cell::key`].
    pub fn alloc_color(mut self, stride: u64) -> Self {
        self.alloc_color = stride;
        self
    }

    /// Records per-transaction footprints.
    pub fn record_tx_sizes(mut self, on: bool) -> Self {
        self.record_tx_sizes = on;
        self
    }

    /// Enables the sharing profiler.
    pub fn profile_sharing(mut self, on: bool) -> Self {
        self.profile_sharing = on;
        self
    }

    /// The canonical identity of this cell: every knob's key fragment, in
    /// `KNOBS` order. Two cells are the same run iff their keys are
    /// equal — the cache addresses results by a hash of this string.
    pub fn key(&self) -> String {
        let mut key = String::with_capacity(128);
        for (i, knob) in KNOBS.iter().enumerate() {
            if i > 0 {
                key.push('|');
            }
            if !knob.key.is_empty() {
                key.push_str(knob.key);
                key.push('=');
            }
            write!(key, "{}", (knob.get)(self)).expect("writing to a String");
        }
        key
    }

    /// A short human-readable label for progress lines.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{} s{}",
            self.workload, self.htm, self.hint, self.seed
        )
    }

    /// Hardware threads of the simulated machine the cell runs on: 8
    /// cores, two threads each under SMT2.
    pub(crate) fn hw_threads(&self) -> usize {
        let mut machine = MachineConfig::default();
        if self.smt2 {
            machine.smt = SmtMode::Smt2;
        }
        machine.hw_threads()
    }

    /// Checks the ranges every parser enforces: a thread count the
    /// simulated machine can run (1–8, or 1–16 with SMT2), and a heap
    /// color stride below the per-thread heap arena (4 GiB), which could
    /// not hold even one allocation. The builders do not check, so a
    /// library caller can still ask for (and get a panic from) an
    /// impossible run.
    ///
    /// # Errors
    ///
    /// Describes the first knob out of range.
    pub fn validate(&self) -> Result<(), String> {
        if let Some(t) = self.threads {
            let hw = self.hw_threads();
            if t == 0 || t > hw {
                return Err(format!(
                    "threads must be between 1 and {hw}{}, got {t}",
                    if self.smt2 { "" } else { " (16 with smt2)" }
                ));
            }
        }
        if self.alloc_color >= HEAP_ARENA_SIZE {
            return Err(format!(
                "alloc_color must be below the {HEAP_ARENA_SIZE}-byte heap arena, got {}",
                self.alloc_color
            ));
        }
        Ok(())
    }

    /// Builds the equivalent [`Experiment`].
    pub fn experiment(&self) -> Experiment {
        let mut e = Experiment::new(&self.workload)
            .htm(self.htm)
            .hint_mode(self.hint)
            .scale(self.scale)
            .seed(self.seed)
            .smt2(self.smt2)
            .preserve(self.preserve)
            .record_tx_sizes(self.record_tx_sizes)
            .profile_sharing(self.profile_sharing)
            .alloc(AllocConfig {
                color_stride: self.alloc_color,
                ..AllocConfig::default()
            });
        if let Some(t) = self.threads {
            e = e.threads(t);
        }
        e
    }

    /// Runs the cell.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownWorkload`] if the workload name is not registered.
    pub fn run(&self) -> Result<RunReport, UnknownWorkload> {
        self.experiment().run()
    }

    /// Runs the cell under a trace recorder retaining up to `events`
    /// events (metrics and the digest always cover the whole run). The
    /// report carries the metric summary in [`RunReport::trace`].
    ///
    /// # Errors
    ///
    /// Returns [`UnknownWorkload`] if the workload name is not registered.
    pub fn run_traced(&self, events: usize) -> Result<(RunReport, Recording), UnknownWorkload> {
        self.experiment().run_traced(events)
    }
}

/// A cell's configuration as a JSON object (manifests, result tables and
/// the claim wire): one field per knob, in `KNOBS` order.
pub fn cell_to_json(cell: &Cell) -> Json {
    Json::Obj(
        KNOBS
            .iter()
            .map(|k| (k.field.to_string(), (k.get)(cell).into()))
            .collect(),
    )
}

/// Rebuilds a [`Cell`] from its [`cell_to_json`] object. Fields no knob
/// reads (such as the lane-count and execution-tier keys older manifests
/// and workers still send) are ignored.
///
/// # Errors
///
/// Describes the first missing, malformed or out-of-range field.
pub fn cell_from_json(j: &Json) -> Result<Cell, String> {
    let mut cell = Cell::new("");
    for knob in &KNOBS {
        match j.get(knob.field) {
            Some(v) => (knob.set)(&mut cell, v).map_err(|e| format!("`{}`: {e}", knob.field))?,
            None if knob.optional => {}
            None => return Err(format!("missing field `{}`", knob.field)),
        }
    }
    cell.validate()?;
    Ok(cell)
}

/// Builder enumerating a sweep's cells as the cross product of its axes.
///
/// Each knob holds a list of values. An empty list falls back to the
/// knob's default at [`SweepSpec::cells`] time — every registered
/// workload, `P8`, `off`, `sim`, seed 42 and so on. Irregular cells (e.g.
/// one profiling run per workload) ride along via [`SweepSpec::cell`].
/// Enumeration order is stable — workload-major, then the other knobs in
/// `KNOBS` order (HTM, hint, scale, seed, ..., alloc color), then the
/// extra cells — and duplicates are dropped, keeping the first occurrence.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepSpec {
    /// Per knob, in `KNOBS` order, the JSON values to sweep. Every value
    /// has passed its knob's parser.
    values: Vec<Vec<Json>>,
    extra: Vec<Cell>,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            values: vec![Vec::new(); KNOBS.len()],
            extra: Vec::new(),
        }
    }
}

impl SweepSpec {
    /// An empty spec (all axes at their defaults).
    pub fn new() -> SweepSpec {
        SweepSpec::default()
    }

    fn slot(&mut self, field: &str) -> &mut Vec<Json> {
        let i = KNOBS
            .iter()
            .position(|k| k.field == field)
            .unwrap_or_else(|| panic!("no knob `{field}`"));
        &mut self.values[i]
    }

    fn add(mut self, field: &str, v: Value<'_>) -> Self {
        self.slot(field).push(v.into());
        self
    }

    fn put(mut self, field: &str, v: Value<'_>) -> Self {
        *self.slot(field) = vec![v.into()];
        self
    }

    /// Replaces `knob`'s values with `values`, each run through the knob's
    /// parser and kept in its canonical spelling: how the CLI and the
    /// daemon fill a spec.
    ///
    /// # Errors
    ///
    /// Returns the parser's error for the first bad value.
    pub(crate) fn set(&mut self, knob: &Knob, values: &[Json]) -> Result<(), String> {
        let mut scratch = Cell::new("");
        *self.slot(knob.field) = values
            .iter()
            .map(|v| {
                (knob.set)(&mut scratch, v)?;
                Ok((knob.get)(&scratch).into())
            })
            .collect::<Result<_, String>>()?;
        Ok(())
    }

    /// Whether `field`'s knob still takes its default.
    pub(crate) fn is_default(&self, field: &str) -> bool {
        let i = KNOBS.iter().position(|k| k.field == field);
        i.is_none_or(|i| self.values[i].is_empty())
    }

    /// Adds one workload to the sweep.
    pub fn workload(self, name: &str) -> Self {
        self.add("workload", Value::Str(name))
    }

    /// Adds several workloads.
    pub fn workloads<'a>(self, names: impl IntoIterator<Item = &'a str>) -> Self {
        names.into_iter().fold(self, |s, n| s.workload(n))
    }

    /// Adds one HTM configuration to the sweep.
    pub fn htm(self, kind: HtmKind) -> Self {
        self.add("htm", Value::Str(kind.name()))
    }

    /// Adds several HTM configurations.
    pub fn htms(self, kinds: impl IntoIterator<Item = HtmKind>) -> Self {
        kinds.into_iter().fold(self, |s, k| s.htm(k))
    }

    /// Adds one hint mode to the sweep.
    pub fn hint(self, mode: HintMode) -> Self {
        self.add("hints", Value::Str(mode.name()))
    }

    /// Adds several hint modes.
    pub fn hints(self, modes: impl IntoIterator<Item = HintMode>) -> Self {
        modes.into_iter().fold(self, |s, m| s.hint(m))
    }

    /// Adds one input scale to the sweep.
    pub fn scale(self, scale: Scale) -> Self {
        self.add("scale", Value::Str(scale.name()))
    }

    /// Adds one seed to the sweep.
    pub fn seed(self, seed: u64) -> Self {
        self.add("seed", Value::Num(seed))
    }

    /// Adds several seeds.
    pub fn seeds(self, seeds: impl IntoIterator<Item = u64>) -> Self {
        seeds.into_iter().fold(self, |s, n| s.seed(n))
    }

    /// Adds one heap-placement color stride to the sweep (a
    /// result-affecting axis; empty = `[0]`, the packed default).
    pub fn alloc_color(self, stride: u64) -> Self {
        self.add("alloc_color", Value::Num(stride))
    }

    /// Adds several heap-placement color strides.
    pub fn alloc_colors(self, strides: impl IntoIterator<Item = u64>) -> Self {
        strides.into_iter().fold(self, |s, c| s.alloc_color(c))
    }

    /// Thread-count override applied to every enumerated cell.
    pub fn threads(self, threads: usize) -> Self {
        self.put("threads", Value::Num(threads as u64))
    }

    /// 2-way SMT on every enumerated cell.
    pub fn smt2(self, on: bool) -> Self {
        self.put("smt2", Value::Bool(on))
    }

    /// Preserve optimization on every enumerated cell.
    pub fn preserve(self, on: bool) -> Self {
        self.put("preserve", Value::Bool(on))
    }

    /// Footprint recording on every enumerated cell.
    pub fn record_tx_sizes(self, on: bool) -> Self {
        self.put("record_tx_sizes", Value::Bool(on))
    }

    /// Sharing profiling on every enumerated cell.
    pub fn profile_sharing(self, on: bool) -> Self {
        self.put("profile_sharing", Value::Bool(on))
    }

    /// Appends one irregular cell after the cross product.
    pub fn cell(mut self, cell: Cell) -> Self {
        self.extra.push(cell);
        self
    }

    /// Decodes a `POST /sweeps` body: an object holding any of the knobs'
    /// spec fields — a list for axes, a single value otherwise — with
    /// the CLI's defaults. Unknown fields and unregistered workloads are
    /// rejected, so typos fail loudly instead of sweeping the wrong grid.
    ///
    /// # Errors
    ///
    /// Describes the first malformed, unknown or invalid field.
    pub fn from_json(j: &Json) -> Result<SweepSpec, String> {
        let Json::Obj(fields) = j else {
            return Err("sweep spec must be a JSON object".into());
        };
        let mut spec = SweepSpec::new();
        for (name, value) in fields {
            let knob = KNOBS
                .iter()
                .find(|k| k.spec_field == Some(name.as_str()))
                .ok_or_else(|| format!("unknown sweep spec field `{name}`"))?;
            let values = if knob.axis {
                value
                    .as_arr()
                    .map_err(|_| format!("`{name}` must be an array"))?
            } else {
                std::slice::from_ref(value)
            };
            spec.set(knob, values)
                .map_err(|e| format!("`{name}`: {e}"))?;
        }
        for w in spec.slot("workload").iter() {
            let w = name_of(w)?;
            if !WORKLOAD_NAMES.contains(&w) {
                return Err(format!("unknown workload `{w}`"));
            }
        }
        Ok(spec)
    }

    /// Enumerates the sweep's cells: cross product in stable order, extras
    /// appended, duplicates dropped (first occurrence wins).
    pub fn cells(&self) -> Vec<Cell> {
        let registry: Vec<Json> = WORKLOAD_NAMES
            .iter()
            .map(|w| Json::Str(w.to_string()))
            .collect();
        let mut product = vec![Cell::new("")];
        for (knob, values) in KNOBS.iter().zip(&self.values) {
            let values = match values.is_empty() {
                true if knob.field == "workload" => &registry,
                true => continue,
                false => values,
            };
            product = product
                .iter()
                .flat_map(|cell| {
                    values.iter().map(move |v| {
                        let mut c = cell.clone();
                        (knob.set)(&mut c, v).expect("values are parsed when added");
                        c
                    })
                })
                .collect();
        }
        let mut seen = HashSet::new();
        product
            .into_iter()
            .chain(self.extra.iter().cloned())
            .filter(|cell| seen.insert(cell.key()))
            .collect()
    }

    /// [`SweepSpec::cells`], each checked by [`Cell::validate`].
    ///
    /// # Errors
    ///
    /// Returns the first invalid cell's error.
    pub fn checked_cells(&self) -> Result<Vec<Cell>, String> {
        let cells = self.cells();
        cells.iter().try_for_each(Cell::validate)?;
        Ok(cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_covers_every_knob() {
        let a = Cell::new("kmeans");
        // Flipping any knob must change the key.
        let variants = [
            Cell::new("genome"),
            a.clone().htm(HtmKind::L1Tm),
            a.clone().hint(HintMode::Full),
            a.clone().scale(Scale::Large),
            a.clone().seed(7),
            a.clone().threads(4),
            a.clone().smt2(true),
            a.clone().preserve(true),
            a.clone().alloc_color(64),
            a.clone().record_tx_sizes(true),
            a.clone().profile_sharing(true),
        ];
        assert_eq!(variants.len(), KNOBS.len());
        for v in &variants {
            assert_ne!(a.key(), v.key(), "key misses a knob: {v:?}");
        }
        assert_eq!(a.key(), a.clone().key());
    }

    #[test]
    fn knob_table_spellings_are_unique() {
        let mut seen = HashSet::new();
        for k in &KNOBS {
            let flags = k
                .flag
                .iter()
                .chain(k.sweep_flags)
                .filter(|f| k.flag != Some(f));
            assert!(
                flags.chain([&k.field]).all(|name| seen.insert(*name)),
                "{}",
                k.field
            );
            assert!(k.spec_field.is_none_or(|f| f == k.field || seen.insert(f)));
        }
    }

    #[test]
    fn spec_enumerates_cross_product_in_stable_order() {
        let spec = SweepSpec::new()
            .workloads(["kmeans", "ssca2"])
            .htms([HtmKind::P8, HtmKind::InfCap])
            .hints([HintMode::Off, HintMode::Full])
            .seeds([1, 2]);
        let cells = spec.cells();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2);
        assert_eq!(cells[0].key(), Cell::new("kmeans").seed(1).key());
        assert_eq!(
            cells[1].key(),
            Cell::new("kmeans").seed(2).key(),
            "seed is the innermost axis here"
        );
        assert_eq!(cells[2].hint, HintMode::Full);
        assert_eq!(cells[4].htm, HtmKind::InfCap);
        // Workload-major: all kmeans cells precede all ssca2 cells.
        assert!(cells[..8].iter().all(|c| c.workload == "kmeans"));
        assert!(cells[8..].iter().all(|c| c.workload == "ssca2"));
        assert_eq!(spec.cells(), cells);
    }

    #[test]
    fn alloc_color_is_a_result_affecting_axis() {
        // Placement shifts addresses, so the cache must NOT share results
        // across strides: the key includes the axis.
        let cells = SweepSpec::new()
            .workload("kmeans")
            .alloc_colors([0, 64])
            .cells();
        assert_eq!(cells.len(), 2);
        assert_eq!(cells[0].alloc_color, 0);
        assert_eq!(cells[1].alloc_color, 64);
        assert_ne!(cells[0].key(), cells[1].key());
        // The packed default enumerates exactly the old single cell.
        assert_eq!(Cell::new("kmeans").key(), cells[0].key());
    }

    #[test]
    fn spec_dedups_and_appends_extras() {
        let spec = SweepSpec::new()
            .workload("kmeans")
            .workload("kmeans")
            .htms([HtmKind::P8, HtmKind::P8])
            .cell(Cell::new("kmeans")) // same as the cross product's only cell
            .cell(Cell::new("kmeans").profile_sharing(true));
        let cells = spec.cells();
        assert_eq!(cells.len(), 2);
        assert!(!cells[0].profile_sharing && cells[1].profile_sharing);
    }

    #[test]
    fn empty_spec_defaults_to_all_workloads_baseline() {
        let cells = SweepSpec::new().cells();
        assert_eq!(cells.len(), WORKLOAD_NAMES.len());
        assert!(cells
            .iter()
            .all(|c| c.htm == HtmKind::P8 && c.hint == HintMode::Off));
        assert!(cells.iter().all(|c| c.seed == 42));
        assert!(SweepSpec::new().is_default("workload"));
        assert!(!SweepSpec::new().workload("kmeans").is_default("workload"));
    }

    #[test]
    fn cell_runs_like_the_equivalent_experiment() {
        let cell = Cell::new("ssca2").seed(7);
        let a = cell.run().unwrap();
        let b = Experiment::new("ssca2").seed(7).run().unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn spec_json_mirrors_the_builder() {
        let j = Json::parse(
            r#"{"workloads":["kmeans","ssca2"],"htm":["p8","infcap"],
                "hints":["off","full"],"seeds":[1,2],"scale":"large",
                "threads":4,"smt2":true,"preserve":true,"alloc_colors":[0,64]}"#,
        )
        .unwrap();
        let cells = SweepSpec::from_json(&j).unwrap().checked_cells().unwrap();
        assert_eq!(cells.len(), 2 * 2 * 2 * 2 * 2);
        assert!(cells
            .iter()
            .all(|c| { c.scale == Scale::Large && c.threads == Some(4) && c.smt2 && c.preserve }));
        let built = SweepSpec::new()
            .workloads(["kmeans", "ssca2"])
            .htms([HtmKind::P8, HtmKind::InfCap])
            .hints([HintMode::Off, HintMode::Full])
            .seeds([1, 2])
            .scale(Scale::Large)
            .threads(4)
            .smt2(true)
            .preserve(true)
            .alloc_colors([0, 64])
            .cells();
        assert_eq!(cells, built);
        // `threads: null` means the workload default, as it does in cell JSON.
        let j = Json::parse(r#"{"workloads":["kmeans"],"threads":null}"#).unwrap();
        let cells = SweepSpec::from_json(&j).unwrap().cells();
        assert_eq!(cells, vec![Cell::new("kmeans")]);
    }

    #[test]
    fn runs_the_machine_cannot_make_are_rejected() {
        for (cell, ok) in [
            (Cell::new("kmeans").threads(0), false),
            (Cell::new("kmeans").threads(8), true),
            (Cell::new("kmeans").threads(9), false),
            (Cell::new("kmeans").threads(16).smt2(true), true),
            (Cell::new("kmeans").threads(17).smt2(true), false),
            (Cell::new("kmeans").alloc_color(HEAP_ARENA_SIZE - 1), true),
            (Cell::new("kmeans").alloc_color(HEAP_ARENA_SIZE), false),
            (Cell::new("kmeans").alloc_color(u64::MAX), false),
        ] {
            assert_eq!(cell.validate().is_ok(), ok, "{}", cell.key());
            // The claim wire and the sweep enumeration apply the same check.
            assert_eq!(cell_from_json(&cell_to_json(&cell)).is_ok(), ok);
            assert_eq!(SweepSpec::new().cell(cell).checked_cells().is_ok(), ok);
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
                .preserve(true)
                .alloc_color(64)
                .record_tx_sizes(true)
                .profile_sharing(true),
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
    fn cell_json_before_heap_placement_defaults_to_packed() {
        let without = |drop: &[&str]| {
            let Json::Obj(mut fields) = cell_to_json(&Cell::new("kmeans").alloc_color(64)) else {
                unreachable!()
            };
            fields.retain(|(k, _)| !drop.contains(&k.as_str()));
            cell_from_json(&Json::Obj(fields))
        };
        assert_eq!(without(&["alloc_color"]).unwrap(), Cell::new("kmeans"));
        assert!(without(&["seed"]).unwrap_err().contains("seed"));
    }
}
