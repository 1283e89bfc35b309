//! Sweep cells and the [`SweepSpec`] builder.
//!
//! A [`Cell`] is one fully-specified simulator run — workload, HTM model,
//! hint mode, input scale, seed, plus the less common knobs (thread
//! override, SMT, preserve, profiling). [`SweepSpec`] enumerates the cross
//! product of the axes you give it, in a stable workload-major order, and
//! deduplicates cells that different axes happen to produce twice.

use hintm::{
    AllocConfig, Experiment, HintMode, HtmKind, Recording, RunReport, Scale, UnknownWorkload,
    WORKLOAD_NAMES,
};
use std::collections::HashSet;

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

fn scale_str(s: Scale) -> &'static str {
    match s {
        Scale::Sim => "sim",
        Scale::Large => "large",
    }
}

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

    /// The canonical identity of this cell: every *result-affecting*
    /// configuration knob in a fixed order. Two cells are the same run iff
    /// their keys are equal — the cache addresses results by a hash of
    /// this string.
    pub fn key(&self) -> String {
        format!(
            "{}|{}|{}|{}|seed={}|threads={}|smt2={}|preserve={}|color={}|txsizes={}|sharing={}",
            self.workload,
            self.htm,
            self.hint,
            scale_str(self.scale),
            self.seed,
            self.threads
                .map_or_else(|| "auto".to_string(), |t| t.to_string()),
            self.smt2,
            self.preserve,
            self.alloc_color,
            self.record_tx_sizes,
            self.profile_sharing,
        )
    }

    /// A short human-readable label for progress lines.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{} s{}",
            self.workload, self.htm, self.hint, self.seed
        )
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

/// Builder enumerating a sweep's cells as the cross product of its axes.
///
/// Empty axes fall back to defaults at [`SweepSpec::cells`] time: all
/// registered workloads, `[P8]`, `[off]`, `[sim]`, `[42]`. Irregular cells
/// (e.g. one profiling run per workload) ride along via
/// [`SweepSpec::cell`]. Enumeration order is stable — workload-major, then
/// HTM, hint, scale, seed, alloc color, then the extra cells — and
/// duplicates are dropped, keeping the first occurrence.
#[derive(Clone, Debug, Default)]
pub struct SweepSpec {
    workloads: Vec<String>,
    htms: Vec<HtmKind>,
    hints: Vec<HintMode>,
    scales: Vec<Scale>,
    seeds: Vec<u64>,
    alloc_colors: Vec<u64>,
    threads: Option<usize>,
    smt2: bool,
    preserve: bool,
    record_tx_sizes: bool,
    profile_sharing: bool,
    extra: Vec<Cell>,
}

impl SweepSpec {
    /// An empty spec (all axes at their defaults).
    pub fn new() -> SweepSpec {
        SweepSpec::default()
    }

    /// Adds one workload to the sweep.
    pub fn workload(mut self, name: &str) -> Self {
        self.workloads.push(name.to_string());
        self
    }

    /// Adds several workloads.
    pub fn workloads<'a>(mut self, names: impl IntoIterator<Item = &'a str>) -> Self {
        self.workloads.extend(names.into_iter().map(String::from));
        self
    }

    /// Adds one HTM configuration to the sweep.
    pub fn htm(mut self, kind: HtmKind) -> Self {
        self.htms.push(kind);
        self
    }

    /// Adds several HTM configurations.
    pub fn htms(mut self, kinds: impl IntoIterator<Item = HtmKind>) -> Self {
        self.htms.extend(kinds);
        self
    }

    /// Adds one hint mode to the sweep.
    pub fn hint(mut self, mode: HintMode) -> Self {
        self.hints.push(mode);
        self
    }

    /// Adds several hint modes.
    pub fn hints(mut self, modes: impl IntoIterator<Item = HintMode>) -> Self {
        self.hints.extend(modes);
        self
    }

    /// Adds one input scale to the sweep.
    pub fn scale(mut self, scale: Scale) -> Self {
        self.scales.push(scale);
        self
    }

    /// Adds one seed to the sweep.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seeds.push(seed);
        self
    }

    /// Adds several seeds.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.extend(seeds);
        self
    }

    /// Adds one heap-placement color stride to the sweep (a
    /// result-affecting axis; empty = `[0]`, the packed default).
    pub fn alloc_color(mut self, stride: u64) -> Self {
        self.alloc_colors.push(stride);
        self
    }

    /// Adds several heap-placement color strides.
    pub fn alloc_colors(mut self, strides: impl IntoIterator<Item = u64>) -> Self {
        self.alloc_colors.extend(strides);
        self
    }

    /// Thread-count override applied to every enumerated cell.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// 2-way SMT on every enumerated cell.
    pub fn smt2(mut self, on: bool) -> Self {
        self.smt2 = on;
        self
    }

    /// Preserve optimization on every enumerated cell.
    pub fn preserve(mut self, on: bool) -> Self {
        self.preserve = on;
        self
    }

    /// Footprint recording on every enumerated cell.
    pub fn record_tx_sizes(mut self, on: bool) -> Self {
        self.record_tx_sizes = on;
        self
    }

    /// Sharing profiling on every enumerated cell.
    pub fn profile_sharing(mut self, on: bool) -> Self {
        self.profile_sharing = on;
        self
    }

    /// Appends one irregular cell after the cross product.
    pub fn cell(mut self, cell: Cell) -> Self {
        self.extra.push(cell);
        self
    }

    /// Enumerates the sweep's cells: cross product in stable order, extras
    /// appended, duplicates dropped (first occurrence wins).
    pub fn cells(&self) -> Vec<Cell> {
        let workloads: Vec<String> = if self.workloads.is_empty() {
            WORKLOAD_NAMES.iter().map(|s| s.to_string()).collect()
        } else {
            self.workloads.clone()
        };
        let htms = if self.htms.is_empty() {
            vec![HtmKind::P8]
        } else {
            self.htms.clone()
        };
        let hints = if self.hints.is_empty() {
            vec![HintMode::Off]
        } else {
            self.hints.clone()
        };
        let scales = if self.scales.is_empty() {
            vec![Scale::Sim]
        } else {
            self.scales.clone()
        };
        let seeds = if self.seeds.is_empty() {
            vec![42]
        } else {
            self.seeds.clone()
        };
        let alloc_colors = if self.alloc_colors.is_empty() {
            vec![0]
        } else {
            self.alloc_colors.clone()
        };

        let mut product = Vec::new();
        for w in &workloads {
            for &htm in &htms {
                for &hint in &hints {
                    for &scale in &scales {
                        for &seed in &seeds {
                            for &color in &alloc_colors {
                                let mut c = Cell::new(w)
                                    .htm(htm)
                                    .hint(hint)
                                    .scale(scale)
                                    .seed(seed)
                                    .smt2(self.smt2)
                                    .preserve(self.preserve)
                                    .alloc_color(color)
                                    .record_tx_sizes(self.record_tx_sizes)
                                    .profile_sharing(self.profile_sharing);
                                c.threads = self.threads;
                                product.push(c);
                            }
                        }
                    }
                }
            }
        }
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for cell in product.into_iter().chain(self.extra.iter().cloned()) {
            if seen.insert(cell.key()) {
                out.push(cell);
            }
        }
        out
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
        for v in &variants {
            assert_ne!(a.key(), v.key(), "key misses a knob: {v:?}");
        }
        assert_eq!(a.key(), a.clone().key());
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
    }

    #[test]
    fn cell_runs_like_the_equivalent_experiment() {
        let cell = Cell::new("ssca2").seed(7);
        let a = cell.run().unwrap();
        let b = Experiment::new("ssca2").seed(7).run().unwrap();
        assert_eq!(a.to_json(), b.to_json());
    }
}
