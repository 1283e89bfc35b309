//! Simulation configuration.

use hintm_htm::{HtmConfig, HtmKind};
use hintm_types::names::{self, NameTable};
use hintm_types::{Cycles, MachineConfig};
use std::fmt;

/// Which HinTM classification mechanisms feed safety hints to the HTM.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum HintMode {
    /// Baseline: no hints (conventional HTM).
    #[default]
    Off,
    /// Compiler hints only (HinTM-st).
    Static,
    /// Page-level dynamic classification only (HinTM-dyn).
    Dynamic,
    /// Both mechanisms (full HinTM).
    Full,
}

impl HintMode {
    /// Static hints enabled?
    pub const fn uses_static(self) -> bool {
        matches!(self, HintMode::Static | HintMode::Full)
    }

    /// Dynamic hints enabled?
    pub const fn uses_dynamic(self) -> bool {
        matches!(self, HintMode::Dynamic | HintMode::Full)
    }
}

/// The name table: every mode with its spellings. The first is the
/// display name reports, cell keys and manifests carry; the second is the
/// command-line name; the rest are aliases. Parsing accepts any of them,
/// ignoring case.
const NAMES: NameTable<HintMode, 4> = [
    (HintMode::Off, &["baseline", "off"]),
    (HintMode::Static, &["HinTM-st", "static", "st"]),
    (HintMode::Dynamic, &["HinTM-dyn", "dynamic", "dyn"]),
    (HintMode::Full, &["HinTM", "full"]),
];

impl HintMode {
    /// Every mode, in name-table order.
    pub const ALL: [HintMode; 4] = names::values(&NAMES);

    /// The display name (`baseline`, `HinTM-st`, ...).
    pub fn name(self) -> &'static str {
        names::spellings(&NAMES, self)[0]
    }

    /// The command-line name (`off`, `static`, ...).
    pub fn cli_name(self) -> &'static str {
        names::spellings(&NAMES, self)[1]
    }
}

impl fmt::Display for HintMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for HintMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        names::parse(&NAMES, "hint mode", s)
    }
}

/// Full configuration of one simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Machine parameters (Table II).
    pub machine: MachineConfig,
    /// HTM parameters.
    pub htm: HtmConfig,
    /// Which hint mechanisms are active.
    pub hint_mode: HintMode,
    /// Enable the §VI-B preserve optimization in the VM.
    pub preserve: bool,
    /// Fixed cost of a `tbegin`/`tend` instruction pair half.
    pub tx_begin_cost: Cycles,
    /// Fixed cost of a commit.
    pub tx_commit_cost: Cycles,
    /// Fixed abort handling cost (register restore + handler dispatch).
    pub abort_penalty: Cycles,
    /// Base backoff after an abort; doubles per consecutive retry.
    pub backoff_base: Cycles,
    /// LogTM: per-overflowed-block log-unroll cost charged on abort.
    pub log_unroll_cost: Cycles,
    /// PStretch: cost of one capacity-stretch suspend/resume round trip,
    /// charged to the stretching thread's clock when the tracker sheds its
    /// read-only entries.
    pub stretch_cost: Cycles,
    /// Record per-committed-TX footprints (Fig. 6 CDFs).
    pub record_tx_sizes: bool,
    /// Feed every access to the sharing profiler (Fig. 1 metrics).
    pub profile_sharing: bool,
    /// Safety valve: abort the run after this many engine steps.
    pub max_steps: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            machine: MachineConfig::default(),
            htm: HtmConfig::new(HtmKind::P8),
            hint_mode: HintMode::Off,
            preserve: false,
            tx_begin_cost: Cycles(5),
            tx_commit_cost: Cycles(10),
            abort_penalty: Cycles(150),
            backoff_base: Cycles(100),
            log_unroll_cost: Cycles(20),
            stretch_cost: Cycles(40),
            record_tx_sizes: false,
            profile_sharing: false,
            max_steps: 2_000_000_000,
        }
    }
}

impl SimConfig {
    /// A config for the given HTM kind with everything else default.
    pub fn with_htm(kind: HtmKind) -> Self {
        SimConfig {
            htm: HtmConfig::new(kind),
            ..Self::default()
        }
    }

    /// Builder-style: sets the hint mode.
    pub fn hint_mode(mut self, mode: HintMode) -> Self {
        self.hint_mode = mode;
        self
    }

    /// Builder-style: enables SMT-2 (L1TM experiments).
    pub fn smt2(mut self) -> Self {
        self.machine.smt = hintm_types::SmtMode::Smt2;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hint_mode_flags() {
        assert!(!HintMode::Off.uses_static() && !HintMode::Off.uses_dynamic());
        assert!(HintMode::Static.uses_static() && !HintMode::Static.uses_dynamic());
        assert!(!HintMode::Dynamic.uses_static() && HintMode::Dynamic.uses_dynamic());
        assert!(HintMode::Full.uses_static() && HintMode::Full.uses_dynamic());
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(HintMode::Static.to_string(), "HinTM-st");
        assert_eq!(HintMode::Dynamic.to_string(), "HinTM-dyn");
        assert_eq!(HintMode::Full.to_string(), "HinTM");
    }

    #[test]
    fn builders() {
        let c = SimConfig::with_htm(HtmKind::L1Tm)
            .hint_mode(HintMode::Full)
            .smt2();
        assert_eq!(c.htm.kind, HtmKind::L1Tm);
        assert_eq!(c.hint_mode, HintMode::Full);
        assert_eq!(c.machine.hw_threads(), 16);
    }

    #[test]
    fn hint_mode_names_round_trip_in_any_case() {
        let shown: Vec<String> = HintMode::ALL.iter().map(|m| m.to_string()).collect();
        assert_eq!(shown, ["baseline", "HinTM-st", "HinTM-dyn", "HinTM"]);
        for mode in HintMode::ALL {
            for name in [mode.name(), mode.cli_name()] {
                assert_eq!(name.parse::<HintMode>(), Ok(mode));
                assert_eq!(name.to_uppercase().parse::<HintMode>(), Ok(mode));
            }
        }
        assert_eq!("st".parse::<HintMode>(), Ok(HintMode::Static));
        assert_eq!("DYN".parse::<HintMode>(), Ok(HintMode::Dynamic));
        assert!("on".parse::<HintMode>().is_err());
    }
}
