//! Key-stability golden: the exact cell key, cache file stem and manifest
//! JSON of a handful of cells that between them set every run knob.
//!
//! The result cache addresses a report by `fnv1a("schema=2|" + key)`, and
//! manifests and the claim wire carry `cell_to_json`. A change that
//! reorders, renames or reformats any knob in either form orphans every
//! cached result and breaks older workers, so these strings are pinned
//! verbatim.

use hintm::{HintMode, HtmKind, Json, Scale};
use hintm_runner::{cell_to_json, Cache, Cell, SCHEMA_VERSION};

/// `(cell, key, cache file stem, cell_to_json text)`.
fn golden() -> Vec<(Cell, &'static str, &'static str, &'static str)> {
    vec![
        (
            Cell::new("kmeans"),
            "kmeans|P8|baseline|sim|seed=42|threads=auto|smt2=false|preserve=false|color=0|txsizes=false|sharing=false",
            "d8c583768f051421",
            r#"{"workload":"kmeans","htm":"P8","hints":"baseline","scale":"sim","seed":42,"threads":null,"smt2":false,"preserve":false,"alloc_color":0,"record_tx_sizes":false,"profile_sharing":false}"#,
        ),
        (
            Cell::new("labyrinth")
                .htm(HtmKind::L1Tm)
                .hint(HintMode::Dynamic)
                .scale(Scale::Large)
                .seed(7)
                .threads(16)
                .smt2(true)
                .preserve(true),
            "labyrinth|L1TM|HinTM-dyn|large|seed=7|threads=16|smt2=true|preserve=true|color=0|txsizes=false|sharing=false",
            "4fcbf227e5435df5",
            r#"{"workload":"labyrinth","htm":"L1TM","hints":"HinTM-dyn","scale":"large","seed":7,"threads":16,"smt2":true,"preserve":true,"alloc_color":0,"record_tx_sizes":false,"profile_sharing":false}"#,
        ),
        (
            Cell::new("genome")
                .htm(HtmKind::PStretch)
                .hint(HintMode::Full)
                .alloc_color(64),
            "genome|PStretch|HinTM|sim|seed=42|threads=auto|smt2=false|preserve=false|color=64|txsizes=false|sharing=false",
            "7e78b76aa804bb13",
            r#"{"workload":"genome","htm":"PStretch","hints":"HinTM","scale":"sim","seed":42,"threads":null,"smt2":false,"preserve":false,"alloc_color":64,"record_tx_sizes":false,"profile_sharing":false}"#,
        ),
        (
            Cell::new("tpcc-no")
                .htm(HtmKind::P8S)
                .hint(HintMode::Static)
                .seed(0)
                .threads(4)
                .record_tx_sizes(true),
            "tpcc-no|P8S|HinTM-st|sim|seed=0|threads=4|smt2=false|preserve=false|color=0|txsizes=true|sharing=false",
            "272cd2bdd9f8b43e",
            r#"{"workload":"tpcc-no","htm":"P8S","hints":"HinTM-st","scale":"sim","seed":0,"threads":4,"smt2":false,"preserve":false,"alloc_color":0,"record_tx_sizes":true,"profile_sharing":false}"#,
        ),
        (
            Cell::new("ssca2")
                .htm(HtmKind::InfCap)
                .seed(u64::MAX)
                .profile_sharing(true),
            "ssca2|InfCap|baseline|sim|seed=18446744073709551615|threads=auto|smt2=false|preserve=false|color=0|txsizes=false|sharing=true",
            "96a9a97e22e14181",
            r#"{"workload":"ssca2","htm":"InfCap","hints":"baseline","scale":"sim","seed":18446744073709551615,"threads":null,"smt2":false,"preserve":false,"alloc_color":0,"record_tx_sizes":false,"profile_sharing":true}"#,
        ),
        (
            Cell::new("vacation")
                .htm(HtmKind::LogTm)
                .hint(HintMode::Full)
                .preserve(true)
                .alloc_color(4096),
            "vacation|LogTM|HinTM|sim|seed=42|threads=auto|smt2=false|preserve=true|color=4096|txsizes=false|sharing=false",
            "414efb678a73285d",
            r#"{"workload":"vacation","htm":"LogTM","hints":"HinTM","scale":"sim","seed":42,"threads":null,"smt2":false,"preserve":true,"alloc_color":4096,"record_tx_sizes":false,"profile_sharing":false}"#,
        ),
        (
            Cell::new("intruder")
                .htm(HtmKind::Rot)
                .hint(HintMode::Static)
                .scale(Scale::Large)
                .threads(8),
            "intruder|ROT|HinTM-st|large|seed=42|threads=8|smt2=false|preserve=false|color=0|txsizes=false|sharing=false",
            "35450398d89d0414",
            r#"{"workload":"intruder","htm":"ROT","hints":"HinTM-st","scale":"large","seed":42,"threads":8,"smt2":false,"preserve":false,"alloc_color":0,"record_tx_sizes":false,"profile_sharing":false}"#,
        ),
    ]
}

#[test]
fn cell_keys_are_pinned() {
    for (cell, key, _, _) in golden() {
        assert_eq!(cell.key(), key);
    }
}

#[test]
fn cache_file_stems_are_pinned() {
    assert_eq!(SCHEMA_VERSION, 2, "a schema bump re-addresses every entry");
    let cache = Cache::new("golden-cache");
    for (cell, key, stem, _) in golden() {
        let path = cache.path_for(&cell);
        assert_eq!(
            path.file_stem().and_then(|s| s.to_str()),
            Some(stem),
            "{key}"
        );
        assert_eq!(path.extension().and_then(|s| s.to_str()), Some("json"));
    }
}

#[test]
fn cell_json_is_pinned() {
    for (cell, key, _, json) in golden() {
        let got = cell_to_json(&cell);
        assert_eq!(got.to_string(), json, "{key}");
        assert_eq!(Json::parse(json).unwrap(), got);
    }
}

#[test]
fn golden_cells_set_every_knob() {
    let cells: Vec<Cell> = golden().into_iter().map(|(c, ..)| c).collect();
    let base = Cell::new("kmeans");
    assert!(cells.iter().any(|c| c.workload != base.workload));
    assert!(cells.iter().any(|c| c.htm != base.htm));
    assert!(cells.iter().any(|c| c.hint != base.hint));
    assert!(cells.iter().any(|c| c.scale != base.scale));
    assert!(cells.iter().any(|c| c.seed != base.seed));
    assert!(cells.iter().any(|c| c.threads != base.threads));
    assert!(cells.iter().any(|c| c.smt2 != base.smt2));
    assert!(cells.iter().any(|c| c.preserve != base.preserve));
    assert!(cells.iter().any(|c| c.alloc_color != base.alloc_color));
    assert!(cells
        .iter()
        .any(|c| c.record_tx_sizes != base.record_tx_sizes));
    assert!(cells
        .iter()
        .any(|c| c.profile_sharing != base.profile_sharing));
}
