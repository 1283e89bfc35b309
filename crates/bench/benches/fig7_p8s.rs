//! Fig. 7 — HinTM on P8S (P8 + readset-overflow signatures), with larger
//! inputs for capacity pressure (§VI-D1). Signatures unbound the readset,
//! so HinTM's remaining leverage is writeset reduction (capacity) and
//! false-conflict elimination (signature aliasing).

use hintm::{AbortKind, HintMode, HtmKind, Scale};
use hintm_bench::{banner, cell, geomean, pct, print_machine, run_cells, x};

const SUBSET: [&str; 8] = [
    "bayes",
    "genome",
    "intruder",
    "labyrinth",
    "vacation",
    "yada",
    "tpcc-no",
    "tpcc-p",
];

fn main() {
    banner(
        "Figure 7: HinTM on the P8S (signature) HTM, larger inputs",
        "(a) capacity + false-conflict abort reduction; (b) speedup vs baseline P8S",
    );
    print_machine();
    println!(
        "{:<10} | {:>9} {:>9} | {:>9} {:>9} | {:>7} {:>7} {:>7}",
        "workload", "capB", "capRed", "fcB", "fcRed", "sp-st", "sp-dyn", "sp-full"
    );

    // One parallel (and cached) sweep over the figure's whole grid.
    let grid: Vec<_> = SUBSET
        .iter()
        .flat_map(|name| {
            HintMode::ALL
                .iter()
                .map(|&h| cell(name, HtmKind::P8S, h, Scale::Large))
        })
        .collect();
    let results = run_cells(&grid);

    let mut sp = [Vec::new(), Vec::new(), Vec::new()];
    for name in SUBSET {
        let get = |h| results.expect_report(&cell(name, HtmKind::P8S, h, Scale::Large));
        let base = get(HintMode::Off);
        let st = get(HintMode::Static);
        let dy = get(HintMode::Dynamic);
        let full = get(HintMode::Full);

        let cap_b = base.stats.aborts_of(AbortKind::Capacity);
        let fc_b = base.stats.aborts_of(AbortKind::FalseConflict);
        println!(
            "{:<10} | {:>9} {:>9} | {:>9} {:>9} | {:>7} {:>7} {:>7}",
            name,
            cap_b,
            pct(full.capacity_abort_reduction_vs(base)),
            fc_b,
            pct(full.false_conflict_reduction_vs(base)),
            x(st.speedup_vs(base)),
            x(dy.speedup_vs(base)),
            x(full.speedup_vs(base)),
        );
        sp[0].push(st.speedup_vs(base));
        sp[1].push(dy.speedup_vs(base));
        sp[2].push(full.speedup_vs(base));
    }
    println!(
        "{:<10} | {:>19} | {:>19} | {:>7} {:>7} {:>7}",
        "GEOMEAN",
        "",
        "",
        x(geomean(&sp[0])),
        x(geomean(&sp[1])),
        x(geomean(&sp[2])),
    );
    println!();
    println!(
        "paper shape: HinTM's benefit narrows but stays positive (~1.28x mean); labyrinth's\n\
         safe writes erase its capacity aborts; vacation's false conflicts drop ~87% for a\n\
         ~1.47x speedup; genome's false-conflict reduction does not move performance"
    );
}
