//! The command line's side of the knob table: the heap-placement flags
//! on every subcommand, and the range checks every knob parser applies
//! (thread counts the simulated machine can run, color strides below the
//! heap arena) reported as errors instead of simulator panics.

use hintm::cli::{parse, Command, RunArgs, SweepArgs};
use hintm::{Cell, SweepSpec};

fn argv(s: &str) -> Vec<String> {
    s.split_whitespace().map(String::from).collect()
}

fn run_cell(args: &str) -> Cell {
    match parse(&argv(args)).unwrap() {
        Command::Run(ra) => ra.cell,
        other => panic!("expected run, got {other:?}"),
    }
}

#[test]
fn rejects_thread_counts_the_machine_cannot_run() {
    for args in [
        "run --workload kmeans --threads 0",
        "run --workload kmeans --threads 9",
        "run --workload kmeans --threads 17 --smt2",
        "suite --threads 9",
        "trace kmeans --threads 0",
        "sweep --threads 9",
        "sweep --smt2 --threads 17",
    ] {
        let err = parse(&argv(args)).unwrap_err();
        assert!(err.0.contains("threads"), "{args}: {err}");
    }
    assert_eq!(
        run_cell("run --workload kmeans --threads 8").threads,
        Some(8)
    );
    assert_eq!(
        run_cell("run --workload kmeans --threads 16 --smt2").threads,
        Some(16)
    );
    assert!(parse(&argv("sweep --threads 16 --smt2")).is_ok());
}

#[test]
fn rejects_color_strides_past_the_heap_arena() {
    for args in [
        "run --workload kmeans --alloc-color 18446744073709551615",
        "run --workload kmeans --alloc-color 4294967296",
        "trace kmeans --alloc-color 4294967296",
        "sweep --alloc-colors 0,4294967296",
    ] {
        let err = parse(&argv(args)).unwrap_err();
        assert!(err.0.contains("alloc_color"), "{args}: {err}");
    }
    assert_eq!(
        run_cell("run --workload kmeans --alloc-color 4294967295").alloc_color,
        4_294_967_295
    );
}

#[test]
fn parses_alloc_color_everywhere() {
    assert_eq!(
        run_cell("run --workload kmeans --alloc-color 64").alloc_color,
        64
    );
    let Command::Trace(ta) = parse(&argv("trace kmeans --alloc-color 128")).unwrap() else {
        panic!("expected trace")
    };
    assert_eq!(ta.cell.alloc_color, 128);
    for flag in ["--alloc-colors", "--alloc-color"] {
        let Command::Sweep(sa) = parse(&argv(&format!("sweep {flag} 0,64,128"))).unwrap() else {
            panic!("expected sweep")
        };
        assert_eq!(sa.spec, SweepSpec::new().alloc_colors([0, 64, 128]));
    }
    // Defaults keep the packed layout; garbage is rejected.
    assert_eq!(RunArgs::default().cell.alloc_color, 0);
    assert_eq!(SweepArgs::default().spec, SweepSpec::new());
    assert!(parse(&argv("run --workload kmeans --alloc-color nope")).is_err());
}
