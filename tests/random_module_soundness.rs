//! Random-module soundness fuzzer: the static footprint bounds `hintm
//! analyze` derives must dominate what the simulator does on modules far
//! outside the shapes of the ten suite workloads.
//!
//! The fuzzer feeds ≥256 seeded random IR modules (sized and unsized
//! allocations, loads, stores, memcpys, geps, pointer round trips, helper
//! calls, branches, bounded and unbounded loops) through
//! [`hintm_workloads::IrExec`], which turns an arbitrary module into a
//! deterministic workload. For each module it takes
//! `footprint(&module, &points_to(&module))` and checks the same two
//! directions as `tests/analyze_soundness.rs` does for the suite:
//!
//! 1. **Bound soundness** — under a [`Recording`] on a rotating HTM model,
//!    the module-worst `read_hi`/`write_hi` dominate the traced
//!    committed read-set/write-set maxima.
//! 2. **Fits verdicts are real** — every [`CapacityModel`] whose worst
//!    verdict is `Fits` yields zero capacity aborts on its HTM.
//!
//! The test also asserts it is not vacuous: some finite bounds must be
//! tight (equal to the observed maximum), and some `Fits` verdicts must
//! have been exercised.
//!
//! On a failure the module is shrunk by greedily dropping statements from
//! its functions while the failure reproduces, then pretty-printed with a
//! per-model abort-kind histogram, so the report is a minimal reproducer
//! rather than a 40-statement haystack.

use hintm::HtmKind;
use hintm_ir::{
    footprint, points_to, print_module, Bound, CapacityModel, Module, ModuleBuilder, Verdict,
};
use hintm_sim::{Recording, RunStats, SimConfig, Simulator};
use hintm_types::config::AbortKind;
use hintm_types::rng::SmallRng;
use hintm_workloads::IrExec;
use std::fmt::Write as _;

const CASES: usize = 256;
const MODELS: [HtmKind; 8] = [
    HtmKind::P8,
    HtmKind::P8S,
    HtmKind::L1Tm,
    HtmKind::InfCap,
    HtmKind::Rot,
    HtmKind::LogTm,
    HtmKind::Lrws,
    HtmKind::PStretch,
];

/// A worker whose single transaction is generated from `rng`: sized and
/// unsized allocations, loads, stores, memcpys, geps, pointer round trips,
/// helper calls, branches, and bounded or unbounded loops around access
/// clusters. A superset of the footprint property suite's generator.
fn rand_module(rng: &mut SmallRng) -> Module {
    let mut m = ModuleBuilder::new();
    let g = m.global("g");

    let mut h = m.func("helper", 1);
    let hp = h.param(0);
    h.load(hp);
    h.store(hp);
    h.ret_val(hp);
    let helper = h.finish();

    let mut w = m.func("worker", 0);
    let mut pool = vec![w.halloc_sized(rng.gen_range(1..2048u64)), w.alloca()];
    if rng.gen_range(0..2u32) == 0 {
        pool.push(w.global_addr(g));
    }
    w.tx_begin();
    let n = rng.gen_range(1..8usize);
    for _ in 0..n {
        let p = pool[rng.gen_range(0..pool.len())];
        let q = pool[rng.gen_range(0..pool.len())];
        let looped = rng.gen_range(0..3u32);
        if looped == 1 {
            w.begin_loop_bounded(rng.gen_range(0..16u32));
        } else if looped == 2 {
            w.begin_loop();
        }
        match rng.gen_range(0..7u32) {
            0 => {
                w.load(p);
            }
            1 => {
                w.store(p);
            }
            2 => {
                w.memcpy(p, q);
            }
            3 => {
                let d = w.gep(p);
                w.load(d);
            }
            4 => {
                w.store_ptr(p, q);
                let (r, _) = w.load_ptr(p);
                w.load(r);
            }
            5 => {
                w.begin_if();
                w.load(p);
                w.begin_else();
                w.store(q);
                w.end_block();
            }
            _ => {
                w.call(helper, vec![p]);
            }
        }
        if looped != 0 {
            w.end_block();
        }
    }
    w.tx_end();
    if rng.gen_range(0..2u32) == 0 {
        w.load(pool[0]); // trailing non-transactional stretch
    }
    w.ret();
    let worker = w.finish();

    let mut main = m.func("main", 0);
    main.spawn(worker, vec![]);
    main.ret();
    let entry = main.finish();
    m.finish(entry, worker)
}

/// The HTM configuration each static capacity model describes.
fn htm_for(model: CapacityModel) -> HtmKind {
    match model {
        CapacityModel::P8 => HtmKind::P8,
        CapacityModel::P8S => HtmKind::P8S,
        CapacityModel::L1Tm => HtmKind::L1Tm,
        CapacityModel::Lrws => HtmKind::Lrws,
        CapacityModel::PStretch => HtmKind::PStretch,
    }
}

/// Runs `module` as a workload on `htm`; thread and round counts rotate
/// with `case`.
fn run(module: &Module, case: usize, htm: HtmKind, rec: &mut Recording) -> RunStats {
    let mut w = IrExec::new(module.clone(), 2 + case % 3, 1 + case % 2);
    Simulator::new(SimConfig::with_htm(htm)).run_with_sink(&mut w, 42, rec)
}

/// Module-worst upper bound across transactions: `Unbounded` dominates
/// every dynamic observation.
fn worst_hi(bounds: impl Iterator<Item = Bound>) -> Bound {
    bounds.fold(Bound::Finite(0), |acc, b| match (acc, b) {
        (Bound::Finite(a), Bound::Finite(x)) => Bound::Finite(a.max(x)),
        _ => Bound::Unbounded,
    })
}

/// What one passing case showed, for the non-vacuity tally.
struct Outcome {
    /// Finite read (resp. write) bounds equal to the observed maximum.
    tight_reads: bool,
    tight_writes: bool,
    /// Models whose `Fits` verdict a run confirmed.
    fits: usize,
}

/// Checks both soundness directions for one module; `Err` describes the
/// first violation.
fn check(module: &Module, case: usize) -> Result<Outcome, String> {
    let fp = footprint(module, &points_to(module));
    let read_hi = worst_hi(fp.txs.iter().map(|tx| tx.read_hi));
    let write_hi = worst_hi(fp.txs.iter().map(|tx| tx.write_hi));
    let htm = MODELS[case % MODELS.len()];
    let mut rec = Recording::new(1);
    run(module, case, htm, &mut rec);
    let (read_max, write_max) = (rec.metrics().read_set.max(), rec.metrics().write_set.max());
    for (what, bound, observed) in [("read", read_hi, read_max), ("write", write_hi, write_max)] {
        if let Bound::Finite(n) = bound {
            if n < observed {
                return Err(format!(
                    "on {htm}: static {what} bound {n} < dynamic max {what}-set {observed}"
                ));
            }
        }
    }
    let mut fits = 0;
    for model in CapacityModel::ALL {
        if fp.worst(model) != Verdict::Fits {
            continue;
        }
        let stats = run(module, case, htm_for(model), &mut Recording::new(1));
        let aborts = stats.aborts_of(AbortKind::Capacity);
        if aborts != 0 {
            return Err(format!(
                "statically fits {} but capacity-aborted {aborts} times",
                model.name()
            ));
        }
        fits += 1;
    }
    Ok(Outcome {
        tight_reads: read_hi == Bound::Finite(read_max),
        tight_writes: write_hi == Bound::Finite(write_max),
        fits,
    })
}

/// Per-model abort-kind histograms for a (usually minimized) module: the
/// module is re-run under every HTM model and each model's abort counts
/// are tabulated by [`AbortKind`], so a violation can be read against how
/// each capacity model actually aborts on the same access stream.
fn abort_histograms(module: &Module, case: usize) -> String {
    let mut out = String::from("per-model abort-kind histogram:\n");
    writeln!(
        out,
        "  {:>8}  {:>8} {:>8} {:>14} {:>9} {:>13}",
        "model", "conflict", "capacity", "false-conflict", "page-mode", "fallback-lock"
    )
    .unwrap();
    for &m in &MODELS {
        let stats = run(module, case, m, &mut Recording::new(1));
        writeln!(
            out,
            "  {:>8}  {:>8} {:>8} {:>14} {:>9} {:>13}",
            m.to_string(),
            stats.aborts_of(AbortKind::Conflict),
            stats.aborts_of(AbortKind::Capacity),
            stats.aborts_of(AbortKind::FalseConflict),
            stats.aborts_of(AbortKind::PageMode),
            stats.aborts_of(AbortKind::FallbackLock),
        )
        .unwrap();
    }
    out
}

/// Greedy structural shrink: repeatedly drop one top-level statement from
/// any function while the violation still reproduces.
fn shrink(mut module: Module, case: usize) -> Module {
    loop {
        let mut shrunk = false;
        'search: for f in 0..module.funcs.len() {
            for i in 0..module.funcs[f].body.len() {
                let mut candidate = module.clone();
                candidate.funcs[f].body.remove(i);
                if check(&candidate, case).is_err() {
                    module = candidate;
                    shrunk = true;
                    break 'search;
                }
            }
        }
        if !shrunk {
            return module;
        }
    }
}

#[test]
fn random_modules_respect_their_static_footprint_bounds() {
    let mut rng = SmallRng::seed_from_u64(0xD1FF);
    let (mut tight, mut fits) = (0usize, 0usize);
    for case in 0..CASES {
        let module = rand_module(&mut rng);
        match check(&module, case) {
            Ok(o) => {
                tight += usize::from(o.tight_reads || o.tight_writes);
                fits += o.fits;
            }
            Err(why) => {
                let minimal = shrink(module, case);
                panic!(
                    "case {case}: {why}\nminimized reproducer:\n{}\n{}",
                    print_module(&minimal, None),
                    abort_histograms(&minimal, case),
                );
            }
        }
    }
    // Not vacuous: bounds that were never tight or fits verdicts that were
    // never exercised would pass any simulator.
    assert!(tight > 0, "no case had a finite bound equal to its maximum");
    assert!(fits > 0, "no case exercised a fits verdict");
}
