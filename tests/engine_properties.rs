//! Randomized tests: random scripted workloads through the full engine
//! (std-only: scripts come from the deterministic in-tree generator).

use hintm::{AbortKind, HintMode, HtmKind, Section, SimConfig, Simulator, TxBody, TxOp, Workload};
use hintm_types::rng::SmallRng;
use hintm_types::{Addr, MemAccess, SafetyHint, SiteId, ThreadId};

/// A workload replaying an arbitrary per-thread section script.
#[derive(Clone, Debug)]
struct Scripted {
    script: Vec<Vec<Section>>,
    cursor: Vec<usize>,
}

impl Scripted {
    fn new(script: Vec<Vec<Section>>) -> Self {
        let cursor = vec![0; script.len()];
        Scripted { script, cursor }
    }
}

impl Workload for Scripted {
    fn name(&self) -> &'static str {
        "scripted"
    }
    fn num_threads(&self) -> usize {
        self.script.len()
    }
    fn reset(&mut self, _seed: u64) {
        self.cursor.iter_mut().for_each(|c| *c = 0);
    }
    fn next_section(&mut self, tid: ThreadId) -> Option<Section> {
        let c = self.cursor[tid.index()];
        self.cursor[tid.index()] += 1;
        self.script[tid.index()].get(c).cloned()
    }
}

/// One memory op. Addresses draw from a small pool so cross-thread
/// conflicts actually happen; a slice of ops carries a safe hint.
fn rand_op(rng: &mut SmallRng) -> TxOp {
    if rng.gen_bool(0.8) {
        let slot = rng.gen_range(0..512u64);
        let is_store = rng.gen_bool(0.5);
        let hinted = rng.gen_bool(0.5);
        let addr = Addr::new(0x10_0000 + slot * 64);
        let a = if is_store {
            MemAccess::store(addr, SiteId(0))
        } else {
            MemAccess::load(addr, SiteId(1))
        };
        // Hints on stores are legal input (compilers emit them); the
        // engine must stay correct either way.
        let a = if hinted {
            a.with_hint(SafetyHint::Safe)
        } else {
            a
        };
        TxOp::Access(a)
    } else {
        TxOp::Compute(rng.gen_range(1..200u64))
    }
}

fn rand_section(rng: &mut SmallRng) -> Section {
    match rng.gen_range(0..9u32) {
        0..=5 => {
            let n = rng.gen_range(1..80usize);
            Section::Tx(TxBody::new((0..n).map(|_| rand_op(rng)).collect()))
        }
        6 | 7 => {
            let n = rng.gen_range(1..20usize);
            Section::NonTx((0..n).map(|_| rand_op(rng)).collect())
        }
        _ => Section::Barrier,
    }
}

/// 2-4 threads, each with the SAME number of barriers to avoid deadlock:
/// generate per-thread sections without barriers, then insert one at the
/// halfway point of every thread.
fn rand_script(rng: &mut SmallRng) -> Vec<Vec<Section>> {
    let threads = rng.gen_range(2..5usize);
    let mut scripts: Vec<Vec<Section>> = (0..threads)
        .map(|_| {
            let n = rng.gen_range(1..8usize);
            (0..n)
                .map(|_| rand_section(rng))
                .filter(|sec| !matches!(sec, Section::Barrier))
                .collect()
        })
        .collect();
    for s in &mut scripts {
        let mid = s.len() / 2;
        s.insert(mid, Section::Barrier);
    }
    scripts
}

fn count_sections(script: &[Vec<Section>]) -> (u64, u64) {
    let mut txs = 0;
    let mut nontx = 0;
    for t in script {
        for s in t {
            match s {
                Section::Tx(_) => txs += 1,
                Section::NonTx(_) => nontx += 1,
                Section::Barrier => {}
            }
        }
    }
    (txs, nontx)
}

/// Every TX section eventually commits (HTM or fallback), under every
/// HTM kind, for arbitrary scripts.
#[test]
fn all_transactions_complete() {
    let mut rng = SmallRng::seed_from_u64(0xA11);
    for round in 0..48 {
        let script = rand_script(&mut rng);
        let kind = [HtmKind::P8, HtmKind::P8S, HtmKind::L1Tm, HtmKind::InfCap][round % 4];
        let (txs, _) = count_sections(&script);
        let mut w = Scripted::new(script);
        let stats = Simulator::new(SimConfig::with_htm(kind)).run(&mut w, 1);
        assert_eq!(stats.commits + stats.fallback_commits, txs);
    }
}

/// InfCap never capacity-aborts, whatever the script.
#[test]
fn infcap_is_capacity_free() {
    let mut rng = SmallRng::seed_from_u64(0x1FC);
    for _ in 0..48 {
        let mut w = Scripted::new(rand_script(&mut rng));
        let stats = Simulator::new(SimConfig::with_htm(HtmKind::InfCap)).run(&mut w, 1);
        assert_eq!(stats.aborts_of(AbortKind::Capacity), 0);
    }
}

/// The engine is deterministic for arbitrary scripts and hint modes.
#[test]
fn engine_is_deterministic() {
    let mut rng = SmallRng::seed_from_u64(0xDE7);
    for round in 0..48 {
        let script = rand_script(&mut rng);
        let mode = HintMode::ALL[round % HintMode::ALL.len()];
        let mut w1 = Scripted::new(script.clone());
        let mut w2 = Scripted::new(script);
        let a = Simulator::new(SimConfig::default().hint_mode(mode)).run(&mut w1, 9);
        let b = Simulator::new(SimConfig::default().hint_mode(mode)).run(&mut w2, 9);
        assert_eq!(a.total_cycles, b.total_cycles);
        assert_eq!(a.aborts, b.aborts);
        assert_eq!(a.steps, b.steps);
    }
}

/// Hints never change how much work completes, and static hints never
/// increase capacity aborts.
#[test]
fn hints_preserve_completion() {
    let mut rng = SmallRng::seed_from_u64(0x417);
    for _ in 0..48 {
        let script = rand_script(&mut rng);
        let (txs, _) = count_sections(&script);
        let mut w1 = Scripted::new(script.clone());
        let mut w2 = Scripted::new(script);
        let base = Simulator::new(SimConfig::default()).run(&mut w1, 3);
        let full = Simulator::new(SimConfig::default().hint_mode(HintMode::Full)).run(&mut w2, 3);
        assert_eq!(base.commits + base.fallback_commits, txs);
        assert_eq!(full.commits + full.fallback_commits, txs);
        assert!(full.aborts_of(AbortKind::Capacity) <= base.aborts_of(AbortKind::Capacity));
    }
}

/// Cycle accounting is internally consistent: wall-clock ≤ aggregate,
/// and nonzero whenever work happened.
#[test]
fn cycle_accounting_is_consistent() {
    let mut rng = SmallRng::seed_from_u64(0xACC);
    for _ in 0..48 {
        let script = rand_script(&mut rng);
        let (txs, nontx) = count_sections(&script);
        let mut w = Scripted::new(script);
        let stats = Simulator::new(SimConfig::default()).run(&mut w, 5);
        assert!(stats.total_cycles <= stats.sum_cycles);
        if txs + nontx > 0 {
            assert!(stats.total_cycles.raw() > 0);
        }
    }
}
