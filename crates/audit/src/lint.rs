//! Pluggable lints over the static-classification pipeline's artifacts.
//!
//! Each [`Lint`] inspects the original module, the replication-transformed
//! module, the analyses that drove classification, and the *declared*
//! safe-site set (the one the workload actually ships — auditing the
//! declaration, not the classifier's opinion of it, is what catches a
//! hand-edited or stale safe set). Diagnostics come back in a stable
//! order so audit output is byte-identical across runs.

use hintm_ir::{
    CapacityModel, Instr, Module, ModuleFootprint, PointsTo, Replication, Sharing, Stmt, ValueId,
    Verdict,
};
use hintm_types::SiteId;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// How bad a diagnostic is.
///
/// `Error` means the safe-site set (or the pipeline's own bookkeeping) is
/// inconsistent and the hints cannot be trusted; `Warning` flags suspicious
/// but not necessarily wrong situations (analysis imprecision, inert hint
/// machinery).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious; worth a look, not necessarily wrong.
    Warning,
    /// The hints are inconsistent with the analyses.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One lint finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Diagnostic {
    /// The lint that produced this (stable identifier).
    pub lint: &'static str,
    /// Error or warning.
    pub severity: Severity,
    /// The function the finding is anchored to.
    pub func: String,
    /// The access site involved, if the finding is site-specific.
    pub site: Option<SiteId>,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity, self.lint, self.func, self.message
        )
    }
}

/// Everything a lint may inspect.
pub struct LintCtx<'a> {
    /// The module as the workload built it.
    pub original: &'a Module,
    /// The module after function replication (what classification ran on).
    pub module: &'a Module,
    /// Points-to solution for the transformed module.
    pub pt: &'a PointsTo,
    /// Sharing analysis for the transformed module.
    pub sh: &'a Sharing,
    /// The replication transform's output.
    pub rep: &'a Replication,
    /// The safe-site set the workload *declares* (what the simulator will
    /// trust), not necessarily what `classify` would produce today.
    pub safe: &'a BTreeSet<SiteId>,
    /// Capacity-footprint bounds of the *original* module's transactions.
    pub fp: &'a ModuleFootprint,
    /// The safe-site set `classify` infers from the module today.
    pub inferred: &'a BTreeSet<SiteId>,
}

/// A check over a [`LintCtx`].
pub trait Lint {
    /// Stable identifier (used in diagnostics and for ordering).
    fn name(&self) -> &'static str;
    /// Appends findings to `out`.
    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>);
}

/// The built-in lint set.
pub fn default_lints() -> Vec<Box<dyn Lint>> {
    vec![
        Box::new(SafeStoreToShared),
        Box::new(SiteMapHoles),
        Box::new(TopPointsTo),
        Box::new(InertTx),
        Box::new(CapacityMustOverflow),
        Box::new(DeclaredButUninferable),
        Box::new(InferableButUndeclared),
        Box::new(FootprintExceedsDeclared),
    ]
}

/// Runs `lints` over `ctx`, returning findings sorted by
/// `(lint, func, site, message)`.
pub fn run_lints(ctx: &LintCtx<'_>, lints: &[Box<dyn Lint>]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for l in lints {
        l.check(ctx, &mut out);
    }
    out.sort_by(|a, b| {
        (a.lint, &a.func, a.site, &a.message).cmp(&(b.lint, &b.func, b.site, &b.message))
    });
    out
}

/// A *declared-safe* store whose pointer may target a shared object that
/// was not allocated inside a transaction.
///
/// The only sound way a store to a shared-reachable object skips conflict
/// tracking is Harris's rule: the object was allocated in the same
/// transaction, so it is unreachable to other threads if the TX aborts
/// (the initialize-then-publish pattern). A safe store whose targets
/// include a shared object allocated *outside* any transaction cannot be
/// justified that way — the hint is a lie waiting for a scheduler.
struct SafeStoreToShared;

impl Lint for SafeStoreToShared {
    fn name(&self) -> &'static str {
        "safe-store-to-shared"
    }

    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
        for &fid in &ctx.sh.reachable_thread {
            let fname = &ctx.module.func(fid).name;
            ctx.module.visit_instrs(fid, |i| {
                let (ptr, site) = match i {
                    Instr::Store { ptr, site, .. } => (ptr, site),
                    Instr::Memcpy {
                        dst, store_site, ..
                    } => (dst, store_site),
                    _ => return,
                };
                if !ctx.safe.contains(site) {
                    return;
                }
                for &obj in ctx.pt.pts(fid, *ptr) {
                    if ctx.sh.shared.contains(&obj) && !ctx.pt.obj_info(obj).in_tx {
                        out.push(Diagnostic {
                            lint: self.name(),
                            severity: Severity::Error,
                            func: fname.clone(),
                            site: Some(*site),
                            message: format!(
                                "store site {site} is declared safe but may target \
                                 shared object o{} allocated outside any transaction",
                                obj.0
                            ),
                        });
                        break;
                    }
                }
            });
        }
    }
}

/// A replicated call path whose site map does not cover every access site
/// of the cloned callee.
///
/// The simulator resolves `(call site, original site)` through this map to
/// emit the clone's site ids; a hole means accesses on the safe call path
/// silently fall back to the original (mixed-context, unsafe) site and the
/// replication bought nothing — or worse, inherits the wrong hint.
struct SiteMapHoles;

impl Lint for SiteMapHoles {
    fn name(&self) -> &'static str {
        "site-map-holes"
    }

    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
        // Group the mapped original sites per rewritten call site.
        let mut per_call: BTreeMap<_, BTreeSet<SiteId>> = BTreeMap::new();
        for (cs, orig) in ctx.rep.site_map.keys() {
            per_call.entry(*cs).or_default().insert(*orig);
        }
        for (call_site, mapped) in per_call {
            // Find the call in the original module to learn the callee.
            let mut callee = None;
            for (fid, _) in ctx.original.iter_funcs() {
                ctx.original.visit_instrs(fid, |i| {
                    if let Instr::Call { callee: c, id, .. } = i {
                        if *id == call_site {
                            callee = Some(*c);
                        }
                    }
                });
            }
            let Some(callee) = callee else {
                out.push(Diagnostic {
                    lint: self.name(),
                    severity: Severity::Error,
                    func: String::new(),
                    site: None,
                    message: format!(
                        "site map references call site {} which does not exist \
                         in the original module",
                        call_site.0
                    ),
                });
                continue;
            };
            let fname = &ctx.original.func(callee).name;
            ctx.original.visit_instrs(callee, |i| {
                let sites: &[SiteId] = match i {
                    Instr::Load { site, .. } | Instr::Store { site, .. } => {
                        std::slice::from_ref(site)
                    }
                    Instr::Memcpy {
                        load_site,
                        store_site,
                        ..
                    } => {
                        for s in [load_site, store_site] {
                            if !mapped.contains(s) {
                                out.push(hole(self.name(), fname, call_site.0, *s));
                            }
                        }
                        return;
                    }
                    _ => return,
                };
                for s in sites {
                    if !mapped.contains(s) {
                        out.push(hole(self.name(), fname, call_site.0, *s));
                    }
                }
            });
        }
    }
}

fn hole(lint: &'static str, func: &str, call_site: u32, site: SiteId) -> Diagnostic {
    Diagnostic {
        lint,
        severity: Severity::Error,
        func: func.to_string(),
        site: Some(site),
        message: format!("replicated call site {call_site} has no clone mapping for site {site}"),
    }
}

/// A pointer value whose points-to set degenerated to ⊤ (every abstract
/// object in the module).
///
/// Andersen's analysis never *fails*; it degrades by saturating. A value
/// that may point to everything makes every access through it unsafe and
/// usually signals a modelling bug in the workload's IR (a merged scratch
/// pointer, a missing `gep` discipline), not a real program property.
struct TopPointsTo;

impl Lint for TopPointsTo {
    fn name(&self) -> &'static str {
        "points-to-top"
    }

    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
        let total = ctx.pt.num_objects();
        if total < 2 {
            return;
        }
        for (fid, f) in ctx.module.iter_funcs() {
            for v in 0..f.num_values as u32 {
                if ctx.pt.pts(fid, ValueId(v)).len() == total {
                    out.push(Diagnostic {
                        lint: self.name(),
                        severity: Severity::Warning,
                        func: f.name.clone(),
                        site: None,
                        message: format!(
                            "value v{v} may point to all {total} abstract objects \
                             (points-to degenerated to top)"
                        ),
                    });
                }
            }
        }
    }
}

/// A transactional function whose accesses are all unhinted.
///
/// Perfectly legitimate for genome-like kernels where everything really is
/// shared — hence a warning, not an error — but worth surfacing: the hint
/// machinery (site tables, replication, per-access flag plumbing) is inert
/// for this transaction, and for most STAMP kernels the paper reports a
/// nonzero safe ratio.
struct InertTx;

impl Lint for InertTx {
    fn name(&self) -> &'static str {
        "inert-tx"
    }

    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
        for &fid in &ctx.sh.reachable_thread {
            let f = ctx.module.func(fid);
            let mut tx_sites = Vec::new();
            collect_tx_sites(&f.body, 0, &mut tx_sites);
            if tx_sites.is_empty() {
                continue;
            }
            let safe = tx_sites.iter().filter(|s| ctx.safe.contains(s)).count();
            if safe == 0 {
                out.push(Diagnostic {
                    lint: self.name(),
                    severity: Severity::Warning,
                    func: f.name.clone(),
                    site: None,
                    message: format!(
                        "all {} transactional access sites are unhinted \
                         (safe-site ratio 0; hint machinery is inert here)",
                        tx_sites.len()
                    ),
                });
            }
        }
    }
}

/// A transaction whose *guaranteed* footprint already exceeds a model's
/// capacity: every execution capacity-aborts and runs under the fallback
/// lock, serializing the workload.
///
/// A warning, not an error — the bound can be legitimate (labyrinth's
/// grid copy really is bigger than any HTM buffer; that is the paper's
/// motivating workload) — but it is exactly the transaction the hint
/// mechanism exists to rescue, so it deserves a callout.
struct CapacityMustOverflow;

impl Lint for CapacityMustOverflow {
    fn name(&self) -> &'static str {
        "capacity-must-overflow"
    }

    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
        for tx in &ctx.fp.txs {
            let models: Vec<&str> = CapacityModel::ALL
                .iter()
                .filter(|m| m.verdict(tx) == Verdict::MustOverflow)
                .map(|&m| crate::htm_kind(m).name())
                .collect();
            if models.is_empty() {
                continue;
            }
            out.push(Diagnostic {
                lint: self.name(),
                severity: Severity::Warning,
                func: ctx.original.func(tx.func).name.clone(),
                site: None,
                message: format!(
                    "transaction #{} is guaranteed to touch {} blocks ({} written): \
                     every execution overflows {}",
                    tx.index,
                    tx.total_lo,
                    tx.write_lo,
                    models.join(", ")
                ),
            });
        }
    }
}

/// A *declared-safe* site the classifier cannot infer today.
///
/// The simulator trusts the declaration unconditionally, so a declared
/// site with no static justification is an unauditable hint — stale after
/// a kernel edit, or hand-planted. Either way the safety argument is
/// gone: hard error.
struct DeclaredButUninferable;

impl Lint for DeclaredButUninferable {
    fn name(&self) -> &'static str {
        "declared-but-uninferable"
    }

    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
        for &site in ctx.safe.difference(ctx.inferred) {
            out.push(Diagnostic {
                lint: self.name(),
                severity: Severity::Error,
                func: site_func(ctx.original, site).unwrap_or_default(),
                site: Some(site),
                message: format!(
                    "site {site} is declared safe but the classifier cannot re-derive it"
                ),
            });
        }
    }
}

/// A site the classifier proves safe that the shipped set leaves
/// unhinted.
///
/// Sound but wasteful: the access is tracked by the HTM even though the
/// static argument for skipping it exists, so capacity is left on the
/// table. A warning — typically a stale hint table after the classifier
/// improved.
struct InferableButUndeclared;

impl Lint for InferableButUndeclared {
    fn name(&self) -> &'static str {
        "inferable-but-undeclared"
    }

    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
        for &site in ctx.inferred.difference(ctx.safe) {
            out.push(Diagnostic {
                lint: self.name(),
                severity: Severity::Warning,
                func: site_func(ctx.original, site).unwrap_or_default(),
                site: Some(site),
                message: format!(
                    "site {site} is provably safe but undeclared (capacity left on the table)"
                ),
            });
        }
    }
}

/// A transaction whose guaranteed footprint exceeds the module's own
/// declared capacity budget ([`Module::declared_tx_cap`]).
///
/// The declaration is a contract ("no transaction here needs more than N
/// blocks") that sizing decisions downstream may rely on; a lower bound
/// above it means the contract is provably violated on every execution:
/// hard error.
struct FootprintExceedsDeclared;

impl Lint for FootprintExceedsDeclared {
    fn name(&self) -> &'static str {
        "footprint-exceeds-declared"
    }

    fn check(&self, ctx: &LintCtx<'_>, out: &mut Vec<Diagnostic>) {
        let Some(cap) = ctx.original.declared_tx_cap else {
            return;
        };
        for tx in &ctx.fp.txs {
            if tx.total_lo > cap as u64 {
                out.push(Diagnostic {
                    lint: self.name(),
                    severity: Severity::Error,
                    func: ctx.original.func(tx.func).name.clone(),
                    site: None,
                    message: format!(
                        "transaction #{} is guaranteed to touch {} blocks, exceeding the \
                         module's declared capacity budget of {cap}",
                        tx.index, tx.total_lo
                    ),
                });
            }
        }
    }
}

/// Name of the function containing `site`, if any.
fn site_func(module: &Module, site: SiteId) -> Option<String> {
    let mut found = None;
    for (fid, f) in module.iter_funcs() {
        module.visit_instrs(fid, |i| {
            let hit = match i {
                Instr::Load { site: s, .. } | Instr::Store { site: s, .. } => *s == site,
                Instr::Memcpy {
                    load_site,
                    store_site,
                    ..
                } => *load_site == site || *store_site == site,
                _ => false,
            };
            if hit {
                found = Some(f.name.clone());
            }
        });
        if found.is_some() {
            break;
        }
    }
    found
}

/// Access sites syntactically inside a transaction.
fn collect_tx_sites(stmts: &[Stmt], depth: u32, out: &mut Vec<SiteId>) {
    let mut depth = depth;
    for s in stmts {
        match s {
            Stmt::Instr(i) => match i {
                Instr::TxBegin => depth += 1,
                Instr::TxEnd => depth = depth.saturating_sub(1),
                Instr::Load { site, .. } | Instr::Store { site, .. } if depth > 0 => {
                    out.push(*site);
                }
                Instr::Memcpy {
                    load_site,
                    store_site,
                    ..
                } if depth > 0 => {
                    out.push(*load_site);
                    out.push(*store_site);
                }
                _ => {}
            },
            Stmt::Loop { body, .. } => collect_tx_sites(body, depth, out),
            Stmt::If(a, b) => {
                collect_tx_sites(a, depth, out);
                collect_tx_sites(b, depth, out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hintm_ir::{points_to, replicate, sharing, ModuleBuilder};

    /// worker TX-stores to a global counter; returns (module, store site).
    fn racy_counter() -> (Module, SiteId) {
        let mut m = ModuleBuilder::new();
        let g = m.global("counter");
        let mut w = m.func("worker", 0);
        let ga = w.global_addr(g);
        w.tx_begin();
        let s = w.store(ga);
        w.tx_end();
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        (m.finish(entry, worker), s)
    }

    fn lint_with(module: &Module, safe: BTreeSet<SiteId>) -> Vec<Diagnostic> {
        let pt0 = points_to(module);
        let fp = hintm_ir::footprint(module, &pt0);
        let inferred: BTreeSet<SiteId> = hintm_ir::classify(module)
            .safe_sites()
            .iter()
            .copied()
            .collect();
        let sh0 = sharing(module, &pt0);
        let (module2, rep) = replicate(module, &pt0, &sh0);
        let pt = points_to(&module2);
        let sh = sharing(&module2, &pt);
        let ctx = LintCtx {
            original: module,
            module: &module2,
            pt: &pt,
            sh: &sh,
            rep: &rep,
            safe: &safe,
            fp: &fp,
            inferred: &inferred,
        };
        run_lints(&ctx, &default_lints())
    }

    #[test]
    fn lying_safe_store_is_an_error() {
        let (module, s) = racy_counter();
        let diags = lint_with(&module, [s].into_iter().collect());
        assert!(diags
            .iter()
            .any(|d| d.lint == "safe-store-to-shared" && d.severity == Severity::Error));
    }

    #[test]
    fn honest_empty_safe_set_only_warns_inert() {
        let (module, _) = racy_counter();
        let diags = lint_with(&module, BTreeSet::new());
        assert!(diags.iter().all(|d| d.severity == Severity::Warning));
        assert!(diags.iter().any(|d| d.lint == "inert-tx"));
    }

    #[test]
    fn tx_allocated_publish_is_exempt() {
        // Initialize-then-publish: halloc in TX, safe init store, tracked
        // publish. The init store targets a shared object (it escapes) but
        // the allocation is in-TX — Harris's rule applies, no error.
        let mut m = ModuleBuilder::new();
        let g = m.global("list");
        let mut w = m.func("worker", 0);
        let ga = w.global_addr(g);
        w.tx_begin();
        let node = w.halloc();
        let init = w.store(node);
        w.store_ptr(ga, node);
        w.tx_end();
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);
        let diags = lint_with(&module, [init].into_iter().collect());
        assert!(
            diags.iter().all(|d| d.lint != "safe-store-to-shared"),
            "in-TX allocation exempts the publish pattern: {diags:?}"
        );
    }

    #[test]
    fn guaranteed_overflow_warns_capacity_must_overflow() {
        // A TX memcpy-ing a 100-block buffer must overflow P8 and P8S.
        let mut m = ModuleBuilder::new();
        let mut w = m.func("worker", 0);
        let dst = w.halloc_sized(6400);
        let src = w.halloc_sized(6400);
        w.tx_begin();
        w.memcpy(dst, src);
        w.tx_end();
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);
        let diags = lint_with(&module, BTreeSet::new());
        let d = diags
            .iter()
            .find(|d| d.lint == "capacity-must-overflow")
            .expect("fires");
        assert_eq!(d.severity, Severity::Warning);
        assert!(d.message.contains("P8, P8S"), "{}", d.message);
    }

    #[test]
    fn declared_minus_inferred_is_an_error_and_vice_versa_warns() {
        // worker TX-stores to a private alloca: the classifier infers the
        // site safe. Declaring a different (uninferable) site instead
        // triggers both inference-diff lints.
        let mut m = ModuleBuilder::new();
        let g = m.global("counter");
        let mut w = m.func("worker", 0);
        let buf = w.alloca();
        let ga = w.global_addr(g);
        w.tx_begin();
        let private = w.store(buf);
        let shared = w.store(ga);
        w.tx_end();
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);
        let diags = lint_with(&module, [shared].into_iter().collect());
        assert!(diags.iter().any(|d| d.lint == "declared-but-uninferable"
            && d.severity == Severity::Error
            && d.site == Some(shared)));
        assert!(diags.iter().any(|d| d.lint == "inferable-but-undeclared"
            && d.severity == Severity::Warning
            && d.site == Some(private)));
        // Declaring exactly the inferred set silences both.
        let clean = lint_with(&module, [private].into_iter().collect());
        assert!(clean
            .iter()
            .all(|d| d.lint != "declared-but-uninferable" && d.lint != "inferable-but-undeclared"));
    }

    #[test]
    fn lying_capacity_budget_is_an_error() {
        // The module promises no TX needs more than 4 blocks, then
        // guarantees 8 distinct written blocks in one.
        let mut m = ModuleBuilder::new();
        m.declare_tx_cap(4);
        let mut w = m.func("worker", 0);
        let a = w.halloc_sized(512); // 8 blocks
        let b = w.halloc_sized(512);
        w.tx_begin();
        w.memcpy(a, b);
        w.tx_end();
        w.ret();
        let worker = w.finish();
        let mut main = m.func("main", 0);
        main.spawn(worker, vec![]);
        main.ret();
        let entry = main.finish();
        let module = m.finish(entry, worker);
        let diags = lint_with(&module, BTreeSet::new());
        assert!(diags.iter().any(|d| d.lint == "footprint-exceeds-declared"
            && d.severity == Severity::Error
            && d.message.contains("budget of 4")));
    }

    #[test]
    fn diagnostics_are_sorted_and_stable() {
        let (module, s) = racy_counter();
        let a = lint_with(&module, [s].into_iter().collect());
        let b = lint_with(&module, [s].into_iter().collect());
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_by(|x, y| {
            (x.lint, &x.func, x.site, &x.message).cmp(&(y.lint, &y.func, y.site, &y.message))
        });
        assert_eq!(a, sorted);
    }
}
