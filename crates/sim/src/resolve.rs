//! Section resolution: lowering workload sections into the flat programs
//! the engine's interpreter executes.
//!
//! Every section is *resolved* once — per-op block/page split and every
//! run-constant safety verdict — before execution, so the engine's
//! per-access path performs no hint-set searches. Transaction bodies replay
//! verbatim across retries, so one resolution serves every attempt.

use crate::config::SimConfig;
use crate::section::{TxOp, Workload};
use hintm_types::{Addr, BlockAddr, MemAccess, PageId, SiteId};
use std::collections::HashSet;

/// The op carries a static-safe verdict (hint, static site set, or notary
/// range, with static hints enabled).
pub(crate) const F_STATIC_SAFE: u8 = 1 << 0;
/// Hint-independent static classification (Fig. 6 footprint views).
pub(crate) const F_RAW_STATIC: u8 = 1 << 1;

/// What a pre-resolved operation does.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum OpKind {
    /// A memory access ([`POp::access`] is meaningful).
    Access,
    /// Pure computation of [`POp::cost`] cycles.
    Compute,
    /// Begin an escape window.
    Suspend,
    /// End an escape window.
    Resume,
}

/// One flat, fully-resolved operation: the block/page split and every
/// run-constant safety verdict are computed once per section instead of
/// once per executed access.
#[derive(Clone, Copy, Debug)]
pub(crate) struct POp {
    pub(crate) op: OpKind,
    pub(crate) flags: u8,
    /// Compute cycles ([`OpKind::Compute`] only).
    pub(crate) cost: u64,
    pub(crate) access: MemAccess,
    pub(crate) block: BlockAddr,
    pub(crate) page: PageId,
}

/// A resolved section body. Replayed verbatim across retries. Retired
/// programs return to an engine-level pool so steady-state resolution
/// reuses their op storage instead of allocating per section.
#[derive(Debug, Default)]
pub(crate) struct Program {
    /// Transactional (`Section::Tx`) or plain ops (`Section::NonTx`).
    pub(crate) tx: bool,
    pub(crate) ops: Vec<POp>,
}

/// Turns sections into `Program`s. Immutable after construction.
pub(crate) struct Resolver {
    uses_static: bool,
    safe_sites: Vec<SiteId>,
    raw_static_sites: Vec<SiteId>,
    notary_pages: Vec<PageId>,
}

impl Resolver {
    pub(crate) fn new(workload: &dyn Workload, cfg: &SimConfig) -> Self {
        // Hint sets become sorted slices: they are immutable for the whole
        // run, and resolution binary-searches them once per section op
        // instead of once per executed access.
        let mut safe_sites: Vec<SiteId> = if cfg.hint_mode.uses_static() {
            workload.static_safe_sites().into_iter().collect()
        } else {
            Vec::new()
        };
        safe_sites.sort_unstable();
        // Raw static sites (for the hint-independent Fig. 6 views).
        let mut raw_static_sites: Vec<SiteId> = workload.static_safe_sites().into_iter().collect();
        raw_static_sites.sort_unstable();
        // Notary-style manual privatization ranges, expanded to pages.
        let mut notary_pages: HashSet<PageId> = HashSet::new();
        for (base, len) in workload.notary_safe_ranges() {
            let mut page = base.page().index();
            let last = base.offset(len.saturating_sub(1)).page().index();
            while page <= last {
                notary_pages.insert(PageId::from_index(page));
                page += 1;
            }
        }
        let mut notary_pages: Vec<PageId> = notary_pages.into_iter().collect();
        notary_pages.sort_unstable();
        Resolver {
            uses_static: cfg.hint_mode.uses_static(),
            safe_sites,
            raw_static_sites,
            notary_pages,
        }
    }

    /// The run-constant safety flags for one access (`F_STATIC_SAFE` /
    /// `F_RAW_STATIC`).
    #[inline]
    fn access_flags(&self, a: &MemAccess, page: PageId) -> u8 {
        let hint_safe = a.hint.is_safe()
            || self.safe_sites.binary_search(&a.site).is_ok()
            || (self.uses_static && self.notary_pages.binary_search(&page).is_ok());
        let mut flags = 0;
        if self.uses_static && hint_safe {
            flags |= F_STATIC_SAFE;
        }
        if a.hint.is_safe() || self.raw_static_sites.binary_search(&a.site).is_ok() {
            flags |= F_RAW_STATIC;
        }
        flags
    }

    /// Resolves a section's `ops` (transactional iff `tx`), reusing
    /// `out`'s op storage.
    pub(crate) fn resolve_into(&self, tx: bool, ops: &[TxOp], mut out: Program) -> Program {
        let filler = MemAccess::load(Addr::new(0), SiteId(0));
        let marker = |op| POp {
            op,
            flags: 0,
            cost: 0,
            access: filler,
            block: BlockAddr::from_index(0),
            page: PageId::from_index(0),
        };
        out.tx = tx;
        out.ops.clear();
        out.ops.extend(ops.iter().map(|op| match op {
            TxOp::Compute(c) => POp {
                cost: *c,
                ..marker(OpKind::Compute)
            },
            TxOp::Suspend => marker(OpKind::Suspend),
            TxOp::Resume => marker(OpKind::Resume),
            TxOp::Access(a) => {
                let page = a.addr.page();
                POp {
                    op: OpKind::Access,
                    flags: self.access_flags(a, page),
                    cost: 0,
                    access: *a,
                    block: a.addr.block(),
                    page,
                }
            }
        }));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::HintMode;
    use crate::section::Section;
    use hintm_types::ThreadId;

    struct Notary;
    impl Workload for Notary {
        fn name(&self) -> &'static str {
            "notary"
        }
        fn num_threads(&self) -> usize {
            1
        }
        fn reset(&mut self, _seed: u64) {}
        fn next_section(&mut self, _tid: ThreadId) -> Option<Section> {
            None
        }
        fn static_safe_sites(&self) -> HashSet<SiteId> {
            [SiteId(2)].into_iter().collect()
        }
        fn notary_safe_ranges(&self) -> Vec<(Addr, u64)> {
            vec![(Addr::new(0x1000), 64)]
        }
    }

    fn body() -> Vec<TxOp> {
        vec![
            TxOp::Access(MemAccess::load(Addr::new(0x40), SiteId(1))),
            TxOp::Compute(17),
            TxOp::Suspend,
            TxOp::Access(MemAccess::store(Addr::new(0x80), SiteId(2))),
            TxOp::Resume,
            TxOp::Access(MemAccess::load(Addr::new(0x1008), SiteId(3))),
        ]
    }

    fn resolve(cfg: &SimConfig, tx: bool) -> Program {
        Resolver::new(&Notary, cfg).resolve_into(tx, &body(), Program::default())
    }

    #[test]
    fn reuses_the_recycled_buffer() {
        let r = Resolver::new(&Notary, &SimConfig::default());
        let first = r.resolve_into(true, &body(), Program::default());
        let storage = first.ops.as_ptr();
        let second = r.resolve_into(false, &body()[..2], first);
        assert_eq!(second.ops.len(), 2);
        assert_eq!(second.ops.as_ptr(), storage, "op storage is reused");
    }

    #[test]
    fn resolution_keeps_one_op_per_source_op() {
        let p = resolve(&SimConfig::default(), true);
        assert!(p.tx);
        let kinds: Vec<OpKind> = p.ops.iter().map(|o| o.op).collect();
        assert_eq!(
            kinds,
            [
                OpKind::Access,
                OpKind::Compute,
                OpKind::Suspend,
                OpKind::Access,
                OpKind::Resume,
                OpKind::Access
            ]
        );
        assert_eq!(p.ops[1].cost, 17, "compute cost rides in the cost field");
        assert_eq!(p.ops[3].block, Addr::new(0x80).block());
        assert_eq!(p.ops[5].page, Addr::new(0x1008).page());
        assert!(!resolve(&SimConfig::default(), false).tx);
    }

    #[test]
    fn static_verdicts_follow_the_hint_mode() {
        let flags = |mode| -> Vec<u8> {
            resolve(&SimConfig::default().hint_mode(mode), true)
                .ops
                .iter()
                .filter(|o| o.op == OpKind::Access)
                .map(|o| o.flags)
                .collect()
        };
        // Off: only the hint-independent classification of site 2.
        assert_eq!(flags(HintMode::Off), [0, F_RAW_STATIC, 0]);
        // Static: site 2 and the notary page become static-safe too.
        assert_eq!(
            flags(HintMode::Static),
            [0, F_STATIC_SAFE | F_RAW_STATIC, F_STATIC_SAFE]
        );
    }
}
