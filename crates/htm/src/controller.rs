//! The per-hardware-thread HTM controller: transaction lifecycle, hint-aware
//! tracking, and statistics.

use crate::tracker::{CapacityAbort, Tracker};
use hintm_types::names::{self, NameTable};
use hintm_types::{AbortKind, AccessKind, BlockAddr, Cycles};
use std::fmt;

/// Which baseline HTM configuration to instantiate (§V, plus two
/// related-work comparators from §VII).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum HtmKind {
    /// POWER8-style dedicated 64-entry transactional buffer.
    P8,
    /// P8 plus a readset-overflow hardware signature.
    P8S,
    /// Transactional state tracked in the L1 data cache.
    L1Tm,
    /// Unbounded tracking (capacity-abort-free upper bound).
    InfCap,
    /// Rollback-only transactions (SI-HTM-style): loads untracked, bounded
    /// writeset. Capacity comparator only — snapshot-isolation commit
    /// ordering is not simulated.
    Rot,
    /// LogTM-style large HTM: bounded fast path + unbounded memory log;
    /// never capacity-aborts but pays per-overflow-block commit/abort work.
    LogTm,
    /// FORTH-style limited read/write-set HTM: asymmetric bounds — an exact
    /// write-set limit plus a read-set limit whose overflow spills into a
    /// signature; writes never evict buffer entries.
    Lrws,
    /// POWER-style capacity stretching: a P8 buffer that sheds read-only
    /// entries through a bounded number of suspend/resume windows per
    /// transaction, keeping them precisely conflict-visible.
    PStretch,
}

/// The name table: every model with its display name, which reports,
/// cell keys and manifests carry. Parsing ignores case, so the lowercase
/// command-line spelling (`p8`, `lrws`, ...) is the same row.
const NAMES: NameTable<HtmKind, 8> = [
    (HtmKind::P8, &["P8"]),
    (HtmKind::P8S, &["P8S"]),
    (HtmKind::L1Tm, &["L1TM"]),
    (HtmKind::InfCap, &["InfCap"]),
    (HtmKind::Rot, &["ROT"]),
    (HtmKind::LogTm, &["LogTM"]),
    (HtmKind::Lrws, &["LRWS"]),
    (HtmKind::PStretch, &["PStretch"]),
];

impl HtmKind {
    /// Every model, in name-table order (the column order of the blessed
    /// digest table).
    pub const ALL: [HtmKind; 8] = names::values(&NAMES);

    /// The model's display name (`P8`, `L1TM`, ...).
    pub fn name(self) -> &'static str {
        names::spellings(&NAMES, self)[0]
    }
}

impl fmt::Display for HtmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for HtmKind {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        names::parse(&NAMES, "HTM model", s)
    }
}

/// HTM hardware parameters.
#[derive(Clone, Debug)]
pub struct HtmConfig {
    /// Which tracking backend to use.
    pub kind: HtmKind,
    /// P8 buffer entries (paper: 64).
    pub buffer_entries: usize,
    /// Signature bits for [`HtmKind::P8S`] and [`HtmKind::Lrws`] (paper:
    /// 1 kbit).
    pub sig_bits: usize,
    /// Signature hash functions.
    pub sig_hashes: u32,
    /// Read-set limit for [`HtmKind::Lrws`] (exact entries before reads
    /// spill to the signature).
    pub lrws_read_limit: usize,
    /// Write-set limit for [`HtmKind::Lrws`] (exact, never evicted).
    pub lrws_write_limit: usize,
    /// Suspend/resume stretch events allowed per transaction for
    /// [`HtmKind::PStretch`].
    pub max_stretches: u32,
}

impl HtmConfig {
    /// The paper's parameters for the given kind.
    pub fn new(kind: HtmKind) -> Self {
        HtmConfig {
            kind,
            buffer_entries: 64,
            sig_bits: 1024,
            sig_hashes: 2,
            lrws_read_limit: 32,
            lrws_write_limit: 32,
            max_stretches: 4,
        }
    }

    fn make_tracker(&self) -> Tracker {
        match self.kind {
            HtmKind::P8 => Tracker::p8(self.buffer_entries),
            HtmKind::P8S => Tracker::p8_sig(self.buffer_entries, self.sig_bits, self.sig_hashes),
            HtmKind::L1Tm => Tracker::l1(),
            HtmKind::InfCap => Tracker::inf(),
            HtmKind::Rot => Tracker::rot(self.buffer_entries),
            HtmKind::LogTm => Tracker::log_tm(self.buffer_entries),
            HtmKind::Lrws => Tracker::lrws(
                self.buffer_entries,
                self.lrws_read_limit,
                self.lrws_write_limit,
                self.sig_bits,
                self.sig_hashes,
            ),
            HtmKind::PStretch => Tracker::pstretch(self.buffer_entries, self.max_stretches),
        }
    }
}

/// Transaction execution phase of one hardware thread.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum TxPhase {
    /// Not in a transaction.
    #[default]
    Idle,
    /// Speculatively executing a hardware transaction.
    Active,
    /// Executing under the software fallback lock (non-speculative).
    Fallback,
}

/// Per-thread HTM statistics.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HtmThreadStats {
    /// Committed hardware transactions.
    pub commits: u64,
    /// Transactions completed under the fallback lock.
    pub fallback_commits: u64,
    /// Aborts by kind: indexed as [`AbortKind::ALL`].
    pub aborts: [u64; 5],
    /// Accesses skipped from tracking thanks to a safety hint.
    pub safe_skipped: u64,
    /// Accesses tracked.
    pub tracked: u64,
}

impl HtmThreadStats {
    /// Total aborts across kinds.
    pub fn total_aborts(&self) -> u64 {
        self.aborts.iter().sum()
    }

    /// Aborts of one kind.
    pub fn aborts_of(&self, kind: AbortKind) -> u64 {
        let i = AbortKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind in ALL");
        self.aborts[i]
    }

    /// Records an abort of `kind`.
    pub fn record_abort(&mut self, kind: AbortKind) {
        let i = AbortKind::ALL
            .iter()
            .position(|k| *k == kind)
            .expect("kind in ALL");
        self.aborts[i] += 1;
    }
}

/// The HTM state of one hardware thread.
///
/// The simulator drives the lifecycle: [`HtmThread::begin`] →
/// [`HtmThread::on_access`] per memory operation → [`HtmThread::commit`] or
/// [`HtmThread::abort`]. Conflict detection is performed by the simulator's
/// coherence layer using the membership queries.
///
/// See the crate docs for an example.
#[derive(Clone, Debug)]
pub struct HtmThread {
    config: HtmConfig,
    tracker: Tracker,
    phase: TxPhase,
    retries: u32,
    stats: HtmThreadStats,
    tx_start: Cycles,
}

impl HtmThread {
    /// Creates an idle HTM thread for the given configuration.
    pub fn new(config: &HtmConfig) -> Self {
        HtmThread {
            tracker: config.make_tracker(),
            config: config.clone(),
            phase: TxPhase::Idle,
            retries: 0,
            stats: HtmThreadStats::default(),
            tx_start: Cycles::ZERO,
        }
    }

    /// The configuration this thread was built with.
    pub fn config(&self) -> &HtmConfig {
        &self.config
    }

    /// Current phase.
    pub fn phase(&self) -> TxPhase {
        self.phase
    }

    /// Returns `true` while speculatively executing.
    pub fn is_active(&self) -> bool {
        self.phase == TxPhase::Active
    }

    /// Number of consecutive retries of the current transaction.
    pub fn retries(&self) -> u32 {
        self.retries
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &HtmThreadStats {
        &self.stats
    }

    /// Cycle at which the current transaction attempt started.
    pub fn tx_start(&self) -> Cycles {
        self.tx_start
    }

    /// Starts a hardware transaction.
    ///
    /// # Panics
    ///
    /// Panics unless the thread is idle.
    pub fn begin(&mut self) {
        assert_eq!(self.phase, TxPhase::Idle, "begin while not idle");
        self.phase = TxPhase::Active;
        self.tracker.clear();
    }

    /// Starts a hardware transaction at cycle `now` (for lost-work
    /// accounting).
    pub fn begin_at(&mut self, now: Cycles) {
        self.begin();
        self.tx_start = now;
    }

    /// Enters fallback (global-lock) execution.
    ///
    /// # Panics
    ///
    /// Panics unless the thread is idle.
    pub fn enter_fallback(&mut self) {
        assert_eq!(self.phase, TxPhase::Idle, "fallback while not idle");
        self.phase = TxPhase::Fallback;
    }

    /// Records a transactional memory access.
    ///
    /// `safe` is the combined HinTM verdict (static hint OR dynamic page
    /// classification): safe accesses skip tracking entirely — this is the
    /// paper's §IV-C controller change.
    ///
    /// # Errors
    ///
    /// Returns [`CapacityAbort`] when tracking resources are exhausted. The
    /// caller must then invoke [`HtmThread::abort`].
    ///
    /// # Panics
    ///
    /// Panics if the thread is not in an active transaction.
    pub fn on_access(
        &mut self,
        block: BlockAddr,
        kind: AccessKind,
        safe: bool,
    ) -> Result<(), CapacityAbort> {
        assert_eq!(
            self.phase,
            TxPhase::Active,
            "transactional access while not active"
        );
        if safe {
            self.stats.safe_skipped += 1;
            return Ok(());
        }
        self.stats.tracked += 1;
        self.tracker.track(block, kind.is_store())
    }

    /// Reacts to a local L1 eviction of `block`.
    ///
    /// Returns `true` if this spills tracked state and must capacity-abort
    /// (in-L1 tracking only).
    pub fn on_l1_eviction(&self, block: BlockAddr) -> bool {
        self.phase == TxPhase::Active && self.tracker.on_l1_eviction(block)
    }

    /// Readset membership for conflict checks (may be a signature false
    /// positive).
    pub fn reads_block(&self, block: BlockAddr) -> bool {
        self.phase == TxPhase::Active && self.tracker.reads_block(block)
    }

    /// Precise readset membership (false-conflict classification).
    pub fn precise_reads_block(&self, block: BlockAddr) -> bool {
        self.phase == TxPhase::Active && self.tracker.precise_reads_block(block)
    }

    /// Writeset membership for conflict checks.
    pub fn writes_block(&self, block: BlockAddr) -> bool {
        self.phase == TxPhase::Active && self.tracker.writes_block(block)
    }

    /// Combined `(reads, writes)` conflict probe in a single pass (the
    /// readset half may be a signature false positive).
    pub fn conflict_probe(&self, block: BlockAddr) -> (bool, bool) {
        if self.phase != TxPhase::Active {
            return (false, false);
        }
        self.tracker.conflict_probe(block)
    }

    /// Speculatively written blocks (for rollback in the cache model).
    pub fn write_blocks(&self) -> Vec<BlockAddr> {
        self.tracker.write_blocks()
    }

    /// Appends the speculatively written blocks to `out` without
    /// allocating (hot abort path).
    pub fn write_blocks_into(&self, out: &mut Vec<BlockAddr>) {
        self.tracker.write_blocks_into(out);
    }

    /// Precise tracked footprint (readset ∪ writeset, in blocks).
    pub fn footprint(&self) -> usize {
        self.tracker.footprint()
    }

    /// Precise tracked readset size in blocks.
    pub fn read_set_size(&self) -> usize {
        self.tracker.read_set_size()
    }

    /// Precise tracked writeset size in blocks.
    pub fn write_set_size(&self) -> usize {
        self.tracker.write_set_size()
    }

    /// Blocks spilled past the fast-path capacity (LogTM log length).
    pub fn overflowed_blocks(&self) -> u64 {
        self.tracker.overflowed_blocks()
    }

    /// Capacity-stretch events consumed by the current transaction
    /// (PStretch suspend/resume windows).
    pub fn stretch_events(&self) -> u64 {
        self.tracker.stretch_events()
    }

    /// Commits the active transaction.
    ///
    /// # Panics
    ///
    /// Panics unless a transaction is active.
    pub fn commit(&mut self) {
        assert_eq!(self.phase, TxPhase::Active, "commit while not active");
        self.phase = TxPhase::Idle;
        self.retries = 0;
        self.stats.commits += 1;
        self.tracker.clear();
    }

    /// Completes a fallback (lock-protected) section.
    ///
    /// # Panics
    ///
    /// Panics unless the thread is in fallback.
    pub fn commit_fallback(&mut self) {
        assert_eq!(self.phase, TxPhase::Fallback, "not in fallback");
        self.phase = TxPhase::Idle;
        self.retries = 0;
        self.stats.fallback_commits += 1;
    }

    /// Aborts the active transaction, recording `kind`, and increments the
    /// retry counter.
    ///
    /// # Panics
    ///
    /// Panics unless a transaction is active.
    pub fn abort(&mut self, kind: AbortKind) {
        assert_eq!(self.phase, TxPhase::Active, "abort while not active");
        self.phase = TxPhase::Idle;
        // Being killed by a peer's lock acquisition says nothing about this
        // TX's own chances; real fallback handlers retry those for free.
        if kind != AbortKind::FallbackLock {
            self.retries += 1;
        }
        self.stats.record_abort(kind);
        self.tracker.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blk(i: u64) -> BlockAddr {
        BlockAddr::from_index(i)
    }

    fn p8_thread() -> HtmThread {
        HtmThread::new(&HtmConfig::new(HtmKind::P8))
    }

    #[test]
    fn lifecycle_commit() {
        let mut t = p8_thread();
        assert_eq!(t.phase(), TxPhase::Idle);
        t.begin();
        assert!(t.is_active());
        t.on_access(blk(1), AccessKind::Load, false).unwrap();
        t.commit();
        assert_eq!(t.phase(), TxPhase::Idle);
        assert_eq!(t.stats().commits, 1);
        assert_eq!(t.footprint(), 0, "commit clears tracking");
    }

    #[test]
    fn lifecycle_abort_counts_retry() {
        let mut t = p8_thread();
        t.begin();
        t.abort(AbortKind::Conflict);
        assert_eq!(t.retries(), 1);
        assert_eq!(t.stats().aborts_of(AbortKind::Conflict), 1);
        t.begin();
        t.commit();
        assert_eq!(t.retries(), 0, "commit resets retries");
    }

    #[test]
    fn capacity_abort_surfaces_at_65th_block() {
        let mut t = p8_thread();
        t.begin();
        for i in 0..64u64 {
            t.on_access(blk(i), AccessKind::Load, false).unwrap();
        }
        assert!(t.on_access(blk(64), AccessKind::Load, false).is_err());
        t.abort(AbortKind::Capacity);
        assert_eq!(t.stats().aborts_of(AbortKind::Capacity), 1);
    }

    #[test]
    fn safe_accesses_skip_tracking() {
        let mut t = p8_thread();
        t.begin();
        for i in 0..1000u64 {
            t.on_access(blk(i), AccessKind::Load, true).unwrap();
        }
        assert_eq!(t.footprint(), 0);
        assert_eq!(t.stats().safe_skipped, 1000);
        assert!(
            !t.reads_block(blk(5)),
            "safe accesses are invisible to conflicts"
        );
        t.commit();
    }

    #[test]
    fn hints_expand_effective_capacity() {
        // 64 unsafe + arbitrarily many safe accesses fit in a 64-entry P8.
        let mut t = p8_thread();
        t.begin();
        for i in 0..64u64 {
            t.on_access(blk(i), AccessKind::Store, false).unwrap();
        }
        for i in 64..500u64 {
            t.on_access(blk(i), AccessKind::Load, true).unwrap();
        }
        t.commit();
        assert_eq!(t.stats().commits, 1);
    }

    #[test]
    fn membership_only_while_active() {
        let mut t = p8_thread();
        t.begin();
        t.on_access(blk(7), AccessKind::Store, false).unwrap();
        assert!(t.writes_block(blk(7)));
        t.commit();
        assert!(!t.writes_block(blk(7)));
    }

    #[test]
    fn fallback_flow() {
        let mut t = p8_thread();
        t.enter_fallback();
        assert_eq!(t.phase(), TxPhase::Fallback);
        t.commit_fallback();
        assert_eq!(t.stats().fallback_commits, 1);
        assert_eq!(t.phase(), TxPhase::Idle);
    }

    #[test]
    fn inf_never_capacity_aborts() {
        let mut t = HtmThread::new(&HtmConfig::new(HtmKind::InfCap));
        t.begin();
        for i in 0..10_000u64 {
            t.on_access(blk(i), AccessKind::Store, false).unwrap();
        }
        assert_eq!(t.footprint(), 10_000);
        t.commit();
    }

    #[test]
    fn l1tm_eviction_abort_detection() {
        let mut t = HtmThread::new(&HtmConfig::new(HtmKind::L1Tm));
        t.begin();
        t.on_access(blk(3), AccessKind::Load, false).unwrap();
        assert!(t.on_l1_eviction(blk(3)));
        assert!(!t.on_l1_eviction(blk(4)));
        t.commit();
        assert!(
            !t.on_l1_eviction(blk(3)),
            "idle thread never aborts on eviction"
        );
    }

    #[test]
    fn p8s_read_overflow_is_fine_write_overflow_aborts() {
        let mut t = HtmThread::new(&HtmConfig::new(HtmKind::P8S));
        t.begin();
        for i in 0..500u64 {
            t.on_access(blk(i), AccessKind::Load, false).unwrap();
        }
        for i in 500..564u64 {
            t.on_access(blk(i), AccessKind::Store, false).unwrap();
        }
        assert!(t.on_access(blk(999), AccessKind::Store, false).is_err());
    }

    #[test]
    fn lrws_write_limit_aborts_before_buffer_fills() {
        let mut t = HtmThread::new(&HtmConfig::new(HtmKind::Lrws));
        t.begin();
        for i in 0..32u64 {
            t.on_access(blk(i), AccessKind::Store, false).unwrap();
        }
        assert!(t.on_access(blk(99), AccessKind::Store, false).is_err());
        t.abort(AbortKind::Capacity);
        // Reads alone never capacity-abort at the default limits.
        t.begin();
        for i in 0..500u64 {
            t.on_access(blk(i), AccessKind::Load, false).unwrap();
        }
        assert_eq!(t.read_set_size(), 500);
        t.commit();
    }

    #[test]
    fn pstretch_expands_read_capacity_by_stretching() {
        let mut t = HtmThread::new(&HtmConfig::new(HtmKind::PStretch));
        t.begin();
        // 64-entry buffer + 4 stretches that each empty it of reads:
        // 5 * 64 = 320 distinct read blocks fit, the next one aborts.
        for i in 0..320u64 {
            t.on_access(blk(i), AccessKind::Load, false).unwrap();
        }
        assert_eq!(t.stretch_events(), 4);
        assert!(t.on_access(blk(999), AccessKind::Load, false).is_err());
        t.abort(AbortKind::Capacity);
        assert_eq!(t.stretch_events(), 0, "abort resets stretch state");
    }

    #[test]
    #[should_panic(expected = "begin while not idle")]
    fn double_begin_panics() {
        let mut t = p8_thread();
        t.begin();
        t.begin();
    }

    #[test]
    #[should_panic(expected = "not active")]
    fn commit_without_begin_panics() {
        let mut t = p8_thread();
        t.commit();
    }

    #[test]
    fn stats_abort_indexing_covers_all_kinds() {
        let mut s = HtmThreadStats::default();
        for k in AbortKind::ALL {
            s.record_abort(k);
        }
        assert_eq!(s.total_aborts(), 5);
        for k in AbortKind::ALL {
            assert_eq!(s.aborts_of(k), 1);
        }
    }

    #[test]
    fn model_names_round_trip_in_any_case() {
        let names: Vec<String> = HtmKind::ALL.iter().map(|k| k.to_string()).collect();
        assert_eq!(
            names,
            ["P8", "P8S", "L1TM", "InfCap", "ROT", "LogTM", "LRWS", "PStretch"]
        );
        for kind in HtmKind::ALL {
            let name = kind.name();
            assert_eq!(name.parse::<HtmKind>(), Ok(kind));
            assert_eq!(name.to_lowercase().parse::<HtmKind>(), Ok(kind));
            assert_eq!(name.to_uppercase().parse::<HtmKind>(), Ok(kind));
        }
        assert_eq!("pstretch".parse::<HtmKind>(), Ok(HtmKind::PStretch));
        assert!("p9".parse::<HtmKind>().is_err());
        assert!("".parse::<HtmKind>().is_err());
    }
}
