//! Reclamation statistics, used by tests and the figure benchmarks.

use pgas_sim::PerThread;

/// The cells of a [`ReclaimStats`] block, one per [`ReclaimSnapshot`] field.
#[derive(Debug, Clone, Copy)]
#[repr(usize)]
pub(crate) enum Stat {
    Advances,
    LostLocalElection,
    LostGlobalElection,
    UnsafeScans,
    ObjectsReclaimed,
    ObjectsDeferred,
    HazardProtects,
}

const STATS: usize = Stat::HazardProtects as usize + 1;

/// Counters describing what a manager's reclamation machinery has done.
/// Sharded per recording thread ([`pgas_sim::per_thread`]): reclamation on
/// every locale bumps them, and no two threads share the line it lands on.
#[derive(Debug)]
pub struct ReclaimStats(PerThread);

impl Default for ReclaimStats {
    fn default() -> Self {
        ReclaimStats(PerThread::new(STATS, 0))
    }
}

/// Snapshot of [`ReclaimStats`].
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ReclaimSnapshot {
    /// Successful epoch advancements.
    pub advances: u64,
    /// Calls that backed out at the local election flag.
    pub lost_local_election: u64,
    /// Calls that won locally but lost the global election.
    pub lost_global_election: u64,
    /// Scans that found a lagging pinned token (advance refused).
    pub unsafe_scans: u64,
    /// User objects actually freed.
    pub objects_reclaimed: u64,
    /// Objects deferred for deletion. Epoch backends count a token's
    /// deletions when its bag is published (see [`crate::limbo`]): exact
    /// once every token has unregistered or `clear` has run.
    pub objects_deferred: u64,
    /// Validated hazard-pointer protections (0 for epoch backends).
    pub hazard_protects: u64,
}

impl ReclaimStats {
    pub(crate) fn bump(&self, stat: Stat) {
        self.0.add(stat as usize, 1);
    }

    pub(crate) fn add(&self, stat: Stat, n: u64) {
        self.0.add(stat as usize, n);
    }

    /// Count `n` deletions whose bag was just published. Most flushes
    /// publish nothing (every short-lived token flushes on drop), and those
    /// skip the shard lookup.
    pub(crate) fn published(&self, n: u64) {
        if n > 0 {
            self.add(Stat::ObjectsDeferred, n);
        }
    }

    /// Capture current values.
    pub fn snapshot(&self) -> ReclaimSnapshot {
        let mut c = [0; STATS];
        self.0.read(0, &mut c);
        let at = |stat: Stat| c[stat as usize];
        ReclaimSnapshot {
            advances: at(Stat::Advances),
            lost_local_election: at(Stat::LostLocalElection),
            lost_global_election: at(Stat::LostGlobalElection),
            unsafe_scans: at(Stat::UnsafeScans),
            objects_reclaimed: at(Stat::ObjectsReclaimed),
            objects_deferred: at(Stat::ObjectsDeferred),
            hazard_protects: at(Stat::HazardProtects),
        }
    }
}

impl std::fmt::Display for ReclaimSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "advances={} lost_local={} lost_global={} unsafe_scans={} \
             deferred={} reclaimed={} protects={}",
            self.advances,
            self.lost_local_election,
            self.lost_global_election,
            self.unsafe_scans,
            self.objects_deferred,
            self.objects_reclaimed,
            self.hazard_protects,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let s = ReclaimStats::default();
        s.bump(Stat::Advances);
        s.add(Stat::ObjectsReclaimed, 7);
        let snap = s.snapshot();
        assert_eq!(snap.advances, 1);
        assert_eq!(snap.objects_reclaimed, 7);
        assert_eq!(snap.lost_local_election, 0);
    }

    #[test]
    fn display_is_one_line() {
        let s = ReclaimStats::default().snapshot();
        assert!(!format!("{s}").contains('\n'));
    }
}
