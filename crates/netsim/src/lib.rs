//! The paper's evaluation workload (§III): a message-passing network
//! simulator, in four test setups.
//!
//! *"In this simplified scenario a network of individual hosts, that
//! communicate by message passing, is simulated. Each host receives a
//! message, calculates the next recipient, and forwards the message
//! accordingly. This simulation is inherently prone to race conditions
//! when using common synchronization primitives: if two hosts send a
//! message to the same recipient the order of processing is timing
//! dependent."*
//!
//! | Setup | Implementation | Routing | Result determinism |
//! |---|---|---|---|
//! | [`Setup::ConventionalNonDet`] | threads + mutex/condvar queues | hash-derived | **no** |
//! | [`Setup::ConventionalDet`] | threads + mutex/condvar queues | next-host ring | yes |
//! | [`Setup::SpawnMergeNonDet`] | Spawn & Merge tasks, `MergeAll` rounds | hash-derived | **yes** |
//! | [`Setup::SpawnMergeDet`] | Spawn & Merge tasks, `MergeAll` rounds | next-host ring | yes |
//!
//! The base parameters match the paper: 20 hosts, 100 initial messages,
//! TTL = 100 hops, with the host workload `l` (SHA-1 iterations per
//! message) swept from 0 to 10 000. `sm-bench`'s `figure3` binary sweeps
//! all four setups and prints the series of Figure 3.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conventional;
pub mod live;
pub mod message;
pub mod spawnmerge;
pub mod tenant;
pub mod workload;

use std::time::Duration;

use conventional::run_conventional;
pub use live::{run_live, LiveReport};
pub use message::{Message, Routing, SimConfig};
pub use spawnmerge::{run_spawn_merge, run_spawn_merge_with_pool, SimData};
pub use tenant::{run_tenants, TenantConfig, TenantReport};
pub use workload::{fingerprint, lcg_positions, process_message, HostStats, Lcg};

/// Result of one simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimResult {
    /// Wall-clock simulation time (the paper's y-axis).
    pub elapsed: Duration,
    /// Per-host results.
    pub stats: Vec<HostStats>,
    /// Order-sensitive digest of all per-host results; equal fingerprints
    /// ⟺ identical observable outcomes.
    pub fingerprint: sm_sha1::Digest,
    /// Total message processings (must equal `initial_messages × ttl`).
    pub total_processed: u64,
    /// Spawn & Merge only: number of `MergeAll` rounds driven by the root.
    pub rounds: u64,
}

/// The four test setups of Figure 3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Setup {
    /// Conventional threads+locks, hash-derived routing (non-deterministic
    /// results).
    ConventionalNonDet,
    /// Conventional threads+locks, ring routing (deterministic results).
    ConventionalDet,
    /// Spawn & Merge, hash-derived routing (deterministic results anyway).
    SpawnMergeNonDet,
    /// Spawn & Merge, ring routing (deterministic results).
    SpawnMergeDet,
}

impl Setup {
    /// All four setups, in the paper's legend order.
    pub const ALL: [Setup; 4] = [
        Setup::ConventionalNonDet,
        Setup::ConventionalDet,
        Setup::SpawnMergeNonDet,
        Setup::SpawnMergeDet,
    ];

    /// The routing this setup uses.
    pub fn routing(self) -> Routing {
        match self {
            Setup::ConventionalNonDet | Setup::SpawnMergeNonDet => Routing::HashDerived,
            Setup::ConventionalDet | Setup::SpawnMergeDet => Routing::NextHost,
        }
    }

    /// True for the Spawn & Merge implementations.
    fn is_spawn_merge(self) -> bool {
        matches!(self, Setup::SpawnMergeNonDet | Setup::SpawnMergeDet)
    }

    /// Legend label as printed in the paper's Figure 3.
    pub fn label(self) -> &'static str {
        match self {
            Setup::ConventionalNonDet => "Conventional (non-determ.)",
            Setup::ConventionalDet => "Conventional (determ.)",
            Setup::SpawnMergeNonDet => "Spawn Merge (non-determ.)",
            Setup::SpawnMergeDet => "Spawn Merge (determ.)",
        }
    }
}

/// Run one setup at host workload `l` on the paper's base parameters
/// scaled by `cfg` (pass [`SimConfig::paper`] for the real thing).
pub fn run_setup(setup: Setup, cfg: &SimConfig) -> SimResult {
    let cfg = SimConfig {
        routing: setup.routing(),
        ..*cfg
    };
    if setup.is_spawn_merge() {
        run_spawn_merge(&cfg)
    } else {
        run_conventional(&cfg)
    }
}

/// The `sm_obs` recorder slot is process-global: every test of this
/// crate that installs or uninstalls a recorder holds this lock, so one
/// module's `uninstall` cannot land in the middle of another's run.
#[cfg(test)]
pub(crate) fn recorder_lock() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn setup_metadata() {
        assert_eq!(Setup::ALL.len(), 4);
        assert_eq!(Setup::ConventionalNonDet.routing(), Routing::HashDerived);
        assert_eq!(Setup::SpawnMergeDet.routing(), Routing::NextHost);
        assert!(Setup::SpawnMergeNonDet.is_spawn_merge());
        assert!(!Setup::ConventionalDet.is_spawn_merge());
        for s in Setup::ALL {
            assert!(!s.label().is_empty());
        }
    }

    #[test]
    fn all_setups_process_all_hops() {
        let cfg = SimConfig::small(0, Routing::HashDerived);
        for setup in Setup::ALL {
            let r = run_setup(setup, &cfg);
            assert_eq!(
                r.total_processed,
                cfg.expected_hops(),
                "{} lost work",
                setup.label()
            );
        }
    }

    #[test]
    fn spawn_merge_setups_agree_with_themselves_across_runs() {
        let cfg = SimConfig::small(1, Routing::HashDerived);
        for setup in [Setup::SpawnMergeNonDet, Setup::SpawnMergeDet] {
            let a = run_setup(setup, &cfg);
            let b = run_setup(setup, &cfg);
            assert_eq!(
                a.fingerprint,
                b.fingerprint,
                "{} must be deterministic",
                setup.label()
            );
        }
    }

    #[test]
    fn deterministic_conventional_agrees_across_runs() {
        let cfg = SimConfig::small(1, Routing::NextHost);
        let a = run_setup(Setup::ConventionalDet, &cfg);
        let b = run_setup(Setup::ConventionalDet, &cfg);
        assert_eq!(a.fingerprint, b.fingerprint);
    }

    #[test]
    fn ring_setups_agree_between_implementations() {
        // With ring routing both implementations process the same messages
        // in the same per-host order, so even the fingerprints must match —
        // a strong cross-validation of the two simulators.
        let cfg = SimConfig::small(2, Routing::NextHost);
        let conv = run_setup(Setup::ConventionalDet, &cfg);
        let sm = run_setup(Setup::SpawnMergeDet, &cfg);
        assert_eq!(conv.fingerprint, sm.fingerprint);
    }
}
