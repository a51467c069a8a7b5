//! # pgas-epoch — distributed epoch-based memory reclamation
//!
//! Rust port of the paper's `EpochManager` / `LocalEpochManager`:
//! concurrent-safe deferred deletion for non-blocking data structures in
//! shared *and* distributed memory, built on epoch-based reclamation
//! (Fraser, 2004) with the paper's distributed-memory machinery:
//! privatized per-locale instances, a locale-cached epoch, wait-free limbo
//! lists with recycled nodes, first-come-first-serve reclamation election,
//! and scatter-list bulk frees for remote objects. Michael's hazard
//! pointers, the alternative the paper's §I names, sit beside them as
//! [`HazardReclaimer`].
//!
//! Every backend's whole API is the paper's contract, *register →
//! pin/unpin → deferDelete → tryReclaim*, written once as the [`Reclaimer`]
//! and [`ReclaimGuard`] traits (construction is `new()` or `Default`); what
//! a backend has beyond them is ablation knobs and diagnostics. A critical
//! section is a [`PinGuard`]: it unpins, and clears the hazard slots it
//! walked with, on every exit, unwinding included. The structures in
//! `pgas-structures` and [`OwnedAtomic`] pin through it.
//!
//! ## The paper's Listing 3, in Rust
//!
//! ```
//! use pgas_sim::{Runtime, RuntimeConfig, alloc_local};
//! use pgas_epoch::{EpochManager, ReclaimGuard, Reclaimer};
//!
//! let rt = Runtime::new(RuntimeConfig::zero_latency(2));
//! rt.run(|| {
//!     let em = EpochManager::new();
//!
//!     // Serial usage: pinned while the guard lives
//!     let tok = em.register();
//!     drop(tok.pin_guard(0));
//!     drop(tok); // automatic unregister
//!
//!     // Parallel and distributed (forall ... with (var tok = em.register()))
//!     rt.forall_dist(64, |_, _| em.register(), |tok, i| {
//!         tok.pinned(0, || {
//!             tok.defer_delete(alloc_local(&pgas_sim::current_runtime(), i as u64))
//!         });
//!     }); // automatic unregister at task end
//!
//!     em.clear(); // Reclaim everything at once.
//!     assert_eq!(rt.live_objects(), 0);
//! });
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]

pub mod hazard_dist;
pub mod limbo;
pub mod local_manager;
pub mod manager;
pub mod math;
pub mod owned;
pub mod reclaim;
pub mod stats;
pub mod token;

pub use hazard_dist::{HazardReclaimer, HpGuard, DIST_HP_SLOTS};
pub use limbo::{LimboList, NodePool};
pub use local_manager::{LocalEpochManager, LocalToken};
pub use manager::{EpochManager, Token};
pub use math::{limbo_index, next_epoch, reclaim_epoch, EPOCHS};
pub use owned::OwnedAtomic;
pub use reclaim::{PinGuard, ReclaimGuard, Reclaimer};
pub use stats::{ReclaimSnapshot, ReclaimStats};
pub use token::QUIESCENT;
