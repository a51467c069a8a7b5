//! # pgas-nb — distributed non-blocking building blocks for the PGAS model
//!
//! The facade crate for this reproduction of *"Paving the way for
//! Distributed Non-Blocking Algorithms and Data Structures in the
//! Partitioned Global Address Space model"* (Dewan & Jenkins, 2020).
//! It re-exports the full stack:
//!
//! | layer | crate | contents |
//! |-------|-------|----------|
//! | substrate | [`sim`] | locales, active messages, simulated RDMA/NIC atomics, global pointers, privatization, virtual time |
//! | contribution 1 | [`atomics`] | `AtomicObject`, `LocalAtomicObject`, ABA protection via 128-bit DCAS, pointer compression |
//! | contribution 2 | [`epoch`] | `EpochManager`, `LocalEpochManager`, wait-free limbo lists, scatter-list reclamation |
//! | applications | [`structures`] | Treiber stack, Michael–Scott queue, Harris list, distributed hash map |
//! | global-view tier | [`structures`] + [`sim`]'s `ShardRouter` | privatized per-locale-sharded map |
//!
//! ## Quickstart
//!
//! ```
//! use pgas_nb::prelude::*;
//!
//! // A 4-locale "cluster" with Aries-like network costs.
//! let rt = Runtime::cluster(4);
//! rt.run(|| {
//!     let em = EpochManager::new();
//!     // A distributed forall with a task-private token, as in the paper:
//!     rt.forall_dist(100, |_, _| em.register(), |tok, i| {
//!         let obj = alloc_local(&current_runtime(), i as u64);
//!         tok.pin();
//!         tok.defer_delete(obj);
//!         tok.unpin();
//!         if i % 32 == 0 {
//!             tok.try_reclaim();
//!         }
//!     });
//!     em.clear(); // reclaim everything at once
//!     assert_eq!(rt.live_objects(), 0);
//! });
//! ```

#![warn(missing_docs)]

pub use pgas_atomics as atomics;
pub use pgas_epoch as epoch;
pub use pgas_sim as sim;
pub use pgas_structures as structures;

/// One-stop imports for applications.
pub mod prelude {
    pub use pgas_atomics::{
        Aba, AtomicAbaObject, AtomicInt, AtomicObject, LocalAtomicAbaObject, LocalAtomicObject,
    };
    pub use pgas_epoch::{
        EpochManager, HazardReclaimer, LocalEpochManager, LocalToken, OwnedAtomic, PinGuard,
        ReclaimGuard, Reclaimer, Token,
    };
    pub use pgas_sim::{
        alloc_local, alloc_on, current_runtime, free, here, Batcher, CommEngine, Completion,
        GlobalPtr, LocaleId, NetworkConfig, PointerMode, Runtime, RuntimeConfig, RuntimeHandle,
        ShardRouter,
    };
    pub use pgas_structures::{
        DistHashMap, LockFreeList, LockFreeSkipList, LockFreeStack, MsQueue, RcuArray,
        ShardSnapshot, ShardedHashMap,
    };
}

pub use prelude::*;
