//! # pgas-sim — a single-process PGAS (locale) simulator
//!
//! The building blocks of the paper *"Paving the way for Distributed
//! Non-Blocking Algorithms and Data Structures in the Partitioned Global
//! Address Space model"* were written for Chapel running on a Cray XC-50.
//! Rust has no PGAS/SHMEM substrate, so this crate provides one: a
//! simulator that runs any number of *locales* (compute nodes) inside one
//! process, with
//!
//! * **tasks** bound to locales (`run`, `on`, `coforall`, distributed
//!   `forall` — see [`runtime::RuntimeCore`]),
//! * a **communication engine** ([`engine`]) that owns every remote
//!   operation: active messages serviced by per-locale progress threads
//!   (blocking `on`, fire-and-forget `on_async`, batched `bulk_on` /
//!   [`engine::Batcher`]) and a simulated NIC that routes and prices
//!   atomics the way Gemini/Aries network atomics behave, including the
//!   `CHPL_NETWORK_ATOMICS` quirk that local atomics also pay the NIC
//!   toll,
//! * **global pointers** with 48-bit-address/16-bit-locale compression and
//!   a 128-bit wide fallback ([`globalptr`]),
//! * **locale-owned heap objects** with remote allocation/free and the
//!   bulk scatter-free path ([`heap`]),
//! * **privatization** — per-locale replicas with zero-communication local
//!   access ([`privatized`]),
//! * **virtual time** so scaling curves are host-independent ([`vtime`])
//!   and **communication counters** so tests can assert exact traffic
//!   ([`stats`]).
//!
//! Concurrency is real (OS threads, real atomics, real races); only the
//! *network* is modeled. That means the non-blocking algorithms built on
//! top are genuinely exercised for correctness, while performance curves
//! come from the deterministic cost model.
//!
//! ## Quick tour
//!
//! ```
//! use pgas_sim::{Runtime, here};
//!
//! let rt = Runtime::cluster(4);
//! rt.run(|| {
//!     // Chapel: coforall loc in Locales do on loc { ... }
//!     rt.coforall_locales(|l| {
//!         assert_eq!(here(), l);
//!     });
//!     // Chapel: on Locales[2] do f()
//!     let two = rt.on(2, || here());
//!     assert_eq!(two, 2);
//! });
//! ```

#![warn(missing_docs)]

pub(crate) mod am;
pub mod array;
pub mod barrier;
pub(crate) mod comm;
pub mod config;
pub mod ctx;
pub mod engine;
pub mod faults;
pub mod globalptr;
pub mod handlers;
pub mod heap;
pub mod locale;
pub mod per_thread;
pub mod privatized;
pub mod reduce;
pub mod runtime;
pub mod shard;
pub mod stats;
pub mod symheap;
pub mod telemetry;
pub mod vtime;

pub use array::{Dist, DistArray};
pub use barrier::DistBarrier;
pub use config::{EngineKind, NetworkConfig, PointerMode, RuntimeConfig};
pub use ctx::{current_runtime, here, try_here};
pub use engine::{Batcher, CommEngine, Completion, CompletionWaiter};
pub use faults::{FaultPlan, RetryClass, RetryPolicy};
pub use globalptr::{GlobalPtr, LocaleId, WideGlobalPtr};
pub use handlers::HandlerId;
pub use heap::{
    alloc_local, alloc_on, free, free_erased, free_erased_batch, free_erased_local_batch, Erased,
};
pub use locale::Locale;
pub use per_thread::PerThread;
pub use privatized::Privatized;
pub use reduce::{all_locales, any_locales, max_locales, min_locales, reduce_locales, sum_locales};
pub use runtime::{Runtime, RuntimeCore, RuntimeHandle};
pub use shard::ShardRouter;
pub use stats::{CommSnapshot, Counter, HeapStats};
pub use symheap::{SymHeap, SymOp64, WideCell};
pub use telemetry::TelemetrySnapshot;
