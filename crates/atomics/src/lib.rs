//! # pgas-atomics — atomic operations on object references in PGAS
//!
//! Rust port of the paper's `AtomicObject` module: Chapel defines atomics
//! only on `bool`/`int`/`uint`/`real`, yet every non-blocking data
//! structure needs to CAS *object references*. This crate provides:
//!
//! * [`AtomicObject`] — atomics on [`pgas_sim::GlobalPtr`]s. Under pointer
//!   compression (48-bit address + 16-bit locale) the cell is a single
//!   word, so remote operations are RDMA (NIC) atomics; in the > 2^16
//!   locale wide-pointer fallback, operations become double-word CAS
//!   locally and active messages remotely.
//! * [`AtomicAbaObject`] / [`Aba`] — the 128-bit `{pointer, counter}`
//!   wrapper giving ABA-immune compare-and-swap via DCAS.
//! * [`LocalAtomicObject`] / [`LocalAtomicAbaObject`] — the shared-memory
//!   variants that ignore locality.
//! * [`AtomicInt`] — the `atomic int` baseline Fig. 3 compares against,
//!   routed through the same simulated network.
//!
//! ## Treiber-stack push, as in Listing 1 of the paper
//!
//! ```
//! use pgas_sim::{Runtime, alloc_local, GlobalPtr};
//! use pgas_atomics::AtomicAbaObject;
//!
//! struct Node {
//!     value: u64,
//!     next: GlobalPtr<Node>,
//! }
//!
//! let rt = Runtime::shared_memory();
//! rt.run(|| {
//!     let head = AtomicAbaObject::<Node>::null();
//!     // proc push(newObj: T) { ... } while(!head.compareAndSwapABA(...))
//!     let node = alloc_local(&rt, Node { value: 42, next: GlobalPtr::null() });
//!     loop {
//!         let old_head = head.read_aba();
//!         unsafe { &mut *node.as_ptr() }.next = old_head.get_object();
//!         if head.compare_and_swap_aba(old_head, node) {
//!             break;
//!         }
//!     }
//!     assert_eq!(unsafe { head.read().deref() }.value, 42);
//!     unsafe { pgas_sim::free(&rt, node) };
//! });
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]

pub mod aba;
pub mod atomic_int;
pub mod compression;
pub mod global;
pub mod local;

pub use aba::{Aba, AtomicAbaObject};
pub use atomic_int::AtomicInt;
pub use compression::{preferred_mode, requires_wide, MAX_COMPRESSED_LOCALES};
pub use global::AtomicObject;
pub use local::{LocalAtomicAbaObject, LocalAtomicObject};
