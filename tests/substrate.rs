//! Integration tests for the PGAS substrate features the listings depend
//! on: distributed arrays (Listing 5's `dmapped Cyclic` domain), barriers,
//! and the descriptor-table future-work extension used end to end.
//! Listing 4's `&& reduce` is `EpochManager`'s own scan, pinned by
//! `remote_pinned_token_blocks_global_advance`.

use pgas_nonblocking::prelude::*;
use pgas_nonblocking::sim::array::{Dist, DistArray};
use pgas_nonblocking::sim::barrier::DistBarrier;
use pgas_nonblocking::sim::WideGlobalPtr;
use std::sync::atomic::{AtomicU64, Ordering};

/// Listing 5 rebuilt on the actual distributed-array substrate: the
/// objects live in a `dmapped Cyclic`-style array and the forall walks it
/// with affinity.
#[test]
fn listing5_on_dist_array() {
    let rt = Runtime::new(RuntimeConfig::zero_latency(4));
    rt.run(|| {
        let n = 256;
        let em = EpochManager::new();
        // var objs : [objsDom] unmanaged C(), objsDom dmapped Cyclic
        let objs: DistArray<GlobalPtr<u64>> = DistArray::new(&rt, n, Dist::Cyclic, |i| {
            // init runs on the owning locale, so alloc_local gives each
            // element affinity to its array position.
            alloc_local(&current_runtime(), i as u64)
        });
        assert_eq!(rt.live_objects(), n as i64);

        let deferred = AtomicU64::new(0);
        objs.forall(&rt, 2, |_, &obj| {
            let tok = em.register();
            tok.pin();
            tok.defer_delete(obj);
            tok.unpin();
            deferred.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(deferred.load(Ordering::Relaxed), n as u64);
        em.clear();
        assert_eq!(rt.live_objects(), 0);
    });
}

#[test]
fn dist_array_cyclic_elements_have_matching_affinity() {
    let rt = Runtime::new(RuntimeConfig::zero_latency(3));
    rt.run(|| {
        let objs: DistArray<GlobalPtr<u64>> = DistArray::new(&rt, 30, Dist::Cyclic, |i| {
            alloc_local(&current_runtime(), i as u64)
        });
        for i in 0..30 {
            let p = objs.get(i);
            assert_eq!(
                p.locale(),
                objs.affinity(i),
                "object {i} allocated on its array slot's locale"
            );
            unsafe { free(&current_runtime(), p) };
        }
    });
    assert_eq!(rt.live_objects(), 0);
}

#[test]
fn barrier_phases_a_distributed_pipeline() {
    let rt = Runtime::new(RuntimeConfig::zero_latency(4));
    rt.run(|| {
        let barrier = DistBarrier::new_on(0, 4);
        let produced: Vec<AtomicU64> = (0..4).map(|_| AtomicU64::new(0)).collect();
        let sum = AtomicU64::new(0);
        rt.coforall_locales(|l| {
            // Phase 1: every locale produces.
            produced[l as usize].store((l as u64 + 1) * 10, Ordering::SeqCst);
            barrier.wait();
            // Phase 2: every locale sees everyone's production.
            let total: u64 = produced.iter().map(|p| p.load(Ordering::SeqCst)).sum();
            assert_eq!(total, 10 + 20 + 30 + 40);
            sum.fetch_add(total, Ordering::SeqCst);
        });
        assert_eq!(sum.load(Ordering::SeqCst), 4 * 100);
    });
}

#[test]
fn descriptor_cells_back_a_wide_mode_stack() {
    // End-to-end use of the future-work extension: a Treiber-style stack
    // whose head is a DescriptorAtomicObject, running in wide-pointer
    // mode where plain compressed ABA cells are unavailable.
    use pgas_nonblocking::atomics::{DescriptorAtomicObject, DescriptorTable};

    struct Node {
        value: u64,
        next: WideGlobalPtr<Node>,
    }

    let rt = Runtime::new(RuntimeConfig::zero_latency(2).with_wide_pointers());
    rt.run(|| {
        let table = DescriptorTable::new(256);
        let head = DescriptorAtomicObject::<Node>::null(std::sync::Arc::clone(&table));

        // Push 20 nodes with CAS loops on descriptors.
        let mut raw_nodes = Vec::new();
        for value in 0..20u64 {
            let node = Box::into_raw(Box::new(Node {
                value,
                next: WideGlobalPtr::null(),
            }));
            raw_nodes.push(node);
            let node_ptr = WideGlobalPtr::new(here() as u64, node as usize);
            loop {
                let snap = head.read();
                unsafe { &mut *node }.next = snap.ptr();
                if head.compare_and_swap(snap, node_ptr) {
                    break;
                }
            }
        }

        // Pop and verify LIFO.
        let mut expect = 19i64;
        loop {
            let snap = head.read();
            if snap.is_null() {
                break;
            }
            let node = unsafe { &*snap.ptr().as_ptr() };
            assert_eq!(node.value as i64, expect);
            assert!(head.compare_and_swap(snap, node.next));
            expect -= 1;
        }
        assert_eq!(expect, -1, "all 20 nodes popped");
        for node in raw_nodes {
            drop(unsafe { Box::from_raw(node) });
        }
    });
}

#[test]
fn concurrent_descriptor_stack_conserves_nodes() {
    use pgas_nonblocking::atomics::{DescriptorAtomicObject, DescriptorTable};

    struct Node {
        id: u64,
        next: WideGlobalPtr<Node>,
    }

    let rt = Runtime::new(RuntimeConfig::zero_latency(1).with_wide_pointers());
    rt.run(|| {
        let table = DescriptorTable::new(1024);
        let head = DescriptorAtomicObject::<Node>::null(std::sync::Arc::clone(&table));
        let total = 4 * 50;
        let mut all_nodes: Vec<usize> = (0..total)
            .map(|id| {
                Box::into_raw(Box::new(Node {
                    id: id as u64,
                    next: WideGlobalPtr::null(),
                })) as usize
            })
            .collect();
        let nodes_ref = &all_nodes;
        rt.coforall_tasks(4, |t| {
            for i in 0..50 {
                let node = nodes_ref[t * 50 + i] as *mut Node;
                let node_ptr = WideGlobalPtr::new(0, node as usize);
                loop {
                    let snap = head.read();
                    unsafe { &mut *node }.next = snap.ptr();
                    if head.compare_and_swap(snap, node_ptr) {
                        break;
                    }
                }
            }
        });
        // Sequential drain: every id exactly once.
        let mut seen = std::collections::HashSet::new();
        loop {
            let snap = head.read();
            if snap.is_null() {
                break;
            }
            let node = unsafe { &*snap.ptr().as_ptr() };
            assert!(seen.insert(node.id), "duplicate node {}", node.id);
            assert!(head.compare_and_swap(snap, node.next));
        }
        assert_eq!(seen.len(), total);
        for node in all_nodes.drain(..) {
            drop(unsafe { Box::from_raw(node as *mut Node) });
        }
    });
}
