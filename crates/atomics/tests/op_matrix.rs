//! Exhaustive operation matrix for the atomic types: every operation ×
//! {local, remote} × {network atomics on, off} × {compressed, wide},
//! asserting the result semantics, the exact communication path taken,
//! and what each operation is charged: its charge-class sample, its
//! `atomic_object_op` root sample and the task's virtual-time delta.

use pgas_atomics::{AtomicAbaObject, AtomicInt, AtomicObject, LocalAtomicObject};
use pgas_sim::telemetry::OpClass;
use pgas_sim::{
    alloc_local, alloc_on, free, vtime, GlobalPtr, LocaleId, NetworkConfig, Runtime, RuntimeConfig,
};

/// Communication expectation for one op.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Path {
    Rdma(u64),
    Cpu(u64),
    Am(u64),
    Dcas(u64),
}

fn assert_paths(rt: &Runtime, expected: &[Path]) {
    let s = rt.total_comm();
    for e in expected {
        match *e {
            Path::Rdma(n) => assert_eq!(s.rdma_atomics, n, "rdma count: {s}"),
            Path::Cpu(n) => assert_eq!(s.cpu_atomics, n, "cpu count: {s}"),
            Path::Am(n) => assert_eq!(s.am_sent, n, "am count: {s}"),
            Path::Dcas(n) => assert_eq!(s.cpu_dcas, n, "dcas count: {s}"),
        }
    }
}

#[test]
fn atomic_int_matrix() {
    // (net_atomics, owner-is-remote) → expected path for 4 ops
    for (net, remote, expected) in [
        (true, false, vec![Path::Rdma(4), Path::Am(0)]),
        (true, true, vec![Path::Rdma(4), Path::Am(0)]),
        (false, false, vec![Path::Cpu(4), Path::Am(0), Path::Rdma(0)]),
        (false, true, vec![Path::Cpu(4), Path::Am(4), Path::Rdma(0)]),
    ] {
        let cfg = if net {
            RuntimeConfig::cluster(2)
        } else {
            RuntimeConfig::cluster(2).without_network_atomics()
        };
        let rt = Runtime::new(cfg);
        rt.run(|| {
            let owner = if remote { 1 } else { 0 };
            let a = AtomicInt::new_on(owner, 5);
            rt.reset_metrics();
            assert_eq!(a.read(), 5);
            a.write(7);
            assert_eq!(a.exchange(9), 7);
            assert!(a.compare_and_swap(9, 11));
            assert_paths(&rt, &expected);
        });
    }
}

#[test]
fn atomic_object_matrix_compressed() {
    for (net, remote, expected) in [
        (true, false, vec![Path::Rdma(4)]),
        (true, true, vec![Path::Rdma(4), Path::Am(0)]),
        (false, false, vec![Path::Cpu(4)]),
        (false, true, vec![Path::Cpu(4), Path::Am(4)]),
    ] {
        let cfg = if net {
            RuntimeConfig::cluster(2)
        } else {
            RuntimeConfig::cluster(2).without_network_atomics()
        };
        let rt = Runtime::new(cfg);
        rt.run(|| {
            let owner = if remote { 1 } else { 0 };
            let x = alloc_local(&rt, 1u64);
            let y = alloc_on(&rt, 1, 2u64);
            let cell = AtomicObject::new_on(owner, x);
            rt.reset_metrics();
            assert_eq!(cell.read(), x);
            cell.write(y);
            assert_eq!(cell.exchange(x), y);
            assert!(cell.compare_and_swap(x, y));
            assert_paths(&rt, &expected);
            unsafe {
                free(&rt, x);
                free(&rt, y);
            }
        });
    }
}

#[test]
fn atomic_object_matrix_wide() {
    // Wide mode: local = DCAS, remote = AM + DCAS, never RDMA.
    for (remote, expected) in [
        (false, vec![Path::Dcas(4), Path::Rdma(0), Path::Am(0)]),
        (true, vec![Path::Dcas(4), Path::Rdma(0), Path::Am(4)]),
    ] {
        let rt = Runtime::new(RuntimeConfig::cluster(2).with_wide_pointers());
        rt.run(|| {
            let owner = if remote { 1 } else { 0 };
            let x = alloc_local(&rt, 1u64);
            let cell = AtomicObject::new_on(owner, GlobalPtr::null());
            rt.reset_metrics();
            let _ = cell.read();
            cell.write(x);
            let _ = cell.exchange(x);
            assert!(cell.compare_and_swap(x, GlobalPtr::null()));
            assert_paths(&rt, &expected);
            unsafe { free(&rt, x) };
        });
    }
}

#[test]
fn aba_object_matrix() {
    // ABA ops are DCAS locally, AM+DCAS remotely (the DCAS then executes
    // on the owner and is counted there); the plain 64-bit read is the
    // only NIC-eligible op.
    for (remote, dcas_total, ams) in [(false, 4, 0), (true, 4, 4)] {
        let rt = Runtime::new(RuntimeConfig::cluster(2));
        rt.run(|| {
            let owner = if remote { 1 } else { 0 };
            let x = alloc_local(&rt, 1u64);
            let cell = AtomicAbaObject::new_on(owner, GlobalPtr::null());
            rt.reset_metrics();
            let snap = cell.read_aba();
            cell.write_aba(x);
            let _ = cell.exchange_aba(GlobalPtr::null());
            let _ = cell.compare_and_swap_aba(snap, x);
            let s = rt.total_comm();
            assert_eq!(s.cpu_dcas, dcas_total, "{s}");
            assert_eq!(s.am_sent, ams, "{s}");
            assert_eq!(s.rdma_atomics, 0);
            // the 64-bit read: NIC
            let _ = cell.read();
            assert_eq!(rt.total_comm().rdma_atomics, 1);
            unsafe { free(&rt, x) };
        });
    }
}

#[test]
fn local_atomic_object_tracks_native_atomic_costs() {
    // LocalAtomicObject must cost exactly what atomic int costs.
    for net in [true, false] {
        let cfg = if net {
            RuntimeConfig::cluster(1)
        } else {
            RuntimeConfig::cluster(1).without_network_atomics()
        };
        let rt = Runtime::new(cfg);
        rt.run(|| {
            let x = alloc_local(&rt, 3u64);
            let obj = LocalAtomicObject::new(x);
            let int = AtomicInt::new(0);
            rt.reset_metrics();
            let _ = obj.read();
            let a = rt.total_comm();
            rt.reset_metrics();
            let _ = int.read();
            let b = rt.total_comm();
            assert_eq!(a, b, "identical communication profile");
            unsafe { free(&rt, x) };
        });
    }
}

#[test]
fn exchange_sequences_are_linearizable_per_cell() {
    // N tasks exchange distinct values into one cell; collecting
    // "previous" values must form a permutation chain.
    let rt = Runtime::new(RuntimeConfig::zero_latency(1));
    rt.run(|| {
        let ptrs: Vec<GlobalPtr<u64>> = (0..8).map(|i| alloc_local(&rt, i as u64)).collect();
        let cell = AtomicObject::new(GlobalPtr::null());
        let prevs: Vec<std::sync::Mutex<Vec<u64>>> =
            (0..8).map(|_| std::sync::Mutex::new(Vec::new())).collect();
        rt.coforall_tasks(8, |t| {
            for _ in 0..50 {
                let old = cell.exchange(ptrs[t]);
                prevs[t].lock().unwrap().push(old.into_bits());
            }
        });
        // Each non-null previous value must be one of the 8 pointers, and
        // the total count of "I replaced X" events per X equals the number
        // of times X was installed minus (possibly) the final resident.
        let valid: std::collections::HashSet<u64> = ptrs.iter().map(|p| p.into_bits()).collect();
        let mut replaced = 0u64;
        for p in &prevs {
            for &bits in p.lock().unwrap().iter() {
                if bits != 0 {
                    assert!(valid.contains(&bits));
                    replaced += 1;
                }
            }
        }
        assert_eq!(
            replaced,
            8 * 50 - 1,
            "every install except the last resident was replaced"
        );
        for p in ptrs {
            unsafe { free(&rt, p) };
        }
    });
}

// ---- the latency half and virtual time, per operation ---------------------

/// What one operation is charged: the class of its one charge sample, that
/// sample (a `NetworkConfig` constant), and the issuing task's clock delta.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Charge {
    class: OpClass,
    unit: u64,
    vtime: u64,
}

/// The charge of a 64-bit (`wide == false`) or 128-bit operation on a cell
/// of the other locale (`remote`) or this one: the routing table of
/// `pgas_sim::comm`, priced. A remote operation that is not a NIC atomic
/// is an active message: a wire each way, the handler dispatch and the
/// CPU instruction on the owner.
fn charge(net: &NetworkConfig, wide: bool, remote: bool) -> Charge {
    let (class, unit) = if wide {
        (OpClass::CpuDcas, net.cpu_dcas_ns)
    } else if net.network_atomics {
        (OpClass::RdmaAtomic, net.nic_atomic_ns)
    } else {
        (OpClass::CpuAtomic, net.cpu_atomic_ns)
    };
    let am_ns = if remote && class != OpClass::RdmaAtomic {
        2 * net.am_wire_ns + net.am_handler_ns
    } else {
        0
    };
    Charge {
        class,
        unit,
        vtime: unit + am_ns,
    }
}

/// Repetitions of each operation, so the histogram sums are `N × unit`.
const N: u64 = 3;

/// Run `op` `N` times on a freshly reset runtime and check, per run, the
/// task's clock delta, and after the runs the charge class's count, sum
/// and max and the `atomic_object_op` root sample (`rooted`) — or its
/// absence (`AtomicInt` opens no root span).
fn check_op(rt: &Runtime, what: &str, expect: Charge, rooted: bool, op: &dyn Fn()) {
    rt.reset_metrics();
    for i in 0..N {
        let t0 = vtime::now();
        op();
        assert_eq!(vtime::now() - t0, expect.vtime, "{what}: vtime of run {i}");
    }
    let t = rt.total_telemetry();
    let h = t.class(expect.class);
    assert_eq!(
        (h.count(), h.sum(), h.max()),
        (N, N * expect.unit, expect.unit),
        "{what}: {} histogram",
        expect.class
    );
    let root = t.class(OpClass::AtomicObjectOp);
    let want = if rooted {
        (N, N * expect.vtime, expect.vtime)
    } else {
        (0, 0, 0)
    };
    assert_eq!(
        (root.count(), root.sum(), root.max()),
        want,
        "{what}: atomic_object_op sample"
    );
}

#[test]
fn every_op_samples_its_charge_class_root_span_and_vtime() {
    for wide in [false, true] {
        for net_atomics in [true, false] {
            for remote in [false, true] {
                let mut cfg = RuntimeConfig::cluster(2);
                if !net_atomics {
                    cfg = cfg.without_network_atomics();
                }
                if wide {
                    cfg = cfg.with_wide_pointers();
                }
                let net = cfg.network.clone();
                let rt = Runtime::new(cfg);
                let owner = LocaleId::from(remote);
                let priced = |wide: bool| charge(&net, wide, remote);
                let case = format!("wide={wide} net_atomics={net_atomics} remote={remote}");
                rt.run(|| {
                    let x = alloc_local(&rt, 1u64);
                    let obj = AtomicObject::new_on(owner, x);
                    let object_ops: [(&str, &dyn Fn()); 4] = [
                        ("AtomicObject::read", &|| {
                            let _ = obj.read();
                        }),
                        ("AtomicObject::write", &|| obj.write(x)),
                        ("AtomicObject::exchange", &|| {
                            let _ = obj.exchange(x);
                        }),
                        ("AtomicObject::compare_exchange", &|| {
                            let _ = obj.compare_exchange(x, x);
                        }),
                    ];
                    for (name, op) in object_ops {
                        check_op(&rt, &format!("{name} {case}"), priced(wide), true, op);
                    }
                    let int = AtomicInt::new_on(owner, 5);
                    let int_ops: [(&str, &dyn Fn()); 4] = [
                        ("AtomicInt::read", &|| {
                            let _ = int.read();
                        }),
                        ("AtomicInt::write", &|| int.write(7)),
                        ("AtomicInt::exchange", &|| {
                            let _ = int.exchange(7);
                        }),
                        ("AtomicInt::compare_and_swap", &|| {
                            let _ = int.compare_and_swap(7, 7);
                        }),
                    ];
                    for (name, op) in int_ops {
                        check_op(&rt, &format!("{name} {case}"), priced(false), false, op);
                    }
                    if !wide {
                        // ABA cells need the compressed word beside their counter.
                        let aba = AtomicAbaObject::new_on(owner, x);
                        let snap = aba.read_aba();
                        let aba_ops: [(&str, bool, &dyn Fn()); 6] = [
                            ("AtomicAbaObject::read_aba", true, &|| {
                                let _ = aba.read_aba();
                            }),
                            ("AtomicAbaObject::compare_and_swap_aba", true, &|| {
                                let _ = aba.compare_and_swap_aba(snap, x);
                            }),
                            ("AtomicAbaObject::exchange_aba", true, &|| {
                                let _ = aba.exchange_aba(x);
                            }),
                            ("AtomicAbaObject::write_aba", true, &|| aba.write_aba(x)),
                            ("AtomicAbaObject::read", false, &|| {
                                let _ = aba.read();
                            }),
                            ("AtomicAbaObject::compare_and_swap", true, &|| {
                                let _ = aba.compare_and_swap(x, x);
                            }),
                        ];
                        for (name, dcas, op) in aba_ops {
                            check_op(&rt, &format!("{name} {case}"), priced(dcas), true, op);
                        }
                    }
                    unsafe { free(&rt, x) };
                });
            }
        }
    }
}

#[test]
fn versioned_reads_sample_their_get_and_root_span() {
    // With the fast path on, a 128-bit read is one cache-line load when
    // local (sampled only as the `versioned_read` span) and one 24-byte
    // one-sided GET when remote.
    for remote in [false, true] {
        let cfg = RuntimeConfig::cluster(2)
            .with_wide_pointers()
            .with_vread_fastpath(true);
        let net = cfg.network.clone();
        let get = net.rma_ns + 24 * net.rma_ns_per_kib / 1024;
        let expect = if remote {
            Charge {
                class: OpClass::Get,
                unit: get,
                vtime: get,
            }
        } else {
            Charge {
                class: OpClass::VersionedRead,
                unit: net.cpu_atomic_ns,
                vtime: net.cpu_atomic_ns,
            }
        };
        let rt = Runtime::new(cfg);
        rt.run(|| {
            let x = alloc_local(&rt, 1u64);
            let obj = AtomicObject::new_on(LocaleId::from(remote), x);
            check_op(
                &rt,
                &format!("AtomicObject::read vread remote={remote}"),
                expect,
                true,
                &|| assert_eq!(obj.read(), x),
            );
            let t = rt.total_telemetry();
            let v = t.class(OpClass::VersionedRead);
            assert_eq!(
                (v.count(), v.sum()),
                (N, N * expect.vtime),
                "versioned_read"
            );
            assert_eq!(t.comm.vread_fast, N);
            unsafe { free(&rt, x) };
        });
    }
}
