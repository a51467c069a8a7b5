//! A runtime's symmetric heaps cost memory only where they are touched.
//!
//! `SymHeap::new` takes its words from one zeroed allocation and writes
//! none of them, so a heap is reserved at construction and committed page
//! by page on first touch. A 64 MiB heap per locale is above glibc's
//! largest mmap threshold (32 MiB), so each heap is a fresh mapping
//! whatever the allocator did before, and building the runtime must not
//! raise the resident set by anything near the 128 MiB an eager zero fill
//! would commit. Linux only: the resident set is read from
//! `/proc/self/status`.
#![cfg(target_os = "linux")]

use pgas_sim::symheap::{SymOp64, WIDE_CELL_BYTES};
use pgas_sim::{Runtime, RuntimeConfig};

const HEAP_BYTES: usize = 64 << 20;

/// The process's resident set, in bytes.
fn vm_rss() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    let kib: usize = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmRSS value in kB");
    kib << 10
}

fn runtime() -> Runtime {
    Runtime::new(RuntimeConfig::cluster(2).with_sym_heap_bytes(HEAP_BYTES))
}

#[test]
fn a_runtime_with_large_heaps_commits_only_what_it_touches() {
    let before = vm_rss();
    let rt = runtime();
    let grown = vm_rss().saturating_sub(before);
    assert!(
        grown < 8 << 20,
        "building 2 locales x {} MiB of symmetric heap raised VmRSS by {} KiB",
        HEAP_BYTES >> 20,
        grown >> 10
    );
    assert_eq!(rt.locale(1).sym.len_bytes(), HEAP_BYTES);
}

#[test]
fn the_heap_reads_zero_and_works_at_its_last_offset() {
    let rt = runtime();
    let last = (HEAP_BYTES - 8) as u64;
    for l in 0..2 {
        let heap = &rt.locale(l).sym;
        assert_eq!(heap.apply64(0, SymOp64::Load), 0, "locale {l} first word");
        assert_eq!(heap.apply64(last, SymOp64::Load), 0, "locale {l} last word");
    }

    // Locale 0: word descriptors on the last word.
    let heap = &rt.locale(0).sym;
    assert_eq!(heap.apply64(last, SymOp64::FetchAdd(5)), 0);
    assert_eq!(
        heap.apply64(
            last,
            SymOp64::Cas {
                expected: 5,
                new: 9
            }
        ),
        5
    );
    assert_eq!(heap.apply64(last, SymOp64::Load), 9);

    // Locale 1: a double-word CAS on the last wide cell.
    let heap = &rt.locale(1).sym;
    let wide = (HEAP_BYTES - WIDE_CELL_BYTES) as u64;
    let v = (3u128 << 64) | 4;
    assert_eq!(heap.wide_dcas(wide, 0, v), (true, 0));
    assert_eq!(heap.wide_dcas(wide, 0, 1), (false, v));
    assert_eq!(heap.wide_load(wide), v);
    assert_eq!(heap.apply64(last, SymOp64::Load), 3, "the cell's high half");
}
