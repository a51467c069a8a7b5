//! Distributed histogram with communication aggregation — the classic
//! update-heavy PGAS workload (the HISTO pattern the Chapel Aggregation
//! Library, by the paper's second author, was built for).
//!
//! Run with: `cargo run --release --example histogram`
//!
//! The histogram bins live in a block-distributed array; every locale
//! generates random keys and increments remote bins. Two strategies are
//! compared: one remote atomic per update vs aggregating updates per
//! destination and shipping bulk batches — the same idea as the
//! `EpochManager`'s scatter list, applied to writes. Also demonstrates
//! `DistArray`, `Batcher`, the `on_each_locale` fan-out, and the
//! `DistBarrier`.

use std::sync::atomic::{AtomicU64, Ordering};

use pgas_nonblocking::prelude::*;
use pgas_nonblocking::sim::array::{Dist, DistArray};
use pgas_nonblocking::sim::barrier::DistBarrier;
use pgas_nonblocking::sim::vtime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() {
    let locales = 4;
    let bins = 1 << 12;
    let updates_per_locale = 20_000usize;
    let rt = Runtime::cluster(locales);

    rt.run(|| {
        // Block-distributed bins: locale l owns a contiguous quarter.
        let histo: DistArray<AtomicU64> =
            DistArray::new(&rt, bins, Dist::Block, |_| AtomicU64::new(0));
        let barrier = DistBarrier::new_on(0, locales);

        // --- Strategy 1: one (possibly remote) atomic per update -------
        let t0 = vtime::now();
        rt.coforall_locales(|l| {
            let mut rng = StdRng::seed_from_u64(1000 + l as u64);
            for _ in 0..updates_per_locale {
                let bin = rng.gen_range(0..bins);
                // A remote atomic increment: RDMA fetch-add through the
                // NIC (or an active message without network atomics).
                let owner = histo.affinity(bin);
                pgas_nonblocking::sim::engine::put(&current_runtime(), owner, 8);
                histo.local_segment(owner)[bin_offset(&histo, bin)].fetch_add(1, Ordering::Relaxed);
            }
            barrier.wait();
        });
        let naive_vtime = vtime::now() - t0;
        let total: u64 = (0..locales as LocaleId)
            .flat_map(|l| histo.local_segment(l))
            .map(|a| a.swap(0, Ordering::Relaxed))
            .sum();
        assert_eq!(total, (locales * updates_per_locale) as u64);
        let naive_comm = rt.total_comm();
        rt.reset_metrics();

        // --- Strategy 2: aggregated updates -----------------------------
        let t0 = vtime::now();
        rt.coforall_locales(|l| {
            let mut rng = StdRng::seed_from_u64(1000 + l as u64);
            let mut agg = Batcher::new(&rt, 512, |dest, batch: Vec<usize>| {
                // Runs ON the destination: all increments are local.
                for bin in batch {
                    histo.local_segment(dest)[bin_offset(&histo, bin)]
                        .fetch_add(1, Ordering::Relaxed);
                }
            });
            for _ in 0..updates_per_locale {
                let bin = rng.gen_range(0..bins);
                agg.aggregate(histo.affinity(bin), bin);
            }
            agg.flush();
            barrier.wait();
        });
        let agg_vtime = vtime::now() - t0;
        let total: u64 = rt
            .on_each_locale(|l| {
                histo
                    .local_segment(l)
                    .iter()
                    .map(|a| a.load(Ordering::Relaxed))
                    .sum::<u64>()
            })
            .into_iter()
            .sum();
        assert_eq!(total, (locales * updates_per_locale) as u64);
        let agg_comm = rt.total_comm();

        println!("{} updates into {bins} block-distributed bins:", total);
        println!(
            "  per-update remote writes : {:>9.3} ms simulated, {} PUTs",
            naive_vtime as f64 / 1e6,
            naive_comm.puts
        );
        println!(
            "  aggregated (cap=512)     : {:>9.3} ms simulated, {} AMs",
            agg_vtime as f64 / 1e6,
            agg_comm.am_sent
        );
        println!(
            "  aggregation speedup      : {:.1}x",
            naive_vtime as f64 / agg_vtime as f64
        );
        assert!(agg_vtime < naive_vtime, "aggregation must win");
        println!("histogram OK");
    });
}

/// Offset of a global bin index inside its owner's block segment.
fn bin_offset(histo: &DistArray<AtomicU64>, bin: usize) -> usize {
    let locales = pgas_nonblocking::sim::current_runtime().num_locales();
    let chunk = histo.len().div_ceil(locales);
    bin - histo.affinity(bin) as usize * chunk
}
