//! Hot-swappable shared state with `OwnedAtomic` — the paper's
//! "atomics on owned and borrowed types" future-work item, in action.
//!
//! Run with: `cargo run --release --example live_config`
//!
//! A configuration object is read continuously by worker tasks on every
//! locale while an updater task replaces it. Readers borrow the config
//! through a `PinGuard` from `tok.pin_guard(0)` (never blocking, never
//! cloning), the same guard every structure operation and every
//! `OwnedAtomic` write pins through, so a reader that panics is unpinned
//! on the way out; superseded configs are retired through the
//! `EpochManager` and dropped only when no reader can still hold them — a
//! non-blocking, distributed `RwLock<Config>` replacement.

use std::sync::atomic::{AtomicU64, Ordering};

use pgas_nonblocking::epoch::OwnedAtomic;
use pgas_nonblocking::prelude::*;

#[derive(Debug)]
struct Config {
    version: u64,
    rate_limit: u64,
    feature_flags: Vec<&'static str>,
}

fn main() {
    let locales = 4;
    let rt = Runtime::cluster(locales);

    rt.run(|| {
        let em = EpochManager::new();
        let config = OwnedAtomic::new(Config {
            version: 0,
            rate_limit: 100,
            feature_flags: vec!["baseline"],
        });

        let reads = AtomicU64::new(0);
        let updates = 50u64;

        rt.coforall_locales(|l| {
            let tok = em.register();
            if l == 0 {
                // The updater: publish new versions, reclaiming as it goes.
                for v in 1..=updates {
                    config.store(
                        &tok,
                        Config {
                            version: v,
                            rate_limit: 100 + v,
                            feature_flags: vec!["baseline", "shiny"],
                        },
                    );
                    if v % 8 == 0 {
                        em.try_reclaim();
                    }
                }
            } else {
                // Readers: borrow without cloning; versions move forward.
                let mut last_seen = 0;
                for _ in 0..500 {
                    let guard = tok.pin_guard(0);
                    let cfg = config.load(&guard).expect("config always present");
                    assert!(
                        cfg.version >= last_seen,
                        "versions never go backwards: {} < {last_seen}",
                        cfg.version
                    );
                    assert_eq!(cfg.rate_limit, 100 + cfg.version);
                    assert!(!cfg.feature_flags.is_empty());
                    last_seen = cfg.version;
                    reads.fetch_add(1, Ordering::Relaxed);
                } // guard drops → unpinned
            }
        });

        {
            let tok = em.register();
            let final_cfg = tok.pin_guard(0);
            println!(
                "final config: {:?}",
                config.load(&final_cfg).expect("present")
            );
        }
        println!(
            "{} borrow-reads across {} locales raced {} hot swaps; \
             every borrow stayed valid",
            reads.load(Ordering::Relaxed),
            locales - 1,
            updates
        );

        {
            let tok = em.register();
            config.clear(&tok);
        }
        em.clear();
        println!("epoch stats: {}", em.stats());
        assert_eq!(rt.live_objects(), 0, "all superseded configs reclaimed");
        println!("live_config OK");
    });
}
