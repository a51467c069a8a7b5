//! Distributed arrays — the `dmapped Cyclic`/`Block` arrays the paper's
//! microbenchmarks allocate their objects in (Listing 5:
//! `var objsDom = {0..#numObjects} dmapped Cyclic(startIdx=0)`).
//!
//! A [`DistArray`] owns one contiguous segment per locale; an index maps
//! to `(owning locale, offset)` according to the distribution. Local
//! element access is a plain reference; remote access goes through
//! GET/PUT with the usual charging. `forall`-style iteration with
//! locality (each element visited by a task on its owning locale) is
//! provided by [`DistArray::forall`].

use crate::ctx;
use crate::engine;
use crate::globalptr::LocaleId;
use crate::runtime::RuntimeCore;

/// How indices map to locales.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dist {
    /// Index `i` lives on locale `i % L` (Chapel's `Cyclic(startIdx=0)`).
    Cyclic,
    /// Indices are split into `L` contiguous blocks (Chapel's `Block`);
    /// locale `l` owns `[l*ceil(n/L), min((l+1)*ceil(n/L), n))`.
    Block,
}

/// A distributed array of `T` with one segment per locale.
///
/// The segments are plain `Box<[T]>`s owned by this struct; "ownership by
/// a locale" is the affinity metadata used for routing, exactly like the
/// rest of the simulator's memory model.
pub struct DistArray<T> {
    segments: Box<[Box<[T]>]>,
    len: usize,
    dist: Dist,
}

impl<T: Send + Sync> DistArray<T> {
    /// Build an array of `len` elements with the given distribution;
    /// `init(i)` is evaluated *on the owning locale* of index `i`.
    pub fn new(core: &RuntimeCore, len: usize, dist: Dist, init: impl Fn(usize) -> T + Sync) -> Self
    where
        T: Send,
    {
        let locales = core.num_locales();
        let mut segments: Vec<Box<[T]>> = Vec::with_capacity(locales);
        for l in 0..locales as LocaleId {
            let seg = core.on(l, || {
                let indices = Self::owned_indices(len, dist, locales, l);
                indices.map(&init).collect::<Box<[T]>>()
            });
            segments.push(seg);
        }
        DistArray {
            segments: segments.into_boxed_slice(),
            len,
            dist,
        }
    }

    fn owned_indices(
        len: usize,
        dist: Dist,
        locales: usize,
        l: LocaleId,
    ) -> Box<dyn Iterator<Item = usize> + Send> {
        match dist {
            Dist::Cyclic => Box::new((l as usize..len).step_by(locales)),
            Dist::Block => {
                let chunk = len.div_ceil(locales);
                let start = (l as usize * chunk).min(len);
                let end = ((l as usize + 1) * chunk).min(len);
                Box::new(start..end)
            }
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the array has no elements.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The distribution in use.
    pub fn dist(&self) -> Dist {
        self.dist
    }

    /// The locale that owns index `i`.
    pub fn affinity(&self, i: usize) -> LocaleId {
        assert!(i < self.len, "index {i} out of bounds (len {})", self.len);
        let locales = self.segments.len();
        match self.dist {
            Dist::Cyclic => (i % locales) as LocaleId,
            Dist::Block => {
                let chunk = self.len.div_ceil(locales);
                (i / chunk) as LocaleId
            }
        }
    }

    fn locate(&self, i: usize) -> (LocaleId, usize) {
        let locales = self.segments.len();
        let owner = self.affinity(i);
        let offset = match self.dist {
            Dist::Cyclic => i / locales,
            Dist::Block => i - owner as usize * self.len.div_ceil(locales),
        };
        (owner, offset)
    }

    /// Read element `i`, charging a GET when it is remote.
    pub fn get(&self, i: usize) -> T
    where
        T: Copy,
    {
        let (owner, offset) = self.locate(i);
        ctx::with_core(|core, _| {
            engine::get(core, owner, std::mem::size_of::<T>());
        });
        self.segments[owner as usize][offset]
    }

    /// The slice owned by one locale.
    pub fn local_segment(&self, locale: LocaleId) -> &[T] {
        &self.segments[locale as usize]
    }

    /// `forall x in A`: visit every element with a task on its owning
    /// locale, `tasks` tasks per locale. The body receives
    /// `(global index, &element)`. Virtual time and `am_sent` are charged
    /// as for the children of [`RuntimeCore::coforall_locales`].
    pub fn forall<F>(&self, core: &RuntimeCore, tasks: usize, body: F)
    where
        F: Fn(usize, &T) + Send + Sync,
    {
        let locales = self.segments.len();
        let body = &body;
        core.spawn_join((0..locales as LocaleId).flat_map(|l| {
            (0..tasks).map(move |t| {
                (l, move || {
                    let seg = self.local_segment(l);
                    for j in (t..seg.len()).step_by(tasks) {
                        let global = match self.dist {
                            Dist::Cyclic => l as usize + j * locales,
                            Dist::Block => l as usize * self.len.div_ceil(locales) + j,
                        };
                        body(global, &seg[j]);
                    }
                })
            })
        }));
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for DistArray<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistArray")
            .field("len", &self.len)
            .field("dist", &self.dist)
            .field("locales", &self.segments.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::runtime::Runtime;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn cyclic_affinity_matches_modulo() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(3));
        rt.run(|| {
            let a = DistArray::new(&rt, 10, Dist::Cyclic, |i| i as u64);
            for i in 0..10 {
                assert_eq!(a.affinity(i) as usize, i % 3);
                assert_eq!(a.get(i), i as u64);
            }
        });
    }

    #[test]
    fn block_affinity_is_contiguous() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(3));
        rt.run(|| {
            let a = DistArray::new(&rt, 10, Dist::Block, |i| i as u64);
            // ceil(10/3) = 4: [0..4) on 0, [4..8) on 1, [8..10) on 2.
            let expect = [0, 0, 0, 0, 1, 1, 1, 1, 2, 2];
            for (i, &l) in expect.iter().enumerate() {
                assert_eq!(a.affinity(i), l, "index {i}");
                assert_eq!(a.get(i), i as u64);
            }
            assert_eq!(a.local_segment(0).len(), 4);
            assert_eq!(a.local_segment(2).len(), 2);
        });
    }

    #[test]
    fn init_runs_on_owner_locale() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(4));
        rt.run(|| {
            let a = DistArray::new(&rt, 16, Dist::Cyclic, |i| {
                assert_eq!(ctx::here() as usize, i % 4, "init on owner");
                ctx::here() as u64
            });
            for i in 0..16 {
                assert_eq!(a.get(i), (i % 4) as u64);
            }
        });
    }

    #[test]
    fn remote_get_charges_local_get_does_not() {
        let rt = Runtime::cluster(2);
        rt.run(|| {
            let a = DistArray::new(&rt, 4, Dist::Cyclic, |i| i as u32);
            rt.reset_metrics();
            let _ = a.get(0); // local to locale 0
            assert_eq!(rt.total_comm().gets, 0);
            let _ = a.get(1); // owned by locale 1
            assert_eq!(rt.total_comm().gets, 1);
        });
    }

    #[test]
    fn forall_visits_each_element_once_with_affinity() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(3));
        rt.run(|| {
            let n = 40;
            let a = DistArray::new(&rt, n, Dist::Cyclic, |i| i);
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            a.forall(&rt, 2, |i, &v| {
                assert_eq!(i, v);
                assert_eq!(ctx::here() as usize, i % 3);
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "index {i}");
            }
        });
    }

    #[test]
    fn forall_block_distribution() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(4));
        rt.run(|| {
            let n = 21;
            let a = DistArray::new(&rt, n, Dist::Block, |i| i);
            let count = AtomicUsize::new(0);
            a.forall(&rt, 3, |i, &v| {
                assert_eq!(i, v);
                assert_eq!(ctx::here(), a.affinity(i));
                count.fetch_add(1, Ordering::Relaxed);
            });
            assert_eq!(count.load(Ordering::Relaxed), n);
        });
    }

    #[test]
    fn empty_array_is_fine() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(2));
        rt.run(|| {
            let a: DistArray<u64> = DistArray::new(&rt, 0, Dist::Cyclic, |_| 0);
            assert!(a.is_empty());
            a.forall(&rt, 2, |_, _| unreachable!());
        });
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_get_panics() {
        let rt = Runtime::new(RuntimeConfig::zero_latency(2));
        rt.run(|| {
            let a = DistArray::new(&rt, 4, Dist::Cyclic, |i| i);
            let _ = a.get(4);
        });
    }
}
