//! Thread placement: which core each thread of a run may use.
//!
//! Every remote operation of the library is a hand-off between two threads
//! (a driver and the target locale's progress or handler thread), and on a
//! two-core virtual machine the cost of a hand-off depends on where the
//! scheduler happened to put the two: on one core it is a context switch
//! (about 5 us per round trip), across cores it is an inter-processor
//! interrupt through the hypervisor (about 50 us). Left floating, the
//! threads migrate, and whole rounds flip between the two regimes — round
//! throughput of `map-read` moved between 50k and 290k ops/s inside one run,
//! and no statistic of such a run repeats.
//!
//! So the benchmark fixes the layout: driver `l` runs on core `l`, and the
//! threads that *serve* locale `l` (its progress thread, or its
//! `ProcEngine` acceptor, readers and handler) run on core `1 - l`, the core
//! of the only driver that calls them. Each core then runs one closed loop
//! — driver, service thread, driver — and the two loops meet only in shared
//! memory. The main thread, which sets up and tears down as a task on
//! locale 0, stays on core 0.
//!
//! **Scheduling class.** With two threads ping-ponging on a core, the default
//! scheduler's wake-up preemption heuristics still settle into regimes that
//! last seconds (`queue-mailbox` rounds sat at 140k or at 190k ops/s, run
//! medians spread 26 %). Under `SCHED_FIFO` at one priority a woken thread
//! never preempts the running one, which runs until it blocks: one regime,
//! half the CPU per operation, and run medians within a few percent. The main
//! thread asks for it before any other thread exists, so every thread
//! inherits it. It needs `CAP_SYS_NICE`; without it the run goes on under the
//! default class and says so loudly. The kernel throttles real-time threads
//! that use more than 95 % of a second, with a 50 ms stall; [`breathe`] keeps
//! every thread of the run under that by sleeping 8 % of each stretch of
//! work, outside everything that is timed.
//!
//! Affinity is inherited at thread creation, which places everything a
//! pinned thread spawns. The simulator's progress threads are all spawned by
//! one call, so they are found afterwards by the thread name the library
//! gives them (`pgas-progress-<locale>`) and moved one by one.

use std::sync::OnceLock;

use crate::harness::LOCALES;

extern "C" {
    // From the C library every Rust program on Linux already links.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// `SCHED_FIFO` from `<sched.h>`.
const SCHED_FIFO: i32 = 1;

/// Whether [`init`] obtained `SCHED_FIFO`.
static FIFO: OnceLock<bool> = OnceLock::new();

/// Sleep 8 % of the time since `since`, so a run of real-time threads stays
/// under the kernel's 95 % throttle (see the module docs). Called between
/// timed stretches, never inside one. Does nothing under the default class.
pub fn breathe(since: std::time::Instant) {
    if FIFO.get().copied().unwrap_or(false) {
        std::thread::sleep(since.elapsed().mul_f64(0.08));
    }
}

/// The two CPUs in use, or `None` when the process may not use two (then
/// nothing is pinned and the numbers are as noisy as the scheduler).
static CPUS: OnceLock<Option<[usize; LOCALES]>> = OnceLock::new();

/// CPUs this process may run on, from `Cpus_allowed_list` (e.g. `0-1,4`).
fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .unwrap_or("")
        .trim();
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (lo, hi) = part.split_once('-').unwrap_or((part, part));
        if let (Ok(lo), Ok(hi)) = (lo.parse::<usize>(), hi.parse::<usize>()) {
            cpus.extend(lo..=hi);
        }
    }
    cpus
}

/// Pin thread `tid` (0 is the calling thread) to `cpu`.
fn pin(tid: i32, cpu: usize) -> bool {
    if cpu >= 64 {
        return false;
    }
    let mask: u64 = 1 << cpu;
    // SAFETY: `mask` is a live 8-byte CPU set for the duration of the call,
    // and its size is passed with it.
    unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) == 0 }
}

/// Choose the two cores and put the calling (main) thread on the first.
/// Returns a line describing the layout, for the run's header.
pub fn init() -> String {
    let allowed = allowed_cpus();
    let cpus = (allowed.len() >= LOCALES).then(|| [allowed[0], allowed[1]]);
    let cpus = *CPUS.get_or_init(|| cpus.filter(|c| pin(0, c[0])));
    let priority: i32 = 1;
    // SAFETY: `priority` is a live `struct sched_param` (one int) for the call.
    let fifo = *FIFO.get_or_init(|| unsafe { sched_setscheduler(0, SCHED_FIFO, &priority) == 0 });
    let mut line = match cpus {
        Some(c) => format!(
            "placement: driver 0 and locale 1's service threads on cpu {}, driver 1 and locale 0's on cpu {}",
            c[0], c[1]
        ),
        None => "!!! WARNING: fewer than two usable CPUs — threads float, numbers are not comparable !!!".into(),
    };
    line.push_str(if fifo {
        "; every thread SCHED_FIFO"
    } else {
        "\n!!! WARNING: SCHED_FIFO refused (no CAP_SYS_NICE) — default scheduling class, numbers are noisier and not comparable with FIFO runs !!!"
    });
    line
}

fn cpu_of_driver(l: usize) -> Option<usize> {
    CPUS.get().copied().flatten().map(|c| c[l])
}

/// Put the calling thread where driver `l` runs.
pub fn pin_driver(l: usize) {
    if let Some(cpu) = cpu_of_driver(l) {
        pin(0, cpu);
    }
}

/// Run `f` on a thread placed where the threads serving locale `l` belong;
/// whatever `f` spawns stays there.
pub fn as_service_of<R: Send>(l: usize, f: impl FnOnce() -> R + Send) -> R {
    std::thread::scope(|s| {
        s.spawn(|| {
            pin_driver(1 - l);
            f()
        })
        .join()
        .unwrap_or_else(|p| std::panic::resume_unwind(p))
    })
}

/// Move the simulator's progress threads of this process to their cores.
/// A thread names itself once it runs, and until moved the new threads share
/// the caller's core, so this sleeps between looks. Warns when it does not
/// find one per locale: then the library renamed its threads, and the layout
/// above no longer holds.
pub fn place_progress_threads() {
    if cpu_of_driver(0).is_none() {
        return;
    }
    let mut placed = std::collections::BTreeSet::new();
    for _ in 0..200 {
        for entry in std::fs::read_dir("/proc/self/task")
            .into_iter()
            .flatten()
            .flatten()
        {
            let comm = std::fs::read_to_string(entry.path().join("comm")).unwrap_or_default();
            let tid = entry
                .file_name()
                .to_str()
                .and_then(|s| s.parse::<i32>().ok());
            // The kernel keeps 15 bytes of the name: "pgas-progress-0" of
            // "pgas-progress-0.0".
            let locale = comm
                .trim()
                .strip_prefix("pgas-progress-")
                .and_then(|rest| rest.split('.').next()?.parse::<usize>().ok());
            if let (Some(tid), Some(l)) = (tid, locale.filter(|&l| l < LOCALES)) {
                if pin(tid, cpu_of_driver(1 - l).expect("checked above")) {
                    placed.insert(tid);
                }
            }
        }
        if placed.len() == LOCALES {
            return;
        }
        std::thread::sleep(std::time::Duration::from_micros(100));
    }
    eprintln!(
        "!!! WARNING: placed {} progress threads, expected {LOCALES} — thread placement is off, numbers are not comparable !!!",
        placed.len()
    );
}
