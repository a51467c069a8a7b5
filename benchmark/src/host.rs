//! What the benchmark reads from the host: process CPU time, peak resident
//! memory, load average, and the environment header of every summary.

use std::process::Command;

/// User and system CPU seconds of the whole process (every thread) so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct CpuTimes {
    pub user_s: f64,
    pub sys_s: f64,
}

impl std::ops::Sub for CpuTimes {
    type Output = CpuTimes;
    fn sub(self, rhs: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - rhs.user_s,
            sys_s: self.sys_s - rhs.sys_s,
        }
    }
}

impl std::ops::AddAssign for CpuTimes {
    fn add_assign(&mut self, rhs: CpuTimes) {
        self.user_s += rhs.user_s;
        self.sys_s += rhs.sys_s;
    }
}

/// `struct timeval` and `struct rusage` of 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    // From the C library every Rust program on Linux already links.
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Pin glibc's mmap threshold at its initial value. Left alone, every large
/// block freed raises it (and the trim threshold with it), so where the next
/// large block comes from, and how much freed memory stays resident, depends
/// on the order in which threads freed their buffers: `peak_rss_mb` of
/// `proc-mix` read anything from 10 to 15 MiB. Setting the threshold, to any
/// value, turns the adjustment off. Returns whether the allocator took it (a
/// C library without `mallopt` parameters ignores the call).
pub fn fix_malloc_thresholds() -> bool {
    const M_MMAP_THRESHOLD: i32 = -3;
    const DEFAULT_MMAP_THRESHOLD: i32 = 128 * 1024;
    // SAFETY: `mallopt` takes two integers and only sets allocator parameters.
    unsafe { mallopt(M_MMAP_THRESHOLD, DEFAULT_MMAP_THRESHOLD) == 1 }
}

/// To the microsecond: a round spends a few hundredths of a second of CPU,
/// and the ticks of `/proc/self/stat` are a hundredth each.
pub fn cpu_times() -> CpuTimes {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a live, writable `struct rusage` for the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF)");
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    CpuTimes {
        user_s: secs(&ru.utime),
        sys_s: secs(&ru.stime),
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_ascii_whitespace().next())
        .and_then(|v| v.parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// One-minute load average.
pub fn loadavg() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_ascii_whitespace().next()?.parse().ok())
        .unwrap_or(0.0)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what the numbers were taken.
#[derive(Debug, Clone)]
pub struct Env {
    pub git_sha: String,
    pub nproc: usize,
    pub rustc: String,
    pub kernel: String,
    pub loadavg_start: f64,
}

impl Env {
    pub fn capture() -> Env {
        Env {
            git_sha: command_line("git", &["rev-parse", "HEAD"]),
            nproc: nproc(),
            rustc: command_line("rustc", &["--version"]),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
            loadavg_start: loadavg(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"git_sha\": {}, \"nproc\": {}, \"rustc\": {}, \"kernel\": {}, \"loadavg_start\": {}}}",
            crate::json::quote(&self.git_sha),
            self.nproc,
            crate::json::quote(&self.rustc),
            crate::json::quote(&self.kernel),
            crate::json::number(self.loadavg_start)
        )
    }

    /// The header line.
    pub fn describe(&self) -> String {
        format!(
            "env: git {}  nproc {}  {}  kernel {}  loadavg(1m) {:.2}",
            self.git_sha, self.nproc, self.rustc, self.kernel, self.loadavg_start
        )
    }

    /// A loud warning when the box was busy before the benchmark started: the
    /// AM-bound workloads' throughput moved 20 % between a quiet and a busy
    /// period on the same code. Only meaningful before the first workload —
    /// afterwards the load is the benchmark's own.
    pub fn busy_warning(&self) -> Option<String> {
        (self.loadavg_start > 0.5 * self.nproc as f64).then(|| {
            format!(
                "!!! WARNING: load average {:.2} exceeds half of {} cores — the box is busy, \
                 throughput numbers of this run are not comparable !!!",
                self.loadavg_start, self.nproc
            )
        })
    }
}
