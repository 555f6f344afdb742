//! Process-level measurements: CPU time, peak resident set, and the
//! provenance of a result (host parallelism and CPU model).

use std::os::raw::{c_int, c_long};

#[repr(C)]
struct Timeval {
    sec: c_long,
    usec: c_long,
}

/// `struct rusage` as Linux lays it out: two timevals, then fourteen
/// `long` counters, none of which is read here.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    counters: [c_long; 14],
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

fn rusage() -> Rusage {
    let mut r = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        counters: [0; 14],
    };
    // SAFETY: `r` is a live, writable `struct rusage` with the C layout
    // (`#[repr(C)]`, the Linux field order), and RUSAGE_SELF is a valid
    // `who`; getrusage writes only within that struct.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut r) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    r
}

/// User + system CPU seconds consumed so far by every thread of this
/// process, including threads that already exited.
pub fn cpu_seconds() -> f64 {
    let r = rusage();
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    secs(&r.utime) + secs(&r.stime)
}

/// Peak resident set of this process image so far, in MB (2^20
/// bytes): `VmHWM` of `/proc/self/status`. Unlike `ru_maxrss`, it is
/// not inherited from the parent process across `exec`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM line in /proc/self/status");
    kb / 1024.0
}

/// `std::thread::available_parallelism`, floored at 1.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The CPU model line of `/proc/cpuinfo`, or `"unknown"`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}
