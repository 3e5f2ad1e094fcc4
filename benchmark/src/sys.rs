//! What the benchmark reads from the operating system: CPU clocks, peak
//! resident set, load average and the machine fingerprint.

use std::process::Command;
use std::sync::OnceLock;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit fields
    // on the 64-bit Linux targets this benchmark runs on), and both clock ids
    // are Linux UAPI constants; the call writes `ts` and nothing else.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time of the whole process (user + system, all threads), nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time of the calling thread, nanoseconds.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Pins the calling thread to one CPU (`cpu` modulo the CPUs there are);
/// threads it spawns afterwards inherit the pin. Where the scheduler puts two
/// busy threads, and when it moves them, was the largest single source of
/// run-to-run spread on a two-CPU host. Best effort: a host that refuses is
/// measured unpinned.
pub fn pin_to_cpu(cpu: usize) {
    let mask: u64 = 1 << (cpu % cores().min(64));
    // SAFETY: `mask` is a valid 8-byte CPU set for the length passed, pid 0
    // names the calling thread, and the call reads the mask and nothing else.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
}

/// `VmHWM` of this process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn loadavg_1m() -> f64 {
    std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().and_then(|v| v.parse().ok()))
        .unwrap_or(0.0)
}

/// CPUs this process may run on, as of the first call: `main` asks before any
/// thread is pinned, since a pinned thread would count only its own CPU.
pub fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    // A driver's checkout is not a git repository: git must not go looking
    // for one above it.
    let above_checkout = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
    let out = Command::new(program)
        .args(args)
        .env("GIT_CEILING_DIRECTORIES", above_checkout)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

/// One line that every output file starts with: where the numbers came from.
pub fn fingerprint() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let rustc = command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".into());
    // Outside a repository: say so instead of failing.
    let sha = command_line(
        "git",
        &[
            "-C",
            env!("CARGO_MANIFEST_DIR"),
            "rev-parse",
            "--short",
            "HEAD",
        ],
    )
    .unwrap_or_else(|| "no-git".into());
    format!(
        "cores={} cpu=\"{}\" kernel={} rustc=\"{}\" git={} loadavg_1m={}",
        cores(),
        cpu,
        kernel,
        rustc,
        sha,
        loadavg_1m()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        let mut x = 0u64;
        for i in 0..5_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        assert!(thread_cpu_ns() > t0 && process_cpu_ns() > p0);
        assert!(peak_rss_mib() > 0.0);
    }
}
