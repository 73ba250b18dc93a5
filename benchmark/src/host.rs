//! The host side of a result: single-CPU pinning, the host fingerprint
//! printed beside every result, and the process's peak resident memory.
//!
//! Why pin: on a 2-core shared host the smoke figure set took 4.3–12.1 s
//! unpinned at `--jobs 1` (1.4–3.9 s at `--jobs 2`) but 2.7–3.1 s in one
//! batch when pinned. A simulated-process handoff cost 19–33 µs unpinned
//! and ~7.2 µs pinned, so only pinned runs measure the program rather than
//! the scheduler's placement of the kernel and process threads.

use std::fmt::Write as _;

/// Size of the CPU mask passed to the kernel: 1024 CPUs, as glibc's
/// `cpu_set_t`.
const MASK_BYTES: usize = 128;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
}

fn affinity() -> Result<Vec<usize>, String> {
    let mut mask = [0u8; MASK_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly `MASK_BYTES` bytes,
    // the size passed; pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, MASK_BYTES, mask.as_mut_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok((0..MASK_BYTES * 8)
        .filter(|cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
        .collect())
}

/// Confine the calling thread to the last CPU it may run on, before any
/// other thread exists, so every thread the program spawns inherits the
/// single-CPU mask. Returns `(allowed before, pinned CPU)`.
pub fn pin_to_one_cpu() -> Result<(Vec<usize>, usize), String> {
    let allowed = affinity()?;
    let cpu = *allowed.last().ok_or("empty CPU affinity mask")?;
    let mut mask = [0u8; MASK_BYTES];
    mask[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `mask` is a readable buffer of exactly `MASK_BYTES` bytes,
    // the size passed; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, MASK_BYTES, mask.as_ptr()) };
    if rc != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let now = affinity()?;
    if now != [cpu] {
        return Err(format!("pinning to CPU {cpu} left the mask at {now:?}"));
    }
    Ok((allowed, cpu))
}

/// One-line JSON fingerprint of the host a result was measured on:
/// `nproc` counts the CPUs the process was allowed before pinning.
pub fn fingerprint(allowed: &[usize], pinned: usize) -> String {
    let nproc = allowed.len();
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, v)| v.trim());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    let mut list = String::new();
    for (i, cpu) in allowed.iter().enumerate() {
        let _ = write!(list, "{}{cpu}", if i == 0 { "" } else { "," });
    }
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"cpu_model\": \"{}\", \"kernel\": \"{}\", \
         \"allowed_cpus\": [{list}], \"pinned_cpu\": {pinned}}}}}",
        model.replace(['"', '\\'], "?"),
        kernel.trim().replace(['"', '\\'], "?"),
    )
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
