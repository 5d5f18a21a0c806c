//! The host fingerprint printed with every result, and the process's
//! memory high-water mark.

use std::fs;

/// A `VmHWM:`/`VmRSS:` style line of `/proc/self/status`, in bytes.
fn status_kib(field: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .split_whitespace()
        .next()?
        .parse::<u64>()
        .ok()
        .map(|kib| kib * 1024)
}

/// Peak resident set of this process (VmHWM), in bytes; 0 when unknown.
pub fn peak_rss_bytes() -> u64 {
    status_kib("VmHWM:").unwrap_or(0)
}

/// Current resident set (VmRSS), in bytes; 0 when unknown.
pub fn rss_bytes() -> u64 {
    status_kib("VmRSS:").unwrap_or(0)
}

/// `nproc`, the CPU model, the compiler and the build profile.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "nproc={nproc} cpu=\"{cpu}\" rustc=\"{}\" profile={}",
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_PROFILE")
    )
}
