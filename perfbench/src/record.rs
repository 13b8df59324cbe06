//! The run record printed with every result: what machine the numbers came
//! from and whether the run had the CPUs it asked for.

use std::fs;

/// Aggregate steal ticks (the `steal` column of the `cpu` line of
/// `/proc/stat`): time the hypervisor ran someone else on this guest's CPUs.
pub fn steal_ticks() -> Option<u64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    line.split_whitespace().nth(8)?.parse().ok()
}

/// The CPU model string of the first processor.
pub fn cpu_model() -> String {
    fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Size of CPU 0's cache at sysfs `index` (2 = L2, 3 = L3 on x86).
pub fn cache_size(index: usize) -> String {
    fs::read_to_string(format!("/sys/devices/system/cpu/cpu0/cache/index{index}/size"))
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string())
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn rss_peak_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `(thread id, allowed CPU list)` for every thread of this process.
pub fn thread_affinities() -> Vec<(u32, String)> {
    let Ok(dir) = fs::read_dir("/proc/self/task") else { return Vec::new() };
    let mut out: Vec<(u32, String)> = dir
        .flatten()
        .filter_map(|e| {
            let tid = e.file_name().to_str()?.parse().ok()?;
            let status = fs::read_to_string(e.path().join("status")).ok()?;
            let cpus = status
                .lines()
                .find(|l| l.starts_with("Cpus_allowed_list:"))?
                .split(':')
                .nth(1)?
                .trim()
                .to_string();
            Some((tid, cpus))
        })
        .collect();
    out.sort();
    out
}

/// Whether some thread that did not exist in `before` is pinned to exactly
/// `cpu` — how the benchmark learns that the server's reader thread took
/// its CPU pin, which the server does not report.
pub fn new_thread_pinned_to(before: &[(u32, String)], cpu: usize) -> bool {
    let want = cpu.to_string();
    thread_affinities()
        .iter()
        .any(|(tid, cpus)| *cpus == want && !before.iter().any(|(t, _)| t == tid))
}
