//! Per-thread CPU time and peak memory from `/proc/self`, and the time
//! the host took from this machine's CPUs from `/proc/stat` (Linux).

use std::collections::BTreeMap;

/// One thread of this process.
#[derive(Clone, Debug)]
pub struct Task {
    pub tid: u32,
    pub name: String,
}

/// Every live thread, in tid order.
pub fn tasks() -> Vec<Task> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let mut out: Vec<Task> = dir
        .filter_map(|e| {
            let tid: u32 = e.ok()?.file_name().to_str()?.parse().ok()?;
            let name = std::fs::read_to_string(format!("/proc/self/task/{tid}/comm")).ok()?;
            Some(Task {
                tid,
                name: name.trim_end().to_string(),
            })
        })
        .collect();
    out.sort_by_key(|t| t.tid);
    out
}

/// The calling thread's tid.
pub fn current_tid() -> u32 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// CPU time `tid` has used, in ns: the scheduler's on-CPU time where the
/// kernel exports it, else user+system clock ticks (assumed 100 Hz).
pub fn cpu_ns(tid: u32) -> u64 {
    let base = format!("/proc/self/task/{tid}");
    if let Some(ns) = std::fs::read_to_string(format!("{base}/schedstat"))
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        .filter(|&ns| ns > 0)
    {
        return ns;
    }
    std::fs::read_to_string(format!("{base}/stat"))
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised name; utime and stime are the
            // 14th and 15th fields of the whole line.
            let rest = &s[s.rfind(')')? + 2..];
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<u64>().ok()? + f.get(12)?.parse::<u64>().ok()?) * 10_000_000)
        })
        .unwrap_or(0)
}

/// CPU time of every live thread, by tid.
pub fn cpu_by_tid() -> BTreeMap<u32, u64> {
    tasks()
        .into_iter()
        .map(|t| (t.tid, cpu_ns(t.tid)))
        .collect()
}

/// CPU used by `tids` between two [`cpu_by_tid`] readings.
pub fn cpu_delta(before: &BTreeMap<u32, u64>, after: &BTreeMap<u32, u64>, tids: &[u32]) -> u64 {
    tids.iter()
        .map(|t| {
            let a = after.get(t).copied().unwrap_or(0);
            a.saturating_sub(before.get(t).copied().unwrap_or(0))
        })
        .sum()
}

/// Peak resident set size of the process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `(steal, total)` clock ticks of all CPUs since boot. Steal is time the
/// host ran something else while this machine's CPUs had work.
pub fn steal_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?.strip_prefix("cpu ")?;
    let f: Vec<u64> = line
        .split_whitespace()
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // the guest times are already in user and nice.
    Some((*f.get(7)?, f.iter().take(8).sum()))
}

/// The steal share of the CPUs' time between two [`steal_ticks`] readings.
pub fn steal_share(before: Option<(u64, u64)>, after: Option<(u64, u64)>) -> Option<f64> {
    let ((s0, t0), (s1, t1)) = (before?, after?);
    (t1 > t0).then(|| (s1 - s0) as f64 / (t1 - t0) as f64)
}
