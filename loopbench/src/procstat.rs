//! Readers for the Linux `/proc` counters the benchmark reports: process
//! and per-thread CPU time, resident memory, and host-wide CPU shares.

use std::fs;

/// `USER_HZ`: the unit of the tick counters in `/proc/*/stat`. It is part
/// of the Linux user-space ABI and fixed at 100 on every architecture the
/// engine targets.
const TICKS_PER_SECOND: f64 = 100.0;

/// Fields of `/proc/<pid>/stat` after the parenthesised command name,
/// which may itself contain spaces.
fn stat_fields(text: &str) -> Vec<&str> {
    text.rsplit_once(')').map(|(_, rest)| rest.split_whitespace().collect()).unwrap_or_default()
}

/// CPU seconds (user + system) this process has used, across all of its
/// threads, live and exited.
pub fn process_cpu_s() -> f64 {
    let text = fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let f = stat_fields(&text);
    // utime and stime are fields 14 and 15; `f[0]` is field 3 (state).
    let tick = |i: usize| f.get(i).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    (tick(11) + tick(12)) as f64 / TICKS_PER_SECOND
}

/// CPU seconds the calling thread has spent on a CPU, in nanosecond
/// resolution (first field of `/proc/thread-self/schedstat`).
pub fn thread_cpu_s() -> f64 {
    let text = fs::read_to_string("/proc/thread-self/schedstat").unwrap_or_default();
    let ns = text.split_whitespace().next().and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    ns as f64 * 1e-9
}

/// The kernel id of the calling thread, from the `/proc/thread-self`
/// link (`<pid>/task/<tid>`).
pub fn thread_id() -> Option<u32> {
    let link = fs::read_link("/proc/thread-self").ok()?;
    link.file_name()?.to_str()?.parse().ok()
}

/// CPU seconds thread `tid` of this process has spent on a CPU.
pub fn task_cpu_s(tid: u32) -> f64 {
    let text = fs::read_to_string(format!("/proc/self/task/{tid}/schedstat")).unwrap_or_default();
    let ns = text.split_whitespace().next().and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
    ns as f64 * 1e-9
}

/// Resident set size of this process, in bytes.
pub fn rss_bytes() -> u64 {
    let text = fs::read_to_string("/proc/self/status").unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<u64>().ok())
        .map_or(0, |kb| kb * 1024)
}

/// One reading of the aggregate `cpu` line of `/proc/stat` plus this
/// process's own CPU time, so two readings give the share of host CPU
/// lost to steal and used by other processes over an interval.
#[derive(Debug, Clone, Copy)]
pub struct HostSample {
    total: u64,
    busy: u64,
    steal: u64,
    own_cpu_s: f64,
}

impl HostSample {
    /// Read `/proc/stat` and this process's CPU time now.
    pub fn now() -> Self {
        let text = fs::read_to_string("/proc/stat").unwrap_or_default();
        let v: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .map(|x| x.parse().unwrap_or(0))
            .collect();
        let at = |i: usize| v.get(i).copied().unwrap_or(0);
        // user nice system idle iowait irq softirq steal (guest time is
        // already included in user).
        let busy = at(0) + at(1) + at(2) + at(5) + at(6);
        let total = busy + at(3) + at(4) + at(7);
        HostSample { total, busy, steal: at(7), own_cpu_s: process_cpu_s() }
    }
}

/// Host CPU shares over an interval, in percent of all host CPU time.
#[derive(Debug, Clone, Copy, Default)]
pub struct HostShares {
    /// Time the hypervisor ran something else while a CPU wanted to run.
    pub steal_pct: f64,
    /// Busy CPU time spent outside this process.
    pub other_cpu_pct: f64,
}

/// Shares between two samples.
pub fn host_shares(before: &HostSample, after: &HostSample) -> HostShares {
    let total = after.total.saturating_sub(before.total) as f64;
    if total <= 0.0 {
        return HostShares::default();
    }
    let busy = after.busy.saturating_sub(before.busy) as f64;
    let own = (after.own_cpu_s - before.own_cpu_s) * TICKS_PER_SECOND;
    HostShares {
        steal_pct: 100.0 * after.steal.saturating_sub(before.steal) as f64 / total,
        other_cpu_pct: (100.0 * (busy - own) / total).max(0.0),
    }
}
