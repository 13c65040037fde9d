//! Host-noise context read from `/proc`: CPU steal share over the run,
//! load average and peak resident set size. None of it feeds a result;
//! it lets a noisy run be diagnosed rather than only discarded.

use std::fs;

/// Aggregate CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy)]
pub struct CpuTimes {
    total: u64,
    steal: u64,
}

impl CpuTimes {
    /// Reads the `cpu` line: user nice system idle iowait irq softirq
    /// steal. `None` where the kernel interface is absent.
    pub fn read() -> Option<CpuTimes> {
        let stat = fs::read_to_string("/proc/stat").ok()?;
        let fields: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .take(8)
            .map(|f| f.parse().ok())
            .collect::<Option<_>>()?;
        if fields.len() < 8 {
            return None;
        }
        Some(CpuTimes {
            total: fields.iter().sum(),
            steal: fields[7],
        })
    }

    /// Share of all CPU time between `self` and `later` that the
    /// hypervisor stole from this guest.
    pub fn steal_share_until(&self, later: &CpuTimes) -> Option<f64> {
        let total = later.total.checked_sub(self.total)?;
        let steal = later.steal.checked_sub(self.steal)?;
        (total > 0).then(|| steal as f64 / total as f64)
    }
}

/// The 1-, 5- and 15-minute load averages.
pub fn loadavg() -> Option<[f64; 3]> {
    let text = fs::read_to_string("/proc/loadavg").ok()?;
    let mut it = text.split_whitespace().map(|f| f.parse().ok());
    Some([it.next()??, it.next()??, it.next()??])
}
