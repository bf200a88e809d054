//! Out-of-process resource metering through `/proc`.
//!
//! CPU time comes from each task's `schedstat` (nanoseconds on CPU),
//! summed over the process's live threads, so a window bracketed while
//! every thread is alive gets nanosecond resolution. There is no
//! fallback: `stat`'s utime+stime ticks have 10 ms resolution and would
//! change the metric's precision mid-run, so an unreadable `schedstat`
//! fails the run. Peak resident memory is `VmHWM` from `status`. Host-wide CPU steal comes from the first
//! line of `/proc/stat`.

use std::fs;
use std::io;

/// CPU time of process `pid` so far, nanoseconds: the sum of its live
/// threads' `schedstat` run times.
///
/// # Errors
///
/// I/O errors reading `/proc` (e.g. the process is gone), or an
/// unparsable `schedstat`.
pub fn cpu_ns(pid: u32) -> io::Result<u64> {
    let mut total = 0;
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        let path = task?.path().join("schedstat");
        // A thread may exit between listing and reading.
        let Ok(text) = fs::read_to_string(path) else {
            continue;
        };
        total += text
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .ok_or_else(|| bad("schedstat"))?;
    }
    Ok(total)
}

/// Peak resident set (`VmHWM`) of process `pid`, KiB.
///
/// # Errors
///
/// I/O errors reading `/proc`, or a status file without `VmHWM`.
pub fn vm_hwm_kib(pid: u32) -> io::Result<u64> {
    let text = fs::read_to_string(format!("/proc/{pid}/status"))?;
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| bad("status VmHWM"))
}

/// Direct children of this process, from every thread's `children`
/// list.
///
/// # Errors
///
/// I/O errors listing `/proc/self/task`.
pub fn children() -> io::Result<Vec<u32>> {
    let mut pids = Vec::new();
    for task in fs::read_dir("/proc/self/task")? {
        let Ok(text) = fs::read_to_string(task?.path().join("children")) else {
            continue;
        };
        pids.extend(
            text.split_whitespace()
                .filter_map(|p| p.parse::<u32>().ok()),
        );
    }
    pids.sort_unstable();
    pids.dedup();
    Ok(pids)
}

/// Host-wide CPU time split, in `/proc/stat` ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostCpu {
    /// Sum of every field of the aggregate `cpu` line.
    pub total: u64,
    /// The `steal` field: time the hypervisor gave another guest.
    pub steal: u64,
}

impl HostCpu {
    /// Reads the aggregate `cpu` line of `/proc/stat`.
    ///
    /// # Errors
    ///
    /// I/O errors or an unparsable line.
    pub fn read() -> io::Result<HostCpu> {
        let text = fs::read_to_string("/proc/stat")?;
        parse_host_cpu(&text).ok_or_else(|| bad("/proc/stat"))
    }

    /// Share of host CPU time stolen between `earlier` and `self`.
    pub fn steal_share_since(&self, earlier: &HostCpu) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            0.0
        } else {
            self.steal.saturating_sub(earlier.steal) as f64 / total as f64
        }
    }
}

/// Parses the aggregate `cpu` line: `user nice system idle iowait irq
/// softirq steal guest guest_nice`. Guest time is already counted in
/// user, so only the first eight fields make up the total.
fn parse_host_cpu(text: &str) -> Option<HostCpu> {
    let line = text.lines().find(|l| l.starts_with("cpu "))?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|v| v.parse().ok())
        .collect::<Option<_>>()?;
    let steal = *fields.get(7)?;
    Some(HostCpu {
        total: fields.iter().take(8).sum(),
        steal,
    })
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("unparsable {what}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_cpu_line_parses_steal() {
        let text = "cpu  100 0 50 800 10 0 5 35 7 0\ncpu0 1 2 3\n";
        let cpu = parse_host_cpu(text).expect("parses");
        assert_eq!(
            cpu,
            HostCpu {
                total: 1000,
                steal: 35
            }
        );
        let later = HostCpu {
            total: 2000,
            steal: 135,
        };
        assert!((later.steal_share_since(&cpu) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn own_process_is_metered() {
        let me = std::process::id();
        assert!(cpu_ns(me).expect("cpu") > 0);
        assert!(vm_hwm_kib(me).expect("hwm") > 0);
        assert!(children().is_ok());
    }
}
