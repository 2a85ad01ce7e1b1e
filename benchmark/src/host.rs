//! What the host was doing while we measured: a record, not a filter.
//!
//! Everything here reads `/proc`. On a host without it the readers return
//! `None` and the record says so; no sample is ever dropped on their
//! account.

use std::fs;

/// `USER_HZ`: the unit of the CPU-time fields of `/proc/<pid>/stat`. Linux
/// fixes it at 100 for user space on every architecture this repo builds on.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// An iteration whose process CPU time is under this share of its wall
/// time was descheduled for the rest: it is marked `disturbed`.
pub const DISTURBED_BELOW: f64 = 0.9;

/// Peak resident set of this process so far (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb / 1024.0)
}

fn parse_vm_hwm_kb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// User + system CPU time this process has used, in seconds.
pub fn cpu_time_s() -> Option<f64> {
    let stat = fs::read_to_string("/proc/self/stat").ok()?;
    parse_cpu_ticks(&stat).map(|ticks| ticks / CLOCK_TICKS_PER_SEC)
}

fn parse_cpu_ticks(stat: &str) -> Option<f64> {
    // The command name (field 2) may hold spaces; fields are counted from
    // the parenthesis that closes it. utime and stime are fields 14 and 15.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next()?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// `/proc/loadavg`, verbatim.
pub fn loadavg() -> Option<String> {
    Some(fs::read_to_string("/proc/loadavg").ok()?.trim().to_owned())
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_status_and_stat_lines() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048.0));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        let stat = "4242 (a (weird) name) R 1 2 3 4 5 6 7 8 9 10 150 25 0 0 20 0 1 0";
        assert_eq!(parse_cpu_ticks(stat), Some(175.0));
        assert_eq!(parse_cpu_ticks("garbage"), None);
    }

    #[test]
    fn reads_this_process_on_linux() {
        if !std::path::Path::new("/proc/self/stat").exists() {
            return;
        }
        assert!(peak_rss_mb().unwrap() > 0.0);
        assert!(cpu_time_s().unwrap() >= 0.0);
        assert!(loadavg().unwrap().split_whitespace().count() >= 3);
        assert!(nproc() >= 1);
    }
}
