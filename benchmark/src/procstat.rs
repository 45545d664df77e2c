//! Process CPU time and peak memory from `/proc/self` (Linux). Each
//! workload runs in a process of its own, so both numbers belong to that
//! workload by construction.

/// Kernel clock ticks per second (`USER_HZ`): 100 on every Linux ABI.
const TICKS_PER_SECOND: f64 = 100.0;

/// User + system CPU seconds this process (all threads, including ones
/// that have exited) has consumed, or `None` off Linux.
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // Fields are counted after the parenthesised command name, which may
    // itself hold spaces: `pid (comm) state ppid … utime stime`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some((utime + stime) / TICKS_PER_SECOND)
}

/// Peak resident set size (`VmHWM`) in MiB, or `None` off Linux.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kib: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg(target_os = "linux")]
    fn proc_readings_are_positive_and_cpu_advances() {
        let before = cpu_seconds().expect("/proc/self/stat");
        let t = std::time::Instant::now();
        let mut x = 0u64;
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let after = cpu_seconds().expect("/proc/self/stat");
        assert!(after - before >= 0.03, "{before} -> {after}");
        assert!(peak_rss_mib().expect("/proc/self/status") > 0.5);
    }
}
