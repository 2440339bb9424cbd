//! Order statistics over the benchmark's own samples, and the
//! `/proc/self` readers behind `peak_rss_mb` and the `proc.*` metrics.

/// Quantile `p` of an ascending slice, linearly interpolated between
/// ranks (the same rule at every call site, so windows compare).
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Sort `v` and return its quantile `p`.
pub fn quantile(v: &mut [f64], p: f64) -> f64 {
    v.sort_by(|a, b| a.total_cmp(b));
    quantile_sorted(v, p)
}

pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Quantiles of nanosecond samples, in nanoseconds.
pub fn quantiles_ns(v: &mut [u64], ps: &[f64]) -> Vec<f64> {
    v.sort_unstable();
    let as_f: Vec<f64> = v.iter().map(|&x| x as f64).collect();
    ps.iter().map(|&p| quantile_sorted(&as_f, p)).collect()
}

/// One reading of the process's accounting in `/proc/self`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// User + system CPU time of the whole process (exited threads
    /// included), in microseconds.
    pub cpu_us: f64,
    /// Context switches summed over the threads alive right now.
    pub vol_ctx: u64,
    pub invol_ctx: u64,
}

impl ProcSample {
    pub fn read() -> ProcSample {
        let mut s = ProcSample::default();
        if let Ok(stat) = std::fs::read_to_string("/proc/self/stat") {
            // Fields after the parenthesised command name; utime and
            // stime are the 14th and 15th of the whole line, in ticks.
            if let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) {
                let f: Vec<&str> = rest.split_whitespace().collect();
                let ticks: u64 = [11, 12]
                    .iter()
                    .filter_map(|&i| f.get(i).and_then(|x| x.parse::<u64>().ok()))
                    .sum();
                // USER_HZ is 100 on every Linux this runs on; the
                // value only scales a per-layer context metric.
                s.cpu_us = ticks as f64 * 10_000.0;
            }
        }
        if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
            for t in tasks.flatten() {
                let Ok(status) = std::fs::read_to_string(t.path().join("status")) else {
                    continue; // the thread exited between readdir and read
                };
                s.vol_ctx += status_field(&status, "voluntary_ctxt_switches:");
                s.invol_ctx += status_field(&status, "nonvoluntary_ctxt_switches:");
            }
        }
        s
    }
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// `VmHWM` of this process — its peak resident set — in megabytes.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    match status_field(&status, "VmHWM:") {
        0 => Err("VmHWM missing from /proc/self/status".into()),
        kb => Ok(kb as f64 / 1024.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut v), 2.5);
        assert_eq!(quantile(&mut v, 0.0), 1.0);
        assert_eq!(quantile(&mut v, 1.0), 4.0);
        assert_eq!(quantiles_ns(&mut [30, 10, 20], &[0.5, 1.0]), [20.0, 30.0]);
    }
}
