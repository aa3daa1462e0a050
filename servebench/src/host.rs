//! Host fingerprint, memory high-water mark and order statistics.

use std::process::Command;

/// `nproc`, CPU model, kernel and `rustc` version, one line.
pub fn fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|k| k.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    format!("nproc={nproc} cpu=\"{cpu}\" kernel={kernel} rustc=\"{rustc}\"")
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Nearest-rank percentile `p` (0–100) of `values`; `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median (nearest rank); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    percentile(values, 50.0)
}

/// Cut `(seconds into the window, value)` samples into `slices` equal
/// stretches of a `window_s`-second window; answers that arrive after
/// the window's nominal end (the requests in flight at the deadline) go
/// to the last slice.
pub fn slices(samples: &[(f64, f64)], window_s: f64, slices: usize) -> Vec<Vec<f64>> {
    let slices = slices.max(1);
    let mut cut = vec![Vec::new(); slices];
    for &(at, value) in samples {
        let i = (at / window_s * slices as f64).max(0.0) as usize;
        cut[i.min(slices - 1)].push(value);
    }
    cut
}

pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn slices_cut_by_arrival_time() {
        let samples = [(0.1, 1.0), (0.9, 2.0), (1.5, 3.0), (2.4, 4.0), (3.2, 5.0)];
        let cut = slices(&samples, 3.0, 3);
        assert_eq!(cut, vec![vec![1.0, 2.0], vec![3.0], vec![4.0, 5.0]]);
        assert_eq!(slices(&samples, 3.0, 1)[0].len(), samples.len());
    }
}
