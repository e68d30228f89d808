//! Percentile maths and the process counters behind the end-to-end
//! metrics.

/// The `p`-quantile (`0 ≤ p ≤ 1`) of `values`, interpolating linearly
/// between the two closest ranks. Panics on an empty slice.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = (sorted.len() - 1) as f64 * p;
    let lo = h.floor() as usize;
    let hi = (lo + 1).min(sorted.len() - 1);
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// A run's `ops` operations cut into consecutive blocks of near-equal
/// size: sixteen of them, fewer when that would leave a block under eight
/// operations.
///
/// Every timing metric is computed per block and the quartile of the
/// blocks on the quiet side is reported (see `README.md`, "Why blocks").
pub fn blocks(ops: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let count = (ops / 8).clamp(1, 16);
    (0..count).map(move |i| i * ops / count..(i + 1) * ops / count)
}

/// The quartile of per-block values on the quiet side: the first where
/// less is better, the third where more is.
pub fn quiet_quartile(per_block: &[f64], lower_is_better: bool) -> f64 {
    percentile(per_block, if lower_is_better { 0.25 } else { 0.75 })
}

/// First and third quartile as Python's `statistics.quantiles(values,
/// n=4)` gives them (the "exclusive" method) — the noise rule of the
/// benchmark contract is stated in those terms. Needs two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Inter-quartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values)
}

/// User + system CPU time of this process so far, in milliseconds, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 10 ms). Counts
/// threads that have already exited, which per-thread counters lose.
pub fn process_cpu_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields[i].parse::<f64>().expect("numeric stat field");
    (ticks(11) + ticks(12)) * 10.0
}

/// Peak resident set size (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .expect("status has VmHWM");
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .expect("VmHWM in kB");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert!((percentile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(median(&[7.0]), 7.0);
    }

    /// `statistics.quantiles([1..10], n=4)` is `[2.75, 5.5, 8.25]`, and
    /// `statistics.quantiles([10, 20, 40, 80, 160], n=4)` is
    /// `[15.0, 40.0, 120.0]`.
    #[test]
    fn quartiles_match_python() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        assert_eq!(quartiles(&[10.0, 20.0, 40.0, 80.0, 160.0]), (15.0, 120.0));
        assert_eq!(spread(&ten), 1.0);
    }

    #[test]
    fn blocks_cover_every_operation_once() {
        for ops in [1, 7, 12, 127, 260, 540] {
            let cut: Vec<_> = blocks(ops).collect();
            assert_eq!(cut[0].start, 0);
            assert_eq!(cut.last().unwrap().end, ops);
            assert!(cut.windows(2).all(|w| w[0].end == w[1].start));
            assert!(cut.len() <= 16 && (ops < 16 || cut.iter().all(|b| b.len() >= 8)));
        }
        assert_eq!(blocks(540).count(), 16);
        assert_eq!(blocks(12).count(), 1);
        assert_eq!(quiet_quartile(&[1.0, 2.0, 3.0, 4.0, 5.0], true), 2.0);
        assert_eq!(quiet_quartile(&[1.0, 2.0, 3.0, 4.0, 5.0], false), 4.0);
    }

    #[test]
    fn process_counters_read() {
        assert!(process_cpu_ms() >= 0.0);
        assert!(peak_rss_mb() > 1.0);
    }
}
