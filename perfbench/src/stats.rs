//! Order statistics over per-start samples, and process counters from
//! `/proc/self`.

/// The tail rule needs this many samples strictly beyond the reported one.
pub const TAIL_BEYOND: usize = 10;

/// Median of `xs` (mean of the two middle values for an even count);
/// `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest percentile that still has at least [`TAIL_BEYOND`] samples
/// beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Its nearest-rank percentile, `100 · rank / n` with a 1-based rank.
    pub percentile: f64,
    /// Number of samples the percentile was taken over.
    pub samples: usize,
}

/// Applies the tail rule: with `n` sorted samples the reported one has rank
/// `n − 10` (1-based), so exactly ten samples rank beyond it. `None` when
/// fewer than eleven samples exist, since then no percentile qualifies.
pub fn tail(xs: &[f64]) -> Option<Tail> {
    let n = xs.len();
    let rank = n.checked_sub(TAIL_BEYOND).filter(|&r| r >= 1)?;
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        samples: n,
    })
}

/// User plus system CPU seconds of this process so far, from
/// `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s, the
/// Linux `USER_HZ`).
pub fn cpu_seconds() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name may contain spaces; fields resume after its `)`.
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / 100.0)
}

/// Peak resident set size of this process in MiB (`VmHWM` of
/// `/proc/self/status`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn proc_counters_are_readable() {
        assert!(cpu_seconds().is_some());
        assert!(peak_rss_mb().is_some_and(|mb| mb > 0.0));
    }
}
