//! Order statistics over the ops a measured window completed.

/// One completed operation inside a measured window. Times are
/// nanoseconds since the window opened; for the open-loop workload
/// `start_ns` is the request's *due* time, not the moment it was written,
/// so a generator stall is charged to the requests it delayed.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub start_ns: u64,
    pub end_ns: u64,
    pub rows: u32,
}

impl Op {
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Nearest-rank percentile of an ascending slice (`q` in 0..=1).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

pub fn median(values: Vec<f64>) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// Latencies of `ops` in milliseconds, ascending.
pub fn latencies_ms(ops: &[Op]) -> Vec<f64> {
    sorted(ops.iter().map(Op::ms).collect())
}

/// The window is cut into this many consecutive groups of ops. Each timing
/// is taken per group and reported as the quartile over groups on the quiet
/// side: the third-fastest tenth of the window. On this shared box the host
/// takes the processor away for tens of milliseconds at a time, in bursts
/// that differ from run to run; interference only ever adds time, so the
/// quieter tenths say what the code costs and the disturbed ones say what
/// the neighbours were doing. (Ten identical `serve_goodness` runs: pooled
/// p90 spread 28 %, median of group p90s 12 %, quiet quartile 2 %.)
pub const GROUPS: usize = 10;

/// `measure` applied to each of [`GROUPS`] equal consecutive groups of `ops`,
/// taken in completion order.
fn per_group<T>(ops: &[Op], measure: impl Fn(&[Op]) -> T) -> Vec<T> {
    let mut by_end = ops.to_vec();
    by_end.sort_by_key(|op| op.end_ns);
    let group_len = by_end.len().div_ceil(GROUPS).max(1);
    by_end.chunks(group_len).map(measure).collect()
}

/// Completed rows per second: the upper quartile of the group rates. A
/// group's rate is its rows over the span from its first start to its last
/// completion, so no op is cut by a group boundary.
pub fn rows_per_s(ops: &[Op]) -> f64 {
    let rates = per_group(ops, |group| {
        let first = group.iter().map(|op| op.start_ns).min()?;
        let last = group.iter().map(|op| op.end_ns).max()?;
        let rows: u64 = group.iter().map(|op| u64::from(op.rows)).sum();
        let seconds = last.saturating_sub(first) as f64 / 1e9;
        (seconds > 0.0).then(|| rows as f64 / seconds)
    });
    percentile(&sorted(rates.into_iter().flatten().collect()), 0.75)
}

/// Op latency in ms: percentile `q` of each group, lower quartile over
/// groups.
pub fn latency_ms(ops: &[Op], q: f64) -> f64 {
    let per_group = per_group(ops, |group| percentile(&latencies_ms(group), q));
    percentile(&sorted(per_group), 0.25)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&values, 0.5), 50.0);
        assert_eq!(percentile(&values, 0.9), 90.0);
        assert_eq!(percentile(&values, 0.99), 99.0);
        assert_eq!(percentile(&values, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn a_disturbed_fifth_moves_neither_rate_nor_latency() {
        // Fifty back-to-back ops of one row, 1 ms each, except that the
        // third fifth of the window runs ten times slower.
        let mut ops = Vec::new();
        let mut clock = 0u64;
        for index in 0..50 {
            let cost = if (20..30).contains(&index) {
                10_000_000
            } else {
                1_000_000
            };
            ops.push(Op {
                start_ns: clock,
                end_ns: clock + cost,
                rows: 1,
            });
            clock += cost;
        }
        assert!((rows_per_s(&ops) - 1000.0).abs() < 1e-6);
        assert_eq!(latency_ms(&ops, 0.5), 1.0);
        assert_eq!(latency_ms(&ops, 0.9), 1.0);
        assert_eq!(percentile(&latencies_ms(&ops), 0.9), 10.0);
    }
}
