//! Order statistics and the per-round normalisation behind the `_rel`
//! metrics.

/// Sorts `values` and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Nearest-rank percentile (`p` in `0..=100`) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median with the two middle values averaged.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values.to_vec());
    assert!(!s.is_empty(), "median of no samples");
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method) — the driver's spread measure.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values.to_vec());
    let m = s.len();
    assert!(m >= 2, "quartiles need two values");
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// One timed round, as recorded.
#[derive(Clone, Debug, Default)]
pub struct Round {
    /// Product time of the round: wall time of a closed loop, summed time
    /// in system of an open loop.
    pub busy_ns: f64,
    /// Process CPU time spent while the round ran.
    pub cpu_ns: f64,
    pub requests: usize,
    /// Latency of every call of the round.
    pub latencies_ns: Vec<f64>,
    /// Lateness of every scheduled send (open loop only).
    pub lag_ns: Vec<f64>,
    /// Wall span of the round, for rates.
    pub span_ns: f64,
    /// The calibration block that followed the round.
    pub ref_wall_ns: f64,
    pub ref_cpu_ns: f64,
}

impl Round {
    /// Product time per request in ref-ops.
    pub fn req_cost_rel(&self) -> f64 {
        self.busy_ns / self.requests as f64 / self.ref_wall_ns
    }

    /// Process CPU per request in ref-ops (CPU over CPU).
    pub fn cpu_cost_rel(&self) -> f64 {
        self.cpu_ns / self.requests as f64 / self.ref_cpu_ns
    }

    /// The `p`-th percentile of the round's call latencies in ref-ops.
    pub fn latency_rel(&self, p: f64) -> f64 {
        percentile(&sorted(self.latencies_ns.clone()), p) / self.ref_wall_ns
    }
}

/// Median over rounds of a per-round figure: a round the machine spoilt
/// moves it little, and every round is in it.
pub fn median_over_rounds(rounds: &[Round], figure: impl Fn(&Round) -> f64) -> f64 {
    median(&rounds.iter().map(figure).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(percentile(&s, 100.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 50.0), 2.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 12.0));
    }

    #[test]
    fn each_round_is_normalised_by_its_own_calibration() {
        // The second round ran on a machine twice as slow: everything,
        // calibration included, took double. Relative numbers must agree.
        let fast = Round {
            busy_ns: 1000.0,
            cpu_ns: 800.0,
            requests: 10,
            latencies_ns: vec![50.0, 150.0],
            ref_wall_ns: 10.0,
            ref_cpu_ns: 8.0,
            ..Round::default()
        };
        let slow = Round {
            busy_ns: 2000.0,
            cpu_ns: 1600.0,
            latencies_ns: vec![100.0, 300.0],
            ref_wall_ns: 20.0,
            ref_cpu_ns: 16.0,
            ..fast.clone()
        };
        assert_eq!(fast.req_cost_rel(), 10.0);
        assert_eq!(slow.req_cost_rel(), 10.0);
        assert_eq!(fast.cpu_cost_rel(), slow.cpu_cost_rel());
        assert_eq!(fast.latency_rel(50.0), 5.0);
        assert_eq!(slow.latency_rel(50.0), 5.0);
        assert_eq!(slow.latency_rel(90.0), 15.0);
        // A third, spoilt round does not move the median over rounds.
        let spoilt = Round {
            busy_ns: 9000.0,
            ..fast.clone()
        };
        assert_eq!(
            median_over_rounds(&[fast, spoilt, slow], Round::req_cost_rel),
            10.0
        );
    }
}
