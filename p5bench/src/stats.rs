//! The benchmark's own arithmetic: order statistics, the tail rule,
//! failure counting and the fidelity-error formulas. Kept free of any
//! simulation so the unit tests below pin every formula a reported
//! metric rests on.

use p5_experiments::CellStatus;

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// Ascending copy of `xs`.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Median of `xs` (mean of the two middle values for an even count),
/// `0.0` for no samples.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => s[n / 2],
        _ => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// A tail latency with the percentile it sits at and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the tail rank.
    pub value: f64,
    /// Its nearest-rank percentile.
    pub pct: f64,
    /// Samples the tail was taken from.
    pub n: usize,
}

/// The highest percentile that still has at least [`TAIL_BEYOND`]
/// samples beyond it: the sample of ascending rank `n - TAIL_BEYOND`
/// (1-based), at nearest-rank percentile `100 * rank / n`. A tail lies
/// above the median, so with `2 * TAIL_BEYOND` samples or fewer, where
/// that rank is at or below the median's, the maximum is reported
/// instead, at percentile 100, so the shortfall shows. (Taken
/// literally, eleven samples would make the minimum the "tail", and a
/// run that fits ten or eleven iterations would flip between the two.)
#[must_use]
pub fn tail(xs: &[f64]) -> Tail {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            pct: 0.0,
            n,
        };
    }
    let rank = if n > 2 * TAIL_BEYOND {
        n - TAIL_BEYOND
    } else {
        n
    };
    Tail {
        value: s[rank - 1],
        pct: 100.0 * rank as f64 / n as f64,
        n,
    }
}

/// Whether a cell with this status counts as failed: it has no
/// converged measurement (degraded), never ran (skipped) or crashed. A
/// recovered cell converged on its retry and counts as done.
#[must_use]
pub fn is_failed(status: CellStatus) -> bool {
    matches!(
        status,
        CellStatus::Degraded | CellStatus::Crashed | CellStatus::Skipped
    )
}

/// Share of attempted operations that did not fail.
#[must_use]
pub fn ok_frac(attempted: u64, failed: u64) -> f64 {
    if attempted == 0 {
        return 0.0;
    }
    1.0 - failed as f64 / attempted as f64
}

/// Mean relative error `|measured - reference| / reference` over
/// `(measured, reference)` pairs, in percent. Pairs whose reference is
/// zero have no relative error and are skipped; no usable pair gives
/// `0.0`.
#[must_use]
pub fn mean_rel_err_pct(pairs: impl IntoIterator<Item = (f64, f64)>) -> f64 {
    let (sum, n) = pairs
        .into_iter()
        .filter(|&(_, reference)| reference != 0.0)
        .fold((0.0, 0usize), |(sum, n), (measured, reference)| {
            (sum + ((measured - reference) / reference).abs(), n + 1)
        });
    if n == 0 {
        0.0
    } else {
        100.0 * sum / n as f64
    }
}

/// `part / whole`, `0.0` when `whole` is zero.
#[must_use]
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.pct, 90.0);
        assert_eq!(t.n, 100);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_rank_is_independent_of_input_order() {
        let xs: Vec<f64> = (0..40).map(|i| f64::from((i * 17) % 40)).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 29.0);
        assert_eq!(t.pct, 75.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
    }

    #[test]
    fn tail_is_never_at_or_below_the_median() {
        for n in 11..=20 {
            let xs: Vec<f64> = (1..=n).map(f64::from).collect();
            let t = tail(&xs);
            assert_eq!((t.value, t.pct), (f64::from(n), 100.0), "n = {n}");
        }
        let xs: Vec<f64> = (1..=21).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 11.0);
        assert!((t.pct - 1100.0 / 21.0).abs() < 1e-12);
    }

    #[test]
    fn tail_of_few_samples_falls_back_to_the_maximum() {
        let t = tail(&[5.0, 7.0, 6.0]);
        assert_eq!(
            t,
            Tail {
                value: 7.0,
                pct: 100.0,
                n: 3
            }
        );
        assert_eq!(tail(&[]).n, 0);
    }

    #[test]
    fn failed_counting_covers_every_status() {
        let statuses = [
            CellStatus::Ok,
            CellStatus::Recovered,
            CellStatus::Degraded,
            CellStatus::Crashed,
            CellStatus::Skipped,
        ];
        let failed = statuses.iter().filter(|&&s| is_failed(s)).count() as u64;
        assert_eq!(failed, 3);
        assert_eq!(ok_frac(statuses.len() as u64, failed), 0.4);
        assert_eq!(ok_frac(42, 0), 1.0);
        assert_eq!(ok_frac(0, 0), 0.0);
    }

    #[test]
    fn relative_error_is_symmetric_in_sign_and_skips_zero_references() {
        let err = mean_rel_err_pct([(1.1, 1.0), (0.9, 1.0), (5.0, 0.0)]);
        assert!((err - 10.0).abs() < 1e-9, "{err}");
        assert_eq!(mean_rel_err_pct([(2.0, 2.0)]), 0.0);
        assert_eq!(mean_rel_err_pct([(1.0, 0.0)]), 0.0);
    }

    #[test]
    fn paper_error_weights_each_value_equally() {
        // Two ST values off by 50% and 0%, one pt value off by 25%.
        let err = mean_rel_err_pct([(3.0, 2.0), (1.0, 1.0), (0.75, 1.0)]);
        assert!((err - 25.0).abs() < 1e-9, "{err}");
    }

    #[test]
    fn ratio_guards_zero() {
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
    }
}
