//! Sample sets and nearest-rank percentiles.

/// A set of timing or count samples.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Record one sample.
    pub fn push(&mut self, value: f64) {
        self.0.push(value);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// No samples recorded.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Nearest-rank `p`-th percentile (0–100); 0 for an empty set.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.0, p)
    }

    /// The median.
    pub fn p50(&self) -> f64 {
        self.percentile(50.0)
    }

    /// The 90th percentile.
    pub fn p90(&self) -> f64 {
        self.percentile(90.0)
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Samples(iter.into_iter().collect())
    }
}

/// Nearest-rank `p`-th percentile (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0 * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank() {
        let s: Samples = (1..=10).map(f64::from).collect();
        assert_eq!(s.p50(), 5.0);
        assert_eq!(s.p90(), 9.0);
        assert_eq!(s.percentile(100.0), 10.0);
        assert_eq!(Samples::default().p50(), 0.0);
    }
}
