//! Order statistics, run-to-run digests and the metric record a run prints.

use std::collections::BTreeMap;

/// Linear-interpolated quantile (`q` in `[0, 1]`) of unsorted samples;
/// `None` when there are none.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Median of unsorted samples, 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// Mean of samples, 0 when there are none.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// The fastest repeat of each input, in key order. Inputs recur during a
/// run, and an operation's fastest repeat is its cost with the least
/// interference from the rest of the machine; a median over whole runs
/// on a shared host moves with the share of the run a neighbour was busy.
pub fn best_of_repeats<K: Ord>(samples: impl IntoIterator<Item = (K, f64)>) -> Vec<f64> {
    let mut best = BTreeMap::new();
    for (key, value) in samples {
        let slot = best.entry(key).or_insert(value);
        *slot = slot.min(value);
    }
    best.into_values().collect()
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// 64-bit FNV-1a: a stable digest of verdict fields, identical on every
/// platform and run.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Mixes raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Mixes a `u64` in (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Mixes a length-prefixed string in.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// What one benchmark run found: the operation counts, the metric values
/// by name, and every output check that failed.
#[derive(Debug, Default)]
pub struct RunResult {
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed (see the README for what counts).
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Failed output checks, one line each; empty means correct.
    pub problems: Vec<String>,
}

impl RunResult {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records a failed output check.
    pub fn fail(&mut self, problem: impl Into<String>) {
        self.problems.push(problem.into());
    }

    /// Records a failed output check unless `ok`.
    pub fn check(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn best_of_repeats_keeps_each_keys_minimum() {
        let samples = [(2, 5.0), (1, 3.0), (2, 4.0), (1, 6.0), (3, 9.0)];
        assert_eq!(best_of_repeats(samples), vec![3.0, 4.0, 9.0]);
    }

    #[test]
    fn fnv_matches_the_reference_vector() {
        // FNV-1a 64 of "a" from the reference test suite.
        assert_eq!(Fnv::default().bytes(b"a").finish(), 0xaf63_dc4c_8601_ec8c);
    }
}
