//! Zipf-skewed **hot-key** stream scenarios.
//!
//! Hash-partitioned parallel execution degrades exactly when the key
//! distribution is skewed: the shard owning the hot keys backs up while
//! the others idle. This module generates deterministic event streams
//! whose key column follows a bounded [`Zipf`] distribution (`skew = 0`
//! recovers the uniform control), for benchmarks and soak tests of
//! load-rebalancing schedulers — the `hot_key_skew` bench group drives
//! the engine's sharded executor with them and asserts that jobs which
//! finish their own home shard claim the homes still unclaimed.
//!
//! The rows are engine-agnostic `(ts, key, value)` triples: timestamps
//! ascend one per row (so event-time watermarks advance steadily), keys
//! are Zipf draws, and values are a small deterministic ramp (usable as
//! an exact integer-aggregation input).

use crate::zipf::Zipf;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Parameters of a hot-key scenario.
#[derive(Clone, Debug)]
pub struct HotKeyParams {
    /// Number of distinct keys (the Zipf support: keys are `1..=keys`).
    pub keys: u64,
    /// Zipf skewness: `0.0` = uniform, `1.0` = classic hot-key skew
    /// (the paper's operator-load skew), larger = hotter.
    pub skew: f64,
    /// Number of rows to generate.
    pub rows: usize,
    /// RNG seed — equal seeds yield byte-identical scenarios.
    pub seed: u64,
}

impl HotKeyParams {
    /// The paper-flavored default: 64 keys at skew 1 — the hottest key
    /// draws ~20% of all rows, so one shard of a small cluster saturates.
    pub fn skewed(rows: usize) -> Self {
        Self {
            keys: 64,
            skew: 1.0,
            rows,
            seed: 0x00C0_FFEE,
        }
    }

    /// The uniform control with the same support, row count, and seed.
    pub fn uniform(rows: usize) -> Self {
        Self {
            skew: 0.0,
            ..Self::skewed(rows)
        }
    }
}

/// One generated event: ascending timestamp, Zipf-drawn key, ramp value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HotKeyRow {
    /// Event timestamp (`1..=rows`, one per row).
    pub ts: u64,
    /// The (possibly hot) key, in `1..=keys`.
    pub key: u64,
    /// A deterministic small integer payload (`ts mod 1000`).
    pub value: i64,
}

/// Generates the scenario's rows (deterministic in the parameters).
///
/// # Panics
/// Panics when `keys == 0` or `skew` is negative/non-finite (the
/// [`Zipf`] support contract).
pub fn hot_key_rows(params: &HotKeyParams) -> Vec<HotKeyRow> {
    let zipf = Zipf::new(params.keys, params.skew);
    let mut rng = StdRng::seed_from_u64(params.seed);
    (0..params.rows)
        .map(|i| {
            let ts = i as u64 + 1;
            HotKeyRow {
                ts,
                key: zipf.sample(&mut rng),
                value: (ts % 1000) as i64,
            }
        })
        .collect()
}

/// Per-key row counts of a generated scenario (index `k - 1` holds key
/// `k`'s count) — handy for asserting skew or balance in tests.
pub fn key_histogram(params: &HotKeyParams, rows: &[HotKeyRow]) -> Vec<u64> {
    let mut counts = vec![0u64; params.keys as usize];
    for row in rows {
        counts[(row.key - 1) as usize] += 1;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenarios_are_deterministic() {
        let p = HotKeyParams::skewed(5_000);
        assert_eq!(hot_key_rows(&p), hot_key_rows(&p));
        let mut other = p.clone();
        other.seed += 1;
        assert_ne!(hot_key_rows(&p), hot_key_rows(&other));
    }

    #[test]
    fn timestamps_ascend_one_per_row() {
        let rows = hot_key_rows(&HotKeyParams::uniform(100));
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(row.ts, i as u64 + 1);
            assert_eq!(row.value, (row.ts % 1000) as i64);
        }
    }

    #[test]
    fn skewed_scenario_concentrates_on_the_hot_key() {
        let p = HotKeyParams::skewed(20_000);
        let hist = key_histogram(&p, &hot_key_rows(&p));
        let hot = hist[0] as f64 / p.rows as f64;
        // Zipf(64, 1): P(1) ≈ 0.21 — the hot key dwarfs the uniform
        // share of 1/64 ≈ 0.016.
        assert!(hot > 0.15, "hot-key share {hot:.3} too small");
        assert!(
            hist[0] > 5 * hist[hist.len() - 1],
            "tail key unexpectedly hot"
        );
    }

    #[test]
    fn uniform_control_is_balanced() {
        let p = HotKeyParams::uniform(64_000);
        let hist = key_histogram(&p, &hot_key_rows(&p));
        let expected = p.rows as f64 / p.keys as f64;
        for (k, &count) in hist.iter().enumerate() {
            let ratio = count as f64 / expected;
            assert!(
                (0.7..1.3).contains(&ratio),
                "key {} count {count} strays from uniform {expected}",
                k + 1
            );
        }
    }
}
