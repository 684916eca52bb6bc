//! The §VI-A workload generator (Table III parameters plus the
//! operator-splitting procedure that sweeps the degree-of-sharing axis).

use crate::zipf::Zipf;
use cqac_core::model::{AuctionInstance, InstanceBuilder, OperatorId};
use cqac_core::units::{Load, Money};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Generator parameters; [`WorkloadParams::paper`] reproduces Table III.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadParams {
    /// Number of queries per input instance (2000 in the paper).
    pub num_queries: usize,
    /// Target mean number of operators per query. The paper's operator
    /// counts (700 at max degree 60, 8800 at degree 1) pin this at ≈ 4.4:
    /// the base instance draws operators until the total number of
    /// (query, operator) incidences reaches `num_queries × mean_ops_per_query`.
    pub mean_ops_per_query: f64,
    /// Maximum degree of sharing in the *base* instance (60).
    pub base_max_degree: u32,
    /// Zipf skew of the per-operator sharing degree (1.0).
    pub degree_skew: f64,
    /// Maximum bid in dollars (100).
    pub max_bid: u64,
    /// Zipf skew of bids (0.5).
    pub bid_skew: f64,
    /// Maximum operator load in capacity units (10).
    pub max_op_load: u64,
    /// Zipf skew of operator loads (1.0).
    pub load_skew: f64,
}

impl WorkloadParams {
    /// The exact Table III configuration.
    pub fn paper() -> Self {
        Self {
            num_queries: 2000,
            mean_ops_per_query: 4.4,
            base_max_degree: 60,
            degree_skew: 1.0,
            max_bid: 100,
            bid_skew: 0.5,
            max_op_load: 10,
            load_skew: 1.0,
        }
    }

    /// A proportionally scaled-down configuration for fast tests and CI:
    /// same distributions, `n` queries.
    pub fn scaled(n: usize) -> Self {
        Self {
            num_queries: n,
            ..Self::paper()
        }
    }
}

/// A workload in mutable form: operators with loads and *explicit member
/// query lists*, plus per-query bids. This is the representation the
/// splitting procedure rewrites; [`RawWorkload::to_instance`] freezes it
/// into an [`AuctionInstance`] at a given capacity.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct RawWorkload {
    /// Number of queries (bids.len()).
    pub num_queries: usize,
    /// Bid per query.
    pub bids: Vec<Money>,
    /// Operator loads.
    pub loads: Vec<Load>,
    /// Operator membership: `members[j]` lists the queries sharing operator
    /// `j`. Every query appears in at least one operator's list.
    pub members: Vec<Vec<u32>>,
}

impl RawWorkload {
    /// The maximum sharing degree over all operators.
    pub fn max_degree(&self) -> usize {
        self.members.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Total number of (query, operator) incidences.
    pub fn incidences(&self) -> usize {
        self.members.iter().map(Vec::len).sum()
    }

    /// Each query's total load (sum over the operators containing it).
    pub fn query_total_loads(&self) -> Vec<Load> {
        let mut totals = vec![Load::ZERO; self.num_queries];
        for (j, qs) in self.members.iter().enumerate() {
            for &q in qs {
                totals[q as usize] += self.loads[j];
            }
        }
        totals
    }

    /// Splits every operator of degree `> max_degree` by greedy halving
    /// (8 → 4, 2, 1, 1), partitioning its member queries among the parts —
    /// the paper's procedure for deriving the next point on the
    /// degree-of-sharing axis. Each part keeps the original operator's
    /// load, so **every query's total load is invariant** (tested).
    ///
    /// The partition of members is randomized by `rng`, as in the paper
    /// ("the queries associated with that operator will be distributed
    /// among the resulting operators").
    pub fn split_to_max_degree<R: Rng + ?Sized>(&mut self, max_degree: usize, rng: &mut R) {
        assert!(max_degree >= 1, "max degree must be at least 1");
        let mut new_loads = Vec::new();
        let mut new_members: Vec<Vec<u32>> = Vec::new();
        for j in 0..self.members.len() {
            let d = self.members[j].len();
            if d <= max_degree {
                continue;
            }
            // Greedy halving part sizes: d → d/2, d/4, ..., 1, 1 — but never
            // larger than max_degree (halving from d ≤ 2·max_degree already
            // guarantees that; clamp for direct jumps).
            let mut parts = Vec::new();
            let mut r = d;
            while r > 1 {
                let half = (r / 2).min(max_degree);
                parts.push(half);
                r -= half;
            }
            if r == 1 {
                parts.push(1);
            }
            debug_assert_eq!(parts.iter().sum::<usize>(), d);
            // Shuffle members, keep the first part in place, spin the rest
            // off into fresh operators with the same load.
            self.members[j].shuffle(rng);
            let mut rest = self.members[j].split_off(parts[0]);
            for &size in &parts[1..] {
                let tail = rest.split_off(size);
                new_loads.push(self.loads[j]);
                new_members.push(rest);
                rest = tail;
            }
            debug_assert!(rest.is_empty());
        }
        self.loads.extend(new_loads);
        self.members.extend(new_members);
    }

    /// Freezes the workload into a validated [`AuctionInstance`].
    pub fn to_instance(&self, capacity: Load) -> AuctionInstance {
        let mut b =
            InstanceBuilder::new(capacity).with_capacity_hint(self.loads.len(), self.num_queries);
        let mut per_query_ops: Vec<Vec<OperatorId>> = vec![Vec::new(); self.num_queries];
        for (j, load) in self.loads.iter().enumerate() {
            let id = b.operator(*load);
            for &q in &self.members[j] {
                per_query_ops[q as usize].push(id);
            }
        }
        for (q, ops) in per_query_ops.iter().enumerate() {
            b.query(self.bids[q], ops);
        }
        b.build().expect("generated workload is well-formed")
    }
}

/// Deterministic, seedable generator of paper workload sets.
///
/// One `WorkloadGenerator` stands for the paper's "50 different sets of
/// workload": set `i` is derived from `seed + i`, so every experiment is
/// exactly regenerable.
#[derive(Clone, Debug)]
pub struct WorkloadGenerator {
    params: WorkloadParams,
    seed: u64,
}

impl WorkloadGenerator {
    /// A generator over the given parameters rooted at `seed`.
    pub fn new(params: WorkloadParams, seed: u64) -> Self {
        Self { params, seed }
    }

    /// The generator's parameters.
    pub fn params(&self) -> &WorkloadParams {
        &self.params
    }

    /// Generates workload-set `set_index`'s base instance (max degree =
    /// `base_max_degree`).
    pub fn base_workload(&self, set_index: u64) -> RawWorkload {
        let p = &self.params;
        let mut rng = StdRng::seed_from_u64(
            self.seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(set_index + 1)),
        );
        let degree_dist = Zipf::new(u64::from(p.base_max_degree), p.degree_skew);
        let bid_dist = Zipf::new(p.max_bid, p.bid_skew);
        let load_dist = Zipf::new(p.max_op_load, p.load_skew);

        let bids: Vec<Money> = (0..p.num_queries)
            .map(|_| Money::from_units(bid_dist.sample(&mut rng) as f64))
            .collect();

        let target_incidences = (p.num_queries as f64 * p.mean_ops_per_query).round() as usize;
        let mut loads: Vec<Load> = Vec::new();
        let mut members: Vec<Vec<u32>> = Vec::new();
        let mut incidences = 0usize;
        let mut covered = vec![false; p.num_queries];
        while incidences < target_incidences {
            let d = (degree_dist.sample(&mut rng) as usize).min(p.num_queries);
            let load = Load::from_units(load_dist.sample(&mut rng) as f64);
            // d distinct random queries share this operator.
            let mut qs = rand::seq::index::sample(&mut rng, p.num_queries, d)
                .into_iter()
                .map(|i| i as u32)
                .collect::<Vec<_>>();
            qs.sort_unstable();
            for &q in &qs {
                covered[q as usize] = true;
            }
            incidences += qs.len();
            loads.push(load);
            members.push(qs);
        }
        // Every query must contain at least one operator: give uncovered
        // queries a private operator (degree 1, Zipf load).
        for (q, was_covered) in covered.iter().enumerate() {
            if !was_covered {
                loads.push(Load::from_units(load_dist.sample(&mut rng) as f64));
                members.push(vec![q as u32]);
            }
        }
        RawWorkload {
            num_queries: p.num_queries,
            bids,
            loads,
            members,
        }
    }

    /// Yields `(max_degree_parameter, instance)` for every max degree from
    /// `base_max_degree` down to 1, derived sequentially by operator
    /// splitting exactly as in §VI-A (instance *m* is derived from instance
    /// *m+1*).
    pub fn sharing_sweep(&self, set_index: u64, capacity: Load) -> Vec<(u32, AuctionInstance)> {
        let mut raw = self.base_workload(set_index);
        let mut split_rng = StdRng::seed_from_u64(self.seed ^ 0xD1B5_4A32_D192_ED03u64 ^ set_index);
        let mut out = Vec::with_capacity(self.params.base_max_degree as usize);
        for degree in (1..=self.params.base_max_degree).rev() {
            raw.split_to_max_degree(degree as usize, &mut split_rng);
            out.push((degree, raw.to_instance(capacity)));
        }
        out.reverse(); // ascending degree, matching the figures' x-axis
        out
    }

    /// Like [`WorkloadGenerator::sharing_sweep`] but only for the selected
    /// degrees (saves time when plotting coarser sweeps).
    pub fn sharing_sweep_at(
        &self,
        set_index: u64,
        capacity: Load,
        degrees: &[u32],
    ) -> Vec<(u32, AuctionInstance)> {
        let mut want: Vec<u32> = degrees.to_vec();
        want.sort_unstable();
        want.dedup();
        let mut raw = self.base_workload(set_index);
        let mut split_rng = StdRng::seed_from_u64(self.seed ^ 0xD1B5_4A32_D192_ED03u64 ^ set_index);
        let mut out = Vec::with_capacity(want.len());
        for degree in (1..=self.params.base_max_degree).rev() {
            raw.split_to_max_degree(degree as usize, &mut split_rng);
            if want.binary_search(&degree).is_ok() {
                out.push((degree, raw.to_instance(capacity)));
            }
        }
        out.reverse();
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_params() -> WorkloadParams {
        WorkloadParams {
            num_queries: 200,
            mean_ops_per_query: 4.4,
            base_max_degree: 16,
            degree_skew: 1.0,
            max_bid: 100,
            bid_skew: 0.5,
            max_op_load: 10,
            load_skew: 1.0,
        }
    }

    #[test]
    fn base_workload_respects_parameters() {
        let generator = WorkloadGenerator::new(small_params(), 42);
        let raw = generator.base_workload(0);
        assert_eq!(raw.num_queries, 200);
        assert!(raw.max_degree() <= 16);
        assert!(raw.incidences() >= (200.0 * 4.4) as usize);
        for bid in &raw.bids {
            assert!(bid.micro() >= 1_000_000 && bid.micro() <= 100_000_000);
        }
        for load in &raw.loads {
            assert!(load.micro() >= 1_000_000 && load.micro() <= 10_000_000);
        }
        // Every query covered.
        let mut covered = [false; 200];
        for qs in &raw.members {
            for &q in qs {
                covered[q as usize] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn generation_is_deterministic() {
        let generator = WorkloadGenerator::new(small_params(), 42);
        let a = generator.base_workload(3);
        let b = generator.base_workload(3);
        assert_eq!(a.bids, b.bids);
        assert_eq!(a.members, b.members);
        let c = generator.base_workload(4);
        assert_ne!(a.members, c.members);
    }

    #[test]
    fn splitting_preserves_every_query_total_load() {
        let generator = WorkloadGenerator::new(small_params(), 7);
        let mut raw = generator.base_workload(0);
        let before = raw.query_total_loads();
        let mut rng = StdRng::seed_from_u64(1);
        for degree in (1..=16).rev() {
            raw.split_to_max_degree(degree, &mut rng);
            assert!(raw.max_degree() <= degree, "degree bound violated");
            assert_eq!(
                raw.query_total_loads(),
                before,
                "query loads changed at degree {degree}"
            );
        }
        // At max degree 1 every incidence is its own operator.
        assert_eq!(raw.members.len(), raw.incidences());
    }

    #[test]
    fn greedy_halving_matches_paper_example() {
        // A degree-8 operator split to max degree 7 becomes parts 4,2,1,1.
        let raw = RawWorkload {
            num_queries: 8,
            bids: (0..8).map(|_| Money::from_units(1.0)).collect(),
            loads: vec![Load::from_units(2.0)],
            members: vec![(0..8).collect()],
        };
        let mut raw = raw;
        let mut rng = StdRng::seed_from_u64(0);
        raw.split_to_max_degree(7, &mut rng);
        let mut sizes: Vec<usize> = raw.members.iter().map(Vec::len).collect();
        sizes.sort_unstable_by(|a, b| b.cmp(a));
        assert_eq!(sizes, vec![4, 2, 1, 1]);
        assert!(raw.loads.iter().all(|&l| l == Load::from_units(2.0)));
    }

    #[test]
    fn sweep_has_expected_operator_growth() {
        let generator = WorkloadGenerator::new(small_params(), 11);
        let sweep = generator.sharing_sweep(0, Load::from_units(1000.0));
        assert_eq!(sweep.len(), 16);
        let ops_low = sweep[0].1.num_operators(); // degree 1
        let ops_high = sweep[15].1.num_operators(); // degree 16
        assert!(
            ops_low > ops_high,
            "splitting must increase operator count ({ops_low} vs {ops_high})"
        );
        for (degree, inst) in &sweep {
            assert!(inst.max_degree_of_sharing() <= *degree);
            assert_eq!(inst.num_queries(), 200);
        }
    }

    #[test]
    fn sweep_at_selected_degrees_matches_full_sweep() {
        let generator = WorkloadGenerator::new(small_params(), 5);
        let capacity = Load::from_units(500.0);
        let full = generator.sharing_sweep(0, capacity);
        let partial = generator.sharing_sweep_at(0, capacity, &[1, 8, 16]);
        assert_eq!(partial.len(), 3);
        for (degree, inst) in partial {
            let (fd, finst) = full.iter().find(|(d, _)| *d == degree).unwrap();
            assert_eq!(*fd, degree);
            assert_eq!(finst.num_operators(), inst.num_operators());
            assert_eq!(finst.num_queries(), inst.num_queries());
        }
    }

    #[test]
    fn paper_scale_smoke() {
        // Full 2000-query base instance: operator count near 700, incidences
        // near 8800 (Table III's extremes).
        let generator = WorkloadGenerator::new(WorkloadParams::paper(), 1);
        let raw = generator.base_workload(0);
        assert_eq!(raw.num_queries, 2000);
        assert!(
            (500..=1100).contains(&raw.members.len()),
            "base operator count {} outside the paper's ballpark",
            raw.members.len()
        );
        assert!((8500..=9500).contains(&raw.incidences()));
    }
}

impl RawWorkload {
    /// Serializes the workload to JSON (experiment artifacts are stored
    /// alongside the CSVs so every row of the experiment table in
    /// `crates/sim/src/lib.rs` can be regenerated from the exact inputs).
    pub fn save_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let json = serde_json::to_string(self).map_err(std::io::Error::other)?;
        std::fs::write(path, json)
    }

    /// Loads a workload saved by [`RawWorkload::save_json`].
    pub fn load_json(path: &std::path::Path) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json).map_err(std::io::Error::other)
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;

    #[test]
    fn save_load_round_trip() {
        let generator = WorkloadGenerator::new(
            WorkloadParams {
                num_queries: 50,
                base_max_degree: 8,
                ..WorkloadParams::scaled(50)
            },
            3,
        );
        let raw = generator.base_workload(0);
        let dir = std::env::temp_dir().join("cqac-workload-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("w.json");
        raw.save_json(&path).unwrap();
        let back = RawWorkload::load_json(&path).unwrap();
        assert_eq!(back.num_queries, raw.num_queries);
        assert_eq!(back.bids, raw.bids);
        assert_eq!(back.loads, raw.loads);
        assert_eq!(back.members, raw.members);
        std::fs::remove_file(&path).ok();
    }
}
