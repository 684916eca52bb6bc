//! Deterministic fault injection for the robustness layer.
//!
//! A [`FaultPlan`] is a test/bench-visible knob handed to the engine
//! ([`crate::engine::DsmsEngine::set_fault_plan`]) that makes failures
//! *reproducible*: it can panic the Nth kernel invocation of a chosen
//! operator kind, and poison every kernel invocation whose input batch
//! carries a chosen event timestamp. The engine's quarantine machinery
//! (`engine.rs`) is what recovers; this module only *triggers*.
//!
//! Triggers are counted with atomics so the plan can be `Arc`-shared
//! between the control thread and the pool workers, and every trigger
//! fires **exactly once** (fetch-and-swap claims), which keeps soak tests
//! deterministic: a 100-seed soak derives `(kind, nth)` pairs from the
//! seed via [`FaultPlan::seeded`] and replays bit-identically.

use crate::ops::OPERATOR_KINDS;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// The message prefix of every injected kernel panic, so reports (and
/// tests) can tell injected faults from genuine operator bugs.
pub const INJECTED_PANIC_PREFIX: &str = "injected fault";

/// A deterministic, `Sync` fault schedule (see module docs).
///
/// All triggers are optional and independent; a plan with none set is
/// inert. Invocation counting is per *operator kind*, shared across every
/// node of that kind and across the control thread and all workers —
/// which keeps the Nth-invocation trigger meaningful under any shard
/// count, because the quarantine contract is asserted on *outputs*, not
/// on which thread happened to hit the trigger.
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Per-kind invocation counters, indexed like [`OPERATOR_KINDS`].
    counters: [AtomicU64; 6],
    /// `panic_at[kind] == Some(n)` panics the `n`-th (1-based) kernel
    /// invocation of that kind.
    panic_at: [Option<u64>; 6],
    /// One-shot claims for the count-based panics.
    fired: [AtomicBool; 6],
    /// Any kernel invocation whose input batch carries this event
    /// timestamp panics (a poison row: content-triggered, so the fault
    /// site is independent of shard count and of which job walks a home).
    poison_ts: Option<u64>,
}

fn kind_index(kind: &str) -> Option<usize> {
    OPERATOR_KINDS.iter().position(|k| *k == kind)
}

impl FaultPlan {
    /// An inert plan (no triggers).
    pub fn new() -> Self {
        Self::default()
    }

    /// Panics the `nth` (1-based) kernel invocation of operator `kind`
    /// (builder form).
    ///
    /// # Panics
    /// Panics when `kind` is not one of [`OPERATOR_KINDS`] or `nth == 0`.
    #[must_use]
    pub fn panic_on(mut self, kind: &str, nth: u64) -> Self {
        let idx = kind_index(kind)
            .unwrap_or_else(|| panic!("unknown operator kind '{kind}' (see OPERATOR_KINDS)"));
        assert!(nth > 0, "invocation counts are 1-based");
        self.panic_at[idx] = Some(nth);
        self
    }

    /// Panics every kernel invocation whose input batch carries event
    /// timestamp `ts` (builder form). Content-triggered, so the fault
    /// fires at the same logical point regardless of shard count.
    #[must_use]
    pub fn with_poison_ts(mut self, ts: u64) -> Self {
        self.poison_ts = Some(ts);
        self
    }

    /// A seed-derived single-panic plan: picks one operator kind and one
    /// invocation number (1..=`max_nth`) from `seed` via a splitmix64
    /// step, so a seed sweep covers every kind and a spread of fault
    /// depths deterministically.
    #[must_use]
    pub fn seeded(seed: u64, max_nth: u64) -> Self {
        let mut x = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut next = move || {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let kind = OPERATOR_KINDS[(next() % OPERATOR_KINDS.len() as u64) as usize];
        let nth = 1 + next() % max_nth.max(1);
        Self::new().panic_on(kind, nth)
    }

    /// The configured poison timestamp, if any.
    pub fn poison_ts(&self) -> Option<u64> {
        self.poison_ts
    }

    /// The kernel-invocation hook: counts one invocation of `kind` over a
    /// batch with timestamps `ts`, and panics when a trigger fires. Called
    /// by the engine immediately before every operator kernel call; the
    /// engine's per-invocation `catch_unwind` net turns the panic into a
    /// quarantine of the owning queries.
    ///
    /// # Panics
    /// Panics when a count-based or poison trigger fires — that is the
    /// injection.
    pub fn before_kernel(&self, kind: &str, ts: &[u64]) {
        if let Some(poison) = self.poison_ts {
            if ts.contains(&poison) {
                panic!("{INJECTED_PANIC_PREFIX}: poison row (ts {poison}) entering {kind} kernel");
            }
        }
        let Some(idx) = kind_index(kind) else {
            return;
        };
        let count = self.counters[idx].fetch_add(1, Ordering::AcqRel) + 1;
        if self.panic_at[idx] == Some(count) && !self.fired[idx].swap(true, Ordering::AcqRel) {
            panic!("{INJECTED_PANIC_PREFIX}: {kind} kernel invocation #{count}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_invocation_trigger_fires_exactly_once() {
        let plan = FaultPlan::new().panic_on("filter", 3);
        plan.before_kernel("filter", &[1]);
        plan.before_kernel("filter", &[2]);
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.before_kernel("filter", &[3]);
        }));
        assert!(hit.is_err(), "third invocation must panic");
        // One-shot: the counter keeps advancing, the trigger does not.
        plan.before_kernel("filter", &[4]);
        // Other kinds are independent.
        plan.before_kernel("aggregate", &[5]);
    }

    #[test]
    fn poison_row_triggers_on_content() {
        let plan = FaultPlan::new().with_poison_ts(42);
        plan.before_kernel("join", &[1, 2, 3]);
        let hit = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            plan.before_kernel("join", &[41, 42]);
        }));
        assert!(hit.is_err(), "poison ts must panic");
    }

    #[test]
    fn seeded_plans_are_deterministic_and_cover_kinds() {
        let mut kinds = std::collections::HashSet::new();
        for seed in 0..64u64 {
            let a = FaultPlan::seeded(seed, 10);
            let b = FaultPlan::seeded(seed, 10);
            assert_eq!(a.panic_at, b.panic_at, "seed {seed} must replay");
            kinds.insert(a.panic_at.iter().position(Option::is_some).unwrap());
        }
        assert_eq!(
            kinds.len(),
            OPERATOR_KINDS.len(),
            "seed sweep covers all kinds"
        );
    }
}
