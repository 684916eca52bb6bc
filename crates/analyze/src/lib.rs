//! # cqac-analyze — static verification of plans and query networks
//!
//! The admission controller of the ICDE 2010 model decides which
//! continuous queries enter a *shared* operator network, so one
//! invariant-violating plan does not fail one query — it corrupts cost
//! attribution and determinism for every co-admitted CQ. This crate is
//! the static-analysis layer that proves the network's invariants hold
//! *before* the auction runs, and the `netlint` binary that gates CI on
//! them.
//!
//! ## Static verification
//!
//! Four passes, one shared diagnostic vocabulary
//! ([`cqac_dsms::diag`], re-exported here):
//!
//! 1. **Plan inference** ([`analyze_plan`] /
//!    [`cqac_dsms::diag::check_plan`]) — full type/schema inference over a
//!    [`LogicalPlan`] with error *accumulation*: every problem is
//!    reported, not just the first, while
//!    [`Report::first_error`] still maps onto the exact
//!    `PlanError` the first-error API produces.
//! 2. **Determinism audit** ([`determinism::audit`]) — independently
//!    re-derives the parallel plan's classification from the *logical*
//!    plans (every stream a root, keyed or keyless; partition-key flow
//!    through filters/projects/fused chains, join/group key
//!    compatibility, partial-aggregate eligibility) and cross-checks the
//!    network's one physical plan, [`cqac_dsms::network::KeyedPlan`], so
//!    the parallel executor's preconditions are *verified*, not assumed:
//!    every stateful node is either behind the deterministic merge
//!    barrier, a keyed member whose state partitions by its input's key,
//!    or a partial member with an exact combine.
//! 3. **Cost-attribution conservation** ([`conservation::check`]) — the
//!    auction's pricing identity, checked in exact integer micro-units:
//!    per-CQ analytic costs across shared nodes sum to the per-node
//!    totals, and node refcounts equal the number of attributing queries.
//! 4. **Sharing lints** ([`sharing::lint`]) — the pinned PR-2
//!    interior-prefix duplication gap surfaces as a warning, plus
//!    dead-node and unreachable-sink detection.
//!
//! ## Diagnostic codes
//!
//! | Code  | Severity | Meaning |
//! |-------|----------|---------|
//! | NL001 | error    | unknown stream |
//! | NL002 | error    | expression type error |
//! | NL003 | error    | filter predicate is not boolean |
//! | NL004 | error    | join key column out of range |
//! | NL005 | error    | unhashable (float) join key — guards `ops.rs`'s join-side `debug_assert` |
//! | NL006 | error    | join key types differ |
//! | NL007 | error    | union inputs have different schemas |
//! | NL008 | error    | zero window (or slide) width |
//! | NL009 | error    | window slide exceeds window width |
//! | NL010 | error    | group-by column out of range |
//! | NL011 | error    | unhashable (float) group key — guards the aggregate `debug_assert`s |
//! | NL012 | error    | aggregated column out of range |
//! | NL013 | error    | aggregated column is not numeric |
//! | NL014 | error    | invalid shard key — guards `ops::shard_of_cell`'s `debug_assert` |
//! | NL020 | error    | keyed-plan classification divergence (logical vs physical) |
//! | NL021 | error    | stateful node fed pre-merge input outside the keyed plan, or an unsafe partial member |
//! | NL030 | error    | per-CQ cost attribution does not sum to per-node totals |
//! | NL031 | error    | node refcounts drift from query attribution lists |
//! | NL040 | warning  | node duplicates the interior of a fused chain (shared-prefix gap) |
//! | NL041 | warning  | live node referenced by no registered query |
//! | NL042 | error    | query sink not wired to its producer |
//! | NL060 | error    | operator kernel panicked at runtime (the quarantine root cause) |
//! | NL061 | error    | query quarantined — it owned a panicked operator |
//! | NL063 | warning  | overload shedding dropped ingest rows from a stream |
//!
//! `netlint` (this crate's binary) runs every pass over the shipped
//! scenario networks ([`scenarios`]) and exits nonzero on errors — or on
//! warnings under `--deny-warnings`, which is how CI runs it. `--json`
//! emits the machine-readable diagnostic array ([`Report::to_json`]).
//!
//! Admission uses the same passes: `QueryNetwork::add_query` rejects any
//! plan whose report has errors, and `DsmsCenter::run_auction` attaches
//! the full report to the [`cqac_dsms::center::Decision`] of every bidder
//! rejected before the auction.
//!
//! The NL06x range is **runtime** diagnostics: no static pass emits them.
//! They are produced by the engine's quarantine and overload machinery
//! (`DsmsEngine::runtime_report` / `DsmsEngine::overload_report`) in the
//! same [`Report`] format, so one toolchain consumes both static and
//! runtime findings.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod conservation;
pub mod determinism;
pub mod scenarios;
pub mod sharing;

pub use cqac_dsms::diag::{check_plan, check_shard_key, Code, Diagnostic, Report, Severity, Span};

use cqac_dsms::cost::CostModel;
use cqac_dsms::engine::DsmsEngine;
use cqac_dsms::network::QueryNetwork;
use cqac_dsms::plan::{LogicalPlan, StreamCatalog};
use std::collections::HashMap;

/// Verifies one logical plan against a stream catalog (pass 1). This is
/// [`cqac_dsms::diag::check_plan`] under the analyzer's name.
pub fn analyze_plan(plan: &LogicalPlan, catalog: &dyn StreamCatalog) -> Report {
    check_plan(plan, catalog)
}

/// Verifies an instantiated network: re-checks every registered plan
/// (pass 1), audits determinism against the given shard keys (pass 2),
/// and runs the sharing lints (pass 4). Cost conservation (pass 3) needs
/// an engine's statistics — use [`analyze_engine`].
pub fn analyze_network(network: &QueryNetwork, shard_keys: &HashMap<String, usize>) -> Report {
    let mut report = Report::new();
    for cq in network.query_ids() {
        if let Some(info) = network.query(cq) {
            report.merge(check_plan(&info.plan, network));
        }
    }
    report.merge(determinism::audit(network, shard_keys));
    report.merge(sharing::lint(network));
    report
}

/// Runs all four passes over a live engine: plan inference and the
/// determinism audit over its network and shard keys, cost-attribution
/// conservation under `model`, and the sharing lints.
pub fn analyze_engine(engine: &DsmsEngine, model: &CostModel) -> Report {
    let mut report = analyze_network(engine.network(), engine.shard_keys());
    report.merge(conservation::check(engine, model));
    report
}
