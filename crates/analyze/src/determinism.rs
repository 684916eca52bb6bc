//! Pass 2: the determinism audit.
//!
//! The morsel scheduler's correctness argument (see `cqac-dsms`'s module
//! docs) rests on a classification the network computes physically, by
//! asking each operator for its `class` / `keyed_out` /
//! `keyed_commutative` / `keyed_partial` properties: which nodes may run
//! *inside* the worker shards against partitioned state, which must stay
//! behind the deterministic merge barrier, and which stateful members are
//! order-free (commutative absorption) versus order-sensitive (chain
//! morsels).
//!
//! This pass **re-derives the same classification from the logical
//! plans** — every registered stream is a root of the plan, covered with
//! its shard key or with none; partition-key flow through filters,
//! projections, and fused chains; join-key and group-key compatibility
//! (which take a known key, so never hold behind a keyless root);
//! exact-combine eligibility of partial aggregates (ungrouped, or grouped
//! at a shard-incompatible group key, or behind a keyless root) — and
//! cross-checks the physical
//! [`KeyedPlan`] node by node. A divergence means one side's reasoning
//! is wrong, and the sharded run could silently reorder state mutations:
//! diagnostic NL020 ([`Code::KeyedClassificationDivergence`]). A
//! stateful member whose claimed commutativity contradicts the logical
//! derivation, a partial member with in-plan consumers, or a partial
//! member whose logical combine is order-sensitive (inexact — per-worker
//! partials would merge in a worker-dependent order) would let the
//! scheduler steal morsels across an order-sensitive operator:
//! diagnostic NL021 ([`Code::StatefulOrderUnsafe`]).
//!
//! Shard keys themselves are validated first (NL014, [`Code::BadShardKey`])
//! — an invalid key would otherwise reach `ops::shard_of_cell`'s
//! release-mode fallback.

use cqac_dsms::diag::{check_shard_key, Code, Diagnostic, Report, Span};
use cqac_dsms::network::{KeyedPlan, NodeId, QueryNetwork};
use cqac_dsms::ops::OpClass;
use cqac_dsms::plan::{AggFunc, LogicalPlan, StreamCatalog};
use cqac_dsms::types::{DataType, Schema};
use std::collections::HashMap;

/// What the logical re-derivation expects of one plan signature's
/// physical node.
#[derive(Clone, Debug, PartialEq)]
struct Expectation {
    /// In the keyed plan at all (member or partial member)?
    member: bool,
    /// A keyed *stateful* member (join / aggregate with partitioned
    /// state)?
    stateful: bool,
    /// A partial-aggregation member (per-worker partials, merge-barrier
    /// output)?
    partial: bool,
    /// For stateful operators: is absorption order-free (commutative)?
    /// `None` for stateless nodes, where the question does not arise.
    commutative: Option<bool>,
    /// The logical exact-combine derivation, recorded for every operator
    /// that *could* hold partitioned state — member or not — so a
    /// physical partial can be checked for order sensitivity even when
    /// the membership itself diverges. `None` where combining never
    /// happens (stateless operators, unions).
    exact: Option<bool>,
}

/// The result of classifying one logical sub-plan.
struct Derived {
    /// Sub-plan output schema (`None` after an unregistered stream — the
    /// plan pass reports that separately).
    schema: Option<Schema>,
    /// Whether this sub-plan's output is produced inside the keyed plan
    /// (so a downstream member may consume it shard-locally).
    covered: bool,
    /// The partition key's column position in the output, when covered
    /// and a key is known there: the stream has a shard key and it
    /// survived this far.
    key: Option<usize>,
}

/// Audits the network's keyed-plan classification against an independent
/// logical derivation (see module docs).
pub fn audit(network: &QueryNetwork, shard_keys: &HashMap<String, usize>) -> Report {
    let mut report = Report::new();

    // NL014: shard keys must fit their stream schemas. Keys configured
    // ahead of stream registration are deferred, exactly as the engine
    // defers their validation.
    let mut streams: Vec<(&String, usize)> = shard_keys.iter().map(|(s, &c)| (s, c)).collect();
    streams.sort();
    for (stream, column) in streams {
        if let Some(schema) = network.stream_schema(stream) {
            report.merge(check_shard_key(schema, stream, column));
        }
    }
    if report.has_errors() {
        // A bad shard key invalidates the whole classification; don't
        // pile divergence diagnostics on top of the root cause.
        return report;
    }

    // Logical derivation: one expectation per plan signature.
    let mut expectations: HashMap<String, Expectation> = HashMap::new();
    for cq in network.query_ids() {
        let Some(info) = network.query(cq) else {
            continue;
        };
        derive(&info.plan, network, shard_keys, &mut expectations);
    }

    // Physical classification.
    let keyed = network.keyed_plan(shard_keys);
    let mut physical: HashMap<NodeId, (bool, bool)> = HashMap::new(); // id → (stateful, partial)
    for n in &keyed.nodes {
        physical.insert(n.id, (n.stateful, n.partial));
        if n.partial && !n.internal.is_empty() {
            report.push(Diagnostic::new(
                Code::StatefulOrderUnsafe,
                Span::Node(n.id.0),
                format!(
                    "partial-aggregation member n{} has {} in-plan consumer(s); \
                     partial output is produced behind the merge barrier and \
                     must not feed shard-local execution",
                    n.id.0,
                    n.internal.len()
                ),
            ));
        }
    }

    // Cross-check every live node that has a logical expectation.
    for id in network.node_ids() {
        let Some(node) = network.node(id) else {
            continue;
        };
        let Some(expect) = expectations.get(&node.signature) else {
            // A physical member the logical derivation cannot explain is a
            // classification divergence; an out-of-plan node without an
            // expectation is just a signature the walk never produced
            // (cannot happen for registered queries, but stay lenient).
            if physical.contains_key(&id) {
                report.push(Diagnostic::new(
                    Code::KeyedClassificationDivergence,
                    Span::Node(id.0),
                    format!(
                        "keyed-plan member n{} ({}) has no logical derivation \
                         for signature {:?}",
                        id.0, node.kind, node.signature
                    ),
                ));
            }
            continue;
        };
        let actual = physical.get(&id);
        // NL021 first: a physical partial member whose logical combine is
        // order-sensitive would merge per-worker partials in a
        // worker-dependent order. Named before the membership
        // cross-check — such a node usually also diverges on membership,
        // but the order-safety violation is the operative risk.
        if actual.is_some_and(|&(_, partial)| partial) && expect.exact == Some(false) {
            report.push(Diagnostic::new(
                Code::StatefulOrderUnsafe,
                Span::Node(id.0),
                format!(
                    "n{} ({}) is classified a partial-aggregation member but its \
                     logical combine is inexact (order-sensitive); per-worker \
                     partials would combine in a worker-dependent order",
                    id.0, node.kind
                ),
            ));
        }
        if expect.member != actual.is_some() {
            report.push(Diagnostic::new(
                Code::KeyedClassificationDivergence,
                Span::Node(id.0),
                format!(
                    "n{} ({}): logical derivation says {} the keyed plan, \
                     the network classified it {}",
                    id.0,
                    node.kind,
                    if expect.member {
                        "member of"
                    } else {
                        "outside"
                    },
                    if actual.is_some() {
                        "inside"
                    } else {
                        "outside (merge barrier)"
                    },
                ),
            ));
            continue;
        }
        if let Some(&(stateful, partial)) = actual {
            if expect.stateful != stateful || expect.partial != partial {
                report.push(Diagnostic::new(
                    Code::KeyedClassificationDivergence,
                    Span::Node(id.0),
                    format!(
                        "n{} ({}): logical derivation expects stateful={} \
                         partial={}, network claims stateful={} partial={}",
                        id.0, node.kind, expect.stateful, expect.partial, stateful, partial
                    ),
                ));
            }
        }
        // Order safety of stateful operators: the physical commutativity
        // claim (which decides whether the scheduler may split a home
        // shard's work into independently stealable morsels) must match
        // the logical exact-combine derivation.
        if let Some(expected_commutative) = expect.commutative {
            let claimed = node.op.keyed_commutative();
            if claimed != expected_commutative {
                report.push(Diagnostic::new(
                    Code::StatefulOrderUnsafe,
                    Span::Node(id.0),
                    format!(
                        "n{} ({}): operator claims keyed_commutative={claimed} but the \
                         logical derivation proves {expected_commutative} — an \
                         order-sensitive absorption could be reordered by work stealing",
                        id.0, node.kind
                    ),
                ));
            }
        }
    }

    verify_barrier_coverage(network, &keyed, &mut report);
    report
}

/// Every stateful node must be *either* a verified keyed member (its
/// state partitions by the same key that partitions its input, checked
/// above) *or* entirely outside the keyed plan — fed whole, merged
/// batches on the control thread, behind the deterministic merge barrier.
/// A stateful node that is neither would see shard-interleaved input with
/// unpartitioned state. With the network's two-way classification this is
/// structural, so the check is a belt-and-braces invariant scan over the
/// keyed plan's internal edges: no member may feed a stateful
/// *non-member* in-plan (such an edge must be an exit).
fn verify_barrier_coverage(network: &QueryNetwork, keyed: &KeyedPlan, report: &mut Report) {
    for member in &keyed.nodes {
        for &(consumer_idx, _port) in &member.internal {
            let consumer = &keyed.nodes[consumer_idx];
            let Some(node) = network.node(consumer.id) else {
                continue;
            };
            let is_stateful_member = consumer.stateful;
            let claims_stateless = node.op.class() == OpClass::Stateless;
            if !is_stateful_member && !claims_stateless {
                report.push(Diagnostic::new(
                    Code::StatefulOrderUnsafe,
                    Span::Node(consumer.id.0),
                    format!(
                        "n{} receives in-plan (pre-merge) input but is neither a \
                         keyed stateful member nor stateless — it must sit behind \
                         the merge barrier",
                        consumer.id.0
                    ),
                ));
            }
        }
    }
}

/// Whether an aggregate's combine is exact — re-derived from the
/// *logical* function and input column type, independently of
/// `AggregateOp::combine_exact`: `Count`/`Min`/`Max` always are;
/// `Sum`/`Avg` only over integer inputs (the i128 accumulator), because
/// float addition does not associate.
fn combine_exact(func: AggFunc, input_type: Option<DataType>) -> bool {
    match func {
        AggFunc::Count | AggFunc::Min | AggFunc::Max => true,
        AggFunc::Sum | AggFunc::Avg => input_type == Some(DataType::Int),
    }
}

/// Classifies `plan` bottom-up, recording one [`Expectation`] per
/// sub-plan signature (signatures are canonical, so identical sub-plans
/// across queries agree by construction).
fn derive(
    plan: &LogicalPlan,
    catalog: &dyn StreamCatalog,
    shard_keys: &HashMap<String, usize>,
    out: &mut HashMap<String, Expectation>,
) -> Derived {
    let record = |out: &mut HashMap<String, Expectation>, e: Expectation| {
        out.insert(plan.signature(), e);
    };
    match plan {
        // Every registered stream is a root: covered, key known or not.
        LogicalPlan::Source { stream } => Derived {
            schema: catalog.stream_schema(stream).cloned(),
            covered: catalog.stream_schema(stream).is_some(),
            key: shard_keys.get(stream).copied(),
        },
        LogicalPlan::Filter { input, .. } => {
            let d = derive(input, catalog, shard_keys, out);
            record(
                out,
                Expectation {
                    member: d.covered,
                    stateful: false,
                    partial: false,
                    commutative: None,
                    exact: None,
                },
            );
            Derived {
                schema: d.schema,
                covered: d.covered,
                key: if d.covered { d.key } else { None },
            }
        }
        LogicalPlan::Project { input, columns } => {
            let d = derive(input, catalog, shard_keys, out);
            // The key survives a projection only at the first column that
            // forwards it verbatim — the same rule `ProjectOp::keyed_out`
            // applies positionally.
            let key = d
                .key
                .and_then(|k| columns.iter().position(|(_, e)| e.as_col() == Some(k)));
            record(
                out,
                Expectation {
                    member: d.covered,
                    stateful: false,
                    partial: false,
                    commutative: None,
                    exact: None,
                },
            );
            Derived {
                schema: plan_schema_of(plan, catalog),
                covered: d.covered,
                key: if d.covered { key } else { None },
            }
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
            ..
        } => {
            let dl = derive(left, catalog, shard_keys, out);
            let dr = derive(right, catalog, shard_keys, out);
            // A join runs inside the shards only when *both* inputs are
            // in-plan and partitioned exactly by their join keys: equal
            // join keys then already share a home shard, so per-shard
            // join state is exact.
            let member =
                dl.covered && dr.covered && dl.key == Some(*left_key) && dr.key == Some(*right_key);
            record(
                out,
                Expectation {
                    member,
                    stateful: member,
                    partial: false,
                    // Symmetric-hash-join absorption produces inline
                    // probe outputs whose order is observable: never
                    // order-free.
                    commutative: member.then_some(false),
                    exact: Some(false),
                },
            );
            Derived {
                schema: plan_schema_of(plan, catalog),
                covered: member,
                // The left key column keeps its position in the joined
                // output (left schema ⊕ right schema).
                key: member.then_some(*left_key),
            }
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            func,
            column,
            ..
        } => {
            let d = derive(input, catalog, shard_keys, out);
            let input_type = match (func, &d.schema) {
                (AggFunc::Count, _) => Some(DataType::Int),
                (_, Some(s)) => s.fields.get(*column).map(|f| f.data_type),
                (_, None) => None,
            };
            let exact = combine_exact(*func, input_type);
            match group_by {
                Some(g) => {
                    // Grouped: a *full* member exactly when the partition
                    // key IS the group key (equal groups share a home
                    // shard). At any other key the groups span shards, so
                    // the node joins only as a grouped *partial* member —
                    // per-worker hash partials, merge-barrier output —
                    // and only when its combine is exact.
                    let full = d.covered && d.key == Some(*g);
                    let partial = d.covered && !full && exact;
                    let member = full || partial;
                    record(
                        out,
                        Expectation {
                            member,
                            stateful: member,
                            partial,
                            commutative: member.then_some(exact),
                            exact: Some(exact),
                        },
                    );
                    Derived {
                        schema: plan_schema_of(plan, catalog),
                        covered: full,
                        // Output layout: (window_end, group, value) — the
                        // group key lands at column 1.
                        key: full.then_some(1),
                    }
                }
                None => {
                    // Ungrouped: the single group spans every shard, so
                    // the node joins the plan only as a *partial* member
                    // — and only when its combine is exact. Its output is
                    // always produced behind the merge barrier.
                    let member = d.covered && exact;
                    record(
                        out,
                        Expectation {
                            member,
                            stateful: member,
                            partial: member,
                            commutative: member.then_some(exact),
                            exact: Some(exact),
                        },
                    );
                    Derived {
                        schema: plan_schema_of(plan, catalog),
                        covered: false,
                        key: None,
                    }
                }
            }
        }
        LogicalPlan::Union { left, right } => {
            let _ = derive(left, catalog, shard_keys, out);
            let _ = derive(right, catalog, shard_keys, out);
            // Unions interleave two arrival orders: always a merge
            // barrier, never in-plan.
            record(
                out,
                Expectation {
                    member: false,
                    stateful: false,
                    partial: false,
                    commutative: None,
                    exact: None,
                },
            );
            Derived {
                schema: plan_schema_of(plan, catalog),
                covered: false,
                key: None,
            }
        }
    }
}

/// The sub-plan's output schema, when it has one (registered queries
/// always do; the plan pass reports the broken ones separately).
fn plan_schema_of(plan: &LogicalPlan, catalog: &dyn StreamCatalog) -> Option<Schema> {
    plan.output_schema(catalog).ok()
}
