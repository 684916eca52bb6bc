//! Structured diagnostics for static plan and network verification.
//!
//! Every invariant the runtime depends on — hashable join/group/shard
//! keys, in-range column references, positive windows, identical union
//! schemas — is checked here *before* any operator is built, as a list of
//! [`Diagnostic`]s with stable codes (`NL0xx`), severities, and spans.
//! Unlike [`LogicalPlan::output_schema`], which stops at the first
//! [`PlanError`], [`check_plan`] **accumulates**: a submission with three
//! problems produces three diagnostics, so a rejected bidder learns
//! everything wrong with her query in one round trip.
//!
//! The framework is shared by two consumers:
//!
//! * **admission** — [`crate::network::QueryNetwork::add_query`] and the
//!   [`crate::center::DsmsCenter`] auction verify every plan and reject
//!   error-severity submissions with the full report attached;
//! * **`cqac-analyze`** — the static network analyzer builds its
//!   determinism, cost-conservation, and sharing passes on these same
//!   types, so `netlint` output and admission rejections speak one
//!   diagnostic vocabulary.
//!
//! See the `cqac-analyze` crate docs for the full diagnostic-code table.

use crate::plan::{AggFunc, LogicalPlan, PlanError, StreamCatalog};
use crate::types::{DataType, Field, Schema};
use std::fmt;

/// How bad a diagnostic is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Legal but suspicious — admission proceeds; `netlint
    /// --deny-warnings` fails.
    Warning,
    /// An invariant violation: the plan (or network) must not run.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Stable diagnostic codes. The numeric ranges group the passes:
/// `NL001`–`NL019` plan-level type/schema inference, `NL020`–`NL029`
/// determinism audit, `NL030`–`NL039` cost-attribution conservation,
/// `NL040`–`NL049` sharing lints, `NL060`–`NL069` runtime robustness
/// events (quarantine, worker death, overload shedding).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Code {
    /// NL001: a referenced stream is not registered.
    UnknownStream,
    /// NL002: an expression failed to type check.
    ExprType,
    /// NL003: a filter predicate is not boolean.
    PredicateNotBool,
    /// NL004: a join key column is out of range.
    JoinKeyOutOfRange,
    /// NL005: a join key column is not hashable (float).
    UnhashableJoinKey,
    /// NL006: the two join key columns have different types.
    JoinKeyTypeMismatch,
    /// NL007: union inputs have different schemas.
    UnionSchemaMismatch,
    /// NL008: a window (or slide) width is zero.
    ZeroWindow,
    /// NL009: a window slide exceeds the window width.
    SlideExceedsWindow,
    /// NL010: a group-by column is out of range.
    GroupKeyOutOfRange,
    /// NL011: a group-by column is not hashable (float).
    UnhashableGroupKey,
    /// NL012: an aggregated column is out of range.
    AggColumnOutOfRange,
    /// NL013: an aggregated column is not numeric.
    AggColumnNotNumeric,
    /// NL014: a shard key is out of range or not hashable for its stream.
    BadShardKey,
    /// NL020: the keyed-plan classification derived from the logical
    /// plans diverges from the network's physical classification.
    KeyedClassificationDivergence,
    /// NL021: a stateful node's ordering safety cannot be proven — it
    /// receives pre-merge input without being a keyed stateful member, a
    /// partial member feeds in-plan consumers, or a partial member's
    /// combine is inexact (order-sensitive).
    StatefulOrderUnsafe,
    /// NL030: per-CQ attributed costs do not sum to the per-node totals.
    CostNotConserved,
    /// NL031: node refcounts diverge from per-query attribution lists.
    AttributionDrift,
    /// NL040: a node duplicates an interior stage of a fused chain
    /// (the pinned fusion/sharing tradeoff — duplicate work, identical
    /// results).
    InteriorPrefixDuplicate,
    /// NL041: a live node is referenced by no registered query.
    DeadNode,
    /// NL042: a query's sink is not wired to its producer.
    UnreachableSink,
    /// NL060: an operator kernel panicked at runtime (worker or control
    /// thread). The invocation's outputs were dropped and every query
    /// owning the node was quarantined.
    OperatorPanic,
    /// NL061: a continuous query was quarantined because one of its
    /// operators panicked — it stops serving and its bidder's payment is
    /// voided.
    QuarantinedQuery,
    /// NL062: a worker died at the start of its job; the homes it left
    /// unclaimed were walked on the control thread, and a pool seat's
    /// thread was respawned before the next flush.
    WorkerDeath,
    /// NL063: ingress exceeded the configured overload budget and whole
    /// ingestion batches were shed, lowest-priority stream first.
    OverloadShed,
}

impl Code {
    /// The stable `NL0xx` code string.
    pub fn as_str(self) -> &'static str {
        match self {
            Code::UnknownStream => "NL001",
            Code::ExprType => "NL002",
            Code::PredicateNotBool => "NL003",
            Code::JoinKeyOutOfRange => "NL004",
            Code::UnhashableJoinKey => "NL005",
            Code::JoinKeyTypeMismatch => "NL006",
            Code::UnionSchemaMismatch => "NL007",
            Code::ZeroWindow => "NL008",
            Code::SlideExceedsWindow => "NL009",
            Code::GroupKeyOutOfRange => "NL010",
            Code::UnhashableGroupKey => "NL011",
            Code::AggColumnOutOfRange => "NL012",
            Code::AggColumnNotNumeric => "NL013",
            Code::BadShardKey => "NL014",
            Code::KeyedClassificationDivergence => "NL020",
            Code::StatefulOrderUnsafe => "NL021",
            Code::CostNotConserved => "NL030",
            Code::AttributionDrift => "NL031",
            Code::InteriorPrefixDuplicate => "NL040",
            Code::DeadNode => "NL041",
            Code::UnreachableSink => "NL042",
            Code::OperatorPanic => "NL060",
            Code::QuarantinedQuery => "NL061",
            Code::WorkerDeath => "NL062",
            Code::OverloadShed => "NL063",
        }
    }

    /// The default severity of the code.
    pub fn severity(self) -> Severity {
        match self {
            Code::InteriorPrefixDuplicate | Code::DeadNode | Code::OverloadShed => {
                Severity::Warning
            }
            _ => Severity::Error,
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Where a diagnostic points.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Span {
    /// A path into a logical plan, root-first: `$` is the submitted plan,
    /// `.input` / `.left` / `.right` descend one operator.
    Plan(String),
    /// A physical node of the query network.
    Node(u32),
    /// A registered continuous query.
    Query(u32),
    /// A registered input stream.
    Stream(String),
    /// The network as a whole.
    Network,
}

impl fmt::Display for Span {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Span::Plan(p) => f.write_str(p),
            Span::Node(n) => write!(f, "n{n}"),
            Span::Query(q) => write!(f, "cq{q}"),
            Span::Stream(s) => write!(f, "stream '{s}'"),
            Span::Network => f.write_str("network"),
        }
    }
}

/// One verified problem.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// The stable code.
    pub code: Code,
    /// How bad it is.
    pub severity: Severity,
    /// Where it points.
    pub span: Span,
    /// Human-readable description.
    pub message: String,
    /// The equivalent first-error [`PlanError`], for plan-level
    /// diagnostics (admission maps the first error-severity diagnostic
    /// back onto the `Result`-based API).
    pub error: Option<PlanError>,
}

impl Diagnostic {
    /// A diagnostic at the code's default severity with no
    /// [`PlanError`] payload.
    pub fn new(code: Code, span: Span, message: impl Into<String>) -> Self {
        Diagnostic {
            code,
            severity: code.severity(),
            span,
            message: message.into(),
            error: None,
        }
    }

    /// Attaches the equivalent [`PlanError`].
    pub fn with_error(mut self, error: PlanError) -> Self {
        self.error = Some(error);
        self
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {} ({})",
            self.severity, self.code, self.message, self.span
        )
    }
}

/// An accumulated list of diagnostics — the analyzer's result type.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Report {
    /// Diagnostics in discovery order (a deterministic walk order, so
    /// reports are stable across runs).
    pub diagnostics: Vec<Diagnostic>,
}

impl Report {
    /// An empty report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one diagnostic.
    pub fn push(&mut self, d: Diagnostic) {
        self.diagnostics.push(d);
    }

    /// Merges another report's diagnostics into this one.
    pub fn merge(&mut self, other: Report) {
        self.diagnostics.extend(other.diagnostics);
    }

    /// True when no diagnostics were produced.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True when any diagnostic is error severity.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity == Severity::Error)
    }

    /// Number of error-severity diagnostics.
    pub fn num_errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity diagnostics.
    pub fn num_warnings(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Warning)
            .count()
    }

    /// True when the report contains a diagnostic with the given code.
    pub fn has_code(&self, code: Code) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// The first error-severity diagnostic mapped back to the
    /// [`PlanError`] the first-error API would have produced.
    pub fn first_error(&self) -> Option<PlanError> {
        self.diagnostics
            .iter()
            .find(|d| d.severity == Severity::Error)
            .map(|d| {
                d.error
                    .clone()
                    .unwrap_or_else(|| PlanError::Expr(d.message.clone()))
            })
    }

    /// Renders the report as a JSON array of diagnostic objects —
    /// machine-readable output for `netlint --json` and rejected-bidder
    /// responses.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, d) in self.diagnostics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"code\":\"");
            out.push_str(d.code.as_str());
            out.push_str("\",\"severity\":\"");
            out.push_str(match d.severity {
                Severity::Warning => "warning",
                Severity::Error => "error",
            });
            out.push_str("\",\"span\":\"");
            escape_json_into(&d.span.to_string(), &mut out);
            out.push_str("\",\"message\":\"");
            escape_json_into(&d.message, &mut out);
            out.push_str("\"}");
        }
        out.push(']');
        out
    }
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

fn escape_json_into(s: &str, out: &mut String) {
    use std::fmt::Write as _;
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

/// Type/schema inference over a whole plan with error accumulation —
/// the multi-diagnostic subsumption of [`LogicalPlan::output_schema`].
///
/// Guarantees, pinned by tests:
///
/// * **agreement** — `check_plan` reports at least one error exactly when
///   `output_schema` returns `Err`, and [`Report::first_error`] equals the
///   error `output_schema` produces;
/// * **accumulation** — independent problems each get their own
///   diagnostic (inference recovers a best-effort schema and keeps
///   walking wherever types are still known).
pub fn check_plan(plan: &LogicalPlan, catalog: &dyn StreamCatalog) -> Report {
    let mut report = Report::new();
    walk(plan, catalog, "$", &mut report);
    report
}

/// Recursive best-effort inference: returns the node's output schema when
/// it is still known, pushing every discovered problem into `report`.
fn walk(
    plan: &LogicalPlan,
    catalog: &dyn StreamCatalog,
    path: &str,
    report: &mut Report,
) -> Option<Schema> {
    match plan {
        LogicalPlan::Source { stream } => match catalog.stream_schema(stream) {
            Some(s) => Some(s.clone()),
            None => {
                report.push(
                    Diagnostic::new(
                        Code::UnknownStream,
                        Span::Plan(path.to_string()),
                        format!("unknown stream '{stream}'"),
                    )
                    .with_error(PlanError::UnknownStream(stream.clone())),
                );
                None
            }
        },
        LogicalPlan::Filter { input, predicate } => {
            let schema = walk(input, catalog, &format!("{path}.input"), report)?;
            let mut errors = Vec::new();
            let t = predicate.check_types(&schema, &mut errors);
            for e in errors {
                report.push(
                    Diagnostic::new(
                        Code::ExprType,
                        Span::Plan(path.to_string()),
                        format!("filter predicate: {e}"),
                    )
                    .with_error(PlanError::Expr(e.to_string())),
                );
            }
            if let Some(t) = t {
                if t != DataType::Bool {
                    report.push(
                        Diagnostic::new(
                            Code::PredicateNotBool,
                            Span::Plan(path.to_string()),
                            format!("filter predicate must be boolean, found {t:?}"),
                        )
                        .with_error(PlanError::Expr("filter predicate must be boolean".into())),
                    );
                }
            }
            Some(schema)
        }
        LogicalPlan::Project { input, columns } => {
            let schema = walk(input, catalog, &format!("{path}.input"), report)?;
            let mut fields = Vec::with_capacity(columns.len());
            let mut known = true;
            for (name, expr) in columns {
                let mut errors = Vec::new();
                match expr.check_types(&schema, &mut errors) {
                    Some(t) => fields.push(Field::new(name.clone(), t)),
                    None => known = false,
                }
                for e in errors {
                    report.push(
                        Diagnostic::new(
                            Code::ExprType,
                            Span::Plan(path.to_string()),
                            format!("projected column '{name}': {e}"),
                        )
                        .with_error(PlanError::Expr(e.to_string())),
                    );
                }
            }
            known.then(|| Schema::new(fields))
        }
        LogicalPlan::Join {
            left,
            right,
            left_key,
            right_key,
            window_ms,
        } => {
            if *window_ms == 0 {
                report.push(
                    Diagnostic::new(
                        Code::ZeroWindow,
                        Span::Plan(path.to_string()),
                        "join window width must be positive",
                    )
                    .with_error(PlanError::ZeroWindow),
                );
            }
            let ls = walk(left, catalog, &format!("{path}.left"), report);
            let rs = walk(right, catalog, &format!("{path}.right"), report);
            let lk = ls
                .as_ref()
                .and_then(|s| check_key(s, *left_key, "join left key", path, report));
            let rk = rs
                .as_ref()
                .and_then(|s| check_key(s, *right_key, "join right key", path, report));
            if let (Some(lk), Some(rk)) = (lk, rk) {
                if lk != rk {
                    report.push(
                        Diagnostic::new(
                            Code::JoinKeyTypeMismatch,
                            Span::Plan(path.to_string()),
                            format!("join key types differ: {lk:?} vs {rk:?}"),
                        )
                        .with_error(PlanError::Expr(format!(
                            "join key types differ: {lk:?} vs {rk:?}"
                        ))),
                    );
                }
            }
            Some(ls?.join(&rs?))
        }
        LogicalPlan::Aggregate {
            input,
            group_by,
            func,
            column,
            window_ms,
            slide_ms,
        } => {
            if *window_ms == 0 || *slide_ms == 0 {
                report.push(
                    Diagnostic::new(
                        Code::ZeroWindow,
                        Span::Plan(path.to_string()),
                        "aggregate window and slide widths must be positive",
                    )
                    .with_error(PlanError::ZeroWindow),
                );
            } else if *slide_ms > *window_ms {
                report.push(
                    Diagnostic::new(
                        Code::SlideExceedsWindow,
                        Span::Plan(path.to_string()),
                        format!("window slide {slide_ms}ms exceeds window width {window_ms}ms"),
                    )
                    .with_error(PlanError::Expr(
                        "window slide must not exceed the window width".into(),
                    )),
                );
            }
            let schema = walk(input, catalog, &format!("{path}.input"), report)?;
            let mut fields = vec![Field::new("window_end", DataType::Int)];
            let mut known = true;
            if let Some(g) = group_by {
                match schema.fields.get(*g) {
                    None => {
                        report.push(
                            Diagnostic::new(
                                Code::GroupKeyOutOfRange,
                                Span::Plan(path.to_string()),
                                format!("group-by column {g} out of range"),
                            )
                            .with_error(PlanError::ColumnOutOfRange {
                                context: "group by",
                                index: *g,
                            }),
                        );
                        known = false;
                    }
                    Some(gf) => {
                        if gf.data_type == DataType::Float {
                            report.push(
                                Diagnostic::new(
                                    Code::UnhashableGroupKey,
                                    Span::Plan(path.to_string()),
                                    format!(
                                        "group-by column {g} has type Float, which is not hashable"
                                    ),
                                )
                                .with_error(PlanError::UnhashableJoinKey(gf.data_type)),
                            );
                        }
                        fields.push(gf.clone());
                    }
                }
            }
            let in_type = if *func == AggFunc::Count {
                Some(DataType::Int)
            } else {
                match schema.fields.get(*column) {
                    None => {
                        report.push(
                            Diagnostic::new(
                                Code::AggColumnOutOfRange,
                                Span::Plan(path.to_string()),
                                format!("aggregated column {column} out of range"),
                            )
                            .with_error(PlanError::ColumnOutOfRange {
                                context: "aggregate column",
                                index: *column,
                            }),
                        );
                        None
                    }
                    Some(cf) => {
                        if !matches!(cf.data_type, DataType::Int | DataType::Float) {
                            report.push(
                                Diagnostic::new(
                                    Code::AggColumnNotNumeric,
                                    Span::Plan(path.to_string()),
                                    format!(
                                        "cannot aggregate non-numeric column {:?}",
                                        cf.data_type
                                    ),
                                )
                                .with_error(PlanError::Expr(
                                    format!(
                                        "cannot aggregate non-numeric column {:?}",
                                        cf.data_type
                                    ),
                                )),
                            );
                        }
                        Some(cf.data_type)
                    }
                }
            };
            match in_type {
                Some(t) => fields.push(Field::new(func.name(), func.result_type(t))),
                None => known = false,
            }
            known.then(|| Schema::new(fields))
        }
        LogicalPlan::Union { left, right } => {
            let ls = walk(left, catalog, &format!("{path}.left"), report);
            let rs = walk(right, catalog, &format!("{path}.right"), report);
            if let (Some(ls), Some(rs)) = (&ls, &rs) {
                if ls != rs {
                    report.push(
                        Diagnostic::new(
                            Code::UnionSchemaMismatch,
                            Span::Plan(path.to_string()),
                            "union inputs have different schemas",
                        )
                        .with_error(PlanError::UnionSchemaMismatch),
                    );
                }
            }
            ls.or(rs)
        }
    }
}

/// Checks a join key column reference, returning its type when valid.
fn check_key(
    schema: &Schema,
    index: usize,
    context: &'static str,
    path: &str,
    report: &mut Report,
) -> Option<DataType> {
    match schema.fields.get(index) {
        None => {
            report.push(
                Diagnostic::new(
                    Code::JoinKeyOutOfRange,
                    Span::Plan(path.to_string()),
                    format!("column {index} out of range in {context}"),
                )
                .with_error(PlanError::ColumnOutOfRange { context, index }),
            );
            None
        }
        Some(field) => {
            if field.data_type == DataType::Float {
                report.push(
                    Diagnostic::new(
                        Code::UnhashableJoinKey,
                        Span::Plan(path.to_string()),
                        format!("{context} column {index} has type Float, which is not hashable"),
                    )
                    .with_error(PlanError::UnhashableJoinKey(field.data_type)),
                );
            }
            Some(field.data_type)
        }
    }
}

/// Validates a shard-key configuration against a stream schema — the
/// diagnostic twin of [`crate::engine::DsmsEngine::set_shard_key`]'s
/// error path (code NL014).
pub fn check_shard_key(schema: &Schema, stream: &str, column: usize) -> Report {
    let mut report = Report::new();
    if column >= schema.len() {
        report.push(
            Diagnostic::new(
                Code::BadShardKey,
                Span::Stream(stream.to_string()),
                format!("shard key column {column} out of range for stream '{stream}'"),
            )
            .with_error(PlanError::ShardKeyOutOfRange {
                stream: stream.to_string(),
                column,
            }),
        );
    } else if schema.data_type(column) == DataType::Float {
        report.push(
            Diagnostic::new(
                Code::BadShardKey,
                Span::Stream(stream.to_string()),
                format!("float column {column} of stream '{stream}' is not a hashable shard key"),
            )
            .with_error(PlanError::UnhashableShardKey {
                stream: stream.to_string(),
                column,
            }),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::types::Value;
    use std::collections::HashMap;

    struct MapCatalog(HashMap<String, Schema>);

    impl StreamCatalog for MapCatalog {
        fn stream_schema(&self, name: &str) -> Option<&Schema> {
            self.0.get(name)
        }
    }

    fn catalog() -> MapCatalog {
        let mut m = HashMap::new();
        m.insert(
            "quotes".to_string(),
            Schema::new(vec![
                Field::new("symbol", DataType::Str),
                Field::new("price", DataType::Float),
                Field::new("volume", DataType::Int),
            ]),
        );
        m.insert(
            "news".to_string(),
            Schema::new(vec![
                Field::new("symbol", DataType::Str),
                Field::new("headline", DataType::Str),
            ]),
        );
        MapCatalog(m)
    }

    #[test]
    fn clean_plan_has_empty_report() {
        let plan = LogicalPlan::source("quotes")
            .filter(Expr::col(1).gt(Expr::lit(Value::Float(10.0))))
            .aggregate(Some(0), AggFunc::Avg, 1, 1000);
        let report = check_plan(&plan, &catalog());
        assert!(report.is_clean(), "unexpected: {report}");
        assert_eq!(report.first_error(), None);
    }

    #[test]
    fn accumulation_reports_every_problem() {
        // Float join key on both sides AND a zero window: three
        // diagnostics from one plan, where output_schema stops at one.
        let plan = LogicalPlan::source("quotes").join(LogicalPlan::source("quotes"), 1, 1, 0);
        let report = check_plan(&plan, &catalog());
        assert_eq!(report.num_errors(), 3, "{report}");
        assert!(report.has_code(Code::ZeroWindow));
        assert!(report.has_code(Code::UnhashableJoinKey));
    }

    #[test]
    fn first_error_matches_output_schema() {
        let cat = catalog();
        let plans = vec![
            LogicalPlan::source("nope"),
            LogicalPlan::source("quotes").join(LogicalPlan::source("quotes"), 1, 1, 10),
            LogicalPlan::source("quotes").aggregate(Some(1), AggFunc::Count, 0, 1000),
            LogicalPlan::source("quotes").join(LogicalPlan::source("news"), 0, 0, 0),
            LogicalPlan::source("quotes").union(LogicalPlan::source("news")),
            LogicalPlan::source("quotes").filter(Expr::col(7).gt(Expr::lit(Value::Int(1)))),
            LogicalPlan::source("quotes").aggregate(None, AggFunc::Sum, 0, 1000),
            LogicalPlan::source("quotes").join(LogicalPlan::source("news"), 9, 0, 10),
            LogicalPlan::source("quotes").sliding_aggregate(None, AggFunc::Count, 0, 10, 20),
            LogicalPlan::source("quotes").filter(Expr::col(1)),
        ];
        for plan in plans {
            let report = check_plan(&plan, &cat);
            let schema = plan.output_schema(&cat);
            assert_eq!(
                report.has_errors(),
                schema.is_err(),
                "agreement violated for {plan:?}: {report}"
            );
            assert_eq!(
                report.first_error(),
                schema.err(),
                "first-error mapping diverged for {plan:?}"
            );
        }
    }

    #[test]
    fn recovered_schema_keeps_downstream_checks_running() {
        // The broken predicate doesn't stop the group-key check above it.
        let plan = LogicalPlan::source("quotes")
            .filter(Expr::col(9).gt(Expr::lit(Value::Int(0))))
            .aggregate(Some(1), AggFunc::Count, 0, 100);
        let report = check_plan(&plan, &catalog());
        assert!(report.has_code(Code::ExprType));
        assert!(
            report.has_code(Code::UnhashableGroupKey),
            "inference recovered past the filter: {report}"
        );
    }

    #[test]
    fn spans_descend_the_plan() {
        let plan = LogicalPlan::source("quotes").join(LogicalPlan::source("nope"), 0, 0, 10);
        let report = check_plan(&plan, &catalog());
        assert_eq!(report.diagnostics.len(), 1);
        assert_eq!(
            report.diagnostics[0].span,
            Span::Plan("$.right".to_string())
        );
    }

    #[test]
    fn json_output_is_machine_readable() {
        let plan = LogicalPlan::source("quotes").aggregate(Some(1), AggFunc::Count, 0, 0);
        let json = check_plan(&plan, &catalog()).to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"code\":\"NL008\""));
        assert!(json.contains("\"code\":\"NL011\""));
        assert!(json.contains("\"severity\":\"error\""));
        // The vendored serde_json parses it back.
        let parsed = serde::json::Json::parse(&json).expect("valid JSON");
        match parsed {
            serde::json::Json::Arr(items) => assert_eq!(items.len(), 2),
            other => panic!("expected array, got {other:?}"),
        }
    }

    #[test]
    fn shard_key_checks() {
        let schema = Schema::new(vec![
            Field::new("symbol", DataType::Str),
            Field::new("price", DataType::Float),
        ]);
        assert!(check_shard_key(&schema, "quotes", 0).is_clean());
        let float = check_shard_key(&schema, "quotes", 1);
        assert!(float.has_code(Code::BadShardKey));
        assert_eq!(
            float.first_error(),
            Some(PlanError::UnhashableShardKey {
                stream: "quotes".into(),
                column: 1
            })
        );
        let range = check_shard_key(&schema, "quotes", 9);
        assert_eq!(
            range.first_error(),
            Some(PlanError::ShardKeyOutOfRange {
                stream: "quotes".into(),
                column: 9
            })
        );
    }
}
