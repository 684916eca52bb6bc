//! Physical operators: the batched push-based execution units of the query
//! network.
//!
//! Every operator consumes a [`TupleBatch`] on a numbered input port and
//! hands back at most one output batch — one [`Operator::process`] call
//! amortizes queueing, fan-out, and timing over the whole batch, which is
//! what makes per-operator cost measurement (`cost.rs`) stable. With the columnar
//! batch layout the stateless operators run **typed column kernels**:
//! filter computes a selection vector over a typed column and gathers (or
//! passes the batch through untouched when everything matches), project
//! evaluates column kernels straight into output columns, and a fused
//! chain threads one selection vector through its staged kernels. The
//! row-at-a-time evaluation survives as a per-row fallback behind
//! [`set_columnar_kernels`] — the reference implementation the
//! columnar-vs-row equivalence property tests against, and a kill switch.
//!
//! Operators also expose an analytic **unit cost** — the abstract work per
//! input tuple used by the cost model to derive the auction loads `c_j`;
//! join and aggregate are costlier than stateless filters, matching the
//! intuition of the paper's operator loads.

use crate::expr::{Expr, Validity};
use crate::plan::AggFunc;
use crate::types::{fnv1a, Column, EmitKey, Schema, StrDict, Tuple, TupleBatch, Value};
use std::cell::Cell;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Lane width of the SIMD-shaped aggregate-absorb fast path (matches the
/// compare/arith kernels in [`crate::expr`]).
const LANES: usize = 8;

thread_local! {
    /// Whether stateless operators use the columnar kernels (default) or
    /// the per-row fallback. Thread-local because the engine is
    /// single-threaded by design and parallel tests must not interfere.
    static COLUMNAR: Cell<bool> = const { Cell::new(true) };
}

/// Enables or disables the columnar filter/project kernels on this thread.
/// Off recovers row-at-a-time evaluation — the reference implementation
/// (and kill switch) the columnar-vs-row equivalence property pins.
pub fn set_columnar_kernels(enabled: bool) {
    COLUMNAR.with(|c| c.set(enabled));
}

/// Whether the columnar kernels are enabled on this thread (default true).
pub fn columnar_kernels_enabled() -> bool {
    COLUMNAR.with(Cell::get)
}

/// Runs `f` with the columnar kernels forced on or off, restoring the
/// previous setting afterwards (panic-safe).
pub fn with_columnar_kernels<R>(enabled: bool, f: impl FnOnce() -> R) -> R {
    struct Restore(bool);
    impl Drop for Restore {
        fn drop(&mut self) {
            set_columnar_kernels(self.0);
        }
    }
    let _restore = Restore(columnar_kernels_enabled());
    set_columnar_kernels(enabled);
    f()
}

/// Every operator kind label a physical node can carry
/// ([`crate::network::Node::kind`]) — the domain of the fault-injection
/// harness's per-kind triggers ([`crate::fault::FaultPlan`]) and of
/// kind-keyed reports.
pub const OPERATOR_KINDS: [&str; 6] = ["filter", "project", "fused", "join", "aggregate", "union"];

/// The shard of one key cell read straight off a typed column (the
/// ingestion partitioner's hot path; byte-encoding identical to
/// [`Key::shard_of`]).
pub(crate) fn shard_of_cell(col: &Column, i: usize, shards: usize) -> usize {
    let h = match col {
        Column::Bool(v) => fnv1a(&[u8::from(v[i])]),
        Column::Int(v) => fnv1a(&v[i].to_le_bytes()),
        Column::Str(v) => fnv1a(v[i].as_bytes()),
        // The dictionary keeps the hash of each entry's bytes, so
        // dictionary-encoded and plain string columns shard identically
        // (the encoding is a layout choice, never a semantic one).
        Column::Dict { codes, dict } => dict.hash(codes[i] as usize),
        Column::Float(_) => {
            // `set_shard_key` rejects float columns before any run
            // (diagnostic NL014, `diag::Code::BadShardKey`), so this arm
            // is unreachable by construction.
            debug_assert!(false, "float shard key escaped validation");
            0
        }
    };
    (h % shards as u64) as usize
}

/// A hashable key for joins and group-by (floats are rejected at plan
/// validation).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub enum Key {
    /// Boolean key.
    Bool(bool),
    /// Integer key.
    Int(i64),
    /// String key.
    Str(Arc<str>),
}

impl Key {
    /// Extracts a key from a value; `None` for unhashable types.
    pub fn from_value(v: &Value) -> Option<Key> {
        match v {
            Value::Bool(b) => Some(Key::Bool(*b)),
            Value::Int(i) => Some(Key::Int(*i)),
            Value::Str(s) => Some(Key::Str(s.clone())),
            Value::Float(_) => None,
        }
    }

    /// Extracts a key from row `i` of a typed column without materializing
    /// the row; `None` for unhashable (float) columns.
    pub fn from_column(col: &Column, i: usize) -> Option<Key> {
        match col {
            Column::Bool(v) => Some(Key::Bool(v[i])),
            Column::Int(v) => Some(Key::Int(v[i])),
            Column::Str(v) => Some(Key::Str(v[i].clone())),
            Column::Dict { codes, dict, .. } => Some(Key::Str(dict[codes[i] as usize].clone())),
            Column::Float(_) => None,
        }
    }

    /// The key as a [`Value`].
    pub fn to_value(&self) -> Value {
        match self {
            Key::Bool(b) => Value::Bool(*b),
            Key::Int(i) => Value::Int(*i),
            Key::Str(s) => Value::Str(s.clone()),
        }
    }

    /// The shard this key's rows — and therefore its operator state —
    /// live on under hash partitioning (byte-encoding identical to
    /// `shard_of_cell`, so partitioned state and partitioned rows can
    /// never disagree).
    pub fn shard_of(&self, shards: usize) -> usize {
        let h = match self {
            Key::Bool(b) => fnv1a(&[u8::from(*b)]),
            Key::Int(i) => fnv1a(&i.to_le_bytes()),
            Key::Str(s) => fnv1a(s.as_bytes()),
        };
        (h % shards as u64) as usize
    }
}

/// A key-cell reader over one key column that never hashes a dictionary
/// string: over a [`Column::Dict`] column the FNV hash of each entry lives
/// in the shared dictionary ([`StrDict`] — computed once per entry for the
/// life of the stream), so the per-row work is one code lookup (counted by
/// [`crate::types::work::WorkSnapshot::dict_code_cmps`]: one per row read,
/// added in one step when the reader drops). Non-dictionary columns pass
/// straight through to the per-row paths, so the reader is always safe to
/// use in key loops.
pub(crate) struct KeyReader<'a> {
    col: &'a Column,
    /// Code lookups served so far (the reader's `dict_code_cmps` share).
    lookups: u64,
}

impl Drop for KeyReader<'_> {
    fn drop(&mut self) {
        if self.lookups > 0 {
            crate::types::work::count_dict_code_cmps(self.lookups);
        }
    }
}

impl<'a> KeyReader<'a> {
    pub(crate) fn new(col: &'a Column) -> KeyReader<'a> {
        KeyReader { col, lookups: 0 }
    }

    /// The key at row `i` together with its partition among `parts` — one
    /// code lookup for dictionary columns, so the counted per-row work is
    /// the same whatever the partition count. `None` for unhashable
    /// (float) columns.
    pub(crate) fn key_and_shard(&mut self, i: usize, parts: usize) -> Option<(Key, usize)> {
        let key = Key::from_column(self.col, i)?;
        Some((key, self.shard(i, parts)))
    }

    /// The shard of row `i` under hash partitioning (byte-encoding
    /// identical to [`shard_of_cell`] / [`Key::shard_of`]).
    pub(crate) fn shard(&mut self, i: usize, shards: usize) -> usize {
        self.lookups += u64::from(matches!(self.col, Column::Dict { .. }));
        if shards == 1 {
            0
        } else {
            shard_of_cell(self.col, i, shards)
        }
    }
}

/// How an operator relates to the partitioning of a parallel flush — what
/// the planner ([`crate::network::QueryNetwork::keyed_plan`]) and the
/// engine's accounting ask of it before anything else.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpClass {
    /// No state and one input (filter, project, fused chain): a pure
    /// function of the batch, so it runs on any worker for any partition
    /// and is always a plan member.
    Stateless,
    /// State hash-partitioned by key behind per-partition locks (join,
    /// aggregate): the `partition` argument addresses it, deferred
    /// selections are absorbed rather than gathered, and plan membership
    /// is decided by [`Operator::keyed_out`] / [`Operator::keyed_partial`].
    Keyed,
    /// Neither (union: no state, but its output order is the interleaving
    /// of two inputs' arrival orders): always behind the merge.
    Barrier,
}

/// For each output row of a traced [`Operator::process`] call, the index
/// its input row had in the input batch — non-decreasing (operators never
/// reorder), repeating for join fan-out. `None` means the output *is* the
/// input batch row for row (the identity trace), and is all an untraced
/// call ever returns.
pub type RowTrace = Option<Vec<u32>>;

/// A physical streaming operator over tuple batches.
///
/// There is **one invocation**, through `&self`, for every way the engine
/// runs an operator: `partition` is `Some(p)` when home shard `p`'s walk
/// addresses state partition `p` of the operator (the rows it brings were
/// routed there — or, for a partial-aggregation member, fold into the
/// home's own partial), and `None` on the control thread, which sees the operator
/// whole: every row routes to the partition its key hashes to
/// ([`Key::shard_of`]) and window closes combine across partitions in
/// [`EmitKey`] order. Either view over the same rows leaves the same state
/// and emits the same rows, so results do not depend on which path (or mix
/// of paths) processed the stream. Stateless operators ignore `partition`;
/// their statistics are atomic, which is what lets the whole trait be
/// `Sync`.
pub trait Operator: std::fmt::Debug + Send + Sync {
    /// Processes the rows of `batch` arriving on `port` — all of them, or
    /// the `sel`-selected ones (batch-row indices, ascending) when an
    /// upstream filter deferred its selection — and returns the output
    /// batch, `None` when the invocation produced no row inline (nothing
    /// survived, nothing matched, or the operator only absorbs). Keyed
    /// operators absorb straight through `sel`, never materializing the
    /// dropped rows; the others gather it once on entry. When `traced`,
    /// the second element is the output's [`RowTrace`], from which the
    /// caller composes merge tags. Semantics must equal processing the
    /// rows one at a time in order (the scalar-vs-batched equivalence
    /// property), honoring the calling thread's columnar-kernel switch
    /// ([`set_columnar_kernels`]).
    fn process(
        &self,
        partition: Option<usize>,
        port: usize,
        batch: &TupleBatch,
        sel: Option<&[u32]>,
        traced: bool,
    ) -> (Option<TupleBatch>, RowTrace);

    /// Selection-vector pushdown: refines `sel` (batch-row indices; `None`
    /// = all rows) over `batch` **without materializing survivors**, for
    /// consumers that can take a deferred selection (keyed joins and
    /// aggregates, further filters). `None` — the default — means the
    /// operator cannot run selection-deferred (projections rewrite
    /// columns) and the caller falls back to [`Operator::process`]. Only
    /// pure-filter kernels running columnar implement this — the row
    /// fallback keeps its per-row reference semantics.
    fn refine_selection(&self, batch: &TupleBatch, sel: Option<&[u32]>) -> Option<Vec<u32>> {
        let _ = (batch, sel);
        None
    }

    /// Tells the addressed state (see the trait docs for `partition`) that
    /// event time reached `watermark`: expired state is evicted and closed
    /// windows are emitted as one batch sorted by [`EmitKey`] — the
    /// emission order of the unpartitioned operator — with the key of
    /// every row, which tags a worker's emissions for the deterministic
    /// cross-partition merge. `None` when nothing closes; stateless
    /// operators do nothing.
    fn advance(
        &self,
        partition: Option<usize>,
        watermark: u64,
    ) -> Option<(TupleBatch, Vec<EmitKey>)> {
        let _ = (partition, watermark);
        None
    }

    /// Force-emits all remaining windowed state (end of the final
    /// subscription day). Not `advance(None, u64::MAX)`: a join keeps its
    /// state, because upstream force-closed rows may still probe it.
    fn finish(&self) -> Option<TupleBatch> {
        None
    }

    /// The operator's output schema (shared; output batches clone the Arc).
    fn output_schema(&self) -> &Arc<Schema>;

    /// Abstract work per input tuple (cost-model input).
    fn unit_cost(&self) -> f64;

    /// Tuples currently buffered in operator state (joins/aggregates).
    fn state_size(&self) -> usize {
        0
    }

    /// The operator's [`OpClass`].
    fn class(&self) -> OpClass;

    /// Key propagation for keyed stateful sharding: given the column
    /// position of the partition key in each input port's rows (`None` =
    /// unknown / lost), returns the position of the partition key in this
    /// operator's *output* rows when the operator can execute partitioned
    /// by that key — i.e. when rows it must combine are guaranteed to
    /// share a shard:
    ///
    /// * stateless operators always can (they combine nothing); they
    ///   return where the key column survives to, or `None` when a
    ///   projection drops it (downstream stateful operators then fall back
    ///   to the merge barrier);
    /// * a join can when each side's join key *is* that side's partition
    ///   key (equal keys already share a shard);
    /// * an aggregate can when its group-by column is the partition key;
    /// * unions and everything else return `None` — a merge barrier.
    fn keyed_out(&self, in_keys: &[Option<usize>]) -> Option<usize> {
        let _ = in_keys;
        None
    }

    /// Whether the operator can run as a **partial-aggregation** member
    /// of the parallel plan: each home shard's walk folds its rows into
    /// that home's partial accumulators ([`Operator::process`] with the
    /// *home* as the partition) and a deterministic partition-order
    /// combine merges the partials when windows close. Exact combines
    /// qualify, grouped or not: ungrouped aggregates keep one accumulator
    /// per home, grouped aggregates at **shard-incompatible** group keys
    /// keep a per-home hash-partial map (a group's rows may land on any
    /// home; the exact combine makes the split shard-count invariant).
    /// Inexact float sums would round differently per split, so they
    /// never qualify.
    /// The planner consults this only when [`Operator::keyed_out`] already
    /// failed — a group key that *is* the partition key runs as a full
    /// member with sharded state instead.
    fn keyed_partial(&self) -> bool {
        false
    }

    /// Whether this partial member folds **grouped** hash partials
    /// (`false` for ungrouped partials and non-partial operators) — the
    /// engine attributes partial absorbs to
    /// [`crate::types::work::WorkSnapshot::grouped_partial_rows`] by this
    /// flag.
    fn keyed_partial_grouped(&self) -> bool {
        false
    }

    /// Re-homes internal operator state across `n` partitions (default:
    /// stateless operators have nothing to do). Keyed state moves whole —
    /// a key's tuples stay in arrival order — into the partition its key
    /// hashes to ([`Key::shard_of`]), and per-home partials of one group
    /// combine there, so state location matches row routing whatever the
    /// shard count or plan membership was when the state was built.
    fn set_partitions(&mut self, n: usize) {
        let _ = n;
    }
}

/// The [`Operator::process`] body the stateless operators share: gathers a
/// deferred selection once on entry (an all-row selection passes through),
/// applies the operator's dense kernel, and re-bases the survivor trace
/// onto the input batch's rows.
fn process_dense(
    batch: &TupleBatch,
    sel: Option<&[u32]>,
    traced: bool,
    apply: impl FnOnce(&TupleBatch, bool) -> (TupleBatch, RowTrace),
) -> (Option<TupleBatch>, RowTrace) {
    let (out, trace) = match sel {
        Some(sel) if sel.len() < batch.len() => {
            let (out, kept) = apply(&batch.take(sel), traced);
            let trace = traced.then(|| match kept {
                None => sel.to_vec(),
                Some(kept) => kept.iter().map(|&k| sel[k as usize]).collect(),
            });
            (out, trace)
        }
        _ => apply(batch, traced),
    };
    ((!out.is_empty()).then_some(out), trace)
}

/// Runs `f` over the state partitions an invocation addresses: the one
/// partition `Some(p)` names, or — the control thread's view — all of
/// them, in partition order. The locks are uncontended: during a flush a
/// partition is only ever touched by its home shard's one walk, and the
/// control thread only runs between flushes.
fn with_parts<P, R>(
    parts: &[Mutex<P>],
    partition: Option<usize>,
    f: impl FnOnce(&mut [MutexGuard<'_, P>]) -> R,
) -> R {
    match partition {
        Some(p) => f(std::slice::from_mut(&mut lock_part(&parts[p]))),
        None => f(&mut parts.iter().map(lock_part).collect::<Vec<_>>()),
    }
}

fn lock_part<P>(part: &Mutex<P>) -> MutexGuard<'_, P> {
    part.lock().expect("operator state partition lock poisoned")
}

/// Columnar projection kernel plus survivor trace: evaluates `exprs` over
/// `sel`'s rows of `batch` into a new batch under `schema`, dropping rows
/// where any expression fails (the per-row drop-malformed-tuples
/// semantics). The second element lists,
/// for each output row, its index in the *selection view* (`sel`'s rows,
/// or the whole batch when `sel` is `None`); identity is `None`. The trace
/// is computed only when `traced` is set.
fn project_columnar_traced(
    exprs: &[Expr],
    batch: &TupleBatch,
    sel: Option<&[u32]>,
    schema: Arc<Schema>,
    traced: bool,
) -> (TupleBatch, RowTrace) {
    let n = sel.map_or(batch.len(), <[u32]>::len);
    let dropped_all = |schema| (TupleBatch::new(schema), traced.then(Vec::new));
    let mut validity = Validity::AllValid;
    let mut columns: Vec<Column> = Vec::with_capacity(exprs.len());
    for e in exprs {
        let ev = e.eval_columnar(batch, sel);
        match ev.validity {
            // An expression that fails on every row drops every row.
            Validity::NoneValid => return dropped_all(schema),
            v => validity = validity.and(v),
        }
        columns.push(ev.values.into_column(n));
    }
    let ts: Vec<u64> = match sel {
        None => batch.ts().to_vec(),
        Some(s) => s.iter().map(|&i| batch.ts()[i as usize]).collect(),
    };
    match validity {
        Validity::AllValid => (TupleBatch::from_columns(schema, ts, columns), None),
        Validity::NoneValid => dropped_all(schema),
        Validity::Mask(m) => {
            // Rare path: some rows failed (e.g. division by zero) — gather
            // the surviving rows out of the dense result.
            let keep: Vec<u32> = (0..n as u32).filter(|&i| m[i as usize]).collect();
            let kept = TupleBatch::from_columns(schema, ts, columns).take(&keep);
            (kept, traced.then_some(keep))
        }
    }
}

/// Stateless selection.
#[derive(Debug)]
pub struct FilterOp {
    predicate: Expr,
    schema: Arc<Schema>,
}

impl FilterOp {
    /// Analytic per-tuple work of one filter stage (the fusion pass sums
    /// these constants when it collapses a chain into a [`FusedOp`]).
    pub const UNIT_COST: f64 = 1.0;

    /// A filter with the given predicate; `schema` is the (pass-through)
    /// input schema.
    pub fn new(predicate: Expr, schema: Schema) -> Self {
        Self {
            predicate,
            schema: Arc::new(schema),
        }
    }
}

impl FilterOp {
    /// The dense kernel (see [`process_dense`]).
    fn apply(&self, batch: &TupleBatch, traced: bool) -> (TupleBatch, RowTrace) {
        if columnar_kernels_enabled() {
            // One selection pass over typed columns; an all-pass batch is
            // forwarded without touching any row data.
            let sel = self.predicate.filter_indices(batch, None);
            if sel.len() == batch.len() {
                (batch.clone().with_schema(self.schema.clone()), None)
            } else {
                let kept = batch.take(&sel).with_schema(self.schema.clone());
                (kept, traced.then_some(sel))
            }
        } else {
            // Per-row fallback (reference implementation).
            let n = batch.len();
            let mut kept = TupleBatch::with_capacity(self.schema.clone(), n);
            let mut trace: Vec<u32> = Vec::new();
            for (i, tuple) in batch.iter_rows().enumerate() {
                if self.predicate.matches(&tuple) {
                    if traced {
                        trace.push(i as u32);
                    }
                    kept.push(tuple);
                }
            }
            let trace = (traced && kept.len() != n).then_some(trace);
            (kept, trace)
        }
    }
}

impl Operator for FilterOp {
    fn process(
        &self,
        _partition: Option<usize>,
        _port: usize,
        batch: &TupleBatch,
        sel: Option<&[u32]>,
        traced: bool,
    ) -> (Option<TupleBatch>, RowTrace) {
        process_dense(batch, sel, traced, |b, t| self.apply(b, t))
    }

    fn refine_selection(&self, batch: &TupleBatch, sel: Option<&[u32]>) -> Option<Vec<u32>> {
        columnar_kernels_enabled().then(|| self.predicate.filter_indices(batch, sel))
    }

    fn output_schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn unit_cost(&self) -> f64 {
        Self::UNIT_COST
    }

    fn class(&self) -> OpClass {
        OpClass::Stateless
    }

    fn keyed_out(&self, in_keys: &[Option<usize>]) -> Option<usize> {
        // Pass-through schema: the key column survives in place.
        in_keys.first().copied().flatten()
    }
}

/// Stateless projection / mapping.
#[derive(Debug)]
pub struct ProjectOp {
    exprs: Vec<Expr>,
    schema: Arc<Schema>,
}

impl ProjectOp {
    /// Analytic per-tuple work of one projection stage (summed by the
    /// fusion pass, like [`FilterOp::UNIT_COST`]).
    pub const UNIT_COST: f64 = 1.2;

    /// A projection computing `exprs` into the given output schema.
    pub fn new(exprs: Vec<Expr>, schema: Schema) -> Self {
        Self {
            exprs,
            schema: Arc::new(schema),
        }
    }
}

impl ProjectOp {
    /// The dense kernel (see [`process_dense`]).
    fn apply(&self, batch: &TupleBatch, traced: bool) -> (TupleBatch, RowTrace) {
        if columnar_kernels_enabled() {
            return project_columnar_traced(&self.exprs, batch, None, self.schema.clone(), traced);
        }
        // Per-row fallback (reference implementation).
        let n = batch.len();
        let mut mapped = TupleBatch::with_capacity(self.schema.clone(), n);
        let mut trace: Vec<u32> = Vec::new();
        'rows: for (i, tuple) in batch.iter_rows().enumerate() {
            let mut values = Vec::with_capacity(self.exprs.len());
            for e in &self.exprs {
                match e.eval(&tuple) {
                    Ok(v) => values.push(v),
                    Err(_) => continue 'rows, // drop malformed tuples
                }
            }
            if traced {
                trace.push(i as u32);
            }
            mapped.push(Tuple::new(tuple.ts, values));
        }
        let trace = (traced && mapped.len() != n).then_some(trace);
        (mapped, trace)
    }
}

impl Operator for ProjectOp {
    fn process(
        &self,
        _partition: Option<usize>,
        _port: usize,
        batch: &TupleBatch,
        sel: Option<&[u32]>,
        traced: bool,
    ) -> (Option<TupleBatch>, RowTrace) {
        process_dense(batch, sel, traced, |b, t| self.apply(b, t))
    }

    fn output_schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn unit_cost(&self) -> f64 {
        Self::UNIT_COST
    }

    fn class(&self) -> OpClass {
        OpClass::Stateless
    }

    fn keyed_out(&self, in_keys: &[Option<usize>]) -> Option<usize> {
        // The key survives wherever an output column is exactly `Col(key)`.
        let key = in_keys.first().copied().flatten()?;
        self.exprs.iter().position(|e| e.as_col() == Some(key))
    }
}

/// One stage of a [`FusedOp`]: the stateless kernels the fusion pass knows
/// how to chain over a batch without materializing intermediate batches
/// per operator.
#[derive(Clone, Debug)]
pub enum FusedStage {
    /// Keep rows matching the predicate (drop on evaluation error, like
    /// [`FilterOp`]).
    Filter(Expr),
    /// Map each row through the projection expressions into the stage's
    /// output schema (drop on evaluation error, like [`ProjectOp`]).
    Project(Vec<Expr>, Arc<Schema>),
}

/// A chain of adjacent stateless operators collapsed into one physical
/// node by the query network's fusion pass.
///
/// The columnar execution threads one **selection vector** through the
/// stage list: filter stages refine the selection over the current batch's
/// typed columns, projection stages gather the surviving rows into fresh
/// columns, and only the final stage materializes an output batch — one
/// queue hop and at most one gather per projection stage for the whole
/// chain. Construction composes stages where that is exactly
/// semantics-preserving:
///
/// * **adjacent filters** become one conjunctive predicate (short-circuit
///   `AND` reproduces the staged drop behavior bit for bit);
/// * **back-to-back projections** substitute when the inner projection is
///   all leaf expressions (`Col`/`Lit`), which never fail on
///   schema-conforming rows and are free to duplicate;
/// * everything else stays a staged kernel loop.
///
/// The operator reports a **selectivity-aware effective unit cost**: each
/// composed stage keeps the summed analytic cost of the operators folded
/// into it plus a count of the rows that actually entered it, and
/// [`Operator::unit_cost`] returns `Σ costᵢ · enteredᵢ / entered₀` — the
/// same analytic load the unfused chain would report from its measured
/// per-node input rates. Before any row is processed (or for an idle
/// calibration path) it falls back to the full summed cost, a conservative
/// upper bound. The one residual approximation: rows dropped midway through
/// a *composed* filter conjunction are still charged that whole stage.
#[derive(Debug)]
pub struct FusedOp {
    /// Composed stages with their summed analytic cost and the number of
    /// rows that entered them (atomic so shard workers can count through
    /// `&self`; the per-shard counts aggregate into the same totals a
    /// single-threaded run accumulates).
    stages: Vec<(FusedStage, f64, AtomicU64)>,
    schema: Arc<Schema>,
}

impl FusedOp {
    /// A fused chain from `(stage, analytic unit cost)` pairs listed in
    /// chain order (upstream first); `schema` is the last stage's output
    /// schema.
    ///
    /// # Panics
    /// Panics when `stages` is empty.
    pub fn new(stages: Vec<(FusedStage, f64)>, schema: Schema) -> Self {
        assert!(!stages.is_empty(), "fused chain needs at least one stage");
        let mut composed: Vec<(FusedStage, f64, AtomicU64)> = Vec::with_capacity(stages.len());
        for (stage, cost) in stages {
            match (composed.last_mut(), stage) {
                (Some((FusedStage::Filter(prev), prev_cost, _)), FusedStage::Filter(next)) => {
                    let left = std::mem::replace(prev, Expr::Lit(Value::Bool(true)));
                    *prev = left.and(next);
                    *prev_cost += cost;
                }
                (
                    Some((FusedStage::Project(inner, inner_schema), prev_cost, _)),
                    FusedStage::Project(outer, outer_schema),
                ) if inner.iter().all(Expr::is_leaf) => {
                    let substituted: Vec<Expr> =
                        outer.iter().map(|e| e.substitute_cols(inner)).collect();
                    *inner = substituted;
                    *inner_schema = outer_schema;
                    *prev_cost += cost;
                }
                (_, next) => composed.push((next, cost, AtomicU64::new(0))),
            }
        }
        Self {
            stages: composed,
            schema: Arc::new(schema),
        }
    }

    /// Number of kernel stages left after composition.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// The dense kernel (see [`process_dense`]).
    fn apply(&self, batch: &TupleBatch, traced: bool) -> (TupleBatch, RowTrace) {
        if columnar_kernels_enabled() {
            self.apply_columnar(batch, traced)
        } else {
            self.apply_rows(batch, traced)
        }
    }

    /// Columnar execution: refine a selection vector through the stages,
    /// materializing columns only at projection stages and at the end.
    /// When `traced`, an original-row index vector rides along so the
    /// survivor trace composes across projection rematerializations.
    fn apply_columnar(&self, batch: &TupleBatch, traced: bool) -> (TupleBatch, RowTrace) {
        // A pointer clone: columns stay shared until a stage rewrites them.
        let mut cur = batch.clone();
        // `None` = every row of `cur` is selected.
        let mut sel: Option<Vec<u32>> = None;
        // Original-input index of each row of `cur` (`None` = identity);
        // maintained only when a trace was requested.
        let mut orig: Option<Vec<u32>> = None;
        for (stage, _, entered) in &self.stages {
            let n = sel.as_ref().map_or(cur.len(), Vec::len);
            if n == 0 {
                return (TupleBatch::new(self.schema.clone()), traced.then(Vec::new));
            }
            entered.fetch_add(n as u64, Ordering::Relaxed);
            match stage {
                FusedStage::Filter(predicate) => {
                    sel = Some(predicate.filter_indices(&cur, sel.as_deref()));
                }
                FusedStage::Project(exprs, schema) => {
                    let (mapped, kept) = project_columnar_traced(
                        exprs,
                        &cur,
                        sel.as_deref(),
                        schema.clone(),
                        traced,
                    );
                    if traced {
                        orig = compose_trace(orig, sel.take(), kept, mapped.len());
                    }
                    sel = None;
                    cur = mapped;
                }
            }
        }
        let (result, trace) = match sel {
            None => (cur, orig),
            Some(s) if s.len() == cur.len() => (cur, orig),
            Some(s) => {
                let trace = traced.then(|| {
                    s.iter()
                        .map(|&i| orig.as_ref().map_or(i, |o| o[i as usize]))
                        .collect()
                });
                (cur.take(&s), trace)
            }
        };
        if result.is_empty() {
            (TupleBatch::new(self.schema.clone()), traced.then(Vec::new))
        } else {
            (result.with_schema(self.schema.clone()), trace)
        }
    }

    /// Per-row fallback (reference implementation).
    fn apply_rows(&self, batch: &TupleBatch, traced: bool) -> (TupleBatch, RowTrace) {
        let n = batch.len();
        let mut output = TupleBatch::with_capacity(self.schema.clone(), n);
        let mut trace: Vec<u32> = Vec::new();
        'rows: for (idx, mut tuple) in batch.iter_rows().enumerate() {
            for (stage, _, entered) in &self.stages {
                entered.fetch_add(1, Ordering::Relaxed);
                match stage {
                    FusedStage::Filter(predicate) => {
                        if !predicate.matches(&tuple) {
                            continue 'rows;
                        }
                    }
                    FusedStage::Project(exprs, _) => {
                        let mut values = Vec::with_capacity(exprs.len());
                        for e in exprs {
                            match e.eval(&tuple) {
                                Ok(v) => values.push(v),
                                Err(_) => continue 'rows, // drop malformed tuples
                            }
                        }
                        tuple = Tuple::new(tuple.ts, values);
                    }
                }
            }
            if traced {
                trace.push(idx as u32);
            }
            output.push(tuple);
        }
        let trace = (traced && output.len() != n).then_some(trace);
        (output, trace)
    }
}

/// Composes a projection stage's survivor trace onto the running
/// original-row mapping of [`FusedOp::apply_columnar`]: output row `j`
/// passed the stage as view row `kept[j]`, which was `cur` row
/// `sel[kept[j]]`, which was original row `orig[…]` — with `None` meaning
/// identity at each level. Returns `None` only when every level was the
/// identity.
fn compose_trace(
    orig: Option<Vec<u32>>,
    sel: Option<Vec<u32>>,
    kept: RowTrace,
    out_len: usize,
) -> Option<Vec<u32>> {
    if orig.is_none() && sel.is_none() && kept.is_none() {
        return None;
    }
    Some(
        (0..out_len as u32)
            .map(|j| {
                let view = kept.as_ref().map_or(j, |k| k[j as usize]);
                let cur = sel.as_ref().map_or(view, |s| s[view as usize]);
                orig.as_ref().map_or(cur, |o| o[cur as usize])
            })
            .collect(),
    )
}

impl Operator for FusedOp {
    fn process(
        &self,
        _partition: Option<usize>,
        _port: usize,
        batch: &TupleBatch,
        sel: Option<&[u32]>,
        traced: bool,
    ) -> (Option<TupleBatch>, RowTrace) {
        process_dense(batch, sel, traced, |b, t| self.apply(b, t))
    }

    fn refine_selection(&self, batch: &TupleBatch, sel: Option<&[u32]>) -> Option<Vec<u32>> {
        // Only a pure-filter chain can stay selection-deferred; stage
        // composition folds adjacent filters, so that is exactly the
        // single composed-Filter case.
        if !columnar_kernels_enabled() || self.stages.len() != 1 {
            return None;
        }
        let (FusedStage::Filter(predicate), _, entered) = &self.stages[0] else {
            return None;
        };
        entered.fetch_add(
            sel.map_or(batch.len(), <[u32]>::len) as u64,
            Ordering::Relaxed,
        );
        Some(predicate.filter_indices(batch, sel))
    }

    fn output_schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn unit_cost(&self) -> f64 {
        // Effective cost per *input* row: stage costs weighted by the
        // fraction of input rows that reached each stage. An idle node
        // reports the conservative full-chain sum. Stage counts aggregate
        // across shard workers, so the effective cost prices the total
        // multi-core load exactly like the single-threaded run.
        let entered_first = self
            .stages
            .first()
            .map_or(0, |(_, _, n)| n.load(Ordering::Relaxed));
        if entered_first == 0 {
            return self.stages.iter().map(|(_, c, _)| c).sum();
        }
        self.stages
            .iter()
            .map(|(_, cost, entered)| {
                cost * (entered.load(Ordering::Relaxed) as f64 / entered_first as f64)
            })
            .sum()
    }

    fn class(&self) -> OpClass {
        OpClass::Stateless
    }

    fn keyed_out(&self, in_keys: &[Option<usize>]) -> Option<usize> {
        // Thread the key position through the composed stages: filters
        // keep it in place, projections keep it only where an output
        // column is exactly `Col(key)`.
        let mut key = in_keys.first().copied().flatten()?;
        for (stage, _, _) in &self.stages {
            match stage {
                FusedStage::Filter(_) => {}
                FusedStage::Project(exprs, _) => {
                    key = exprs.iter().position(|e| e.as_col() == Some(key))?;
                }
            }
        }
        Some(key)
    }
}

/// A partition's key interner: `Option<Key> → u32 id` (`None` is the one
/// group of an ungrouped aggregate). Stateful operators address their state
/// by id, so a key is hashed when it is first seen (or, for a key read off a
/// plain column, once per row) and never formatted, cloned or compared
/// again. An id counts the state entries (accumulators, buffered rows) that
/// hold it; once the interned keys outnumber four times the most that were
/// held at once, [`KeyIds::sweep`] frees the unheld ids for reuse, so the
/// interner — and everything indexed by id — is bounded by the live keys,
/// not by the keys ever seen.
#[derive(Debug, Default)]
struct KeyIds {
    ids: HashMap<Option<Key>, u32>,
    /// By id; a freed id keeps its last key until it is reused.
    keys: Vec<Option<Key>>,
    refs: Vec<u32>,
    free: Vec<u32>,
    /// Ids with `refs > 0` now, and the most there were since the last sweep.
    held: usize,
    peak: usize,
    /// Sweeps so far: a `code → id` table of an earlier epoch is stale.
    epoch: u32,
}

impl KeyIds {
    /// The id of `key`, and whether this call interned it.
    fn intern(&mut self, key: Option<Key>) -> (u32, bool) {
        if let Some(&id) = self.ids.get(&key) {
            return (id, false);
        }
        let id = self.free.pop().unwrap_or(self.keys.len() as u32);
        if id as usize == self.keys.len() {
            self.keys.push(key.clone());
            self.refs.push(0);
        } else {
            self.keys[id as usize] = key.clone();
        }
        self.ids.insert(key, id);
        (id, true)
    }

    /// One more state entry holds `id`.
    fn hold(&mut self, id: u32) {
        self.refs[id as usize] += 1;
        if self.refs[id as usize] == 1 {
            self.held += 1;
            self.peak = self.peak.max(self.held);
        }
    }

    /// One state entry of `id` is gone.
    fn release(&mut self, id: u32) {
        self.refs[id as usize] -= 1;
        self.held -= usize::from(self.refs[id as usize] == 0);
    }

    /// Frees every unheld id once they are the bulk of the interner (small
    /// interners are left alone: a steady key set never re-interns).
    fn sweep(&mut self) {
        if self.ids.len() > 4 * self.peak.max(256) {
            let (refs, free) = (&self.refs, &mut self.free);
            self.ids.retain(|_, id| {
                refs[*id as usize] > 0 || {
                    free.push(*id);
                    false
                }
            });
            self.peak = self.held;
            self.epoch += 1;
        }
    }
}

/// The `code → id` table of the dictionary a partition last read keys
/// from: batches of one stream share their dictionary by `Arc`, so in
/// steady state a key cell resolves with one pointer compare and one table
/// load — no string is hashed. A different dictionary (the stream's grew,
/// or another producer's) or a sweep of the interner starts a fresh table,
/// filled lazily.
#[derive(Debug, Default)]
struct CodeIds {
    dict: Option<Arc<StrDict>>,
    epoch: u32,
    ids: Vec<u32>,
}

impl CodeIds {
    /// Marks a code not yet translated.
    const UNSEEN: u32 = u32::MAX;

    /// The id of dictionary entry `code`, and whether this call interned it.
    fn id(&mut self, dict: &Arc<StrDict>, code: usize, keys: &mut KeyIds) -> (u32, bool) {
        let current = self.dict.as_ref().is_some_and(|d| Arc::ptr_eq(d, dict));
        if !current || self.epoch != keys.epoch {
            self.dict = Some(dict.clone());
            self.epoch = keys.epoch;
            self.ids.clear();
            self.ids.resize(dict.len(), Self::UNSEEN);
        }
        if self.ids[code] != Self::UNSEEN {
            return (self.ids[code], false);
        }
        let (id, fresh) = keys.intern(Some(Key::Str(dict[code].clone())));
        self.ids[code] = id;
        (id, fresh)
    }
}

/// The partition of dictionary entry `code` among `parts` (what
/// [`Key::shard_of`] gives the decoded key, read off the dictionary's stored
/// hash).
fn part_of_code(dict: &StrDict, code: usize, parts: usize) -> usize {
    if parts == 1 {
        0
    } else {
        (dict.hash(code) % parts as u64) as usize
    }
}

/// One buffered join row: a row of an input batch, held by reference — the
/// batch's columns are `Arc`-shared, so buffering copies nothing and the
/// batch lives until its last buffered row is evicted.
#[derive(Debug)]
struct Buffered {
    ts: u64,
    rows: Arc<TupleBatch>,
    row: u32,
}

/// One side of a join partition: a FIFO of buffered rows per key id.
#[derive(Debug, Default)]
struct JoinSide {
    queues: Vec<VecDeque<Buffered>>,
    /// `(front ts, id)` of every non-empty queue, smallest first: eviction
    /// only ever pops fronts, so it visits exactly the keys whose front can
    /// expire.
    fronts: BinaryHeap<Reverse<(u64, u32)>>,
    codes: CodeIds,
}

/// One shard partition of a [`JoinOp`]'s state. Equal keys always live in
/// one partition ([`Key::shard_of`]), so a partition is the full
/// single-threaded state restricted to its keys.
#[derive(Debug, Default)]
struct JoinPart {
    keys: KeyIds,
    /// Left, right.
    sides: [JoinSide; 2],
    len: usize,
}

impl JoinSide {
    /// Buffers `row` at the back of key `id`'s queue.
    fn insert(&mut self, id: u32, row: Buffered) {
        if self.queues.len() <= id as usize {
            self.queues.resize_with(id as usize + 1, VecDeque::new);
        }
        let queue = &mut self.queues[id as usize];
        if queue.is_empty() {
            self.fronts.push(Reverse((row.ts, id)));
        }
        queue.push_back(row);
    }
}

impl JoinPart {
    /// The partition as an invocation on `port` uses it: the interner, the
    /// side the arriving rows buffer into, the side they probe — which the
    /// invocation never changes, so its matches may point into it until the
    /// output is gathered — and the buffered-row count.
    fn split(&mut self, port: usize) -> (&mut KeyIds, &mut JoinSide, &JoinSide, &mut usize) {
        let (left, right) = self.sides.split_at_mut(1);
        let (own, other) = match port {
            0 => (&mut left[0], &right[0]),
            _ => (&mut right[0], &left[0]),
        };
        (&mut self.keys, own, other, &mut self.len)
    }

    /// Evicts state older than the watermark horizon: per key, fronts pop
    /// while they are older (a younger front shields what is behind it).
    /// Keys left without a buffered row on either side give their ids back
    /// ([`KeyIds::sweep`]).
    fn evict(&mut self, horizon: u64) {
        for side in &mut self.sides {
            while let Some(&Reverse((front, id))) = side.fronts.peek() {
                if front >= horizon {
                    break;
                }
                side.fronts.pop();
                let queue = &mut side.queues[id as usize];
                while queue.front().is_some_and(|b| b.ts < horizon) {
                    queue.pop_front();
                    self.keys.release(id);
                    self.len -= 1;
                }
                if let Some(b) = queue.front() {
                    side.fronts.push(Reverse((b.ts, id)));
                }
            }
        }
        self.keys.sweep();
    }
}

/// Windowed symmetric hash equi-join.
///
/// Keeps a per-key FIFO of recent rows on each side; each row of an
/// arriving batch probes the opposite side for partners within `window_ms`
/// of event time and appends `left ++ right` outputs (one output batch per
/// input batch, `ts` the later of the pair's). State is evicted lazily as
/// the watermark advances past `ts + window_ms`; both differences saturate
/// (`abs_diff`, `saturating_sub`), so timestamps at either end of `u64`
/// neither panic nor wrap.
///
/// **Nothing is materialized.** A key cell becomes a partition-local
/// interned id ([`Column::Dict`] cells through the per-dictionary
/// `code → id` table, other layouts through one hash probe per row), both
/// sides' FIFOs are indexed by that id (given back once neither side
/// buffers a row of the key), a buffered row is a reference into its
/// `Arc`-shared input batch, and the matched pairs are gathered column
/// by column from the source batches' typed columns into the output
/// columns (plain layouts, like every operator-built batch).
///
/// State is **hash-partitioned by join key** into [`JoinOp::set_partitions`]
/// shard slices behind uncontended `Mutex`es, so when both inputs are
/// hash-sharded on their join keys the whole join runs inside the shard
/// workers (`partition: Some(shard)`) — the control thread only merges.
/// The control thread's view (`partition: None`) routes each row to the
/// same partition its key hashes to, so results are identical no matter
/// which path (or mix of paths) processed the stream.
#[derive(Debug)]
pub struct JoinOp {
    left_key: usize,
    right_key: usize,
    window_ms: u64,
    schema: Arc<Schema>,
    parts: Vec<Mutex<JoinPart>>,
}

impl JoinOp {
    /// A join with the given key columns, window, and output schema
    /// (`left.join(&right)`).
    pub fn new(left_key: usize, right_key: usize, window_ms: u64, schema: Schema) -> Self {
        Self {
            left_key,
            right_key,
            window_ms,
            schema: Arc::new(schema),
            parts: vec![Mutex::new(JoinPart::default())],
        }
    }
}

impl Operator for JoinOp {
    fn process(
        &self,
        partition: Option<usize>,
        port: usize,
        batch: &TupleBatch,
        sel: Option<&[u32]>,
        traced: bool,
    ) -> (Option<TupleBatch>, RowTrace) {
        let port = port.min(1);
        let key_col = batch.column([self.left_key, self.right_key][port]);
        let n = sel.map_or(batch.len(), <[u32]>::len);
        let coded = key_col.as_shared_dict();
        if coded.is_some() {
            crate::types::work::count_dict_code_cmps(n as u64);
        }
        // One handle on the batch for every row it buffers.
        let mut rows: Option<Arc<TupleBatch>> = None;
        // The one probe loop: over the selected rows (absorbed straight
        // through a deferred selection — the rows the upstream filter
        // dropped are never touched), into the addressed partition or,
        // seen whole, the partition each row's key hashes to.
        with_parts(&self.parts, partition, |parts| {
            let mut parts: Vec<_> = parts.iter_mut().map(|part| part.split(port)).collect();
            let n_parts = parts.len();
            let mut reader = KeyReader::new(key_col);
            // (probe row, partner) of every match, in emission order.
            let mut matches: Vec<(u32, &Buffered)> = Vec::new();
            for k in 0..n {
                let i = sel.map_or(k, |s| s[k] as usize);
                let (p, id) = if let Some((codes, dict)) = coded {
                    let code = codes[i] as usize;
                    let p = part_of_code(dict, code, n_parts);
                    let (keys, own, ..) = &mut parts[p];
                    (p, own.codes.id(dict, code, keys).0)
                } else if let Some((key, p)) = reader.key_and_shard(i, n_parts) {
                    (p, parts[p].0.intern(Some(key)).0)
                } else {
                    // Plan validation rejects float join keys before any
                    // operator is built (diagnostic NL005,
                    // `diag::Code::UnhashableJoinKey`); reaching this means the
                    // node was constructed around it. Dropping the row keeps
                    // release builds safe either way.
                    debug_assert!(false, "unhashable join key escaped plan validation");
                    continue;
                };
                let (keys, own, other, len) = &mut parts[p];
                let ts = batch.ts()[i];
                let partners = other.queues.get(id as usize).into_iter().flatten();
                let within = partners.filter(|b| ts.abs_diff(b.ts) <= self.window_ms);
                matches.extend(within.map(|b| (i as u32, b)));
                let rows = rows.get_or_insert_with(|| Arc::new(batch.clone())).clone();
                let row = i as u32;
                own.insert(id, Buffered { ts, rows, row });
                keys.hold(id);
                **len += 1;
            }
            if matches.is_empty() {
                return (None, traced.then(Vec::new));
            }
            // `left ++ right`: the arriving side's cells come from `batch`,
            // the partner side's from wherever each partner is buffered.
            let arriving = batch.columns().iter().map(|col| {
                let cells = matches.iter().map(|&(i, _)| (col, i as usize));
                Column::gather(col.data_type(), cells)
            });
            let partner_columns = matches[0].1.rows.columns();
            let partners = partner_columns.iter().enumerate().map(|(c, col)| {
                let cells = matches
                    .iter()
                    .map(|&(_, b)| (b.rows.column(c), b.row as usize));
                Column::gather(col.data_type(), cells)
            });
            let columns = match port {
                0 => arriving.chain(partners).collect(),
                _ => partners.chain(arriving).collect(),
            };
            let ts = matches
                .iter()
                .map(|&(i, b)| batch.ts()[i as usize].max(b.ts));
            let out = TupleBatch::from_columns(self.schema.clone(), ts.collect(), columns);
            let trace = traced.then(|| matches.iter().map(|&(i, _)| i).collect());
            (Some(out), trace)
        })
    }

    fn advance(
        &self,
        partition: Option<usize>,
        watermark: u64,
    ) -> Option<(TupleBatch, Vec<EmitKey>)> {
        let horizon = watermark.saturating_sub(self.window_ms);
        with_parts(&self.parts, partition, |parts| {
            for part in parts {
                part.evict(horizon);
            }
        });
        None
    }

    fn output_schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn unit_cost(&self) -> f64 {
        3.0
    }

    fn state_size(&self) -> usize {
        self.parts.iter().map(|p| lock_part(p).len).sum()
    }

    fn class(&self) -> OpClass {
        OpClass::Keyed
    }

    fn keyed_out(&self, in_keys: &[Option<usize>]) -> Option<usize> {
        // Both sides must be partitioned by their join key: equal join
        // keys then share a shard, so every matching pair meets in one
        // partition. The output carries the key at the left key's position
        // (output columns are left ++ right).
        let left = in_keys.first().copied().flatten()?;
        let right = in_keys.get(1).copied().flatten()?;
        (left == self.left_key && right == self.right_key).then_some(self.left_key)
    }

    fn set_partitions(&mut self, n: usize) {
        assert!(n > 0, "partition count must be positive");
        let old: Vec<JoinPart> = std::mem::take(&mut self.parts)
            .into_iter()
            .map(|m| m.into_inner().expect("join partition lock poisoned"))
            .collect();
        let mut parts: Vec<JoinPart> = (0..n).map(|_| JoinPart::default()).collect();
        for part in old {
            for (side, state) in part.sides.into_iter().enumerate() {
                for (key, queue) in part.keys.keys.iter().zip(state.queues) {
                    if queue.is_empty() {
                        continue;
                    }
                    let target = &mut parts[key.as_ref().map_or(0, |k| k.shard_of(n))];
                    let id = target.keys.intern(key.clone()).0;
                    target.len += queue.len();
                    for row in queue {
                        target.sides[side].insert(id, row);
                        target.keys.hold(id);
                    }
                }
            }
        }
        self.parts = parts.into_iter().map(Mutex::new).collect();
    }
}

/// One typed input drawn from the aggregated column.
#[derive(Clone, Copy, Debug)]
enum AggInput {
    /// An integer column value (or the dummy value of a pure `Count`).
    Int(i64),
    /// A float column value.
    Float(f64),
}

/// Typed per-batch access to the aggregated column: resolved once per
/// batch, so the absorb loop reads plain slices instead of widening a
/// [`Value`] per tuple.
enum AggColumn<'a> {
    /// `Count` never reads the column.
    CountOnly,
    /// Exact integer input.
    Ints(&'a [i64]),
    /// Float input.
    Floats(&'a [f64]),
    /// Integer column aggregated as float (legacy construction path).
    WidenInts(&'a [i64]),
}

impl AggColumn<'_> {
    #[inline]
    fn get(&self, i: usize) -> AggInput {
        match self {
            AggColumn::CountOnly => AggInput::Int(0), // never read, only counted
            AggColumn::Ints(xs) => AggInput::Int(xs[i]),
            AggColumn::Floats(xs) => AggInput::Float(xs[i]),
            AggColumn::WidenInts(xs) => AggInput::Float(xs[i] as f64),
        }
    }
}

/// The running accumulator of one `(window, group)` pair.
///
/// Integer inputs accumulate **exactly**: `sum` is an `i128`, wide enough
/// that no possible number of `i64` terms can overflow it, and `min`/`max`
/// stay in `i64`. The previous always-`f64` accumulator silently lost
/// precision once an integer sum passed 2^53. Float inputs keep the `f64`
/// path.
#[derive(Clone, Copy, Debug)]
enum AggState {
    /// Exact integer accumulation.
    Int {
        count: u64,
        sum: i128,
        min: i64,
        max: i64,
    },
    /// Float accumulation.
    Float {
        count: u64,
        sum: f64,
        min: f64,
        max: f64,
    },
}

/// Saturates an exact wide sum into the `i64` output column. Clipping needs
/// more than 2^63 of accumulated magnitude; saturation is the explicit
/// spelling of what the old `f64 as i64` cast did implicitly (on top of
/// silently losing precision far earlier).
fn saturate_i128(v: i128) -> i64 {
    v.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64
}

impl AggState {
    /// An accumulator holding exactly the first absorbed value.
    fn seeded(v: AggInput) -> AggState {
        match v {
            AggInput::Int(i) => AggState::Int {
                count: 1,
                sum: i128::from(i),
                min: i,
                max: i,
            },
            AggInput::Float(f) => AggState::Float {
                count: 1,
                sum: f,
                min: f,
                max: f,
            },
        }
    }

    /// An accumulator with no absorbed tuples: the slot of a group a window
    /// has not seen. The first row folded into one seeds it, and
    /// [`AggState::result`] gives it no value.
    const EMPTY: AggState = AggState::Int {
        count: 0,
        sum: 0,
        min: 0,
        max: 0,
    };

    /// Folds integer inputs, in iteration order, into an `Int` accumulator.
    fn fold_ints(&mut self, values: impl Iterator<Item = i64>) {
        let AggState::Int {
            count,
            sum,
            min,
            max,
        } = self
        else {
            debug_assert!(false, "aggregate input type drifted mid-window");
            return;
        };
        for v in values {
            *count += 1;
            *sum += i128::from(v);
            *min = (*min).min(v);
            *max = (*max).max(v);
        }
    }

    /// Folds float inputs, in iteration order, into a `Float` accumulator.
    fn fold_floats(&mut self, values: impl Iterator<Item = f64>) {
        let AggState::Float {
            count,
            sum,
            min,
            max,
        } = self
        else {
            debug_assert!(false, "aggregate input type drifted mid-window");
            return;
        };
        for v in values {
            *count += 1;
            *sum += v;
            *min = min.min(v);
            *max = max.max(v);
        }
    }

    /// Folds the aggregated column's values at `rows` in iteration (= row)
    /// order: one match on the input type per call, not per row.
    fn fold(&mut self, input: &AggColumn<'_>, rows: impl ExactSizeIterator<Item = usize>) {
        match input {
            // `Count` never reads the column: a whole run is one add.
            AggColumn::CountOnly => match self {
                AggState::Int { count, .. } | AggState::Float { count, .. } => {
                    *count += rows.len() as u64;
                }
            },
            AggColumn::Ints(xs) => self.fold_ints(rows.map(|i| xs[i])),
            AggColumn::Floats(xs) => self.fold_floats(rows.map(|i| xs[i])),
            AggColumn::WidenInts(xs) => self.fold_floats(rows.map(|i| xs[i] as f64)),
        }
    }

    fn count(&self) -> u64 {
        match self {
            AggState::Int { count, .. } | AggState::Float { count, .. } => *count,
        }
    }

    /// Folds another accumulator — a partial over a disjoint row subset of
    /// the same `(window, group)` — into this one. The `Int` arm is
    /// **exact** (i128 sums and i64 min/max associate and commute, so any
    /// split of the rows across workers combines to the single-threaded
    /// state bit for bit). The `Float` arm is deterministic only under a
    /// fixed combine order; callers combine partials in partition order.
    fn combine(&mut self, other: &AggState) {
        if other.count() == 0 {
            return;
        }
        if self.count() == 0 {
            *self = *other;
            return;
        }
        match (self, other) {
            (
                AggState::Int {
                    count,
                    sum,
                    min,
                    max,
                },
                AggState::Int {
                    count: c2,
                    sum: s2,
                    min: m2,
                    max: x2,
                },
            ) => {
                *count += c2;
                *sum += s2;
                *min = (*min).min(*m2);
                *max = (*max).max(*x2);
            }
            (
                AggState::Float {
                    count,
                    sum,
                    min,
                    max,
                },
                AggState::Float {
                    count: c2,
                    sum: s2,
                    min: m2,
                    max: x2,
                },
            ) => {
                *count += c2;
                *sum += s2;
                *min = min.min(*m2);
                *max = max.max(*x2);
            }
            _ => debug_assert!(false, "aggregate partials disagree on input type"),
        }
    }

    /// The aggregate's value, or `None` for an empty accumulator: an empty
    /// window has no defined `Min`/`Max`/`Avg` (the old code emitted the
    /// uninitialized `0.0`), so callers skip emission instead.
    fn result(&self, func: AggFunc) -> Option<Value> {
        if self.count() == 0 {
            return None;
        }
        Some(match (func, self) {
            (AggFunc::Count, s) => Value::Int(s.count() as i64),
            (AggFunc::Sum, AggState::Int { sum, .. }) => Value::Int(saturate_i128(*sum)),
            (AggFunc::Sum, AggState::Float { sum, .. }) => Value::Float(*sum),
            (AggFunc::Avg, AggState::Int { count, sum, .. }) => {
                Value::Float(*sum as f64 / *count as f64)
            }
            (AggFunc::Avg, AggState::Float { count, sum, .. }) => {
                Value::Float(*sum / *count as f64)
            }
            (AggFunc::Min, AggState::Int { min, .. }) => Value::Int(*min),
            (AggFunc::Min, AggState::Float { min, .. }) => Value::Float(*min),
            (AggFunc::Max, AggState::Int { max, .. }) => Value::Int(*max),
            (AggFunc::Max, AggState::Float { max, .. }) => Value::Float(*max),
        })
    }
}

/// Hashes a group id: ids are small dense integers, one multiply spreads
/// them over the table.
#[derive(Default)]
struct IdHasher(u64);

impl std::hash::Hasher for IdHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, _: &[u8]) {
        unreachable!("group ids hash as u32");
    }
    fn write_u32(&mut self, id: u32) {
        self.0 = u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

/// One open window of a partition: the accumulator of every group with a
/// row in it, by group id — as large as the window's own groups, however
/// many the partition has interned.
type AggWindow = HashMap<u32, AggState, std::hash::BuildHasherDefault<IdHasher>>;

/// One shard partition of an [`AggregateOp`]'s windowed state: the
/// partition's interned groups and its open windows ordered by start.
/// Windows close in start order, so the closed ones pop off the front of the
/// tree and a watermark that closes nothing costs one look at the first key.
/// When the aggregate runs as a **full** keyed member, a group's windows
/// live in exactly one partition ([`Key::shard_of`]); as a **partial** member
/// (ungrouped, or grouped at a shard-incompatible key) each home shard owns
/// one partition of partials and a window's state spans however many homes
/// absorbed its rows until the watermark combine folds them.
#[derive(Debug, Default)]
struct AggPart {
    keys: KeyIds,
    codes: CodeIds,
    /// Per group id, its emission-order text: `format!("{group:?}")`,
    /// rendered when the group is interned.
    labels: Vec<Arc<str>>,
    /// The interned ids in label order, and per id its place there — what
    /// a closing window sorts its ids by. Valid while `unranked` is 0.
    order: Vec<u32>,
    rank: Vec<u32>,
    /// 2 while a group has been interned since the last close, 1 from that
    /// close until the ranks are recomputed.
    unranked: u8,
    windows: BTreeMap<u64, AggWindow>,
    /// Non-empty accumulators across all windows.
    live: usize,
    /// The counting sort's cursors and output, kept across batches.
    scratch: (Vec<usize>, Vec<u32>),
}

impl AggPart {
    /// Completes the interning of a group: a fresh id gets its label.
    fn labelled(&mut self, (id, fresh): (u32, bool)) -> u32 {
        if fresh {
            let label = format!("{:?}", self.keys.keys[id as usize]).into();
            match self.labels.get_mut(id as usize) {
                Some(reused) => *reused = label,
                None => self.labels.push(label),
            }
            self.unranked = 2;
        }
        id
    }

    /// The group id of `key`: one hash probe.
    fn key_id(&mut self, key: Option<Key>) -> u32 {
        let id = self.keys.intern(key);
        self.labelled(id)
    }

    /// The group id of dictionary entry `code`: one table load once the
    /// partition has seen the dictionary.
    fn code_id(&mut self, dict: &Arc<StrDict>, code: usize) -> u32 {
        let id = self.codes.id(dict, code, &mut self.keys);
        self.labelled(id)
    }

    /// Window `start`'s accumulator of group `id`, entered into the window
    /// [`AggState::EMPTY`] (and counted) when the pair is new — the caller
    /// fills it.
    fn slot(&mut self, start: u64, id: u32) -> &mut AggState {
        let window = self.windows.entry(start).or_default();
        window.entry(id).or_insert_with(|| {
            self.keys.hold(id);
            self.live += 1;
            AggState::EMPTY
        })
    }

    /// Puts a closing window's group ids in label order. Ranks make that an
    /// integer sort; they are (re)computed at the first close that finds the
    /// groups as the close before it left them. Until then — always, for
    /// groups that keep arriving — the labels themselves are compared, each
    /// window paying its own `n log n` and nothing for the other groups.
    fn sort_ids(&mut self, ids: &mut [u32]) {
        let labels = &self.labels;
        if self.unranked == 1 {
            self.order.clear();
            self.order.extend(self.keys.ids.values());
            self.order.sort_unstable_by_key(|&g| &labels[g as usize]);
            self.rank.resize(labels.len(), 0);
            for (rank, &g) in self.order.iter().enumerate() {
                self.rank[g as usize] = rank as u32;
            }
            self.unranked = 0;
        }
        if self.unranked > 0 {
            return ids.sort_unstable_by_key(|&g| &labels[g as usize]);
        }
        ids.iter_mut().for_each(|g| *g = self.rank[*g as usize]);
        ids.sort_unstable();
        ids.iter_mut().for_each(|r| *r = self.order[*r as usize]);
    }
}

/// Windowed aggregate, optionally grouped by one column.
///
/// Window starts are aligned to multiples of `slide_ms` in event time; a
/// tuple at `ts` belongs to every window `[start, start + window_ms)` with
/// `start ≤ ts < start + window_ms` (one window when tumbling, i.e.
/// `slide == window`). A window closes — and emits one tuple per group —
/// when the watermark reaches its end. Output: `(window_end, [group], agg)`.
///
/// **Timestamp extremes.** A window end saturates: a window whose
/// `start + window_ms` exceeds `u64::MAX` has no end a watermark can reach,
/// so it closes only on [`Operator::finish`], with `ts = u64::MAX`; the
/// `window_end` column saturates at `i64::MAX` for every end above it.
///
/// **State is addressed by interned group id.** Each partition interns its
/// groups (`Key → u32`; the group's `Value` and emission-order text are
/// resolved then, once; ids no open window holds are given back, so state
/// follows the groups in the open windows, not the groups ever seen) and
/// keeps, per open window in start order, the accumulators of the window's
/// own groups by id. A batch keyed by a
/// [`Column::Dict`] column — every low-cardinality string key, whichever
/// `push*` call ingested it — is absorbed by a stable counting sort of its
/// (possibly selected) rows on their codes: the code translates to its id
/// through the per-dictionary table (no string is hashed once the
/// partition has seen the stream's dictionary), consecutive rows of a code
/// covered by the same windows form a run, and each run probes each
/// covering window once (an integer hash) and folds in row order. Every
/// `(window, group)` accumulator therefore sees its rows in exactly the
/// order the row-at-a-time loop would feed them — float `Sum`/`Avg`,
/// overlapping windows and late rows are bit-identical.
/// `Int`/`Bool`/decayed-`Str` keys intern through one hash probe per row
/// and take the same run fold one row at a time; ungrouped tumbling
/// aggregates fold dense row ranges.
///
/// **Windows close columnar**: a closed window sorts its own groups'
/// ids into label order (by rank, an integer sort, once the partition's
/// groups have stopped changing) and the rows go straight into the output
/// columns — in ascending [`EmitKey`] `(window start, group debug text)`
/// order, the emission order of the unpartitioned operator.
///
/// State is **hash-partitioned by group key** into per-shard `AggPart`
/// slices, so a
/// grouped aggregate whose group-by column is the stream's shard key runs
/// entirely inside the shard workers (`partition: Some(shard)`):
/// absorption and watermark-driven window closes happen per shard, and the
/// per-shard emission runs merge back into exactly the single-threaded
/// emission order via their [`EmitKey`] tags.
#[derive(Debug)]
pub struct AggregateOp {
    group_by: Option<usize>,
    func: AggFunc,
    column: usize,
    window_ms: u64,
    slide_ms: u64,
    schema: Arc<Schema>,
    int_input: bool,
    /// Per-shard state partitions (length 1 until re-partitioned).
    parts: Vec<Mutex<AggPart>>,
}

impl AggregateOp {
    /// A tumbling aggregate; `schema` is the output schema computed by plan
    /// validation, `int_input` records whether the aggregated column was an
    /// integer (Sum/Min/Max preserve integerness).
    pub fn new(
        group_by: Option<usize>,
        func: AggFunc,
        column: usize,
        window_ms: u64,
        schema: Schema,
        int_input: bool,
    ) -> Self {
        Self::with_slide(
            group_by, func, column, window_ms, window_ms, schema, int_input,
        )
    }

    /// A sliding aggregate (`slide_ms < window_ms` overlaps windows).
    #[allow(clippy::too_many_arguments)]
    pub fn with_slide(
        group_by: Option<usize>,
        func: AggFunc,
        column: usize,
        window_ms: u64,
        slide_ms: u64,
        schema: Schema,
        int_input: bool,
    ) -> Self {
        assert!(window_ms > 0, "window width must be positive");
        assert!(slide_ms > 0 && slide_ms <= window_ms, "invalid slide");
        Self {
            group_by,
            func,
            column,
            window_ms,
            slide_ms,
            schema: Arc::new(schema),
            int_input,
            parts: vec![Mutex::new(AggPart::default())],
        }
    }

    /// Resolves the aggregated column to a typed accessor, once per batch.
    /// `None` means no row of this batch can be absorbed (non-numeric
    /// column under a value aggregate — the old per-row `as_f64` returned
    /// `None` for every row).
    fn agg_column<'a>(&self, batch: &'a TupleBatch) -> Option<AggColumn<'a>> {
        if self.func == AggFunc::Count {
            return Some(AggColumn::CountOnly);
        }
        let col = batch.column(self.column);
        if self.int_input {
            match col.as_ints() {
                Some(xs) => Some(AggColumn::Ints(xs)),
                None => {
                    debug_assert!(false, "non-integer column in integer aggregate");
                    None
                }
            }
        } else {
            match col {
                Column::Float(xs) => Some(AggColumn::Floats(xs)),
                Column::Int(xs) => Some(AggColumn::WidenInts(xs)),
                _ => None,
            }
        }
    }

    /// Whether per-home partial accumulators combine **exactly** into
    /// the single-threaded result regardless of which home absorbed
    /// which rows: counts, `i128` integer arithmetic, and min/max (both
    /// input types) associate and commute; float `Sum`/`Avg` round
    /// differently under reassociation, so they stay on the
    /// order-preserving path.
    fn combine_exact(&self) -> bool {
        self.int_input || matches!(self.func, AggFunc::Count | AggFunc::Min | AggFunc::Max)
    }

    /// Selection-aware absorb for **ungrouped tumbling** aggregates:
    /// walks the row set as maximal dense, window-homogeneous segments and
    /// folds each into its accumulator with one state probe and one pass
    /// over the typed slice (full eight-row lanes counted by
    /// [`crate::types::work::WorkSnapshot::simd_lanes`]) instead of a
    /// per-row lookup and enum dispatch. Updates apply in row order, so
    /// the result is bit-identical to the scalar reference loop — float
    /// sums included.
    fn absorb_dense_runs(
        window_ms: u64,
        part: &mut AggPart,
        id: u32,
        ts: &[u64],
        input: &AggColumn<'_>,
        rows: impl Iterator<Item = usize>,
    ) {
        let mut fold_segment = |(lo, hi, start): (usize, usize, u64)| {
            let folded = Self::fold_run(part, start, id, input, lo..hi);
            if !matches!(input, AggColumn::CountOnly) {
                crate::types::work::count_simd_lanes((folded / LANES) as u64);
            }
        };
        let mut segment: Option<(usize, usize, u64)> = None; // dense [lo, hi) of one window
        for i in rows {
            let start = ts[i] - ts[i] % window_ms;
            segment = match segment {
                Some((lo, hi, s)) if i == hi && start == s => Some((lo, hi + 1, s)),
                ended => {
                    if let Some(ended) = ended {
                        fold_segment(ended);
                    }
                    Some((i, i + 1, start))
                }
            };
        }
        if let Some(last) = segment {
            fold_segment(last);
        }
    }

    /// The one state probe of a run: folds `rows` of the aggregated column,
    /// in order, into window `start`'s accumulator of group `id` — seeded
    /// from the first row when the pair is new. Returns the rows folded
    /// after seeding.
    fn fold_run(
        part: &mut AggPart,
        start: u64,
        id: u32,
        input: &AggColumn<'_>,
        mut rows: impl ExactSizeIterator<Item = usize>,
    ) -> usize {
        let state = part.slot(start, id);
        if state.count() == 0 {
            let first = rows.next().expect("a run has a row");
            *state = AggState::seeded(input.get(first));
        }
        let folded = rows.len();
        state.fold(input, rows);
        folded
    }

    /// Folds the `rows` of group `id` (batch-row indices, in row order)
    /// into `part`. Every window `[start, start + window)` with `start ≤ ts <
    /// start + window` and `start ≡ 0 (mod slide)` contains a row at `ts`;
    /// consecutive rows covered by the same windows form a run, and a run
    /// costs one [`AggregateOp::fold_run`] probe per covering window.
    fn fold_group(
        &self,
        part: &mut AggPart,
        id: u32,
        input: &AggColumn<'_>,
        ts: &[u64],
        rows: &[u32],
    ) {
        let (window, slide) = (self.window_ms, self.slide_ms);
        let mut a = 0;
        while a < rows.len() {
            // The run's cover: `back` windows before the one starting at
            // `last` still reach `t`. That count holds for offsets into the
            // slide bucket from `window - (back + 1)·slide` up to
            // `window - 1 - back·slide` (and the bucket's end), so the run
            // extends while `ts` stays in `lo ..= lo + width`.
            let t = ts[rows[a] as usize];
            let last = t - t % slide;
            let back = (window - 1 - (t - last)) / slide;
            let lo = window.saturating_sub((back + 1) * slide);
            let width = (window - 1 - back * slide).min(slide - 1) - lo;
            let lo = last + lo;
            let mut b = a + 1;
            while b < rows.len() && ts[rows[b] as usize].wrapping_sub(lo) <= width {
                b += 1;
            }
            // Windows before event time 0 do not exist.
            let first = last.saturating_sub(back * slide);
            let mut start = last;
            loop {
                let run = rows[a..b].iter().map(|&i| i as usize);
                Self::fold_run(part, start, id, input, run);
                if start == first {
                    break;
                }
                start -= slide;
            }
            a = b;
        }
    }

    /// Absorbs the rows of one batch (`sel`'s rows when a deferred
    /// selection is pushed down — never gathered) into `parts`, routing
    /// each group to the partition its key hashes to. A home walk, whose
    /// rows are already routed (or fold into the home's partial), passes
    /// its one partition.
    fn absorb(
        &self,
        parts: &mut [MutexGuard<'_, AggPart>],
        batch: &TupleBatch,
        sel: Option<&[u32]>,
    ) {
        // The aggregated column and the group-key column are resolved once
        // per batch; the loops read slices and never materialize a row or
        // widen a `Value`.
        let Some(input) = self.agg_column(batch) else {
            return;
        };
        let ts = batch.ts();
        let n = sel.map_or(batch.len(), <[u32]>::len);
        let rows = (0..n).map(|k| sel.map_or(k, |s| s[k] as usize));
        let Some(col) = self.group_by.map(|c| batch.column(c)) else {
            // No group key to hash: the one group `None` lives in
            // partition 0.
            let part = &mut *parts[0];
            let id = part.key_id(None);
            if self.slide_ms == self.window_ms {
                return Self::absorb_dense_runs(self.window_ms, part, id, ts, &input, rows);
            }
            let all: Vec<u32>;
            let rows = match sel {
                Some(sel) => sel,
                None => {
                    all = (0..n as u32).collect();
                    &all
                }
            };
            return self.fold_group(part, id, &input, ts, rows);
        };
        let n_parts = parts.len();
        if let Some((codes, dict)) = col.as_shared_dict() {
            // Stable counting sort of the rows on their codes: `bounds[c]`
            // is code `c`'s cursor into `sorted` and ends as its end.
            crate::types::work::count_dict_code_cmps(n as u64);
            let (mut bounds, mut sorted) = std::mem::take(&mut parts[0].scratch);
            bounds.clear();
            bounds.resize(dict.len(), 0);
            for i in rows.clone() {
                bounds[codes[i] as usize] += 1;
            }
            let mut at = 0;
            for bound in &mut bounds {
                at += std::mem::replace(bound, at);
            }
            sorted.clear();
            sorted.resize(n, 0);
            for i in rows {
                let cursor = &mut bounds[codes[i] as usize];
                sorted[*cursor] = i as u32;
                *cursor += 1;
            }
            let mut lo = 0;
            for (code, &hi) in bounds.iter().enumerate() {
                if hi > lo {
                    let part = &mut *parts[part_of_code(dict, code, n_parts)];
                    let id = part.code_id(dict, code);
                    self.fold_group(part, id, &input, ts, &sorted[lo..hi]);
                }
                lo = hi;
            }
            parts[0].scratch = (bounds, sorted);
            return;
        }
        let mut reader = KeyReader::new(col);
        for i in rows {
            let Some((key, p)) = reader.key_and_shard(i, n_parts) else {
                // Plan validation rejects float group keys (diagnostic
                // NL011, `diag::Code::UnhashableGroupKey`); see the
                // matching guard in `JoinOp`.
                debug_assert!(false, "unhashable group key escaped plan validation");
                continue;
            };
            let part = &mut *parts[p];
            let id = part.key_id(Some(key));
            self.fold_group(part, id, &input, ts, &[i as u32]);
        }
    }

    /// Closes the addressed partitions' windows the watermark has reached
    /// (every open window when `watermark` is `None`) and emits them,
    /// columnar, in ascending [`EmitKey`] order — one batch plus the key of
    /// every row, `None` when nothing closed. A partition's closed windows
    /// pop off the front of its window order and visit their own groups in
    /// label order, so one partition's drain is already sorted; the
    /// control thread's view sorts the partitions' runs together, which is
    /// the unpartitioned operator's emission order whatever the partition
    /// count.
    fn close(
        &self,
        parts: &mut [MutexGuard<'_, AggPart>],
        watermark: Option<u64>,
    ) -> Option<(TupleBatch, Vec<EmitKey>)> {
        // (window start, partition, group id, accumulator).
        let mut ready: Vec<(u64, usize, u32, AggState)> = Vec::new();
        for (p, part) in parts.iter_mut().enumerate() {
            let part = &mut **part;
            let drained = ready.len();
            while let Some(first) = part.windows.first_entry() {
                // An end past `u64::MAX` is one no watermark reaches.
                let end = first.key().checked_add(self.window_ms);
                if watermark.is_some_and(|w| end.is_none_or(|end| end > w)) {
                    break;
                }
                let (start, window) = first.remove_entry();
                let mut ids: Vec<u32> = window.keys().copied().collect();
                part.sort_ids(&mut ids);
                for g in ids {
                    ready.push((start, p, g, window[&g]));
                    part.keys.release(g);
                }
            }
            if ready.len() > drained {
                part.live -= ready.len() - drained;
                part.unranked = part.unranked.min(1);
                // Freed ids keep their key and label until an absorb reuses
                // them.
                part.keys.sweep();
            }
        }
        if ready.is_empty() {
            return None;
        }
        let label = |p: usize, g: u32| &parts[p].labels[g as usize];
        if parts.len() > 1 {
            // Stable: equal keys stay in partition order.
            ready.sort_by(|a, b| (a.0, label(a.1, a.2)).cmp(&(b.0, label(b.1, b.2))));
        }
        let column =
            |field: usize| Column::with_capacity(self.schema.data_type(field), ready.len());
        let mut ts: Vec<u64> = Vec::with_capacity(ready.len());
        let mut ends: Vec<i64> = Vec::with_capacity(ready.len());
        let mut groups = self.group_by.map(|_| column(1));
        let mut aggs = column(self.schema.len() - 1);
        let mut keys: Vec<EmitKey> = Vec::with_capacity(ready.len());
        let mut grouped_combines = 0u64;
        let mut ready = ready.into_iter().peekable();
        while let Some((start, p, g, mut state)) = ready.next() {
            // Combine runs of equal keys: a window absorbed as per-home
            // partials — ungrouped, or grouped at a shard-incompatible group
            // key — lives in several partitions at once. The stable sort
            // keeps equal keys in partition order, so the left-to-right fold
            // *is* the deterministic partition-order combine (exact for every
            // partial-eligible aggregate, so the fold order cannot shift the
            // value anyway). Grouped combines are counted
            // ([`work::WorkSnapshot::partial_groups_combined`]): each one is
            // a group that crossed the merge barrier as partials.
            while let Some((.., partial)) =
                ready.next_if(|&(s, q, h, _)| s == start && label(q, h) == label(p, g))
            {
                grouped_combines += u64::from(self.group_by.is_some());
                state.combine(&partial);
            }
            let Some(agg) = state.result(self.func) else {
                debug_assert!(false, "empty window state scheduled for emission");
                continue;
            };
            let end = start.saturating_add(self.window_ms);
            ts.push(end);
            ends.push(i64::try_from(end).unwrap_or(i64::MAX));
            if let Some(groups) = &mut groups {
                let key = parts[p].keys.keys[g as usize].as_ref();
                groups.push(key.expect("a grouped aggregate interns keys").to_value());
            }
            aggs.push(agg);
            keys.push((start, label(p, g).clone()));
        }
        if grouped_combines > 0 {
            crate::types::work::count_partial_groups_combined(grouped_combines);
        }
        let columns = [Some(Column::Int(ends)), groups, Some(aggs)];
        let columns = columns.into_iter().flatten().collect();
        let closed = TupleBatch::from_columns(self.schema.clone(), ts, columns);
        (!closed.is_empty()).then_some((closed, keys))
    }
}

impl Operator for AggregateOp {
    fn process(
        &self,
        partition: Option<usize>,
        _port: usize,
        batch: &TupleBatch,
        sel: Option<&[u32]>,
        _traced: bool,
    ) -> (Option<TupleBatch>, RowTrace) {
        // Absorb only: rows leave on a window close, never inline.
        with_parts(&self.parts, partition, |parts| {
            self.absorb(parts, batch, sel);
        });
        (None, None)
    }

    fn advance(
        &self,
        partition: Option<usize>,
        watermark: u64,
    ) -> Option<(TupleBatch, Vec<EmitKey>)> {
        with_parts(&self.parts, partition, |parts| {
            self.close(parts, Some(watermark))
        })
    }

    fn finish(&self) -> Option<TupleBatch> {
        with_parts(&self.parts, None, |parts| self.close(parts, None)).map(|(closed, _)| closed)
    }

    fn output_schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn unit_cost(&self) -> f64 {
        2.0
    }

    fn state_size(&self) -> usize {
        self.parts.iter().map(|p| lock_part(p).live).sum()
    }

    fn class(&self) -> OpClass {
        OpClass::Keyed
    }

    fn keyed_out(&self, in_keys: &[Option<usize>]) -> Option<usize> {
        // The group-by column must *be* the partition key: equal groups
        // then share a shard. The output carries the group (= key) in
        // column 1: (window_end, group, agg).
        let key = in_keys.first().copied().flatten()?;
        (self.group_by == Some(key)).then_some(1)
    }

    fn keyed_partial(&self) -> bool {
        self.combine_exact()
    }

    fn keyed_partial_grouped(&self) -> bool {
        self.group_by.is_some()
    }

    fn set_partitions(&mut self, n: usize) {
        assert!(n > 0, "partition count must be positive");
        let old: Vec<AggPart> = std::mem::take(&mut self.parts)
            .into_iter()
            .map(|m| m.into_inner().expect("aggregate partition lock poisoned"))
            .collect();
        let mut parts: Vec<AggPart> = (0..n).map(|_| AggPart::default()).collect();
        for part in &old {
            for (&start, window) in &part.windows {
                for (&id, state) in window {
                    // Ungrouped state re-homes to partition 0 (its partials
                    // spread across homes only during a flush); grouped
                    // state moves to the partition its key hashes to.
                    let key = &part.keys.keys[id as usize];
                    let target = &mut parts[key.as_ref().map_or(0, |k| k.shard_of(n))];
                    let to = target.key_id(key.clone());
                    // Per-home partials of one window merge when they
                    // meet — iterating `old` in partition order keeps the
                    // combine deterministic. This covers grouped keys
                    // too: under grouped partial aggregation
                    // (shard-incompatible group key, exact combine) one
                    // group's mid-window state legitimately spans
                    // partitions, and the exact combine re-homes it
                    // without schedule-dependent drift — which is what
                    // lets the node become a full member mid-window when
                    // the stream is re-keyed onto its group column.
                    target.slot(start, to).combine(state);
                }
            }
        }
        self.parts = parts.into_iter().map(Mutex::new).collect();
    }
}

/// Union of two schema-identical inputs.
#[derive(Debug)]
pub struct UnionOp {
    schema: Arc<Schema>,
}

impl UnionOp {
    /// A union with the common schema.
    pub fn new(schema: Schema) -> Self {
        Self {
            schema: Arc::new(schema),
        }
    }
}

impl Operator for UnionOp {
    fn process(
        &self,
        _partition: Option<usize>,
        _port: usize,
        batch: &TupleBatch,
        sel: Option<&[u32]>,
        _traced: bool,
    ) -> (Option<TupleBatch>, RowTrace) {
        // Re-own the columns under the union's schema handle: zero
        // copies, only the schema Arc changes.
        process_dense(batch, sel, false, |b, _| {
            (b.clone().with_schema(self.schema.clone()), None)
        })
    }

    fn output_schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn unit_cost(&self) -> f64 {
        0.5
    }

    fn class(&self) -> OpClass {
        OpClass::Barrier
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{DataType, Field, MergeTags};

    fn quote_schema() -> Schema {
        Schema::new(vec![
            Field::new("symbol", DataType::Str),
            Field::new("price", DataType::Float),
        ])
    }

    fn quote(ts: u64, sym: &str, price: f64) -> Tuple {
        Tuple::new(ts, vec![Value::str(sym), Value::Float(price)])
    }

    /// One batch over the quote schema.
    fn qbatch(rows: Vec<Tuple>) -> TupleBatch {
        TupleBatch::from_rows(Arc::new(quote_schema()), rows)
    }

    /// One control-thread invocation on a dense batch, collecting the
    /// output the way the engine's queue walk does.
    fn feed(op: &dyn Operator, port: usize, batch: TupleBatch, out: &mut Vec<TupleBatch>) {
        out.extend(op.process(None, port, &batch, None, false).0);
    }

    /// The control thread's watermark pass.
    fn close(op: &dyn Operator, watermark: u64, out: &mut Vec<TupleBatch>) {
        out.extend(op.advance(None, watermark).map(|(closed, _)| closed));
    }

    /// Flattens the emitted batches into rows, for assertions.
    fn rows_of(out: &[TupleBatch]) -> Vec<Tuple> {
        out.iter()
            .flat_map(super::super::types::TupleBatch::iter_rows)
            .collect()
    }

    #[test]
    fn filter_selects() {
        for columnar in [true, false] {
            with_columnar_kernels(columnar, || {
                let f = FilterOp::new(
                    Expr::col(1).gt(Expr::lit(Value::Float(100.0))),
                    quote_schema(),
                );
                let mut out = Vec::new();
                feed(
                    &f,
                    0,
                    qbatch(vec![quote(1, "IBM", 120.0), quote(2, "IBM", 80.0)]),
                    &mut out,
                );
                let rows = rows_of(&out);
                assert_eq!(rows.len(), 1, "columnar={columnar}");
                assert_eq!(rows[0].ts, 1);
                // An all-rejected batch emits nothing at all.
                out.clear();
                feed(&f, 0, qbatch(vec![quote(3, "IBM", 10.0)]), &mut out);
                assert!(out.is_empty());
            });
        }
    }

    #[test]
    fn filter_all_pass_forwards_batch_without_gather() {
        let f = FilterOp::new(
            Expr::col(1).gt(Expr::lit(Value::Float(0.0))),
            quote_schema(),
        );
        let mut out = Vec::new();
        crate::types::work::reset();
        feed(
            &f,
            0,
            qbatch(vec![quote(1, "IBM", 120.0), quote(2, "IBM", 80.0)]),
            &mut out,
        );
        let snap = crate::types::work::snapshot();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].len(), 2);
        assert_eq!(snap.rows_materialized, 0, "all-pass is zero-copy");
        assert_eq!(snap.row_evals, 0, "no per-row evaluation on the hot path");
        assert!(snap.kernel_ops > 0, "the predicate ran as a kernel");
    }

    #[test]
    fn project_maps() {
        for columnar in [true, false] {
            with_columnar_kernels(columnar, || {
                let p = ProjectOp::new(
                    vec![Expr::col(0)],
                    Schema::new(vec![Field::new("symbol", DataType::Str)]),
                );
                let mut out = Vec::new();
                feed(&p, 0, qbatch(vec![quote(5, "IBM", 1.0)]), &mut out);
                assert_eq!(rows_of(&out), vec![Tuple::new(5, vec![Value::str("IBM")])]);
            });
        }
    }

    #[test]
    fn project_drops_rows_that_fail_per_row() {
        // price / (price - 2): division by zero exactly when price == 2 —
        // the columnar kernel must drop precisely that row, like the
        // row-at-a-time path.
        let div = Expr::Arith(
            crate::expr::ArithOp::Div,
            Box::new(Expr::col(1)),
            Box::new(Expr::Arith(
                crate::expr::ArithOp::Sub,
                Box::new(Expr::col(1)),
                Box::new(Expr::lit(Value::Float(2.0))),
            )),
        );
        let schema = Schema::new(vec![Field::new("r", DataType::Float)]);
        let rows = vec![
            quote(1, "A", 4.0),
            quote(2, "A", 2.0), // divides by zero
            quote(3, "A", 6.0),
        ];
        let mut reference = Vec::new();
        with_columnar_kernels(false, || {
            let p = ProjectOp::new(vec![div.clone()], schema.clone());
            feed(&p, 0, qbatch(rows.clone()), &mut reference);
        });
        let mut columnar = Vec::new();
        with_columnar_kernels(true, || {
            let p = ProjectOp::new(vec![div], schema);
            feed(&p, 0, qbatch(rows), &mut columnar);
        });
        assert_eq!(rows_of(&columnar), rows_of(&reference));
        assert_eq!(rows_of(&columnar).len(), 2);
    }

    #[test]
    fn join_matches_within_window() {
        // quotes ⋈ news on symbol within 10ms.
        let news_schema = Schema::new(vec![
            Field::new("symbol", DataType::Str),
            Field::new("headline", DataType::Str),
        ]);
        let nbatch = |rows: Vec<Tuple>| TupleBatch::from_rows(Arc::new(news_schema.clone()), rows);
        let schema = quote_schema().join(&news_schema);
        let j = JoinOp::new(0, 0, 10, schema);
        let mut out = Vec::new();
        feed(&j, 0, qbatch(vec![quote(100, "IBM", 120.0)]), &mut out);
        assert!(out.is_empty());
        let news = Tuple::new(105, vec![Value::str("IBM"), Value::str("up")]);
        feed(&j, 1, nbatch(vec![news]), &mut out);
        let rows = rows_of(&out);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values.len(), 4);
        assert_eq!(rows[0].ts, 105);
        // Outside the window: no match.
        let stale = Tuple::new(200, vec![Value::str("IBM"), Value::str("old")]);
        out.clear();
        feed(&j, 1, nbatch(vec![stale]), &mut out);
        assert!(out.is_empty());
        // Different key: no match.
        let other = Tuple::new(101, vec![Value::str("AAPL"), Value::str("x")]);
        out.clear();
        feed(&j, 1, nbatch(vec![other]), &mut out);
        assert!(out.is_empty());
        assert_eq!(j.state_size(), 4);
    }

    #[test]
    fn join_within_one_batch_matches_earlier_rows() {
        // Both sides of a match arriving in the same batch must still join
        // (batched processing ≡ row-at-a-time processing).
        let schema = quote_schema().join(&quote_schema());
        let j = JoinOp::new(0, 0, 50, schema);
        let mut out = Vec::new();
        feed(
            &j,
            0,
            qbatch(vec![quote(1, "A", 1.0), quote(2, "A", 2.0)]),
            &mut out,
        );
        assert!(out.is_empty(), "left rows alone cannot match");
        feed(
            &j,
            1,
            qbatch(vec![quote(3, "A", 3.0), quote(4, "B", 4.0)]),
            &mut out,
        );
        let rows = rows_of(&out);
        assert_eq!(rows.len(), 2, "the A probe matches both stored A rows");
    }

    #[test]
    fn join_eviction_respects_watermark() {
        let schema = quote_schema().join(&quote_schema());
        let j = JoinOp::new(0, 0, 10, schema);
        let mut out = Vec::new();
        feed(
            &j,
            0,
            qbatch(vec![quote(100, "IBM", 1.0), quote(200, "IBM", 2.0)]),
            &mut out,
        );
        assert_eq!(j.state_size(), 2);
        close(&j, 150, &mut out);
        assert_eq!(j.state_size(), 1, "the ts=100 tuple must be evicted");
        // The surviving tuple still joins.
        feed(&j, 1, qbatch(vec![quote(205, "IBM", 3.0)]), &mut out);
        assert_eq!(rows_of(&out).len(), 1);
    }

    #[test]
    fn join_symmetry() {
        let schema = quote_schema().join(&quote_schema());
        let j = JoinOp::new(0, 0, 50, schema.clone());
        let mut out_lr = Vec::new();
        feed(&j, 0, qbatch(vec![quote(1, "A", 1.0)]), &mut out_lr);
        feed(&j, 1, qbatch(vec![quote(2, "A", 2.0)]), &mut out_lr);

        let j2 = JoinOp::new(0, 0, 50, schema);
        let mut out_rl = Vec::new();
        feed(&j2, 1, qbatch(vec![quote(2, "A", 2.0)]), &mut out_rl);
        feed(&j2, 0, qbatch(vec![quote(1, "A", 1.0)]), &mut out_rl);

        let (lr, rl) = (rows_of(&out_lr), rows_of(&out_rl));
        assert_eq!(lr, rl, "arrival order must not change results");
        // Left columns always precede right columns.
        assert_eq!(lr[0].values[1], Value::Float(1.0));
        assert_eq!(lr[0].values[3], Value::Float(2.0));
    }

    #[test]
    fn tumbling_count_per_symbol() {
        let schema = Schema::new(vec![
            Field::new("window_end", DataType::Int),
            Field::new("symbol", DataType::Str),
            Field::new("count", DataType::Int),
        ]);
        let a = AggregateOp::new(Some(0), AggFunc::Count, 0, 100, schema, true);
        let mut out = Vec::new();
        feed(
            &a,
            0,
            qbatch(vec![
                quote(10, "IBM", 1.0),
                quote(20, "IBM", 1.0),
                quote(30, "AAPL", 1.0),
                quote(110, "IBM", 1.0), // next window
            ]),
            &mut out,
        );
        assert!(out.is_empty(), "nothing closes before the watermark");
        close(&a, 100, &mut out);
        let rows = rows_of(&out);
        assert_eq!(rows.len(), 2); // IBM=2, AAPL=1 for window [0,100)
        let counts: Vec<i64> = rows.iter().map(|t| t.values[2].as_int().unwrap()).collect();
        assert_eq!(counts.iter().sum::<i64>(), 3);
        out.clear();
        out.extend(a.finish());
        let rows = rows_of(&out);
        assert_eq!(rows.len(), 1); // the [100,200) window force-closed
        assert_eq!(rows[0].values[2], Value::Int(1));
    }

    #[test]
    fn avg_and_minmax() {
        let schema = Schema::new(vec![
            Field::new("window_end", DataType::Int),
            Field::new("avg", DataType::Float),
        ]);
        let a = AggregateOp::new(None, AggFunc::Avg, 1, 100, schema.clone(), false);
        let mut out = Vec::new();
        feed(
            &a,
            0,
            qbatch(vec![quote(10, "X", 10.0), quote(20, "X", 20.0)]),
            &mut out,
        );
        close(&a, 100, &mut out);
        assert_eq!(rows_of(&out)[0].values[1], Value::Float(15.0));

        let mx = AggregateOp::new(None, AggFunc::Max, 1, 100, schema, false);
        out.clear();
        feed(
            &mx,
            0,
            qbatch(vec![quote(10, "X", 10.0), quote(20, "X", 20.0)]),
            &mut out,
        );
        out.extend(mx.finish());
        assert_eq!(rows_of(&out)[0].values[1], Value::Float(20.0));
    }

    #[test]
    fn aggregate_absorb_reads_typed_columns_without_row_work() {
        let schema = Schema::new(vec![
            Field::new("window_end", DataType::Int),
            Field::new("avg", DataType::Float),
        ]);
        let a = AggregateOp::new(Some(0), AggFunc::Avg, 1, 100, schema, false);
        let batch = qbatch((0..50).map(|i| quote(i, "X", i as f64)).collect());
        crate::types::work::reset();
        let mut out = Vec::new();
        feed(&a, 0, batch, &mut out);
        let snap = crate::types::work::snapshot();
        assert_eq!(snap.rows_materialized, 0, "absorb never builds a row");
        assert_eq!(snap.row_evals, 0);
    }

    #[test]
    fn union_passes_everything() {
        let u = UnionOp::new(quote_schema());
        let mut out = Vec::new();
        feed(&u, 0, qbatch(vec![quote(1, "A", 1.0)]), &mut out);
        feed(&u, 1, qbatch(vec![quote(2, "B", 2.0)]), &mut out);
        assert_eq!(rows_of(&out).len(), 2);
    }

    #[test]
    fn fused_chain_equals_staged_operators() {
        // filter(price > 100) → project(symbol, price) → filter(symbol = IBM),
        // run fused and as three separate operators over the same batch.
        let pred_price = Expr::col(1).gt(Expr::lit(Value::Float(100.0)));
        let proj = vec![Expr::col(0), Expr::col(1)];
        let pred_sym = Expr::col(0).eq(Expr::lit(Value::str("IBM")));
        let rows = vec![
            quote(1, "IBM", 120.0),
            quote(2, "IBM", 80.0),
            quote(3, "AAPL", 130.0),
            quote(4, "IBM", 140.0),
        ];

        let mut staged_out = Vec::new();
        let f1 = FilterOp::new(pred_price.clone(), quote_schema());
        let p = ProjectOp::new(proj.clone(), quote_schema());
        let f2 = FilterOp::new(pred_sym.clone(), quote_schema());
        let mut mid1 = Vec::new();
        feed(&f1, 0, qbatch(rows.clone()), &mut mid1);
        let mut mid2 = Vec::new();
        for b in mid1 {
            feed(&p, 0, b, &mut mid2);
        }
        for b in mid2 {
            feed(&f2, 0, b, &mut staged_out);
        }

        let fused = FusedOp::new(
            vec![
                (FusedStage::Filter(pred_price), FilterOp::UNIT_COST),
                (
                    FusedStage::Project(proj, Arc::new(quote_schema())),
                    ProjectOp::UNIT_COST,
                ),
                (FusedStage::Filter(pred_sym), FilterOp::UNIT_COST),
            ],
            quote_schema(),
        );
        // Before any row is seen the cost is the conservative chain sum.
        assert_eq!(
            fused.unit_cost(),
            FilterOp::UNIT_COST * 2.0 + ProjectOp::UNIT_COST
        );
        let mut fused_out = Vec::new();
        feed(&fused, 0, qbatch(rows), &mut fused_out);

        assert_eq!(rows_of(&fused_out), rows_of(&staged_out));
        // After processing, the cost is selectivity-weighted: 4 rows enter
        // the first filter, 3 survive to the project and second filter.
        let expected = FilterOp::UNIT_COST
            + (3.0 / 4.0) * ProjectOp::UNIT_COST
            + (3.0 / 4.0) * FilterOp::UNIT_COST;
        assert!((fused.unit_cost() - expected).abs() < 1e-12);
    }

    #[test]
    fn fused_chain_row_fallback_counts_stages_identically() {
        let pred = Expr::col(1).gt(Expr::lit(Value::Float(100.0)));
        let proj = vec![Expr::col(0), Expr::col(1)];
        let rows = vec![
            quote(1, "IBM", 120.0),
            quote(2, "IBM", 80.0),
            quote(3, "AAPL", 130.0),
        ];
        let build = || {
            FusedOp::new(
                vec![
                    (FusedStage::Filter(pred.clone()), FilterOp::UNIT_COST),
                    (
                        FusedStage::Project(proj.clone(), Arc::new(quote_schema())),
                        ProjectOp::UNIT_COST,
                    ),
                ],
                quote_schema(),
            )
        };
        let mut col_out = Vec::new();
        let col_cost = with_columnar_kernels(true, || {
            let f = build();
            feed(&f, 0, qbatch(rows.clone()), &mut col_out);
            f.unit_cost()
        });
        let mut row_out = Vec::new();
        let row_cost = with_columnar_kernels(false, || {
            let f = build();
            feed(&f, 0, qbatch(rows), &mut row_out);
            f.unit_cost()
        });
        assert_eq!(rows_of(&col_out), rows_of(&row_out));
        assert!(
            (col_cost - row_cost).abs() < 1e-12,
            "selectivity accounting must not depend on the kernel mode"
        );
    }

    #[test]
    fn fusion_composes_adjacent_filters_into_one_predicate() {
        let f = FusedOp::new(
            vec![
                (
                    FusedStage::Filter(Expr::col(1).gt(Expr::lit(Value::Float(1.0)))),
                    FilterOp::UNIT_COST,
                ),
                (
                    FusedStage::Filter(Expr::col(1).lt(Expr::lit(Value::Float(9.0)))),
                    FilterOp::UNIT_COST,
                ),
                (
                    FusedStage::Filter(Expr::col(0).eq(Expr::lit(Value::str("A")))),
                    FilterOp::UNIT_COST,
                ),
            ],
            quote_schema(),
        );
        assert_eq!(f.num_stages(), 1, "three filters compose into one");
        assert_eq!(
            f.unit_cost(),
            3.0 * FilterOp::UNIT_COST,
            "composition keeps the summed analytic cost"
        );
    }

    #[test]
    fn fusion_substitutes_through_leaf_projections() {
        // Inner projection is all leaves → the outer projection rewrites
        // over the inner's inputs and one stage remains.
        let swap = vec![Expr::col(1), Expr::col(0)];
        let swapped_schema = Arc::new(Schema::new(vec![
            Field::new("price", DataType::Float),
            Field::new("symbol", DataType::Str),
        ]));
        let f = FusedOp::new(
            vec![
                (
                    FusedStage::Project(swap.clone(), swapped_schema),
                    ProjectOp::UNIT_COST,
                ),
                (
                    FusedStage::Project(swap.clone(), Arc::new(quote_schema())),
                    ProjectOp::UNIT_COST,
                ),
            ],
            quote_schema(),
        );
        assert_eq!(f.num_stages(), 1, "leaf projections substitute");
        // Swapping twice is the identity.
        let mut out = Vec::new();
        feed(&f, 0, qbatch(vec![quote(1, "IBM", 2.0)]), &mut out);
        assert_eq!(rows_of(&out), vec![quote(1, "IBM", 2.0)]);
    }

    #[test]
    fn fusion_keeps_staged_loop_for_non_leaf_projections() {
        // Inner projection computes arithmetic — substitution would
        // duplicate work (and change error behavior), so stages stay.
        let double = Expr::Arith(
            crate::expr::ArithOp::Add,
            Box::new(Expr::col(1)),
            Box::new(Expr::col(1)),
        );
        let f = FusedOp::new(
            vec![
                (
                    FusedStage::Project(vec![Expr::col(0), double], Arc::new(quote_schema())),
                    ProjectOp::UNIT_COST,
                ),
                (
                    FusedStage::Project(
                        vec![Expr::col(1), Expr::col(0)],
                        Arc::new(Schema::new(vec![
                            Field::new("price", DataType::Float),
                            Field::new("symbol", DataType::Str),
                        ])),
                    ),
                    ProjectOp::UNIT_COST,
                ),
            ],
            Schema::new(vec![
                Field::new("price", DataType::Float),
                Field::new("symbol", DataType::Str),
            ]),
        );
        assert_eq!(
            f.num_stages(),
            2,
            "non-leaf inner projection is not substituted"
        );
    }

    #[test]
    fn int_sum_accumulates_exactly_past_2_pow_53() {
        // Three copies of 2^53 + 1: the old f64 accumulator rounded each
        // term to 2^53 and returned 3 × 2^53.
        let big = (1i64 << 53) + 1;
        let schema = Schema::new(vec![
            Field::new("window_end", DataType::Int),
            Field::new("sum", DataType::Int),
        ]);
        let volume_schema = Arc::new(Schema::new(vec![Field::new("volume", DataType::Int)]));
        let a = AggregateOp::new(None, AggFunc::Sum, 0, 100, schema, true);
        let rows = (0..3)
            .map(|i| Tuple::new(i, vec![Value::Int(big)]))
            .collect();
        let mut out = Vec::new();
        feed(&a, 0, TupleBatch::from_rows(volume_schema, rows), &mut out);
        out.extend(a.finish());
        assert_eq!(rows_of(&out)[0].values[1], Value::Int(3 * big));
    }

    #[test]
    fn int_min_max_avg_stay_exact() {
        let big = (1i64 << 60) + 7;
        let schema = Schema::new(vec![
            Field::new("window_end", DataType::Int),
            Field::new("max", DataType::Int),
        ]);
        let volume_schema = Arc::new(Schema::new(vec![Field::new("volume", DataType::Int)]));
        let mx = AggregateOp::new(None, AggFunc::Max, 0, 100, schema, true);
        let rows: Vec<Tuple> = [big, big - 1]
            .iter()
            .enumerate()
            .map(|(i, v)| Tuple::new(i as u64, vec![Value::Int(*v)]))
            .collect();
        let mut out = Vec::new();
        feed(&mx, 0, TupleBatch::from_rows(volume_schema, rows), &mut out);
        out.extend(mx.finish());
        // f64 cannot distinguish big from big - 1 at this magnitude.
        assert_eq!(rows_of(&out)[0].values[1], Value::Int(big));
    }

    #[test]
    fn empty_agg_state_yields_no_value() {
        let s = AggState::EMPTY;
        for func in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Avg,
            AggFunc::Min,
            AggFunc::Max,
        ] {
            assert_eq!(s.result(func), None, "{func:?} over an empty window");
        }
    }

    #[test]
    fn saturating_sum_is_explicit_at_i64_bounds() {
        assert_eq!(saturate_i128(i128::from(i64::MAX) + 1), i64::MAX);
        assert_eq!(saturate_i128(i128::from(i64::MIN) - 1), i64::MIN);
        assert_eq!(saturate_i128(42), 42);
    }

    #[test]
    fn join_eviction_survives_repeated_watermarks() {
        let schema = quote_schema().join(&quote_schema());
        let j = JoinOp::new(0, 0, 10, schema);
        let mut out = Vec::new();
        feed(&j, 0, qbatch(vec![quote(100, "IBM", 1.0)]), &mut out);
        assert_eq!(j.state_size(), 1);
        // Re-advancing past everything must not underflow the tracked size.
        close(&j, 500, &mut out);
        close(&j, 500, &mut out);
        close(&j, 900, &mut out);
        assert_eq!(j.state_size(), 0);
    }

    #[test]
    fn unit_costs_rank_operators_sanely() {
        let f = FilterOp::new(Expr::lit(Value::Bool(true)), quote_schema());
        let j = JoinOp::new(0, 0, 1, quote_schema().join(&quote_schema()));
        let schema = Schema::new(vec![
            Field::new("window_end", DataType::Int),
            Field::new("count", DataType::Int),
        ]);
        let a = AggregateOp::new(None, AggFunc::Count, 0, 1, schema, true);
        assert!(j.unit_cost() > a.unit_cost());
        assert!(a.unit_cost() > f.unit_cost());
    }

    #[test]
    fn columnar_kernel_knob_is_scoped_and_restored() {
        assert!(columnar_kernels_enabled(), "defaults to on");
        with_columnar_kernels(false, || {
            assert!(!columnar_kernels_enabled());
            with_columnar_kernels(true, || assert!(columnar_kernels_enabled()));
            assert!(!columnar_kernels_enabled());
        });
        assert!(columnar_kernels_enabled());
    }

    #[test]
    fn key_shard_matches_cell_shard() {
        // The state partitioner (Key) and the row partitioner (column
        // cell) must agree byte for byte, or keyed state would end up on
        // the wrong shard.
        let batch = qbatch(vec![quote(1, "IBM", 1.0), quote(2, "AAPL", 2.0)]);
        for shards in [1usize, 2, 4, 8] {
            for i in 0..batch.len() {
                let key = Key::from_column(batch.column(0), i).unwrap();
                assert_eq!(
                    key.shard_of(shards),
                    shard_of_cell(batch.column(0), i, shards)
                );
            }
        }
        assert_eq!(Key::Int(7).shard_of(1), 0);
        assert_eq!(Key::Bool(true).shard_of(3), Key::Bool(true).shard_of(3));
    }

    #[test]
    fn key_reader_agrees_with_per_row_paths_and_hashes_codes() {
        // `from_rows` dictionary-encodes the symbol column, so this
        // exercises the memoized dict path; the float column exercises the
        // plain pass-through. The reader must agree with the per-row
        // `Key::from_column` / `shard_of_cell` on every row while hashing
        // string bytes only once per distinct code.
        let batch = qbatch(vec![
            quote(1, "IBM", 1.0),
            quote(2, "AAPL", 2.0),
            quote(3, "IBM", 3.0),
            quote(4, "MSFT", 4.0),
            quote(5, "AAPL", 5.0),
        ]);
        let col = batch.column(0);
        assert!(col.as_dict().is_some());
        crate::types::work::reset();
        let mut reader = KeyReader::new(col);
        for shards in [1usize, 3, 8] {
            for i in 0..batch.len() {
                assert_eq!(reader.shard(i, shards), shard_of_cell(col, i, shards));
                let (k, p) = reader.key_and_shard(i, shards).unwrap();
                assert_eq!(k, Key::from_column(col, i).unwrap());
                assert_eq!(p, shard_of_cell(col, i, shards));
            }
        }
        // One code lookup per row read, added in one step on drop.
        assert_eq!(crate::types::work::snapshot().dict_code_cmps, 0);
        drop(reader);
        assert_eq!(crate::types::work::snapshot().dict_code_cmps, 3 * 2 * 5);
        // Plain (non-dict) columns pass through untouched and uncounted.
        let plain = Column::Int(vec![10, 20, 30]);
        crate::types::work::reset();
        let mut reader = KeyReader::new(&plain);
        for i in 0..3 {
            let (k, p) = reader.key_and_shard(i, 4).unwrap();
            assert_eq!(Some(k), Key::from_column(&plain, i));
            assert_eq!(p, shard_of_cell(&plain, i, 4));
            assert_eq!(reader.shard(i, 4), shard_of_cell(&plain, i, 4));
        }
        drop(reader);
        assert_eq!(crate::types::work::snapshot().dict_code_cmps, 0);
    }

    #[test]
    fn keyed_join_kernel_traces_probe_rows() {
        let schema = quote_schema().join(&quote_schema());
        let mut j = JoinOp::new(0, 0, 50, schema);
        j.set_partitions(2);
        let shard_a = Key::Str(Arc::from("A")).shard_of(2);
        // Store two A rows on A's shard, then probe with one A row: two
        // matches, both traced to probe row 0.
        let stored = qbatch(vec![quote(1, "A", 1.0), quote(2, "A", 2.0)]);
        let (out, trace) = j.process(Some(shard_a), 0, &stored, None, true);
        assert!(out.is_none() && trace.unwrap().is_empty());
        let probe = qbatch(vec![quote(3, "A", 3.0)]);
        let (out, trace) = j.process(Some(shard_a), 1, &probe, None, true);
        assert_eq!(out.unwrap().len(), 2, "probe matches both stored rows");
        assert_eq!(
            trace,
            Some(vec![0, 0]),
            "join fan-out repeats the probe row"
        );
        // Through a deferred selection the trace still names batch rows.
        let probes = qbatch(vec![quote(4, "B", 4.0), quote(5, "A", 5.0)]);
        let (out, trace) = j.process(Some(shard_a), 1, &probes, Some(&[1]), true);
        assert_eq!(out.unwrap().len(), 2);
        assert_eq!(trace, Some(vec![1, 1]));
    }

    #[test]
    fn keyed_aggregate_emits_sorted_with_emit_keys() {
        let schema = Schema::new(vec![
            Field::new("window_end", DataType::Int),
            Field::new("symbol", DataType::Str),
            Field::new("count", DataType::Int),
        ]);
        let mut a = AggregateOp::new(Some(0), AggFunc::Count, 0, 100, schema, true);
        a.set_partitions(2);
        let shard_of = |s: &str| Key::Str(Arc::from(s)).shard_of(2);
        let rows = vec![quote(10, "IBM", 1.0), quote(20, "IBM", 1.0)];
        let (out, trace) = a.process(Some(shard_of("IBM")), 0, &qbatch(rows), None, true);
        assert!(out.is_none() && trace.is_none(), "aggregates emit on close");
        let (batch, keys) = a.advance(Some(shard_of("IBM")), 100).unwrap();
        assert_eq!(batch.len(), 1);
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].0, 0, "window start rides in the emit key");
        assert!(keys[0].1.contains("IBM"));
        // The other shard has nothing.
        let other = 1 - shard_of("IBM");
        assert!(a.advance(Some(other), 100).is_none());
    }

    /// The rows of `batch` split by the partition their key (column 0)
    /// hashes to among `n` — what the engine's partitioner does per flush.
    fn route(batch: &TupleBatch, n: usize) -> Vec<(usize, TupleBatch)> {
        let mut idxs: Vec<Vec<u32>> = vec![Vec::new(); n];
        for i in 0..batch.len() {
            let key = Key::from_column(batch.column(0), i).unwrap();
            idxs[key.shard_of(n)].push(i as u32);
        }
        let slices = idxs.iter().enumerate().filter(|(_, rows)| !rows.is_empty());
        slices.map(|(p, rows)| (p, batch.take(rows))).collect()
    }

    fn sorted_rows(out: &[TupleBatch]) -> Vec<String> {
        let mut rows: Vec<String> = rows_of(out).iter().map(|t| format!("{t:?}")).collect();
        rows.sort();
        rows
    }

    /// One operator, two views: the control thread's (`partition: None`,
    /// every row routed to the partition its key hashes to) and the
    /// workers' (`Some(p)`, rows routed by hand) leave identical state and
    /// identical `advance` emissions — also against one partition, and
    /// across a re-home in mid-stream.
    #[test]
    fn control_view_equals_hand_routed_partitions() {
        let syms = ["A", "B", "C", "D", "E"];
        let batch_at = |base: u64| {
            qbatch(
                (0..40)
                    .map(|i| quote(base + i, syms[(i * 7 % 5) as usize], i as f64))
                    .collect(),
            )
        };
        for n in [2usize, 4] {
            // Join: `whole` sees every batch through `None`, `routed`
            // through hand-routed `Some(p)` slices, `rehomed` starts on one
            // partition and moves to `n` after the first batch.
            let schema = quote_schema().join(&quote_schema());
            let mut whole = JoinOp::new(0, 0, 30, schema.clone());
            let mut routed = JoinOp::new(0, 0, 30, schema.clone());
            let mut rehomed = JoinOp::new(0, 0, 30, schema);
            whole.set_partitions(n);
            routed.set_partitions(n);
            for (step, port) in [(0u64, 0usize), (1, 1), (2, 0), (3, 1)] {
                let batch = batch_at(step * 20);
                let (mut out_w, mut out_r, mut out_h) = (Vec::new(), Vec::new(), Vec::new());
                feed(&whole, port, batch.clone(), &mut out_w);
                feed(&rehomed, port, batch.clone(), &mut out_h);
                for (p, slice) in route(&batch, n) {
                    out_r.extend(routed.process(Some(p), port, &slice, None, false).0);
                }
                // Routing changes which rows share an output batch, never
                // which matches exist.
                assert_eq!(sorted_rows(&out_r), sorted_rows(&out_w), "join step {step}");
                assert_eq!(
                    rows_of(&out_h),
                    rows_of(&out_w),
                    "re-homed join step {step}"
                );
                if step == 0 {
                    rehomed.set_partitions(n);
                    assert_eq!(rehomed.state_size(), 40, "state survives the re-home");
                }
                let watermark = step * 20 + 25;
                assert!(whole.advance(None, watermark).is_none());
                assert!(rehomed.advance(None, watermark).is_none());
                for p in 0..n {
                    assert!(routed.advance(Some(p), watermark).is_none());
                }
                assert_eq!(routed.state_size(), whole.state_size(), "join step {step}");
                assert_eq!(rehomed.state_size(), whole.state_size(), "join step {step}");
            }

            // Aggregate: per-partition closes merge by emit key into the
            // control view's emission, which is the unpartitioned one.
            let schema = Schema::new(vec![
                Field::new("window_end", DataType::Int),
                Field::new("symbol", DataType::Str),
                Field::new("count", DataType::Int),
            ]);
            let new_op = || AggregateOp::new(Some(0), AggFunc::Count, 0, 10, schema.clone(), true);
            let (single, mut whole, mut routed) = (new_op(), new_op(), new_op());
            whole.set_partitions(n);
            routed.set_partitions(n);
            for step in 0..3u64 {
                let batch = batch_at(step * 20);
                feed(&single, 0, batch.clone(), &mut Vec::new());
                feed(&whole, 0, batch.clone(), &mut Vec::new());
                for (p, slice) in route(&batch, n) {
                    assert!(routed.process(Some(p), 0, &slice, None, true).0.is_none());
                }
                assert_eq!(routed.state_size(), whole.state_size());
                let watermark = step * 20 + 25;
                let expected = single.advance(None, watermark).map(|(closed, _)| closed);
                let closed = whole.advance(None, watermark).map(|(closed, _)| closed);
                assert_eq!(closed, expected, "partition count never shows");
                let parts: Vec<(TupleBatch, MergeTags)> = (0..n)
                    .filter_map(|p| routed.advance(Some(p), watermark))
                    .map(|(closed, keys)| (closed, MergeTags::Emits(keys)))
                    .collect();
                let merged = TupleBatch::interleave_tagged(parts);
                assert_eq!(
                    merged.map(|b| rows_of(&[b])),
                    expected.map(|b| rows_of(&[b])),
                    "aggregate step {step}"
                );
            }
            let expected = single.finish().map(|b| rows_of(&[b]));
            assert_eq!(whole.finish().map(|b| rows_of(&[b])), expected);
            assert_eq!(routed.finish().map(|b| rows_of(&[b])), expected);
        }
    }

    #[test]
    fn selection_pushdown_absorbs_without_densifying() {
        // A deferred selection into an aggregate: only selected rows
        // absorb, and no row is materialized in the process.
        let schema = Schema::new(vec![
            Field::new("window_end", DataType::Int),
            Field::new("count", DataType::Int),
        ]);
        let a = AggregateOp::new(None, AggFunc::Count, 0, 100, schema, true);
        let batch = qbatch(vec![
            quote(1, "A", 1.0),
            quote(2, "B", 2.0),
            quote(3, "C", 3.0),
        ]);
        crate::types::work::reset();
        let sel: Vec<u32> = vec![0, 2];
        a.process(Some(0), 0, &batch, Some(&sel), false);
        assert_eq!(
            crate::types::work::snapshot().rows_materialized,
            0,
            "pushdown absorb never gathers"
        );
        assert_eq!(
            rows_of(&[a.finish().unwrap()])[0].values[1],
            Value::Int(2),
            "only the selected rows were absorbed"
        );
    }

    /// The aggregate's meaning, spelled naively: a row joins every aligned
    /// window that covers it (found by scanning every start), each
    /// `(window, group)` keeps its inputs in arrival order, and a
    /// watermark drains — `retain`s out — every window it has passed, in
    /// `(start, group debug)` order. Shares no code with `AggregateOp`.
    #[derive(Default)]
    struct NaiveWindows {
        open: HashMap<(u64, String), (Option<Key>, Vec<Value>)>,
    }

    impl NaiveWindows {
        fn absorb(&mut self, window: u64, slide: u64, ts: u64, group: Option<Key>, v: Value) {
            for start in (0..=ts).step_by(slide as usize) {
                if ts < start + window {
                    let slot = self.open.entry((start, format!("{group:?}")));
                    slot.or_insert((group.clone(), Vec::new()))
                        .1
                        .push(v.clone());
                }
            }
        }

        fn drain(&mut self, func: AggFunc, window: u64, watermark: u64) -> Vec<Tuple> {
            let mut closed = Vec::new();
            self.open.retain(|(start, label), (group, inputs)| {
                let keep = start + window > watermark;
                if !keep {
                    closed.push((*start, label.clone(), group.clone(), inputs.clone()));
                }
                keep
            });
            closed.sort_by(|a, b| (a.0, &a.1).cmp(&(b.0, &b.1)));
            closed
                .into_iter()
                .map(|(start, _, group, inputs)| {
                    let floats = inputs.iter().map(|v| v.as_f64().unwrap());
                    let agg = match (func, &inputs[0]) {
                        (AggFunc::Count, _) => Value::Int(inputs.len() as i64),
                        (AggFunc::Sum, Value::Int(_)) => {
                            Value::Int(inputs.iter().map(|v| v.as_int().unwrap()).sum())
                        }
                        (AggFunc::Max, _) => Value::Float(floats.reduce(f64::max).unwrap()),
                        (AggFunc::Avg, _) => {
                            Value::Float(floats.reduce(|a, b| a + b).unwrap() / inputs.len() as f64)
                        }
                        other => unreachable!("not generated: {other:?}"),
                    };
                    let end = start + window;
                    let mut values = vec![Value::Int(end as i64)];
                    values.extend(group.map(|k| k.to_value()));
                    values.push(agg);
                    Tuple::new(end, values)
                })
                .collect()
        }
    }

    #[test]
    fn code_grouped_absorb_equals_row_path_and_naive_windows() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let input = Arc::new(Schema::new(vec![
            Field::new("symbol", DataType::Str),
            Field::new("price", DataType::Float),
            Field::new("volume", DataType::Int),
            Field::new("account", DataType::Int),
        ]));
        let mut rng = StdRng::seed_from_u64(0xA66);
        let mut shapes = std::collections::HashSet::new();
        for case in 0..240 {
            // Tumbling, sliding, and a window that is no multiple of its slide.
            let (window, slide) = [(100, 100), (100, 50), (100, 30), (90, 40), (70, 70)][case % 5];
            let (func, column, int_input) = [
                (AggFunc::Count, 0, true),
                (AggFunc::Max, 1, false),
                (AggFunc::Avg, 1, false),
                (AggFunc::Sum, 2, true),
            ][rng.random_range(0..4usize)];
            // Symbol pools of 5 (always `Dict`) and 300 (a big batch decays
            // to `Str` mid-stream), an `Int` key, or no key at all.
            let (group_by, pool) = [(Some(0), 5), (Some(0), 300), (Some(3), 7), (None, 1)]
                [rng.random_range(0..4usize)];
            let mut fields = vec![Field::new("window_end", DataType::Int)];
            fields.extend(group_by.map(|c| input.fields[c].clone()));
            let agg_type = if int_input {
                DataType::Int
            } else {
                DataType::Float
            };
            fields.push(Field::new("agg", agg_type));
            let schema = Schema::new(fields);
            let new_op = || {
                AggregateOp::with_slide(
                    group_by,
                    func,
                    column,
                    window,
                    slide,
                    schema.clone(),
                    int_input,
                )
            };
            let (mut coded, scalar, mut naive) = (new_op(), new_op(), NaiveWindows::default());
            coded.set_partitions([1, 2, 4][rng.random_range(0..3usize)]);
            // One dictionary per string column for the whole case, as the
            // engine keeps per stream: the 300-symbol pool decays mid-stream
            // and stays plain.
            let mut dicts: Vec<crate::types::DictInterner> =
                input.fields.iter().map(|_| Default::default()).collect();
            // Close-heavy cases: every batch is non-empty, on time, and
            // followed by a watermark past all of its windows.
            let close_heavy = case % 2 == 1;
            let (mut base, mut watermark) = (0u64, 0u64);
            for _ in 0..rng.random_range(1..6usize) {
                // Out-of-order inside the batch, and late against earlier
                // batches (and against the watermark).
                let sizes = [0, 1, 17, 40, 600];
                let n = sizes[rng.random_range(usize::from(close_heavy)..5)];
                base += rng.random_range(0..250u64) + if close_heavy { 320 } else { 0 };
                let rows: Vec<Tuple> = (0..n)
                    .map(|_| {
                        let ts = (base + rng.random_range(0..200u64)).saturating_sub(120);
                        let key = rng.random_range(0..pool as i64);
                        Tuple::new(
                            ts,
                            vec![
                                Value::str(format!("S{key}")),
                                Value::Float(rng.random_range(-50.0..50.0)),
                                Value::Int(rng.random_range(-1000..1000i64)),
                                Value::Int(key),
                            ],
                        )
                    })
                    .collect();
                // Dense, or a deferred selection of about half the rows.
                let sel: Option<Vec<u32>> = rng
                    .random_bool(0.5)
                    .then(|| (0..n as u32).filter(|_| rng.random_bool(0.5)).collect());
                let mut batch = TupleBatch::with_capacity(input.clone(), n);
                batch.extend(rows.clone());
                batch.seal_into(&mut dicts);
                shapes.insert((group_by, batch.column(0).as_dict().is_some()));
                let absorbed = sel.as_ref().map_or(n, Vec::len);
                let (mut out_c, mut out_s) = (Vec::new(), Vec::new());
                out_c.extend(coded.process(None, 0, &batch, sel.as_deref(), false).0);
                for i in sel.unwrap_or_else(|| (0..n as u32).collect()) {
                    // The scalar row path: one plain-column row per call.
                    let row = rows[i as usize].clone();
                    let group = group_by.map(|c| Key::from_value(row.value(c)).unwrap());
                    naive.absorb(window, slide, row.ts, group, row.value(column).clone());
                    let mut one = TupleBatch::with_capacity(input.clone(), 1);
                    one.push(row);
                    assert!(one.column(0).as_dict().is_none());
                    feed(&scalar, 0, one, &mut out_s);
                }
                let slack = if close_heavy { 200 + window } else { 0 };
                watermark =
                    watermark.max((base + slack + rng.random_range(0..100u64)).saturating_sub(150));
                // Every emitted row carries its `(window start, group debug
                // text)` key, and the keys ascend.
                if let Some((closed, keys)) = coded.advance(None, watermark) {
                    let expected: Vec<EmitKey> = closed
                        .iter_rows()
                        .map(|row| {
                            let group = group_by.map(|_| Key::from_value(row.value(1)).unwrap());
                            (row.ts - window, format!("{group:?}").into())
                        })
                        .collect();
                    assert_eq!(keys, expected, "case {case}");
                    assert!(keys.windows(2).all(|w| w[0] < w[1]), "case {case}");
                    out_c.push(closed);
                }
                assert!(!close_heavy || absorbed == 0 || !out_c.is_empty());
                close(&scalar, watermark, &mut out_s);
                // `{:?}` of an f64 round-trips, so equal text is equal bits.
                let expected = format!("{:?}", naive.drain(func, window, watermark));
                assert_eq!(format!("{:?}", rows_of(&out_c)), expected, "case {case}");
                assert_eq!(format!("{:?}", rows_of(&out_s)), expected, "case {case}");
            }
            let (mut out_c, mut out_s) = (Vec::new(), Vec::new());
            out_c.extend(coded.finish());
            out_s.extend(scalar.finish());
            let expected = format!("{:?}", naive.drain(func, window, u64::MAX));
            assert_eq!(
                format!("{:?}", rows_of(&out_c)),
                expected,
                "case {case} finish"
            );
            assert_eq!(
                format!("{:?}", rows_of(&out_s)),
                expected,
                "case {case} finish"
            );
            assert_eq!(coded.state_size() + scalar.state_size(), 0);
        }
        // The cases covered `Dict` keys, a decayed `Str` column, `Int` keys
        // and ungrouped state.
        for shape in [
            (Some(0), true),
            (Some(0), false),
            (Some(3), true),
            (None, true),
        ] {
            assert!(shapes.contains(&shape), "{shape:?} never generated");
        }
    }

    #[test]
    fn late_row_reopens_a_closed_window_and_drains_again() {
        let schema = Schema::new(vec![
            Field::new("window_end", DataType::Int),
            Field::new("symbol", DataType::Str),
            Field::new("count", DataType::Int),
        ]);
        let agg = AggregateOp::new(Some(0), AggFunc::Count, 0, 100, schema, true);
        let mut out = Vec::new();
        feed(
            &agg,
            0,
            qbatch(vec![quote(10, "A", 1.0), quote(110, "A", 1.0)]),
            &mut out,
        );
        close(&agg, 100, &mut out);
        let window = |end: i64, n: i64| {
            Tuple::new(
                end as u64,
                vec![Value::Int(end), Value::str("A"), Value::Int(n)],
            )
        };
        assert_eq!(rows_of(&out), vec![window(100, 1)]);
        // A row older than the watermark re-opens window [0, 100) ahead of
        // the open [100, 200); the next drain pops exactly that window.
        out.clear();
        feed(
            &agg,
            0,
            qbatch(vec![quote(20, "A", 1.0), quote(30, "A", 1.0)]),
            &mut out,
        );
        assert_eq!(agg.state_size(), 2);
        close(&agg, 100, &mut out);
        assert_eq!(rows_of(&out), vec![window(100, 2)]);
        assert_eq!(agg.state_size(), 1);
        // Nothing closes: the front window is still open.
        out.clear();
        close(&agg, 199, &mut out);
        assert!(out.is_empty());
        out.extend(agg.finish());
        assert_eq!(rows_of(&out), vec![window(200, 1)]);
    }

    /// The join's meaning, spelled naively: each side keeps its rows in one
    /// arrival-ordered list, a probe scans the whole opposite list, and a
    /// watermark drops, per key, the rows older than the horizon up to that
    /// key's first younger row. Shares no code with `JoinOp`.
    #[derive(Default)]
    struct NestedLoopJoin {
        sides: [Vec<(Key, Tuple)>; 2],
    }

    impl NestedLoopJoin {
        fn probe_insert(&mut self, port: usize, key: Key, row: Tuple, window: u64) -> Vec<Tuple> {
            let partners = self.sides[1 - port].iter();
            let matches = partners
                .filter(|(k, partner)| *k == key && row.ts.abs_diff(partner.ts) <= window)
                .map(|(_, partner)| {
                    let (left, right) = if port == 0 {
                        (&row, partner)
                    } else {
                        (partner, &row)
                    };
                    let values = left.values.iter().chain(&right.values).cloned().collect();
                    Tuple::new(left.ts.max(right.ts), values)
                })
                .collect();
            self.sides[port].push((key, row));
            matches
        }

        fn evict(&mut self, horizon: u64) {
            for side in &mut self.sides {
                let mut shielded = std::collections::HashSet::new();
                side.retain(|(key, row)| {
                    shielded.contains(key) || row.ts >= horizon && shielded.insert(key.clone())
                });
            }
        }
    }

    #[test]
    fn interned_join_equals_nested_loop_model() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let input = Arc::new(Schema::new(vec![
            Field::new("symbol", DataType::Str),
            Field::new("price", DataType::Float),
            Field::new("account", DataType::Int),
        ]));
        let mut rng = StdRng::seed_from_u64(0x101);
        let mut shapes = std::collections::HashSet::new();
        // What the join itself counted, net of this test's own row reads.
        let mut counted = crate::types::work::WorkSnapshot::default();
        for case in 0..160 {
            // A 5-symbol pool stays `Dict`, a 300-symbol one decays; or an
            // `Int` key.
            let (key_col, pool) = [(0, 5), (0, 300), (2, 7)][case % 3];
            let window = [10, 50, 400][rng.random_range(0..3usize)];
            let mut join = JoinOp::new(key_col, key_col, window, input.join(&input));
            join.set_partitions([1, 2, 4][rng.random_range(0..3usize)]);
            let mut model = NestedLoopJoin::default();
            // The two sides' stream dictionaries.
            let mut dicts: [Vec<crate::types::DictInterner>; 2] =
                [0, 1].map(|_| input.fields.iter().map(|_| Default::default()).collect());
            let steps = rng.random_range(2..9usize);
            let rehome_at = rng.random_range(0..steps);
            let (mut base, mut watermark) = (0u64, 0u64);
            for step in 0..steps {
                if step == rehome_at {
                    join.set_partitions([1, 2, 4][rng.random_range(0..3usize)]);
                }
                let port = rng.random_range(0..2usize);
                let n = [0, 1, 16, 90][rng.random_range(0..4usize)];
                base += rng.random_range(0..120u64);
                // Out-of-order inside the batch, and late against the
                // watermark.
                let rows: Vec<Tuple> = (0..n)
                    .map(|_| {
                        let key = rng.random_range(0..pool as i64);
                        Tuple::new(
                            (base + rng.random_range(0..150u64)).saturating_sub(100),
                            vec![
                                Value::str(format!("S{key}")),
                                Value::Float(rng.random_range(-50.0..50.0)),
                                Value::Int(key),
                            ],
                        )
                    })
                    .collect();
                let mut batch = TupleBatch::with_capacity(input.clone(), n);
                batch.extend(rows.clone());
                // The stream's dictionary, a dictionary of the batch's own
                // (a second producer on this side), or no encoding at all.
                match rng.random_range(0..4usize) {
                    0 => batch.seal(),
                    1 => {}
                    _ => batch.seal_into(&mut dicts[port]),
                }
                shapes.insert((key_col, batch.column(0).as_dict().is_some()));
                let sel: Option<Vec<u32>> = rng
                    .random_bool(0.5)
                    .then(|| (0..n as u32).filter(|_| rng.random_bool(0.5)).collect());
                crate::types::work::reset();
                let (out, trace) = join.process(None, port, &batch, sel.as_deref(), true);
                let snap = crate::types::work::snapshot();
                counted.rows_materialized += snap.rows_materialized;
                counted.str_cmps += snap.str_cmps;
                let mut expected = Vec::new();
                let mut expected_trace = Vec::new();
                for i in sel.unwrap_or_else(|| (0..n as u32).collect()) {
                    let row = rows[i as usize].clone();
                    let key = Key::from_value(row.value(key_col)).unwrap();
                    let matches = model.probe_insert(port, key, row, window);
                    expected_trace.extend(std::iter::repeat_n(i, matches.len()));
                    expected.extend(matches);
                }
                assert_eq!(rows_of(&Vec::from_iter(out)), expected, "case {case}");
                assert_eq!(trace, Some(expected_trace), "case {case}");
                watermark = watermark.max((base + rng.random_range(0..100u64)).saturating_sub(80));
                assert!(join.advance(None, watermark).is_none());
                model.evict(watermark.saturating_sub(window));
                let buffered = model.sides.iter().map(Vec::len).sum::<usize>();
                assert_eq!(join.state_size(), buffered, "case {case}");
            }
        }
        for shape in [(0, true), (0, false), (2, true)] {
            assert!(shapes.contains(&shape), "{shape:?} never generated");
        }
        assert_eq!(counted.rows_materialized, 0, "the join never builds a row");
        assert_eq!(counted.str_cmps, 0);
    }

    /// Keys that never come back — an order id, a fresh symbol per row —
    /// must not grow the interned state: ids are given back behind the
    /// closing windows and the evicted join rows, outputs stay the models',
    /// and a stream dictionary's `code → id` table survives the sweeps (the
    /// recurring symbols go unheld between their batches and are re-interned).
    #[test]
    fn ever_fresh_keys_give_their_ids_back() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        let input = Arc::new(Schema::new(vec![
            Field::new("symbol", DataType::Str),
            Field::new("price", DataType::Float),
            Field::new("account", DataType::Int),
        ]));
        let mut rng = StdRng::seed_from_u64(0xF2E5);
        for (key_col, partitions, (window, slide)) in
            [(0, 1, (100, 100)), (2, 2, (100, 50)), (0, 4, (90, 40))]
        {
            let out = Schema::new(vec![
                Field::new("window_end", DataType::Int),
                input.fields[key_col].clone(),
                Field::new("sum", DataType::Int),
            ]);
            let mut agg =
                AggregateOp::with_slide(Some(key_col), AggFunc::Sum, 2, window, slide, out, true);
            let mut join = JoinOp::new(key_col, key_col, window, input.join(&input));
            agg.set_partitions(partitions);
            join.set_partitions(partitions);
            let (mut windows, mut pairs) = (NaiveWindows::default(), NestedLoopJoin::default());
            let mut dicts: Vec<crate::types::DictInterner> =
                input.fields.iter().map(|_| Default::default()).collect();
            let (mut seen, mut base) = (0i64, 0u64);
            for step in 0..48 {
                base += 300;
                // 400 keys nobody has seen, plain; every third step 30 rows
                // over five recurring symbols, on the stream's dictionary.
                let recurring = step % 3 == 0;
                let rows: Vec<Tuple> = (0..if recurring { 30 } else { 400 })
                    .map(|i| {
                        let key = if recurring { -(i % 5) } else { seen + i };
                        let values = vec![
                            Value::str(format!("K{key}")),
                            Value::Float(rng.random_range(-50.0..50.0)),
                            Value::Int(key),
                        ];
                        Tuple::new(base + rng.random_range(0..150u64), values)
                    })
                    .collect();
                let mut batch = TupleBatch::with_capacity(input.clone(), rows.len());
                batch.extend(rows.clone());
                if recurring {
                    batch.seal_into(&mut dicts);
                } else {
                    seen += 400;
                }
                assert_eq!(batch.column(0).as_dict().is_some(), recurring);
                let port = step % 2;
                assert!(agg.process(None, 0, &batch, None, false).0.is_none());
                let joined = join.process(None, port, &batch, None, false).0;
                let joined_again = join.process(None, 1 - port, &batch, None, false).0;
                let mut expected: [Vec<Tuple>; 2] = Default::default();
                for row in rows {
                    let key = Key::from_value(row.value(key_col)).unwrap();
                    windows.absorb(window, slide, row.ts, Some(key), row.value(2).clone());
                }
                for (side, port) in [(0, port), (1, 1 - port)] {
                    for row in batch.iter_rows() {
                        let key = Key::from_value(row.value(key_col)).unwrap();
                        expected[side].extend(pairs.probe_insert(port, key, row, window));
                    }
                }
                assert_eq!(rows_of(&Vec::from_iter(joined)), expected[0], "step {step}");
                assert_eq!(rows_of(&Vec::from_iter(joined_again)), expected[1]);
                let watermark = base - 50;
                let closed = agg.advance(None, watermark).map(|(closed, _)| closed);
                let expected = windows.drain(AggFunc::Sum, window, watermark);
                assert_eq!(rows_of(&Vec::from_iter(closed)), expected, "step {step}");
                assert!(join.advance(None, watermark).is_none());
                pairs.evict(watermark - window);
                let buffered = pairs.sides.iter().map(Vec::len).sum::<usize>();
                assert_eq!(join.state_size(), buffered, "step {step}");
                assert_eq!(agg.state_size(), windows.open.len(), "step {step}");
            }
            // 12 800 keys went by; what is interned (and every vector
            // indexed by id) stayed within a few windows' worth.
            let agg_ids = agg.parts.iter().map(|p| lock_part(p).keys.keys.len());
            let join_ids = join.parts.iter().map(|p| lock_part(p).keys.keys.len());
            let (agg_ids, join_ids) = (agg_ids.sum::<usize>(), join_ids.sum::<usize>());
            assert!(agg_ids < 6_000 && join_ids < 6_000, "{agg_ids} {join_ids}");
            assert!(agg.parts.iter().all(|p| lock_part(p).keys.epoch > 0));
            assert!(join.parts.iter().all(|p| lock_part(p).keys.epoch > 0));
        }
    }

    #[test]
    fn window_ends_saturate_at_the_timestamp_extremes() {
        let schema = Schema::new(vec![
            Field::new("window_end", DataType::Int),
            Field::new("symbol", DataType::Str),
            Field::new("count", DataType::Int),
        ]);
        // `u64::MAX` ends in …615: the window of `MAX - 5` starts at …600 and
        // would end past `u64::MAX`; the one of `2^63 + 50` ends inside
        // `u64` but past `i64::MAX`.
        let (late, mid) = (u64::MAX - 5, (1u64 << 63) + 50);
        for slide in [100, 50] {
            let agg = AggregateOp::with_slide(
                Some(0),
                AggFunc::Count,
                0,
                100,
                slide,
                schema.clone(),
                true,
            );
            let mut out = Vec::new();
            feed(
                &agg,
                0,
                qbatch(vec![quote(late, "A", 1.0), quote(mid, "A", 1.0)]),
                &mut out,
            );
            // The largest watermark there is closes every window with a
            // reachable end — never one whose end overflowed.
            close(&agg, u64::MAX, &mut out);
            let rows = rows_of(&out);
            assert_eq!(rows.len(), 100 / slide as usize, "slide {slide}");
            for row in &rows {
                assert!(
                    row.ts > mid && row.ts <= mid + 100,
                    "ts is the window's end"
                );
                assert_eq!(row.values[0], Value::Int(i64::MAX), "saturated window_end");
            }
            out.clear();
            out.extend(agg.finish());
            let rows = rows_of(&out);
            assert!(!rows.is_empty(), "overflowing windows close on finish");
            for row in &rows {
                assert_eq!(row.ts, u64::MAX, "the end saturates");
                assert_eq!(row.values[0], Value::Int(i64::MAX));
                assert_eq!(row.values[2], Value::Int(1));
            }
            assert_eq!(agg.state_size(), 0);
        }
    }

    #[test]
    fn join_window_arithmetic_saturates_at_the_timestamp_extremes() {
        let schema = quote_schema().join(&quote_schema());
        let j = JoinOp::new(0, 0, 10, schema);
        let mut out = Vec::new();
        feed(
            &j,
            0,
            qbatch(vec![quote(0, "A", 1.0), quote(u64::MAX, "A", 2.0)]),
            &mut out,
        );
        // `abs_diff` spans the whole range without wrapping: each probe
        // matches only its neighbour.
        feed(
            &j,
            1,
            qbatch(vec![quote(5, "A", 3.0), quote(u64::MAX - 5, "A", 4.0)]),
            &mut out,
        );
        let ts: Vec<u64> = rows_of(&out).iter().map(|t| t.ts).collect();
        assert_eq!(ts, vec![5, u64::MAX]);
        // A watermark below the window saturates the horizon at 0 and
        // evicts nothing; the largest one evicts all but the newest rows.
        close(&j, 5, &mut out);
        assert_eq!(j.state_size(), 4);
        close(&j, u64::MAX, &mut out);
        assert_eq!(j.state_size(), 2);
    }

    #[test]
    fn filter_refine_selection_composes() {
        let f = FilterOp::new(
            Expr::col(1).gt(Expr::lit(Value::Float(1.5))),
            quote_schema(),
        );
        let batch = qbatch(vec![
            quote(1, "A", 1.0),
            quote(2, "B", 2.0),
            quote(3, "C", 3.0),
        ]);
        let sel = f.refine_selection(&batch, None).unwrap();
        assert_eq!(sel, vec![1, 2]);
        // Refining an existing selection returns batch-level indices.
        let narrowed = f.refine_selection(&batch, Some(&[0, 2])).unwrap();
        assert_eq!(narrowed, vec![2]);
        // The row fallback keeps reference semantics: no deferral.
        with_columnar_kernels(false, || {
            assert!(f.refine_selection(&batch, None).is_none());
        });
    }

    #[test]
    fn keyed_out_propagation_rules() {
        let filter = FilterOp::new(
            Expr::col(1).gt(Expr::lit(Value::Float(0.0))),
            quote_schema(),
        );
        assert_eq!(filter.keyed_out(&[Some(0)]), Some(0));
        assert_eq!(filter.keyed_out(&[None]), None);

        let project_keeps = ProjectOp::new(
            vec![Expr::col(1), Expr::col(0)],
            Schema::new(vec![
                Field::new("price", DataType::Float),
                Field::new("symbol", DataType::Str),
            ]),
        );
        assert_eq!(project_keeps.keyed_out(&[Some(0)]), Some(1));
        let project_drops = ProjectOp::new(
            vec![Expr::col(1)],
            Schema::new(vec![Field::new("price", DataType::Float)]),
        );
        assert_eq!(project_drops.keyed_out(&[Some(0)]), None);

        let join = JoinOp::new(0, 0, 10, quote_schema().join(&quote_schema()));
        assert_eq!(join.keyed_out(&[Some(0), Some(0)]), Some(0));
        assert_eq!(join.keyed_out(&[Some(0), Some(1)]), None);
        assert_eq!(join.keyed_out(&[Some(0), None]), None);

        let agg_schema = Schema::new(vec![
            Field::new("window_end", DataType::Int),
            Field::new("symbol", DataType::Str),
            Field::new("count", DataType::Int),
        ]);
        let grouped = AggregateOp::new(Some(0), AggFunc::Count, 0, 10, agg_schema.clone(), true);
        assert_eq!(grouped.keyed_out(&[Some(0)]), Some(1));
        assert_eq!(grouped.keyed_out(&[Some(1)]), None);
        let ungrouped = AggregateOp::new(None, AggFunc::Count, 0, 10, agg_schema, true);
        assert_eq!(ungrouped.keyed_out(&[Some(0)]), None);

        let union = UnionOp::new(quote_schema());
        assert_eq!(
            union.keyed_out(&[Some(0), Some(0)]),
            None,
            "unions stay barriers"
        );
    }
}
