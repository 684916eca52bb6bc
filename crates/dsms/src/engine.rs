//! The execution engine: deterministic batched push processing over the
//! shared query network, with Aurora-style connection points and the
//! end-of-subscription-day **transition phase** (§II of the paper).
//!
//! Determinism is a design requirement, not an optimization: the
//! transition-correctness guarantee ("CQs that continue to execute for the
//! next day produce correct results") is proved here *by test*, which needs
//! replay-exact runs. The engine is single-threaded, processes nodes in
//! ascending id order (a topological order — see `network.rs`), and uses
//! event-time watermarks for all windowing.
//!
//! ## Batched execution
//!
//! The unit of work everywhere is a [`TupleBatch`], never a lone tuple:
//!
//! * **Ingestion** groups consecutive same-stream tuples into batches of at
//!   most [`DsmsEngine::max_batch_size`] rows (grouping only *consecutive*
//!   runs keeps the global arrival order intact, so batched results equal
//!   scalar results row for row for single-input pipelines, and as
//!   multisets for multi-port operators — the tested scalar-vs-batched
//!   property; see the crate docs for why the weaker multi-port guarantee
//!   is inherent).
//! * **Node queues** hold `(port, batch)` pairs; one operator invocation
//!   amortizes queue traffic, downstream fan-out, watermark checks, and the
//!   per-node timing probe over the whole batch.
//! * **Fan-out is `Arc`-shared and copy-on-write**: a produced batch is
//!   wrapped in one `Arc` and every downstream target receives a pointer
//!   clone. Sinks *keep* the shared batch (rows materialize only when
//!   outputs are read), and a node consumer that cannot take the last
//!   reference clones the batch **by pointer** — [`TupleBatch`]'s
//!   timestamp vector and column list are themselves `Arc`-shared, so `k`
//!   node consumers and any number of sinks cost zero column-data copies.
//!   Data is copied only if a holder *mutates* a still-shared batch
//!   (counted by
//!   [`crate::types::work::WorkSnapshot::batch_deep_clones`]), which the
//!   engine's operators never do: readers read shared columns, writers
//!   build fresh batches.
//! * **Connection points** hold whole batches during a transition and
//!   replay them, in order, ahead of newly arriving data.
//!
//! [`DsmsEngine::push`] survives as the one-tuple convenience wrapper;
//! [`DsmsEngine::push_batch`] / [`DsmsEngine::push_rows`] are the primary
//! ingestion paths.

use crate::diag::{Code, Diagnostic, Report, Span};
use crate::fault::{FaultPlan, WorkerDeath};
use crate::network::{CqId, KeyedNode, KeyedPlan, NodeId, QueryInfo, QueryNetwork, Target};
use crate::ops::{OpClass, Operator, RowTrace};
use crate::plan::StreamCatalog;
use crate::plan::{LogicalPlan, PlanError};
use crate::types::{work, DictInterner, MergeTags, Schema, Tuple, TupleBatch};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::{Duration, Instant};

/// Checks that `column` is a hashable (non-float) column of `schema` —
/// the shard-key contract, enforced at whichever of
/// [`DsmsEngine::set_shard_key`] / [`DsmsEngine::register_stream`] runs
/// second. Static analysis reports violations as diagnostic NL014
/// ([`crate::diag::Code::BadShardKey`]).
fn validate_shard_key(schema: &Schema, stream: &str, column: usize) -> Result<(), PlanError> {
    crate::diag::check_shard_key(schema, stream, column)
        .first_error()
        .map_or(Ok(()), Err)
}

/// A structured ingestion failure — what the fallible ingestion paths
/// ([`DsmsEngine::try_push`] / [`DsmsEngine::try_push_rows`] /
/// [`DsmsEngine::try_push_batch`]) return instead of panicking. The
/// panicking wrappers delegate here and panic with the [`Display`]
/// rendering, so the hardening message cannot drift between paths.
///
/// [`Display`]: std::fmt::Display
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IngestError {
    /// The stream was never registered with the engine.
    UnknownStream {
        /// The unregistered stream name.
        stream: String,
    },
    /// A tuple does not conform to the stream's registered schema.
    NonConforming {
        /// The stream whose schema was violated.
        stream: String,
        /// Index of the offending row among the rows of the failed call.
        row: usize,
    },
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IngestError::UnknownStream { stream } => {
                write!(
                    f,
                    "unknown stream '{stream}': call register_stream before pushing"
                )
            }
            IngestError::NonConforming { stream, row } => {
                write!(f, "row {row} does not conform to stream '{stream}'")
            }
        }
    }
}

impl std::error::Error for IngestError {}

/// The deterministic overload guardrail (see
/// [`DsmsEngine::set_overload_policy`]): bounds how many rows one flush
/// may carry into the network. When pending ingestion exceeds the budget,
/// whole batches are shed lowest-priority stream first (see
/// [`DsmsEngine::set_stream_priority`]) until the flush fits.
#[derive(Clone, Debug)]
pub struct OverloadPolicy {
    /// Maximum ingested rows one flush may carry into the network.
    pub max_rows_per_flush: u64,
}

/// One quarantine incident: a kernel panic attributed to its physical
/// node and resolved against the owning continuous queries (see the
/// crate docs' *Robustness & failure semantics* section). Collected via
/// [`DsmsEngine::take_quarantine_events`].
#[derive(Debug)]
pub struct QuarantineEvent {
    /// The physical node whose kernel panicked.
    pub node: NodeId,
    /// The node's operator kind (one of [`crate::ops::OPERATOR_KINDS`]).
    pub kind: &'static str,
    /// The panic's message.
    pub message: String,
    /// Every query quarantined by this incident (all owners of the
    /// panicked node), ascending.
    pub queries: Vec<CqId>,
    /// Structured diagnostics: one `NL060` at the node span plus one
    /// `NL061` per quarantined query.
    pub report: Report,
}

/// A node's pending inputs: `(port, batch, deferred selection)`.
type QueueEntries = VecDeque<(usize, Arc<TupleBatch>, Option<Arc<Vec<u32>>>)>;

/// Per-stream ingestion statistics (for cost estimation).
#[derive(Clone, Debug, Default)]
pub struct StreamStats {
    /// Tuples pushed into the stream.
    pub count: u64,
    /// Smallest event timestamp seen.
    pub min_ts: u64,
    /// Largest event timestamp seen.
    pub max_ts: u64,
    /// Rows routed to each worker shard (empty until the stream feeds a
    /// sharded run; index = shard id).
    pub shard_rows: Vec<u64>,
    /// Rows shed from this stream by the overload guardrail (whole
    /// batches, counted before partitioning — shard-count-invariant; see
    /// [`DsmsEngine::set_overload_policy`]).
    pub rows_shed: u64,
}

/// Per-shard execution statistics of the parallel executor (all zero while
/// the engine runs single-threaded).
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// Rows this shard's workers fed into plan operators.
    pub rows: u64,
    /// Sub-batches this shard processed.
    pub batches: u64,
    /// Wall-clock time this shard spent inside plan operator calls (sums
    /// across shards into the same per-node `busy` totals the measured
    /// cost model reads).
    pub busy: Duration,
    /// The shard's watermark: the largest event timestamp it has
    /// processed. Per-shard watermarks merge into the engine watermark by
    /// maximum, so no shard can ever run ahead of the merged value.
    pub max_ts: u64,
}

impl StreamStats {
    /// Records one ingested tuple's event time (shared by every ingestion
    /// path, so the invariants cannot diverge between them).
    fn note(&mut self, ts: u64) {
        if self.count == 0 {
            self.min_ts = ts;
        }
        self.count += 1;
        self.max_ts = self.max_ts.max(ts);
    }
}

/// The DSMS engine: a query network plus run state.
#[derive(Debug)]
pub struct DsmsEngine {
    network: QueryNetwork,
    /// Pending input batches per node `(port, batch, selection)`, FIFO.
    /// Batches are `Arc`-shared with every other consumer of the same
    /// producing call. The optional selection is a deferred filter result
    /// (batch-row indices): pure filters forward `(batch, selection)`
    /// instead of gathering survivors, filters downstream refine it, and
    /// stateful consumers absorb straight through it (selection pushdown,
    /// counted by [`work::WorkSnapshot::selection_pushdown_rows`]); any
    /// other consumer gathers once on entry.
    queues: HashMap<NodeId, QueueEntries>,
    /// Ingested batches not yet routed into node queues (routed at the
    /// start of the next [`DsmsEngine::run_until_quiescent`]).
    ingest: VecDeque<(String, TupleBatch)>,
    /// Collected output batches per query sink, `Arc`-shared across sinks
    /// (rows materialize when outputs are read).
    outputs: HashMap<CqId, Vec<Arc<TupleBatch>>>,
    /// Maximum event time routed so far (the watermark).
    watermark: u64,
    /// When true, arriving batches are held at the connection points.
    holding: bool,
    /// Batches held during a transition, in arrival order.
    held: VecDeque<(String, TupleBatch)>,
    /// The stream-lifetime dictionaries: per registered stream, one
    /// append-only interner per column (only those of string columns are
    /// ever used). Every batch of the stream is sealed against them
    /// ([`DsmsEngine::next_ingest`]), so a dictionary code means the same
    /// string for the life of the stream.
    dicts: HashMap<String, Vec<DictInterner>>,
    /// Per-stream ingestion stats.
    stream_stats: HashMap<String, StreamStats>,
    /// Total tuples processed by operators (work measure).
    processed: u64,
    /// Total batches processed by operators.
    batches: u64,
    /// Ingestion batch-size cap.
    max_batch_size: usize,
    /// When true (the default), operator calls are wall-clock timed so the
    /// measured cost model can normalize per-batch work to per-tuple load.
    timing: bool,
    /// Per-stream shard-key column for hash partitioning (streams without
    /// one fall back to round-robin batch distribution).
    shard_keys: HashMap<String, usize>,
    /// Per-stream round-robin cursor for keyless shard distribution.
    shard_rr: HashMap<String, usize>,
    /// Per-shard execution statistics (length = shard count).
    shard_stats: Vec<ShardStats>,
    /// The cached parallel plan (every stream at once), dropped whenever
    /// the network or the shard keys change (see
    /// [`DsmsEngine::keyed_plan`]).
    keyed_cache: Option<Arc<KeyedPlan>>,
    /// Merged shard outputs awaiting dispatch: `(producer node id,
    /// targets, batch)` in ascending `(node, entry)` order. The control
    /// loop dispatches a producer's pending batches exactly when its node
    /// loop reaches that producer, reproducing the single-threaded
    /// dispatch interleaving with out-of-plan nodes.
    merged_pending: VecDeque<(u32, Vec<Target>, TupleBatch)>,
    /// The persistent worker pool (threads spawn on the first parallel
    /// flush and park between flushes).
    pool: WorkerPool,
    /// The partitioner's reused buffers: the flush's row indices sorted
    /// by home shard (units hold ranges of it) and one batch's per-row
    /// home shards.
    partition_buf: (Vec<u32>, Vec<u32>),
    /// The fault-injection plan driving soak tests and benches (`None` —
    /// inert — outside them).
    fault: Option<Arc<FaultPlan>>,
    /// Kernel panics caught but not yet resolved into quarantines:
    /// `(node id, panic message)`, in catch order.
    pending_panics: Vec<(u32, String)>,
    /// Resolved quarantine incidents awaiting
    /// [`DsmsEngine::take_quarantine_events`].
    quarantine_log: Vec<QuarantineEvent>,
    /// Reentrancy guard: quarantining excises queries through the
    /// transition machinery, which recurses into
    /// [`DsmsEngine::run_until_quiescent`].
    quarantining: bool,
    /// The overload guardrail (`None` = never shed).
    overload: Option<OverloadPolicy>,
    /// Per-stream shedding priority: lower sheds first; absent = 0. The
    /// center refreshes this after every auction with each stream's
    /// highest admitted bid.
    stream_priority: HashMap<String, u64>,
    /// Runtime robustness diagnostics accumulated across flushes
    /// (`NL060`–`NL062`), exposed via [`DsmsEngine::runtime_report`].
    runtime_report: Report,
}

impl Default for DsmsEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl DsmsEngine {
    /// An engine over an empty network.
    pub fn new() -> Self {
        Self {
            network: QueryNetwork::new(),
            queues: HashMap::new(),
            ingest: VecDeque::new(),
            outputs: HashMap::new(),
            watermark: 0,
            holding: false,
            held: VecDeque::new(),
            dicts: HashMap::new(),
            stream_stats: HashMap::new(),
            processed: 0,
            batches: 0,
            max_batch_size: TupleBatch::DEFAULT_MAX_BATCH,
            timing: true,
            shard_keys: HashMap::new(),
            shard_rr: HashMap::new(),
            shard_stats: vec![ShardStats::default()],
            keyed_cache: None,
            merged_pending: VecDeque::new(),
            pool: WorkerPool::default(),
            partition_buf: (Vec::new(), Vec::new()),
            fault: None,
            pending_panics: Vec::new(),
            quarantine_log: Vec::new(),
            quarantining: false,
            overload: None,
            stream_priority: HashMap::new(),
            runtime_report: Report::new(),
        }
    }

    /// Sets the ingestion batch-size cap (builder form).
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn with_max_batch_size(mut self, n: usize) -> Self {
        self.set_max_batch_size(n);
        self
    }

    /// Sets the ingestion batch-size cap. `1` degrades to per-tuple
    /// execution (useful for benchmarking the batching win itself).
    pub fn set_max_batch_size(&mut self, n: usize) {
        assert!(n > 0, "batch size must be positive");
        self.max_batch_size = n;
    }

    /// The current ingestion batch-size cap.
    pub fn max_batch_size(&self) -> usize {
        self.max_batch_size
    }

    /// Enables or disables stateless-operator fusion for subsequently added
    /// queries (builder form; see
    /// [`crate::network::QueryNetwork::set_fusion_enabled`]).
    pub fn with_fusion(mut self, enabled: bool) -> Self {
        self.set_fusion(enabled);
        self
    }

    /// Enables or disables stateless-operator fusion for subsequently added
    /// queries. On by default; turning it off recovers one physical node
    /// per logical operator (useful for benchmarking the fusion win
    /// itself).
    pub fn set_fusion(&mut self, enabled: bool) {
        self.network.set_fusion_enabled(enabled);
    }

    /// Whether stateless-operator fusion is enabled.
    pub fn fusion_enabled(&self) -> bool {
        self.network.fusion_enabled()
    }

    /// Sets the worker-shard count (builder form; see
    /// [`DsmsEngine::set_shards`]). Measured on the 2-vCPU reference box,
    /// `auction-day`'s `serve_keyed_stateful` serves 0.88× at 2 shards
    /// what it serves on one (1.23 M vs 1.39 M rows/s).
    pub fn with_shards(mut self, n: usize) -> Self {
        self.set_shards(n);
        self
    }

    /// Sets the worker-shard count — the knob next to the batch-size and
    /// fusion knobs. `1` (the default) compiles down to the single-threaded
    /// path; `n > 1` runs every flush's share of the one parallel plan
    /// ([`QueryNetwork::keyed_plan`]) as one walk per home shard on `n`
    /// jobs (this thread and `n − 1` pooled seats):
    /// every stream's stateless operators, every join and aggregate keyed
    /// compatibly with a shard key (absorbing into per-shard state
    /// partitions inside the walks), and exact aggregates elsewhere as
    /// per-home partials. Shard outputs merge deterministically before
    /// the operators outside the plan and the sinks, which run on the
    /// control thread, so outputs are bit-identical to the single-threaded
    /// engine regardless of shard count.
    ///
    /// Changing the count re-homes live operator state onto the new
    /// partitions ([`Operator::set_partitions`]) and resets the
    /// per-shard statistics ([`DsmsEngine::shard_stats`],
    /// [`StreamStats::shard_rows`]) and the round-robin cursors — shard
    /// ids mean nothing across different shard counts.
    ///
    /// # Panics
    /// Panics when `n == 0`.
    pub fn set_shards(&mut self, n: usize) {
        if n == self.network.shards() {
            return;
        }
        self.network.set_shards(n);
        self.shard_stats = vec![ShardStats::default(); n];
        for stats in self.stream_stats.values_mut() {
            stats.shard_rows.clear();
        }
        self.shard_rr.clear();
    }

    /// The worker-shard count.
    pub fn shards(&self) -> usize {
        self.network.shards()
    }

    /// Configures hash partitioning for a stream: rows are distributed to
    /// shards by a deterministic hash of `column` (builder form).
    ///
    /// # Panics
    /// Panics when the stream is registered and the key is out of range or
    /// a float (the fallible form is [`DsmsEngine::set_shard_key`]).
    pub fn with_shard_key(mut self, stream: &str, column: usize) -> Self {
        self.set_shard_key(stream, column)
            .expect("invalid shard key");
        self
    }

    /// Configures hash partitioning for a stream: rows are distributed to
    /// shards by a deterministic (FNV-1a) hash of `column`, so equal keys
    /// always land on the same shard. Streams without a shard key
    /// distribute whole ingestion batches round-robin instead. Either way
    /// the deterministic merge keeps outputs identical to the
    /// single-threaded run.
    ///
    /// Safe on a live engine, mid-window: a re-key can turn a partial
    /// aggregate (per-home partials of each group) into a full member
    /// (one key-homed partition per group) or back, so the next parallel
    /// flush re-derives the plan and first re-homes every operator's
    /// state ([`Operator::set_partitions`]) — open windows keep their
    /// rows and still close exactly once.
    ///
    /// May be called before the stream is registered (so the builder forms
    /// chain in any order); validation then happens at
    /// [`DsmsEngine::register_stream`].
    ///
    /// # Errors
    /// Returns [`PlanError::ShardKeyOutOfRange`] /
    /// [`PlanError::UnhashableShardKey`] — and leaves the configuration
    /// unchanged — when the stream is already registered and `column` is
    /// out of range or a float (floats are not hashable, exactly as for
    /// join and group keys). Rejecting here makes the release-mode shard
    /// fallback in `ops::shard_of_cell` unreachable by construction.
    pub fn set_shard_key(&mut self, stream: &str, column: usize) -> Result<(), PlanError> {
        if let Some(schema) = self.network.stream_schema(stream) {
            validate_shard_key(schema, stream, column)?;
        }
        self.shard_keys.insert(stream.to_string(), column);
        self.keyed_cache = None;
        Ok(())
    }

    /// The configured shard keys of every stream (stream → column).
    pub fn shard_keys(&self) -> &HashMap<String, usize> {
        &self.shard_keys
    }

    /// The configured shard-key column of a stream, if any.
    pub fn shard_key(&self, stream: &str) -> Option<usize> {
        self.shard_keys.get(stream).copied()
    }

    /// Per-shard execution statistics (index = shard id; all zero until a
    /// sharded run happens).
    ///
    /// The index is the **executing job**, not the partition-time home
    /// shard: a job that finishes its own home claims any home still
    /// unclaimed, so a job can run several homes' rows and a late seat
    /// none (the home-shard placement stays visible in
    /// [`StreamStats::shard_rows`]). A home's rows never split across
    /// jobs, so a hot home's share lands on one index.
    pub fn shard_stats(&self) -> &[ShardStats] {
        &self.shard_stats
    }

    /// Enables or disables per-batch operator timing. On by default (the
    /// measured cost model needs it); disable for maximum-throughput
    /// serving when only analytic costs are used.
    pub fn set_timing(&mut self, enabled: bool) {
        self.timing = enabled;
    }

    /// The underlying network (read-only).
    pub fn network(&self) -> &QueryNetwork {
        &self.network
    }

    /// Registers an input stream, validating any shard key configured
    /// ahead of registration (see [`DsmsEngine::set_shard_key`]) against
    /// the schema — the fallible twin of
    /// [`DsmsEngine::register_stream`], matching `set_shard_key`'s own
    /// error path when the calls arrive in the other order.
    pub fn try_register_stream(
        &mut self,
        name: impl Into<String>,
        schema: Schema,
    ) -> Result<(), PlanError> {
        let name = name.into();
        if let Some(&column) = self.shard_keys.get(&name) {
            validate_shard_key(&schema, &name, column)?;
        }
        let dicts = schema.fields.iter().map(|_| DictInterner::default());
        self.dicts.entry(name.clone()).or_insert(dicts.collect());
        self.network.register_stream(name, schema);
        self.keyed_cache = None;
        Ok(())
    }

    /// Registers an input stream.
    ///
    /// # Panics
    /// Panics when a shard key configured ahead of registration (see
    /// [`DsmsEngine::set_shard_key`]) does not fit the schema — use
    /// [`DsmsEngine::try_register_stream`] to handle that structurally.
    pub fn register_stream(&mut self, name: impl Into<String>, schema: Schema) {
        self.try_register_stream(name, schema)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Adds a continuous query. If the engine is mid-stream (not in an
    /// explicit transition), a mini transition runs automatically: hold,
    /// drain, modify, release — so in-flight tuples of existing queries are
    /// unaffected.
    pub fn add_query(&mut self, plan: LogicalPlan) -> Result<CqId, PlanError> {
        let auto = !self.holding;
        if auto {
            self.begin_transition();
        }
        let result = self.network.add_query(plan);
        self.keyed_cache = None;
        if let Ok(cq) = result {
            self.outputs.entry(cq).or_default();
        }
        if auto {
            self.end_transition();
        }
        result
    }

    /// Removes a query (auto-transition as in [`DsmsEngine::add_query`]),
    /// discarding its undelivered outputs. Returns the removed query's
    /// info, or `None` if no such query is registered (idempotent).
    pub fn remove_query(&mut self, cq: CqId) -> Option<QueryInfo> {
        let auto = !self.holding;
        if auto {
            self.begin_transition();
        }
        let info = self.network.remove_query(cq);
        self.keyed_cache = None;
        self.outputs.remove(&cq);
        if auto {
            self.end_transition();
        }
        info
    }

    /// **Transition phase, step 1** (§II): upstream connection points start
    /// holding arriving batches, and the subnetwork queues are drained so
    /// every in-flight tuple reaches its sinks.
    pub fn begin_transition(&mut self) {
        assert!(!self.holding, "transition already in progress");
        self.run_until_quiescent();
        self.holding = true;
    }

    /// **Transition phase, step 2**: after the query planner modified the
    /// network, the held batches are input *before* newly arriving ones.
    pub fn end_transition(&mut self) {
        assert!(self.holding, "no transition in progress");
        self.holding = false;
        debug_assert!(self.ingest.is_empty(), "ingest drained before holding");
        std::mem::swap(&mut self.ingest, &mut self.held);
        self.run_until_quiescent();
    }

    /// True while a transition is holding tuples.
    pub fn in_transition(&self) -> bool {
        self.holding
    }

    /// Number of tuples currently held at connection points.
    pub fn held_tuples(&self) -> usize {
        self.held.iter().map(|(_, b)| b.len()).sum()
    }

    /// Pushes one tuple into a stream — the fallible twin of
    /// [`DsmsEngine::push`]. Returns a structured [`IngestError`] for an
    /// unknown stream or a non-conforming tuple; on error nothing is
    /// buffered and no statistics move.
    ///
    /// Rows buffer into plain columns; the batch is sealed
    /// ([`TupleBatch::seal_into`]: low-cardinality string columns become
    /// `Column::Dict` over the stream's dictionary) when a flush takes it
    /// from the ingestion buffer — the one place every `push*` call's
    /// batches are sealed.
    pub fn try_push(&mut self, stream: &str, tuple: Tuple) -> Result<(), IngestError> {
        let Some(schema) = self.network.stream_schema(stream) else {
            return Err(IngestError::UnknownStream {
                stream: stream.to_string(),
            });
        };
        if !tuple.conforms_to(schema) {
            return Err(IngestError::NonConforming {
                stream: stream.to_string(),
                row: 0,
            });
        }
        self.stats_mut(stream).note(tuple.ts);

        let max_batch_size = self.max_batch_size;
        let buffer = if self.holding {
            &mut self.held
        } else {
            &mut self.ingest
        };
        // Group into the current batch only while the stream matches and
        // the cap allows: consecutive runs preserve global arrival order.
        // The schema handle is needed only when a new batch starts, so the
        // coalescing fast path allocates nothing.
        match buffer.back_mut() {
            Some((s, batch)) if s == stream && batch.len() < max_batch_size => {
                batch.push(tuple);
            }
            _ => {
                let schema = self
                    .network
                    .stream_schema_arc(stream)
                    .expect("schema checked above")
                    .clone();
                let mut batch = TupleBatch::with_capacity(schema, 1);
                batch.push(tuple);
                buffer.push_back((stream.to_string(), batch));
            }
        }
        Ok(())
    }

    /// Pushes one tuple into a stream — a thin wrapper that appends to the
    /// current one-stream ingestion batch. During a transition the tuple is
    /// held at the stream's connection point; otherwise it is routed and
    /// processed on the next [`DsmsEngine::run_until_quiescent`].
    ///
    /// # Panics
    /// Panics when `stream` was never registered (batches carry their
    /// stream's schema, so an unknown stream cannot be buffered; this is
    /// deliberate hardening over the pre-batching engine, which silently
    /// dropped such tuples) or the tuple does not conform to its schema —
    /// use [`DsmsEngine::try_push`] to handle both structurally.
    pub fn push(&mut self, stream: &str, tuple: Tuple) {
        self.try_push(stream, tuple)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Pushes `(stream, tuple)` pairs — the fallible twin of
    /// [`DsmsEngine::push_batch`]. Stops at the first bad tuple (reported
    /// with its index among the pairs); tuples buffered before the error
    /// stay buffered but are not processed — a retry with the remainder,
    /// or any later successful push, carries them along.
    pub fn try_push_batch<I: IntoIterator<Item = (String, Tuple)>>(
        &mut self,
        tuples: I,
    ) -> Result<(), IngestError> {
        for (i, (stream, tuple)) in tuples.into_iter().enumerate() {
            self.try_push(&stream, tuple).map_err(|e| match e {
                IngestError::NonConforming { stream, .. } => {
                    IngestError::NonConforming { stream, row: i }
                }
                other => other,
            })?;
        }
        if !self.holding {
            self.run_until_quiescent();
        }
        Ok(())
    }

    /// Pushes `(stream, tuple)` pairs — grouping consecutive same-stream
    /// tuples into batches — and processes to quiescence. This is the
    /// primary ingestion path. The batches it builds are sealed when the
    /// flush takes them (see [`DsmsEngine::try_push`]), so operators run
    /// the same [`Column::Dict`](crate::types::Column::Dict) fast paths as
    /// under [`DsmsEngine::push_rows`].
    ///
    /// # Panics
    /// Panics on an unknown stream or non-conforming tuple — use
    /// [`DsmsEngine::try_push_batch`] to handle both structurally.
    pub fn push_batch<I: IntoIterator<Item = (String, Tuple)>>(&mut self, tuples: I) {
        self.try_push_batch(tuples)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Pushes a whole column of rows for one stream — the fallible twin
    /// of [`DsmsEngine::push_rows`]. Validates every row against the
    /// stream's schema before buffering anything, so on error no row of
    /// the call is ingested and no statistics move.
    pub fn try_push_rows(&mut self, stream: &str, rows: Vec<Tuple>) -> Result<(), IngestError> {
        if rows.is_empty() {
            return Ok(());
        }
        let Some(schema) = self.network.stream_schema_arc(stream) else {
            return Err(IngestError::UnknownStream {
                stream: stream.to_string(),
            });
        };
        let schema = schema.clone();
        if let Some(row) = rows.iter().position(|t| !t.conforms_to(&schema)) {
            return Err(IngestError::NonConforming {
                stream: stream.to_string(),
                row,
            });
        }
        let stats = self.stats_mut(stream);
        for t in &rows {
            stats.note(t.ts);
        }
        // Plain columns, like `try_push` builds: the flush seals each
        // cap-sized chunk on its own, exactly as it seals row-pushed ones.
        let mut batch = TupleBatch::with_capacity(schema, rows.len());
        batch.extend(rows);
        let buffer = if self.holding {
            &mut self.held
        } else {
            &mut self.ingest
        };
        while batch.len() > self.max_batch_size {
            let rest = batch.split_off(self.max_batch_size);
            buffer.push_back((stream.to_string(), std::mem::replace(&mut batch, rest)));
        }
        buffer.push_back((stream.to_string(), batch));
        if !self.holding {
            self.run_until_quiescent();
        }
        Ok(())
    }

    /// Pushes a whole column of rows for one stream — the zero-overhead
    /// batched path (no per-tuple stream-name matching) — and processes to
    /// quiescence.
    ///
    /// # Panics
    /// Panics on an unknown stream or non-conforming row — use
    /// [`DsmsEngine::try_push_rows`] to handle both structurally.
    pub fn push_rows(&mut self, stream: &str, rows: Vec<Tuple>) {
        self.try_push_rows(stream, rows)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// The stream's statistics entry; the name is allocated only the first
    /// time a stream is seen, not per tuple.
    fn stats_mut(&mut self, stream: &str) -> &mut StreamStats {
        if !self.stream_stats.contains_key(stream) {
            self.stream_stats
                .insert(stream.to_string(), StreamStats::default());
        }
        self.stream_stats
            .get_mut(stream)
            .expect("entry inserted above")
    }

    /// Hands the oldest pending ingestion batch to a flush, **sealed**
    /// against its stream's dictionaries ([`TupleBatch::seal_into`]). Both
    /// flush paths take their batches here, and a transition's held batches
    /// re-enter `ingest` before they flush, so this is the one point where
    /// row-pushed (`push`/`push_batch`) and column-pushed (`push_rows`)
    /// batches take the same shape: operators see `Column::Dict` for
    /// low-cardinality strings whatever the entry point, every batch of a
    /// stream sharing one dictionary. Runs after shedding — shed batches
    /// are never encoded.
    fn next_ingest(&mut self) -> Option<(String, TupleBatch)> {
        let (stream, mut batch) = self.ingest.pop_front()?;
        let dicts = self.dicts.get_mut(&stream);
        batch.seal_into(dicts.expect("only registered streams buffer batches"));
        Some((stream, batch))
    }

    /// Advances the watermark to cover `ts`. Every routing path — single
    /// threaded or sharded — funnels through here, so the watermark can
    /// only move forward; the non-vacuous halves of that invariant are the
    /// `debug_assert`s in [`DsmsEngine::run_until_quiescent`] (no node is
    /// ever ahead of the engine watermark) and the per-shard
    /// `max_ts ≤ watermark` check after the parallel merge.
    fn advance_watermark_to(&mut self, ts: u64) {
        self.watermark = self.watermark.max(ts);
    }

    /// The deterministic load-shedding pass (see [`OverloadPolicy`]): when
    /// the pending ingestion exceeds the flush budget, sheds **whole
    /// batches, lowest-priority stream first** (ties broken by stream
    /// name; within a stream, newest arrivals first, so the oldest
    /// admitted data still flows), until the flush fits. Runs at the head
    /// of **both** flush paths, before any partitioning, on
    /// arrival-ordered whole batches — so the shed set, and with it
    /// [`work::WorkSnapshot::rows_shed`], is identical for every shard
    /// count. Shed batches never advance the watermark.
    fn apply_shedding(&mut self) {
        let Some(policy) = &self.overload else {
            return;
        };
        let budget = policy.max_rows_per_flush;
        let mut total: u64 = self.ingest.iter().map(|(_, b)| b.len() as u64).sum();
        if total <= budget {
            return;
        }
        work::count_overload_flush();
        while total > budget {
            let victim = self
                .ingest
                .iter()
                .map(|(s, _)| s)
                .min_by_key(|s| (self.stream_priority.get(*s).copied().unwrap_or(0), *s))
                .cloned();
            let Some(victim) = victim else {
                break;
            };
            let idx = self
                .ingest
                .iter()
                .rposition(|(s, _)| *s == victim)
                .expect("victim stream has a pending batch");
            let (stream, batch) = self.ingest.remove(idx).expect("index in range");
            let rows = batch.len() as u64;
            total -= rows;
            work::count_rows_shed(rows);
            self.stream_stats.entry(stream).or_default().rows_shed += rows;
        }
    }

    /// Routes ingested batches into node queues (and source-only sinks),
    /// advancing the watermark.
    fn flush_ingest(&mut self) {
        self.apply_shedding();
        while let Some((stream, batch)) = self.next_ingest() {
            if let Some(ts) = batch.max_ts() {
                self.advance_watermark_to(ts);
            }
            // Clone the subscriber list (tiny) to appease the borrow checker.
            let subs: Vec<Target> = self.network.stream_subscribers(&stream).to_vec();
            self.route_shared(&subs, batch);
        }
    }

    /// Routes one batch to a target list with `Arc`-shared fan-out (every
    /// target gets a pointer clone of the same batch).
    fn route_shared(&mut self, targets: &[Target], batch: TupleBatch) {
        let Some((&last, rest)) = targets.split_last() else {
            return;
        };
        // One Arc for the whole fan-out: every target shares the batch.
        let shared = Arc::new(batch);
        for &target in rest {
            self.route(target, shared.clone());
        }
        self.route(last, shared);
    }

    /// The cached parallel plan. Everything that can move plan membership
    /// (shard keys, streams, queries) drops the cache, and this — the one
    /// place the plan is re-derived — first re-homes operator state
    /// (`QueryNetwork::rehome_state`), so a node that changed from
    /// partial to full member never closes one group's window from two
    /// partitions. Re-homing here rather than at each invalidation keeps a
    /// day's worth of `add_query` calls from re-partitioning the whole
    /// network once per query, and costs nothing at shards = 1, where no
    /// plan is ever derived.
    fn keyed_plan(&mut self) -> Arc<KeyedPlan> {
        if let Some(p) = &self.keyed_cache {
            return p.clone();
        }
        self.network.rehome_state();
        let p = Arc::new(self.network.keyed_plan(&self.shard_keys));
        self.keyed_cache = Some(p.clone());
        p
    }

    /// The shard-parallel twin of [`DsmsEngine::flush_ingest`]:
    ///
    /// 1. **Partition.** Every stream is a root of the one parallel plan
    ///    ([`QueryNetwork::keyed_plan`]). A root with a shard key
    ///    hash-partitions its batches row by row (same key, same shard;
    ///    rows carry their pre-partition index as a sequence tag); a root
    ///    without one deals whole batches round-robin. Subscribers outside
    ///    the plan (shard-incompatible operators, sinks) receive the raw
    ///    batch at flush time, exactly like the single-threaded path.
    /// 2. **One walk per home shard.** Each home shard's units run as one
    ///    walk ([`walk_home`]) in arrival order: a **mini node loop** —
    ///    per-node FIFO queues drained in ascending node order, stateful
    ///    operators absorbing into the home's state partition (partial
    ///    aggregates too), selection vectors pushed down into
    ///    joins/aggregates instead of densifying, and windows closing
    ///    against the flush's merged watermark right after each node's
    ///    queue. One job per shard runs the walks: job 0 on this thread,
    ///    the others on the persistent [`WorkerPool`]. Job `w` claims home
    ///    `w` first, then any home still unclaimed in ascending seat
    ///    offset, so a seat that wakes late does not hold the flush up. A
    ///    flush of fewer than [`INLINE_FLUSH_ROWS`] rows runs every job
    ///    here, one after another: job 0 claims every home, the others
    ///    find them taken. A job that dies at start claims nothing; the
    ///    homes nobody claimed run here after the join.
    /// 3. **Deterministic merge.** Exit outputs are merged per
    ///    `(producing node, entry path)` — interleaved by sequence tag
    ///    (join fan-out repeats its probe row's tag, preserving shard
    ///    order) or by window-close [`crate::types::EmitKey`]s, trivially
    ///    for whole-batch units — and queued on
    ///    [`DsmsEngine::merged_pending`] in ascending order; the control
    ///    loop dispatches each producer's
    ///    batches exactly when its node-loop pass reaches that producer,
    ///    so out-of-plan consumers observe the single-threaded arrival
    ///    order. Everything downstream of the merge is byte-identical to
    ///    the single-threaded engine.
    fn flush_ingest_sharded(&mut self) {
        type Parts = Vec<(TupleBatch, Option<MergeTags>)>;
        let shards = self.shards();
        // Shedding runs on the arrival-ordered whole batches, before any
        // partitioning — the shed set cannot depend on the shard count.
        self.apply_shedding();
        let ingested: Vec<(String, TupleBatch)> =
            std::iter::from_fn(|| self.next_ingest()).collect();
        if ingested.is_empty() {
            return;
        }
        let keyed = self.keyed_plan();
        let inline = ingested.iter().map(|(_, b)| b.len()).sum::<usize>() < INLINE_FLUSH_ROWS;
        // The first parallel flush spawns the pool, whatever its size, so
        // no later flush ever spawns.
        self.pool.ensure(shards - 1);

        // -- 1. Partition ------------------------------------------------
        // One stable counting sort per keyed batch into the flush's index
        // buffer `idx` (reused across flushes, like the per-row shard
        // buffer `homes`): a unit holds its shard's range of it, and the
        // home's walk gathers the rows on whichever job runs it.
        let (mut idx, mut homes) = std::mem::take(&mut self.partition_buf);
        idx.clear();
        let mut ends: Vec<u32> = Vec::with_capacity(shards);
        let mut units: Vec<Vec<KeyedUnit>> = (0..shards).map(|_| Vec::new()).collect();
        for (batch_idx, (stream, batch)) in ingested.into_iter().enumerate() {
            if let Some(ts) = batch.max_ts() {
                self.advance_watermark_to(ts);
            }
            let root_idx = keyed
                .root_of(&stream)
                .expect("registering a stream re-derives the plan");
            let root = &keyed.roots[root_idx];
            if root.targets.is_empty() {
                self.route_shared(&root.direct, batch);
                continue;
            }
            let batch = if root.direct.is_empty() {
                batch
            } else {
                // Non-plan subscribers share the batch (COW columns);
                // the shard path keeps its own handle.
                let copy = batch.clone();
                self.route_shared(&root.direct, batch);
                copy
            };
            let Some(key) = root.key else {
                // Keyless root: the whole batch goes to the next shard.
                let cursor = self.shard_rr.entry(stream.clone()).or_insert(0);
                let s = *cursor % shards;
                *cursor = (*cursor + 1) % shards;
                self.note_shard_rows(&stream, s, batch.len() as u64, shards);
                units[s].push(KeyedUnit {
                    batch_idx,
                    root: root_idx,
                    batch,
                    rows: None,
                });
                continue;
            };
            // A dictionary-encoded key column reads each row's hash off
            // the stream's dictionary: no string is hashed here.
            let mut reader = crate::ops::KeyReader::new(batch.column(key));
            homes.clear();
            homes.extend((0..batch.len()).map(|i| reader.shard(i, shards) as u32));
            // `ends[s]` counts shard `s`'s rows, turns into its start in
            // `idx`, and ends as its end.
            ends.clear();
            ends.resize(shards, 0);
            for &s in &homes {
                ends[s as usize] += 1;
            }
            let mut at = idx.len() as u32;
            for end in &mut ends {
                at += std::mem::replace(end, at);
            }
            let mut lo = idx.len() as u32;
            idx.resize(idx.len() + batch.len(), 0);
            for (i, &s) in homes.iter().enumerate() {
                idx[ends[s as usize] as usize] = i as u32;
                ends[s as usize] += 1;
            }
            for (s, &hi) in ends.iter().enumerate() {
                if hi > lo {
                    self.note_shard_rows(&stream, s, u64::from(hi - lo), shards);
                    units[s].push(KeyedUnit {
                        batch_idx,
                        root: root_idx,
                        batch: batch.clone(),
                        rows: Some(lo..hi),
                    });
                }
                lo = hi;
            }
        }

        // -- 2. Parallel execution on the persistent pool ----------------
        let watermark = self.watermark;
        let network = &self.network;
        let nodes: Vec<ResolvedKeyedNode<'_>> = keyed
            .nodes
            .iter()
            .map(|kn| {
                let node = network.node(kn.id).expect("live plan node");
                ResolvedKeyedNode {
                    plan: kn,
                    kind: node.kind,
                    op: &*node.op,
                    // A stateful member closes windows on every shard
                    // whenever the merged watermark moved past what the
                    // node has seen (mirrors the control loop's
                    // `last_watermark < watermark` check). Partial members
                    // never advance in-shard: their per-home partials
                    // are combined by the control loop's own watermark
                    // pass (see `KeyedNode::partial`).
                    advance: kn.stateful && !kn.partial && node.last_watermark < watermark,
                    grouped: kn.partial && node.op.keyed_partial_grouped(),
                }
            })
            .collect();
        let run_advance = nodes.iter().any(|n| n.advance);
        if units.iter().all(Vec::is_empty) && !run_advance {
            self.partition_buf = (idx, homes);
            return;
        }
        let ctx = FlushCtx {
            nodes: &nodes,
            plan: &keyed,
            rows: &idx,
            watermark,
            timing: self.timing,
            fault: self.fault.as_deref(),
        };

        // Home `h`'s units, hash-partitioned and round-robin alike, run as
        // one walk in arrival order with the watermark pass inside, so
        // state partition `h` (partial members' partials included) is
        // touched by that walk only. A home with no unit and no window to
        // close has no walk. Job `w` claims home `w` first, then any home
        // still unclaimed in ascending seat offset: a seat that wakes late
        // loses its home to whichever job is free.
        let slots: Vec<Mutex<Option<Vec<KeyedUnit>>>> = units
            .into_iter()
            .map(|units| Mutex::new((!units.is_empty() || run_advance).then_some(units)))
            .collect();
        let claim = |home: usize| ride_poison(slots[home].lock()).take();
        // Job `w`. An injected worker death fires at job start, before the
        // job claims anything, so every home stays whole for another job
        // or, after the join, for the control thread.
        let job = |worker: usize| -> Option<ShardReport> {
            if ctx.fault.is_some_and(|f| f.claims_worker_death(worker)) {
                return None;
            }
            let mut report = ShardReport::default();
            for off in 0..shards {
                let home = (worker + off) % shards;
                match claim(home) {
                    Some(units) => {
                        work::count_morsel_executed();
                        if off > 0 {
                            work::count_morsel_stolen();
                        }
                        walk_home(&ctx, home, units, &mut report);
                    }
                    None if off > 0 => work::count_steal_miss(),
                    None => {}
                }
            }
            Some(report)
        };
        let death = || -> Box<dyn std::any::Any + Send> { Box::new(WorkerDeath) };
        let results: Vec<std::thread::Result<ShardReport>> = if inline {
            (0..shards).map(|w| job(w).ok_or_else(death)).collect()
        } else {
            // Seats persist across flushes: counters and the columnar
            // switch are re-seeded per job (so a respawned seat picks the
            // control thread's setting back up), and the end-of-job
            // snapshot is the job's delta. Job 0 counts in place.
            let columnar = crate::ops::columnar_kernels_enabled();
            let job = &job;
            let jobs: Vec<ShardJob<'_>> = (1..shards)
                .map(|worker| -> ShardJob<'_> {
                    Box::new(move || {
                        work::reset();
                        crate::ops::set_columnar_kernels(columnar);
                        let mut report =
                            job(worker).unwrap_or_else(|| std::panic::panic_any(WorkerDeath));
                        report.work = work::snapshot();
                        report
                    })
                })
                .collect();
            self.pool.run(jobs, || job(0).ok_or_else(death))
        };

        // Surface deaths: a dead pool seat was already respawned (counted
        // by [`work::WorkSnapshot::pool_spawns`], which kernel-panic
        // quarantine keeps flat); a job that died on this thread has no
        // thread to replace. Any other payload is a genuine executor bug
        // and unwinds as before.
        let mut deaths: Vec<usize> = Vec::new();
        let mut reports: Vec<(usize, ShardReport)> = Vec::with_capacity(results.len());
        for (w, result) in results.into_iter().enumerate() {
            match result {
                Ok(report) => reports.push((w, report)),
                Err(payload) if payload.is::<WorkerDeath>() => {
                    deaths.push(w);
                    reports.push((w, ShardReport::default()));
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        // A dead job claimed nothing, so run every home nobody claimed
        // here, while the flush's resolved plan is still in scope. These
        // walks join the same deterministic merge as the job reports, so
        // the flush's output order is unchanged.
        if !deaths.is_empty() {
            let mut recovery = ShardReport::default();
            for home in 0..shards {
                if let Some(units) = claim(home) {
                    work::count_morsel_executed();
                    walk_home(&ctx, home, units, &mut recovery);
                }
            }
            for &w in &deaths {
                self.runtime_report.push(Diagnostic::new(
                    Code::WorkerDeath,
                    Span::Network,
                    format!("worker {w} died mid-flush; the homes it left unclaimed ran inline"),
                ));
            }
            reports.push((deaths[0], recovery));
        }
        self.partition_buf = (idx, homes);

        // The plan's watermark handling happened inside the shards: mark
        // every member so the control loop does not re-advance (and
        // re-emit from) partitioned state. Partial-aggregation members are
        // the exception — their per-home partials close on the control
        // loop's own watermark pass, which stays pending.
        for kn in &keyed.nodes {
            if kn.partial {
                continue;
            }
            if let Some(node) = self.network.node_mut(kn.id) {
                node.last_watermark = watermark;
            }
        }

        // -- 3. Deterministic merge --------------------------------------
        let mut merged: BTreeMap<(u32, Vec<u32>), Parts> = BTreeMap::new();
        for (s, report) in reports {
            work::absorb(&report.work);
            self.processed += report.rows;
            self.batches += report.batches;
            debug_assert!(
                report.max_ts <= self.watermark,
                "per-shard watermark {} cannot exceed the merged watermark {}",
                report.max_ts,
                self.watermark
            );
            let stats = &mut self.shard_stats[s];
            stats.rows += report.rows;
            stats.batches += report.batches;
            stats.busy += report.busy;
            stats.max_ts = stats.max_ts.max(report.max_ts);
            // Caught kernel panics resolve into quarantines once the
            // control loop reaches quiescence (see `resolve_panics`).
            self.pending_panics.extend(report.panics);
            for (id, delta) in report.node_stats {
                let node = self.network.node_mut(NodeId(id)).expect("live plan node");
                node.in_count += delta.in_rows;
                node.in_batches += delta.in_batches;
                node.out_count += delta.out_rows;
                node.busy += delta.busy;
            }
            for (node, entry, batch, tags) in report.outputs {
                merged.entry((node, entry)).or_default().push((batch, tags));
            }
        }
        // BTreeMap order = ascending (node id, entry path): exactly the
        // order the single-threaded node loop dispatches these outputs.
        // Dispatch is deferred to the control loop (see `merged_pending`)
        // so it interleaves with out-of-plan node processing the way the
        // single-threaded pass would.
        debug_assert!(
            self.merged_pending.is_empty(),
            "prior merge fully dispatched"
        );
        for ((node_id, _), mut parts) in merged {
            let batch = if parts.len() == 1 {
                parts.pop().expect("one part").0
            } else {
                TupleBatch::interleave_tagged(
                    parts
                        .into_iter()
                        .map(|(b, t)| (b, t.expect("multi-part merges carry tags")))
                        .collect(),
                )
                .expect("merged parts are non-empty")
            };
            let producer = keyed
                .nodes
                .binary_search_by_key(&NodeId(node_id), |kn| kn.id)
                .expect("merge outputs come from plan members");
            self.merged_pending
                .push_back((node_id, keyed.nodes[producer].exits.clone(), batch));
        }
    }

    /// Records rows routed to one shard in the stream's statistics.
    fn note_shard_rows(&mut self, stream: &str, shard: usize, rows: u64, shards: usize) {
        let stats = self.stats_mut(stream);
        if stats.shard_rows.len() < shards {
            stats.shard_rows.resize(shards, 0);
        }
        stats.shard_rows[shard] += rows;
    }

    fn route(&mut self, target: Target, batch: Arc<TupleBatch>) {
        match target {
            Target::Node(id, port) => {
                self.queues
                    .entry(id)
                    .or_default()
                    .push_back((port, batch, None));
            }
            Target::Sink(cq) => {
                // Zero-copy sink delivery: the sink keeps the shared batch;
                // rows materialize only when the outputs are read.
                self.outputs.entry(cq).or_default().push(batch);
            }
        }
    }

    /// Routes a deferred selection `(batch, sel)` produced by a pure
    /// filter: node consumers share the undensified pair (they refine or
    /// absorb through it), sinks share one gathered batch. All-row
    /// selections forward dense — nothing downstream could save work on
    /// them.
    fn dispatch_selected(&mut self, from: NodeId, batch: Arc<TupleBatch>, sel: Vec<u32>) {
        let targets: Vec<Target> = self
            .network
            .node(from)
            .expect("live node")
            .downstream
            .clone();
        if targets.is_empty() {
            return;
        }
        if sel.len() == batch.len() {
            for &target in &targets {
                self.route(target, batch.clone());
            }
            return;
        }
        let sel = Arc::new(sel);
        // Sinks materialize once and share the gathered batch.
        let mut dense: Option<Arc<TupleBatch>> = None;
        for &target in &targets {
            match target {
                Target::Node(id, port) => {
                    self.queues.entry(id).or_default().push_back((
                        port,
                        batch.clone(),
                        Some(sel.clone()),
                    ));
                }
                Target::Sink(cq) => {
                    let d = dense
                        .get_or_insert_with(|| Arc::new(batch.take(&sel)))
                        .clone();
                    self.outputs.entry(cq).or_default().push(d);
                }
            }
        }
    }

    /// Processes every queued batch and propagates the watermark until the
    /// network is quiescent. With a shard count above 1 the flush's share
    /// of the parallel plan runs on the worker pool first (see
    /// [`DsmsEngine::set_shards`]); the deterministic merge and every
    /// operator outside the plan run on this thread exactly like the
    /// single-threaded engine.
    pub fn run_until_quiescent(&mut self) {
        if self.shards() > 1 {
            self.flush_ingest_sharded();
        } else {
            self.flush_ingest();
        }
        // Edges only ascend, so one ascending pass reaches quiescence:
        // whatever a node emits lands in a higher-numbered node's queue,
        // which the pass has yet to visit.
        for id in self.network.node_ids() {
            // Drain the node's input queue, batch by batch.
            while let Some((port, shared, sel)) =
                self.queues.get_mut(&id).and_then(VecDeque::pop_front)
            {
                let in_rows = sel.as_ref().map_or(shared.len(), |s| s.len()) as u64;
                self.processed += in_rows;
                self.batches += 1;
                let fault = self.fault.as_deref();
                let node = self.network.node_mut(id).expect("live node");
                node.in_count += in_rows;
                node.in_batches += 1;
                // A panicking kernel loses only this invocation's outputs
                // and resolves into a quarantine at quiescence — per
                // query, never per process.
                let (produced, elapsed) = run_kernel(
                    id.0,
                    node.kind,
                    fault,
                    self.timing,
                    &mut self.pending_panics,
                    |inject| {
                        inject(shared.ts());
                        let sel = sel.as_ref().map(|s| s.as_slice());
                        invoke(&*node.op, None, port, &shared, sel, false)
                    },
                );
                node.busy += elapsed;
                match produced.flatten() {
                    // A pure filter's survivors stay a deferred selection,
                    // forwarded undensified.
                    Some(Produced::Selection(out_sel)) => {
                        node.out_count += out_sel.len() as u64;
                        self.dispatch_selected(id, shared, out_sel);
                    }
                    Some(Produced::Batch(batch, _)) => {
                        node.out_count += batch.len() as u64;
                        self.dispatch(id, batch);
                    }
                    None => {}
                }
            }
            // Dispatch merged shard outputs *produced by* this node at
            // exactly the point the single-threaded pass would have —
            // after the node's (empty, it ran in-shard) queue, before
            // later nodes — so out-of-plan consumers see the same
            // arrival interleaving either way.
            while self
                .merged_pending
                .front()
                .is_some_and(|(n, _, _)| *n == id.0)
            {
                let (_, targets, batch) = self.merged_pending.pop_front().expect("checked front");
                self.route_shared(&targets, batch);
            }
            // Propagate the watermark once per value per node.
            let needs_watermark = self.network.node(id).is_some_and(|n| {
                // The watermark-advancement invariant the parallel
                // merge relies on: a node can never have been told a
                // watermark the engine has since moved below.
                debug_assert!(
                    n.last_watermark <= self.watermark,
                    "node {id} watermark {} is ahead of the engine watermark {}",
                    n.last_watermark,
                    self.watermark
                );
                n.last_watermark < self.watermark
            });
            if needs_watermark {
                let fault = self.fault.as_deref();
                let watermark = self.watermark;
                let node = self.network.node_mut(id).expect("live node");
                // Timed too: window-close work (eviction, emission)
                // happens here, and the measured cost model must not
                // undercount stateful operators.
                let (closed, elapsed) = run_kernel(
                    id.0,
                    node.kind,
                    fault,
                    self.timing,
                    &mut self.pending_panics,
                    |inject| {
                        inject(&[]);
                        node.op.advance(None, watermark)
                    },
                );
                node.busy += elapsed;
                // Marked even when the pass panicked: the node is about
                // to be quarantined, and a panicking advance must not be
                // offered the same watermark again.
                node.last_watermark = watermark;
                if let Some((batch, _)) = closed.flatten() {
                    node.out_count += batch.len() as u64;
                    self.dispatch(id, batch);
                }
            }
        }
        debug_assert!(
            self.queues.values().all(VecDeque::is_empty) && self.merged_pending.is_empty(),
            "one ascending pass drains every queue and every merged output"
        );
        self.resolve_panics();
    }

    /// Resolves every caught kernel panic into a **quarantine**: the
    /// panic's node is attributed to its owning CQ set
    /// ([`QueryNetwork::queries_owning`] — on a shared node that is every
    /// co-owner, since each owner's plan contains the faulted node), and
    /// exactly those queries are excised through the same `remove_query`
    /// and transition machinery the daily auction uses. Runs at the end of
    /// [`DsmsEngine::run_until_quiescent`]; the `quarantining` guard
    /// breaks the recursion (removal itself runs a transition, which
    /// recurses into `run_until_quiescent`), and the drain loop picks up
    /// panics that surface *during* a removal's drain.
    fn resolve_panics(&mut self) {
        if self.quarantining || self.pending_panics.is_empty() {
            return;
        }
        self.quarantining = true;
        while !self.pending_panics.is_empty() {
            let drained: Vec<(u32, String)> = std::mem::take(&mut self.pending_panics);
            for (node_id, message) in drained {
                let node = NodeId(node_id);
                // Already gone: an earlier incident this round quarantined
                // every owner and the node was garbage-collected.
                let Some(n) = self.network.node(node) else {
                    continue;
                };
                let kind = n.kind;
                let queries = self.network.queries_owning(node);
                let mut report = Report::new();
                report.push(Diagnostic::new(
                    Code::OperatorPanic,
                    Span::Node(node_id),
                    format!("operator kernel ({kind}) panicked: {message}"),
                ));
                for &cq in &queries {
                    report.push(Diagnostic::new(
                        Code::QuarantinedQuery,
                        Span::Query(cq.0),
                        format!(
                            "query {} quarantined: its plan contains panicked node {node_id}",
                            cq.0
                        ),
                    ));
                }
                for &cq in &queries {
                    work::count_quarantine();
                    self.remove_query(cq);
                }
                self.runtime_report.merge(report.clone());
                self.quarantine_log.push(QuarantineEvent {
                    node,
                    kind,
                    message,
                    queries,
                    report,
                });
            }
        }
        self.quarantining = false;
    }

    /// Routes one produced batch to its producer's consumers: one `Arc`,
    /// every target gets a pointer clone. Sinks never copy; a node
    /// consumer only ever reads the shared columns — zero data copies
    /// either way.
    fn dispatch(&mut self, from: NodeId, batch: TupleBatch) {
        let targets: Vec<Target> = self
            .network
            .node(from)
            .expect("live node")
            .downstream
            .clone();
        self.route_shared(&targets, batch);
    }

    /// Force-closes all windowed state (the end of the *final* day) and
    /// drains the resulting outputs.
    ///
    /// Runs force-close passes to a fixed point: a stateful operator
    /// downstream of another stateful operator only receives its upstream's
    /// force-closed rows *after* that upstream's `finish` ran, and those
    /// rows land in windows the (already final) watermark will never close
    /// — so passes repeat until no operator emits anything new. Operator
    /// `finish` is idempotent (it drains state), which bounds the loop by
    /// the depth of the operator DAG.
    pub fn finish(&mut self) {
        self.run_until_quiescent();
        loop {
            let mut any = false;
            for id in self.network.node_ids() {
                let fault = self.fault.as_deref();
                let node = self.network.node_mut(id).expect("live node");
                let (closed, _) = run_kernel(
                    id.0,
                    node.kind,
                    fault,
                    false,
                    &mut self.pending_panics,
                    |inject| {
                        inject(&[]);
                        node.op.finish()
                    },
                );
                if let Some(batch) = closed.flatten() {
                    node.out_count += batch.len() as u64;
                    any = true;
                    self.dispatch(id, batch);
                }
            }
            self.run_until_quiescent();
            if !any {
                break;
            }
        }
    }

    /// Takes (and clears) the collected outputs of a query, materializing
    /// rows from the sink's shared batches (batches no other sink still
    /// references are consumed in place).
    pub fn take_outputs(&mut self, cq: CqId) -> Vec<Tuple> {
        let batches = self
            .outputs
            .get_mut(&cq)
            .map(std::mem::take)
            .unwrap_or_default();
        let mut rows = Vec::with_capacity(batches.iter().map(|b| b.len()).sum());
        for batch in batches {
            match Arc::try_unwrap(batch) {
                Ok(owned) => rows.extend(owned.into_rows()),
                Err(shared) => rows.extend(shared.iter_rows()),
            }
        }
        rows
    }

    /// Peeks at a query's collected outputs, materializing rows.
    ///
    /// This is an **expensive read**: every buffered row is materialized
    /// from the sink's columnar batches on every call (and counted by
    /// [`crate::types::work`]). For emptiness or length checks use the
    /// O(batches) [`DsmsEngine::output_len`] instead.
    pub fn outputs(&self, cq: CqId) -> Vec<Tuple> {
        self.outputs
            .get(&cq)
            .map(|batches| batches.iter().flat_map(|b| b.iter_rows()).collect())
            .unwrap_or_default()
    }

    /// Number of output rows currently buffered for a query (cheap: no row
    /// materialization).
    pub fn output_len(&self, cq: CqId) -> usize {
        self.outputs
            .get(&cq)
            .map_or(0, |batches| batches.iter().map(|b| b.len()).sum())
    }

    /// The current watermark (max event time *routed*). Tuples buffered by
    /// [`DsmsEngine::push`] but not yet processed by
    /// [`DsmsEngine::run_until_quiescent`] do not advance it.
    pub fn watermark(&self) -> u64 {
        self.watermark
    }

    /// Total tuples processed by operators so far (a machine-independent
    /// work measure).
    pub fn tuples_processed(&self) -> u64 {
        self.processed
    }

    /// Total operator invocations on input batches so far.
    /// `tuples_processed / batches_processed` is the realized mean batch
    /// size across the network.
    pub fn batches_processed(&self) -> u64 {
        self.batches
    }

    /// Ingestion statistics per stream.
    pub fn stream_stats(&self) -> &HashMap<String, StreamStats> {
        &self.stream_stats
    }

    /// Installs (or clears) the deterministic fault-injection plan
    /// (builder form; see [`crate::fault::FaultPlan`]). A test/bench
    /// knob: `None` — the default — is completely inert.
    pub fn with_fault_plan(mut self, plan: Option<Arc<FaultPlan>>) -> Self {
        self.set_fault_plan(plan);
        self
    }

    /// Installs (or clears) the deterministic fault-injection plan. The
    /// plan is engine-local (not process-global), so parallel tests can
    /// each drive their own.
    pub fn set_fault_plan(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.fault = plan;
    }

    /// Installs (or clears) the overload guardrail (builder form; see
    /// [`OverloadPolicy`]).
    pub fn with_overload_policy(mut self, policy: Option<OverloadPolicy>) -> Self {
        self.set_overload_policy(policy);
        self
    }

    /// Installs (or clears) the overload guardrail. With a policy in
    /// place, a flush whose pending ingestion exceeds the budget sheds
    /// whole batches lowest-priority stream first (see
    /// [`DsmsEngine::set_stream_priority`]) — deterministically, before
    /// partitioning, so the shed set is identical for every shard count.
    pub fn set_overload_policy(&mut self, policy: Option<OverloadPolicy>) {
        self.overload = policy;
    }

    /// Sets a stream's shedding priority: under overload, lower-priority
    /// streams shed first (ties broken by stream name; unset = 0). The
    /// center refreshes these after each auction with the highest
    /// admitted bid reading each stream, realizing lowest-bid-first
    /// shedding.
    pub fn set_stream_priority(&mut self, stream: impl Into<String>, priority: u64) {
        self.stream_priority.insert(stream.into(), priority);
    }

    /// Takes (and clears) the quarantine incidents resolved so far.
    pub fn take_quarantine_events(&mut self) -> Vec<QuarantineEvent> {
        std::mem::take(&mut self.quarantine_log)
    }

    /// The quarantine incidents resolved so far (without clearing).
    pub fn quarantine_events(&self) -> &[QuarantineEvent] {
        &self.quarantine_log
    }

    /// Runtime robustness diagnostics accumulated across flushes: one
    /// `NL060`/`NL061` pair per quarantine incident and one `NL062` per
    /// worker death.
    pub fn runtime_report(&self) -> &Report {
        &self.runtime_report
    }

    /// A fresh report of the overload guardrail's activity: one `NL063`
    /// warning per stream that has shed rows, in stream-name order.
    pub fn overload_report(&self) -> Report {
        let mut report = Report::new();
        let mut streams: Vec<(&String, &StreamStats)> = self
            .stream_stats
            .iter()
            .filter(|(_, stats)| stats.rows_shed > 0)
            .collect();
        streams.sort_by_key(|(name, _)| name.as_str());
        for (name, stats) in streams {
            report.push(Diagnostic::new(
                Code::OverloadShed,
                Span::Stream(name.clone()),
                format!(
                    "{} rows shed from stream '{name}' under overload",
                    stats.rows_shed
                ),
            ));
        }
        report
    }
}

/// One unit of shard work: the share of one source batch dealt to one home
/// shard, headed into the parallel plan.
struct KeyedUnit {
    /// Index of the source batch within the flush (the merge order key).
    batch_idx: usize,
    /// Index into [`KeyedPlan::roots`].
    root: usize,
    /// The whole source batch (its columns are shared, not copied).
    batch: TupleBatch,
    /// A hash-partitioned share: its range of the flush's index buffer
    /// ([`FlushCtx::rows`]) — the pre-partition indices of its rows, which
    /// the home's walk gathers and carries on as merge tags. `None` for a
    /// whole batch dealt round-robin: it lives on one shard, so its
    /// outputs merge without tags and its kernels run untraced.
    rows: Option<std::ops::Range<u32>>,
}

/// Rides over mutex poisoning: every lock in the engine guards data whose
/// invariants hold between operations (a home's claim slot, a pool
/// mailbox), and a panic inside a critical section is surfaced
/// separately — through a per-kernel catch or the pool's `Done(Err)`
/// path — so the poison flag carries no extra information here. One helper instead of scattered
/// `unwrap_or_else(PoisonError::into_inner)` copies.
fn ride_poison<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Extracts a readable message from a caught panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "operator kernel panicked".to_string()
    }
}

/// The one guard around every operator-kernel invocation — the home
/// walks' and the control loop's queue walks and watermark passes, and
/// `finish`: a panic net, the fault harness's hook and
/// the `busy` timer in one place. `f` receives `inject` and calls it with
/// its input's timestamps before touching the kernel; the hook lives
/// *inside* the net, so an injected panic is indistinguishable from a
/// genuine kernel bug to the recovery machinery it exercises (and inert
/// without a plan). On panic the invocation's outputs are lost, the
/// incident is recorded as `(node, message)` for quarantine resolution,
/// and execution continues — the recover-and-continue half of the
/// robustness contract (see the crate docs). Kernels only touch
/// per-invocation inputs and their own node's state, so a caught
/// invocation cannot corrupt any *other* node's state. Returns the
/// result (`None` = panicked) and the elapsed wall time (zero with
/// `timing` off).
fn run_kernel<T>(
    node: u32,
    kind: &'static str,
    fault: Option<&FaultPlan>,
    timing: bool,
    panics: &mut Vec<(u32, String)>,
    f: impl FnOnce(&dyn Fn(&[u64])) -> T,
) -> (Option<T>, Duration) {
    let inject = |ts: &[u64]| {
        if let Some(fault) = fault {
            fault.before_kernel(kind, ts);
        }
    };
    let start = timing.then(Instant::now);
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| f(&inject)));
    let elapsed = start.map(|s| s.elapsed()).unwrap_or_default();
    match result {
        Ok(v) => (Some(v), elapsed),
        Err(payload) => {
            panics.push((node, panic_message(payload)));
            (None, elapsed)
        }
    }
}

/// What one operator invocation handed on.
enum Produced {
    /// A pure filter's survivors, still deferred: row indices into the
    /// *input* batch, which travels on with them.
    Selection(Vec<u32>),
    /// A materialized output batch and, for a traced call, its
    /// [`RowTrace`].
    Batch(TupleBatch, RowTrace),
}

/// Invokes an operator on one queued input — the one way in for the
/// control loop's queue walk (`partition: None`) and the home walks
/// (`Some(p)`) alike: a filter that can stay selection-deferred refines,
/// everything else processes, and a keyed operator handed a deferred
/// selection counts the rows it absorbs through it
/// ([`work::WorkSnapshot::selection_pushdown_rows`]). `None` when nothing
/// came out.
fn invoke(
    op: &dyn Operator,
    partition: Option<usize>,
    port: usize,
    batch: &TupleBatch,
    sel: Option<&[u32]>,
    traced: bool,
) -> Option<Produced> {
    if let Some(refined) = op.refine_selection(batch, sel) {
        return (!refined.is_empty()).then_some(Produced::Selection(refined));
    }
    if let (Some(sel), OpClass::Keyed) = (sel, op.class()) {
        work::count_pushdown_rows(sel.len() as u64);
    }
    let (out, trace) = op.process(partition, port, batch, sel, traced);
    out.map(|batch| Produced::Batch(batch, trace))
}

/// Per-node statistic deltas accumulated by one job.
#[derive(Default)]
struct NodeDelta {
    in_rows: u64,
    in_batches: u64,
    out_rows: u64,
    busy: Duration,
}

/// Everything one job reports back when it joins.
#[derive(Default)]
struct ShardReport {
    /// Merge-point outputs: `(producing node, entry path, batch, tags)`.
    /// The entry path orders a node's outputs exactly as the
    /// single-threaded node loop dispatches them (see [`entry_child`]);
    /// tags order rows *within* one logical output across shards.
    outputs: Vec<(u32, Vec<u32>, TupleBatch, Option<MergeTags>)>,
    node_stats: HashMap<u32, NodeDelta>,
    rows: u64,
    batches: u64,
    /// The shard's watermark (largest event timestamp processed).
    max_ts: u64,
    busy: Duration,
    /// The worker thread's work counters, folded into the control thread
    /// when the shard joins.
    work: work::WorkSnapshot,
    /// Kernel panics caught during this job's walks: `(node id, panic
    /// message)`. Resolved into quarantines by the control thread.
    panics: Vec<(u32, String)>,
}

/// One plan node resolved for the home walks.
struct ResolvedKeyedNode<'a> {
    /// The node's place in the plan: id, membership flags, in-plan
    /// consumers, and exits (a node with exits reports its outputs back
    /// for the merge).
    plan: &'a KeyedNode,
    /// The node's operator kind (for fault attribution and the harness's
    /// per-kind triggers).
    kind: &'static str,
    op: &'a dyn Operator,
    /// Whether this flush advances the node's watermark on every shard
    /// (always `false` for partial members — the control loop combines
    /// and emits their partials).
    advance: bool,
    /// Whether the node is a *grouped* partial member (per-home hash
    /// partials over a shard-incompatible group key); counts
    /// [`work::WorkSnapshot::grouped_partial_rows`]. Implies
    /// `plan.partial` — key-compatible grouped aggregates are full
    /// members, not partials.
    grouped: bool,
}

/// What every home walk of one flush runs against.
struct FlushCtx<'a> {
    nodes: &'a [ResolvedKeyedNode<'a>],
    plan: &'a KeyedPlan,
    /// The flush's row indices, grouped by home shard per source
    /// batch (see [`KeyedUnit::rows`]).
    rows: &'a [u32],
    /// The flush's merged watermark.
    watermark: u64,
    timing: bool,
    fault: Option<&'a FaultPlan>,
}

/// One pending input of a plan node inside a home walk's mini node loop.
struct KeyedEntry {
    /// The entry path (see [`entry_child`]); orders a node's queue the way
    /// the single-threaded node loop fills it.
    key: Vec<u32>,
    port: usize,
    batch: TupleBatch,
    /// Deferred selection (batch-row indices): the rows of `batch` this
    /// entry logically consists of. `None` = all. Filters refine it
    /// without gathering; stateful consumers absorb straight through it
    /// (selection pushdown); anything else densifies on entry.
    sel: Option<Vec<u32>>,
    /// Merge tags aligned with `batch`'s rows; `None` downstream of a
    /// whole-batch unit, whose kernels therefore run untraced.
    tags: Option<MergeTags>,
}

/// The child entry path for outputs of node `id` processing an entry with
/// path `parent`: `[id + 1] ++ parent` (`[id + 1, u32::MAX]` for watermark
/// emissions, which the single-threaded loop dispatches after the node's
/// whole queue). Paths compare lexicographically; root entries are
/// `[0, source batch]`, so a queue ordered by path is exactly the order
/// the single-threaded loop fills it: stream batches first, then each
/// producer's outputs in the producer's own processing order.
fn entry_child(id: u32, parent: &[u32]) -> Vec<u32> {
    let mut key = Vec::with_capacity(parent.len() + 1);
    key.push(id + 1);
    key.extend_from_slice(parent);
    key
}

/// One home shard's walk: a **mini node loop** over the parallel plan,
/// mirroring the single-threaded engine's pass — the home's units seeded
/// in arrival order, per-node FIFO queues drained in ascending node order,
/// and each stateful node closing partition `home`'s windows against the
/// flush's merged watermark right after its queue drains. Because every
/// pair of rows a stateful full member must combine shares a home shard
/// (hash partitioning on the tracked key), the walk observes exactly the
/// single-threaded state restricted to that shard's keys, and the
/// reported outputs carry entry paths + row tags that let the control
/// thread reassemble bit-identical batches.
///
/// Partial-aggregation members absorb into partition `home` too, which is
/// exact because only commutative aggregates qualify; the control loop's
/// watermark pass later combines the partials in partition order.
fn walk_home(ctx: &FlushCtx<'_>, home: usize, units: Vec<KeyedUnit>, report: &mut ShardReport) {
    let nodes = ctx.nodes;
    let mut queues: Vec<VecDeque<KeyedEntry>> = (0..nodes.len()).map(|_| VecDeque::new()).collect();
    // Seed root targets in source-batch order (= ingestion order), exactly
    // like the single-threaded flush routes raw stream batches.
    for unit in units {
        let (batch, tags) = match unit.rows {
            Some(rows) => {
                let rows = &ctx.rows[rows.start as usize..rows.end as usize];
                (unit.batch.take(rows), Some(MergeTags::Rows(rows.to_vec())))
            }
            None => (unit.batch, None),
        };
        if let Some(ts) = batch.max_ts() {
            report.max_ts = report.max_ts.max(ts);
        }
        let Some((&(last, last_port), rest)) = ctx.plan.roots[unit.root].targets.split_last()
        else {
            continue;
        };
        let key = vec![0u32, unit.batch_idx as u32];
        for &(n, port) in rest {
            queues[n].push_back(KeyedEntry {
                key: key.clone(),
                port,
                batch: batch.clone(),
                sel: None,
                tags: tags.clone(),
            });
        }
        queues[last].push_back(KeyedEntry {
            key,
            port: last_port,
            batch,
            sel: None,
            tags,
        });
    }
    // Ascending plan position is a topological order, so one pass drains
    // everything — including watermark emissions, which only flow to
    // higher-numbered nodes.
    for pos in 0..nodes.len() {
        let node = &nodes[pos];
        let id = node.plan.id.0;
        while let Some(entry) = queues[pos].pop_front() {
            let in_rows = entry.sel.as_ref().map_or(entry.batch.len(), Vec::len) as u64;
            report.rows += in_rows;
            report.batches += 1;
            work::count_shard_batches(1);
            // One logical kernel invocation under its own panic net: a
            // caught panic drops only this entry's outputs, and the
            // node's owners are quarantined at quiescence.
            let (produced, elapsed) = run_kernel(
                id,
                node.kind,
                ctx.fault,
                ctx.timing,
                &mut report.panics,
                |inject| {
                    inject(entry.batch.ts());
                    if node.plan.stateful {
                        work::count_keyed_shard_rows(in_rows);
                    }
                    if node.grouped {
                        // Grouped rows absorbed past the merge barrier
                        // into the home partition's hash partials.
                        work::count_grouped_partial_rows(in_rows);
                    }
                    invoke(
                        node.op,
                        Some(home),
                        entry.port,
                        &entry.batch,
                        entry.sel.as_deref(),
                        entry.tags.is_some(),
                    )
                },
            );
            report.busy += elapsed;
            let delta = report.node_stats.entry(id).or_default();
            delta.in_rows += in_rows;
            delta.in_batches += 1;
            delta.busy += elapsed;
            // Either the input batch under a refined selection, or a
            // materialized output with its tags composed through the trace.
            let (batch, sel, tags) = match produced.flatten() {
                None => continue,
                Some(Produced::Selection(sel)) => (entry.batch, Some(sel), entry.tags),
                Some(Produced::Batch(out, trace)) => {
                    let tags = match (entry.tags, trace) {
                        (Some(tags), Some(trace)) => Some(tags.take(&trace)),
                        (tags, _) => tags,
                    };
                    (out, None, tags)
                }
            };
            delta.out_rows += sel.as_ref().map_or(batch.len(), Vec::len) as u64;
            let out = KeyedEntry {
                key: entry.key,
                port: 0,
                batch,
                sel,
                tags,
            };
            dispatch_keyed(node.plan, out, &mut queues, report);
        }
        // Watermark pass: close this shard's windows right after the
        // node's queue — the position the single-threaded loop advances
        // the node at.
        if node.advance {
            let (emitted, elapsed) = run_kernel(
                id,
                node.kind,
                ctx.fault,
                ctx.timing,
                &mut report.panics,
                |inject| {
                    inject(&[]);
                    node.op.advance(Some(home), ctx.watermark)
                },
            );
            report.busy += elapsed;
            let delta = report.node_stats.entry(id).or_default();
            delta.busy += elapsed;
            if let Some((batch, keys)) = emitted.flatten() {
                delta.out_rows += batch.len() as u64;
                let out = KeyedEntry {
                    key: vec![u32::MAX],
                    port: 0,
                    batch,
                    sel: None,
                    tags: Some(MergeTags::Emits(keys)),
                };
                dispatch_keyed(node.plan, out, &mut queues, report);
            }
        }
    }
}

/// Routes one produced output of plan node `node` (still possibly
/// selection-deferred) to its in-plan consumers, and records it —
/// densified, an all-row selection passing through untouched — for the
/// merge when the node has exits.
fn dispatch_keyed(
    node: &KeyedNode,
    out: KeyedEntry,
    queues: &mut [VecDeque<KeyedEntry>],
    report: &mut ShardReport,
) {
    // Consumers share the output (COW columns); the original moves on to
    // the merge record or, without exits, to the last consumer.
    let record = !node.exits.is_empty();
    if let Some((&(last, last_port), rest)) = node.internal.split_last() {
        let child_key = entry_child(node.id.0, &out.key);
        let sharers = if record { &node.internal[..] } else { rest };
        for &(c, port) in sharers {
            queues[c].push_back(KeyedEntry {
                key: child_key.clone(),
                port,
                batch: out.batch.clone(),
                sel: out.sel.clone(),
                tags: out.tags.clone(),
            });
        }
        if !record {
            queues[last].push_back(KeyedEntry {
                key: child_key,
                port: last_port,
                ..out
            });
            return;
        }
    }
    if record {
        let (batch, tags) = match out.sel {
            Some(sel) if sel.len() < out.batch.len() => {
                (out.batch.take(&sel), out.tags.map(|t| t.take(&sel)))
            }
            _ => (out.batch, out.tags),
        };
        report.outputs.push((node.id.0, out.key, batch, tags));
    }
}

/// Rows below which a flush runs every job on the control thread instead
/// of handing jobs 1.. to the pool (the crate docs' *The handoff*).
/// A fixed rule on the flush's input, never a timing, so every [`work`]
/// counter stays a pure function of the input.
///
/// Measured on the 2-vCPU reference box: a parked seat starts its job
/// 40–50 µs after the post, and even with seats spinning a 100-row keyed
/// flush costs 34 µs pooled against 24 µs inline at 2 shards (the
/// `shard_count/keyed_flush_100_rows` bench cell). On `auction-day`'s
/// `serve_keyed_stateful` plans inline beat pooled by 6–10 % at 128- and
/// 256-row flushes and broke even at 512.
pub const INLINE_FLUSH_ROWS: usize = 512;

/// How long a waiting side of the pool handoff spins before it parks
/// (see [`WorkerPool`]). On the reference box a spinning seat starts its
/// job within ~2 µs of the post; `serve_keyed_stateful` throughput rose
/// with this bound up to 1 ms — its gap between pooled flushes — and
/// stayed flat up to 10 ms.
const SPIN_BEFORE_PARK: Duration = Duration::from_millis(1);

/// One pooled job of a flush, borrowing the flush's resolved plan for its
/// lifetime. [`WorkerPool::run`] blocks until every job it handed out has
/// reported back before those borrows end — which is what lets a seat hold
/// it as `ShardJob<'static>`.
type ShardJob<'a> = Box<dyn FnOnce() -> ShardReport + Send + 'a>;

/// A pool seat's mailbox. `tag` mirrors the variant `state` holds, so the
/// side waiting on the mailbox can spin on it without taking the lock.
struct WorkerSlot {
    state: Mutex<SlotState>,
    tag: AtomicU8,
}

enum SlotState {
    /// Nothing posted.
    Idle,
    /// A job, the thread to wake with its result, and whether the seat
    /// may spin while it waits for its next job.
    Job(ShardJob<'static>, Thread, bool),
    /// The job's result (or its panic payload), awaiting collection.
    /// Boxed: a `ShardReport` is large relative to the other variants.
    Done(Box<std::thread::Result<ShardReport>>),
    /// Tear-down request (pool drop).
    Exit,
}

impl SlotState {
    const JOB: u8 = 1;
    const DONE: u8 = 2;
    const EXIT: u8 = 3;

    fn tag(&self) -> u8 {
        match self {
            SlotState::Idle => 0,
            SlotState::Job(..) => Self::JOB,
            SlotState::Done(_) => Self::DONE,
            SlotState::Exit => Self::EXIT,
        }
    }
}

impl WorkerSlot {
    /// Posts `state` into the (idle) mailbox and wakes `reader`.
    fn post(&self, state: SlotState, reader: &Thread) {
        let tag = state.tag();
        *ride_poison(self.state.lock()) = state;
        self.tag.store(tag, Ordering::Release);
        reader.unpark();
    }

    /// Waits for a state whose tag `wanted` accepts and takes it, leaving
    /// the mailbox idle: first spinning for up to [`SPIN_BEFORE_PARK`] when
    /// `spin`, then parked until the poster's `unpark` (a spurious wake
    /// re-checks the tag).
    fn take(&self, wanted: impl Fn(u8) -> bool, spin: bool) -> SlotState {
        let start = Instant::now();
        while !wanted(self.tag.load(Ordering::Acquire)) {
            if spin && start.elapsed() < SPIN_BEFORE_PARK {
                std::hint::spin_loop();
            } else {
                std::thread::park();
            }
        }
        let mut slot = ride_poison(self.state.lock());
        self.tag.store(0, Ordering::Relaxed);
        std::mem::replace(&mut *slot, SlotState::Idle)
    }
}

struct PoolWorker {
    slot: Arc<WorkerSlot>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// The persistent worker pool of the parallel executor: one long-lived
/// seat per job after the first (job 0 runs on the control thread),
/// spawned on the first parallel flush and **parked between flushes**. A
/// flush posts one job per seat and blocks until every job reports back,
/// so jobs may safely borrow the flush's plan resolution. Both waiting
/// sides — a seat for its next job, the control thread for a result —
/// spin for up to [`SPIN_BEFORE_PARK`] before they park, but only when
/// the flush's jobs do not outnumber the machine's cores ([`may_spin`]):
/// oversubscribed by its own jobs, a spinner would take the core the
/// thread it waits for needs. Spawns
/// and wakeups are counted ([`work::WorkSnapshot::pool_spawns`] /
/// [`work::WorkSnapshot::pool_wakeups`]).
#[derive(Default)]
pub(crate) struct WorkerPool {
    workers: Vec<PoolWorker>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .finish()
    }
}

/// Whether a flush running `jobs` jobs (the control thread's included)
/// may spin in its handoffs: only when `jobs` does not exceed
/// `available_parallelism`. The guard is per flush, not per process: it
/// does not see other threads — other engines' pools, a test harness's
/// threads — so two 2-shard engines on two cores may each spin on a core
/// the other needs. What that costs is bounded: each waiting side burns
/// at most [`SPIN_BEFORE_PARK`] per handoff before it parks, so a thread
/// a spinner crowds out waits at most that long for its core.
fn may_spin(jobs: usize) -> bool {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    jobs <= *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, usize::from))
}

fn is_death<T>(result: &std::thread::Result<T>) -> bool {
    result
        .as_ref()
        .err()
        .is_some_and(|payload| payload.is::<WorkerDeath>())
}

fn pool_worker_main(slot: Arc<WorkerSlot>) {
    let mut spin = false;
    loop {
        let next = slot.take(|t| t == SlotState::JOB || t == SlotState::EXIT, spin);
        let SlotState::Job(job, control, may_spin) = next else {
            return;
        };
        spin = may_spin;
        let result = std::panic::catch_unwind(AssertUnwindSafe(job));
        let died = is_death(&result);
        slot.post(SlotState::Done(Box::new(result)), &control);
        if died {
            // An injected worker death: the result is posted (so the
            // flush's collection is unaffected) and the thread exits;
            // `run` respawns the seat afterwards.
            return;
        }
    }
}

/// Spawns the thread of pool seat `seat` (job `seat + 1` of a flush).
fn spawn_seat(seat: usize, slot: &Arc<WorkerSlot>) -> std::thread::JoinHandle<()> {
    work::count_pool_spawn();
    let slot = slot.clone();
    std::thread::Builder::new()
        .name(format!("cqac-shard-{}", seat + 1))
        .spawn(move || pool_worker_main(slot))
        .expect("spawn pool worker")
}

impl WorkerPool {
    /// Ensures at least `n` seats exist (spawning is the counted warmup
    /// cost; parked surplus seats from a larger previous shard count are
    /// kept — they cost no CPU).
    fn ensure(&mut self, n: usize) {
        while self.workers.len() < n {
            let slot = Arc::new(WorkerSlot {
                state: Mutex::new(SlotState::Idle),
                tag: AtomicU8::new(0),
            });
            let handle = Some(spawn_seat(self.workers.len(), &slot));
            self.workers.push(PoolWorker { slot, handle });
        }
    }

    /// Runs `jobs` on the pool's first seats and `own` on this thread,
    /// blocks until every seat reported back, and returns the results in
    /// job order, `own`'s first. Panics are *returned*, not re-raised: an
    /// injected [`WorkerDeath`] is recovered from by the caller (a dead
    /// seat is respawned here so the next flush finds a full pool), and
    /// any other payload is re-raised by the caller — in both cases only
    /// after every job has reported back, so no borrow escapes.
    fn run(
        &mut self,
        jobs: Vec<ShardJob<'_>>,
        own: impl FnOnce() -> std::thread::Result<ShardReport>,
    ) -> Vec<std::thread::Result<ShardReport>> {
        let seats = jobs.len();
        let spin = may_spin(seats + 1);
        let control = std::thread::current();
        self.ensure(seats);
        for (w, job) in self.workers.iter().zip(jobs) {
            // SAFETY: every posted job is collected below before this
            // function returns — a panic of `own` is caught first — so the
            // `'env` borrows captured by the job strictly outlive it.
            let job: ShardJob<'static> = unsafe { std::mem::transmute(job) };
            work::count_pool_wakeup();
            let seat = w.handle.as_ref().expect("a live seat").thread();
            w.slot
                .post(SlotState::Job(job, control.clone(), spin), seat);
        }
        let own = std::panic::catch_unwind(AssertUnwindSafe(own)).and_then(|r| r);
        let mut results = vec![own];
        for w in &self.workers[..seats] {
            let SlotState::Done(result) = w.slot.take(|t| t == SlotState::DONE, spin) else {
                unreachable!("a seat answers its job with the result");
            };
            results.push(*result);
        }
        // Every job has finished; the flush's borrows are released. A seat
        // whose thread died to an injected WorkerDeath gets a fresh thread
        // now (a counted spawn), so the pool is whole again.
        for seat in 0..seats {
            if is_death(&results[seat + 1]) {
                let w = &mut self.workers[seat];
                if let Some(handle) = w.handle.take() {
                    // It posted `Done` before exiting: the join is immediate.
                    let _ = handle.join();
                }
                w.handle = Some(spawn_seat(seat, &w.slot));
            }
        }
        results
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for w in &self.workers {
            if let Some(handle) = &w.handle {
                w.slot.post(SlotState::Exit, handle.thread());
            }
        }
        for w in &mut self.workers {
            if let Some(handle) = w.handle.take() {
                // A worker that panicked outside a job already unwound;
                // ignore the join error during teardown.
                let _ = handle.join();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use crate::plan::AggFunc;
    use crate::types::{DataType, Field, Value};

    fn quote_schema() -> Schema {
        Schema::new(vec![
            Field::new("symbol", DataType::Str),
            Field::new("price", DataType::Float),
        ])
    }

    fn quote(ts: u64, sym: &str, price: f64) -> Tuple {
        Tuple::new(ts, vec![Value::str(sym), Value::Float(price)])
    }

    fn engine_with_quotes() -> DsmsEngine {
        let mut e = DsmsEngine::new();
        e.register_stream("quotes", quote_schema());
        e
    }

    fn high_filter() -> LogicalPlan {
        LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(100.0))))
    }

    #[test]
    fn filter_end_to_end() {
        let mut e = engine_with_quotes();
        let cq = e.add_query(high_filter()).unwrap();
        e.push("quotes", quote(1, "IBM", 120.0));
        e.push("quotes", quote(2, "IBM", 80.0));
        e.push("quotes", quote(3, "AAPL", 130.0));
        e.run_until_quiescent();
        let out = e.take_outputs(cq);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].ts, 1);
        assert_eq!(out[1].ts, 3);
        assert!(e.take_outputs(cq).is_empty(), "take drains");
    }

    #[test]
    fn consecutive_pushes_coalesce_into_one_batch() {
        let mut e = engine_with_quotes();
        e.add_query(high_filter()).unwrap();
        for i in 0..5 {
            e.push("quotes", quote(i, "IBM", 120.0));
        }
        e.run_until_quiescent();
        assert_eq!(e.tuples_processed(), 5);
        assert_eq!(e.batches_processed(), 1, "one run of one stream, one batch");
    }

    #[test]
    fn batch_size_cap_splits_ingestion_runs() {
        let mut e = engine_with_quotes().with_max_batch_size(2);
        e.add_query(high_filter()).unwrap();
        e.push_rows("quotes", (0..5).map(|i| quote(i, "IBM", 120.0)).collect());
        assert_eq!(e.tuples_processed(), 5);
        assert_eq!(e.batches_processed(), 3, "5 rows capped at 2 → 2+2+1");
    }

    #[test]
    fn batch_size_does_not_change_results() {
        let tuples: Vec<Tuple> = (0..200)
            .map(|i| {
                quote(
                    i,
                    if i % 3 == 0 { "IBM" } else { "AAPL" },
                    80.0 + (i % 50) as f64,
                )
            })
            .collect();
        let mut outputs = Vec::new();
        for cap in [1usize, 7, 64, 1024] {
            let mut e = engine_with_quotes().with_max_batch_size(cap);
            let cq = e.add_query(high_filter()).unwrap();
            e.push_rows("quotes", tuples.clone());
            outputs.push(e.take_outputs(cq));
        }
        assert!(outputs.windows(2).all(|w| w[0] == w[1]));
    }

    #[test]
    fn shared_filter_feeds_both_sinks() {
        let mut e = engine_with_quotes();
        let q1 = e.add_query(high_filter()).unwrap();
        let q2 = e.add_query(high_filter()).unwrap();
        e.push("quotes", quote(1, "IBM", 120.0));
        e.run_until_quiescent();
        assert_eq!(e.output_len(q1), 1);
        assert_eq!(e.output_len(q2), 1);
        // The shared node processed the tuple once.
        let node = e.network().query(q1).unwrap().nodes[0];
        assert_eq!(e.network().node(node).unwrap().in_count, 1);
    }

    #[test]
    fn aggregate_emits_on_watermark() {
        let mut e = engine_with_quotes();
        let cq = e
            .add_query(LogicalPlan::source("quotes").aggregate(None, AggFunc::Count, 0, 100))
            .unwrap();
        e.push_batch([
            ("quotes".to_string(), quote(10, "A", 1.0)),
            ("quotes".to_string(), quote(20, "A", 1.0)),
        ]);
        assert_eq!(e.output_len(cq), 0, "window still open");
        e.push_batch([("quotes".to_string(), quote(150, "A", 1.0))]);
        let out = e.take_outputs(cq);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values[1], Value::Int(2));
    }

    #[test]
    fn join_across_streams() {
        let mut e = engine_with_quotes();
        e.register_stream(
            "news",
            Schema::new(vec![
                Field::new("symbol", DataType::Str),
                Field::new("headline", DataType::Str),
            ]),
        );
        let plan = high_filter().join(LogicalPlan::source("news"), 0, 0, 50);
        let cq = e.add_query(plan).unwrap();
        e.push("quotes", quote(100, "IBM", 150.0));
        e.push(
            "news",
            Tuple::new(120, vec![Value::str("IBM"), Value::str("beats earnings")]),
        );
        e.run_until_quiescent();
        let out = e.take_outputs(cq);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].values.len(), 4);
    }

    #[test]
    fn transition_holds_and_releases_in_order() {
        let mut e = engine_with_quotes();
        let cq = e.add_query(high_filter()).unwrap();
        e.push("quotes", quote(1, "IBM", 120.0));
        e.begin_transition();
        e.push("quotes", quote(2, "IBM", 130.0));
        e.push("quotes", quote(3, "IBM", 140.0));
        assert_eq!(e.held_tuples(), 2);
        assert_eq!(e.output_len(cq), 1, "pre-transition tuple delivered");
        e.end_transition();
        let out = e.take_outputs(cq);
        assert_eq!(out.len(), 3);
        assert_eq!(out.iter().map(|t| t.ts).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn mid_stream_query_addition_does_not_disturb_existing() {
        let mut reference = engine_with_quotes();
        let ref_cq = reference.add_query(high_filter()).unwrap();

        let mut e = engine_with_quotes();
        let cq = e.add_query(high_filter()).unwrap();

        let tuples: Vec<Tuple> = (0..20).map(|i| quote(i, "IBM", 90.0 + i as f64)).collect();
        for (i, t) in tuples.iter().enumerate() {
            reference.push("quotes", t.clone());
            e.push("quotes", t.clone());
            if i == 10 {
                // Add an unrelated query mid-stream.
                e.add_query(
                    LogicalPlan::source("quotes")
                        .filter(Expr::col(0).eq(Expr::lit(Value::str("AAPL")))),
                )
                .unwrap();
            }
        }
        reference.run_until_quiescent();
        e.run_until_quiescent();
        assert_eq!(
            reference.take_outputs(ref_cq),
            e.take_outputs(cq),
            "continuing query output must be unaffected by the transition"
        );
    }

    #[test]
    fn finish_flushes_open_windows() {
        let mut e = engine_with_quotes();
        let cq = e
            .add_query(LogicalPlan::source("quotes").aggregate(None, AggFunc::Count, 0, 1000))
            .unwrap();
        e.push_batch([("quotes".to_string(), quote(10, "A", 1.0))]);
        assert_eq!(e.output_len(cq), 0);
        e.finish();
        assert_eq!(e.output_len(cq), 1);
    }

    #[test]
    fn buffered_tuples_are_not_delivered_to_queries_added_later() {
        // push() defers routing to the next run, but add_query's automatic
        // mini-transition flushes the buffer against the *old* network
        // before modifying it — a later query must never retroactively
        // receive earlier tuples.
        let mut e = engine_with_quotes();
        let q1 = e.add_query(high_filter()).unwrap();
        e.push("quotes", quote(1, "IBM", 120.0));
        e.push("quotes", quote(2, "IBM", 130.0));
        let q2 = e.add_query(high_filter()).unwrap();
        e.push("quotes", quote(3, "IBM", 140.0));
        e.run_until_quiescent();
        assert_eq!(e.output_len(q1), 3);
        assert_eq!(
            e.outputs(q2).iter().map(|t| t.ts).collect::<Vec<_>>(),
            vec![3],
            "q2 sees only tuples pushed after its registration"
        );
    }

    #[test]
    #[should_panic(expected = "unknown stream 'qotes'")]
    fn push_to_unknown_stream_panics_with_registration_hint() {
        let mut e = engine_with_quotes();
        e.push("qotes", quote(1, "IBM", 120.0));
    }

    #[test]
    fn finish_reaches_stacked_stateful_operators() {
        // An aggregate over an aggregate: the outer one only receives rows
        // when the inner one force-closes, so finish() must iterate to a
        // fixed point instead of running one pass.
        let mut e = engine_with_quotes();
        let cq = e
            .add_query(
                LogicalPlan::source("quotes")
                    .aggregate(None, AggFunc::Count, 0, 100)
                    .aggregate(None, AggFunc::Max, 1, 1000),
            )
            .unwrap();
        e.push_rows("quotes", (0..5).map(|i| quote(i * 10, "A", 1.0)).collect());
        e.finish();
        let out = e.take_outputs(cq);
        assert_eq!(out.len(), 1, "the day's nested result must not be lost");
        assert_eq!(out[0].values[1], Value::Int(5), "max of inner count");
    }

    #[test]
    fn stats_track_streams_and_work() {
        let mut e = engine_with_quotes();
        e.add_query(high_filter()).unwrap();
        e.push_batch((0..5).map(|i| ("quotes".to_string(), quote(i, "A", 120.0))));
        let stats = &e.stream_stats()["quotes"];
        assert_eq!(stats.count, 5);
        assert_eq!(stats.min_ts, 0);
        assert_eq!(stats.max_ts, 4);
        assert_eq!(e.tuples_processed(), 5);
    }

    #[test]
    fn push_rows_matches_push_batch_stats() {
        let mut a = engine_with_quotes();
        a.add_query(high_filter()).unwrap();
        let mut b = engine_with_quotes();
        b.add_query(high_filter()).unwrap();
        let rows: Vec<Tuple> = (0..10).map(|i| quote(i + 3, "A", 120.0)).collect();
        a.push_batch(rows.iter().cloned().map(|t| ("quotes".to_string(), t)));
        b.push_rows("quotes", rows);
        assert_eq!(
            a.stream_stats()["quotes"].count,
            b.stream_stats()["quotes"].count
        );
        assert_eq!(
            a.stream_stats()["quotes"].min_ts,
            b.stream_stats()["quotes"].min_ts
        );
        assert_eq!(
            a.stream_stats()["quotes"].max_ts,
            b.stream_stats()["quotes"].max_ts
        );
        assert_eq!(a.tuples_processed(), b.tuples_processed());
    }

    #[test]
    fn timing_is_recorded_per_node() {
        let mut e = engine_with_quotes();
        let cq = e.add_query(high_filter()).unwrap();
        e.push_rows("quotes", (0..100).map(|i| quote(i, "A", 120.0)).collect());
        let node = e.network().query(cq).unwrap().nodes[0];
        let node = e.network().node(node).unwrap();
        assert_eq!(node.in_count, 100);
        assert!(node.in_batches >= 1);
        assert!(
            node.busy > std::time::Duration::ZERO,
            "busy time accumulates"
        );
    }

    #[test]
    fn fusion_knob_controls_network_shape_not_results() {
        let chain = high_filter()
            .filter(Expr::col(0).eq(Expr::lit(Value::str("IBM"))))
            .project(vec![("price".to_string(), Expr::col(1))]);
        let rows: Vec<Tuple> = (0..50)
            .map(|i| {
                quote(
                    i,
                    if i % 2 == 0 { "IBM" } else { "AAPL" },
                    90.0 + (i % 30) as f64,
                )
            })
            .collect();

        let mut fused = engine_with_quotes();
        assert!(fused.fusion_enabled(), "fusion defaults to on");
        let fq = fused.add_query(chain.clone()).unwrap();
        fused.push_rows("quotes", rows.clone());

        let mut unfused = engine_with_quotes().with_fusion(false);
        let uq = unfused.add_query(chain).unwrap();
        unfused.push_rows("quotes", rows);

        assert_eq!(fused.network().num_nodes(), 1);
        assert_eq!(unfused.network().num_nodes(), 3);
        assert_eq!(fused.take_outputs(fq), unfused.take_outputs(uq));
        assert!(
            fused.batches_processed() < unfused.batches_processed(),
            "fusion removes per-operator queue hops"
        );
    }

    #[test]
    fn sink_fanout_shares_batches_without_row_clones() {
        // 32 sinks off one shared filter: delivery must be Arc-shared —
        // zero per-sink row copies, zero per-row evaluation, zero deep
        // batch clones — and still correct per sink.
        let mut e = engine_with_quotes();
        let cqs: Vec<_> = (0..32)
            .map(|_| e.add_query(high_filter()).unwrap())
            .collect();
        crate::types::work::reset();
        e.push_rows(
            "quotes",
            (0..1000).map(|i| quote(i, "IBM", 120.0)).collect(),
        );
        let snap = crate::types::work::snapshot();
        assert_eq!(snap.rows_materialized, 0, "delivery is zero-copy");
        assert_eq!(snap.row_evals, 0, "the filter ran as a columnar kernel");
        assert_eq!(snap.batch_deep_clones, 0, "sinks share, never copy");
        for &cq in &cqs {
            assert_eq!(e.output_len(cq), 1000);
        }
        // Reading one sink's outputs materializes rows once, without
        // disturbing the other sinks' shared batches.
        assert_eq!(e.take_outputs(cqs[0]).len(), 1000);
        assert_eq!(e.output_len(cqs[1]), 1000);
        assert_eq!(e.take_outputs(cqs[1]).len(), 1000);
    }

    #[test]
    fn multi_node_fanout_shares_columns_copy_on_write() {
        // Two *distinct* filters subscribe to the stream: before COW
        // column sharing the second queue consumer paid a deep copy; now
        // both read the shared columns and nobody copies row data.
        let mut e = engine_with_quotes();
        e.add_query(high_filter()).unwrap();
        e.add_query(
            LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(50.0)))),
        )
        .unwrap();
        crate::types::work::reset();
        e.push_rows("quotes", (0..10).map(|i| quote(i, "IBM", 120.0)).collect());
        let snap = crate::types::work::snapshot();
        assert_eq!(
            snap.batch_deep_clones, 0,
            "N node consumers share columns copy-on-write"
        );
    }

    #[test]
    fn mixed_sink_and_node_fanout_never_copies_column_data() {
        // The shared filter feeds a sink (q1) *and* a downstream filter
        // node (q2): the sink's Arc outlives the queue drain, but the node
        // consumer's clone only bumps the column Arcs — zero data copies.
        let mut e = engine_with_quotes();
        let q1 = e.add_query(high_filter()).unwrap();
        let q2 = e
            .add_query(high_filter().filter(Expr::col(0).eq(Expr::lit(Value::str("IBM")))))
            .unwrap();
        crate::types::work::reset();
        e.push_rows("quotes", (0..10).map(|i| quote(i, "IBM", 120.0)).collect());
        let snap = crate::types::work::snapshot();
        assert_eq!(
            snap.batch_deep_clones, 0,
            "readers of a shared batch never copy column data"
        );
        assert_eq!(e.output_len(q1), 10);
        assert_eq!(e.output_len(q2), 10);
    }

    fn market_rows(n: u64) -> Vec<Tuple> {
        (0..n)
            .map(|i| {
                quote(
                    i,
                    if i % 3 == 0 { "IBM" } else { "AAPL" },
                    80.0 + (i % 50) as f64,
                )
            })
            .collect()
    }

    #[test]
    fn shard_knobs_default_to_single_threaded() {
        let e = engine_with_quotes();
        assert_eq!(e.shards(), 1);
        assert_eq!(e.shard_key("quotes"), None);
        assert_eq!(e.shard_stats().len(), 1);
        assert_eq!(e.shard_stats()[0].rows, 0, "no sharded run happened");
    }

    #[test]
    #[should_panic(expected = "shard count must be positive")]
    fn zero_shards_rejected() {
        let _ = DsmsEngine::new().with_shards(0);
    }

    #[test]
    fn changing_shard_count_resets_per_shard_statistics() {
        // Shard ids mean nothing across different counts, so accumulated
        // per-shard statistics must not survive a resize.
        let mut e = engine_with_quotes().with_max_batch_size(8).with_shards(8);
        e.set_shard_key("quotes", 0).unwrap();
        e.add_query(high_filter()).unwrap();
        e.push_rows("quotes", market_rows(64));
        assert!(e.shard_stats().iter().map(|s| s.rows).sum::<u64>() > 0);
        e.set_shards(2);
        assert_eq!(e.shard_stats().len(), 2);
        assert!(e.shard_stats().iter().all(|s| s.rows == 0));
        assert!(e.stream_stats()["quotes"].shard_rows.is_empty());
        // Re-setting the same count is a no-op that keeps statistics.
        e.push_rows("quotes", market_rows(64));
        let rows: u64 = e.shard_stats().iter().map(|s| s.rows).sum();
        assert!(rows > 0);
        e.set_shards(2);
        assert_eq!(e.shard_stats().iter().map(|s| s.rows).sum::<u64>(), rows);
        assert_eq!(e.stream_stats()["quotes"].shard_rows.len(), 2);
    }

    #[test]
    fn float_shard_key_rejected() {
        let mut e = engine_with_quotes();
        let err = e.set_shard_key("quotes", 1).unwrap_err(); // price: Float
        assert_eq!(
            err,
            PlanError::UnhashableShardKey {
                stream: "quotes".into(),
                column: 1
            }
        );
        // The rejected key was not configured.
        assert_eq!(e.shard_key("quotes"), None);
        let err = e.set_shard_key("quotes", 9).unwrap_err();
        assert_eq!(
            err,
            PlanError::ShardKeyOutOfRange {
                stream: "quotes".into(),
                column: 9
            }
        );
    }

    #[test]
    fn shard_key_may_precede_stream_registration() {
        // Builder forms chain in any order; validation runs at register.
        let mut e = DsmsEngine::new().with_shards(2).with_shard_key("quotes", 0);
        e.register_stream("quotes", quote_schema());
        assert_eq!(e.shard_key("quotes"), Some(0));
    }

    #[test]
    #[should_panic(expected = "not a hashable shard key")]
    fn deferred_float_shard_key_rejected_at_registration() {
        let mut e = DsmsEngine::new().with_shard_key("quotes", 1);
        e.register_stream("quotes", quote_schema());
    }

    #[test]
    fn sharded_outputs_equal_single_threaded() {
        let rows = market_rows(200);
        let mut reference = engine_with_quotes().with_max_batch_size(16);
        let rq = reference.add_query(high_filter()).unwrap();
        reference.push_rows("quotes", rows.clone());
        let expected = reference.take_outputs(rq);
        for shards in [2usize, 4, 8] {
            // Round-robin batch distribution (the default)…
            let mut e = engine_with_quotes()
                .with_max_batch_size(16)
                .with_shards(shards);
            let cq = e.add_query(high_filter()).unwrap();
            e.push_rows("quotes", rows.clone());
            assert_eq!(e.take_outputs(cq), expected, "round-robin, shards={shards}");
            assert_eq!(
                e.tuples_processed(),
                reference.tuples_processed(),
                "sharding must not duplicate per-row work"
            );
            // …and hash partitioning on the symbol column.
            let mut h = engine_with_quotes()
                .with_max_batch_size(16)
                .with_shards(shards)
                .with_shard_key("quotes", 0);
            let cq = h.add_query(high_filter()).unwrap();
            h.push_rows("quotes", rows.clone());
            assert_eq!(h.take_outputs(cq), expected, "hash key, shards={shards}");
            assert_eq!(h.tuples_processed(), reference.tuples_processed());
        }
    }

    #[test]
    fn sharded_run_surfaces_per_shard_counters() {
        let mut e = engine_with_quotes()
            .with_max_batch_size(8)
            .with_shards(4)
            .with_shard_key("quotes", 0);
        let pass_all =
            LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(0.0))));
        let cq = e.add_query(pass_all).unwrap();
        work::reset();
        e.push_rows("quotes", market_rows(160));
        assert_eq!(e.output_len(cq), 160);
        let stats = &e.stream_stats()["quotes"];
        assert_eq!(stats.shard_rows.len(), 4);
        assert_eq!(stats.shard_rows.iter().sum::<u64>(), 160);
        assert!(
            stats.shard_rows.iter().filter(|&&r| r > 0).count() > 1,
            "two symbols must hash to more than one shard"
        );
        let shard_stats = e.shard_stats();
        assert_eq!(shard_stats.iter().map(|s| s.rows).sum::<u64>(), 160);
        assert_eq!(
            shard_stats.iter().map(|s| s.max_ts).max().unwrap(),
            e.watermark(),
            "per-shard watermarks merge into the engine watermark"
        );
        let snap = work::snapshot();
        assert!(snap.shard_batches > 0, "prefix work ran on shard workers");
        assert!(
            snap.shard_merge_rows > 0,
            "hash partitioning exercises the interleave merge"
        );
        assert_eq!(snap.row_evals, 0, "workers ran the columnar kernels");
    }

    /// Selection pushdown is not a sharded-only affair: the
    /// single-threaded control loop carries `(batch, selection)` pairs
    /// through its per-node queues, so a pure filter's survivors reach a
    /// downstream stateful consumer as a selection vector over the shared
    /// batch — counted by `selection_pushdown_rows` — instead of being
    /// densified into a fresh batch at every hop.
    #[test]
    fn single_threaded_queues_push_selections_into_stateful_ops() {
        let mut e = engine_with_quotes().with_max_batch_size(16);
        let cq = e
            .add_query(high_filter().aggregate(Some(0), AggFunc::Count, 0, 20))
            .unwrap();
        work::reset();
        e.push_rows("quotes", market_rows(160));
        let snap = work::snapshot();
        assert_eq!(snap.shard_batches, 0, "shards = 1 never touches the pool");
        assert!(
            snap.selection_pushdown_rows > 0,
            "the filter's partial selection must reach the aggregate undensified: {snap:?}"
        );
        e.finish();
        assert!(e.output_len(cq) > 0, "windows closed with grouped counts");
    }

    #[test]
    fn round_robin_sharding_merges_without_interleave() {
        let mut e = engine_with_quotes().with_max_batch_size(8).with_shards(4);
        let pass_all =
            LogicalPlan::source("quotes").filter(Expr::col(1).gt(Expr::lit(Value::Float(0.0))));
        let cq = e.add_query(pass_all).unwrap();
        work::reset();
        e.push_rows("quotes", market_rows(160));
        assert_eq!(e.output_len(cq), 160);
        let snap = work::snapshot();
        assert!(snap.shard_batches > 0);
        assert_eq!(
            snap.shard_merge_rows, 0,
            "whole batches merge by source order, no row interleave"
        );
    }

    #[test]
    fn sharded_stateful_suffix_and_sinks_agree_with_single_threaded() {
        // Filter prefix feeding an aggregate (merge barrier) plus a join of
        // two sharded streams.
        let plan = high_filter().aggregate(Some(0), AggFunc::Count, 0, 50);
        let mut reference = engine_with_quotes().with_max_batch_size(16);
        let rq = reference.add_query(plan.clone()).unwrap();
        reference.push_rows("quotes", market_rows(200));
        reference.finish();
        let expected = reference.take_outputs(rq);

        let mut e = engine_with_quotes()
            .with_max_batch_size(16)
            .with_shards(4)
            .with_shard_key("quotes", 0);
        let cq = e.add_query(plan).unwrap();
        e.push_rows("quotes", market_rows(200));
        e.finish();
        assert_eq!(e.take_outputs(cq), expected);
    }

    #[test]
    fn removed_query_stops_producing() {
        let mut e = engine_with_quotes();
        let q1 = e.add_query(high_filter()).unwrap();
        let q2 = e.add_query(high_filter()).unwrap();
        e.push_batch([("quotes".to_string(), quote(1, "A", 120.0))]);
        e.remove_query(q1);
        e.push_batch([("quotes".to_string(), quote(2, "A", 130.0))]);
        assert_eq!(e.output_len(q2), 2);
        assert_eq!(e.output_len(q1), 0);
    }
}
