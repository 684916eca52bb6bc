//! # cqac-dsms — an Aurora-like stream-processing substrate
//!
//! The ICDE 2010 admission-control paper assumes "an underlying query model
//! similar to the Aurora model": continuous queries compiled into a shared
//! network of operators, connection points that can hold tuples while
//! subnetworks are modified, and per-operator loads the system can
//! approximate (§II). This crate *builds that substrate*:
//!
//! * [`types`] / [`expr`] — values, schemas, the columnar
//!   [`types::TupleBatch`] (typed [`types::Column`] vectors behind a shared
//!   schema), and a small expression language (predicates are data, so
//!   structurally identical operators share) with both columnar and
//!   per-row evaluation.
//! * [`plan`] — logical continuous-query plans with canonical sharing
//!   signatures.
//! * [`ops`] — physical operators: filter, project, windowed symmetric hash
//!   join, tumbling/sliding aggregates, union — all consuming and producing
//!   tuple *batches*.
//! * [`network`] — the shared query network: one operator per distinct
//!   signature, reference-counted across queries.
//! * [`engine`] — deterministic batched push execution with event-time
//!   watermarks, connection points, and the end-of-day **transition phase**.
//! * [`cost`] — operator load estimation (analytic unit costs or measured
//!   per-batch timings normalized per tuple), lowering a live network into
//!   a `cqac_core` [`cqac_core::model::AuctionInstance`].
//! * [`center`] — the for-profit DSMS center: daily auctions, admission
//!   transitions, billing.
//! * [`streams`] — deterministic synthetic stock-quote and news feeds.
//! * [`fault`] — deterministic fault injection (seeded kernel panics,
//!   poison rows, worker death) driving the robustness soak tests.
//!
//! ## Columnar batched execution model
//!
//! The engine's unit of work is the [`types::TupleBatch`]: a shared schema
//! (`Arc<Schema>`), one event-timestamp vector, and one typed
//! [`types::Column`] per field (`Vec<bool>` / `Vec<i64>` / `Vec<f64>` /
//! `Vec<Arc<str>>`, with string columns normally carried
//! **dictionary-encoded** — see below). Ingestion groups consecutive
//! same-stream tuples into batches capped at the engine's **batch-size
//! knob**
//! ([`engine::DsmsEngine::set_max_batch_size`], default
//! [`types::TupleBatch::DEFAULT_MAX_BATCH`]), converting rows to columns at
//! the boundary; node queues, operator calls, watermark propagation, and
//! sink delivery all move whole columnar batches. Because only
//! *consecutive* tuples coalesce, global arrival order is preserved, and
//! outputs are invariant under how the input was chunked — bit-identical
//! sequences for single-input pipelines (filter/project/aggregate chains);
//! for multi-port operators (join, union) the guarantee is multiset
//! equality, since the interleaving of the two ports' arrivals at the node
//! depends on where ingestion-call boundaries fall (exactly as it depended
//! on push/run interleaving under per-tuple execution). Both halves are
//! pinned by the scalar-vs-batched equivalence property in
//! `tests/property_dsms.rs`. Setting the knob to `1` recovers per-tuple
//! execution (the engine benchmark sweeps 1 vs 64 vs 1024 to track the
//! batching win).
//!
//! **Vectorized, selection-aware kernels.** Stateless operators never
//! touch rows: a filter evaluates its predicate as a typed column kernel
//! ([`expr::Expr::filter_indices`]) producing a selection vector, then
//! either forwards the batch untouched (all-pass fast path) or gathers the
//! selected rows column-wise; a projection evaluates each expression as a
//! column kernel straight into output columns; a fused chain threads one
//! selection vector through its staged kernels and materializes once at
//! the end. The kernels are selection-aware end to end:
//! [`expr::Expr::eval_columnar`] takes the `(batch, selection)` pair
//! directly, a selected column leaf stays a **lazy view** (no gather)
//! until an operator genuinely needs dense output, and a refining filter
//! produces the composed selection without densifying in between.
//! Row-level evaluation errors (division by zero, NaN comparisons) travel
//! as a validity mask ([`expr::Validity`]) so the drop-the-row semantics
//! of per-row execution are preserved bit for bit. Joins read their keys
//! straight off the typed key column and materialize a row only when it
//! enters the join state; aggregates absorb from typed column slices
//! without widening a [`types::Value`] per tuple. The row-at-a-time path
//! survives behind a per-thread kill switch
//! ([`ops::set_columnar_kernels`]) as the reference implementation — the
//! columnar-vs-row equivalence property in `tests/property_dsms.rs` pins
//! strict output-sequence equality between the two across batch caps
//! 1/7/64/1024.
//!
//! **SIMD-shaped lane loops.** The hot compare/arithmetic/selection
//! kernels over contiguous `i64`/`f64`/`bool` slices run as unrolled
//! fixed-width lane loops (eight lanes per trip, `chunks_exact` bodies
//! with no bounds checks or data-dependent branches — the shape the
//! vendored toolchain reliably auto-vectorizes; no SIMD crates or
//! intrinsics). Gathered (selection-indexed) shapes and lane tails run a
//! scalar loop that is **bit-identical** to the lane loops — pinned by
//! comparing a contiguous evaluation against the same rows read through an
//! all-rows selection (`expr.rs`) and batch cap 1 against cap 1024
//! (`scalar_vs_batched_equivalence`). Full lanes are counted by
//! [`types::work::WorkSnapshot::simd_lanes`].
//!
//! **Exact integer comparisons.** `Int × Int` compares — row path and
//! columnar — compare `i64` exactly; widening to `f64` happens only for
//! genuinely mixed Int/Float operand pairs (where the float side decides
//! NaN handling: a NaN row is dropped via the validity mask, never
//! coerced). Values past 2^53, where `f64` loses integer precision, are
//! pinned by regression tests in `expr.rs` — the same guarantee PR 2
//! established for `Sum`'s i128 accumulator.
//!
//! **Dictionary-encoded strings.** String columns are interned at the
//! ingestion boundary ([`types::TupleBatch::seal_into`]: the engine seals
//! every batch a flush takes from its ingestion buffer, so `push`,
//! `push_batch` and `push_rows` reach the operators in one shape) into
//! [`types::Column::Dict`] — `u32` codes plus a first-appearance
//! dictionary of distinct `Arc<str>` values, shared by `Arc`. The engine
//! owns one append-only dictionary per `(stream, string column)` for the
//! life of the stream, so a code means the same string in every batch and
//! steady-state batches carry the same dictionary pointer. **Decay rule:**
//! the batch that brings a column's 257th distinct string
//! ([`types::Column::DICT_MAX_CARDINALITY`] + 1) and every later batch of
//! that column arrive as plain `Column::Str`; batches sealed earlier keep
//! the dictionary snapshot they hold and stay valid wherever they wait.
//! The representation is invisible to semantics:
//! `value_at`/`gather`/`split_off`/`append`/`interleave_tagged` and
//! column equality are bit-identical across encodings, schema inference
//! still sees [`types::DataType::Str`], and hash partitioning hashes the
//! decoded bytes (once per dictionary entry: the dictionary keeps each
//! entry's hash). What changes is the work: equality and ordering
//! predicates against a constant byte-compare **once per dictionary
//! entry** and then look up one `u32` verdict per row, dict×dict equality
//! remaps the right dictionary into the left code space once, and joins
//! and group-bys translate codes to interned key ids through a
//! per-dictionary table (below). Per-row code
//! comparisons are counted by
//! [`types::work::WorkSnapshot::dict_code_cmps`]; residual per-row byte
//! compares (plain columns, dict-vs-column ordering) by
//! [`types::work::WorkSnapshot::str_cmps`] — the `columnar_kernels`
//! bench asserts the shared string-predicate workload runs with
//! `str_cmps == 0`. Broadcast string constants
//! ([`types::Column::from_value`]) are a single dictionary entry with
//! zeroed codes — O(1) in the row count, not one `Arc` clone per row.
//!
//! **State layout.** Stateful operators never hash a string they have seen
//! and never build a row. Stream dictionary → interned id → id-keyed
//! state: each state partition of a join or aggregate interns its keys
//! (`Key → u32`; an id counts the accumulators or buffered rows that hold
//! it, and once unheld ids are the bulk of the interner they are freed
//! for reuse, so state over an unbounded key domain — a group-by or join
//! on an order id — is bounded by the keys in the open windows, not by
//! the keys ever seen) and remembers, for the dictionary it last read
//! keys from, the `code → id` table; a dictionary it has seen costs one
//! pointer compare per batch and one table load per key cell, while
//! `Int`/`Bool`/decayed-`Str` cells intern through one hash probe per
//! row. [`ops::AggregateOp`] keeps, per open window in start order, the
//! accumulators of the window's own groups by id (an integer-hashed map:
//! a window is as large as its groups, however many the partition has
//! interned), and closes windows **columnar** (window-end column, group
//! column from the interner, typed result column). [`ops::JoinOp`] keeps per-id FIFOs
//! of `(ts, batch, row)` references into the `Arc`-shared input batches, a
//! min-heap of queue fronts so eviction visits only keys whose front can
//! expire, and gathers matched pairs column by column. The decay rule
//! needs nothing from either: ids outlive the dictionary that introduced
//! them, so interned state carries over untouched when a column turns
//! plain. **Emission order is unchanged** — `(window start, group debug
//! text)`, the [`types::EmitKey`] — because it never depended on the state
//! layout: each group's text is rendered once when the group is interned,
//! a partition ranks its ids by that text once its groups stop changing
//! (and compares the texts themselves while they do), a closing window
//! sorts its ids by rank, and per-partition runs merge by the same key.
//!
//! **Zero-copy fan-out, copy-on-write columns.** A produced batch is
//! wrapped in one `Arc` and every downstream target receives a pointer
//! clone. Sinks keep the shared batch — a 32-sink shared query pays zero
//! per-sink row copies; rows materialize only when outputs are read
//! ([`engine::DsmsEngine::take_outputs`]). Node fan-out is free too:
//! [`types::TupleBatch`] holds its timestamp vector and column list behind
//! their own `Arc`s, so a consumer that cannot take the last reference
//! clones the batch by pointer and column data is copied only if someone
//! *mutates* a still-shared batch — which no operator does (readers read
//! shared columns, writers build fresh batches). The [`types::work`]
//! counters (row materializations, per-row evaluations, kernel passes,
//! copy-on-write misses) make these claims checkable on throttle-noisy
//! hardware; the `columnar_kernels` benchmark asserts zero deep clones for
//! both 32-way sink fan-out and 32-way node fan-out.
//!
//! Per-tuple [`engine::DsmsEngine::push`] survives as a thin wrapper that
//! appends to the current one-stream ingestion batch;
//! [`engine::DsmsEngine::push_batch`] (pairs) and
//! [`engine::DsmsEngine::push_rows`] (one stream, many rows) are the
//! primary ingestion paths.
//!
//! ## Operator fusion
//!
//! At network-instantiation time a **fusion pass** (on by default) collapses
//! each maximal chain of adjacent stateless operators — filter→filter,
//! filter→project, project→project — into a single [`ops::FusedOp`] node:
//! one queue hop and one output-batch materialization for the whole chain.
//! Construction composes stages where that is exactly
//! semantics-preserving (adjacent filters become one short-circuit
//! conjunction; back-to-back projections substitute when the inner one is
//! all `Col`/`Lit` leaves) and otherwise runs a staged per-row kernel loop.
//!
//! Sharing beats fusion: the chain walk stops at any sub-plan already
//! materialized as a physical node and subscribes to it, and a fused node
//! is keyed by its chain's top signature, so identical chains submitted by
//! different users still share one node and per-CQ cost attribution is
//! unchanged. One deliberate asymmetry remains: a chain fuses over
//! *interior* sub-plans without registering their signatures, so a query
//! equal to such an interior prefix that arrives **after** the chain gets
//! its own node (duplicate computation, never wrong results); arriving
//! before the chain, it is shared. Splitting live fused nodes when a
//! prefix reader appears is future work (see ROADMAP).
//!
//! The fused node reports a **selectivity-aware effective unit cost**
//! (each stage's analytic cost weighted by the fraction of input rows that
//! reached it), so the admission auction prices a fused plan like the
//! unfused chain's measured per-node rates, while
//! [`cost::CostModel::measured`] observes the real (lower) per-tuple time.
//! Before calibration traffic flows, the fallback is the conservative
//! full-chain sum.
//!
//! The knob lives next to the batch-size knob at every level:
//! [`network::QueryNetwork::set_fusion_enabled`],
//! [`engine::DsmsEngine::set_fusion`] / [`engine::DsmsEngine::with_fusion`],
//! and [`center::DsmsCenter::with_fusion`] (which also applies it to the
//! per-auction shadow calibration engines). Turning it off recovers one
//! physical node per logical operator; fused and unfused networks are
//! row-for-row equivalent (pinned by the `fused_network_equals_unfused`
//! property in `tests/property_dsms.rs`).
//!
//! ## Parallel execution: one walk per home shard
//!
//! The engine scales ingestion across cores without giving up replay
//! exactness. A **shard-count knob** sits next to the batch-size and
//! fusion knobs at every level — [`network::QueryNetwork::set_shards`],
//! [`engine::DsmsEngine::set_shards`] / [`engine::DsmsEngine::with_shards`],
//! [`center::DsmsCenter::with_shards`] (which also applies it to the
//! shadow calibration engines, like
//! [`center::DsmsCenter::with_shard_key`]). Shard count 1 — the default —
//! compiles down to the single-threaded path (which still carries the
//! filters' selection vectors through its per-node queues instead of
//! densifying at every hop); `n > 1` runs each flush in three phases:
//!
//! 1. **Partition.** There is **one parallel plan**
//!    ([`network::QueryNetwork::keyed_plan`]) and every registered stream
//!    is one of its roots. A root with a configured **shard key**
//!    ([`engine::DsmsEngine::set_shard_key`]) hash-partitions its batches
//!    row by row (deterministic FNV-1a, so equal keys always land on the
//!    same shard; rows carry their pre-partition index as a sequence
//!    tag); a root without one deals whole batches round-robin. That is
//!    the only thing a shard key changes — one membership rule decides
//!    what runs behind either kind of root: stateless single-input
//!    operators (filters, projections, fused chains) always; joins and
//!    aggregates **keyed compatibly with a tracked partition key** as
//!    *full* members — joins whose both sides are partitioned by their
//!    join keys, aggregates grouping by the key, with the key's column
//!    position tracked through filters, projections, and fused chains,
//!    so never behind a keyless root; and **exact** aggregates anywhere
//!    else behind members as *partial* members (below). Subscribers
//!    outside the plan — shard-incompatible operators and sinks — receive
//!    raw batches at flush time, exactly like the single-threaded engine.
//! 2. **One walk per home shard.** A home shard's units — its
//!    hash-partitioned shares and its round-robin batches — run as one
//!    **walk** in arrival order: a mini node loop over the plan that
//!    invokes each member through the same [`ops::Operator::process`] /
//!    [`ops::Operator::advance`] the control thread uses, only with
//!    `partition: Some(home)`. Stateful members address the home's
//!    **state partition** (equal keys share a home), close windows right
//!    after their queue drains against the flush's merged watermark, and
//!    absorb filtered input **through the selection vector** (no
//!    densify; counted by
//!    [`types::work::WorkSnapshot::selection_pushdown_rows`]). Partition
//!    `h` — partial members' partials included — is touched by home
//!    `h`'s walk only. One job per shard runs the walks (see *The
//!    handoff* below for where the jobs run): job `w` **claims** home `w`
//!    first, then any home still unclaimed in ascending seat offset, so a
//!    seat that wakes late loses its home to a job that is free instead
//!    of holding the flush up. Walks, walks of another job's home, and
//!    claims that found a home taken are counted
//!    ([`types::work::WorkSnapshot::morsels_executed`] /
//!    [`types::work::WorkSnapshot::morsels_stolen`] /
//!    [`types::work::WorkSnapshot::steal_misses`]); each job tries each
//!    home once, so a flush makes at most `shards × (shards − 1)` missed
//!    claims. A whole-batch unit lives on one shard, so everything
//!    downstream of it runs untraced and merges without tags.
//! 3. **Deterministic merge — past the stateful operators.** The merge
//!    barrier sits at the plan's *exits* (the first shard-incompatible
//!    node or sink), not in front of every join and aggregate. Exit
//!    outputs merge per `(producing node, entry path)`:
//!    row outputs interleave by sequence tag
//!    ([`types::TupleBatch::interleave_tagged`] — join fan-out repeats
//!    its probe row's tag, preserving shard-local partner order), and
//!    window closes merge their per-shard sorted runs by
//!    [`types::EmitKey`] `(window start, group)`. Merged batches dispatch
//!    in ascending order exactly when the control loop's pass reaches
//!    each producer, reproducing the single-threaded arrival interleaving
//!    at every out-of-plan queue.
//!
//! **Partial aggregation.** An ungrouped aggregate cannot be homed by key
//! (its single group spans every shard), and neither can a grouped
//! aggregate whose group key is *shard-incompatible* (grouping by a
//! column other than the partition key — or behind a keyless root, where
//! there is no partition key — so one group's rows land on many shards) —
//! but when the combine is **exact** (integer inputs via the
//! i128 accumulator; Count/Min/Max over anything —
//! [`ops::AggregateOp`]'s `combine_exact`), either shape joins the
//! plan as a **partial member**: each home's walk absorbs its rows into
//! the home's *own* partial accumulator — grouped members hash-accumulate
//! per group key within the home's partition (counted by
//! [`types::work::WorkSnapshot::grouped_partial_rows`]) — and the
//! control thread's watermark pass folds the per-home partials **in
//! deterministic partition order** at every window close, run-folding
//! equal group keys left-to-right
//! ([`types::work::WorkSnapshot::partial_groups_combined`]). Float
//! Sum/Avg stay behind the merge barrier (float addition does not
//! associate) — the determinism audit's `NL021` names any physical node
//! that claims partial membership with an order-sensitive combine. The
//! grouped/ungrouped equivalence properties pin both halves. A live
//! re-key ([`engine::DsmsEngine::set_shard_key`]) can move an aggregate
//! between partial and full membership in mid-window; the engine re-homes
//! operator state whenever it re-derives the plan
//! ([`ops::Operator::set_partitions`]), so each group's partials
//! meet in one partition before any per-partition close.
//!
//! **The handoff.** Job 0 of every flush runs on the control thread
//! itself, so the **persistent worker pool** holds `shards − 1` seats —
//! long-lived threads, spawned on the first parallel flush and parked
//! between flushes ([`types::work::WorkSnapshot::pool_spawns`] `==
//! shards − 1` stays flat after warmup). A pooled flush posts one job
//! per seat ([`types::work::WorkSnapshot::pool_wakeups`]), runs job 0,
//! and joins.
//! Both waiting sides — a seat for its next job, the control thread for a
//! seat's result — **spin for up to 1 ms before they park**, but only
//! while the flush's jobs do not outnumber the cores (`shards ≤
//! available_parallelism`): oversubscribed, a spinner would take the core
//! the thread it waits for needs, so both park at once. The guard counts
//! one flush's jobs, not every thread of the process — two sharded
//! engines side by side may spin on each other's cores, each for at most
//! 1 ms per handoff. A flush of fewer
//! than [`engine::INLINE_FLUSH_ROWS`] rows wakes nobody: every job runs
//! on the control thread in seat order — job 0 claims every home, the
//! rest find them taken — which a fixed row count decides, never a
//! timing, so every work counter stays a pure function of the input.
//! An injected worker death ([`fault::FaultPlan::with_worker_death`])
//! fires at job start, before the job claims anything; after the join
//! the control thread walks every home nobody claimed. A job on the
//! control thread dies exactly like a pool seat's, without a thread to
//! respawn.
//!
//! **State partitions = workers.** Keyed state is hash-partitioned into
//! exactly `shards` partitions, one per home shard. Cutting `k × shards`
//! partitions (more, smaller walks for claims to balance) was
//! measured at k = 2 and 4 and lost to k = 1 on `serve_keyed_stateful`:
//! every extra partition costs each flush another pass over the plan's
//! stateless members and another merge part, more than the balance gains.
//!
//! **One schedule.** Nothing about the schedule is configurable: every
//! plan runs one walk per home shard per flush, jobs claim whole homes
//! in ascending seat offset, the lane loops always run, and worker
//! threads are never pinned to cores. Claims are not optional: with pure
//! fork/join, where each job runs only its own home, the control thread
//! waits out a seat that wakes late instead of taking its home, and
//! `serve_keyed_stateful` lost 10 of 10 alternating pairs (676.7 k →
//! 641.0 k rows/s on a 2-vCPU box). The engine's callers set what they
//! genuinely differ in — shard count, shard keys, batch cap — and the
//! executor has one behaviour.
//!
//! **Determinism argument.** Hash partitioning sends every pair of rows a
//! keyed stateful operator must combine (equal join keys, equal group
//! keys) to the same *home* shard, and each flush runs **one walk per
//! partition, in arrival order**, against the same merged watermark.
//! Per-partition operator state therefore evolves exactly as the
//! single-threaded state restricted to that partition's keys, whichever
//! job runs the walk. Join outputs ordered by probe-row tag and window
//! closes ordered by the `(window start, group)` emission comparator
//! reassemble the exact single-threaded output sequences. Output
//! sequences are hence **bit-identical to the single-threaded engine
//! regardless of shard count or of which job walked which home** — pinned
//! by the `shard_count_invariance`, `keyed_stateful_shard_invariance`,
//! `ungrouped_aggregate_partials_match_single_threaded`, and
//! `grouped_partials_match_single_threaded` properties (stateless,
//! keyed-stateful, and grouped/ungrouped partial-aggregate plan shapes ×
//! batch caps 1/7/64/1024 × shard counts 1/2/4/8 × keyed, round-robin and
//! mixed partitioning, strict sequence equality), a 100-seed concurrency
//! soak, and a skewed-key soak in `tests/shard_exec.rs`.
//!
//! Per-job load is observable ([`engine::DsmsEngine::shard_stats`] —
//! executing-job attribution: a home's rows never split, so a hot home
//! shows on one job, and a job that claimed a late seat's home shows
//! two homes' rows; [`engine::StreamStats::shard_rows`] — home
//! placement; the `shard_batches` / `shard_merge_rows` /
//! `keyed_shard_rows` / walk work counters) and aggregates into the same
//! per-node totals
//! the measured cost model reads, so [`cost::CostModel::measured`] prices
//! a query's full multi-core load — including the keyed stateful fraction,
//! which now genuinely runs on the shards — and the admission auction
//! compares it against [`cost::effective_capacity`] — `shards × per-core
//! capacity`. That is still more than two shards deliver: on the 2-vCPU
//! reference box `serve_keyed_stateful` serves 0.88× at 2 shards what the
//! same flushes serve on one (1.23 M vs 1.39 M rows/s; 0.62× before the
//! handoff above). Pricing capacity from a measured factor changes
//! admissions and is left to a follow-on (ROADMAP direction 1(c)).
//!
//! ## Static verification
//!
//! Every plan is statically verified *before* it can mutate the shared
//! network. The [`diag`] module is the diagnostics framework: stable
//! `NL0xx` codes ([`diag::Code`]) with fixed severities, spans that point
//! into a plan (`$.input.left`-style paths), at a physical node, a query,
//! a stream, or the whole network ([`diag::Span`]), and an accumulating
//! [`diag::Report`] that renders human-readable text and machine-readable
//! JSON ([`diag::Report::to_json`]). [`diag::check_plan`] walks a
//! [`plan::LogicalPlan`] collecting *every* problem (not just the first),
//! and [`diag::check_shard_key`] validates partitioning keys.
//!
//! The verifier is load-bearing at three choke points:
//!
//! * [`network::QueryNetwork::add_query`] runs
//!   [`network::QueryNetwork::verify_plan`] and refuses to instantiate any
//!   plan with an error-severity diagnostic — the first error maps back to
//!   the exact [`plan::PlanError`] the legacy single-error path returned,
//!   so existing callers observe identical behavior.
//! * [`engine::DsmsEngine::set_shard_key`] validates the key against the
//!   stream schema and returns `Err` instead of debug-asserting later in
//!   the hash path.
//! * [`center::DsmsCenter::run_auction`] verifies each submitted plan
//!   before bidding; invalid bidders are rejected **pre-auction** with the
//!   full structured report in their decision
//!   (`center::Decision::rejection`) and never influence prices.
//!
//! Consequently every release-mode `debug_assert!(false, "… escaped …
//! validation")` site in [`ops`] is unreachable by construction; the
//! plan-mutation property suite in `cqac-analyze` injects each known
//! corruption and proves the analyzer fires first.
//!
//! Deeper whole-network passes — the determinism audit (an independent
//! re-derivation of the keyed-plan classification), cost-attribution
//! conservation, and sharing lints — live in the `cqac-analyze` crate
//! alongside the full diagnostic-code table and the `netlint` CLI that
//! gates CI with `--deny-warnings`.
//!
//! ## Robustness & failure semantics
//!
//! Admission is a promise the runtime keeps under failure and overload by
//! degrading **per query, never per process**:
//!
//! * **Panic quarantine.** Every operator kernel invocation — on the
//!   worker pool and on the control thread — runs under its own
//!   `catch_unwind` net. A panicking kernel loses only that invocation's
//!   outputs; the engine attributes the panic to the physical node,
//!   resolves the owning CQ set via shared-network bookkeeping
//!   ([`network::QueryNetwork::queries_owning`] — a shared node quarantines
//!   *all* of its co-owners, because each owner's plan contains the
//!   faulted node), and excises exactly those queries with the same
//!   `remove_query` + transition machinery the daily auction uses. Each
//!   quarantine is recorded as an [`engine::QuarantineEvent`] carrying a
//!   structured [`diag::Report`] (`NL060` operator panic at the node span,
//!   `NL061` per quarantined query, `NL062` for worker death) and counted
//!   by [`types::work::WorkSnapshot::quarantines`]. Every other query
//!   keeps serving: kernels are pure functions of per-invocation inputs
//!   plus per-node state, so a caught invocation cannot corrupt a
//!   *different* node's state, and surviving-CQ outputs stay bit-identical
//!   to a fault-free run (pinned per operator kind × shard count in
//!   `tests/fault_recovery.rs`). Worker threads
//!   survive kernel panics — `pool_spawns` stays flat — while an injected
//!   worker *death* is detected at job granularity: the dead job claims
//!   no home, another job or — after the join — the control thread walks
//!   every home it would have, and the pool respawns the seat before the
//!   next flush (a job that died on the
//!   control thread has no seat to respawn). [`center::DsmsCenter`]
//!   absorbs quarantines into the billing layer: the quarantined bidder's
//!   payment for the day is zeroed and the bidder sits out the next
//!   auction round (rejected pre-auction with the quarantine report).
//! * **Overload shedding.** [`engine::OverloadPolicy`] bounds how many
//!   rows one flush may ingest. When pending ingestion exceeds the
//!   budget, the engine sheds **whole batches, lowest-priority stream
//!   first** (priority = highest admitted bid reading the stream, wired
//!   by the center after each auction), so the highest-bid CQ keeps its
//!   admitted service while a flash crowd on a cheap stream degrades
//!   first. Shedding happens *before* partitioning, on arrival-ordered
//!   whole batches, so [`types::work::WorkSnapshot::rows_shed`] is
//!   deterministic and shard-count-invariant; per-stream losses surface
//!   in [`engine::StreamStats::rows_shed`] and as `NL063` warnings in
//!   [`engine::DsmsEngine::overload_report`].
//! * **Determinism under injected faults.** The [`fault`] harness
//!   triggers failures at *logical* points — the Nth kernel invocation of
//!   an operator kind, a poison row identified by content, a worker death
//!   at job start — never at wall-clock points, so every soak replays
//!   from its seed. Quarantine resolution runs after the flush/drain
//!   loop reaches quiescence and removes queries in ascending CQ order;
//!   shedding picks victims by `(priority, stream name)`; both are pure
//!   functions of the input sequence.
//!
//! ## Example: shared batched processing end to end
//!
//! ```
//! use cqac_dsms::engine::DsmsEngine;
//! use cqac_dsms::expr::Expr;
//! use cqac_dsms::plan::LogicalPlan;
//! use cqac_dsms::streams::{quote_schema, StockStream};
//! use cqac_dsms::types::Value;
//!
//! let mut engine = DsmsEngine::new().with_max_batch_size(256);
//! engine.register_stream("quotes", quote_schema());
//!
//! // Two users register the same selection: one physical operator runs.
//! let plan = LogicalPlan::source("quotes")
//!     .filter(Expr::col(1).gt(Expr::lit(Value::Float(100.0))));
//! let q1 = engine.add_query(plan.clone()).unwrap();
//! let q2 = engine.add_query(plan).unwrap();
//! assert_eq!(engine.network().num_nodes(), 1);
//!
//! // One-tuple `push` still works (it wraps the batched path)…
//! let mut feed = StockStream::new(&["IBM", "AAPL"], 1, 42);
//! engine.push_batch(feed.next_batch(100).into_iter().map(|t| ("quotes".into(), t)));
//! // …and whole-batch ingestion is the fast path.
//! engine.push_rows("quotes", feed.next_batch(100));
//! assert_eq!(engine.outputs(q1), engine.outputs(q2));
//! assert!(engine.batches_processed() < engine.tuples_processed());
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod center;
pub mod cost;
pub mod diag;
pub mod engine;
pub mod expr;
pub mod fault;
pub mod network;
pub mod ops;
pub mod plan;
pub mod streams;
pub mod types;

pub use center::{DsmsCenter, Submission};
pub use engine::DsmsEngine;
pub use fault::FaultPlan;
pub use network::{CqId, NodeId, QueryNetwork};
pub use plan::{AggFunc, LogicalPlan};
pub use types::{Column, DataType, Field, Schema, Tuple, TupleBatch, Value};
