//! Values, schemas, tuples, and columnar tuple batches — the data plane of
//! the DSMS substrate.
//!
//! The batch layout is **columnar**: a [`TupleBatch`] is a shared
//! `Arc<Schema>`, one event-timestamp vector, and one typed [`Column`] per
//! field (`Vec<bool>` / `Vec<i64>` / `Vec<f64>` / `Vec<Arc<str>>`). Kernels
//! dispatch on a column's type **once per batch** and then run tight typed
//! loops: filter is a selection pass over a typed column, project is a
//! column take/reorder, and fused chains thread a selection vector through
//! staged column kernels. The row-oriented [`Tuple`] survives at the
//! boundaries — ingestion accepts rows and converts
//! ([`TupleBatch::from_rows`], [`TupleBatch::push`]), and sinks materialize
//! rows on demand ([`TupleBatch::iter_rows`], [`TupleBatch::into_rows`]) —
//! so the public API of the engine is unchanged by the columnar layout.
//!
//! The [`work`] module counts machine-independent execution work (row
//! materializations, per-row expression evaluations, columnar kernel
//! passes, defensive batch copies) so benchmarks can compare execution
//! strategies deterministically on throttle-noisy hardware.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// The type of a column.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string (cheaply clonable).
    Str,
}

/// A runtime value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// Boolean.
    Bool(bool),
    /// Integer.
    Int(i64),
    /// Float.
    Float(f64),
    /// String.
    Str(Arc<str>),
}

impl Value {
    /// A string value from anything string-like.
    pub fn str(s: impl AsRef<str>) -> Self {
        Value::Str(Arc::from(s.as_ref()))
    }

    /// The value's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
        }
    }

    /// Boolean content, if the value is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Numeric content as f64 (ints widen), if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// Integer content, if the value is an integer.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    /// String content, if the value is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

/// A named, typed column.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Field {
    /// Column name.
    pub name: String,
    /// Column type.
    pub data_type: DataType,
}

impl Field {
    /// Creates a field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Self {
            name: name.into(),
            data_type,
        }
    }
}

/// An ordered list of fields.
#[derive(Clone, Debug, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Schema {
    /// The fields, in column order.
    pub fields: Vec<Field>,
}

impl Schema {
    /// Creates a schema from fields.
    pub fn new(fields: Vec<Field>) -> Self {
        Self { fields }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True when the schema has no columns.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Index of the column with the given name.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.fields.iter().position(|f| f.name == name)
    }

    /// The type of column `idx`.
    pub fn data_type(&self, idx: usize) -> DataType {
        self.fields[idx].data_type
    }

    /// Concatenates two schemas (for joins), prefixing duplicated names.
    pub fn join(&self, other: &Schema) -> Schema {
        let mut fields = self.fields.clone();
        for f in &other.fields {
            let name = if self.index_of(&f.name).is_some() {
                format!("right.{}", f.name)
            } else {
                f.name.clone()
            };
            fields.push(Field::new(name, f.data_type));
        }
        Schema::new(fields)
    }
}

/// A timestamped tuple. `ts` is event time in milliseconds; all engine
/// windowing is event-time based for deterministic replay.
///
/// With the columnar [`TupleBatch`] layout, `Tuple` is a *boundary* type:
/// ingestion converts rows into columns and sinks materialize rows back
/// out. Inside the engine, operators work on columns.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Tuple {
    /// Event timestamp (ms).
    pub ts: u64,
    /// Column values, aligned to the stream's [`Schema`].
    pub values: Vec<Value>,
}

impl Tuple {
    /// Creates a tuple.
    pub fn new(ts: u64, values: Vec<Value>) -> Self {
        Self { ts, values }
    }

    /// The value in column `idx`.
    pub fn value(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Validates the tuple against a schema.
    pub fn conforms_to(&self, schema: &Schema) -> bool {
        self.values.len() == schema.len()
            && self
                .values
                .iter()
                .zip(&schema.fields)
                .all(|(v, f)| v.data_type() == f.data_type)
    }
}

/// One typed column of a [`TupleBatch`]: a dense vector of values, all of
/// one [`DataType`].
///
/// Kernels match on the variant once per batch and then run over the typed
/// slice — no per-row [`Value`] enum dispatch, no per-row allocation.
///
/// String data has two physical layouts sharing one logical type
/// ([`DataType::Str`]): the plain [`Column::Str`] vector and the
/// dictionary-encoded [`Column::Dict`] form built at the ingestion and
/// merge boundaries for low-cardinality columns. The two compare equal
/// row-for-row ([`PartialEq`] is *logical*), so operators and tests may
/// freely mix them.
#[derive(Clone, Debug)]
pub enum Column {
    /// Boolean column.
    Bool(Vec<bool>),
    /// 64-bit integer column.
    Int(Vec<i64>),
    /// 64-bit float column.
    Float(Vec<f64>),
    /// String column (shared `Arc<str>` payloads, cheap to gather).
    Str(Vec<Arc<str>>),
    /// Dictionary-encoded string column: row `i` holds
    /// `dict[codes[i]]`. Equality predicates compare the `u32` codes,
    /// joins and group-bys translate each code to an interned key id
    /// through a per-dictionary table instead of hashing bytes per row,
    /// and gathers move codes and clone one `Arc`.
    ///
    /// The dictionary is **shared**: the engine keeps one append-only
    /// [`DictInterner`] per `(stream, string column)` for the life of the
    /// stream and seals every ingested batch against it
    /// ([`TupleBatch::seal_into`]), so a code means the same string in every
    /// batch of the stream and steady-state batches carry the *same* `Arc` —
    /// `take`/`split_off` clone the pointer, `append` and the shard merge
    /// compare it. A batch holds the snapshot that was current when it was
    /// sealed; growing the dictionary never touches a snapshot already
    /// handed out. A column that outgrows
    /// [`Column::DICT_MAX_CARDINALITY`] decays to [`Column::Str`] — for the
    /// rest of the stream's life (see [`DictInterner`]).
    ///
    /// Invariants: every code indexes into `dict`, and `dict` entries are
    /// distinct (so equal codes ⇔ equal strings).
    Dict {
        /// Per-row indexes into `dict`.
        codes: Vec<u32>,
        /// Distinct string payloads, in first-appearance order.
        dict: Arc<StrDict>,
    },
}

/// The FNV-1a hash the shard partitioner and the partitioned operator
/// state share — stable across runs and platforms, unlike the std hasher,
/// so shard assignment is replayable and a key's state partition always
/// matches the shard its rows hash to.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The dictionary of a [`Column::Dict`]: distinct strings in
/// first-appearance order (dereferences to the slice), plus what every
/// reader would otherwise recompute per batch — each entry's partitioner
/// hash and the codes of the lexicographic extremes.
#[derive(Clone, Debug, Default)]
pub struct StrDict {
    entries: Vec<Arc<str>>,
    /// `fnv1a` of each entry's bytes.
    hashes: Vec<u64>,
    /// Codes of the lexicographically smallest and largest entries
    /// (`(0, 0)` when empty) — range-predicate pruning metadata: a range
    /// predicate that rejects both extremes rejects every row of the batch
    /// without a per-row scan
    /// ([`work::WorkSnapshot::dict_batches_pruned`] counts those
    /// short-circuits).
    extremes: (u32, u32),
}

impl StrDict {
    /// Appends `s` (which must not be present) and returns its code.
    fn push(&mut self, s: Arc<str>) -> u32 {
        let code = self.entries.len() as u32;
        if code == 0 || *s < *self.entries[self.extremes.0 as usize] {
            self.extremes.0 = code;
        }
        if code == 0 || *s > *self.entries[self.extremes.1 as usize] {
            self.extremes.1 = code;
        }
        self.hashes.push(fnv1a(s.as_bytes()));
        self.entries.push(s);
        code
    }

    /// The partitioner hash of entry `code` (FNV-1a of its bytes, computed
    /// once per entry, not once per row or batch).
    pub(crate) fn hash(&self, code: usize) -> u64 {
        self.hashes[code]
    }
}

impl std::ops::Deref for StrDict {
    type Target = [Arc<str>];
    fn deref(&self) -> &[Arc<str>] {
        &self.entries
    }
}

impl FromIterator<Arc<str>> for StrDict {
    /// A dictionary of the given entries, which must be distinct.
    fn from_iter<I: IntoIterator<Item = Arc<str>>>(entries: I) -> Self {
        let mut dict = StrDict::default();
        for s in entries {
            dict.push(s);
        }
        dict
    }
}

/// Whether two dictionary handles hold the same entries (one pointer
/// compare for batches of one stream).
fn same_dict(a: &Arc<StrDict>, b: &Arc<StrDict>) -> bool {
    Arc::ptr_eq(a, b) || a.entries == b.entries
}

/// The writer of one append-only dictionary: a persistent
/// `string → code` index over the current [`StrDict`] snapshot. The engine
/// owns one per `(stream, string column)` for the life of the stream;
/// [`Column::dict_encode`] uses a throwaway one.
///
/// **Decay rule:** the batch that brings the
/// [`Column::DICT_MAX_CARDINALITY`]` + 1`-th distinct string, and every
/// later batch encoded here, stays [`Column::Str`]. Batches encoded earlier
/// keep their snapshots and stay valid wherever they are held.
#[derive(Debug, Default)]
pub struct DictInterner {
    codes: std::collections::HashMap<Arc<str>, u32>,
    dict: Arc<StrDict>,
    decayed: bool,
}

impl DictInterner {
    /// Encodes a plain string column against the dictionary, appending the
    /// strings it has not seen (first-appearance order, so the encoding is
    /// deterministic); any other column — or any column once the
    /// dictionary decayed — is returned unchanged. All per-row byte hashing
    /// happens here, once, instead of inside every downstream predicate.
    pub fn encode(&mut self, col: Column) -> Column {
        let Column::Str(v) = col else { return col };
        if self.decayed {
            return Column::Str(v);
        }
        let mut codes: Vec<u32> = Vec::with_capacity(v.len());
        for s in &v {
            let code = match self.codes.get(s) {
                Some(&code) => code,
                None if self.dict.len() >= Column::DICT_MAX_CARDINALITY => {
                    self.decayed = true;
                    self.codes = Default::default();
                    return Column::Str(v);
                }
                None => {
                    // Copy-on-write: batches sealed earlier keep the
                    // snapshot they were handed.
                    let code = Arc::make_mut(&mut self.dict).push(s.clone());
                    self.codes.insert(s.clone(), code);
                    code
                }
            };
            codes.push(code);
        }
        Column::Dict {
            codes,
            dict: self.dict.clone(),
        }
    }
}

impl Column {
    /// Cardinality bound for dictionary encoding: a string column whose
    /// distinct count exceeds this stays (or becomes) [`Column::Str`] —
    /// past it, per-row code indirection stops paying for itself.
    pub const DICT_MAX_CARDINALITY: usize = 256;
    /// An empty column of the given type with reserved capacity.
    pub fn with_capacity(data_type: DataType, capacity: usize) -> Column {
        match data_type {
            DataType::Bool => Column::Bool(Vec::with_capacity(capacity)),
            DataType::Int => Column::Int(Vec::with_capacity(capacity)),
            DataType::Float => Column::Float(Vec::with_capacity(capacity)),
            DataType::Str => Column::Str(Vec::with_capacity(capacity)),
        }
    }

    /// A column holding `n` copies of one value (scalar broadcast).
    ///
    /// A string broadcast is O(1) in the value: it becomes a dictionary
    /// column with a single entry and zeroed codes instead of `n` `Arc`
    /// refcount bumps.
    pub fn from_value(v: &Value, n: usize) -> Column {
        match v {
            Value::Bool(b) => Column::Bool(vec![*b; n]),
            Value::Int(i) => Column::Int(vec![*i; n]),
            Value::Float(f) => Column::Float(vec![*f; n]),
            Value::Str(s) => Column::Dict {
                codes: vec![0; n],
                dict: Arc::new(std::iter::once(s.clone()).collect()),
            },
        }
    }

    /// The column's data type.
    pub fn data_type(&self) -> DataType {
        match self {
            Column::Bool(_) => DataType::Bool,
            Column::Int(_) => DataType::Int,
            Column::Float(_) => DataType::Float,
            Column::Str(_) | Column::Dict { .. } => DataType::Str,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        match self {
            Column::Bool(v) => v.len(),
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
            Column::Dict { codes, .. } => codes.len(),
        }
    }

    /// True when the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one value.
    ///
    /// # Panics
    /// Panics when the value's type does not match the column — a columnar
    /// store cannot hold a mistyped cell, so this is a hard error rather
    /// than the row layout's debug-only check.
    pub fn push(&mut self, v: Value) {
        if let Column::Dict { codes, dict } = self {
            if let Value::Str(s) = v {
                // Intern: dictionaries stay small (bounded below), so a
                // linear probe beats hashing. A new string extends a
                // private copy of a shared dictionary; one that would push
                // it past its cardinality bound decodes the column back to
                // the plain layout first.
                if let Some(code) = dict.iter().position(|d| **d == *s) {
                    codes.push(code as u32);
                } else if dict.len() < Self::DICT_MAX_CARDINALITY {
                    codes.push(Arc::make_mut(dict).push(s));
                } else {
                    *self = self.decode_to_str();
                    self.push(Value::Str(s));
                }
                return;
            }
            panic!(
                "cannot push {:?} value into {:?} column",
                v.data_type(),
                DataType::Str
            );
        }
        match (self, v) {
            (Column::Bool(col), Value::Bool(b)) => col.push(b),
            (Column::Int(col), Value::Int(i)) => col.push(i),
            (Column::Float(col), Value::Float(f)) => col.push(f),
            (Column::Str(col), Value::Str(s)) => col.push(s),
            (col, v) => panic!(
                "cannot push {:?} value into {:?} column",
                v.data_type(),
                col.data_type()
            ),
        }
    }

    /// Materializes the value at row `i` (clones the cell; `Str` cells are
    /// `Arc`-shared, so this never copies string bytes).
    pub fn value(&self, i: usize) -> Value {
        match self {
            Column::Bool(v) => Value::Bool(v[i]),
            Column::Int(v) => Value::Int(v[i]),
            Column::Float(v) => Value::Float(v[i]),
            Column::Str(v) => Value::Str(v[i].clone()),
            Column::Dict { codes, dict, .. } => Value::Str(dict[codes[i] as usize].clone()),
        }
    }

    /// The rows as a `bool` slice, if this is a boolean column.
    pub fn as_bools(&self) -> Option<&[bool]> {
        match self {
            Column::Bool(v) => Some(v),
            _ => None,
        }
    }

    /// The rows as an `i64` slice, if this is an integer column.
    pub fn as_ints(&self) -> Option<&[i64]> {
        match self {
            Column::Int(v) => Some(v),
            _ => None,
        }
    }

    /// The rows as an `f64` slice, if this is a float column.
    pub fn as_floats(&self) -> Option<&[f64]> {
        match self {
            Column::Float(v) => Some(v),
            _ => None,
        }
    }

    /// The rows as an `Arc<str>` slice, if this is a **plain** string
    /// column ([`Column::Dict`] returns `None` — use [`Column::str_at`]
    /// or [`Column::as_dict`] for layout-agnostic access).
    pub fn as_strs(&self) -> Option<&[Arc<str>]> {
        match self {
            Column::Str(v) => Some(v),
            _ => None,
        }
    }

    /// The codes and dictionary, if this is a dictionary-encoded column.
    pub fn as_dict(&self) -> Option<(&[u32], &[Arc<str>])> {
        match self {
            Column::Dict { codes, dict, .. } => Some((codes, dict)),
            _ => None,
        }
    }

    /// The codes and the shared dictionary handle, if this is a
    /// dictionary-encoded column — for readers that cache per dictionary
    /// (pointer identity) or want its per-entry partitioner hashes.
    pub(crate) fn as_shared_dict(&self) -> Option<(&[u32], &Arc<StrDict>)> {
        match self {
            Column::Dict { codes, dict } => Some((codes, dict)),
            _ => None,
        }
    }

    /// Codes of the lexicographically smallest and largest dictionary
    /// entries, if this is a (non-empty) dictionary-encoded column.
    pub fn dict_extreme_codes(&self) -> Option<(u32, u32)> {
        match self {
            Column::Dict { dict, .. } if !dict.is_empty() => Some(dict.extremes),
            _ => None,
        }
    }

    /// The string payload at row `i` under either string layout; `None`
    /// for non-string columns.
    pub fn str_at(&self, i: usize) -> Option<&Arc<str>> {
        match self {
            Column::Str(v) => Some(&v[i]),
            Column::Dict { codes, dict, .. } => Some(&dict[codes[i] as usize]),
            _ => None,
        }
    }

    /// Dictionary-encodes a string column against a dictionary of its own
    /// when its distinct count fits [`Column::DICT_MAX_CARDINALITY`]; any
    /// other column (or a high-cardinality string column) is returned
    /// unchanged. See [`DictInterner::encode`].
    pub fn dict_encode(self) -> Column {
        DictInterner::default().encode(self)
    }

    /// Decodes a dictionary column back to the plain layout (cells stay
    /// `Arc`-shared with the dictionary — no byte copies). Non-dictionary
    /// columns are cloned as-is.
    fn decode_to_str(&self) -> Column {
        match self {
            Column::Dict { codes, dict, .. } => {
                Column::Str(codes.iter().map(|&c| dict[c as usize].clone()).collect())
            }
            other => other.clone(),
        }
    }

    /// Gathers the rows at the given indices into a new column (the
    /// selection-vector materialization kernel). Dictionary columns
    /// gather codes (4-byte moves) and share the dictionary by pointer.
    pub fn take(&self, sel: &[u32]) -> Column {
        match self {
            Column::Bool(v) => Column::Bool(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Int(v) => Column::Int(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Float(v) => Column::Float(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Str(v) => Column::Str(sel.iter().map(|&i| v[i as usize].clone()).collect()),
            Column::Dict { codes, dict } => Column::Dict {
                codes: sel.iter().map(|&i| codes[i as usize]).collect(),
                dict: dict.clone(),
            },
        }
    }

    /// Gathers one cell per `(column, row)` pair, from any number of
    /// source columns of one logical type, into a new plain column — the
    /// multi-source form of [`Column::take`] (the shard merge, the join's
    /// match output).
    ///
    /// # Panics
    /// Panics when a source column is not of type `data_type`.
    pub(crate) fn gather<'a>(
        data_type: DataType,
        cells: impl Iterator<Item = (&'a Column, usize)>,
    ) -> Column {
        let typed = "gathered cells must have the column's type";
        match data_type {
            DataType::Bool => {
                Column::Bool(cells.map(|(c, i)| c.as_bools().expect(typed)[i]).collect())
            }
            DataType::Int => {
                Column::Int(cells.map(|(c, i)| c.as_ints().expect(typed)[i]).collect())
            }
            DataType::Float => {
                Column::Float(cells.map(|(c, i)| c.as_floats().expect(typed)[i]).collect())
            }
            DataType::Str => Column::Str(
                cells
                    .map(|(c, i)| c.str_at(i).expect(typed).clone())
                    .collect(),
            ),
        }
    }

    /// Splits off the rows from index `at` onward (mirrors
    /// [`Vec::split_off`]). Both halves of a dictionary column keep the
    /// full dictionary.
    pub fn split_off(&mut self, at: usize) -> Column {
        match self {
            Column::Bool(v) => Column::Bool(v.split_off(at)),
            Column::Int(v) => Column::Int(v.split_off(at)),
            Column::Float(v) => Column::Float(v.split_off(at)),
            Column::Str(v) => Column::Str(v.split_off(at)),
            Column::Dict { codes, dict } => Column::Dict {
                codes: codes.split_off(at),
                dict: dict.clone(),
            },
        }
    }

    /// Appends all rows of `other` (must have the same logical type).
    /// String layouts mix freely: dictionary columns sharing one
    /// dictionary (the batches of one stream) append codes; otherwise the
    /// codes remap through a dictionary union (byte comparisons at
    /// dictionary granularity only), and a union that outgrows the
    /// cardinality bound falls back to the plain layout.
    pub fn append(&mut self, mut other: Column) {
        // Mixed or dictionary string layouts first (logical type Str).
        match (&mut *self, &mut other) {
            (
                Column::Dict { codes, dict },
                Column::Dict {
                    codes: ocodes,
                    dict: odict,
                },
            ) => {
                if same_dict(dict, odict) {
                    codes.append(ocodes);
                    return;
                }
                // Dictionary union: remap `other`'s codes into ours.
                let mut remap: Vec<u32> = Vec::with_capacity(odict.len());
                for s in odict.iter() {
                    match dict.iter().position(|d| d == s) {
                        Some(code) => remap.push(code as u32),
                        None => {
                            if dict.len() >= Self::DICT_MAX_CARDINALITY {
                                // Union too wide: fall back to plain.
                                let mut plain = self.decode_to_str();
                                plain.append(other.decode_to_str());
                                *self = plain;
                                return;
                            }
                            remap.push(Arc::make_mut(dict).push(s.clone()));
                        }
                    }
                }
                codes.extend(ocodes.iter().map(|&c| remap[c as usize]));
                return;
            }
            (Column::Dict { .. }, Column::Str(b)) => {
                for s in b.drain(..) {
                    self.push(Value::Str(s));
                }
                return;
            }
            (Column::Str(a), Column::Dict { codes, dict, .. }) => {
                a.extend(codes.iter().map(|&c| dict[c as usize].clone()));
                return;
            }
            _ => {}
        }
        match (self, &mut other) {
            (Column::Bool(a), Column::Bool(b)) => a.append(b),
            (Column::Int(a), Column::Int(b)) => a.append(b),
            (Column::Float(a), Column::Float(b)) => a.append(b),
            (Column::Str(a), Column::Str(b)) => a.append(b),
            (a, b) => panic!(
                "cannot append {:?} column to {:?} column",
                b.data_type(),
                a.data_type()
            ),
        }
    }
}

/// Logical row equality: the two string layouts ([`Column::Str`] and
/// [`Column::Dict`]) compare equal when they hold the same rows, so batch
/// equality is representation-independent. Same-layout columns compare
/// their vectors directly; dictionary pairs sharing an equal dictionary
/// compare codes.
impl PartialEq for Column {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Column::Bool(a), Column::Bool(b)) => a == b,
            (Column::Int(a), Column::Int(b)) => a == b,
            (Column::Float(a), Column::Float(b)) => a == b,
            (Column::Str(a), Column::Str(b)) => a == b,
            (
                Column::Dict { codes, dict, .. },
                Column::Dict {
                    codes: ocodes,
                    dict: odict,
                    ..
                },
            ) if same_dict(dict, odict) => codes == ocodes,
            (
                a @ (Column::Str(_) | Column::Dict { .. }),
                b @ (Column::Str(_) | Column::Dict { .. }),
            ) => {
                a.len() == b.len()
                    && (0..a.len()).all(|i| a.str_at(i).unwrap() == b.str_at(i).unwrap())
            }
            _ => false,
        }
    }
}

/// A batch of tuples sharing one schema — the unit of execution everywhere
/// in the engine (ingestion, operator processing, routing, sink delivery).
///
/// The layout is **columnar**: event timestamps and each field live in
/// their own typed vector (see [`Column`]), and the schema rides along
/// behind an [`Arc`] so producing a batch from an operator costs one
/// pointer clone. Rows keep their arrival order; all engine determinism
/// guarantees are stated over the concatenation of a stream's batches,
/// which is invariant under how the stream was chunked (tested property:
/// scalar vs. batched equivalence).
///
/// The row data itself is **copy-on-write**: the timestamp vector and the
/// column list sit behind their own [`Arc`]s, so `TupleBatch::clone` is a
/// pointer clone — `N` node consumers of one fan-out share the columns
/// instead of paying `N−1` deep copies. Column data is copied only when a
/// holder *mutates* a still-shared batch
/// ([`work::WorkSnapshot::batch_deep_clones`] counts exactly those
/// copies), which the engine's operators never do: readers read shared
/// columns, writers build fresh batches.
///
/// **Invariant** (checked by `debug_assert` in every constructor and
/// mutator): the timestamp vector and every column have the same length,
/// and column `i`'s type equals `schema.fields[i].data_type`.
#[derive(Clone, Debug, PartialEq)]
pub struct TupleBatch {
    schema: Arc<Schema>,
    ts: Arc<Vec<u64>>,
    columns: Arc<Vec<Column>>,
}

impl TupleBatch {
    /// Default cap on rows per batch used by the engine's ingestion paths.
    pub const DEFAULT_MAX_BATCH: usize = 1024;

    /// An empty batch over `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        Self::with_capacity(schema, 0)
    }

    /// An empty batch with row capacity reserved in every column.
    pub fn with_capacity(schema: Arc<Schema>, capacity: usize) -> Self {
        let columns = schema
            .fields
            .iter()
            .map(|f| Column::with_capacity(f.data_type, capacity))
            .collect();
        Self {
            schema,
            ts: Arc::new(Vec::with_capacity(capacity)),
            columns: Arc::new(columns),
        }
    }

    /// Mutable access to the timestamp vector — copy-on-write: still-shared
    /// timestamps are copied first (uncounted; the aligned
    /// [`TupleBatch::columns_mut`] call counts the batch copy once).
    fn ts_mut(&mut self) -> &mut Vec<u64> {
        Arc::make_mut(&mut self.ts)
    }

    /// Mutable access to the column list — copy-on-write: mutating a batch
    /// whose columns another holder still shares copies the column data
    /// first, counted by [`work::WorkSnapshot::batch_deep_clones`].
    fn columns_mut(&mut self) -> &mut Vec<Column> {
        if Arc::strong_count(&self.columns) > 1 {
            work::count_batch_deep_clone();
        }
        Arc::make_mut(&mut self.columns)
    }

    /// A batch from row-oriented tuples: each row's values are scattered
    /// into the typed columns and the batch is [sealed](TupleBatch::seal),
    /// so a batch built here already has the shape the engine's operators
    /// see.
    ///
    /// In debug builds every row is checked against the schema; release
    /// builds trust the caller up to the per-cell type check (a mistyped
    /// cell panics in [`Column::push`]).
    pub fn from_rows(schema: Arc<Schema>, rows: Vec<Tuple>) -> Self {
        debug_assert!(
            rows.iter().all(|t| t.conforms_to(&schema)),
            "batch rows must conform to the batch schema"
        );
        let mut batch = Self::with_capacity(schema, rows.len());
        for t in rows {
            batch.push(t);
        }
        batch.seal();
        batch
    }

    /// Seals the batch at the ingestion boundary: dictionary-encodes every
    /// plain [`Column::Str`] column once, so every downstream predicate
    /// compares `u32` codes and every key extraction resolves each distinct
    /// payload once. This form gives every column a dictionary of its own
    /// ([`TupleBatch::from_rows`] seals what it builds this way); the engine
    /// seals against its stream-lifetime dictionaries instead
    /// ([`TupleBatch::seal_into`]). A batch with no plain string column is
    /// left untouched; a column past [`Column::DICT_MAX_CARDINALITY`] stays
    /// plain.
    pub fn seal(&mut self) {
        let mut fresh: Vec<_> = self
            .columns
            .iter()
            .map(|_| DictInterner::default())
            .collect();
        self.seal_into(&mut fresh);
    }

    /// [`TupleBatch::seal`] against the caller's dictionaries, one per
    /// column (those of non-string columns are never touched): a probe into
    /// a persistent interner per row, and batches sealed against the same
    /// dictionaries share them by `Arc`. The engine seals every batch it
    /// hands from its ingestion buffer to a flush here — whichever `push*`
    /// call buffered the rows, operators see [`Column::Dict`] for
    /// low-cardinality strings, with codes that mean the same string for
    /// the life of the stream.
    pub fn seal_into(&mut self, dicts: &mut [DictInterner]) {
        if !self.columns.iter().any(|c| matches!(c, Column::Str(_))) {
            return;
        }
        for (col, dict) in self.columns_mut().iter_mut().zip(dicts) {
            if matches!(col, Column::Str(_)) {
                let plain = std::mem::replace(col, Column::Str(Vec::new()));
                *col = dict.encode(plain);
            }
        }
    }

    /// A batch directly from columnar parts (the kernel-output path).
    ///
    /// # Panics
    /// Debug builds panic when lengths or column types are inconsistent
    /// with `schema`.
    pub fn from_columns(schema: Arc<Schema>, ts: Vec<u64>, columns: Vec<Column>) -> Self {
        let batch = Self {
            schema,
            ts: Arc::new(ts),
            columns: Arc::new(columns),
        };
        batch.debug_check_invariants();
        batch
    }

    /// Asserts the length/type invariants in debug builds.
    fn debug_check_invariants(&self) {
        debug_assert_eq!(
            self.columns.len(),
            self.schema.len(),
            "one column per schema field"
        );
        debug_assert!(
            self.columns.iter().all(|c| c.len() == self.ts.len()),
            "every column must match the timestamp vector length"
        );
        debug_assert!(
            self.columns
                .iter()
                .zip(&self.schema.fields)
                .all(|(c, f)| c.data_type() == f.data_type),
            "column types must match the schema"
        );
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Re-owns the batch under another (structurally equal) schema handle —
    /// zero-copy: only the `Arc` pointer changes. Used by pass-through
    /// operators (filter fast path, union) so their outputs carry the
    /// operator's own schema handle.
    pub fn with_schema(mut self, schema: Arc<Schema>) -> Self {
        debug_assert!(
            schema
                .fields
                .iter()
                .zip(&self.schema.fields)
                .all(|(a, b)| a.data_type == b.data_type)
                && schema.len() == self.schema.len(),
            "re-owning schema must be type-compatible"
        );
        self.schema = schema;
        self
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.ts.len()
    }

    /// True when the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.ts.is_empty()
    }

    /// The event timestamps, in arrival order.
    pub fn ts(&self) -> &[u64] {
        &self.ts
    }

    /// The typed column at index `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// All columns, in schema order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Materializes row `i` as a [`Tuple`] (the row-view accessor for
    /// row-oriented consumers: joins, sinks, the per-row fallback kernels).
    pub fn row(&self, i: usize) -> Tuple {
        work::count_rows_materialized(1);
        Tuple::new(
            self.ts[i],
            self.columns.iter().map(|c| c.value(i)).collect(),
        )
    }

    /// Iterates over materialized rows, in arrival order.
    pub fn iter_rows(&self) -> impl Iterator<Item = Tuple> + '_ {
        (0..self.len()).map(|i| self.row(i))
    }

    /// Consumes the batch, materializing its rows. Column data still shared
    /// with another holder (COW) is read in place, never copied.
    pub fn into_rows(self) -> Vec<Tuple> {
        work::count_rows_materialized(self.len() as u64);
        let mut rows: Vec<Tuple> = self
            .ts
            .iter()
            .map(|&ts| Tuple::new(ts, Vec::with_capacity(self.columns.len())))
            .collect();
        let columns = match Arc::try_unwrap(self.columns) {
            Ok(owned) => owned,
            // Shared columns: materialize cell by cell (Str cells are
            // Arc-shared, so even this path never copies string bytes).
            Err(shared) => {
                for col in shared.iter() {
                    for (i, row) in rows.iter_mut().enumerate() {
                        row.values.push(col.value(i));
                    }
                }
                return rows;
            }
        };
        for col in columns {
            match col {
                Column::Bool(v) => {
                    for (row, b) in rows.iter_mut().zip(v) {
                        row.values.push(Value::Bool(b));
                    }
                }
                Column::Int(v) => {
                    for (row, i) in rows.iter_mut().zip(v) {
                        row.values.push(Value::Int(i));
                    }
                }
                Column::Float(v) => {
                    for (row, f) in rows.iter_mut().zip(v) {
                        row.values.push(Value::Float(f));
                    }
                }
                Column::Str(v) => {
                    for (row, s) in rows.iter_mut().zip(v) {
                        row.values.push(Value::Str(s));
                    }
                }
                Column::Dict { codes, dict, .. } => {
                    for (row, c) in rows.iter_mut().zip(codes) {
                        row.values.push(Value::Str(dict[c as usize].clone()));
                    }
                }
            }
        }
        rows
    }

    /// Appends one row, scattering its values into the columns.
    pub fn push(&mut self, tuple: Tuple) {
        debug_assert!(
            tuple.conforms_to(&self.schema),
            "row must conform to the batch schema"
        );
        self.ts_mut().push(tuple.ts);
        for (col, v) in self.columns_mut().iter_mut().zip(tuple.values) {
            col.push(v);
        }
    }

    /// Appends rows from an iterator.
    pub fn extend<I: IntoIterator<Item = Tuple>>(&mut self, rows: I) {
        for t in rows {
            self.push(t);
        }
        self.debug_check_invariants();
    }

    /// Gathers the rows at the given indices into a new batch sharing the
    /// same schema handle (the selection-vector materialization kernel).
    pub fn take(&self, sel: &[u32]) -> TupleBatch {
        debug_assert!(
            sel.iter().all(|&i| (i as usize) < self.len()),
            "selection indices must be in range"
        );
        TupleBatch {
            schema: self.schema.clone(),
            ts: Arc::new(sel.iter().map(|&i| self.ts[i as usize]).collect()),
            columns: Arc::new(self.columns.iter().map(|c| c.take(sel)).collect()),
        }
    }

    /// Splits off the rows from index `at` onward into a new batch sharing
    /// the same schema (mirrors [`Vec::split_off`]). Every column splits at
    /// the same index, preserving the alignment invariant.
    pub fn split_off(&mut self, at: usize) -> TupleBatch {
        debug_assert!(at <= self.len(), "split index out of range");
        let ts = Arc::new(self.ts_mut().split_off(at));
        let columns = Arc::new(
            self.columns_mut()
                .iter_mut()
                .map(|c| c.split_off(at))
                .collect(),
        );
        let tail = TupleBatch {
            schema: self.schema.clone(),
            ts,
            columns,
        };
        self.debug_check_invariants();
        tail.debug_check_invariants();
        tail
    }

    /// Appends all rows of `other` column-wise (must share a
    /// type-compatible schema).
    pub fn append(&mut self, other: TupleBatch) {
        debug_assert!(
            other
                .schema
                .fields
                .iter()
                .zip(&self.schema.fields)
                .all(|(a, b)| a.data_type == b.data_type)
                && other.schema.len() == self.schema.len(),
            "appended batch must be type-compatible"
        );
        self.ts_mut().extend(other.ts.iter().copied());
        let other_columns = match Arc::try_unwrap(other.columns) {
            Ok(owned) => owned,
            Err(shared) => (*shared).clone(),
        };
        for (a, b) in self.columns_mut().iter_mut().zip(other_columns) {
            a.append(b);
        }
        self.debug_check_invariants();
    }

    /// The largest event timestamp in the batch, if any.
    pub fn max_ts(&self) -> Option<u64> {
        self.ts.iter().copied().max()
    }

    /// Merges shard outputs back into one batch ordered by their merge
    /// tags — the deterministic merge of the shard-per-stream executor.
    ///
    /// Each part is an output batch plus, aligned with its rows, its merge
    /// tags. [`MergeTags::Rows`] are the row sequence numbers the rows
    /// carried before hash partitioning, so the merged batch holds every
    /// row of every part in the exact row order a single-threaded run
    /// would have produced. Tags may repeat *within* a part once the merge
    /// barrier moves past keyed stateful operators:
    ///
    /// * a **join** emits one output row per (probe row, partner) pair, so
    ///   several output rows of one shard share the probe row's sequence
    ///   tag (they stay in shard-local order, which is the single-threaded
    ///   partner order because equal keys live on one shard);
    /// * an **aggregate window close** emits rows ordered by
    ///   `(window start, group)` — the [`MergeTags::Emits`] keys — and the
    ///   per-shard sorted runs merge into exactly the global emission order
    ///   the single-threaded operator produces.
    ///
    /// Tags must be non-decreasing within each part and **disjoint across
    /// parts** (hash partitioning guarantees it: a probe row, like a group,
    /// lives on exactly one shard); ties across parts would make the order
    /// ill-defined and are a caller bug.
    ///
    /// The merge order is computed once, as the part each output row comes
    /// from — a part's rows keep their order, so that sequence places every
    /// row — and every column is gathered by it, moving cells out of the
    /// parts rather than cloning them. The merge is columnar (no row
    /// materialization); rows crossing a shard boundary are counted by
    /// [`work::WorkSnapshot::shard_merge_rows`].
    ///
    /// Returns `None` when every part is empty.
    ///
    /// # Panics
    /// Panics when parts disagree on column types. Debug builds also panic
    /// when a part's tags are not aligned with its rows or decrease, when
    /// parts mix tag kinds, or when tags collide across parts.
    pub fn interleave_tagged(parts: Vec<(TupleBatch, MergeTags)>) -> Option<TupleBatch> {
        debug_assert!(
            parts.iter().all(|(b, t)| b.len() == t.len()),
            "merge tags must align with part rows"
        );
        let (batches, tags): (Vec<TupleBatch>, Vec<MergeTags>) =
            parts.into_iter().filter(|(b, _)| !b.is_empty()).unzip();
        if batches.len() <= 1 {
            return batches.into_iter().next();
        }
        let from = match &tags[0] {
            MergeTags::Rows(_) => merge_runs(tags.iter().map(|t| match t {
                MergeTags::Rows(rows) => rows.as_slice(),
                MergeTags::Emits(_) => mixed_tags(),
            })),
            MergeTags::Emits(_) => merge_runs(tags.iter().map(|t| match t {
                MergeTags::Emits(keys) => keys.as_slice(),
                MergeTags::Rows(_) => mixed_tags(),
            })),
        };
        Some(Self::gather_parts(batches, &from))
    }

    /// Builds the merged batch: output row `k` is the next unread row of
    /// part `from[k]`. The parts are consumed, so string cells move instead
    /// of touching their reference counts (columns still shared elsewhere
    /// are cloned first). Rows crossing a shard boundary are counted by
    /// [`work::WorkSnapshot::shard_merge_rows`].
    fn gather_parts(parts: Vec<TupleBatch>, from: &[u32]) -> TupleBatch {
        work::count_shard_merge_rows(from.len() as u64);
        let schema = parts[0].schema.clone();
        debug_assert!(
            parts.iter().all(|b| {
                b.schema.len() == schema.len()
                    && b.schema
                        .fields
                        .iter()
                        .zip(&schema.fields)
                        .all(|(a, c)| a.data_type == c.data_type)
            }),
            "interleaved parts must be type-compatible"
        );
        let mut ts = Vec::with_capacity(parts.len());
        let mut columns: Vec<Vec<Column>> = schema.fields.iter().map(|_| Vec::new()).collect();
        for part in parts {
            ts.push(Arc::unwrap_or_clone(part.ts));
            for (c, col) in Arc::unwrap_or_clone(part.columns).into_iter().enumerate() {
                columns[c].push(col);
            }
        }
        let columns = columns
            .into_iter()
            .map(|parts| Column::interleave(parts, from))
            .collect();
        TupleBatch::from_columns(schema, interleave_parts(ts, from), columns)
    }
}

/// Merges sorted runs whose keys are disjoint across runs (keys may repeat
/// within one): the run each element of the merged order comes from —
/// `(key, run, index)` order, with one comparison per run per element
/// instead of a sort.
fn merge_runs<'a, K: Ord + 'a>(runs: impl Iterator<Item = &'a [K]>) -> Vec<u32> {
    let mut runs: Vec<&[K]> = runs.collect();
    debug_assert!(
        runs.iter().all(|r| r.windows(2).all(|w| w[0] <= w[1])),
        "per-part merge tags must be non-decreasing"
    );
    let total = runs.iter().map(|r| r.len()).sum();
    (0..total)
        .map(|_| {
            // `min_by_key` keeps the first of equal minima: the lower run.
            let (p, k) = runs
                .iter()
                .enumerate()
                .filter_map(|(p, r)| r.first().map(|k| (p, k)))
                .min_by_key(|&(_, k)| k)
                .expect("a run is left while elements are");
            debug_assert!(
                runs.iter()
                    .enumerate()
                    .all(|(q, r)| q == p || r.first() != Some(k)),
                "merge tags must be disjoint across parts"
            );
            runs[p] = &runs[p][1..];
            p as u32
        })
        .collect()
}

/// The empty tag run of a part whose tags are of the other kind — a
/// caller bug, asserted in debug builds (release builds drop the part).
fn mixed_tags<K>() -> &'static [K] {
    debug_assert!(false, "mixed merge-tag kinds in one merge group");
    &[]
}

/// Interleaves owned per-part vectors: element `k` is the next unread
/// element of part `from[k]`.
fn interleave_parts<T>(parts: impl IntoIterator<Item = Vec<T>>, from: &[u32]) -> Vec<T> {
    let mut parts: Vec<std::vec::IntoIter<T>> = parts.into_iter().map(Vec::into_iter).collect();
    from.iter()
        .map(|&p| {
            parts[p as usize]
                .next()
                .expect("one part row per merge slot")
        })
        .collect()
}

impl Column {
    /// One column of a merge (see [`TupleBatch::interleave_tagged`]): row
    /// `k` is the next unread cell of part `from[k]`. When every part
    /// carries the same dictionary — the common case, since shards split
    /// one ingestion batch and a stream's batches share one dictionary —
    /// the merge moves codes and shares the dictionary by pointer; any
    /// other string layout mix merges plain payloads.
    ///
    /// # Panics
    /// Panics when the parts do not share one logical type.
    fn interleave(parts: Vec<Column>, from: &[u32]) -> Column {
        let typed = "merged parts must share the column's type";
        macro_rules! merge {
            ($variant:ident) => {
                Column::$variant(interleave_parts(
                    parts.into_iter().map(|c| match c {
                        Column::$variant(v) => v,
                        _ => panic!("{typed}"),
                    }),
                    from,
                ))
            };
        }
        if let Column::Dict { dict, .. } = &parts[0] {
            let dict = dict.clone();
            if parts
                .iter()
                .all(|c| c.as_shared_dict().is_some_and(|(_, d)| same_dict(d, &dict)))
            {
                let codes = parts.into_iter().map(|c| match c {
                    Column::Dict { codes, .. } => codes,
                    _ => unreachable!("checked above"),
                });
                return Column::Dict {
                    codes: interleave_parts(codes, from),
                    dict,
                };
            }
        }
        match parts[0].data_type() {
            DataType::Bool => merge!(Bool),
            DataType::Int => merge!(Int),
            DataType::Float => merge!(Float),
            DataType::Str => Column::Str(interleave_parts(
                parts.into_iter().map(|c| match c {
                    Column::Str(v) => v,
                    Column::Dict { codes, dict } => {
                        codes.iter().map(|&c| dict[c as usize].clone()).collect()
                    }
                    _ => panic!("{typed}"),
                }),
                from,
            )),
        }
    }
}

/// The deterministic emission-order key of one window-close row:
/// `(window start, group-key debug rendering)` — exactly the comparator the
/// single-threaded aggregate sorts its closed windows by, so merging
/// per-shard sorted emission runs by `EmitKey` reproduces the global
/// single-threaded emission order bit for bit. The text is rendered once
/// per interned group, not once per `(window, group)`: every emission of a
/// group clones the one `Arc`.
pub type EmitKey = (u64, Arc<str>);

/// Per-row merge tags carried by shard outputs into the deterministic
/// merge (see [`TupleBatch::interleave_tagged`]).
#[derive(Clone, Debug)]
pub enum MergeTags {
    /// Pre-partition row sequence tags (hash-partitioned source rows and
    /// anything derived from them through stateless operators and join
    /// probes). Non-decreasing; duplicates mark join fan-out of one probe
    /// row.
    Rows(Vec<u32>),
    /// Window-close emission keys (aggregate outputs and anything derived
    /// from them). Non-decreasing within a part; disjoint across parts
    /// because a group lives on exactly one shard.
    Emits(Vec<EmitKey>),
}

impl MergeTags {
    /// Number of tagged rows.
    pub fn len(&self) -> usize {
        match self {
            MergeTags::Rows(v) => v.len(),
            MergeTags::Emits(v) => v.len(),
        }
    }

    /// True when no row is tagged.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Gathers the tags at `sel` (the survivor trace of a stateless or
    /// join kernel applied to the tagged batch; indices may repeat for
    /// join fan-out).
    pub fn take(&self, sel: &[u32]) -> MergeTags {
        match self {
            MergeTags::Rows(v) => MergeTags::Rows(sel.iter().map(|&i| v[i as usize]).collect()),
            MergeTags::Emits(v) => {
                MergeTags::Emits(sel.iter().map(|&i| v[i as usize].clone()).collect())
            }
        }
    }
}

/// Deterministic, machine-independent work counters for comparing
/// execution strategies.
///
/// Wall-clock timings on shared/throttled build machines are too noisy to
/// pin a perf win in CI, so the data plane counts the work that *dominates*
/// each strategy instead: per-row materializations and per-row expression
/// evaluations for the row-at-a-time path, per-batch kernel passes for the
/// columnar path, and defensive deep copies of shared batches for the
/// delivery fan-out. Counters are thread-local (the engine's control loop
/// is single-threaded), so parallel tests never interfere; the sharded
/// executor's worker threads count into their own thread-locals and the
/// engine folds each worker's [`work::snapshot`] back into the control
/// thread via [`work::absorb`] when the shards join, so totals stay deterministic regardless
/// of shard count.
///
/// Two grains: `rows_materialized`, `row_evals`, `dict_code_cmps`,
/// `str_cmps` and every `*_rows` counter are **per-row totals** — exactly
/// one unit per row touched (`dict_code_cmps`: one code read per keyed or
/// compared row), even where a kernel adds its batch's share in one step;
/// every other counter counts events (a batch, a home walk, a flush).
pub mod work {
    use std::cell::Cell;

    /// Declares every work counter exactly once. Each `field => count_fn(..)`
    /// entry becomes a [`WorkSnapshot`] field, a thread-local cell, its
    /// line in [`reset`] / [`snapshot`] / [`absorb`], and a crate-private
    /// `count_fn` that adds `n` (or 1 when the entry takes no argument).
    macro_rules! work_counters {
        ($($(#[$doc:meta])* $field:ident $(=> $count:ident($($n:ident)?))?;)*) => {
            /// A snapshot of the current thread's work counters.
            #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
            pub struct WorkSnapshot {
                $($(#[$doc])* pub $field: u64,)*
            }

            // One thread-local per counter, named after its field. (One
            // struct of cells in a single thread-local measurably shifted
            // the workers' row balance in the `hot_key_skew` bench.)
            #[allow(non_upper_case_globals)]
            mod cells {
                use std::cell::Cell;
                thread_local! {
                    $(pub(super) static $field: Cell<u64> = const { Cell::new(0) };)*
                }
            }

            /// Resets this thread's counters to zero.
            pub fn reset() {
                $(cells::$field.with(|c| c.set(0));)*
            }

            /// Reads this thread's counters.
            pub fn snapshot() -> WorkSnapshot {
                WorkSnapshot { $($field: cells::$field.with(Cell::get),)* }
            }

            /// Folds another thread's counters into this thread's — the
            /// shard-join path: each worker accumulates into its own
            /// thread-locals and the engine absorbs the workers' snapshots
            /// when they join, keeping the control thread's totals
            /// deterministic and shard-count independent.
            pub fn absorb(other: &WorkSnapshot) {
                $(cells::$field.with(|c| c.set(c.get() + other.$field));)*
            }

            $($(
                #[inline]
                pub(crate) fn $count($($n: u64)?) {
                    cells::$field.with(|c| c.set(c.get() + work_counters!(@step $($n)?)));
                }
            )?)*
        };
        (@step) => { 1 };
        (@step $n:ident) => { $n };
    }

    work_counters! {
        /// Rows materialized from columnar batches into [`super::Tuple`]s
        /// (row-fallback kernels, join state, sink delivery).
        rows_materialized => count_rows_materialized(n);
        /// Per-row expression-node evaluations (one per
        /// [`crate::expr::Expr`] node visited per row on the row path).
        row_evals => count_row_eval();
        /// Columnar kernel passes (one per expression node per *batch* on
        /// the columnar path).
        kernel_ops => count_kernel_op();
        /// Column-data copies forced by mutating a still-shared batch —
        /// the copy-on-write miss of the `Arc`-shared [`super::TupleBatch`]
        /// columns. Fan-out to any mix of node and sink consumers shares
        /// columns outright (readers never copy), so this stays 0 unless a
        /// holder *writes* into a batch another holder still shares.
        batch_deep_clones => count_batch_deep_clone();
        /// Sub-batches processed on shard worker threads (0 when the
        /// engine runs single-threaded).
        shard_batches => count_shard_batches(n);
        /// Rows gathered by the deterministic cross-shard merge
        /// ([`super::TupleBatch::interleave_tagged`]) — 0 for round-robin batch
        /// sharding, where every source batch stays whole on one shard.
        shard_merge_rows => count_shard_merge_rows(n);
        /// Rows absorbed by keyed **stateful** operators (joins,
        /// aggregates) *inside* shard workers — the work the merge barrier
        /// used to serialize on the control thread.
        keyed_shard_rows => count_keyed_shard_rows(n);
        /// Rows a stateful operator absorbed through a deferred selection
        /// vector instead of a densified (gathered) batch — each one an
        /// avoided row materialization.
        selection_pushdown_rows => count_pushdown_rows(n);
        /// Worker threads spawned by the persistent pool. After warmup
        /// (one spawn per shard after the first — job 0 of a flush runs on
        /// the control thread) this must stay flat: flushes reuse parked
        /// workers instead of spawning.
        pool_spawns => count_pool_spawn();
        /// Jobs dispatched to (and woken on) pooled workers — one per pool
        /// seat per pooled flush; a flush below
        /// [`crate::engine::INLINE_FLUSH_ROWS`] runs every job on the
        /// control thread and wakes none.
        pool_wakeups => count_pool_wakeup();
        /// Home walks of parallel flushes: one per home shard with units
        /// to absorb or windows to close, whichever job (or, after a
        /// worker death, the control thread) runs it.
        morsels_executed => count_morsel_executed();
        /// Home walks a job ran for another job's home — a home still
        /// unclaimed when the job finished its own, such as the home of a
        /// seat that woke late, or every home of an inline flush after
        /// the first.
        morsels_stolen => count_morsel_stolen();
        /// Claims of another job's home that found it taken (or with
        /// nothing to walk): at most `shards − 1` per job per flush.
        steal_misses => count_steal_miss();
        /// Rows dropped by the overload guardrail: whole ingestion batches
        /// shed, lowest-priority stream first, when a flush's pending rows
        /// exceed the configured ingress budget. Shedding runs *before*
        /// partitioning, so the count is shard-count invariant.
        rows_shed => count_rows_shed(n);
        /// Continuous queries quarantined after an operator panic (one per
        /// quarantined query, not per panic).
        quarantines => count_quarantine();
        /// Flushes in which the overload guardrail shed at least one
        /// batch.
        overload_flushes => count_overload_flush();
        /// Full fixed-width lanes processed by the unrolled compare/arith
        /// kernels (one per [`crate::expr`] lane of contiguous rows; tail
        /// rows and gather-indexed rows run scalar and are not counted).
        simd_lanes => count_simd_lanes(n);
        /// Per-row `u32` dictionary-code comparisons (string equality over
        /// [`super::Column::Dict`] columns) and per-row code → key-id
        /// lookups (joins/group-bys keyed off a dictionary column) — the
        /// work that *replaces* per-row string byte comparisons.
        dict_code_cmps => count_dict_code_cmps(n);
        /// Per-row string byte comparisons performed by the columnar
        /// kernels (plain [`super::Column::Str`] predicates, ordering
        /// comparisons on dictionary columns). The dictionary fast path
        /// keeps this at zero: byte comparisons happen only while
        /// building or remapping a dictionary, never per row.
        str_cmps => count_str_cmps(n);
        /// Always 0: the adaptive morsel controller that counted here is
        /// gone (each home shard runs as one walk). The field stays because
        /// the `auction-day` benchmark builds this struct by literal and
        /// reports `engine.adaptive_resizes`; a benchmark change drops it.
        adaptive_resizes;
        /// Always 0: every plan now runs one walk per home shard, so the
        /// chain-morsel fallback for order-sensitive plans that counted
        /// here is gone. The field stays because the `auction-day`
        /// benchmark builds this struct by literal and reports
        /// `engine.chain_morsels`; a benchmark change drops it.
        chain_morsels;
        /// Rows absorbed into per-home **grouped** hash partials of
        /// shard-incompatible exact aggregates — grouped work that used to
        /// serialize behind the merge barrier.
        grouped_partial_rows => count_grouped_partial_rows(n);
        /// Grouped per-home partial accumulators combined by the control
        /// thread's watermark pass (one per absorbed duplicate of a group
        /// key across partitions; ungrouped partial combines are not
        /// counted).
        partial_groups_combined => count_partial_groups_combined(n);
        /// Batches whose dictionary min/max metadata proved a range
        /// predicate matches no row, skipping the per-row scan entirely.
        dict_batches_pruned => count_dict_batch_pruned();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_accessors() {
        assert_eq!(Value::Int(3).as_f64(), Some(3.0));
        assert_eq!(Value::Float(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Bool(true).as_bool(), Some(true));
        assert_eq!(Value::str("abc").as_str(), Some("abc"));
        assert_eq!(Value::str("abc").data_type(), DataType::Str);
        assert_eq!(Value::Int(3).as_bool(), None);
    }

    #[test]
    fn schema_lookup_and_join() {
        let left = Schema::new(vec![
            Field::new("symbol", DataType::Str),
            Field::new("price", DataType::Float),
        ]);
        let right = Schema::new(vec![
            Field::new("symbol", DataType::Str),
            Field::new("headline", DataType::Str),
        ]);
        assert_eq!(left.index_of("price"), Some(1));
        assert_eq!(left.index_of("nope"), None);
        let joined = left.join(&right);
        assert_eq!(joined.len(), 4);
        assert_eq!(joined.fields[2].name, "right.symbol");
        assert_eq!(joined.fields[3].name, "headline");
    }

    #[test]
    fn tuple_conformance() {
        let schema = Schema::new(vec![
            Field::new("symbol", DataType::Str),
            Field::new("price", DataType::Float),
        ]);
        let good = Tuple::new(1, vec![Value::str("IBM"), Value::Float(120.0)]);
        let bad_type = Tuple::new(1, vec![Value::Float(120.0), Value::str("IBM")]);
        let bad_len = Tuple::new(1, vec![Value::str("IBM")]);
        assert!(good.conforms_to(&schema));
        assert!(!bad_type.conforms_to(&schema));
        assert!(!bad_len.conforms_to(&schema));
    }

    fn quote_batch(n: usize) -> TupleBatch {
        let schema = Arc::new(Schema::new(vec![
            Field::new("symbol", DataType::Str),
            Field::new("price", DataType::Float),
        ]));
        let rows = (0..n)
            .map(|i| {
                Tuple::new(
                    i as u64 * 10,
                    vec![Value::str("IBM"), Value::Float(i as f64)],
                )
            })
            .collect();
        TupleBatch::from_rows(schema, rows)
    }

    #[test]
    fn rows_round_trip_through_columns() {
        let batch = quote_batch(4);
        assert_eq!(batch.column(0).data_type(), DataType::Str);
        assert_eq!(batch.column(1).as_floats(), Some(&[0.0, 1.0, 2.0, 3.0][..]));
        let rows: Vec<Tuple> = batch.iter_rows().collect();
        assert_eq!(
            rows[2],
            Tuple::new(20, vec![Value::str("IBM"), Value::Float(2.0)])
        );
        assert_eq!(batch.row(3), rows[3]);
        assert_eq!(batch.clone().into_rows(), rows);
    }

    #[test]
    fn batch_split_off_partitions_rows_and_shares_schema() {
        let mut batch = quote_batch(5);
        let tail = batch.split_off(2);
        assert_eq!(batch.len(), 2);
        assert_eq!(tail.len(), 3);
        assert!(Arc::ptr_eq(batch.schema(), tail.schema()));
        assert_eq!(tail.row(0).ts, 20);
        assert_eq!(batch.max_ts(), Some(10));
        assert_eq!(tail.max_ts(), Some(40));
        // Both halves keep every column aligned with the timestamps.
        assert_eq!(batch.column(1).len(), batch.len());
        assert_eq!(tail.column(0).len(), tail.len());
    }

    #[test]
    fn batch_extend_and_append() {
        let mut batch = quote_batch(2);
        let extra = quote_batch(3);
        batch.extend(extra.clone().into_rows());
        assert_eq!(batch.len(), 5);
        assert!(!batch.is_empty());
        let ts: Vec<u64> = batch.iter_rows().map(|t| t.ts).collect();
        assert_eq!(ts, vec![0, 10, 0, 10, 20]);
        // Column-wise append gives the same result without materializing.
        let mut batch2 = quote_batch(2);
        batch2.append(extra);
        assert_eq!(batch2.ts(), &[0, 10, 0, 10, 20]);
    }

    #[test]
    fn take_gathers_selection() {
        let batch = quote_batch(5);
        let taken = batch.take(&[4, 0, 2]);
        assert_eq!(taken.ts(), &[40, 0, 20]);
        assert_eq!(taken.column(1).as_floats(), Some(&[4.0, 0.0, 2.0][..]));
        assert!(Arc::ptr_eq(batch.schema(), taken.schema()));
        assert!(batch.take(&[]).is_empty());
    }

    #[test]
    fn with_schema_reowns_without_copying_rows() {
        let batch = quote_batch(3);
        let other = Arc::new(Schema::new(vec![
            Field::new("sym", DataType::Str),
            Field::new("px", DataType::Float),
        ]));
        let reowned = batch.with_schema(other.clone());
        assert!(Arc::ptr_eq(reowned.schema(), &other));
        assert_eq!(reowned.len(), 3);
    }

    #[test]
    fn empty_batch_has_no_max_ts() {
        let schema = Arc::new(Schema::new(vec![Field::new("x", DataType::Int)]));
        let batch = TupleBatch::new(schema);
        assert!(batch.is_empty());
        assert_eq!(batch.max_ts(), None);
    }

    #[test]
    #[should_panic(expected = "cannot push")]
    fn mistyped_cell_is_rejected() {
        let mut col = Column::with_capacity(DataType::Int, 1);
        col.push(Value::Float(1.0));
    }

    #[test]
    fn interleave_restores_sequence_order_without_row_work() {
        // Split a batch's rows by parity (a 2-shard hash partition) and
        // re-merge: the result must be the original batch, produced
        // columnar (no row materialization).
        let batch = quote_batch(6);
        let even: Vec<u32> = vec![0, 2, 4];
        let odd: Vec<u32> = vec![1, 3, 5];
        let parts = vec![
            (batch.take(&even), MergeTags::Rows(even.clone())),
            (batch.take(&odd), MergeTags::Rows(odd.clone())),
        ];
        work::reset();
        let merged = TupleBatch::interleave_tagged(parts).unwrap();
        assert_eq!(merged.ts(), batch.ts());
        assert_eq!(merged.columns(), batch.columns());
        let snap = work::snapshot();
        assert_eq!(snap.rows_materialized, 0, "merge is columnar");
        assert_eq!(snap.shard_merge_rows, 6);
        // A single non-empty part passes through untouched and uncounted.
        work::reset();
        let single =
            TupleBatch::interleave_tagged(vec![(batch.take(&even), MergeTags::Rows(even))])
                .unwrap();
        assert_eq!(single.len(), 3);
        assert_eq!(work::snapshot().shard_merge_rows, 0);
        let empty = vec![(batch.take(&[]), MergeTags::Rows(Vec::new()))];
        assert!(TupleBatch::interleave_tagged(empty).is_none());
    }

    #[test]
    fn interleave_tagged_merges_duplicate_row_tags_stably() {
        // Join fan-out: one probe row (tag 1) produced two output rows on
        // shard 0; shard 1 contributed tags 0 and 2. The merged order is
        // tag-ascending with shard-local order preserved inside a tag.
        let schema = Arc::new(Schema::new(vec![Field::new("v", DataType::Int)]));
        let batch = |vals: Vec<i64>| {
            TupleBatch::from_columns(schema.clone(), vec![0; vals.len()], vec![Column::Int(vals)])
        };
        let merged = TupleBatch::interleave_tagged(vec![
            (batch(vec![10, 11]), MergeTags::Rows(vec![1, 1])),
            (batch(vec![20, 21]), MergeTags::Rows(vec![0, 2])),
        ])
        .unwrap();
        assert_eq!(merged.column(0).as_ints(), Some(&[20, 10, 11, 21][..]));
    }

    #[test]
    fn interleave_tagged_merges_emission_runs_by_emit_key() {
        let schema = Arc::new(Schema::new(vec![Field::new("v", DataType::Int)]));
        let batch = |vals: Vec<i64>| {
            TupleBatch::from_columns(schema.clone(), vec![0; vals.len()], vec![Column::Int(vals)])
        };
        // Two shards' sorted window-close runs: merge by (start, group).
        let merged = TupleBatch::interleave_tagged(vec![
            (
                batch(vec![1, 3]),
                MergeTags::Emits(vec![(0, "a".into()), (100, "a".into())]),
            ),
            (
                batch(vec![2, 4]),
                MergeTags::Emits(vec![(0, "b".into()), (100, "b".into())]),
            ),
        ])
        .unwrap();
        assert_eq!(merged.column(0).as_ints(), Some(&[1, 2, 3, 4][..]));
        // Single non-empty part passes through.
        let single = TupleBatch::interleave_tagged(vec![(
            batch(vec![7]),
            MergeTags::Emits(vec![(5, "x".into())]),
        )])
        .unwrap();
        assert_eq!(single.len(), 1);
        assert!(
            TupleBatch::interleave_tagged(vec![(batch(vec![]), MergeTags::Rows(vec![]))]).is_none()
        );
    }

    #[test]
    fn clone_shares_columns_and_mutation_copies_on_write() {
        let batch = quote_batch(4);
        work::reset();
        let mut cloned = batch.clone();
        assert_eq!(
            work::snapshot().batch_deep_clones,
            0,
            "clone is a pointer clone"
        );
        // Mutating the still-shared clone copies columns exactly once.
        cloned.push(Tuple::new(99, vec![Value::str("X"), Value::Float(9.0)]));
        assert_eq!(work::snapshot().batch_deep_clones, 1, "COW miss counted");
        assert_eq!(batch.len(), 4, "the original is untouched");
        assert_eq!(cloned.len(), 5);
        // Further mutation of the now-unshared clone is free.
        cloned.push(Tuple::new(100, vec![Value::str("Y"), Value::Float(1.0)]));
        assert_eq!(work::snapshot().batch_deep_clones, 1);
        work::reset();
    }

    #[test]
    fn work_absorb_folds_foreign_snapshots() {
        work::reset();
        let foreign = work::WorkSnapshot {
            rows_materialized: 2,
            row_evals: 3,
            kernel_ops: 5,
            batch_deep_clones: 7,
            shard_batches: 11,
            shard_merge_rows: 13,
            keyed_shard_rows: 17,
            selection_pushdown_rows: 19,
            pool_spawns: 23,
            pool_wakeups: 29,
            morsels_executed: 31,
            morsels_stolen: 37,
            steal_misses: 41,
            rows_shed: 43,
            quarantines: 47,
            overload_flushes: 53,
            simd_lanes: 59,
            dict_code_cmps: 61,
            str_cmps: 67,
            adaptive_resizes: 71,
            chain_morsels: 73,
            grouped_partial_rows: 79,
            partial_groups_combined: 83,
            dict_batches_pruned: 89,
        };
        work::absorb(&foreign);
        work::absorb(&foreign);
        let snap = work::snapshot();
        assert_eq!(snap.row_evals, 6);
        assert_eq!(snap.shard_batches, 22);
        assert_eq!(snap.shard_merge_rows, 26);
        assert_eq!(snap.keyed_shard_rows, 34);
        assert_eq!(snap.selection_pushdown_rows, 38);
        assert_eq!(snap.pool_spawns, 46);
        assert_eq!(snap.pool_wakeups, 58);
        assert_eq!(snap.morsels_executed, 62);
        assert_eq!(snap.morsels_stolen, 74);
        assert_eq!(snap.steal_misses, 82);
        assert_eq!(snap.rows_shed, 86);
        assert_eq!(snap.quarantines, 94);
        assert_eq!(snap.overload_flushes, 106);
        assert_eq!(snap.simd_lanes, 118);
        assert_eq!(snap.dict_code_cmps, 122);
        assert_eq!(snap.str_cmps, 134);
        assert_eq!(snap.adaptive_resizes, 142);
        assert_eq!(snap.chain_morsels, 146);
        assert_eq!(snap.grouped_partial_rows, 158);
        assert_eq!(snap.partial_groups_combined, 166);
        assert_eq!(snap.dict_batches_pruned, 178);
        work::reset();
    }

    #[test]
    fn work_counters_track_materialization() {
        work::reset();
        let batch = quote_batch(8);
        assert_eq!(work::snapshot().rows_materialized, 0, "building is free");
        let _ = batch.row(0);
        let _rows = batch.into_rows();
        assert_eq!(work::snapshot().rows_materialized, 9);
        work::reset();
        assert_eq!(work::snapshot(), work::WorkSnapshot::default());
    }

    fn str_col(vals: &[&str]) -> Column {
        Column::Str(vals.iter().map(|s| Arc::from(*s)).collect())
    }

    #[test]
    fn dict_encode_round_trips_and_respects_cardinality_cap() {
        let col = str_col(&["a", "b", "a", "c", "b", "a"]).dict_encode();
        let (codes, dict) = col.as_dict().expect("low cardinality encodes");
        assert_eq!(codes, &[0, 1, 0, 2, 1, 0], "first-appearance code order");
        assert_eq!(dict.len(), 3);
        for (i, want) in ["a", "b", "a", "c", "b", "a"].iter().enumerate() {
            assert_eq!(col.value(i), Value::str(*want));
            assert_eq!(col.str_at(i).map(AsRef::as_ref), Some(*want));
        }
        // More distinct values than the cap: stays a plain column.
        let many: Vec<String> = (0..Column::DICT_MAX_CARDINALITY + 1)
            .map(|i| format!("s{i}"))
            .collect();
        let many_refs: Vec<&str> = many.iter().map(String::as_str).collect();
        let plain = str_col(&many_refs).dict_encode();
        assert!(plain.as_dict().is_none(), "high cardinality stays plain");
        assert_eq!(plain.len(), Column::DICT_MAX_CARDINALITY + 1);
    }

    #[test]
    fn dict_column_equals_plain_column_with_same_rows() {
        // `PartialEq` is logical, not representational: the encoding is a
        // layout choice and must never affect equality-pinned tests.
        let plain = str_col(&["x", "y", "x"]);
        let dict = str_col(&["x", "y", "x"]).dict_encode();
        assert!(dict.as_dict().is_some());
        assert_eq!(dict, plain);
        assert_eq!(plain, dict);
        assert_ne!(dict, str_col(&["x", "y", "z"]));
        // Two dicts with different layouts but equal rows compare equal.
        let mut other = Column::Dict {
            codes: Vec::new(),
            dict: Arc::default(),
        };
        for s in ["x", "y", "x"] {
            other.push(Value::str(s));
        }
        assert_eq!(dict, other);
    }

    #[test]
    fn dict_push_interns_and_overflows_to_plain() {
        let mut col = str_col(&["a"]).dict_encode();
        col.push(Value::str("b"));
        col.push(Value::str("a"));
        let (codes, dict) = col.as_dict().expect("still dictionary");
        assert_eq!(codes, &[0, 1, 0]);
        assert_eq!(dict.len(), 2);
        // Pushing past the cardinality cap decays to a plain column with
        // identical rows.
        for i in 0..Column::DICT_MAX_CARDINALITY {
            col.push(Value::str(format!("overflow{i}")));
        }
        assert!(col.as_dict().is_none(), "overflow decays to plain");
        assert_eq!(col.value(0), Value::str("a"));
        assert_eq!(col.value(2), Value::str("a"));
        assert_eq!(col.len(), 3 + Column::DICT_MAX_CARDINALITY);
    }

    #[test]
    fn dict_take_split_append_preserve_rows() {
        let dict = str_col(&["a", "b", "c", "a", "b"]).dict_encode();
        // take: gathers codes, shares the dictionary.
        let taken = dict.take(&[4, 0, 2]);
        assert_eq!(taken, str_col(&["b", "a", "c"]));
        assert!(taken.as_dict().is_some());
        // split_off: both halves stay dictionary-encoded.
        let mut head = dict.clone();
        let tail = head.split_off(2);
        assert_eq!(head, str_col(&["a", "b"]));
        assert_eq!(tail, str_col(&["c", "a", "b"]));
        assert!(head.as_dict().is_some() && tail.as_dict().is_some());
        // append dict + dict with different dictionaries: remaps codes.
        let mut left = str_col(&["a", "b"]).dict_encode();
        let right = str_col(&["c", "b"]).dict_encode();
        left.append(right);
        assert_eq!(left, str_col(&["a", "b", "c", "b"]));
        assert!(left.as_dict().is_some(), "union stays encoded");
        // append dict + plain interns the plain cells.
        let mut mixed = str_col(&["a"]).dict_encode();
        mixed.append(str_col(&["b", "a"]));
        assert_eq!(mixed, str_col(&["a", "b", "a"]));
        // append plain + dict decodes the dictionary cells.
        let mut plain = str_col(&["a"]);
        plain.append(str_col(&["b"]).dict_encode());
        assert_eq!(plain, str_col(&["a", "b"]));
    }

    #[test]
    fn from_value_broadcasts_strings_through_one_dict_entry() {
        // A broadcast string column is one dictionary entry + zeroed
        // codes — O(1) `Arc` clones however many rows it spans.
        let col = Column::from_value(&Value::str("const"), 1000);
        let (codes, dict) = col.as_dict().expect("broadcast strings encode");
        assert_eq!(dict.len(), 1);
        assert!(codes.iter().all(|&c| c == 0));
        assert_eq!(col.value(999), Value::str("const"));
    }

    #[test]
    fn from_rows_dict_encodes_string_columns_at_ingestion() {
        let batch = quote_batch(4);
        assert!(
            batch.column(0).as_dict().is_some(),
            "ingestion dictionary-encodes string columns"
        );
        assert_eq!(batch.column(0).data_type(), DataType::Str);
        assert_eq!(batch.row(1).values[0], Value::str("IBM"));
    }

    #[test]
    fn interleave_merges_dict_parts_without_decoding() {
        // Two parts carved off the same encoded batch share a dictionary:
        // the merge gathers codes. The merged column must be bit-identical
        // to the source rows.
        let batch = quote_batch(6);
        let even: Vec<u32> = vec![0, 2, 4];
        let odd: Vec<u32> = vec![1, 3, 5];
        let parts = vec![
            (batch.take(&even), MergeTags::Rows(even.clone())),
            (batch.take(&odd), MergeTags::Rows(odd.clone())),
        ];
        let merged = TupleBatch::interleave_tagged(parts).unwrap();
        assert_eq!(merged.ts(), batch.ts());
        assert_eq!(merged.columns(), batch.columns());
        assert!(
            merged.column(0).as_dict().is_some(),
            "shared-dictionary parts merge as codes"
        );
        // Parts with disjoint dictionaries still merge to identical rows,
        // falling back to a plain column.
        let a = TupleBatch::from_rows(
            batch.schema().clone(),
            vec![Tuple::new(0, vec![Value::str("AAA"), Value::Float(0.0)])],
        );
        let b = TupleBatch::from_rows(
            batch.schema().clone(),
            vec![Tuple::new(1, vec![Value::str("BBB"), Value::Float(1.0)])],
        );
        let merged = TupleBatch::interleave_tagged(vec![
            (a, MergeTags::Rows(vec![0])),
            (b, MergeTags::Rows(vec![1])),
        ])
        .unwrap();
        assert_eq!(merged.row(0).values[0], Value::str("AAA"));
        assert_eq!(merged.row(1).values[0], Value::str("BBB"));
    }
}
