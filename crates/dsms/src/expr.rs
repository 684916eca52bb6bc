//! A small expression language for predicates and projections.
//!
//! Filters, projections, and join/aggregate keys are all data — not Rust
//! closures — so that two structurally identical operators submitted by
//! different users hash to the same **signature** and get shared in the
//! query network (the premise of the paper's operator sharing: "many of the
//! CQs are similar, but not identical").
//!
//! Expressions evaluate two ways:
//!
//! * **Columnar** ([`Expr::eval_columnar`], [`Expr::filter_indices`]) — the
//!   hot path: kernels dispatch on operand column types once per *batch*
//!   and run tight typed loops, carrying a per-row validity mask so that
//!   row-level evaluation errors (division by zero, NaN comparisons) keep
//!   the row layout's drop-the-row semantics bit for bit.
//! * **Per-row** ([`Expr::eval`], [`Expr::matches`]) — the reference
//!   fallback: a recursive walk over one [`Tuple`], retained for
//!   row-oriented consumers and as the oracle the columnar-vs-row
//!   equivalence property tests against.

use crate::types::{work, Column, DataType, Schema, Tuple, TupleBatch, Value};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::fmt;

/// Binary comparison operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// Binary arithmetic operators.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArithOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
}

/// An expression over one tuple.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum Expr {
    /// The value of column `i`.
    Col(usize),
    /// A literal.
    Lit(Value),
    /// Comparison of two sub-expressions.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// Arithmetic on two numeric sub-expressions (result: Float unless both
    /// Int).
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// Logical conjunction.
    And(Box<Expr>, Box<Expr>),
    /// Logical disjunction.
    Or(Box<Expr>, Box<Expr>),
    /// Logical negation.
    Not(Box<Expr>),
}

/// Errors from evaluation or type checking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ExprError {
    /// Column index out of range for the schema.
    UnknownColumn(usize),
    /// Operand types don't match the operator.
    TypeMismatch(String),
    /// Division by zero.
    DivisionByZero,
}

impl fmt::Display for ExprError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExprError::UnknownColumn(i) => write!(f, "unknown column {i}"),
            ExprError::TypeMismatch(m) => write!(f, "type mismatch: {m}"),
            ExprError::DivisionByZero => write!(f, "division by zero"),
        }
    }
}

impl std::error::Error for ExprError {}

impl Expr {
    /// Column reference helper.
    pub fn col(i: usize) -> Expr {
        Expr::Col(i)
    }

    /// Literal helper.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    /// `self <op> rhs` comparison helper.
    pub fn cmp(self, op: CmpOp, rhs: Expr) -> Expr {
        Expr::Cmp(op, Box::new(self), Box::new(rhs))
    }

    /// `self > rhs`.
    pub fn gt(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Gt, rhs)
    }

    /// `self >= rhs`.
    pub fn ge(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Ge, rhs)
    }

    /// `self < rhs`.
    pub fn lt(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Lt, rhs)
    }

    /// `self = rhs`.
    pub fn eq(self, rhs: Expr) -> Expr {
        self.cmp(CmpOp::Eq, rhs)
    }

    /// `self AND rhs`.
    pub fn and(self, rhs: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(rhs))
    }

    /// `self OR rhs`.
    pub fn or(self, rhs: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(rhs))
    }

    /// Infers the expression's result type against `schema`, validating
    /// column references and operand types.
    pub fn infer_type(&self, schema: &Schema) -> Result<DataType, ExprError> {
        match self {
            Expr::Col(i) => {
                if *i < schema.len() {
                    Ok(schema.data_type(*i))
                } else {
                    Err(ExprError::UnknownColumn(*i))
                }
            }
            Expr::Lit(v) => Ok(v.data_type()),
            Expr::Cmp(_, l, r) => {
                let lt = l.infer_type(schema)?;
                let rt = r.infer_type(schema)?;
                let comparable = lt == rt
                    || (matches!(lt, DataType::Int | DataType::Float)
                        && matches!(rt, DataType::Int | DataType::Float));
                if comparable {
                    Ok(DataType::Bool)
                } else {
                    Err(ExprError::TypeMismatch(format!(
                        "cannot compare {lt:?} with {rt:?}"
                    )))
                }
            }
            Expr::Arith(_, l, r) => {
                let lt = l.infer_type(schema)?;
                let rt = r.infer_type(schema)?;
                match (lt, rt) {
                    (DataType::Int, DataType::Int) => Ok(DataType::Int),
                    (DataType::Int | DataType::Float, DataType::Int | DataType::Float) => {
                        Ok(DataType::Float)
                    }
                    _ => Err(ExprError::TypeMismatch(format!(
                        "cannot do arithmetic on {lt:?} and {rt:?}"
                    ))),
                }
            }
            Expr::And(l, r) | Expr::Or(l, r) => {
                for side in [l, r] {
                    if side.infer_type(schema)? != DataType::Bool {
                        return Err(ExprError::TypeMismatch(
                            "logical operand must be boolean".into(),
                        ));
                    }
                }
                Ok(DataType::Bool)
            }
            Expr::Not(e) => {
                if e.infer_type(schema)? == DataType::Bool {
                    Ok(DataType::Bool)
                } else {
                    Err(ExprError::TypeMismatch(
                        "NOT operand must be boolean".into(),
                    ))
                }
            }
        }
    }

    /// Multi-diagnostic counterpart of [`Expr::infer_type`]: walks the
    /// whole expression, pushing **every** type error into `errors`
    /// instead of stopping at the first, and returns the result type when
    /// it is still known (best-effort recovery — a comparison with a bad
    /// operand is still known to be boolean, so downstream checks keep
    /// running).
    pub fn check_types(&self, schema: &Schema, errors: &mut Vec<ExprError>) -> Option<DataType> {
        match self {
            Expr::Col(i) => {
                if *i < schema.len() {
                    Some(schema.data_type(*i))
                } else {
                    errors.push(ExprError::UnknownColumn(*i));
                    None
                }
            }
            Expr::Lit(v) => Some(v.data_type()),
            Expr::Cmp(_, l, r) => {
                let lt = l.check_types(schema, errors);
                let rt = r.check_types(schema, errors);
                if let (Some(lt), Some(rt)) = (lt, rt) {
                    let comparable = lt == rt
                        || (matches!(lt, DataType::Int | DataType::Float)
                            && matches!(rt, DataType::Int | DataType::Float));
                    if !comparable {
                        errors.push(ExprError::TypeMismatch(format!(
                            "cannot compare {lt:?} with {rt:?}"
                        )));
                    }
                }
                Some(DataType::Bool)
            }
            Expr::Arith(_, l, r) => {
                let lt = l.check_types(schema, errors);
                let rt = r.check_types(schema, errors);
                match (lt?, rt?) {
                    (DataType::Int, DataType::Int) => Some(DataType::Int),
                    (DataType::Int | DataType::Float, DataType::Int | DataType::Float) => {
                        Some(DataType::Float)
                    }
                    (lt, rt) => {
                        errors.push(ExprError::TypeMismatch(format!(
                            "cannot do arithmetic on {lt:?} and {rt:?}"
                        )));
                        None
                    }
                }
            }
            Expr::And(l, r) | Expr::Or(l, r) => {
                for side in [l, r] {
                    if let Some(t) = side.check_types(schema, errors) {
                        if t != DataType::Bool {
                            errors.push(ExprError::TypeMismatch(
                                "logical operand must be boolean".into(),
                            ));
                        }
                    }
                }
                Some(DataType::Bool)
            }
            Expr::Not(e) => {
                if let Some(t) = e.check_types(schema, errors) {
                    if t != DataType::Bool {
                        errors.push(ExprError::TypeMismatch(
                            "NOT operand must be boolean".into(),
                        ));
                    }
                }
                Some(DataType::Bool)
            }
        }
    }

    /// Evaluates the expression on one tuple (the per-row fallback path;
    /// see the module docs).
    pub fn eval(&self, tuple: &Tuple) -> Result<Value, ExprError> {
        work::count_row_eval();
        match self {
            Expr::Col(i) => tuple
                .values
                .get(*i)
                .cloned()
                .ok_or(ExprError::UnknownColumn(*i)),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Cmp(op, l, r) => {
                let lv = l.eval(tuple)?;
                let rv = r.eval(tuple)?;
                compare(*op, &lv, &rv).map(Value::Bool)
            }
            Expr::Arith(op, l, r) => {
                let lv = l.eval(tuple)?;
                let rv = r.eval(tuple)?;
                arith(*op, &lv, &rv)
            }
            Expr::And(l, r) => {
                let lv = as_bool(&l.eval(tuple)?)?;
                if !lv {
                    return Ok(Value::Bool(false)); // short circuit
                }
                Ok(Value::Bool(as_bool(&r.eval(tuple)?)?))
            }
            Expr::Or(l, r) => {
                let lv = as_bool(&l.eval(tuple)?)?;
                if lv {
                    return Ok(Value::Bool(true));
                }
                Ok(Value::Bool(as_bool(&r.eval(tuple)?)?))
            }
            Expr::Not(e) => Ok(Value::Bool(!as_bool(&e.eval(tuple)?)?)),
        }
    }

    /// Evaluates a predicate, treating evaluation errors as `false` —
    /// streaming engines drop malformed tuples rather than halt the network.
    pub fn matches(&self, tuple: &Tuple) -> bool {
        matches!(self.eval(tuple), Ok(Value::Bool(true)))
    }

    /// True for expressions whose evaluation is a plain lookup or constant
    /// (`Col`, `Lit`) — the expressions cheap (and side-effect/error-free on
    /// schema-conforming tuples) enough that the operator-fusion pass may
    /// duplicate or reorder them freely during substitution.
    pub fn is_leaf(&self) -> bool {
        matches!(self, Expr::Col(_) | Expr::Lit(_))
    }

    /// The referenced column when the expression is a bare column
    /// reference — what keyed-shard planning uses to track a partition
    /// key's position through projections (any computed expression loses
    /// the key).
    pub fn as_col(&self) -> Option<usize> {
        match self {
            Expr::Col(i) => Some(*i),
            _ => None,
        }
    }

    /// Rewrites every column reference `Col(i)` to `cols[i]` — the
    /// substitution step of projection composition in the fusion pass:
    /// evaluating the result against a projection's *input* equals
    /// evaluating `self` against that projection's *output* when `cols` are
    /// the projection's defining expressions. Out-of-range references (which
    /// plan validation rejects before any operator is built) are left
    /// untouched.
    pub fn substitute_cols(&self, cols: &[Expr]) -> Expr {
        match self {
            Expr::Col(i) => cols.get(*i).cloned().unwrap_or(Expr::Col(*i)),
            Expr::Lit(v) => Expr::Lit(v.clone()),
            Expr::Cmp(op, l, r) => Expr::Cmp(
                *op,
                Box::new(l.substitute_cols(cols)),
                Box::new(r.substitute_cols(cols)),
            ),
            Expr::Arith(op, l, r) => Expr::Arith(
                *op,
                Box::new(l.substitute_cols(cols)),
                Box::new(r.substitute_cols(cols)),
            ),
            Expr::And(l, r) => Expr::And(
                Box::new(l.substitute_cols(cols)),
                Box::new(r.substitute_cols(cols)),
            ),
            Expr::Or(l, r) => Expr::Or(
                Box::new(l.substitute_cols(cols)),
                Box::new(r.substitute_cols(cols)),
            ),
            Expr::Not(e) => Expr::Not(Box::new(e.substitute_cols(cols))),
        }
    }
}

fn as_bool(v: &Value) -> Result<bool, ExprError> {
    v.as_bool()
        .ok_or_else(|| ExprError::TypeMismatch("expected boolean".into()))
}

fn compare(op: CmpOp, l: &Value, r: &Value) -> Result<bool, ExprError> {
    use std::cmp::Ordering;
    let ord: Ordering = match (l, r) {
        (Value::Str(a), Value::Str(b)) => a.cmp(b),
        (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
        (Value::Int(a), Value::Int(b)) => a.cmp(b),
        _ => {
            let (a, b) = (
                l.as_f64()
                    .ok_or_else(|| ExprError::TypeMismatch("non-numeric compare".into()))?,
                r.as_f64()
                    .ok_or_else(|| ExprError::TypeMismatch("non-numeric compare".into()))?,
            );
            a.partial_cmp(&b)
                .ok_or_else(|| ExprError::TypeMismatch("NaN in comparison".into()))?
        }
    };
    Ok(match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    })
}

fn arith(op: ArithOp, l: &Value, r: &Value) -> Result<Value, ExprError> {
    if let (Value::Int(a), Value::Int(b)) = (l, r) {
        return Ok(match op {
            ArithOp::Add => Value::Int(a.wrapping_add(*b)),
            ArithOp::Sub => Value::Int(a.wrapping_sub(*b)),
            ArithOp::Mul => Value::Int(a.wrapping_mul(*b)),
            ArithOp::Div => {
                if *b == 0 {
                    return Err(ExprError::DivisionByZero);
                }
                // Wrapping like the other ops: i64::MIN / -1 must not
                // panic the engine (it yields i64::MIN).
                Value::Int(a.wrapping_div(*b))
            }
        });
    }
    let a = l
        .as_f64()
        .ok_or_else(|| ExprError::TypeMismatch("non-numeric arithmetic".into()))?;
    let b = r
        .as_f64()
        .ok_or_else(|| ExprError::TypeMismatch("non-numeric arithmetic".into()))?;
    Ok(match op {
        ArithOp::Add => Value::Float(a + b),
        ArithOp::Sub => Value::Float(a - b),
        ArithOp::Mul => Value::Float(a * b),
        ArithOp::Div => {
            if b == 0.0 {
                return Err(ExprError::DivisionByZero);
            }
            Value::Float(a / b)
        }
    })
}

// ---------------------------------------------------------------------------
// Columnar evaluation
// ---------------------------------------------------------------------------

/// Per-row validity of a columnar evaluation result.
///
/// The row-oriented evaluator signals a row-level failure (division by
/// zero, NaN comparison, bad operand type) with an `Err` that the operator
/// turns into "drop this row" ([`Expr::matches`] → `false`, projections
/// skip the row). The columnar evaluator carries the same information as a
/// mask so one kernel pass can serve the whole batch.
#[derive(Clone, Debug, PartialEq)]
pub enum Validity {
    /// Every row evaluated successfully.
    AllValid,
    /// Every row failed (e.g. a statically ill-typed operand).
    NoneValid,
    /// Per-row mask: `mask[i]` is true when row `i` evaluated successfully.
    Mask(Vec<bool>),
}

impl Validity {
    /// True when row `i` is valid.
    pub fn is_valid(&self, i: usize) -> bool {
        match self {
            Validity::AllValid => true,
            Validity::NoneValid => false,
            Validity::Mask(m) => m[i],
        }
    }

    /// Conjunction of two validities over the same row set.
    pub fn and(self, other: Validity) -> Validity {
        match (self, other) {
            (Validity::AllValid, v) | (v, Validity::AllValid) => v,
            (Validity::NoneValid, _) | (_, Validity::NoneValid) => Validity::NoneValid,
            (Validity::Mask(mut a), Validity::Mask(b)) => {
                for (x, y) in a.iter_mut().zip(&b) {
                    *x = *x && *y;
                }
                Validity::Mask(a)
            }
        }
    }
}

/// The values of a columnar evaluation: one cell per selected row, a lazy
/// selection view over a batch column, or a scalar broadcast over all of
/// them (literals, constant sub-trees).
#[derive(Clone, Debug)]
pub enum ColumnarValues<'a> {
    /// One value per selected row (length = selection length).
    Column(Cow<'a, Column>),
    /// A selection view of a batch column: logical row `k` is row
    /// `sel[k]` of the column. Kernels read through the selection in
    /// place, so a filter chain refines selections without gathering; the
    /// view densifies only when a consumer needs a dense result
    /// ([`ColumnarValues::into_column`]).
    ColumnSel(&'a Column, &'a [u32]),
    /// One value standing for every selected row.
    Scalar(Value),
}

impl ColumnarValues<'_> {
    /// Densifies into an owned column of `n` rows (broadcasting scalars,
    /// gathering selection views).
    pub fn into_column(self, n: usize) -> Column {
        match self {
            ColumnarValues::Column(c) => {
                debug_assert_eq!(c.len(), n, "dense column length mismatch");
                c.into_owned()
            }
            ColumnarValues::ColumnSel(c, sel) => {
                debug_assert_eq!(sel.len(), n, "selection length mismatch");
                c.take(sel)
            }
            ColumnarValues::Scalar(v) => Column::from_value(&v, n),
        }
    }
}

/// Result of evaluating an expression over (a selection of) a batch.
#[derive(Clone, Debug)]
pub struct ColumnarEval<'a> {
    /// The per-row (or broadcast) values. Meaningful only where
    /// [`ColumnarEval::validity`] marks the row valid; invalid rows hold
    /// arbitrary placeholders.
    pub values: ColumnarValues<'a>,
    /// Which rows evaluated successfully.
    pub validity: Validity,
}

impl ColumnarEval<'static> {
    /// The "every row failed" result (placeholder values).
    fn all_invalid() -> ColumnarEval<'static> {
        ColumnarEval {
            values: ColumnarValues::Scalar(Value::Bool(false)),
            validity: Validity::NoneValid,
        }
    }
}

/// Width of the unrolled kernel loops: 8 × i64/f64 spans two AVX2 (or one
/// AVX-512) register, and the fixed trip count lets the optimizer turn the
/// chunk body into straight-line vector code.
const LANES: usize = 8;

/// Elementwise `f` over two equal-length slices, processing full
/// `LANES`-wide chunks with a fixed trip count (the SIMD shape) and the
/// sub-lane tail row by row.
fn lanes_zip<T: Copy, O>(x: &[T], y: &[T], f: impl Fn(T, T) -> O) -> Vec<O> {
    debug_assert_eq!(x.len(), y.len());
    work::count_simd_lanes((x.len() / LANES) as u64);
    let mut out = Vec::with_capacity(x.len());
    let mut xs = x.chunks_exact(LANES);
    let mut ys = y.chunks_exact(LANES);
    for (xc, yc) in (&mut xs).zip(&mut ys) {
        for (&a, &b) in xc.iter().zip(yc) {
            out.push(f(a, b));
        }
    }
    for (&a, &b) in xs.remainder().iter().zip(ys.remainder()) {
        out.push(f(a, b));
    }
    out
}

/// Unary twin of [`lanes_zip`].
fn lanes_map<T: Copy, O>(x: &[T], f: impl Fn(T) -> O) -> Vec<O> {
    work::count_simd_lanes((x.len() / LANES) as u64);
    let mut out = Vec::with_capacity(x.len());
    let mut xs = x.chunks_exact(LANES);
    for xc in &mut xs {
        for &a in xc {
            out.push(f(a));
        }
    }
    for &a in xs.remainder() {
        out.push(f(a));
    }
    out
}

/// A dense typed operand: a borrowed slice, a selection view over one, or
/// a broadcast constant. The shape is resolved when the operand is built,
/// so the per-row `get` is a three-way branch over monomorphic data — no
/// [`Value`] enum in the loop — and [`binary_map`] routes the contiguous
/// shapes through the lane loops.
#[derive(Clone, Copy)]
enum Operand<'a, T: Copy> {
    Slice(&'a [T]),
    /// Selection view: element `k` is `slice[sel[k]]`.
    Gather(&'a [T], &'a [u32]),
    Const(T),
}

impl<T: Copy> Operand<'_, T> {
    #[inline]
    fn get(&self, i: usize) -> T {
        match self {
            Operand::Slice(s) => s[i],
            Operand::Gather(s, sel) => s[sel[i] as usize],
            Operand::Const(c) => *c,
        }
    }
}

/// Applies a binary kernel over two typed operands: contiguous shapes run
/// the unrolled lane loops, gathered (selection-view) shapes run the
/// scalar reference loop — a filter over a selection refines it without
/// densifying first.
fn binary_map<T: Copy, O>(
    a: Operand<'_, T>,
    b: Operand<'_, T>,
    n: usize,
    f: impl Fn(T, T) -> O + Copy,
) -> Vec<O> {
    match (a, b) {
        (Operand::Slice(x), Operand::Slice(y)) => lanes_zip(&x[..n], &y[..n], f),
        (Operand::Slice(x), Operand::Const(c)) => lanes_map(&x[..n], move |v| f(v, c)),
        (Operand::Const(c), Operand::Slice(y)) => lanes_map(&y[..n], move |v| f(c, v)),
        (a, b) => (0..n).map(|i| f(a.get(i), b.get(i))).collect(),
    }
}

/// A numeric operand: typed slices (optionally through a selection) or a
/// broadcast constant — the mixed Int/Float comparison and arithmetic
/// paths widen through [`FloatSide`] once per batch, never per row.
#[derive(Clone, Copy)]
enum NumOperand<'a> {
    Ints(&'a [i64], Option<&'a [u32]>),
    Floats(&'a [f64], Option<&'a [u32]>),
    Const(f64),
}

/// A dense `f64` view of a numeric operand, plus whether it can hold NaN
/// (integer-sourced values never do, so the NaN invalidation scan is
/// skipped for them). Integer slices widen once through the lane loops (a
/// vectorizable cast); gathered views densify through their selection.
enum FloatSide<'a> {
    Borrowed(&'a [f64]),
    Owned(Vec<f64>),
    Const(f64),
}

impl<'a> FloatSide<'a> {
    fn of(v: NumOperand<'a>, n: usize) -> (FloatSide<'a>, bool) {
        match v {
            NumOperand::Floats(s, None) => (FloatSide::Borrowed(&s[..n]), true),
            NumOperand::Floats(s, Some(sel)) => (
                FloatSide::Owned(sel.iter().map(|&i| s[i as usize]).collect()),
                true,
            ),
            NumOperand::Ints(s, None) => {
                (FloatSide::Owned(lanes_map(&s[..n], |v| v as f64)), false)
            }
            NumOperand::Ints(s, Some(sel)) => (
                FloatSide::Owned(sel.iter().map(|&i| s[i as usize] as f64).collect()),
                false,
            ),
            NumOperand::Const(c) => (FloatSide::Const(c), c.is_nan()),
        }
    }

    fn as_operand(&self) -> Operand<'_, f64> {
        match self {
            FloatSide::Borrowed(s) => Operand::Slice(s),
            FloatSide::Owned(v) => Operand::Slice(v),
            FloatSide::Const(c) => Operand::Const(*c),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> f64 {
        match self {
            FloatSide::Borrowed(s) => s[i],
            FloatSide::Owned(v) => v[i],
            FloatSide::Const(c) => *c,
        }
    }
}

/// The logical row index behind an optional selection.
#[inline]
fn row_at(sel: Option<&[u32]>, k: usize) -> usize {
    sel.map_or(k, |s| s[k] as usize)
}

/// A string operand shape for the compare kernel: plain `Arc<str>` cells
/// and dictionary views keep their selection; constants broadcast.
#[derive(Clone, Copy)]
enum StrSide<'a> {
    /// Plain cells, optionally through a selection.
    Plain(&'a [std::sync::Arc<str>], Option<&'a [u32]>),
    /// Dictionary codes + dictionary, optionally through a selection.
    Dict {
        codes: &'a [u32],
        dict: &'a [std::sync::Arc<str>],
        sel: Option<&'a [u32]>,
        /// Codes of the lexicographically smallest/largest entries
        /// (`None` for an empty dictionary) — min/max pruning metadata.
        extremes: Option<(u32, u32)>,
    },
    /// A broadcast constant.
    Const(&'a str),
}

impl<'a> StrSide<'a> {
    fn of(v: &'a ColumnarValues<'_>) -> Option<StrSide<'a>> {
        let (col, sel) = match v {
            ColumnarValues::Column(c) => (c.as_ref(), None),
            ColumnarValues::ColumnSel(c, s) => (*c, Some(*s)),
            ColumnarValues::Scalar(Value::Str(s)) => return Some(StrSide::Const(s)),
            ColumnarValues::Scalar(_) => return None,
        };
        match col {
            Column::Str(s) => Some(StrSide::Plain(s, sel)),
            Column::Dict { codes, dict, .. } => Some(StrSide::Dict {
                codes,
                dict,
                sel,
                extremes: col.dict_extreme_codes(),
            }),
            _ => None,
        }
    }

    /// The cell at logical row `k`, decoded.
    #[inline]
    fn get(&self, k: usize) -> &str {
        match self {
            StrSide::Plain(s, sel) => &s[row_at(*sel, k)],
            StrSide::Dict {
                codes, dict, sel, ..
            } => &dict[codes[row_at(*sel, k)] as usize],
            StrSide::Const(c) => c,
        }
    }
}

fn int_operand<'a>(v: &'a ColumnarValues<'_>) -> Option<Operand<'a, i64>> {
    match v {
        ColumnarValues::Column(c) => c.as_ints().map(Operand::Slice),
        ColumnarValues::ColumnSel(c, s) => c.as_ints().map(|xs| Operand::Gather(xs, s)),
        ColumnarValues::Scalar(Value::Int(i)) => Some(Operand::Const(*i)),
        ColumnarValues::Scalar(_) => None,
    }
}

fn bool_operand<'a>(v: &'a ColumnarValues<'_>) -> Option<Operand<'a, bool>> {
    match v {
        ColumnarValues::Column(c) => c.as_bools().map(Operand::Slice),
        ColumnarValues::ColumnSel(c, s) => c.as_bools().map(|xs| Operand::Gather(xs, s)),
        ColumnarValues::Scalar(Value::Bool(b)) => Some(Operand::Const(*b)),
        ColumnarValues::Scalar(_) => None,
    }
}

fn num_operand<'a>(v: &'a ColumnarValues<'_>) -> Option<NumOperand<'a>> {
    let (col, sel) = match v {
        ColumnarValues::Column(c) => (c.as_ref(), None),
        ColumnarValues::ColumnSel(c, s) => (*c, Some(*s)),
        ColumnarValues::Scalar(s) => return s.as_f64().map(NumOperand::Const),
    };
    match col {
        Column::Int(s) => Some(NumOperand::Ints(s, sel)),
        Column::Float(s) => Some(NumOperand::Floats(s, sel)),
        _ => None,
    }
}

/// The ordering-to-bool test of a comparison operator (hoisted out of the
/// kernel loops).
#[inline]
fn cmp_test(op: CmpOp) -> fn(Ordering) -> bool {
    match op {
        CmpOp::Eq => |o| o == Ordering::Equal,
        CmpOp::Ne => |o| o != Ordering::Equal,
        CmpOp::Lt => |o| o == Ordering::Less,
        CmpOp::Le => |o| o != Ordering::Greater,
        CmpOp::Gt => |o| o == Ordering::Greater,
        CmpOp::Ge => |o| o != Ordering::Less,
    }
}

/// The direct `(T, T) -> bool` predicate of a comparison operator,
/// monomorphized per operator so the lane loops compare without routing
/// through [`Ordering`]. Agrees with `cmp_test(op)` ∘ `partial_cmp`
/// wherever the operands actually compare; NaN rows (which don't) are
/// invalidated separately by the numeric kernel, so their placeholder
/// value never matters.
fn cmp_pred<T: PartialOrd>(op: CmpOp) -> fn(T, T) -> bool {
    match op {
        CmpOp::Eq => |a, b| a == b,
        CmpOp::Ne => |a, b| a != b,
        CmpOp::Lt => |a, b| a < b,
        CmpOp::Le => |a, b| a <= b,
        CmpOp::Gt => |a, b| a > b,
        CmpOp::Ge => |a, b| a >= b,
    }
}

/// The wrapping kernel of an integer `Add`/`Sub`/`Mul` (`Div` needs the
/// per-row zero check and runs the scalar invalidating loop).
fn int_arith_fn(op: ArithOp) -> fn(i64, i64) -> i64 {
    match op {
        ArithOp::Add => i64::wrapping_add,
        ArithOp::Sub => i64::wrapping_sub,
        ArithOp::Mul => i64::wrapping_mul,
        ArithOp::Div => unreachable!("integer division runs the scalar invalidating loop"),
    }
}

/// The kernel of a float `Add`/`Sub`/`Mul` (`Div` needs the per-row zero
/// check and runs the scalar invalidating loop).
fn float_arith_fn(op: ArithOp) -> fn(f64, f64) -> f64 {
    match op {
        ArithOp::Add => |a, b| a + b,
        ArithOp::Sub => |a, b| a - b,
        ArithOp::Mul => |a, b| a * b,
        ArithOp::Div => unreachable!("float division runs the scalar invalidating loop"),
    }
}

/// Per-row dictionary-code lookup into a per-entry verdict table (the
/// dictionary fast path's inner loop: one u32 load + one table load per
/// row, no string bytes).
fn dict_lookup(codes: &[u32], sel: Option<&[u32]>, pass: &[bool], n: usize) -> Vec<bool> {
    work::count_dict_code_cmps(n as u64);
    match sel {
        None => lanes_map(&codes[..n], |c| pass[c as usize]),
        Some(s) => s
            .iter()
            .map(|&i| pass[codes[i as usize] as usize])
            .collect(),
    }
}

/// Min/max pruning for a dictionary-vs-constant compare: decides the
/// whole batch's verdict from the dictionary's lexicographic extremes
/// alone, when they prove it.
///
/// `ord_of(d)` is the ordering fed to `test` for entry `d` (operand order
/// matters for the flipped const-vs-dict arm). Because `d.cmp(c)` is
/// monotone in `d` (and `c.cmp(d)` antitone), every entry's ordering lies
/// in the inclusive interval spanned by the two extreme entries'
/// orderings; when `test` is constant over that interval the whole batch
/// shares one verdict — no per-entry table, no per-row scan. Returns
/// `None` when the extremes don't decide (or the dictionary is empty).
fn dict_extremes_prune(
    extremes: Option<(u32, u32)>,
    dict: &[std::sync::Arc<str>],
    test: fn(Ordering) -> bool,
    ord_of: impl Fn(&str) -> Ordering,
) -> Option<bool> {
    let (lo, hi) = extremes?;
    let olo = ord_of(dict[lo as usize].as_ref());
    let ohi = ord_of(dict[hi as usize].as_ref());
    let span = if olo <= ohi { olo..=ohi } else { ohi..=olo };
    let mut verdicts = [Ordering::Less, Ordering::Equal, Ordering::Greater]
        .into_iter()
        .filter(|o| span.contains(o))
        .map(test);
    let first = verdicts.next()?;
    verdicts.all(|v| v == first).then_some(first)
}

/// Columnar string compare. Dictionary fast paths compare u32 codes per
/// row ([`work::WorkSnapshot::dict_code_cmps`]), touching string bytes
/// only at dictionary granularity; every other shape decodes and
/// byte-compares per row ([`work::WorkSnapshot::str_cmps`]).
fn str_cmp_columnar(op: CmpOp, a: &StrSide<'_>, b: &StrSide<'_>, n: usize) -> Vec<bool> {
    let test = cmp_test(op);
    match (a, b) {
        // Dict vs constant: min/max pruning first — a range predicate the
        // extremes already decide settles the batch with two byte
        // compares ([`work::WorkSnapshot::dict_batches_pruned`] counts
        // the all-false case). Otherwise one byte-compare verdict per
        // dictionary entry, then a per-row code lookup — this covers the
        // ordering operators too, not just equality.
        (
            StrSide::Dict {
                codes,
                dict,
                sel,
                extremes,
            },
            StrSide::Const(c),
        ) => {
            if let Some(all) = dict_extremes_prune(*extremes, dict, test, |d| d.cmp(*c)) {
                if !all {
                    work::count_dict_batch_pruned();
                }
                return vec![all; n];
            }
            let pass: Vec<bool> = dict.iter().map(|d| test(d.as_ref().cmp(*c))).collect();
            dict_lookup(codes, *sel, &pass, n)
        }
        (
            StrSide::Const(c),
            StrSide::Dict {
                codes,
                dict,
                sel,
                extremes,
            },
        ) => {
            if let Some(all) = dict_extremes_prune(*extremes, dict, test, |d| (*c).cmp(d)) {
                if !all {
                    work::count_dict_batch_pruned();
                }
                return vec![all; n];
            }
            let pass: Vec<bool> = dict.iter().map(|d| test((*c).cmp(d.as_ref()))).collect();
            dict_lookup(codes, *sel, &pass, n)
        }
        // Dict vs dict equality: remap the right dictionary into the left's
        // code space once (byte compares at dictionary granularity), then
        // compare codes per row. `u32::MAX` marks an entry absent from the
        // left dictionary — no code ever equals it.
        (
            StrSide::Dict {
                codes: ca,
                dict: da,
                sel: sa,
                ..
            },
            StrSide::Dict {
                codes: cb,
                dict: db,
                sel: sb,
                ..
            },
        ) if matches!(op, CmpOp::Eq | CmpOp::Ne) => {
            let eq = matches!(op, CmpOp::Eq);
            let remap: Vec<u32> = db
                .iter()
                .map(|d| {
                    da.iter()
                        .position(|e| e == d)
                        .map_or(u32::MAX, |p| p as u32)
                })
                .collect();
            work::count_dict_code_cmps(n as u64);
            match (sa, sb) {
                (None, None) => {
                    lanes_zip(&ca[..n], &cb[..n], |x, y| (x == remap[y as usize]) == eq)
                }
                (sa, sb) => (0..n)
                    .map(|k| {
                        let x = ca[row_at(*sa, k)];
                        let y = remap[cb[row_at(*sb, k)] as usize];
                        (x == y) == eq
                    })
                    .collect(),
            }
        }
        // Everything else — plain columns, dict ordering against another
        // column — decodes and byte-compares per row.
        _ => {
            work::count_str_cmps(n as u64);
            (0..n).map(|k| test(a.get(k).cmp(b.get(k)))).collect()
        }
    }
}

/// Marks row `i` invalid, materializing the lazily-all-valid mask.
fn invalidate(validity: &mut Validity, n: usize, i: usize) {
    if let Validity::Mask(m) = validity {
        m[i] = false;
        return;
    }
    debug_assert!(matches!(validity, Validity::AllValid));
    let mut m = vec![true; n];
    m[i] = false;
    *validity = Validity::Mask(m);
}

impl Expr {
    /// Evaluates the expression over `sel`'s rows of `batch` (`None` = all
    /// rows) with typed per-batch kernels — the columnar twin of
    /// [`Expr::eval`] applied to each selected row, with row-level errors
    /// reported through the result's [`Validity`] instead of `Err`.
    pub fn eval_columnar<'a>(
        &self,
        batch: &'a TupleBatch,
        sel: Option<&'a [u32]>,
    ) -> ColumnarEval<'a> {
        work::count_kernel_op();
        let n = sel.map_or(batch.len(), <[u32]>::len);
        match self {
            Expr::Col(i) => {
                if *i >= batch.schema().len() {
                    return ColumnarEval::all_invalid();
                }
                // A selected column stays a lazy view — kernels read
                // through the selection; nothing is gathered here.
                let values = match sel {
                    None => ColumnarValues::Column(Cow::Borrowed(batch.column(*i))),
                    Some(s) => ColumnarValues::ColumnSel(batch.column(*i), s),
                };
                ColumnarEval {
                    values,
                    validity: Validity::AllValid,
                }
            }
            Expr::Lit(v) => ColumnarEval {
                values: ColumnarValues::Scalar(v.clone()),
                validity: Validity::AllValid,
            },
            Expr::Cmp(op, l, r) => {
                let l = l.eval_columnar(batch, sel);
                let r = r.eval_columnar(batch, sel);
                cmp_columnar(*op, l, r, n)
            }
            Expr::Arith(op, l, r) => {
                let l = l.eval_columnar(batch, sel);
                let r = r.eval_columnar(batch, sel);
                arith_columnar(*op, l, r, n)
            }
            Expr::And(l, r) => logical_columnar(true, l, r, batch, sel, n),
            Expr::Or(l, r) => logical_columnar(false, l, r, batch, sel, n),
            Expr::Not(e) => {
                let inner = e.eval_columnar(batch, sel);
                if matches!(inner.validity, Validity::NoneValid) {
                    return ColumnarEval::all_invalid();
                }
                match bool_operand(&inner.values) {
                    None => ColumnarEval::all_invalid(),
                    Some(Operand::Const(b)) => ColumnarEval {
                        values: ColumnarValues::Scalar(Value::Bool(!b)),
                        validity: inner.validity,
                    },
                    Some(Operand::Slice(bs)) => ColumnarEval {
                        values: ColumnarValues::Column(Cow::Owned(Column::Bool(lanes_map(
                            &bs[..n],
                            |b| !b,
                        )))),
                        validity: inner.validity,
                    },
                    Some(op @ Operand::Gather(..)) => ColumnarEval {
                        values: ColumnarValues::Column(Cow::Owned(Column::Bool(
                            (0..n).map(|k| !op.get(k)).collect(),
                        ))),
                        validity: inner.validity,
                    },
                }
            }
        }
    }

    /// The selection kernel: indices (into `batch`) of the rows among
    /// `sel` (`None` = all rows) where the predicate evaluates to a valid
    /// `true` — exactly the rows [`Expr::matches`] keeps, computed in one
    /// columnar pass.
    pub fn filter_indices(&self, batch: &TupleBatch, sel: Option<&[u32]>) -> Vec<u32> {
        let n = sel.map_or(batch.len(), <[u32]>::len);
        let index = |k: usize| sel.map_or(k as u32, |s| s[k]);
        let ev = self.eval_columnar(batch, sel);
        if matches!(ev.validity, Validity::NoneValid) {
            return Vec::new();
        }
        match &ev.values {
            ColumnarValues::Scalar(Value::Bool(true)) => match &ev.validity {
                Validity::AllValid => (0..n).map(index).collect(),
                Validity::Mask(m) => (0..n).filter(|&k| m[k]).map(index).collect(),
                Validity::NoneValid => unreachable!("handled above"),
            },
            ColumnarValues::Scalar(_) => Vec::new(),
            ColumnarValues::Column(c) => match c.as_bools() {
                None => Vec::new(),
                Some(bs) => (0..n)
                    .filter(|&k| bs[k] && ev.validity.is_valid(k))
                    .map(index)
                    .collect(),
            },
            // A raw boolean column behind the selection (`Expr::Col` as
            // the whole predicate): read through the selection in place.
            ColumnarValues::ColumnSel(c, s) => match c.as_bools() {
                None => Vec::new(),
                Some(bs) => (0..n)
                    .filter(|&k| bs[s[k] as usize] && ev.validity.is_valid(k))
                    .map(index)
                    .collect(),
            },
        }
    }
}

/// Columnar comparison kernel.
fn cmp_columnar(
    op: CmpOp,
    l: ColumnarEval<'_>,
    r: ColumnarEval<'_>,
    n: usize,
) -> ColumnarEval<'static> {
    if matches!(l.validity, Validity::NoneValid) || matches!(r.validity, Validity::NoneValid) {
        return ColumnarEval::all_invalid();
    }
    // Constant-fold the scalar/scalar case through the per-row comparator.
    if let (ColumnarValues::Scalar(a), ColumnarValues::Scalar(b)) = (&l.values, &r.values) {
        return match compare(op, a, b) {
            Ok(v) => ColumnarEval {
                values: ColumnarValues::Scalar(Value::Bool(v)),
                validity: l.validity.and(r.validity),
            },
            Err(_) => ColumnarEval::all_invalid(),
        };
    }
    let mut validity = l.validity.and(r.validity);
    // Exact typed paths first (Int/Int must not round-trip through f64 —
    // `i64` values past 2^53 are not representable there and would
    // silently compare equal to their neighbours).
    let bools: Vec<bool> =
        if let (Some(a), Some(b)) = (int_operand(&l.values), int_operand(&r.values)) {
            binary_map(a, b, n, cmp_pred::<i64>(op))
        } else if let (Some(a), Some(b)) = (StrSide::of(&l.values), StrSide::of(&r.values)) {
            str_cmp_columnar(op, &a, &b, n)
        } else if let (Some(a), Some(b)) = (bool_operand(&l.values), bool_operand(&r.values)) {
            binary_map(a, b, n, cmp_pred::<bool>(op))
        } else if let (Some(a), Some(b)) = (num_operand(&l.values), num_operand(&r.values)) {
            // Genuinely mixed Int/Float: widen to f64 once per batch, lane
            // compare, then invalidate rows where a NaN made the pair
            // incomparable (their lane result is a placeholder).
            let (x, x_nan) = FloatSide::of(a, n);
            let (y, y_nan) = FloatSide::of(b, n);
            let bools = binary_map(x.as_operand(), y.as_operand(), n, cmp_pred::<f64>(op));
            if x_nan || y_nan {
                for i in 0..n {
                    if x.get(i).partial_cmp(&y.get(i)).is_none() {
                        invalidate(&mut validity, n, i);
                    }
                }
            }
            bools
        } else {
            return ColumnarEval::all_invalid();
        };
    ColumnarEval {
        values: ColumnarValues::Column(Cow::Owned(Column::Bool(bools))),
        validity,
    }
}

/// Columnar arithmetic kernel.
fn arith_columnar(
    op: ArithOp,
    l: ColumnarEval<'_>,
    r: ColumnarEval<'_>,
    n: usize,
) -> ColumnarEval<'static> {
    if matches!(l.validity, Validity::NoneValid) || matches!(r.validity, Validity::NoneValid) {
        return ColumnarEval::all_invalid();
    }
    if let (ColumnarValues::Scalar(a), ColumnarValues::Scalar(b)) = (&l.values, &r.values) {
        return match arith(op, a, b) {
            Ok(v) => ColumnarEval {
                values: ColumnarValues::Scalar(v),
                validity: l.validity.and(r.validity),
            },
            Err(_) => ColumnarEval::all_invalid(),
        };
    }
    let mut validity = l.validity.and(r.validity);
    if let (Some(a), Some(b)) = (int_operand(&l.values), int_operand(&r.values)) {
        // Exact integer arithmetic (wrapping, like the per-row path).
        let ints: Vec<i64> = if matches!(op, ArithOp::Div) {
            // Division needs the per-row zero check: a zero divisor
            // invalidates the row (wrapping otherwise — i64::MIN / -1
            // yields i64::MIN instead of panicking).
            (0..n)
                .map(|i| {
                    let (x, y) = (a.get(i), b.get(i));
                    if y == 0 {
                        invalidate(&mut validity, n, i);
                        0
                    } else {
                        x.wrapping_div(y)
                    }
                })
                .collect()
        } else {
            binary_map(a, b, n, int_arith_fn(op))
        };
        return ColumnarEval {
            values: ColumnarValues::Column(Cow::Owned(Column::Int(ints))),
            validity,
        };
    }
    let (Some(a), Some(b)) = (num_operand(&l.values), num_operand(&r.values)) else {
        return ColumnarEval::all_invalid();
    };
    let (x, _) = FloatSide::of(a, n);
    let (y, _) = FloatSide::of(b, n);
    let floats: Vec<f64> = if matches!(op, ArithOp::Div) {
        (0..n)
            .map(|i| {
                let d = y.get(i);
                if d == 0.0 {
                    invalidate(&mut validity, n, i);
                    0.0
                } else {
                    x.get(i) / d
                }
            })
            .collect()
    } else {
        binary_map(x.as_operand(), y.as_operand(), n, float_arith_fn(op))
    };
    ColumnarEval {
        values: ColumnarValues::Column(Cow::Owned(Column::Float(floats))),
        validity,
    }
}

/// Columnar `AND`/`OR` kernel, reproducing the per-row short-circuit
/// semantics exactly: the right side's failure (or value) only matters on
/// rows where the left side did not already decide the outcome.
fn logical_columnar<'a>(
    is_and: bool,
    l: &Expr,
    r: &Expr,
    batch: &'a TupleBatch,
    sel: Option<&'a [u32]>,
    n: usize,
) -> ColumnarEval<'a> {
    let lhs = l.eval_columnar(batch, sel);
    if matches!(lhs.validity, Validity::NoneValid) {
        return ColumnarEval::all_invalid();
    }
    let Some(lvals) = bool_operand(&lhs.values) else {
        return ColumnarEval::all_invalid();
    };
    // `AND` is decided by a false left side, `OR` by a true one.
    let decides = !is_and;
    if let (Operand::Const(b), Validity::AllValid) = (&lvals, &lhs.validity) {
        if *b == decides {
            // Every row short-circuits; the right side is never evaluated.
            return ColumnarEval {
                values: ColumnarValues::Scalar(Value::Bool(decides)),
                validity: Validity::AllValid,
            };
        }
        // The left side never decides: the result is the right side,
        // coerced to boolean.
        let rhs = r.eval_columnar(batch, sel);
        if matches!(rhs.validity, Validity::NoneValid) || bool_operand(&rhs.values).is_none() {
            return ColumnarEval::all_invalid();
        }
        return ColumnarEval {
            values: rhs.values,
            validity: rhs.validity,
        };
    }
    // Mixed rows: evaluate the right side once and combine per row. A
    // right side that fails (wholly or per row) only invalidates rows the
    // left side did not decide.
    let rhs = r.eval_columnar(batch, sel);
    let rvals = bool_operand(&rhs.values);
    let mut out = vec![false; n];
    let mut valid = vec![false; n];
    for i in 0..n {
        if !lhs.validity.is_valid(i) {
            continue; // left failed → row fails
        }
        let lv = lvals.get(i);
        if lv == decides {
            out[i] = decides;
            valid[i] = true;
            continue; // short-circuit: right side irrelevant
        }
        match (&rvals, &rhs.validity) {
            (Some(rv), validity) if validity.is_valid(i) => {
                out[i] = rv.get(i);
                valid[i] = true;
            }
            _ => {} // right failed on a row the left did not decide
        }
    }
    let validity = if valid.iter().all(|v| *v) {
        Validity::AllValid
    } else if valid.iter().any(|v| *v) {
        Validity::Mask(valid)
    } else {
        Validity::NoneValid
    };
    ColumnarEval {
        values: ColumnarValues::Column(Cow::Owned(Column::Bool(out))),
        validity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Field;

    fn quote_schema() -> Schema {
        Schema::new(vec![
            Field::new("symbol", DataType::Str),
            Field::new("price", DataType::Float),
            Field::new("volume", DataType::Int),
        ])
    }

    fn quote(sym: &str, price: f64, volume: i64) -> Tuple {
        Tuple::new(
            0,
            vec![Value::str(sym), Value::Float(price), Value::Int(volume)],
        )
    }

    #[test]
    fn high_value_transaction_predicate() {
        // The paper's intro example: select high value transactions.
        let pred = Expr::col(1)
            .gt(Expr::lit(Value::Float(100.0)))
            .and(Expr::col(2).ge(Expr::lit(Value::Int(1000))));
        assert!(pred.matches(&quote("IBM", 120.0, 5000)));
        assert!(!pred.matches(&quote("IBM", 90.0, 5000)));
        assert!(!pred.matches(&quote("IBM", 120.0, 10)));
        assert_eq!(pred.infer_type(&quote_schema()), Ok(DataType::Bool));
    }

    #[test]
    fn mixed_numeric_compare() {
        let pred = Expr::col(2).gt(Expr::lit(Value::Float(10.5)));
        assert!(pred.matches(&quote("A", 0.0, 11)));
        assert!(!pred.matches(&quote("A", 0.0, 10)));
    }

    #[test]
    fn string_equality() {
        let pred = Expr::col(0).eq(Expr::lit(Value::str("IBM")));
        assert!(pred.matches(&quote("IBM", 1.0, 1)));
        assert!(!pred.matches(&quote("AAPL", 1.0, 1)));
    }

    #[test]
    fn arithmetic_and_types() {
        let notional = Expr::Arith(ArithOp::Mul, Box::new(Expr::col(1)), Box::new(Expr::col(2)));
        assert_eq!(notional.infer_type(&quote_schema()), Ok(DataType::Float));
        let v = notional.eval(&quote("A", 2.0, 10)).unwrap();
        assert_eq!(v, Value::Float(20.0));
        let int_sum = Expr::Arith(
            ArithOp::Add,
            Box::new(Expr::col(2)),
            Box::new(Expr::lit(Value::Int(1))),
        );
        assert_eq!(int_sum.infer_type(&quote_schema()), Ok(DataType::Int));
    }

    #[test]
    fn int_min_div_neg_one_wraps_instead_of_panicking() {
        // i64::MIN / -1 overflows i64; both evaluation paths must wrap
        // (like Add/Sub/Mul) rather than abort the engine.
        let e = Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::col(2)),
            Box::new(Expr::lit(Value::Int(-1))),
        );
        let row = quote("A", 0.0, i64::MIN);
        assert_eq!(e.eval(&row), Ok(Value::Int(i64::MIN)));
        let batch =
            crate::types::TupleBatch::from_rows(std::sync::Arc::new(quote_schema()), vec![row]);
        let ev = e.eval_columnar(&batch, None);
        assert!(matches!(ev.validity, Validity::AllValid));
        let col = ev.values.into_column(1);
        assert_eq!(col.as_ints(), Some(&[i64::MIN][..]));
    }

    #[test]
    fn division_by_zero_is_an_error() {
        let e = Expr::Arith(
            ArithOp::Div,
            Box::new(Expr::lit(Value::Int(1))),
            Box::new(Expr::lit(Value::Int(0))),
        );
        assert_eq!(e.eval(&quote("A", 0.0, 0)), Err(ExprError::DivisionByZero));
    }

    #[test]
    fn type_errors_are_caught_statically() {
        let bad = Expr::col(0).gt(Expr::lit(Value::Int(3)));
        assert!(bad.infer_type(&quote_schema()).is_err());
        let bad_col = Expr::col(9);
        assert_eq!(
            bad_col.infer_type(&quote_schema()),
            Err(ExprError::UnknownColumn(9))
        );
    }

    #[test]
    fn matches_swallows_runtime_errors() {
        let bad = Expr::col(9).gt(Expr::lit(Value::Int(3)));
        assert!(!bad.matches(&quote("A", 0.0, 0)));
    }

    #[test]
    fn leaf_detection() {
        assert!(Expr::col(0).is_leaf());
        assert!(Expr::lit(Value::Int(1)).is_leaf());
        assert!(!Expr::col(0).eq(Expr::lit(Value::Int(1))).is_leaf());
    }

    #[test]
    fn substitution_equals_projection_composition() {
        // Projection output: (col1, "IBM"); predicate over that output.
        let projection = [Expr::col(1), Expr::lit(Value::str("IBM"))];
        let pred = Expr::col(0)
            .gt(Expr::lit(Value::Float(10.0)))
            .and(Expr::col(1).eq(Expr::lit(Value::str("IBM"))));
        let substituted = pred.substitute_cols(&projection);
        let input = quote("AAPL", 12.0, 7);
        let projected = Tuple::new(
            input.ts,
            projection.iter().map(|e| e.eval(&input).unwrap()).collect(),
        );
        assert_eq!(pred.matches(&projected), substituted.matches(&input));
        assert!(substituted.matches(&input));
        // Out-of-range references survive untouched (defensive; plan
        // validation rejects them before substitution can see them).
        assert_eq!(Expr::col(9).substitute_cols(&projection), Expr::col(9));
    }

    #[test]
    fn short_circuit_logic() {
        // Right side would error, but the left side decides.
        let e = Expr::lit(Value::Bool(false)).and(Expr::col(9).eq(Expr::lit(Value::Int(1))));
        assert_eq!(e.eval(&quote("A", 0.0, 0)), Ok(Value::Bool(false)));
        let e = Expr::lit(Value::Bool(true)).or(Expr::col(9).eq(Expr::lit(Value::Int(1))));
        assert_eq!(e.eval(&quote("A", 0.0, 0)), Ok(Value::Bool(true)));
    }

    fn sym_batch(syms: &[&str], vols: &[i64]) -> TupleBatch {
        let schema = Schema::new(vec![
            Field::new("symbol", DataType::Str),
            Field::new("volume", DataType::Int),
        ]);
        let rows = syms
            .iter()
            .zip(vols)
            .map(|(s, &v)| Tuple::new(0, vec![Value::str(*s), Value::Int(v)]))
            .collect();
        TupleBatch::from_rows(std::sync::Arc::new(schema), rows)
    }

    /// The row-path survivors of `pred` — the oracle every columnar filter
    /// result must equal.
    fn row_survivors(pred: &Expr, batch: &TupleBatch) -> Vec<u32> {
        (0..batch.len())
            .filter(|&i| pred.matches(&batch.row(i)))
            .map(|i| i as u32)
            .collect()
    }

    #[test]
    fn int_compare_is_exact_past_2_pow_53() {
        // 2^53 and 2^53 + 1 round to the same f64 — a compare path that
        // widens Int×Int through `as_f64` calls them equal. Both the row
        // path and the columnar kernels must compare i64 exactly.
        let big = 1i64 << 53;
        assert_eq!(
            compare(CmpOp::Eq, &Value::Int(big), &Value::Int(big + 1)),
            Ok(false)
        );
        assert_eq!(
            compare(CmpOp::Gt, &Value::Int(big + 1), &Value::Int(big)),
            Ok(true)
        );
        let batch = sym_batch(&["A", "B", "C"], &[big, big + 1, big - 1]);
        // col > 2^53: only the 2^53 + 1 row (under f64 widening, none).
        let gt = Expr::col(1).gt(Expr::lit(Value::Int(big)));
        assert_eq!(gt.filter_indices(&batch, None), vec![1]);
        assert_eq!(row_survivors(&gt, &batch), vec![1]);
        // col = 2^53 + 1: exactly one row (under f64 widening, two).
        let eq = Expr::col(1).eq(Expr::lit(Value::Int(big + 1)));
        assert_eq!(eq.filter_indices(&batch, None), vec![1]);
        assert_eq!(row_survivors(&eq, &batch), vec![1]);
        // The same exactness must hold through a selection view (the
        // scalar gather loop).
        let sel: Vec<u32> = vec![0, 1, 2];
        assert_eq!(gt.filter_indices(&batch, Some(&sel)), vec![1]);
        assert_eq!(eq.filter_indices(&batch, Some(&sel)), vec![1]);
    }

    #[test]
    fn mixed_int_float_still_widens() {
        // Genuinely mixed operands keep the f64 widening semantics.
        let batch = sym_batch(&["A", "B"], &[10, 11]);
        let pred = Expr::col(1).gt(Expr::lit(Value::Float(10.5)));
        assert_eq!(pred.filter_indices(&batch, None), vec![1]);
        assert_eq!(row_survivors(&pred, &batch), vec![1]);
    }

    #[test]
    fn dict_equality_compares_codes_not_bytes() {
        // `from_rows` dictionary-encodes the symbol column; an equality
        // predicate against a constant must run on u32 codes — zero
        // per-row string compares.
        let batch = sym_batch(&["IBM", "AAPL", "IBM", "MSFT", "IBM"], &[1, 2, 3, 4, 5]);
        assert!(
            batch.column(0).as_dict().is_some(),
            "ingestion dict-encodes"
        );
        let pred = Expr::col(0).eq(Expr::lit(Value::str("IBM")));
        let expect = row_survivors(&pred, &batch);
        work::reset();
        let got = pred.filter_indices(&batch, None);
        let snap = work::snapshot();
        assert_eq!(got, expect);
        assert_eq!(got, vec![0, 2, 4]);
        assert_eq!(snap.dict_code_cmps, 5, "one code lookup per row");
        assert_eq!(snap.str_cmps, 0, "no per-row string bytes touched");
        // Ordering operators ride the same per-dictionary-entry verdict
        // table.
        let ord = Expr::col(0).cmp(CmpOp::Lt, Expr::lit(Value::str("IBM")));
        let expect = row_survivors(&ord, &batch);
        work::reset();
        let got = ord.filter_indices(&batch, None);
        let snap = work::snapshot();
        assert_eq!(got, expect);
        assert_eq!(snap.str_cmps, 0);
        assert_eq!(snap.dict_code_cmps, 5);
    }

    #[test]
    fn dict_vs_dict_and_plain_agree() {
        let schema = std::sync::Arc::new(Schema::new(vec![
            Field::new("a", DataType::Str),
            Field::new("b", DataType::Str),
        ]));
        let rows: Vec<Tuple> = [("x", "x"), ("y", "z"), ("z", "z"), ("w", "x")]
            .iter()
            .map(|(a, b)| Tuple::new(0, vec![Value::str(*a), Value::str(*b)]))
            .collect();
        let dict_batch = TupleBatch::from_rows(schema.clone(), rows.clone());
        assert!(dict_batch.column(0).as_dict().is_some());
        let pred = Expr::col(0).eq(Expr::col(1));
        let expect = row_survivors(&pred, &dict_batch);
        work::reset();
        let got = pred.filter_indices(&dict_batch, None);
        let snap = work::snapshot();
        assert_eq!(got, expect);
        assert_eq!(got, vec![0, 2]);
        assert_eq!(snap.dict_code_cmps, 4, "dict×dict equality compares codes");
        assert_eq!(snap.str_cmps, 0);
        // The same predicate over plain `Str` columns produces the same
        // rows through the byte-compare fallback.
        let strs = |idx: usize| {
            Column::Str(
                rows.iter()
                    .map(|r| match &r.values[idx] {
                        Value::Str(s) => s.clone(),
                        _ => unreachable!("string schema"),
                    })
                    .collect(),
            )
        };
        let plain_batch =
            TupleBatch::from_columns(schema, vec![0; rows.len()], vec![strs(0), strs(1)]);
        work::reset();
        let got = pred.filter_indices(&plain_batch, None);
        let snap = work::snapshot();
        assert_eq!(got, expect);
        assert_eq!(snap.dict_code_cmps, 0);
        assert_eq!(snap.str_cmps, 4, "plain columns byte-compare per row");
    }

    #[test]
    fn nan_rows_drop_identically_on_all_paths() {
        let schema = std::sync::Arc::new(quote_schema());
        let rows = vec![
            quote("A", 1.0, 10),
            quote("B", f64::NAN, 11),
            quote("C", 3.0, 12),
            quote("D", f64::NAN, 13),
        ];
        let batch = TupleBatch::from_rows(schema, rows);
        // Mixed Int/Float compare with NaN rows: the row path errors (and
        // drops the row); the columnar kernels must invalidate exactly
        // those rows — contiguous and through a selection.
        let pred = Expr::col(1).cmp(CmpOp::Le, Expr::col(2));
        let expect = row_survivors(&pred, &batch);
        assert_eq!(expect, vec![0, 2]);
        assert_eq!(pred.filter_indices(&batch, None), expect);
        let sel: Vec<u32> = vec![0, 1, 2, 3];
        assert_eq!(pred.filter_indices(&batch, Some(&sel)), expect);
        // A NaN constant invalidates every row.
        let none = Expr::col(1).ge(Expr::lit(Value::Float(f64::NAN)));
        assert_eq!(none.filter_indices(&batch, None), Vec::<u32>::new());
        assert_eq!(row_survivors(&none, &batch), Vec::<u32>::new());
    }

    #[test]
    fn lane_loops_are_bit_identical_to_the_scalar_gather_loop() {
        let vols: Vec<i64> = (0..100).collect();
        let syms: Vec<&str> = (0..100)
            .map(|i| if i % 2 == 0 { "E" } else { "O" })
            .collect();
        let batch = sym_batch(&syms, &vols);
        let pred = Expr::col(1)
            .ge(Expr::lit(Value::Int(25)))
            .and(Expr::col(1).lt(Expr::lit(Value::Int(75))));
        work::reset();
        let contiguous = pred.filter_indices(&batch, None);
        let lanes = work::snapshot().simd_lanes;
        // An all-rows selection reads the same rows through
        // `Operand::Gather`, which only has the scalar loop.
        let all_rows: Vec<u32> = (0..100).collect();
        work::reset();
        let gathered = pred.filter_indices(&batch, Some(&all_rows));
        assert_eq!(work::snapshot().simd_lanes, 0, "gathers count no lanes");
        assert_eq!(contiguous, gathered, "lane loops match the scalar loop");
        assert_eq!(contiguous, row_survivors(&pred, &batch));
        assert!(lanes > 0, "contiguous compares run the lane loops");
    }

    #[test]
    fn selected_column_stays_a_lazy_view() {
        let batch = sym_batch(&["A", "B", "C", "D"], &[1, 2, 3, 4]);
        let sel: Vec<u32> = vec![3, 1];
        let ev = Expr::col(1).eval_columnar(&batch, Some(&sel));
        assert!(
            matches!(ev.values, ColumnarValues::ColumnSel(..)),
            "a selected column reference must not gather eagerly"
        );
        let col = ev.values.into_column(2);
        assert_eq!(col.as_ints(), Some(&[4, 2][..]));
        // Kernels read through the view: refining the selection agrees
        // with the row oracle.
        let pred = Expr::col(1).gt(Expr::lit(Value::Int(1)));
        assert_eq!(pred.filter_indices(&batch, Some(&sel)), vec![3, 1]);
    }
}
