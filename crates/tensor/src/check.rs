//! Tape linter: static analysis over a recorded [`Graph`] arena.
//!
//! [`Graph::check`] walks the arena *before* [`Graph::backward`] and
//! reports problems as [`Diagnostic`]s instead of panicking mid-sweep:
//!
//! * **Shape errors** — every op's output shape is re-derived from its
//!   input shapes by a single centralized inference routine (the same
//!   one the eager constructors use), so a node whose recorded value
//!   disagrees with its op is reported with op provenance.
//! * **Out-of-bounds indices** — `GatherRows`/`GatherFlat`/
//!   `ScatterAddRows` index vectors are validated against their input
//!   extents ([`crate::tape::PAD`] entries are exempt).
//! * **Dead subgraphs** — nodes recorded before the loss that can never
//!   reach it contribute nothing to the gradient and usually indicate a
//!   wiring bug.
//! * **Dead parameters** — registered [`crate::ParamId`]s with no gradient
//!   path to the loss silently never train
//!   ([`Graph::check_with_params`]).
//! * **NaN/Inf patterns** — division by a constant containing zero,
//!   `ln`/`sqrt` of provably non-positive constants, and any node whose
//!   forward value introduces a non-finite value its inputs did not
//!   have.
//!
//! The structural subset (shapes and index bounds) also runs
//! automatically at the top of every `backward()` call in builds with
//! `debug_assertions`, turning latent tape corruption into an immediate
//! panic with a pointed message.
//!
//! ```
//! use dekg_tensor::{Graph, ParamStore, Tensor};
//!
//! let mut ps = ParamStore::new();
//! let w = ps.insert("w", Tensor::ones([2]));
//! let dead = ps.insert("unused", Tensor::ones([2]));
//!
//! let mut g = Graph::new();
//! let wv = g.param(&ps, w);
//! let sq = g.square(wv);
//! let loss = g.sum_all(sq);
//!
//! let diags = g.check_with_params(loss, &ps);
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].code, "dead-param");
//! let _ = dead;
//! ```

use crate::params::ParamStore;
use crate::shape::Shape;
use crate::tape::{Graph, Op, RelWeightVars, RgcnLayerOp, Var, PAD};
use std::fmt;

/// How serious a [`Diagnostic`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Suspicious but not necessarily fatal (dead code, NaN patterns).
    Warning,
    /// A broken invariant: `backward()` would compute garbage or panic.
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

/// One finding from the tape linter (or the KG validator, which reuses
/// this type through `dekg-check`).
#[derive(Debug, Clone)]
pub struct Diagnostic {
    /// Error or warning.
    pub severity: Severity,
    /// Stable machine-readable code, e.g. `"shape-mismatch"`.
    pub code: &'static str,
    /// Arena index of the offending node, when one exists.
    pub node: Option<usize>,
    /// Op mnemonic (or subsystem name) for provenance.
    pub op: String,
    /// Human-readable description of the problem.
    pub message: String,
}

impl Diagnostic {
    /// An error-severity diagnostic.
    pub fn error(
        code: &'static str,
        node: Option<usize>,
        op: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic { severity: Severity::Error, code, node, op: op.into(), message: message.into() }
    }

    /// A warning-severity diagnostic.
    pub fn warning(
        code: &'static str,
        node: Option<usize>,
        op: impl Into<String>,
        message: impl Into<String>,
    ) -> Self {
        Diagnostic {
            severity: Severity::Warning,
            code,
            node,
            op: op.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[{}]", self.severity, self.code)?;
        if let Some(n) = self.node {
            write!(f, " node {n}")?;
        }
        if !self.op.is_empty() {
            write!(f, " ({})", self.op)?;
        }
        write!(f, ": {}", self.message)
    }
}

/// What went wrong inside a [`ShapeError`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShapeErrorKind {
    /// Operand shapes are incompatible with each other.
    Mismatch,
    /// An operand has the wrong rank for the op.
    Rank,
    /// An index points outside its operand.
    OutOfBounds,
    /// A count-level invariant failed (empty input, length mismatch).
    Arity,
}

/// A typed shape-inference failure.
///
/// Produced by the centralized per-op shape inference that both the
/// eager [`Graph`] constructors and the tape linter run; the eager path
/// panics with its [`Display`](fmt::Display) text, the linter converts
/// it into a [`Diagnostic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    op: &'static str,
    kind: ShapeErrorKind,
    message: String,
    context: Option<String>,
}

impl ShapeError {
    pub(crate) fn new(op: &'static str, kind: ShapeErrorKind, message: impl Into<String>) -> Self {
        ShapeError { op, kind, message: message.into(), context: None }
    }

    /// Attaches node provenance — op ordinal and mnemonic, arena index,
    /// input/output `Var` ids with their shapes — rendered in square
    /// brackets after the base message (see `op_context`).
    #[must_use]
    pub fn with_context(mut self, context: impl Into<String>) -> Self {
        self.context = Some(context.into());
        self
    }

    /// The op mnemonic the error originated from.
    pub fn op(&self) -> &'static str {
        self.op
    }

    /// The failure category.
    pub fn kind(&self) -> ShapeErrorKind {
        self.kind
    }

    /// The human-readable detail.
    pub fn message(&self) -> &str {
        &self.message
    }

    /// The attached node provenance, when any.
    pub fn context(&self) -> Option<&str> {
        self.context.as_deref()
    }
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Space, not colon: the op mnemonic leads straight into the
        // message ("matmul inner dims: ..."), matching the panic texts
        // the pre-linter kernels produced. Provenance, when attached,
        // trails in brackets so the leading text stays grep-stable.
        write!(f, "{} {}", self.op, self.message)?;
        if let Some(ctx) = &self.context {
            write!(f, " [{ctx}]")?;
        }
        Ok(())
    }
}

impl std::error::Error for ShapeError {}

/// Every op mnemonic the tape can record, indexed by `op_ordinal`.
///
/// This table is the single source of truth that the dekg-grad coverage
/// audit ([`crate::gradcheck::coverage_gaps`]) walks: every entry must
/// have a registered finite-difference gradcheck. Adding an `Op`
/// variant without extending both the exhaustive match in `op_ordinal`
/// and this table fails to compile (non-exhaustive match) or panics on
/// the first diagnostic that names the new op (index out of bounds) —
/// either way, new ops cannot land unverified.
pub const ALL_OPS: &[&str] = &[
    "Param",
    "Constant",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Neg",
    "AddScalar",
    "MulScalar",
    "Matmul",
    "GatherRows",
    "GatherFlat",
    "Reshape",
    "ConcatRows",
    "ConcatCols",
    "SumAll",
    "MeanAll",
    "SumAxis0",
    "SumAxis1",
    "MeanAxis0",
    "Relu",
    "Sigmoid",
    "Tanh",
    "Sqrt",
    "Exp",
    "Ln",
    "Sin",
    "Cos",
    "Square",
    "Abs",
    "Dropout",
    "StackScalars",
    "ScatterAddRows",
    "BroadcastRow",
    "RgcnLayer",
];

/// Position of `op`'s mnemonic in [`ALL_OPS`].
///
/// Deliberately written without a wildcard arm: a new `Op` variant must
/// be given an ordinal here, a name in [`ALL_OPS`], and a gradcheck in
/// [`crate::gradcheck`] before the workspace compiles and tests green.
pub(crate) fn op_ordinal(op: &Op) -> usize {
    match op {
        Op::Leaf(Some(_)) => 0,
        Op::Leaf(None) => 1,
        Op::Add(..) => 2,
        Op::Sub(..) => 3,
        Op::Mul(..) => 4,
        Op::Div(..) => 5,
        Op::Neg(..) => 6,
        Op::AddScalar(..) => 7,
        Op::MulScalar(..) => 8,
        Op::Matmul(..) => 9,
        Op::GatherRows(..) => 10,
        Op::GatherFlat(..) => 11,
        Op::Reshape(..) => 12,
        Op::ConcatRows(..) => 13,
        Op::ConcatCols(..) => 14,
        Op::SumAll(..) => 15,
        Op::MeanAll(..) => 16,
        Op::SumAxis0(..) => 17,
        Op::SumAxis1(..) => 18,
        Op::MeanAxis0(..) => 19,
        Op::Relu(..) => 20,
        Op::Sigmoid(..) => 21,
        Op::Tanh(..) => 22,
        Op::Sqrt(..) => 23,
        Op::Exp(..) => 24,
        Op::Ln(..) => 25,
        Op::Sin(..) => 26,
        Op::Cos(..) => 27,
        Op::Square(..) => 28,
        Op::Abs(..) => 29,
        Op::Dropout(..) => 30,
        Op::StackScalars(..) => 31,
        Op::ScatterAddRows { .. } => 32,
        Op::BroadcastRow(..) => 33,
        Op::RgcnLayer(..) => 34,
    }
}

/// Short mnemonic for an op, safe to embed in diagnostics (never dumps
/// index payloads).
pub(crate) fn op_mnemonic(op: &Op) -> &'static str {
    ALL_OPS[op_ordinal(op)]
}

/// Calls `f` with every input [`Var`] of `op`, in recording order.
pub(crate) fn for_each_input(op: &Op, mut f: impl FnMut(Var)) {
    match op {
        Op::Leaf(_) => {}
        Op::Add(a, b) | Op::Sub(a, b) | Op::Mul(a, b) | Op::Div(a, b) | Op::Matmul(a, b) => {
            f(*a);
            f(*b);
        }
        Op::Neg(a)
        | Op::AddScalar(a, _)
        | Op::MulScalar(a, _)
        | Op::GatherRows(a, _)
        | Op::GatherFlat(a, _)
        | Op::Reshape(a)
        | Op::SumAll(a)
        | Op::MeanAll(a)
        | Op::SumAxis0(a)
        | Op::SumAxis1(a)
        | Op::MeanAxis0(a)
        | Op::Relu(a)
        | Op::Sigmoid(a)
        | Op::Tanh(a)
        | Op::Sqrt(a)
        | Op::Exp(a)
        | Op::Ln(a)
        | Op::Sin(a)
        | Op::Cos(a)
        | Op::Square(a)
        | Op::Abs(a)
        | Op::Dropout(a, _)
        | Op::BroadcastRow(a, _) => f(*a),
        Op::ConcatRows(parts) | Op::ConcatCols(parts) | Op::StackScalars(parts) => {
            for &p in parts {
                f(p);
            }
        }
        Op::ScatterAddRows { src, .. } => f(*src),
        Op::RgcnLayer(l) => {
            let v = &l.vars;
            for u in [l.h, v.w_self, v.bias, v.attn_embed, v.w_attn] {
                f(u);
            }
            match v.rel {
                RelWeightVars::Full(w) => f(w),
                RelWeightVars::Bases { coeffs, bases } => {
                    f(coeffs);
                    f(bases);
                }
            }
        }
    }
}

/// Non-panicking matrix view of a shape.
fn as_matrix(op: &'static str, s: &Shape) -> Result<(usize, usize), ShapeError> {
    if s.rank() == 2 {
        Ok((s.dim(0), s.dim(1)))
    } else {
        Err(ShapeError::new(op, ShapeErrorKind::Rank, format!("expected a matrix, got shape {s}")))
    }
}

fn same_shape(op: &'static str, a: &Shape, b: &Shape) -> Result<Shape, ShapeError> {
    if a.same_as(b) {
        Ok(a.clone())
    } else {
        Err(ShapeError::new(op, ShapeErrorKind::Mismatch, format!("shape mismatch {a} vs {b}")))
    }
}

/// Centralized per-op shape inference, parameterized over the input
/// shape lookup.
///
/// `declared` carries the caller-declared output shape for the ops that
/// take one (`Leaf`, `Reshape`, `GatherFlat`); for every other op it is
/// ignored. Three callers share this single routine: the eager
/// [`Graph`] constructors (lookup = recorded input values, panic on
/// `Err`), the tape linter (recorded shapes, downgraded to
/// [`Diagnostic`]s), and the abstract interpreter in
/// [`crate::tapecheck`] (symbolic shapes derived bottom-up from the
/// leaves, never touching a recorded value).
pub(crate) fn infer_shape_with<'s>(
    op: &Op,
    declared: Option<&Shape>,
    sh: &impl Fn(Var) -> &'s Shape,
) -> Result<Shape, ShapeError> {
    match op {
        Op::Leaf(_) => Ok(declared.cloned().unwrap_or_else(Shape::scalar)),
        Op::Add(a, b) => same_shape("add", sh(*a), sh(*b)),
        Op::Sub(a, b) => same_shape("sub", sh(*a), sh(*b)),
        Op::Mul(a, b) => same_shape("mul", sh(*a), sh(*b)),
        Op::Div(a, b) => same_shape("div", sh(*a), sh(*b)),
        Op::Neg(a)
        | Op::AddScalar(a, _)
        | Op::MulScalar(a, _)
        | Op::Relu(a)
        | Op::Sigmoid(a)
        | Op::Tanh(a)
        | Op::Sqrt(a)
        | Op::Exp(a)
        | Op::Ln(a)
        | Op::Sin(a)
        | Op::Cos(a)
        | Op::Square(a)
        | Op::Abs(a) => Ok(sh(*a).clone()),
        Op::Dropout(a, mask) => {
            let s = sh(*a);
            if mask.len() != s.numel() {
                return Err(ShapeError::new(
                    "dropout",
                    ShapeErrorKind::Arity,
                    format!("mask length {} does not cover input {s}", mask.len()),
                ));
            }
            Ok(s.clone())
        }
        Op::Matmul(a, b) => {
            let (m, k) = as_matrix("matmul", sh(*a))?;
            let (k2, n) = as_matrix("matmul", sh(*b))?;
            if k != k2 {
                return Err(ShapeError::new(
                    "matmul",
                    ShapeErrorKind::Mismatch,
                    format!("inner dims: {} vs {}", sh(*a), sh(*b)),
                ));
            }
            Ok(Shape::new(vec![m, n]))
        }
        Op::GatherRows(a, idx) => {
            let (rows, cols) = as_matrix("gather_rows", sh(*a))?;
            for &i in idx {
                if i >= rows {
                    return Err(ShapeError::new(
                        "gather_rows",
                        ShapeErrorKind::OutOfBounds,
                        format!("index {i} out of bounds for {rows} rows"),
                    ));
                }
            }
            Ok(Shape::new(vec![idx.len(), cols]))
        }
        Op::GatherFlat(a, idx) => {
            let declared = declared.ok_or_else(|| {
                ShapeError::new(
                    "gather_flat",
                    ShapeErrorKind::Arity,
                    "missing declared output shape",
                )
            })?;
            if idx.len() != declared.numel() {
                return Err(ShapeError::new(
                    "gather_flat",
                    ShapeErrorKind::Arity,
                    format!("index count {} does not fill output {declared}", idx.len()),
                ));
            }
            let n = sh(*a).numel();
            for &i in idx {
                if i != PAD && i >= n {
                    return Err(ShapeError::new(
                        "gather_flat",
                        ShapeErrorKind::OutOfBounds,
                        format!("offset {i} out of bounds for {n} elements"),
                    ));
                }
            }
            Ok(declared.clone())
        }
        Op::Reshape(a) => {
            let declared = declared.ok_or_else(|| {
                ShapeError::new("reshape", ShapeErrorKind::Arity, "missing declared output shape")
            })?;
            let n = sh(*a).numel();
            if declared.numel() != n {
                return Err(ShapeError::new(
                    "reshape",
                    ShapeErrorKind::Mismatch,
                    format!("cannot reshape {n} elements to {declared}"),
                ));
            }
            Ok(declared.clone())
        }
        Op::ConcatRows(parts) => {
            if parts.is_empty() {
                return Err(ShapeError::new("concat_rows", ShapeErrorKind::Arity, "empty input"));
            }
            let first = sh(parts[0]);
            if first.rank() == 1 {
                let mut total = 0;
                for &p in parts {
                    let s = sh(p);
                    if s.rank() != 1 {
                        return Err(ShapeError::new(
                            "concat_rows",
                            ShapeErrorKind::Rank,
                            format!("mixed ranks: [{}] vs {s}", first.dim(0)),
                        ));
                    }
                    total += s.dim(0);
                }
                Ok(Shape::new(vec![total]))
            } else {
                let (_, cols) = as_matrix("concat_rows", first)?;
                let mut rows = 0;
                for &p in parts {
                    let (r, c) = as_matrix("concat_rows", sh(p))?;
                    if c != cols {
                        return Err(ShapeError::new(
                            "concat_rows",
                            ShapeErrorKind::Mismatch,
                            format!("column mismatch: {cols} vs {c}"),
                        ));
                    }
                    rows += r;
                }
                Ok(Shape::new(vec![rows, cols]))
            }
        }
        Op::ConcatCols(parts) => {
            if parts.is_empty() {
                return Err(ShapeError::new("concat_cols", ShapeErrorKind::Arity, "empty input"));
            }
            let (rows, _) = as_matrix("concat_cols", sh(parts[0]))?;
            let mut total = 0;
            for &p in parts {
                let (r, c) = as_matrix("concat_cols", sh(p))?;
                if r != rows {
                    return Err(ShapeError::new(
                        "concat_cols",
                        ShapeErrorKind::Mismatch,
                        format!("row mismatch: {rows} vs {r}"),
                    ));
                }
                total += c;
            }
            Ok(Shape::new(vec![rows, total]))
        }
        Op::SumAll(_) | Op::MeanAll(_) => Ok(Shape::scalar()),
        Op::SumAxis0(a) | Op::MeanAxis0(a) => {
            let (_, n) = as_matrix("sum_axis0", sh(*a))?;
            Ok(Shape::new(vec![n]))
        }
        Op::SumAxis1(a) => {
            let (m, _) = as_matrix("sum_axis1", sh(*a))?;
            Ok(Shape::new(vec![m]))
        }
        Op::StackScalars(parts) => {
            if parts.is_empty() {
                return Err(ShapeError::new("stack_scalars", ShapeErrorKind::Arity, "empty input"));
            }
            for &p in parts {
                let s = sh(p);
                if s.numel() != 1 {
                    return Err(ShapeError::new(
                        "stack_scalars",
                        ShapeErrorKind::Mismatch,
                        format!("non-scalar input {s}"),
                    ));
                }
            }
            Ok(Shape::new(vec![parts.len()]))
        }
        Op::ScatterAddRows { src, idx, rows } => {
            let (e, cols) = as_matrix("scatter_add_rows", sh(*src))?;
            if idx.len() != e {
                return Err(ShapeError::new(
                    "scatter_add_rows",
                    ShapeErrorKind::Arity,
                    format!("index count {} does not match {e} source rows", idx.len()),
                ));
            }
            for &t in idx {
                if t >= *rows {
                    return Err(ShapeError::new(
                        "scatter_add_rows",
                        ShapeErrorKind::OutOfBounds,
                        format!("target {t} out of bounds for {rows} rows"),
                    ));
                }
            }
            Ok(Shape::new(vec![*rows, cols]))
        }
        Op::BroadcastRow(a, rows) => {
            let s = sh(*a);
            if s.rank() != 1 {
                return Err(ShapeError::new(
                    "broadcast_row",
                    ShapeErrorKind::Rank,
                    format!("expected rank-1, got {s}"),
                ));
            }
            Ok(Shape::new(vec![*rows, s.dim(0)]))
        }
        Op::RgcnLayer(l) => infer_rgcn_layer(l, sh),
    }
}

/// Shape rule of the fused R-GCN layer: `h [n, in]`, `w_self [in, out]`,
/// `bias [out]`, `attn_embed [R, attn]`, `w_attn [2·in + attn, 1]`, and
/// `w_rel [R·in, out]` or `coeffs [R, B]` + `bases [B, in·out]`; every
/// group's relation below `R`, every edge endpoint below `n`, one saved
/// attention per edge. Output `[n, out]`.
fn infer_rgcn_layer<'s>(
    l: &RgcnLayerOp,
    sh: &impl Fn(Var) -> &'s Shape,
) -> Result<Shape, ShapeError> {
    const OP: &str = "rgcn_layer";
    let require = |ok: bool, kind: ShapeErrorKind, msg: &dyn Fn() -> String| {
        if ok {
            Ok(())
        } else {
            Err(ShapeError::new(OP, kind, msg()))
        }
    };
    let v = &l.vars;
    let (n, in_dim) = as_matrix(OP, sh(l.h))?;
    let (w_in, out) = as_matrix(OP, sh(v.w_self))?;
    let (num_rel, attn) = as_matrix(OP, sh(v.attn_embed))?;
    let mismatch = ShapeErrorKind::Mismatch;
    require(w_in == in_dim, mismatch, &|| {
        format!("w_self {} for input {}", sh(v.w_self), sh(l.h))
    })?;
    let bias = sh(v.bias);
    require(bias.rank() == 1 && bias.dim(0) == out, mismatch, &|| {
        format!("bias {bias} for {out} outputs")
    })?;
    let w_attn = sh(v.w_attn);
    require(as_matrix(OP, w_attn)? == (2 * in_dim + attn, 1), mismatch, &|| {
        format!("w_attn {w_attn} for input width {in_dim} and attention width {attn}")
    })?;
    match v.rel {
        RelWeightVars::Full(w) => {
            require(as_matrix(OP, sh(w))? == (num_rel * in_dim, out), mismatch, &|| {
                format!("relation stack {} for {num_rel} relations of [{in_dim}, {out}]", sh(w))
            })?;
        }
        RelWeightVars::Bases { coeffs, bases } => {
            let (c_rel, num_bases) = as_matrix(OP, sh(coeffs))?;
            require(
                c_rel == num_rel && as_matrix(OP, sh(bases))? == (num_bases, in_dim * out),
                mismatch,
                &|| format!("bases {} / {} for {num_rel} relations", sh(coeffs), sh(bases)),
            )?;
        }
    }
    let edges = &l.edges;
    require(edges.num_nodes() == n, mismatch, &|| {
        format!("edge structure has {} nodes, input has {n} rows", edges.num_nodes())
    })?;
    for g in edges.groups() {
        require(g.rel < num_rel, ShapeErrorKind::OutOfBounds, &|| {
            format!("relation {} out of bounds for {num_rel} relations", g.rel)
        })?;
        if let Some(&i) = g.srcs.iter().chain(&g.dsts).find(|&&i| i as usize >= n) {
            return Err(ShapeError::new(
                OP,
                ShapeErrorKind::OutOfBounds,
                format!("edge endpoint {i} out of bounds for {n} nodes"),
            ));
        }
    }
    require(l.att.len() == edges.num_edges(), ShapeErrorKind::Arity, &|| {
        format!("{} saved attentions for {} edges", l.att.len(), edges.num_edges())
    })?;
    Ok(Shape::new(vec![n, out]))
}

/// Renders node provenance for a [`ShapeError`]: the op ordinal and
/// mnemonic, the node's arena index, every input `Var` id with its
/// recorded shape, and (when the node already exists) the recorded
/// output shape. Attached via [`ShapeError::with_context`] so a
/// constructor panic or linter diagnostic pinpoints the offending node
/// without a debugger.
pub(crate) fn op_context(g: &Graph, op: &Op, node: usize, output: Option<&Shape>) -> String {
    use std::fmt::Write as _;
    let mut out = format!("op #{} {} at node {node}", op_ordinal(op), op_mnemonic(op));
    let mut first = true;
    for_each_input(op, |v| {
        let sep = if first { "; inputs: " } else { ", " };
        first = false;
        let _ = write!(out, "{sep}v{} {}", v.index(), g.node_value(v).shape());
    });
    if let Some(s) = output {
        let _ = write!(out, "; output v{node} {s}");
    }
    out
}

impl Graph {
    /// Centralized shape inference for one op given the shapes of its
    /// already-recorded inputs (see [`infer_shape_with`]).
    pub(crate) fn infer_shape(
        &self,
        op: &Op,
        declared: Option<&Shape>,
    ) -> Result<Shape, ShapeError> {
        infer_shape_with(op, declared, &|v: Var| self.node_value(v).shape())
    }

    /// Structural invariants only: scalar loss, per-node shape
    /// inference consistency and index bounds. This is the subset that
    /// runs automatically inside `backward()` under `debug_assertions`.
    pub(crate) fn structural_diagnostics(&self, loss: Var) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let loss_value = self.node_value(loss);
        if loss_value.numel() != 1 {
            out.push(Diagnostic::error(
                "non-scalar-loss",
                Some(loss.0),
                op_mnemonic(self.node_op(loss)),
                format!("backward() needs a scalar loss, got {}", loss_value.shape()),
            ));
        }
        for id in 0..=loss.0 {
            let v = Var(id);
            let op = self.node_op(v);
            let recorded = self.node_value(v).shape();
            match self.infer_shape(op, Some(recorded)) {
                Err(e) => {
                    let code = match e.kind() {
                        ShapeErrorKind::OutOfBounds => "oob-index",
                        _ => "shape-error",
                    };
                    let e = e.with_context(op_context(self, op, id, Some(recorded)));
                    out.push(Diagnostic::error(code, Some(id), op_mnemonic(op), e.to_string()));
                }
                Ok(inferred) => {
                    if !inferred.same_as(recorded) {
                        out.push(Diagnostic::error(
                            "shape-mismatch",
                            Some(id),
                            op_mnemonic(op),
                            format!("recorded value has shape {recorded}, op implies {inferred}"),
                        ));
                    }
                }
            }
        }
        out
    }

    /// Marks every node `<= loss` that can reach the loss through op
    /// edges.
    pub(crate) fn live_set(&self, loss: Var) -> Vec<bool> {
        let mut live = vec![false; loss.0 + 1];
        let mut stack = vec![loss.0];
        live[loss.0] = true;
        while let Some(id) = stack.pop() {
            for_each_input(self.node_op(Var(id)), |input| {
                if input.0 < live.len() && !live[input.0] {
                    live[input.0] = true;
                    stack.push(input.0);
                }
            });
        }
        live
    }

    /// Lints the tape below `loss`, returning every finding.
    ///
    /// Runs the structural checks of [`Graph::backward`]'s debug hook
    /// plus reachability analysis (dead subgraphs) and NaN/Inf pattern
    /// detection. An empty result means `backward(loss)` is safe and
    /// every recorded node participates in the gradient.
    ///
    /// Use [`Graph::check_with_params`] to also verify parameter
    /// coverage.
    pub fn check(&self, loss: Var) -> Vec<Diagnostic> {
        let mut out = self.structural_diagnostics(loss);
        let live = self.live_set(loss);

        // Dead subgraphs: collapse into one diagnostic so a large tape
        // with a forgotten branch does not flood the report.
        let dead: Vec<usize> = (0..=loss.0).filter(|&id| !live[id]).collect();
        if !dead.is_empty() {
            let preview: Vec<String> = dead.iter().take(5).map(ToString::to_string).collect();
            let suffix = if dead.len() > 5 { ", .." } else { "" };
            out.push(Diagnostic::warning(
                "dead-code",
                Some(dead[0]),
                op_mnemonic(self.node_op(Var(dead[0]))),
                format!(
                    "{} node(s) recorded before the loss never reach it (nodes {}{suffix})",
                    dead.len(),
                    preview.join(", ")
                ),
            ));
        }

        // NaN/Inf-producing patterns on constants, and non-finite
        // forward values at their origin node.
        for id in 0..=loss.0 {
            let v = Var(id);
            let op = self.node_op(v);
            match op {
                Op::Div(_, b)
                    if self.is_constant(*b) && self.node_value(*b).data().contains(&0.0) =>
                {
                    out.push(Diagnostic::warning(
                        "div-by-zero",
                        Some(id),
                        "Div",
                        format!("divides by constant node {} which contains 0", b.0),
                    ));
                }
                Op::Ln(a)
                    if self.is_constant(*a)
                        && self.node_value(*a).data().iter().any(|&x| x <= 0.0) =>
                {
                    out.push(Diagnostic::warning(
                        "log-nonpositive",
                        Some(id),
                        "Ln",
                        format!("takes ln of constant node {} with a value <= 0", a.0),
                    ));
                }
                Op::Sqrt(a)
                    if self.is_constant(*a)
                        && self.node_value(*a).data().iter().any(|&x| x < 0.0) =>
                {
                    out.push(Diagnostic::warning(
                        "sqrt-negative",
                        Some(id),
                        "Sqrt",
                        format!("takes sqrt of constant node {} with a negative value", a.0),
                    ));
                }
                _ => {}
            }
            // Non-finite op *payloads*: these corrupt gradients (the
            // backward rules multiply by them) even when every node
            // value still looks finite, so they are flagged separately
            // from the value sweep below.
            match op {
                Op::Dropout(_, mask) if mask.iter().any(|m| !m.is_finite()) => {
                    out.push(Diagnostic::warning(
                        "non-finite-mask",
                        Some(id),
                        "Dropout",
                        "recorded dropout mask contains NaN or Inf".to_string(),
                    ));
                }
                Op::AddScalar(_, s) | Op::MulScalar(_, s) if !s.is_finite() => {
                    out.push(Diagnostic::warning(
                        "non-finite-scalar",
                        Some(id),
                        op_mnemonic(op),
                        format!("scalar payload {s} is not finite"),
                    ));
                }
                _ => {}
            }
            if self.node_value(v).has_non_finite() {
                let mut inputs_finite = true;
                for_each_input(op, |input| {
                    if self.node_value(input).has_non_finite() {
                        inputs_finite = false;
                    }
                });
                if inputs_finite {
                    out.push(Diagnostic::warning(
                        "non-finite",
                        Some(id),
                        op_mnemonic(op),
                        "forward value introduces NaN or Inf from finite inputs".to_string(),
                    ));
                }
            }
        }
        out
    }

    /// [`Graph::check`] plus parameter coverage: every parameter
    /// registered in `params` must be mounted on a node that reaches
    /// the loss, otherwise it silently never receives a gradient.
    pub fn check_with_params(&self, loss: Var, params: &ParamStore) -> Vec<Diagnostic> {
        let mut out = self.check(loss);
        let live = self.live_set(loss);
        let mut reached = vec![false; params.len()];
        for (id, &is_live) in live.iter().enumerate().take(loss.0 + 1) {
            if let Op::Leaf(Some(pid)) = self.node_op(Var(id)) {
                if is_live && pid.index() < reached.len() {
                    reached[pid.index()] = true;
                }
            }
        }
        for (pid, name, _) in params.iter() {
            if !reached[pid.index()] {
                out.push(Diagnostic::warning(
                    "dead-param",
                    None,
                    "Param",
                    format!("registered parameter {name:?} has no gradient path to the loss"),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamStore;
    use crate::tensor::Tensor;
    use proptest::prelude::*;

    fn two_param_store() -> (ParamStore, crate::params::ParamId, crate::params::ParamId) {
        let mut ps = ParamStore::new();
        let a = ps.insert("a", Tensor::from_vec([2], vec![1.0, 2.0]));
        let b = ps.insert("b", Tensor::from_vec([2], vec![3.0, 4.0]));
        (ps, a, b)
    }

    #[test]
    fn clean_tape_has_zero_diagnostics() {
        let (ps, a, b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let bv = g.param(&ps, b);
        let p = g.mul(av, bv);
        let loss = g.sum_all(p);
        assert!(g.check_with_params(loss, &ps).is_empty());
    }

    #[test]
    fn dead_param_is_reported() {
        let (ps, a, _b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let sq = g.square(av);
        let loss = g.sum_all(sq);
        let diags = g.check_with_params(loss, &ps);
        assert_eq!(diags.len(), 1, "diags: {diags:?}");
        assert_eq!(diags[0].code, "dead-param");
        assert_eq!(diags[0].severity, Severity::Warning);
        assert!(diags[0].message.contains("\"b\""), "message: {}", diags[0].message);
    }

    #[test]
    fn dead_subgraph_is_reported_once() {
        let (ps, a, b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let bv = g.param(&ps, b);
        // A dangling branch off `b` that never reaches the loss.
        let dangling = g.square(bv);
        let _more_dangling = g.sum_all(dangling);
        let sq = g.square(av);
        let loss = g.sum_all(sq);
        let diags = g.check(loss);
        let dead: Vec<_> = diags.iter().filter(|d| d.code == "dead-code").collect();
        assert_eq!(dead.len(), 1, "diags: {diags:?}");
        assert!(dead[0].message.contains("3 node(s)"), "message: {}", dead[0].message);
    }

    #[test]
    fn oob_gather_is_reported() {
        let (ps, a, _b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let m = g.reshape(av, [1, 2]);
        let bad = g.fault_gather_rows_unchecked(m, &[0, 7]);
        let s = g.sum_all(bad);
        let diags = g.check(s);
        assert!(
            diags.iter().any(|d| d.code == "oob-index" && d.severity == Severity::Error),
            "diags: {diags:?}"
        );
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let (ps, a, b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let bv = g.param(&ps, b);
        let sum = g.add(av, bv);
        g.fault_override_value(sum, Tensor::zeros([3]));
        let loss = g.sum_all(sum);
        let diags = g.check(loss);
        assert!(
            diags.iter().any(|d| d.code == "shape-mismatch" && d.node == Some(sum.index())),
            "diags: {diags:?}"
        );
    }

    #[test]
    fn non_scalar_loss_is_reported() {
        let (ps, a, _b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let diags = g.check(av);
        assert!(diags.iter().any(|d| d.code == "non-scalar-loss"), "diags: {diags:?}");
    }

    #[test]
    fn div_by_zero_constant_warns() {
        let (ps, a, _b) = two_param_store();
        let mut g = Graph::new();
        let av = g.param(&ps, a);
        let z = g.constant(Tensor::from_vec([2], vec![1.0, 0.0]));
        let q = g.div(av, z);
        let loss = g.sum_all(q);
        let diags = g.check(loss);
        assert!(diags.iter().any(|d| d.code == "div-by-zero"), "diags: {diags:?}");
        // The division by zero also produces an Inf at the Div node.
        assert!(diags.iter().any(|d| d.code == "non-finite"), "diags: {diags:?}");
    }

    #[test]
    fn log_of_nonpositive_constant_warns() {
        let mut g = Graph::new();
        let c = g.constant(Tensor::from_vec([2], vec![0.5, -1.0]));
        let l = g.ln(c);
        let loss = g.sum_all(l);
        let diags = g.check(loss);
        assert!(diags.iter().any(|d| d.code == "log-nonpositive"), "diags: {diags:?}");
    }

    #[test]
    fn diagnostic_display_is_stable() {
        let d = Diagnostic::error(
            "oob-index",
            Some(3),
            "GatherRows",
            "index 7 out of bounds for 2 rows",
        );
        assert_eq!(
            d.to_string(),
            "error[oob-index] node 3 (GatherRows): index 7 out of bounds for 2 rows"
        );
    }

    proptest! {
        /// A randomly shaped, randomly valued but well-formed training
        /// tape lints clean, and stays clean while it converges.
        #[test]
        fn converging_tape_stays_clean(rows in 1usize..5, cols in 1usize..5, steps in 1usize..4) {
            let mut ps = ParamStore::new();
            let n = rows * cols;
            let data: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin()).collect();
            let w = ps.insert("w", Tensor::from_vec(vec![rows, cols], data));
            for _ in 0..steps {
                let mut g = Graph::new();
                let wv = g.param(&ps, w);
                let sq = g.square(wv);
                let loss = g.mean_all(sq);
                prop_assert!(g.check_with_params(loss, &ps).is_empty());
                let grads = g.backward(loss);
                use crate::optim::{Optimizer, Sgd};
                Sgd::new(0.1).step(&mut ps, &grads);
            }
        }
    }
}
