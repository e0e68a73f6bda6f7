//! The R-GCN layer kernel (Eq. 8–9 with GraIL edge attention) shared by
//! the batched evaluation engine and the training tape's fused
//! [`Graph::rgcn_layer`](crate::Graph::rgcn_layer) op, plus that op's
//! hand-written backward.
//!
//! Per layer, for every node `i`:
//!
//! ```text
//! acc_i = h_i · W_self + b + Σ_r Σ_{s ∈ N_r(i)} α_{s,r,i} · (h_s · W_r)
//! out_i = relu(acc_i),   α = sigmoid([h_s ⊕ h_i ⊕ q_r] · w_att)
//! ```
//!
//! [`layer_forward`] is the one forward implementation. Its arithmetic is
//! the unfused tape recording's, kernel for kernel (see DESIGN.md,
//! "Fused R-GCN layer op"), so the fused op, the unfused oracle and the
//! evaluation engine agree bit for bit.
//!
//! `layer_backward`, the op's backward, replays in scratch buffers the
//! `f32` operations the unfused tape's reverse sweep performs for one
//! layer: relation groups in descending order, the same [`kernels`] calls on
//! the same operands, each gradient slot's contributions folded in
//! consumer order. Parameter gradients and the input gradient therefore
//! match the unfused recording bitwise.

use crate::kernels;
use std::ops::Range;

/// One relation's surviving edges in a layer pass, in edge order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeGroup {
    /// Relation id (row of the per-relation weights).
    pub rel: usize,
    /// Source node of each edge.
    pub srcs: Vec<u32>,
    /// Destination node of each edge (aligned with `srcs`).
    pub dsts: Vec<u32>,
}

/// The message-passing structure of one subgraph as a layer sees it:
/// its node count and its kept edges grouped by relation in ascending
/// relation order. Every layer of one encoding shares one instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LayerEdges {
    num_nodes: usize,
    groups: Vec<EdgeGroup>,
    num_edges: usize,
}

impl LayerEdges {
    /// Wraps `groups` for a subgraph of `num_nodes` nodes.
    ///
    /// # Panics
    /// If relations are not strictly ascending or a group is empty or
    /// has mismatched source/destination lists. Node bounds are checked
    /// when the op is recorded (a typed shape error).
    pub fn new(num_nodes: usize, groups: Vec<EdgeGroup>) -> Self {
        assert!(groups.windows(2).all(|w| w[0].rel < w[1].rel), "relation groups must ascend");
        assert!(
            groups.iter().all(|g| !g.srcs.is_empty() && g.srcs.len() == g.dsts.len()),
            "every relation group needs aligned, non-empty edge lists"
        );
        let num_edges = groups.iter().map(|g| g.srcs.len()).sum();
        LayerEdges { num_nodes, groups, num_edges }
    }

    /// Number of nodes (rows of the layer input and output).
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The relation groups, ascending by relation.
    pub fn groups(&self) -> &[EdgeGroup] {
        &self.groups
    }

    /// Total kept edges over all groups.
    pub fn num_edges(&self) -> usize {
        self.num_edges
    }
}

/// Read access to the relation groups of one layer pass. A group lists
/// the row ranges (segments) its edges live in: the kernel zeroes,
/// scatters into and accumulates only those rows. A lone subgraph is one
/// segment covering every row; a block-diagonal pack has one per graph.
pub trait LayerGraph {
    /// Number of relation groups, ascending by relation.
    fn num_groups(&self) -> usize;
    /// Relation id of group `g`.
    fn rel(&self, g: usize) -> usize;
    /// Source rows of group `g`'s edges.
    fn srcs(&self, g: usize) -> &[u32];
    /// Destination rows of group `g`'s edges.
    fn dsts(&self, g: usize) -> &[u32];
    /// Number of segments group `g` touches.
    fn num_segments(&self, g: usize) -> usize;
    /// Row range of the `k`-th segment group `g` touches.
    fn segment_rows(&self, g: usize, k: usize) -> Range<usize>;
}

impl LayerGraph for LayerEdges {
    fn num_groups(&self) -> usize {
        self.groups.len()
    }
    fn rel(&self, g: usize) -> usize {
        self.groups[g].rel
    }
    fn srcs(&self, g: usize) -> &[u32] {
        &self.groups[g].srcs
    }
    fn dsts(&self, g: usize) -> &[u32] {
        &self.groups[g].dsts
    }
    fn num_segments(&self, _g: usize) -> usize {
        1
    }
    fn segment_rows(&self, _g: usize, _k: usize) -> Range<usize> {
        0..self.num_nodes
    }
}

/// Per-relation weights of a layer as flat row-major slices.
#[derive(Debug, Clone, Copy)]
pub enum RelWeights<'a> {
    /// The full stack `[R · in, out]`.
    Full(&'a [f32]),
    /// Basis decomposition `W_r = Σ_b coeffs[r, b] · bases[b]`.
    Bases {
        /// `[R, B]` coefficients.
        coeffs: &'a [f32],
        /// `[B, in · out]` bases.
        bases: &'a [f32],
        /// `B`.
        num_bases: usize,
    },
}

/// One layer's weights as flat row-major slices.
#[derive(Debug, Clone, Copy)]
pub struct LayerWeights<'a> {
    /// Input width.
    pub in_dim: usize,
    /// Output width.
    pub out_dim: usize,
    /// Attention embedding width.
    pub attn_dim: usize,
    /// `[in, out]` self-loop weight.
    pub w_self: &'a [f32],
    /// `[out]` bias.
    pub bias: &'a [f32],
    /// `[R, attn]` per-relation attention embeddings `q_r`.
    pub attn_embed: &'a [f32],
    /// `[2 · in + attn, 1]` attention weight.
    pub w_attn: &'a [f32],
    /// Per-relation message weights.
    pub rel: RelWeights<'a>,
}

impl<'a> LayerWeights<'a> {
    /// Width of one attention input row `[h_s ⊕ h_t ⊕ q_r]`.
    pub fn att_width(&self) -> usize {
        2 * self.in_dim + self.attn_dim
    }

    /// The `[in, out]` weight of `rel`: a slice of the full stack, or
    /// composed into `buf` as the `[1, B] × [B, in · out]` matmul the
    /// unfused tape records.
    fn relation<'s>(&self, rel: usize, buf: &'s mut Vec<f32>) -> &'s [f32]
    where
        'a: 's,
    {
        let block = self.in_dim * self.out_dim;
        match self.rel {
            RelWeights::Full(all) => &all[rel * block..(rel + 1) * block],
            RelWeights::Bases { coeffs, bases, num_bases } => {
                buf.resize(block, 0.0);
                kernels::matmul(
                    &coeffs[rel * num_bases..(rel + 1) * num_bases],
                    bases,
                    buf,
                    1,
                    num_bases,
                    block,
                );
                buf
            }
        }
    }
}

/// Reusable buffers for [`layer_forward`]: every per-relation
/// intermediate (gathered sources, attention input, messages, logits,
/// the scatter target, and the composed basis weight). Buffers grow to
/// the high-water mark and are then reused — zero allocations in the
/// steady state.
#[derive(Debug, Default, Clone)]
pub struct LayerScratch {
    h_src: Vec<f32>,
    att_in: Vec<f32>,
    msgs: Vec<f32>,
    att: Vec<f32>,
    agg: Vec<f32>,
    w_r: Vec<f32>,
}

/// Copies `h`'s source rows into `h_src` and assembles the attention
/// inputs `[h_s ⊕ h_t ⊕ q_r]` into `att_in`, one row per edge.
fn gather_edge_inputs(
    w: &LayerWeights<'_>,
    h: &[f32],
    rel: usize,
    srcs: &[u32],
    dsts: &[u32],
    h_src: &mut Vec<f32>,
    att_in: &mut Vec<f32>,
) {
    let in_dim = w.in_dim;
    let width = w.att_width();
    let q_r = &w.attn_embed[rel * w.attn_dim..(rel + 1) * w.attn_dim];
    h_src.resize(srcs.len() * in_dim, 0.0);
    att_in.resize(srcs.len() * width, 0.0);
    for (row, (&s, &d)) in srcs.iter().zip(dsts).enumerate() {
        let (s, d) = (s as usize, d as usize);
        let src_row = &h[s * in_dim..(s + 1) * in_dim];
        h_src[row * in_dim..(row + 1) * in_dim].copy_from_slice(src_row);
        let cat = &mut att_in[row * width..(row + 1) * width];
        cat[..in_dim].copy_from_slice(src_row);
        cat[in_dim..2 * in_dim].copy_from_slice(&h[d * in_dim..(d + 1) * in_dim]);
        cat[2 * in_dim..].copy_from_slice(q_r);
    }
}

/// Runs one layer over `graph` (`n` rows) given node embeddings
/// `h [n, in]`, writing `relu(acc)` into `out` (resized).
///
/// `labels` carries each node's `(d_head, d_tail)` pair and must be
/// `Some` only when `h` is the layer-0 one-hot label matrix: the self
/// term then becomes a row gather doing exactly the adds the zero-skip
/// `matmul` performs on a one-hot row. When `saved_att` is given, every
/// edge's attention `α` is appended to it in group order (the training
/// op keeps it for backward).
///
/// Why this is bitwise the unfused tape recording, kernel by kernel:
///
/// * `acc = h · W_self + bias` per row, as the tape's
///   `add(matmul(h, W_self), broadcast_row(bias))`; `matmul` rows are
///   computed independently, so packing rows changes nothing;
/// * relations are visited in ascending order and a segment takes part
///   only in the relations it contains — for that segment the visit
///   order equals its own ascending relation order;
/// * per relation, messages and attention for all segments' edges run
///   as one packed matmul (row-independent again), and the scatter and
///   `acc += agg` touch **only the participating segments' rows**, in
///   edge order. Adding an all-zero `agg` row to a foreign segment would
///   flip `-0.0` outputs to `+0.0`;
/// * each message is scaled by its attention scalar directly, where the
///   tape widens the `[E_r, 1]` attention column with a ones-matmul —
///   `0 + a · 1.0` is exactly `a` for every `a ≥ +0`.
#[allow(clippy::too_many_arguments)] // a kernel over flat slices: every buffer is an argument
pub fn layer_forward<G: LayerGraph + ?Sized>(
    w: &LayerWeights<'_>,
    graph: &G,
    n: usize,
    h: &[f32],
    labels: Option<&[(i32, i32)]>,
    out: &mut Vec<f32>,
    scratch: &mut LayerScratch,
    mut saved_att: Option<&mut Vec<f32>>,
) {
    let in_dim = w.in_dim;
    let out_dim = w.out_dim;
    debug_assert_eq!(h.len(), n * in_dim, "layer input shape mismatch");

    // Self term: acc = h · W_self (+ bias per row below).
    out.resize(n * out_dim, 0.0);
    match labels {
        None => kernels::matmul(h, w.w_self, out, n, in_dim, out_dim),
        Some(lbl) => {
            // One-hot gather: zero the row, then += the selected W_self
            // rows in ascending column order (head block first).
            debug_assert_eq!(lbl.len(), n, "label count mismatch");
            let width = in_dim / 2;
            for (row, &(dh, dt)) in out.chunks_exact_mut(out_dim).zip(lbl) {
                row.fill(0.0);
                if dh >= 0 {
                    kernels::add_assign(row, &w.w_self[dh as usize * out_dim..][..out_dim]);
                }
                if dt >= 0 {
                    let p = width + dt as usize;
                    kernels::add_assign(row, &w.w_self[p * out_dim..][..out_dim]);
                }
            }
        }
    }
    for row in out.chunks_exact_mut(out_dim) {
        for (x, &b) in row.iter_mut().zip(w.bias) {
            *x += b;
        }
    }

    let att_width = w.att_width();
    scratch.agg.resize(n * out_dim, 0.0);
    for g in 0..graph.num_groups() {
        let rel = graph.rel(g);
        let (srcs, dsts) = (graph.srcs(g), graph.dsts(g));
        let n_e = srcs.len();
        let w_r = w.relation(rel, &mut scratch.w_r);
        gather_edge_inputs(w, h, rel, srcs, dsts, &mut scratch.h_src, &mut scratch.att_in);

        scratch.msgs.resize(n_e * out_dim, 0.0);
        kernels::matmul(&scratch.h_src, w_r, &mut scratch.msgs, n_e, in_dim, out_dim);
        scratch.att.resize(n_e, 0.0);
        kernels::matmul(&scratch.att_in, w.w_attn, &mut scratch.att, n_e, att_width, 1);
        for a in &mut scratch.att {
            *a = 1.0 / (1.0 + (-*a).exp());
        }
        if let Some(saved) = saved_att.as_deref_mut() {
            saved.extend_from_slice(&scratch.att);
        }

        // Zero, scatter, and accumulate only the participating
        // segments' rows; other segments' agg rows are stale but never
        // read.
        for k in 0..graph.num_segments(g) {
            let r = graph.segment_rows(g, k);
            scratch.agg[r.start * out_dim..r.end * out_dim].fill(0.0);
        }
        for (row, &d) in dsts.iter().enumerate() {
            let d = d as usize;
            let a = scratch.att[row];
            let dst_row = &mut scratch.agg[d * out_dim..(d + 1) * out_dim];
            for (x, &m) in dst_row.iter_mut().zip(&scratch.msgs[row * out_dim..(row + 1) * out_dim])
            {
                *x += m * a;
            }
        }
        for k in 0..graph.num_segments(g) {
            let r = graph.segment_rows(g, k);
            kernels::add_assign(
                &mut out[r.start * out_dim..r.end * out_dim],
                &scratch.agg[r.start * out_dim..r.end * out_dim],
            );
        }
    }

    for x in out.iter_mut() {
        *x = x.max(0.0);
    }
}

/// Gradients of one fused layer, as the unfused tape would hand them to
/// each input's slot. Every buffer is a zero-started sum (never `-0.0`).
#[derive(Debug, Default)]
pub(crate) struct LayerGrads {
    /// `[in, out]`.
    pub d_w_self: Vec<f32>,
    /// `[out]`.
    pub d_bias: Vec<f32>,
    /// `[2 · in + attn]`; empty when the layer has no edges.
    pub d_w_attn: Vec<f32>,
    /// `[B, in · out]` (bases only); empty when the layer has no edges.
    pub d_bases: Vec<f32>,
    /// Per group, in group order: the relation's block of the
    /// per-relation weight gradient — `[in · out]` rows of the full
    /// stack, or the `[B]` coefficient row.
    pub rel_rows: Vec<f32>,
    /// Per group, in group order: the `[attn]` row of `attn_embed`.
    pub attn_rows: Vec<f32>,
    // Scratch, reused across calls.
    dacc: Vec<f32>,
    h_src: Vec<f32>,
    att_in: Vec<f32>,
    msgs: Vec<f32>,
    w_r: Vec<f32>,
    d_msgs: Vec<f32>,
    d_att_wide: Vec<f32>,
    d_att: Vec<f32>,
    d_logit: Vec<f32>,
    d_att_in: Vec<f32>,
    d_h_src: Vec<f32>,
    da: Vec<f32>,
    db: Vec<f32>,
    d_w_r: Vec<f32>,
    ones: Vec<f32>,
    rows: Vec<f32>,
    touched: Vec<u32>,
    marked: Vec<bool>,
}

/// Resizes `buf` to `len` zeros.
fn zeroed(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    buf.clear();
    buf.resize(len, 0.0);
    buf
}

/// Folds one gather's backward into `dh`: the unfused tape builds a
/// zero `[n, in]` tensor, adds each edge's gradient row at its index in
/// edge order, and adds the whole tensor into `dh`'s slot. Rows no edge
/// touches contribute `+0.0`, an identity on a slot that never holds
/// `-0.0`, so only touched rows are summed (in `rows`, zero-started, in
/// edge order) and added.
fn fold_gather_backward(
    dh: &mut [f32],
    idx: &[u32],
    d_rows: &[f32],
    width: usize,
    rows: &mut [f32],
    touched: &mut Vec<u32>,
    marked: &mut [bool],
) {
    for (e, &i) in idx.iter().enumerate() {
        let i = i as usize;
        if !marked[i] {
            marked[i] = true;
            touched.push(i as u32);
        }
        kernels::add_assign(&mut rows[i * width..(i + 1) * width], &d_rows[e * width..][..width]);
    }
    for &i in touched.iter() {
        let i = i as usize;
        kernels::add_assign(&mut dh[i * width..(i + 1) * width], &rows[i * width..(i + 1) * width]);
        rows[i * width..(i + 1) * width].fill(0.0);
        marked[i] = false;
    }
    touched.clear();
}

/// The backward of one fused layer, given its input `h`, its saved
/// per-edge attention `att`, its output `y` and the output gradient
/// `grad`. Parameter gradients land in `out`; when `dh` is given (the
/// input needs a gradient), the input gradient's contributions are
/// folded into it in the unfused tape's consumer order. `dh` must hold
/// no `-0.0` (a zero-filled or canonicalized slot).
///
/// The replay, per layer (reverse creation order of the unfused nodes):
/// `relu` (the output's sign decides, as `max(x, 0) > 0 ⇔ x > 0`), then
/// per relation group from the last to the first: scatter, the
/// message-times-attention product, the ones-matmul, sigmoid, the
/// attention matmul, the concat split, the `q_r` gather, the `h_dst`
/// gather, the message matmul, the `h_src` gather and the relation
/// weight (gather or basis matmul); last the bias broadcast and the
/// self matmul.
#[allow(clippy::too_many_arguments, clippy::too_many_lines)] // one replay, step by step
pub(crate) fn layer_backward(
    w: &LayerWeights<'_>,
    edges: &LayerEdges,
    h: &[f32],
    att: &[f32],
    y: &[f32],
    grad: &[f32],
    mut dh: Option<&mut [f32]>,
    out: &mut LayerGrads,
) {
    let n = edges.num_nodes();
    let (in_dim, out_dim) = (w.in_dim, w.out_dim);
    let width = w.att_width();
    let block = in_dim * out_dim;
    let groups = edges.groups();

    // relu: gradient passes where the pre-activation was positive.
    out.dacc.clear();
    out.dacc.extend(y.iter().zip(grad).map(|(&x, &g)| if x > 0.0 { g } else { 0.0 }));

    let rel_width = match w.rel {
        RelWeights::Full(_) => block,
        RelWeights::Bases { num_bases, .. } => num_bases,
    };
    zeroed(&mut out.rel_rows, groups.len() * rel_width);
    zeroed(&mut out.attn_rows, groups.len() * w.attn_dim);
    out.d_w_attn.clear();
    out.d_bases.clear();
    if dh.is_some() {
        zeroed(&mut out.rows, n * in_dim);
        out.marked.clear();
        out.marked.resize(n, false);
    }
    out.ones.clear();
    out.ones.resize(out_dim, 1.0);

    let mut end = att.len();
    for (gi, group) in groups.iter().enumerate().rev() {
        let n_e = group.srcs.len();
        let a = &att[end - n_e..end];
        end -= n_e;

        // Recompute the forward intermediates this group's backward
        // reads: gathered sources, attention inputs, messages.
        let w_r = w.relation(group.rel, &mut out.w_r);
        gather_edge_inputs(
            w,
            h,
            group.rel,
            &group.srcs,
            &group.dsts,
            &mut out.h_src,
            &mut out.att_in,
        );
        out.msgs.resize(n_e * out_dim, 0.0);
        kernels::matmul(&out.h_src, w_r, &mut out.msgs, n_e, in_dim, out_dim);

        // scatter_add_rows → mul(msgs, att_wide): the scattered rows are
        // the accumulator's gradient at each edge's destination.
        zeroed(&mut out.d_msgs, n_e * out_dim);
        zeroed(&mut out.d_att_wide, n_e * out_dim);
        for (e, &d) in group.dsts.iter().enumerate() {
            let dw = &out.dacc[d as usize * out_dim..(d as usize + 1) * out_dim];
            let m = &out.msgs[e * out_dim..(e + 1) * out_dim];
            let dm = &mut out.d_msgs[e * out_dim..(e + 1) * out_dim];
            for (x, &g) in dm.iter_mut().zip(dw) {
                *x = g * a[e];
            }
            kernels::mul(dw, m, &mut out.d_att_wide[e * out_dim..(e + 1) * out_dim]);
        }
        // matmul(att, ones_row): dA = d_att_wide · onesᵀ.
        let d_att = zeroed(&mut out.d_att, n_e);
        kernels::matmul_a_bt_acc(&out.d_att_wide, &out.ones, d_att, n_e, out_dim, 1);
        // sigmoid.
        out.d_logit.clear();
        out.d_logit.extend(out.d_att.iter().zip(a).map(|(&g, &y)| g * y * (1.0 - y)));
        // matmul(att_in, w_attn): dA into the concat, dB into w_attn.
        let d_att_in = zeroed(&mut out.d_att_in, n_e * width);
        kernels::matmul_a_bt_acc(&out.d_logit, w.w_attn, d_att_in, n_e, 1, width);
        let db = zeroed(&mut out.db, width);
        kernels::matmul_at_b_acc(&out.att_in, &out.d_logit, db, width, n_e, 1);
        if out.d_w_attn.is_empty() {
            out.d_w_attn.extend_from_slice(&out.db);
        } else {
            kernels::add_assign(&mut out.d_w_attn, &out.db);
        }
        // concat split → gather(attn_embed, [rel; E]).
        let q_row = &mut out.attn_rows[gi * w.attn_dim..(gi + 1) * w.attn_dim];
        for e in 0..n_e {
            let row = &out.d_att_in[e * width..(e + 1) * width];
            kernels::add_assign(q_row, &row[2 * in_dim..]);
        }
        // gather(h, dsts).
        if let Some(dh) = dh.as_deref_mut() {
            let d_dst: &mut Vec<f32> = &mut out.da;
            d_dst.clear();
            for e in 0..n_e {
                d_dst.extend_from_slice(&out.d_att_in[e * width + in_dim..e * width + 2 * in_dim]);
            }
            fold_gather_backward(
                dh,
                &group.dsts,
                &out.da,
                in_dim,
                &mut out.rows,
                &mut out.touched,
                &mut out.marked,
            );
        }
        // matmul(h_src, w_r): dA joins the concat's h_src part, dB is
        // the relation weight's gradient.
        if dh.is_some() {
            out.d_h_src.clear();
            for e in 0..n_e {
                out.d_h_src.extend_from_slice(&out.d_att_in[e * width..e * width + in_dim]);
            }
            let da = zeroed(&mut out.da, n_e * in_dim);
            kernels::matmul_a_bt_acc(&out.d_msgs, w_r, da, n_e, out_dim, in_dim);
            kernels::add_assign(&mut out.d_h_src, &out.da);
        }
        let d_w_r = zeroed(&mut out.d_w_r, block);
        kernels::matmul_at_b_acc(&out.h_src, &out.d_msgs, d_w_r, in_dim, n_e, out_dim);
        // gather(h, srcs).
        if let Some(dh) = dh.as_deref_mut() {
            fold_gather_backward(
                dh,
                &group.srcs,
                &out.d_h_src,
                in_dim,
                &mut out.rows,
                &mut out.touched,
                &mut out.marked,
            );
        }
        // The relation weight: a row gather of the full stack, or
        // reshape(matmul(gather(coeffs, [rel]), bases)).
        let rel_row = &mut out.rel_rows[gi * rel_width..(gi + 1) * rel_width];
        match w.rel {
            RelWeights::Full(_) => kernels::add_assign(rel_row, &out.d_w_r),
            RelWeights::Bases { coeffs, bases, num_bases } => {
                let dc = zeroed(&mut out.da, num_bases);
                kernels::matmul_a_bt_acc(&out.d_w_r, bases, dc, 1, block, num_bases);
                kernels::add_assign(rel_row, &out.da);
                let c_r = &coeffs[group.rel * num_bases..(group.rel + 1) * num_bases];
                let db = zeroed(&mut out.db, num_bases * block);
                kernels::matmul_at_b_acc(c_r, &out.d_w_r, db, num_bases, 1, block);
                if out.d_bases.is_empty() {
                    out.d_bases.extend_from_slice(&out.db);
                } else {
                    kernels::add_assign(&mut out.d_bases, &out.db);
                }
            }
        }
    }

    // broadcast_row(bias, n).
    let d_bias = zeroed(&mut out.d_bias, out_dim);
    for row in out.dacc.chunks_exact(out_dim) {
        kernels::add_assign(d_bias, row);
    }
    // matmul(h, W_self).
    if let Some(dh) = dh {
        let da = zeroed(&mut out.da, n * in_dim);
        kernels::matmul_a_bt_acc(&out.dacc, w.w_self, da, n, out_dim, in_dim);
        kernels::add_assign(dh, &out.da);
    }
    let d_w_self = zeroed(&mut out.d_w_self, block);
    kernels::matmul_at_b_acc(h, &out.dacc, d_w_self, in_dim, n, out_dim);
}
