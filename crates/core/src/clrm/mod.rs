//! CLRM — Contrastive Learning-based Relation-specific Feature Modeling.
//!
//! The module learns one feature vector `f_k` per relation (Eq. 1) and
//! represents any entity — seen or unseen — as the count-weighted mean
//! of the features of its associated relations (Eq. 3):
//!
//! ```text
//! e_i = Σ_k a_i^k · f_k / Σ_k a_i^k
//! ```
//!
//! Because the fusion consumes only the entity's relation-component
//! table, original-KG and emerging-KG entities land in the *same*
//! feature space with no shared topology required — this is what lets
//! DEKG-ILP score bridging links at all.
//!
//! The semantic likelihood of a triple is a DistMult form (Eq. 4):
//! `φ_sem = Σ_d e_i[d] · r_k[d] · e_j[d]`.
//!
//! [`sampling`] implements the semantic-aware perturbations (o₁–o₃)
//! whose positive/negative examples drive the contrastive loss (Eq. 7).

pub mod sampling;

use dekg_kg::{ComponentRow, ComponentTable, Triple};
use dekg_tensor::{init, Graph, ParamId, ParamStore, Tensor, Var};
use rand::Rng;

/// The CLRM parameters: relation features `F` and the semantic decoder
/// embeddings `r^sem`.
///
/// ```
/// use dekg_core::clrm::Clrm;
/// use dekg_kg::{ComponentRow, RelationId};
/// use dekg_tensor::{Graph, ParamStore};
/// use rand::SeedableRng;
///
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0);
/// let mut params = ParamStore::new();
/// let clrm = Clrm::new(4, 8, "clrm", &mut params, &mut rng);
///
/// // An entity associated with relation 1 three times and relation 2
/// // once — its embedding is the 3:1 weighted mean of those features,
/// // no entity identity involved.
/// let row = ComponentRow::from_pairs([(RelationId(1), 3), (RelationId(2), 1)]);
/// let mut g = Graph::new();
/// let emb = clrm.fuse_rows(&mut g, &params, &[&row]);
/// assert_eq!(g.shape(emb).dims(), &[1, 8]);
/// ```
#[derive(Debug, Clone)]
pub struct Clrm {
    num_relations: usize,
    dim: usize,
    /// `F ∈ R^{|R| × d}` — relation-specific features (Eq. 1).
    features: ParamId,
    /// `r^sem ∈ R^{|R| × d}` — DistMult decoder weights (Eq. 4).
    rel_sem: ParamId,
}

/// CLRM's parameters mounted once on a tape, shared by every score and
/// contrastive term of a training batch (see [`Clrm::mount`]).
#[derive(Debug, Clone, Copy)]
pub struct MountedClrm {
    features: Var,
    rel_sem: Var,
}

impl Clrm {
    /// Registers CLRM parameters under `prefix`.
    pub fn new(
        num_relations: usize,
        dim: usize,
        prefix: &str,
        params: &mut ParamStore,
        rng: &mut impl Rng,
    ) -> Self {
        assert!(num_relations > 0 && dim > 0);
        let features = params
            .insert(format!("{prefix}.features"), init::xavier_uniform([num_relations, dim], rng));
        let rel_sem = params
            .insert(format!("{prefix}.rel_sem"), init::xavier_uniform([num_relations, dim], rng));
        Clrm { num_relations, dim, features, rel_sem }
    }

    /// Embedding dimension `d`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Relation-space size `|R|`.
    pub fn num_relations(&self) -> usize {
        self.num_relations
    }

    /// The normalized fusion weights of one component row: a dense
    /// `[|R|]` vector with `a_i^k / Σ a_i^k` (all zeros for an empty
    /// row, yielding a zero embedding).
    fn fusion_weights(&self, row: &ComponentRow) -> Vec<f32> {
        let mut w = vec![0.0f32; self.num_relations];
        let total = row.total();
        if total > 0 {
            let inv = 1.0 / total as f32;
            for &(rel, count) in row.entries() {
                w[rel.index()] = count as f32 * inv;
            }
        }
        w
    }

    /// Mounts `F` and `r^sem` on `g` once. Every fusion and score of a
    /// batch can share the handles; gradients are exactly those of
    /// mounting per call, because each call's single consumer hands the
    /// shared leaf the partial it handed its own leaf, in the same
    /// reverse order.
    pub fn mount(&self, g: &mut Graph, params: &ParamStore) -> MountedClrm {
        MountedClrm {
            features: g.param(params, self.features),
            rel_sem: g.param(params, self.rel_sem),
        }
    }

    /// Fuses a batch of component rows into semantic embeddings
    /// `[rows.len(), d]` (Eq. 3). Differentiates into `F`.
    pub fn fuse_rows(&self, g: &mut Graph, params: &ParamStore, rows: &[&ComponentRow]) -> Var {
        let f = g.param(params, self.features);
        self.fuse_with(g, f, rows)
    }

    /// [`Clrm::fuse_rows`] against a mounted `F`.
    fn fuse_with(&self, g: &mut Graph, features: Var, rows: &[&ComponentRow]) -> Var {
        assert!(!rows.is_empty(), "fuse_rows on empty batch");
        let mut data = Vec::with_capacity(rows.len() * self.num_relations);
        for row in rows {
            data.extend_from_slice(&self.fusion_weights(row));
        }
        let weights = g.constant(Tensor::from_vec(vec![rows.len(), self.num_relations], data));
        g.matmul(weights, features)
    }

    /// Semantic scores `φ_sem` for a batch of triples: `[batch]` (Eq. 4).
    pub fn score(
        &self,
        g: &mut Graph,
        params: &ParamStore,
        tables: &ComponentTable,
        triples: &[Triple],
    ) -> Var {
        let mounted = self.mount(g, params);
        self.score_mounted(g, &mounted, tables, triples)
    }

    /// [`Clrm::score`] against handles from [`Clrm::mount`].
    pub fn score_mounted(
        &self,
        g: &mut Graph,
        mounted: &MountedClrm,
        tables: &ComponentTable,
        triples: &[Triple],
    ) -> Var {
        assert!(!triples.is_empty(), "score on empty batch");
        let rows = |pick: fn(&Triple) -> dekg_kg::EntityId| -> Vec<&ComponentRow> {
            triples.iter().map(|t| tables.row(pick(t))).collect()
        };
        let rels: Vec<usize> = triples.iter().map(|t| t.rel.index()).collect();
        let e_i = self.fuse_with(g, mounted.features, &rows(|t| t.head));
        let e_j = self.fuse_with(g, mounted.features, &rows(|t| t.tail));
        let r = g.gather_rows(mounted.rel_sem, &rels);
        g.trilinear_rows(e_i, r, e_j)
    }

    /// The contrastive loss (Eq. 7) for one anchor entity given
    /// perturbed positive/negative rows:
    ///
    /// `L_c = mean([dist(e_pos, e) − dist(e_neg, e) + γ]_+)`
    ///
    /// where `dist` is the Euclidean distance and pairs are aligned by
    /// index. `mounted` comes from [`Clrm::mount`].
    ///
    /// # Panics
    /// If the pair counts differ or are zero.
    pub fn contrastive_loss(
        &self,
        g: &mut Graph,
        mounted: &MountedClrm,
        anchor: &ComponentRow,
        positives: &[ComponentRow],
        negatives: &[ComponentRow],
        margin: f32,
    ) -> Var {
        assert_eq!(positives.len(), negatives.len(), "pos/neg counts must match");
        assert!(!positives.is_empty(), "need at least one contrastive pair");
        let n = positives.len();
        let anchor_rows: Vec<&ComponentRow> = vec![anchor; n];
        let pos_rows: Vec<&ComponentRow> = positives.iter().collect();
        let neg_rows: Vec<&ComponentRow> = negatives.iter().collect();
        let e_anchor = self.fuse_with(g, mounted.features, &anchor_rows);
        let e_pos = self.fuse_with(g, mounted.features, &pos_rows);
        let e_neg = self.fuse_with(g, mounted.features, &neg_rows);
        let d_pos = g.rowwise_dist(e_pos, e_anchor);
        let d_neg = g.rowwise_dist(e_neg, e_anchor);
        let diff = g.sub(d_pos, d_neg);
        let shifted = g.add_scalar(diff, margin);
        let hinge = g.relu(shifted);
        g.mean_all(hinge)
    }

    /// Extracts the current (non-differentiable) embedding of one row —
    /// used by the Fig. 8 heat-map case study.
    pub fn embed_row(&self, params: &ParamStore, row: &ComponentRow) -> Vec<f32> {
        let w = self.fusion_weights(row);
        let f = params.get(self.features);
        let mut out = vec![0.0f32; self.dim];
        for (k, &wk) in w.iter().enumerate() {
            if wk != 0.0 {
                for (o, &x) in out.iter_mut().zip(f.row(k)) {
                    *o += wk * x;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dekg_kg::{RelationId, TripleStore};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn setup() -> (ParamStore, Clrm, ChaCha8Rng) {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut ps = ParamStore::new();
        let clrm = Clrm::new(4, 8, "clrm", &mut ps, &mut rng);
        (ps, clrm, rng)
    }

    fn row(pairs: &[(u32, u32)]) -> ComponentRow {
        ComponentRow::from_pairs(pairs.iter().map(|&(r, c)| (RelationId(r), c)))
    }

    #[test]
    fn fusion_is_weighted_mean_of_features() {
        let (ps, clrm, _) = setup();
        // Entity with only relation 2 → embedding equals f_2 exactly.
        let r = row(&[(2, 5)]);
        let mut g = Graph::new();
        let e = clrm.fuse_rows(&mut g, &ps, &[&r]);
        let f2 = ps.get(ps.id_of("clrm.features").unwrap()).row(2).to_vec();
        assert_eq!(g.value(e).row(0), &f2[..]);
    }

    #[test]
    fn fusion_mixes_proportionally() {
        let (ps, clrm, _) = setup();
        // Counts 3:1 between relations 0 and 1.
        let r = row(&[(0, 3), (1, 1)]);
        let mut g = Graph::new();
        let e = clrm.fuse_rows(&mut g, &ps, &[&r]);
        let f = ps.get(ps.id_of("clrm.features").unwrap());
        for d in 0..8 {
            let want = 0.75 * f.at(&[0, d]) + 0.25 * f.at(&[1, d]);
            assert!((g.value(e).at(&[0, d]) - want).abs() < 1e-6);
        }
    }

    #[test]
    fn empty_row_fuses_to_zero() {
        let (ps, clrm, _) = setup();
        let r = ComponentRow::empty();
        let mut g = Graph::new();
        let e = clrm.fuse_rows(&mut g, &ps, &[&r]);
        assert!(g.value(e).data().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn score_shape_and_symmetry() {
        let (ps, clrm, _) = setup();
        // DistMult is symmetric in head/tail when embeddings coincide.
        let store =
            TripleStore::from_triples([Triple::from_raw(0, 0, 1), Triple::from_raw(1, 1, 0)]);
        let tables = ComponentTable::from_store(&store, 2, 4);
        let mut g = Graph::new();
        let fwd = clrm.score(&mut g, &ps, &tables, &[Triple::from_raw(0, 0, 1)]);
        let bwd = clrm.score(&mut g, &ps, &tables, &[Triple::from_raw(1, 0, 0)]);
        assert_eq!(g.shape(fwd).dims(), &[1]);
        assert!((g.value(fwd).item() - g.value(bwd).item()).abs() < 1e-6);
    }

    #[test]
    fn unseen_entity_scoring_works_via_shared_relations() {
        let (ps, clrm, _) = setup();
        // Entities 0,1 "seen", 2,3 "unseen" — same relations though.
        let store =
            TripleStore::from_triples([Triple::from_raw(0, 0, 1), Triple::from_raw(2, 0, 3)]);
        let tables = ComponentTable::from_store(&store, 4, 4);
        let mut g = Graph::new();
        // Bridging triple (0, r0, 3): must produce a finite score with
        // no shared topology at all.
        let s = clrm.score(&mut g, &ps, &tables, &[Triple::from_raw(0, 0, 3)]);
        assert!(g.value(s).item().is_finite());
        // Entity 2 has the same component table as entity 0 → the
        // scores of (0,r,1) and (2,r,1) must coincide.
        let a = clrm.score(&mut g, &ps, &tables, &[Triple::from_raw(0, 0, 1)]);
        let b = clrm.score(&mut g, &ps, &tables, &[Triple::from_raw(2, 0, 1)]);
        assert!((g.value(a).item() - g.value(b).item()).abs() < 1e-6);
    }

    #[test]
    fn contrastive_loss_orders_pairs() {
        let (ps, clrm, _) = setup();
        let anchor = row(&[(0, 4), (1, 2)]);
        // Positive: same relations, varied counts. Negative: disjoint
        // relation set.
        let pos = vec![row(&[(0, 2), (1, 3)])];
        let neg = vec![row(&[(2, 3), (3, 1)])];
        let mut g = Graph::new();
        let mounted = clrm.mount(&mut g, &ps);
        let loss = clrm.contrastive_loss(&mut g, &mounted, &anchor, &pos, &neg, 1.0);
        let v = g.value(loss).item();
        assert!(v.is_finite() && v >= 0.0);
    }

    #[test]
    fn contrastive_training_separates_embeddings() {
        use dekg_tensor::optim::{Adam, Optimizer};
        let (mut ps, clrm, _) = setup();
        let anchor = row(&[(0, 4), (1, 2)]);
        let pos = vec![row(&[(0, 2), (1, 3)]), row(&[(0, 6), (1, 1)])];
        let neg = vec![row(&[(2, 3)]), row(&[(3, 2)])];
        let mut opt = Adam::new(0.05);
        let loss_val = |ps: &ParamStore| {
            let mut g = Graph::new();
            let mounted = clrm.mount(&mut g, ps);
            let l = clrm.contrastive_loss(&mut g, &mounted, &anchor, &pos, &neg, 1.0);
            (g.value(l).item(), g.backward(l))
        };
        let (before, _) = loss_val(&ps);
        for _ in 0..100 {
            let (_, grads) = loss_val(&ps);
            opt.step(&mut ps, &grads);
        }
        let (after, _) = loss_val(&ps);
        assert!(after < before, "contrastive loss should drop: {before} -> {after}");
    }

    #[test]
    fn embed_row_matches_graph_fusion() {
        let (ps, clrm, _) = setup();
        let r = row(&[(0, 1), (3, 2)]);
        let mut g = Graph::new();
        let e = clrm.fuse_rows(&mut g, &ps, &[&r]);
        let direct = clrm.embed_row(&ps, &r);
        for (a, b) in g.value(e).row(0).iter().zip(&direct) {
            assert!((a - b).abs() < 1e-6);
        }
    }
}
