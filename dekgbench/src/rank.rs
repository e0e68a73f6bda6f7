//! `rank-full`: the filtered-ranking protocol (`dekg_eval::evaluate`)
//! against the full candidate set, and its traced query-by-query
//! replay through the extraction, packing and scoring layers.

use crate::util::{median, peak_rss_mb, percentile, secs, tail, Tracer};
use crate::{Outcome, Workdir};
use dekg_core::gsm::InferenceWorkspace;
use dekg_core::{DekgIlp, DekgIlpConfig, InferenceGraph, LinkPredictor, TrainableModel};
use dekg_datasets::{loader, DekgDataset, MixRatio, SplitKind, TestMix};
use dekg_eval::ranking::filtered_candidates;
use dekg_eval::{evaluate, rank_of, EvalResult, PredictionTask, ProtocolConfig, RankQuery};
use dekg_kg::{BatchedSubgraphs, EntityId, Subgraph, SubgraphExtractor, Triple, TripleStore};
use dekg_tensor::Graph;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Mutex;
use std::time::Instant;

/// Scale of the FB15k-237 EQ profile.
pub const SCALE: f64 = 0.08;

/// Training epochs of the rank fixture's model: enough for its filtered
/// MRR to sit at 2.2–3.2 times the chance MRR of its candidate sets
/// (after one epoch it barely cleared chance, so a scorer gone random
/// hardly moved the quality figure).
const FIXTURE_EPOCHS: usize = 15;

/// Writes the dataset and a checkpoint trained for [`FIXTURE_EPOCHS`]
/// by the code under test (from the dataset as loaded back from disk, so
/// the vocabulary order is the one every later load sees). Weights and
/// training stream both come from the fixed data seed: across twenty
/// training streams the MRR ranged 0.108–0.154, a spread that would
/// swamp any bound on ranking quality.
pub fn fixture(dir: &Workdir) {
    crate::write_dataset(SCALE, None, &dir.data());
    let dataset = loader::load_dir(dir.data(), "rank-full").expect("reload rank-full dataset");
    let cfg = DekgIlpConfig { epochs: FIXTURE_EPOCHS, ..DekgIlpConfig::quick() };
    let mut rng = ChaCha8Rng::seed_from_u64(crate::DATA_SEED);
    let mut model = DekgIlp::new(cfg.clone(), &dataset, &mut rng);
    crate::pool().install(|| model.fit(&dataset, &mut rng));
    crate::write_checkpoint(&model, &cfg, &dir.ckpt());
}

/// Everything a ranking user holds after set-up.
struct Loaded {
    dataset: DekgDataset,
    graph: InferenceGraph,
    filter: TripleStore,
    model: DekgIlp,
}

/// Load, graph and filter build, checkpoint restore — timed apart.
fn setup(dir: &Workdir) -> (Loaded, [f64; 3]) {
    let t = Instant::now();
    let dataset = loader::load_dir(dir.data(), "rank-full").expect("load rank-full dataset");
    let load_s = secs(t);
    let t = Instant::now();
    let graph = InferenceGraph::from_dataset(&dataset);
    let filter = crate::eval_filter(&dataset, &graph);
    let graph_s = secs(t);
    let t = Instant::now();
    let ckpt = dir.ckpt();
    let model = DekgIlp::restore(ckpt.to_str().expect("utf-8 path"), &dataset)
        .expect("restore rank-full checkpoint");
    let model_s = secs(t);
    (Loaded { dataset, graph, filter, model }, [load_s, graph_s, model_s])
}

/// One set-up in this process: `[total, load, graph, model]` seconds.
pub fn probe_setup(dir: &Workdir) -> Vec<f64> {
    let (_, [load, graph, model]) = setup(dir);
    vec![load + graph + model, load, graph, model]
}

/// The paper's protocol: full filtered candidates, all three tasks.
fn protocol(seed: u64, threads: usize) -> ProtocolConfig {
    ProtocolConfig { num_candidates: None, seed, threads, ..ProtocolConfig::default() }
}

/// Times each `score_batch` call (one per ranking query) around the
/// model it wraps, and keeps each call's batch size (truth plus
/// candidates) for the chance baseline.
struct QueryTimer<'a> {
    model: &'a DekgIlp,
    calls: Mutex<Vec<Call>>,
}

/// One ranking query as `evaluate` scored it.
struct Call {
    ms: f64,
    batch: usize,
}

impl LinkPredictor for QueryTimer<'_> {
    fn name(&self) -> &'static str {
        self.model.name()
    }

    fn score_batch(&self, graph: &InferenceGraph, triples: &[Triple]) -> Vec<f32> {
        let t = Instant::now();
        let scores = self.model.score_batch(graph, triples);
        let ms = secs(t) * 1e3;
        let mut calls = self.calls.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        calls.push(Call { ms, batch: triples.len() });
        scores
    }

    fn num_parameters(&self) -> usize {
        self.model.num_parameters()
    }
}

/// The untraced run: whole `evaluate` passes for `seconds`, with
/// `between` run between passes, outside every timed region.
pub fn run(seed: u64, seconds: f64, dir: &Workdir, between: &mut dyn FnMut()) -> Outcome {
    let (s, _) = setup(dir);
    let mix = TestMix::build(&s.dataset, MixRatio::for_split(SplitKind::Eq));
    let cfg = protocol(seed, crate::threads());
    let timer = QueryTimer { model: &s.model, calls: Mutex::new(Vec::new()) };

    let mut out = Outcome::default();
    let mut qps = Vec::new();
    let mut first: Option<EvalResult> = None;
    let started = Instant::now();
    while qps.len() < 3 || secs(started) < seconds {
        if !qps.is_empty() {
            between();
        }
        let t = Instant::now();
        let result = evaluate(&timer, &s.graph, &s.dataset, &mix, &cfg);
        qps.push(result.timing.queries as f64 / secs(t));
        out.attempted += result.timing.queries as u64;
        let reference = first.get_or_insert_with(|| result.clone());
        out.check(
            "MRR is identical across evaluate passes",
            reference.overall.mrr.to_bits() == result.overall.mrr.to_bits(),
        );
    }
    let result = first.expect("one pass");
    let mrr = result.overall.mrr;
    out.check("MRR is a valid reciprocal rank", mrr > 0.0 && mrr <= 1.0);
    let calls = timer.calls.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    let ms: Vec<f64> = calls.iter().map(|c| c.ms).collect();
    let sizes: Vec<usize> = calls.iter().take(result.timing.queries).map(|c| c.batch).collect();
    let chance = crate::chance_mrr(&sizes);
    out.check(
        &format!("MRR is at least {}x the chance MRR of its candidate sets", crate::CHANCE_FACTOR),
        mrr >= crate::CHANCE_FACTOR * chance,
    );
    let p50 = percentile(&ms, 50.0);
    let (tp, tv) = tail(&ms);
    let throughput = median(&qps);

    out.metric("peak_rss_mb", peak_rss_mb());
    out.metric("throughput_per_s", throughput);
    out.metric("latency_ms", p50);
    out.metric("quality_error", 1.0 / mrr);
    out.note(format!(
        "rank_queries_per_s={throughput:.2} 1/s  rank_mrr={mrr:.6}  chance_mrr={chance:.6}  \
         enclosing_mrr={:.6}  \
         bridging_mrr={:.6}  query_p50_ms={p50:.3} ms  query_tail_ms={tv:.3} ms (p{tp}, n={})  \
         passes={} queries_per_pass={}",
        result.enclosing.mrr,
        result.bridging.mrr,
        ms.len(),
        qps.len(),
        result.timing.queries
    ));
    out
}

/// The traced run: one untraced single-thread `evaluate` for the wall
/// comparison and the MRR reference, then every query replayed through
/// the layers `score_batch` uses, each call inside a span.
pub fn trace(seed: u64, dir: &Workdir, tracer: &mut Tracer) -> Outcome {
    let (s, _) = setup(dir);
    let mix = TestMix::build(&s.dataset, MixRatio::for_split(SplitKind::Eq));
    let mut out = Outcome::default();

    let t = Instant::now();
    let reference = evaluate(&s.model, &s.graph, &s.dataset, &mix, &protocol(seed, 1));
    let untraced_s = secs(t);

    let tasks = PredictionTask::all();
    let mut replay = Replay::default();
    let mut batches = Vec::new();
    tracer.enter("rank.replay");
    for (li, &(truth, _)) in mix.links.iter().enumerate() {
        for (ti, task) in tasks.iter().enumerate() {
            let query = match task {
                PredictionTask::Head => RankQuery::Head(truth),
                PredictionTask::Relation => RankQuery::Relation(truth),
                PredictionTask::Tail => RankQuery::Tail(truth),
            };
            let qi = (li * tasks.len() + ti) as u64;
            let t = Instant::now();
            let batch = tracer.span("eval.candidates", || {
                let mut rng = dekg_datasets::item_rng(seed, qi);
                let cands = filtered_candidates(
                    &query,
                    s.graph.num_entities,
                    s.graph.num_relations,
                    &s.filter,
                    None,
                    &mut rng,
                );
                let mut batch = Vec::with_capacity(cands.len() + 1);
                batch.push(truth);
                batch.extend_from_slice(&cands);
                batch
            });
            let scores = replay.score(&s.model, &s.graph, &batch, tracer);
            replay.ranks.push(rank_of(scores[0], &scores[1..]));
            let ms = secs(t) * 1e3;
            if *task == PredictionTask::Relation {
                replay.relation_ms.push(ms);
            } else {
                replay.entity_ms.push(ms);
            }
            batches.push((batch, scores));
        }
    }
    tracer.exit();

    // Checks outside the traced bracket.
    let identical = batches.iter().all(|(batch, scores)| {
        let want = s.model.score_batch(&s.graph, batch);
        want.len() == scores.len()
            && want.iter().zip(scores).all(|(a, b)| a.to_bits() == b.to_bits())
    });
    out.check("replayed scores equal score_batch bitwise", identical && replay.mixed_batches == 0);
    let mrr = replay.ranks.iter().map(|r| 1.0 / r).sum::<f64>() / replay.ranks.len() as f64;
    out.check(
        "replayed MRR equals evaluate's MRR",
        (mrr - reference.overall.mrr).abs() <= 1e-12 * mrr.abs().max(1.0),
    );
    let sizes: Vec<usize> = batches.iter().map(|(batch, _)| batch.len()).collect();
    out.check(
        &format!("MRR is at least {}x the chance MRR of its candidate sets", crate::CHANCE_FACTOR),
        mrr >= crate::CHANCE_FACTOR * crate::chance_mrr(&sizes),
    );
    out.attempted = replay.ranks.len() as u64;

    out.metric("eval.candidates_s", tracer.total("eval.candidates"));
    out.metric("clrm.score_s", tracer.total("clrm.score"));
    out.metric("kg.bfs_source_s", tracer.total("kg.bfs_source"));
    out.metric("kg.extract_s", tracer.total("kg.extract"));
    out.metric(
        "kg.bfs_cache_hit_ratio",
        replay.cache_hits as f64 / replay.extractions.max(1) as f64,
    );
    out.metric("kg.pack_s", tracer.total("kg.pack"));
    out.metric("kg.pack_nodes", replay.pack_nodes as f64);
    out.metric("gsm.score_s", tracer.total("gsm.score"));
    out.metric("rank.entity_query_p50_ms", percentile(&replay.entity_ms, 50.0));
    out.metric("rank.relation_query_p50_ms", percentile(&replay.relation_ms, 50.0));
    let wall = tracer.total("rank.replay");
    out.metric("trace.coverage", tracer.coverage("rank.replay"));
    out.metric("trace.wall_s", wall);
    out.metric("trace.untraced_wall_s", untraced_s);
    out.note(format!(
        "rank replay: {} queries, MRR {mrr:.6}, traced {wall:.3} s vs untraced 1-thread evaluate {untraced_s:.3} s",
        replay.ranks.len()
    ));
    out
}

/// State of the traced query replay.
#[derive(Default)]
struct Replay {
    ws: InferenceWorkspace,
    ranks: Vec<f64>,
    entity_ms: Vec<f64>,
    relation_ms: Vec<f64>,
    extractions: u64,
    cache_hits: u64,
    pack_nodes: usize,
    /// Batches with no shared endpoint (not ranking queries).
    mixed_batches: u64,
}

impl Replay {
    /// Scores one `[truth, candidates…]` batch the way `score_batch`
    /// does on the batched path: φ_sem on one tape, φ_tpo by query
    /// shape (one extraction for a relation query; a cached source BFS
    /// plus `eval_batch`-sized packs for an entity query), summed.
    fn score(
        &mut self,
        model: &DekgIlp,
        graph: &InferenceGraph,
        batch: &[Triple],
        tracer: &mut Tracer,
    ) -> Vec<f32> {
        let mut sem = vec![0.0f32; batch.len()];
        if let Some(clrm) = model.clrm() {
            tracer.span("clrm.score", || {
                let mut g = Graph::new();
                let v = clrm.score(&mut g, model.params(), &graph.tables, batch);
                sem.copy_from_slice(g.value(v).data());
            });
        }
        let cfg = model.config();
        let extractor = SubgraphExtractor::new(&graph.adjacency, cfg.hops, cfg.extraction_mode())
            .with_backend(model.distance_backend());
        let (h0, t0) = (batch[0].head, batch[0].tail);
        let fixed_head = batch.iter().all(|t| t.head == h0);
        let fixed_tail = batch.iter().all(|t| t.tail == t0);
        let rels: Vec<dekg_kg::RelationId> = batch.iter().map(|t| t.rel).collect();
        let mut tpo = Vec::with_capacity(batch.len());
        if fixed_head && fixed_tail {
            let sg = tracer.span("kg.extract", || extractor.extract(h0, t0, None));
            self.extractions += 1;
            self.pack_nodes += sg.num_nodes();
            let ws = &mut self.ws;
            tracer.span("gsm.score", || {
                model.gsm().score_subgraph_multi_rel(model.params(), &sg, &rels, ws, &mut tpo);
            });
        } else if fixed_head || fixed_tail {
            let fixed: EntityId = if fixed_head { h0 } else { t0 };
            let cache = tracer.span("kg.bfs_source", || extractor.cache_source(fixed));
            for (chunk, chunk_rels) in
                batch.chunks(model.eval_batch().max(1)).zip(rels.chunks(model.eval_batch().max(1)))
            {
                let (subgraphs, hits) = tracer.span("kg.extract", || {
                    let mut hits = 0u64;
                    let sgs: Vec<Subgraph> = chunk
                        .iter()
                        .map(|t| {
                            let (sg, hit) =
                                extractor.extract_with_cached_source(&cache, t.head, t.tail, None);
                            hits += u64::from(hit);
                            sg
                        })
                        .collect();
                    (sgs, hits)
                });
                self.extractions += chunk.len() as u64;
                self.cache_hits += hits;
                let packed = tracer.span("kg.pack", || BatchedSubgraphs::pack(&subgraphs));
                self.pack_nodes += packed.total_nodes();
                let ws = &mut self.ws;
                tracer.span("gsm.score", || model.score_packed(&packed, chunk_rels, ws, &mut tpo));
            }
        } else {
            self.mixed_batches += 1;
            return model.score_batch(graph, batch);
        }
        sem.iter().zip(&tpo).map(|(s, t)| s + t).collect()
    }
}
