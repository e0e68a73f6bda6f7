//! The batched candidate-ranking engine == the tape oracle, bitwise.
//!
//! [`DekgIlp`]'s scoring packs candidate subgraphs block-diagonally,
//! reuses the fixed endpoint's BFS across candidates and scores through
//! reusable workspaces — all of which promise *bitwise* equality with
//! [`TapeReference`], which scores each triple's subgraph alone through
//! the autograd tape. These tests pin that contract end-to-end: same
//! ranks, same metrics, same observability counters, for every
//! `num_bases` variant and for the disconnected (bridging-link)
//! subgraphs the paper is about.

use dekg::prelude::*;
use dekg_datasets::tiny_fixture;
use dekg_eval::ranking::filtered_candidates;
use dekg_eval::{evaluate, filtered_rank, RankQuery};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The metrics registry is process-global and cargo runs this binary's
/// tests on parallel threads — tests that reset or read it take this
/// lock.
fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

fn trained_model(data: &DekgDataset, num_bases: Option<usize>, seed: u64) -> DekgIlp {
    let cfg = DekgIlpConfig { epochs: 1, num_bases, ..DekgIlpConfig::quick() };
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut model = DekgIlp::new(cfg, data, &mut rng);
    model.fit(data, &mut rng);
    model
}

/// The engine and the oracle must produce identical ranks for every
/// prediction form, on enclosing links and on bridging links (whose
/// subgraphs are disconnected), under both relation-weight layouts.
#[test]
fn ranks_are_bitwise_identical_across_scoring_paths() {
    let _obs = obs_lock();
    let data = tiny_fixture(31);
    let graph = InferenceGraph::from_dataset(&data);
    let filter = graph.store.clone();
    for num_bases in [None, Some(2)] {
        let model = trained_model(&data, num_bases, 13);
        // One enclosing link (connected subgraph) and one bridging link
        // (disconnected subgraph), all three prediction forms.
        let links = [data.test_enclosing[0], data.test_bridging[0]];
        for link in links {
            let queries = [RankQuery::Head(link), RankQuery::Relation(link), RankQuery::Tail(link)];
            for query in queries {
                let rank = |predictor: &dyn LinkPredictor| {
                    let mut rng = ChaCha8Rng::seed_from_u64(5);
                    filtered_rank(predictor, &graph, &query, &filter, Some(15), &mut rng)
                };
                assert_eq!(
                    rank(&model),
                    rank(&TapeReference(&model)),
                    "engine vs tape diverged: {num_bases:?} {query:?}"
                );
            }
        }
    }
}

/// Whole-protocol metrics must agree between the engine and the oracle
/// — every query, every class breakdown, every prediction form.
#[test]
fn protocol_metrics_are_identical_across_scoring_paths() {
    let _obs = obs_lock();
    let data = tiny_fixture(32);
    let graph = InferenceGraph::from_dataset(&data);
    let mix = TestMix::build(&data, MixRatio::for_split(SplitKind::Eq));
    let mut protocol = ProtocolConfig::sampled(12);
    protocol.seed = 17;
    for num_bases in [None, Some(2)] {
        let model = trained_model(&data, num_bases, 21);
        let engine = evaluate(&model, &graph, &data, &mix, &protocol);
        let oracle = evaluate(&TapeReference(&model), &graph, &data, &mix, &protocol);
        assert_eq!(engine.overall, oracle.overall, "num_bases {num_bases:?}");
        assert_eq!(engine.enclosing, oracle.enclosing, "num_bases {num_bases:?}");
        assert_eq!(engine.bridging, oracle.bridging, "num_bases {num_bases:?}");
        assert_eq!(engine.by_task, oracle.by_task, "num_bases {num_bases:?}");
    }
}

/// Structure-free (mixed) batches run through the same packed engine
/// as ranking queries — scores must still match the oracle bitwise,
/// including empty and singleton batches, at any packing size.
#[test]
fn mixed_and_degenerate_batches_match() {
    let _obs = obs_lock();
    let data = tiny_fixture(33);
    let graph = InferenceGraph::from_dataset(&data);
    let mut model = trained_model(&data, Some(2), 3);

    // A mixed-relation, mixed-endpoint batch: no shared structure.
    let mixed: Vec<Triple> =
        data.test_enclosing.iter().chain(&data.test_bridging).copied().take(6).collect();
    let singleton = vec![mixed[0]];
    let empty: Vec<Triple> = Vec::new();

    for batch in [&mixed, &singleton, &empty] {
        let oracle = TapeReference(&model).score_batch(&graph, batch);
        assert_eq!(oracle.len(), batch.len());
        for eval_batch in [1, 4, 64] {
            model.set_eval_batch(eval_batch);
            assert_eq!(model.score_batch(&graph, batch), oracle, "eval_batch {eval_batch}");
        }
    }
}

/// A mixed batch has no fixed endpoint to BFS once: it observes its
/// packed node total once, like a ranking query, and leaves the BFS
/// cache counters alone.
#[test]
fn mixed_batch_observes_pack_and_skips_bfs_cache() {
    let _obs = obs_lock();
    let data = tiny_fixture(36);
    let graph = InferenceGraph::from_dataset(&data);
    let mut model = trained_model(&data, None, 5);
    model.set_eval_batch(2);
    let mixed: Vec<Triple> =
        data.test_enclosing.iter().chain(&data.test_bridging).copied().take(5).collect();
    assert!(
        mixed.iter().any(|t| t.head != mixed[0].head)
            && mixed.iter().any(|t| t.tail != mixed[0].tail),
        "fixture batch must share no endpoint"
    );

    dekg_obs::reset();
    // A tail query first, so the cache counters are live and nonzero.
    let tail_query: Vec<Triple> =
        mixed.iter().map(|t| Triple { head: mixed[0].head, ..*t }).collect();
    model.score_batch(&graph, &tail_query);
    let before = dekg_obs::metrics_snapshot();
    let cache = ["dekg_eval_bfs_cache_hits_total", "dekg_eval_bfs_cache_misses_total"];
    assert!(cache.iter().map(|c| before.counters[*c]).sum::<u64>() > 0);

    model.score_batch(&graph, &mixed);
    let after = dekg_obs::metrics_snapshot();
    let nodes =
        |snap: &dekg_obs::metrics::MetricsSnapshot| snap.histograms["dekg_eval_batch_nodes"].count;
    assert_eq!(nodes(&after) - nodes(&before), 1, "one observation per batch");
    for name in cache {
        assert_eq!(before.counters[name], after.counters[name], "{name} moved");
    }
}

/// The `dekg_eval_candidates` histogram records the *scored* batch size
/// — candidates plus the truth.
#[test]
fn candidates_histogram_counts_the_truth() {
    let _obs = obs_lock();
    let data = tiny_fixture(34);
    let graph = InferenceGraph::from_dataset(&data);
    let filter = graph.store.clone();
    let model = trained_model(&data, None, 7);
    let query = RankQuery::Tail(data.test_enclosing[0]);

    // Reproduce the candidate set the ranked query will sample.
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let expected = filtered_candidates(
        &query,
        graph.num_entities,
        graph.num_relations,
        &filter,
        Some(10),
        &mut rng,
    )
    .len();

    dekg_obs::reset();
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    filtered_rank(&model, &graph, &query, &filter, Some(10), &mut rng);
    let snap = dekg_obs::metrics_snapshot();
    let h = &snap.histograms["dekg_eval_candidates"];
    assert_eq!(h.count, 1);
    assert_eq!(h.sum, expected as u64 + 1, "histogram must include the truth");
}

/// The batched engine's own metrics: one `dekg_eval_batch_nodes`
/// observation per ranked query (invariant to chunking), and the BFS
/// cache counters accounting for every entity-query candidate.
#[test]
fn batched_engine_metrics_are_recorded() {
    let _obs = obs_lock();
    let data = tiny_fixture(35);
    let graph = InferenceGraph::from_dataset(&data);
    let mix = TestMix::build(&data, MixRatio::for_split(SplitKind::Eq));
    let mut protocol = ProtocolConfig::sampled(8);
    protocol.seed = 2;
    let model = trained_model(&data, None, 11);

    dekg_obs::reset();
    evaluate(&model, &graph, &data, &mix, &protocol);
    let snap = dekg_obs::metrics_snapshot();
    let queries = snap.counters["dekg_eval_queries_total"];
    assert!(queries > 0);
    // Every ranking query is shape-detected (head/tail → entity query,
    // relation → fixed pair); each observes the packed total exactly once.
    assert_eq!(snap.histograms["dekg_eval_batch_nodes"].count, queries);
    let hits = snap.counters["dekg_eval_bfs_cache_hits_total"];
    let misses = snap.counters["dekg_eval_bfs_cache_misses_total"];
    assert!(hits + misses > 0, "entity queries must exercise the BFS cache");
}

/// Observations past the last bound land in the histogram's implicit
/// `+Inf` overflow bucket — full-entity candidate sets (beyond the
/// 4096 cap of `dekg_eval_candidates`) stay counted.
#[test]
fn histogram_overflow_bucket_catches_large_batches() {
    // Private registry: no global state, no lock needed.
    let reg = dekg_obs::metrics::Registry::new();
    let h = reg.histogram("test_candidates", &[8, 16, 32, 64, 128, 256, 512, 1024, 4096]);
    h.observe(4096); // last bounded bucket
    h.observe(4097); // overflow
    h.observe(50_000); // deep overflow
    let buckets = h.bucket_counts();
    assert_eq!(buckets.len(), 10, "bounds + implicit +Inf slot");
    assert_eq!(buckets[8], 1, "4096 lands in the last bounded bucket");
    assert_eq!(buckets[9], 2, "past-bound observations land in +Inf");
    assert_eq!(h.count(), 3);
}
