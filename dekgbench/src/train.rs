//! `train-fb`: one `DekgIlp::fit` per timed sample on the synthetic
//! FB15k-237 EQ profile, and its traced step-by-step replay.

use crate::util::{median, peak_rss_mb, percentile, secs, tail, Tracer};
use crate::{Outcome, Workdir};
use dekg_core::{DekgIlp, DekgIlpConfig, InferenceGraph, TrainableModel};
use dekg_datasets::{loader, DekgDataset, NegativeSampler};
use dekg_kg::Triple;
use dekg_tensor::optim::{Adam, Optimizer};
use dekg_tensor::Graph;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::time::Instant;

/// Scale of the FB15k-237 EQ profile (≈1.6k training triples).
pub const SCALE: f64 = 0.3;

/// The training configuration: the quick profile, one epoch per fit.
fn config() -> DekgIlpConfig {
    DekgIlpConfig { epochs: 1, ..DekgIlpConfig::quick() }
}

/// Writes the workload's dataset.
pub fn fixture(dir: &Workdir) {
    crate::write_dataset(SCALE, None, &dir.data());
}

/// The user-visible set-up: load the dataset, build the training graph
/// view, allocate the model. Returns the dataset and the three parts'
/// durations.
fn setup(dir: &Workdir) -> (DekgDataset, [f64; 3]) {
    let t = Instant::now();
    let dataset = loader::load_dir(dir.data(), "train-fb").expect("load train-fb dataset");
    let load_s = secs(t);
    let t = Instant::now();
    let graph = InferenceGraph::training_view(&dataset);
    let graph_s = secs(t);
    let t = Instant::now();
    let model = init_model(&dataset);
    let model_s = secs(t);
    drop((graph, model));
    (dataset, [load_s, graph_s, model_s])
}

/// One set-up in this process: `[total, load, graph, model]` seconds.
pub fn probe_setup(dir: &Workdir) -> Vec<f64> {
    let (_, [load, graph, model]) = setup(dir);
    vec![load + graph + model, load, graph, model]
}

/// A freshly initialized model. Initialization uses the fixed data
/// seed, so every fit starts from the same weights and `--seed` varies
/// only the training stream (shuffle, negatives, dropout, contrastive
/// sampling).
fn init_model(dataset: &DekgDataset) -> DekgIlp {
    DekgIlp::new(config(), dataset, &mut ChaCha8Rng::seed_from_u64(crate::DATA_SEED))
}

/// One untraced fit on a fresh model with the training stream seeded by
/// `seed`; returns (seconds, final loss).
fn fit_once(dataset: &DekgDataset, seed: u64) -> (f64, f32) {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut model = init_model(dataset);
    let t = Instant::now();
    let report = model.fit(dataset, &mut rng);
    (secs(t), report.final_loss)
}

/// Seconds one fit takes on the reference machine (2 cores); a run
/// makes `--seconds / FIT_S` fits, at least three.
const FIT_S: f64 = 6.0;

/// The training-stream seed of a run's `k`-th distinct fit.
fn fit_seed(seed: u64, k: usize) -> u64 {
    dekg_datasets::split_seed(seed, k as u64)
}

/// The untraced run: a fixed number of fits, each on a fresh model from
/// its own seed except the last, which repeats the first as a
/// determinism check. Throughput is the median fit; the loss is the
/// mean final loss over the distinct models. `between` runs between
/// fits, outside every timed region.
pub fn run(seed: u64, seconds: f64, dir: &Workdir, between: &mut dyn FnMut()) -> Outcome {
    let (dataset, _) = setup(dir);
    let triples = dataset.original.len() as f64;
    let steps = dataset.original.len().div_ceil(config().batch_size) as f64;
    let pool = crate::pool();
    let fits = ((seconds / FIT_S).round() as usize).max(3);

    let mut out = Outcome::default();
    let mut fit_s = Vec::new();
    let mut losses = Vec::new();
    for k in 0..fits {
        if k > 0 {
            between();
        }
        let (s, loss) = pool.install(|| fit_once(&dataset, fit_seed(seed, k % (fits - 1))));
        fit_s.push(s);
        losses.push(loss);
        out.attempted += steps as u64;
    }
    let repeat = losses.pop().expect("at least three fits");
    out.check(
        "a repeated fit reproduces its final loss bitwise",
        repeat.to_bits() == losses[0].to_bits(),
    );
    out.check("final losses are finite", losses.iter().all(|l| l.is_finite()));
    let loss = losses.iter().map(|&l| f64::from(l)).sum::<f64>() / losses.len() as f64;
    let fit = median(&fit_s);

    out.metric("peak_rss_mb", peak_rss_mb());
    out.metric("throughput_per_s", triples / fit);
    out.metric("latency_ms", fit / steps * 1e3);
    out.metric("quality_error", loss);
    out.note(format!(
        "train_triples_per_s={:.1} 1/s  train_loss={loss:.6} (mean of {} models)  \
         step_mean_ms={:.3} ms  fits={} fit_s_p50={fit:.4} s  fit_s [{}]  triples={triples} \
         steps={steps}",
        triples / fit,
        losses.len(),
        fit / steps * 1e3,
        fit_s.len(),
        fit_s.iter().map(|s| format!("{s:.3}")).collect::<Vec<_>>().join(" ")
    ));
    out
}

/// The traced run: one untraced fit for the wall-time comparison and
/// the loss reference, then the same training replayed through the
/// core crate's public step functions with a span around each call.
pub fn trace(seed: u64, dir: &Workdir, tracer: &mut Tracer) -> Outcome {
    let (dataset, _) = setup(dir);
    let pool = crate::pool();
    let mut out = Outcome::default();

    let seed = fit_seed(seed, 0);
    let (untraced_s, fit_loss) = pool.install(|| fit_once(&dataset, seed));

    dekg_tensor::prof::reset();
    dekg_tensor::prof::set_enabled(true);
    let replay = pool.install(|| replay(&dataset, seed, tracer));
    dekg_tensor::prof::set_enabled(false);
    let prof = dekg_tensor::prof::snapshot();

    out.attempted = replay.step_ms.len() as u64;
    out.check(
        "replayed mean loss equals fit's final_loss bitwise",
        replay.loss.to_bits() == fit_loss.to_bits(),
    );
    out.metric("train.prepare_s", tracer.total("train.prepare"));
    out.metric("train.forward_s", tracer.total("train.forward"));
    out.metric("train.backward_s", tracer.total("train.backward"));
    out.metric("train.optim_s", tracer.total("train.optim"));
    out.metric("train.tape_nodes", replay.tape_nodes as f64 / replay.step_ms.len() as f64);
    out.metric("train.subgraph_nodes", replay.subgraph_nodes as f64 / replay.step_ms.len() as f64);
    out.metric("train.step_p50_ms", percentile(&replay.step_ms, 50.0));
    let (p, v) = tail(&replay.step_ms);
    out.metric("train.step_tail_ms", v);
    for op in &prof.ops {
        if let Some(name) = crate::TRACKED_OPS.iter().find(|o| **o == op.op) {
            out.metric(format!("tensor.op.{name}_s"), op.total_seconds());
            out.metric(format!("tensor.op.{name}_calls"), op.total_calls() as f64);
            out.metric(
                format!("tensor.op.{name}_bytes"),
                (op.forward_bytes + op.backward_bytes) as f64,
            );
        }
    }
    let wall = tracer.total("train.replay");
    out.metric("trace.coverage", tracer.coverage("train.replay"));
    out.metric("trace.wall_s", wall);
    out.metric("trace.untraced_wall_s", untraced_s);
    let hottest: Vec<String> =
        prof.ops.iter().take(5).map(|o| format!("{}={:.3}s", o.op, o.total_seconds())).collect();
    out.note(format!(
        "train replay: {} steps, step tail at p{p}, loss {:.6}, traced {wall:.3} s vs untraced fit {untraced_s:.3} s; hottest ops {}",
        replay.step_ms.len(),
        replay.loss,
        hottest.join(" ")
    ));
    out
}

/// What one replayed fit produced.
struct Replay {
    /// Mean loss of the (single) epoch, as `fit` computes it.
    loss: f32,
    /// Wall milliseconds per step.
    step_ms: Vec<f64>,
    /// Tape nodes summed over steps.
    tape_nodes: usize,
    /// Extracted subgraph nodes summed over steps.
    subgraph_nodes: usize,
}

/// Replays `fit` step by step, mirroring `dekg_core::train::train`:
/// shuffle, then per batch `prepare_batch` → `record_prepared` →
/// `backward` → clip → `Adam::step`, on the same RNG stream.
fn replay(dataset: &DekgDataset, seed: u64, tracer: &mut Tracer) -> Replay {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut model = init_model(dataset);
    let cfg = model.config().clone();
    tracer.enter("train.replay");
    let train_graph = tracer.span("train.prepare", || InferenceGraph::training_view(dataset));
    let mut sampler =
        NegativeSampler::new(0..dataset.num_original_entities as u32, vec![&dataset.original]);
    if cfg.bernoulli_negatives {
        sampler = sampler.with_bernoulli(&dataset.original);
    }
    let mut opt = Adam::new(cfg.lr);
    let mut positives: Vec<Triple> = dataset.original.triples().to_vec();
    let mut out = Replay { loss: 0.0, step_ms: Vec::new(), tape_nodes: 0, subgraph_nodes: 0 };
    for _epoch in 0..cfg.epochs {
        positives.shuffle(&mut rng);
        let mut epoch_loss = 0.0f64;
        let mut batches = 0usize;
        for batch in positives.chunks(cfg.batch_size) {
            let step_start = Instant::now();
            let prepared = tracer.span("train.prepare", || {
                dekg_core::prepare_batch(&model, &sampler, &train_graph, batch, &mut rng)
            });
            out.subgraph_nodes += prepared
                .pos_subgraphs
                .iter()
                .chain(&prepared.neg_subgraphs)
                .map(dekg_kg::Subgraph::num_nodes)
                .sum::<usize>();
            // Each stage frees what it consumes (the prepared batch, the
            // tape, the gradients) inside its own span, as the step in
            // `fit` frees them before the next batch.
            let mut g = Graph::new();
            let parts = tracer.span("train.forward", || {
                let parts = dekg_core::record_prepared(
                    &mut g,
                    &model,
                    dataset,
                    &train_graph,
                    &prepared,
                    &mut rng,
                );
                drop(prepared);
                parts
            });
            let loss_val = g.value(parts.total).item();
            out.tape_nodes += g.len();
            let grads = tracer.span("train.backward", || {
                let grads = g.backward(parts.total);
                drop(g);
                grads
            });
            tracer.span("train.optim", || {
                let mut grads = grads;
                grads.clip_global_norm(cfg.grad_clip);
                opt.step(model.params_mut(), &grads);
            });
            out.step_ms.push(secs(step_start) * 1e3);
            epoch_loss += f64::from(loss_val);
            batches += 1;
        }
        out.loss = if batches > 0 { (epoch_loss / batches as f64) as f32 } else { 0.0 };
        if cfg.lr_decay < 1.0 {
            let lr = opt.learning_rate() * cfg.lr_decay;
            opt.set_learning_rate(lr);
        }
    }
    tracer.exit();
    out
}
