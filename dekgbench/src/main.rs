//! The DEKG-ILP benchmark: end-to-end and per-layer cost of training,
//! filtered ranking and serving, on synthetic FB15k-237 EQ data.
//!
//! # Running
//!
//! From the repository root (the first run builds, about a minute):
//!
//! ```sh
//! B="cargo run --release --offline --quiet --manifest-path dekgbench/Cargo.toml --"
//! $B --workload rank-full --seed 1 --seconds 30 --trace 0   # end-to-end metrics
//! $B --workload rank-full --seed 1 --seconds 30 --trace 1   # per-layer metrics
//! $B --compare .bench_out/rank-full-seed1-trace0.json OTHER.json
//! ```
//!
//! Workloads are `train-fb`, `rank-full` and `serve-open`. The last line
//! of standard output is one JSON object `{"correct", "attempted",
//! "failed", "metrics"}`. The lines before it give the fingerprint
//! (`nproc`, `available_parallelism`, build profile, `rustc -V`, the
//! fixed serve rates and latency limit), every check with its verdict,
//! and the workload's results under the names the design uses
//! (`train_triples_per_s`, `rank_mrr`, `serve_heavy_tail_ms`, …). The
//! same record is written to `.bench_out/<workload>-seed<N>-trace<T>.json`;
//! `--compare A B` prints the change of every metric between two records
//! and refuses (exit 3) when their fingerprints differ. A traced run also
//! writes its spans (id, name, start, end, parent) to
//! `.bench_out/<workload>-seed<N>.spans.jsonl`.
//!
//! # Inputs
//!
//! Every run writes its inputs to a scratch directory (`.bench_work/`,
//! removed at exit) and the program reads them back from there: the
//! synthetic dataset through `dekg_datasets::loader::load_dir`, and a
//! checkpoint pair through `DekgIlp::restore`. The fixture (dataset
//! files, checkpoints, the serve request pool with its expected answers)
//! is made by a child process, so its time and memory count nowhere;
//! set-up is timed in further child processes (see below).
//! The synthetic graph, and the initial weights of every workload's
//! model, come from the fixed [`DATA_SEED`]: two generator
//! seeds of graphs this small differ by up to 1.5× in per-query cost,
//! which would drown any change under review. `--seed` drives everything
//! else: the `train-fb` training streams (shuffle, negatives, dropout),
//! candidate sampling and the serve request stream. The `rank-full`
//! fixture trains from the fixed seed as well (see [`rank::fixture`]),
//! and full candidate sets take no sampling, so its inputs are the same
//! for every `--seed`. Load
//! comes from this one process, with at most `nproc` worker threads and
//! connections.
//!
//! # Workloads
//!
//! * `train-fb` — `DekgIlp::fit` (quick profile, one epoch) on FB EQ at
//!   scale 0.3 (|R| = 180, ≈1.6k triples, ≈100 steps), `--seconds / 6`
//!   fits (at least three) from one initialization, each with its own
//!   training stream but the last, which repeats the first. Exercises
//!   the training tape and R-GCN record and backward; barely touches
//!   extraction, never serving. Per subgraph node an FB step costs
//!   several times a WN18RR (|R| = 9) step, which points at per-relation
//!   weight re-mounting.
//! * `rank-full` — `dekg_eval::evaluate` over the EQ test mix (enclosing
//!   and bridging links; head, relation and tail tasks) on FB EQ at
//!   scale 0.08 against the full filtered candidate set, with
//!   `nproc` threads, repeated for `--seconds`. The model is trained for
//!   15 epochs by the code under test while the fixture is made, which
//!   puts its MRR well above the chance MRR of its candidate sets. A
//!   change to training numerics retrains a different model, which can
//!   move `rank_mrr` by up to about ±20% on its own.
//!   Exercises batched inference and BFS reuse, with no tape, backward
//!   or HTTP.
//! * `serve-open` — an in-process `dekg serve` (`ServeConfig::default()`)
//!   over FB EQ at scale 1.0 from a freshly initialized checkpoint,
//!   driven by `/rank` bodies cycling head, relation and tail tasks with
//!   50 sampled candidates. The run is a series of rounds (one per
//!   five `--seconds`), each an open-loop slice at the light rate and two
//!   closed-loop windows over the same 96 requests (one per test link),
//!   one from a single connection and one from `nproc` connections; after
//!   the middle round, 15% of `--seconds` at the heavy rate with
//!   `POST /admin/reload` of the same checkpoint every second (the light
//!   and heavy rates are about a quarter and three quarters of the
//!   capacity measured on the reference machine; see
//!   [`serve::LIGHT_RPS`]); last, 15% for a rate sweep up from the heavy
//!   rate for the highest rate whose tail stays under
//!   [`serve::LATENCY_LIMIT_MS`] with no growing backlog. Open-loop
//!   latency runs from each request's scheduled send time, and the
//!   generator's lateness is reported. Open-loop load between one and two
//!   workers' capacity is what shows a worker scoring a drained admission
//!   batch serially while the other idles.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Every workload reports the same five, over its own unit of work:
//!
//! | metric | `train-fb` | `rank-full` | `serve-open` |
//! |---|---|---|---|
//! | `setup_s` | load + training view + model init | load + graph + filter + restore | bind → `/readyz` 200 |
//! | `peak_rss_mb` | process peak RSS | same | same |
//! | `throughput_per_s` | `train_triples_per_s` (median fit) | `rank_queries_per_s` (median pass) | `serve_capacity_rps` (median saturated window) |
//! | `latency_ms` | mean step time (median fit) | query p50 | `serve_sequential_p50_ms` (one-connection request p50) |
//! | `quality_error` | `train_loss` (mean over the distinct fits) | 1 / `rank_mrr` | 1 / MRR of the served answers |
//!
//! `quality_error` is the inverse MRR on the ranking workloads so that
//! its relative bound reads as a relative change of MRR (a scorer gone
//! random roughly doubles it). On `train-fb`, `latency_ms` is the median
//! fit's time over its step count: `fit` offers no per-step hook, so it
//! is the same measurement as `throughput_per_s`, scaled; the traced
//! run times every step (`train.step_p50_ms`, `train.step_tail_ms`).
//!
//! Set-up is what a user waits for in a fresh process, so it is timed
//! as the first set-up of each of many child processes (a warm repeat
//! inside one process hides the cold cost, and one process alone
//! carries its own layout luck): [`SETUP_PROBES_EDGE`] before the
//! measured work, [`SETUP_PROBES_BETWEEN`] between each two of its timed
//! units (fits, `evaluate` passes, serve rounds) and
//! [`SETUP_PROBES_EDGE`] after it, and the mean of their middle half is
//! reported: on the reference machine a cold set-up runs in one of two
//! speeds (about 1.6× apart) that hold for seconds at a time, so probes
//! taken back to back would report whichever held then. The
//! info lines add `serve_light_p50_ms`, `serve_light_tail_ms`,
//! `serve_heavy_p50_ms`, `serve_heavy_tail_ms`, `serve_sequential_rps`,
//! `serve_max_rps` and the rank query tail; the traced run reports them
//! too. "Tail" is the highest of p99.9/p99/p95/p90/p75 that leaves at
//! least ten samples beyond it, printed with its percentile and sample
//! count.
//!
//! Serving figures are taken from windows spread over the whole run,
//! each window over the same requests, so that a spell of a shared host
//! lasting a few seconds moves one window, not the median. Saturated
//! capacity is also a lottery per window: with two connections and two
//! workers, a worker that lingers for an admission batch may take both
//! connections' requests and score them in turn while the other idles,
//! or each worker may take one; one run's windows read 101–150 rps, and
//! the median of six removes most of that. What remains is the host's
//! speed over a whole run, which moves serving more than the
//! compute-bound workloads because every request wakes idle cores (on
//! ten runs of the reference machine, the IQR over the median was 0.14
//! for capacity against 0.11 for `rank-full` throughput). The open-loop
//! light p50 is the latency a lone request finds on an idle daemon,
//! and it moves most: 40-request slices of one run read 7.7–12.3 ms,
//! and the IQR over the median of ten runs' p50 was 0.20. So the
//! end-to-end serve latency is the p50 of the one-connection windows (a
//! caller that sends each request once the last is answered; 0.15 on
//! the same runs), and the light figures are printed beside it.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! The traced run replays the same work through each layer's public
//! functions, with the benchmark's own spans around every call; the
//! program's own `dekg_obs` spans are off in both runs. Every traced run
//! prints every per-layer metric; one a workload does not exercise reads
//! 0 there.
//!
//! | layer metric | timed public call | should move | on | flat on |
//! |---|---|---|---|---|
//! | `datasets.load_s`, `core.graph_build_s`, `core.model_restore_s`, `serve.ready_s` | `loader::load_dir`; `InferenceGraph::from_dataset`/`training_view` + filter; `DekgIlp::restore`/`new`; `Server::bind` + `install_engine` until `/readyz` | `setup_s` | all | — |
//! | `train.prepare_s` | `prepare_batch` (negatives + extraction) | train throughput | train-fb | rank, serve |
//! | `train.forward_s`, `train.tape_nodes` | `record_prepared`, `Graph::len` | train throughput | train-fb | rank, serve |
//! | `train.backward_s` | `Graph::backward` | train throughput | train-fb | rank, serve |
//! | `train.optim_s` | `GradStore::clip_global_norm` + `Adam::step` | train throughput | train-fb | rank, serve |
//! | `train.step_p50_ms`, `train.step_tail_ms`, `train.subgraph_nodes` | per replayed step | train throughput | train-fb | — |
//! | `tensor.op.<Op>_s`/`_calls`/`_bytes` | `dekg_tensor::prof` rows read during the train replay | train throughput (rank when a kernel is shared) | train-fb | serve light p50 |
//! | `eval.candidates_s` | `ranking::filtered_candidates` | rank throughput | rank-full | train-fb |
//! | `clrm.score_s` | `Clrm::score` | rank throughput, serve p50 | rank-full | train-fb |
//! | `kg.bfs_source_s`, `kg.extract_s`, `kg.bfs_cache_hit_ratio` | `SubgraphExtractor::cache_source`, `extract_with_cached_source`, `extract` | rank throughput | rank-full | train-fb |
//! | `kg.pack_s`, `kg.pack_nodes` | `BatchedSubgraphs::pack` | rank throughput | rank-full | train-fb |
//! | `gsm.score_s` | `DekgIlp::score_packed`, `Gsm::score_subgraph_multi_rel` | rank throughput, serve light p50 | rank-full | train-fb |
//! | `rank.entity_query_p50_ms`, `rank.relation_query_p50_ms` | per replayed query | rank throughput | rank-full | — |
//! | `serve.light_p50_ms`, `serve.light_tail_ms`, `serve.heavy_p50_ms`, `serve.heavy_tail_ms`, `serve.max_rps` | per request, from its scheduled time; the sweep | serve latency and capacity | serve-open | — |
//! | `serve.sequential_rps`, `serve.capacity_rps` | median one-connection and saturated window | serve throughput | serve-open | — |
//! | `serve.heavy_queue_wait_p50_ms`, `serve.heavy_queue_wait_tail_ms`, `serve.light_queue_wait_p50_ms` | `X-Dekg-Queue-Us` | heavy tail, max rps | heavy | light (≈1 ms linger floor) |
//! | `serve.score_ms` | `X-Dekg-Score-Us` | light p50 | serve-open | — |
//! | `serve.http_other_ms` | client time − queue − score | light p50 | light | — |
//! | `serve.light_admission_batch_mean`, `serve.heavy_admission_batch_mean` | `/metrics` `dekg_serve_batch_size` sum/count | heavy latencies | heavy | light |
//! | `serve.reload_ms`, `serve.generator_late_ms` | `POST /admin/reload`; schedule slip | heavy tail (validity) | serve-open | — |
//!
//! `trace.coverage` is the share of the traced bracket (`train.replay`,
//! `rank.replay`) that its direct child spans cover, which is the sum of
//! the layer self-times; at least 0.9 is required. For serving it is the
//! share of a fixed-rate request's client time that the daemon
//! attributes itself (queue wait plus scoring, from its headers), at the
//! median over requests; the `serve.http` span holds the unattributed
//! rest, `serve.http_other_ms`. `trace.wall_s` and
//! `trace.untraced_wall_s` put the traced bracket next to the same work
//! untraced (one `fit`; a one-thread `evaluate`). The gap is not all
//! tracing overhead: the first of two identical passes in a process is
//! often the slower one. Serving spans are laid out after the run from
//! each request's measured times, so serving has no separate untraced
//! figure.
//!
//! # Checks
//!
//! Any failed check makes `correct` false and the exit status 1 (after
//! the record and the result line are written). `train-fb`: the repeated
//! fit reproduces its final loss bitwise, and (traced) the replay's mean
//! loss equals `fit`'s `final_loss` bitwise. `rank-full`: the MRR is
//! identical across passes and at least [`CHANCE_FACTOR`] times the
//! chance MRR of its candidate sets, and (traced) the replay's scores
//! equal `score_batch` bitwise and give `evaluate`'s MRR. `serve-open`:
//! every response is 200 and byte-matches the library's `filtered_rank`
//! answer for the same `(seed, index)`, across reloads too (a 429 counts
//! as failed), and the served MRR clears chance by the margin set in
//! `serve.rs` (the served model is untrained). The bitwise checks compare
//! the code under test with itself; the chance checks are what fail when
//! scores turn to noise. Every traced run: stage coverage at least 0.9.
//!
//! The older `perf` binary and `BENCH_perf.json` are left untouched;
//! folding them into this benchmark is a later change.

mod rank;
mod serve;
mod train;
mod util;

use dekg_datasets::{generate, loader, DatasetProfile, RawKg, SplitKind, SynthConfig};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`): name and unit.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
    ("latency_ms", "ms"),
    ("quality_error", "score"),
];

/// Tensor ops whose profiler rows the traced train replay reports.
pub const TRACKED_OPS: [&str; 4] = ["GatherRows", "Matmul", "Add", "ScatterAddRows"];

/// Per-layer metrics (`--trace 1`): name and unit.
fn per_layer() -> Vec<(String, &'static str)> {
    let fixed: [(&str, &str); 42] = [
        ("datasets.load_s", "s"),
        ("core.graph_build_s", "s"),
        ("core.model_restore_s", "s"),
        ("serve.ready_s", "s"),
        ("train.prepare_s", "s"),
        ("train.forward_s", "s"),
        ("train.backward_s", "s"),
        ("train.optim_s", "s"),
        ("train.tape_nodes", "count"),
        ("train.subgraph_nodes", "count"),
        ("train.step_p50_ms", "ms"),
        ("train.step_tail_ms", "ms"),
        ("eval.candidates_s", "s"),
        ("clrm.score_s", "s"),
        ("kg.bfs_source_s", "s"),
        ("kg.extract_s", "s"),
        ("kg.bfs_cache_hit_ratio", "ratio"),
        ("kg.pack_s", "s"),
        ("kg.pack_nodes", "count"),
        ("gsm.score_s", "s"),
        ("rank.entity_query_p50_ms", "ms"),
        ("rank.relation_query_p50_ms", "ms"),
        ("serve.light_p50_ms", "ms"),
        ("serve.max_rps", "1/s"),
        ("serve.sequential_rps", "1/s"),
        ("serve.capacity_rps", "1/s"),
        ("serve.sequential_p50_ms", "ms"),
        ("serve.light_tail_ms", "ms"),
        ("serve.heavy_p50_ms", "ms"),
        ("serve.heavy_tail_ms", "ms"),
        ("serve.light_queue_wait_p50_ms", "ms"),
        ("serve.heavy_queue_wait_p50_ms", "ms"),
        ("serve.heavy_queue_wait_tail_ms", "ms"),
        ("serve.score_ms", "ms"),
        ("serve.http_other_ms", "ms"),
        ("serve.light_admission_batch_mean", "count"),
        ("serve.heavy_admission_batch_mean", "count"),
        ("serve.reload_ms", "ms"),
        ("serve.generator_late_ms", "ms"),
        ("trace.coverage", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.untraced_wall_s", "s"),
    ];
    let mut all: Vec<(String, &str)> = fixed.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    for op in TRACKED_OPS {
        all.push((format!("tensor.op.{op}_s"), "s"));
        all.push((format!("tensor.op.{op}_calls"), "count"));
        all.push((format!("tensor.op.{op}_bytes"), "bytes"));
    }
    all
}

/// Fresh processes whose first set-up is timed before the measured work,
/// and again after it.
const SETUP_PROBES_EDGE: usize = 6;

/// Fresh processes whose first set-up is timed between two timed units
/// of an untraced run (fits, `evaluate` passes, serve rounds).
const SETUP_PROBES_BETWEEN: usize = 3;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["train-fb", "rank-full", "serve-open"];

/// A workload run's verdicts, counters and measurements.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the measured (or replayed) region.
    pub attempted: u64,
    /// Operations that failed (an error, a 429 or a wrong answer).
    pub failed: u64,
    /// Each check and whether it held (a repeated check is folded).
    pub checks: Vec<(String, bool)>,
    /// Measured metrics by name.
    pub metrics: BTreeMap<String, f64>,
    /// Human-readable result lines.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a check; repeated names fold with logical AND.
    pub fn check(&mut self, name: &str, ok: bool) {
        match self.checks.iter_mut().find(|(n, _)| n == name) {
            Some((_, v)) => *v &= ok,
            None => self.checks.push((name.to_owned(), ok)),
        }
    }

    /// Records a metric.
    pub fn metric(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }

    /// Adds a result line.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// A run's scratch directory under `.bench_work/`, removed on drop.
pub struct Workdir(pub PathBuf);

impl Workdir {
    /// The dataset directory.
    pub fn data(&self) -> PathBuf {
        self.0.join("data")
    }

    /// The checkpoint path (its config sidecar is `<ckpt>.json`).
    pub fn ckpt(&self) -> PathBuf {
        self.0.join("model.dekg")
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Generator seed of the synthetic knowledge graphs (and of every
/// workload's initial weights). The graph is held fixed
/// across `--seed`s: on graphs this small, two generator seeds differ in
/// per-query cost by up to 1.5×, which would swamp every comparison.
/// `--seed` drives everything else — training order and negatives,
/// candidate sampling and the request stream.
pub const DATA_SEED: u64 = 2023;

/// Generates the synthetic FB15k-237 EQ dataset at `scale` (test
/// splits optionally clamped to `tests` links each) and writes it to
/// `dir`.
pub fn write_dataset(scale: f64, tests: Option<(usize, usize)>, dir: &Path) {
    let profile = DatasetProfile::table2(RawKg::Fb15k237, SplitKind::Eq).scaled(scale);
    let mut synth = SynthConfig::for_profile(profile, DATA_SEED);
    if let Some((lo, hi)) = tests {
        synth.num_test_enclosing = synth.num_test_enclosing.clamp(lo, hi);
        synth.num_test_bridging = synth.num_test_bridging.clamp(lo, hi);
    }
    loader::save_dir(&generate(&synth), dir).expect("write dataset");
}

/// The evaluation filter `dekg evaluate` and `dekg serve` rank against:
/// `G ∪ G' ∪ valid ∪ test_enclosing ∪ test_bridging`.
pub fn eval_filter(
    dataset: &dekg_datasets::DekgDataset,
    graph: &dekg_core::InferenceGraph,
) -> dekg_kg::TripleStore {
    let mut filter = graph.store.clone();
    for t in dataset.valid.iter().chain(&dataset.test_enclosing).chain(&dataset.test_bridging) {
        filter.insert(*t);
    }
    filter
}

/// Writes `model`'s checkpoint to `path` and its config sidecar to
/// `<path>.json`, the pair `DekgIlp::restore` and `dekg serve` read.
pub fn write_checkpoint(model: &dekg_core::DekgIlp, cfg: &dekg_core::DekgIlpConfig, path: &Path) {
    model.save_checkpoint(path).expect("write checkpoint");
    let json = serde_json::to_string_pretty(cfg).expect("render model config");
    std::fs::write(format!("{}.json", path.display()), json).expect("write model config");
}

/// How many times the chance MRR a ranking model must reach.
pub const CHANCE_FACTOR: f64 = 2.0;

/// The MRR a scorer that orders each query's batch at random would get:
/// the mean over queries of `H(n) / n`, `n` the batch size (the truth
/// plus its candidates).
pub fn chance_mrr(batch_sizes: &[usize]) -> f64 {
    let one = |n: usize| (1..=n).map(|k| 1.0 / k as f64).sum::<f64>() / n.max(1) as f64;
    batch_sizes.iter().map(|&n| one(n)).sum::<f64>() / batch_sizes.len().max(1) as f64
}

/// Worker threads for the library's parallel paths: the machine's
/// available parallelism.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// A rayon pool of [`threads`] workers.
pub fn pool() -> rayon::ThreadPool {
    rayon::ThreadPoolBuilder::new().num_threads(threads()).build().expect("thread pool")
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    fixture_dir: Option<PathBuf>,
    probe_dir: Option<PathBuf>,
    compare: Option<(String, String)>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        fixture_dir: None,
        probe_dir: None,
        compare: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = |k: usize| argv.get(k).cloned().ok_or(format!("{} needs a value", argv[i]));
        match argv[i].as_str() {
            "--workload" => args.workload = value(i + 1)?,
            "--seed" => args.seed = value(i + 1)?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value(i + 1)?.parse().map_err(|e| format!("--seconds: {e}"))?;
            }
            "--trace" => args.trace = value(i + 1)? == "1",
            // Internal: the child process that writes a run's inputs.
            "--fixture" => args.fixture_dir = Some(PathBuf::from(value(i + 1)?)),
            // Internal: a child process that times one cold set-up.
            "--probe-setup" => args.probe_dir = Some(PathBuf::from(value(i + 1)?)),
            "--compare" => {
                args.compare = Some((value(i + 1)?, value(i + 2)?));
                i += 1;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 2;
    }
    if args.compare.is_none() && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// The machine and build this result belongs to. Results are only
/// comparable under an identical fingerprint.
fn fingerprint() -> Vec<(&'static str, String)> {
    let nproc = std::process::Command::new("nproc")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned());
    vec![
        ("nproc", nproc),
        ("available_parallelism", threads().to_string()),
        ("profile", env!("DEKGBENCH_PROFILE").to_owned()),
        ("rustc", env!("DEKGBENCH_RUSTC").to_owned()),
        ("serve_light_rps", serve::LIGHT_RPS.to_string()),
        ("serve_heavy_rps", serve::HEAVY_RPS.to_string()),
        ("serve_latency_limit_ms", serve::LATENCY_LIMIT_MS.to_string()),
    ]
}

fn json_str(s: &str) -> String {
    serde_json::to_string(&serde::Value::Str(s.to_owned())).expect("render string")
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

/// Renders the result record (fingerprint, checks, notes, metrics).
fn render_record(args: &Args, out: &Outcome, metrics: &str) -> String {
    let fp: Vec<String> =
        fingerprint().iter().map(|(k, v)| format!("{}:{}", json_str(k), json_str(v))).collect();
    let checks: Vec<String> =
        out.checks.iter().map(|(k, v)| format!("{}:{v}", json_str(k))).collect();
    let notes: Vec<String> = out.notes.iter().map(|n| json_str(n)).collect();
    format!(
        "{{\"workload\":{},\"seed\":{},\"trace\":{},\"fingerprint\":{{{}}},\"checks\":{{{}}},\"notes\":[{}],\"metrics\":{metrics}}}",
        json_str(&args.workload),
        args.seed,
        u8::from(args.trace),
        fp.join(","),
        checks.join(","),
        notes.join(",")
    )
}

/// `--compare A B`: prints each shared metric's ratio, refusing when
/// the two records' fingerprints differ.
fn compare(a: &str, b: &str) -> Result<(), String> {
    let read = |p: &str| -> Result<serde::Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::parse_value(&text).map_err(|e| format!("{p}: {e}"))
    };
    let (ra, rb) = (read(a)?, read(b)?);
    let field = |v: &serde::Value, k: &str| -> Option<serde::Value> {
        v.as_object().and_then(|o| serde::field(o, k).ok()).cloned()
    };
    let (fa, fb) = (field(&ra, "fingerprint"), field(&rb, "fingerprint"));
    if fa.is_none() || fa != fb {
        return Err(format!("refusing to compare: fingerprints differ ({a} vs {b})"));
    }
    let (Some(ma), Some(mb)) = (field(&ra, "metrics"), field(&rb, "metrics")) else {
        return Err("records without metrics".to_owned());
    };
    for (name, va) in ma.as_object().into_iter().flatten() {
        let num = |v: &serde::Value| match field(v, "value") {
            Some(serde::Value::Num(n)) => Some(n.as_f64()),
            _ => None,
        };
        let vb = mb.as_object().and_then(|o| serde::field(o, name).ok()).and_then(num);
        if let (Some(x), Some(y)) = (num(va), vb) {
            println!("{name}: {x} -> {y} ({:+.1}%)", (y / x - 1.0) * 100.0);
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dekgbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return match compare(a, b) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("dekgbench: {e}");
                ExitCode::from(3)
            }
        };
    }
    // The measured code paths run without the program's own span
    // timers, in the untraced and traced runs alike.
    dekg_obs::set_spans_enabled(false);
    dekg_obs::set_level(dekg_obs::Level::Warn);

    if let Some(dir) = &args.fixture_dir {
        let dir = Workdir(dir.clone());
        match args.workload.as_str() {
            "train-fb" => train::fixture(&dir),
            "rank-full" => rank::fixture(&dir),
            _ => serve::fixture(args.seed, &dir),
        }
        std::mem::forget(dir); // the parent owns and removes it
        return ExitCode::SUCCESS;
    }
    if let Some(dir) = &args.probe_dir {
        let dir = Workdir(dir.clone());
        let parts = match args.workload.as_str() {
            "train-fb" => train::probe_setup(&dir),
            "rank-full" => rank::probe_setup(&dir),
            _ => serve::probe_setup(&dir),
        };
        std::mem::forget(dir);
        println!("{}", parts.iter().map(f64::to_string).collect::<Vec<_>>().join(" "));
        return ExitCode::SUCCESS;
    }

    let work = PathBuf::from(".bench_work").join(format!(
        "{}-s{}-p{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let out_dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&work).expect("create .bench_work");
    std::fs::create_dir_all(&out_dir).expect("create .bench_out");
    let dir = Workdir(work);
    let child = |role: &str| {
        std::process::Command::new(std::env::current_exe().expect("own path"))
            .args(["--workload", &args.workload, "--seed", &args.seed.to_string(), role])
            .arg(&dir.0)
            .stderr(std::process::Stdio::inherit())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).into_owned())
    };
    if child("--fixture").is_none() {
        eprintln!("dekgbench: the fixture process failed");
        return ExitCode::from(1);
    }
    // Set-up is what a user waits for in a fresh process, so each sample
    // is the first set-up of its own process, taken before, between the
    // timed units of, and after the measured work.
    let mut probes: Vec<Vec<f64>> = Vec::new();
    let mut probe_failed = false;
    let mut probe = |n: usize| {
        for _ in 0..n {
            match child("--probe-setup") {
                Some(line) => {
                    probes.push(line.split_whitespace().filter_map(|v| v.parse().ok()).collect())
                }
                None => probe_failed = true,
            }
        }
    };
    probe(SETUP_PROBES_EDGE);

    let mut tracer = util::Tracer::new();
    let between = &mut || probe(SETUP_PROBES_BETWEEN);
    let out = match (args.workload.as_str(), args.trace) {
        ("train-fb", false) => train::run(args.seed, args.seconds, &dir, between),
        ("train-fb", true) => train::trace(args.seed, &dir, &mut tracer),
        ("rank-full", false) => rank::run(args.seed, args.seconds, &dir, between),
        ("rank-full", true) => rank::trace(args.seed, &dir, &mut tracer),
        (_, false) => serve::run(args.seconds, &dir, between),
        (_, true) => serve::trace(args.seconds, &dir, &mut tracer),
    };
    probe(SETUP_PROBES_EDGE);
    if probe_failed {
        eprintln!("dekgbench: a set-up probe failed");
        return ExitCode::from(1);
    }
    drop(dir);
    let setup =
        |i: usize| util::interquartile_mean(&probes.iter().map(|p| p[i]).collect::<Vec<_>>());

    let mut out = out;
    if args.trace {
        out.metric("datasets.load_s", setup(1));
        out.metric("core.graph_build_s", setup(2));
        out.metric("core.model_restore_s", setup(3));
        if args.workload == "serve-open" {
            out.metric("serve.ready_s", setup(0));
        }
        let coverage = out.metrics.get("trace.coverage").copied().unwrap_or(0.0);
        out.check("stage coverage of the traced bracket is at least 0.9", coverage >= 0.9);
        let spans = out_dir.join(format!("{}-seed{}.spans.jsonl", args.workload, args.seed));
        tracer.write_jsonl(&spans).expect("write spans");
    } else {
        out.metric("setup_s", setup(0));
    }
    let wanted: Vec<(String, &str)> = if args.trace {
        per_layer()
    } else {
        END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let mut rendered = Vec::new();
    for (name, unit) in &wanted {
        let value = match out.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        rendered.push(format!(
            "{}:{{\"value\":{},\"unit\":{}}}",
            json_str(name),
            json_num(value),
            json_str(unit)
        ));
    }
    let metrics = format!("{{{}}}", rendered.join(","));
    let correct = out.attempted > 0
        && out.checks.iter().all(|(_, ok)| *ok)
        && wanted.iter().all(|(n, _)| out.metrics.get(n).map_or(args.trace, |v| v.is_finite()));

    for (k, v) in fingerprint() {
        println!("fingerprint {k}: {v}");
    }
    for (name, ok) in &out.checks {
        println!("check {}: {name}", if *ok { "ok  " } else { "FAIL" });
    }
    for note in &out.notes {
        println!("{note}");
    }
    println!(
        "operations: attempted {}, succeeded {}, failed {}",
        out.attempted,
        out.attempted - out.failed,
        out.failed
    );
    let record = render_record(&args, &out, &metrics);
    let path = out_dir.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, record).expect("write result record");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        out.attempted, out.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
