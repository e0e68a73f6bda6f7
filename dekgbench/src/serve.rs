//! `serve-open`: an in-process `dekg serve` daemon under an open-loop
//! `/rank` schedule — a light and a heavy fixed rate (with checkpoint
//! reloads during the heavy phase), closed-loop capacity windows with one
//! and with `nproc` connections, and a rising-rate sweep for the highest
//! rate the daemon sustains within the latency limit.

use crate::util::{median, peak_rss_mb, percentile, secs, tail, Tracer};
use crate::{Outcome, Workdir};
use dekg_core::{DekgIlp, DekgIlpConfig, InferenceGraph};
use dekg_datasets::{item_rng, loader};
use dekg_eval::ranking::filtered_candidates;
use dekg_eval::{filtered_rank, RankQuery};
use dekg_serve::{http_call, http_call_with_headers, RankEngine, ServeConfig, Server};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Scale of the FB15k-237 EQ profile (≈2.7k entities).
pub const SCALE: f64 = 1.0;

/// Sampled candidates per `/rank` request.
pub const CANDIDATES: usize = 50;

/// The light rate, requests per second: about a quarter of the
/// daemon's capacity as measured on the reference machine (2 cores).
pub const LIGHT_RPS: f64 = 25.0;

/// The heavy rate: about three quarters of that capacity.
pub const HEAVY_RPS: f64 = 75.0;

/// The tail latency a sustained rate must stay under.
pub const LATENCY_LIMIT_MS: f64 = 100.0;

/// How many times the chance MRR the served answers must reach. The
/// served model is freshly initialized, yet its R-GCN reads graph
/// structure, so it ranks at 1.3–1.5× chance. The fixed-rate phases
/// cycle about 216 distinct requests, over which a random scorer's MRR
/// has a standard error of about 0.12 of chance, so this margin is about
/// two standard errors: a guard against scores turning to noise on the
/// serving path, next to the stricter one on `rank-full`.
const SERVED_CHANCE_FACTOR: f64 = 1.25;

/// Seconds between `POST /admin/reload` calls in the heavy phase.
const RELOAD_EVERY_S: f64 = 1.0;

/// Rate multiplier between sweep steps.
const SWEEP_FACTOR: f64 = 1.1;

/// Seconds per sweep step.
const SWEEP_STEP_S: f64 = 1.5;

/// File (in the work directory) holding the request pool.
const POOL_FILE: &str = "requests.tsv";

/// Writes the dataset, a freshly initialized checkpoint (from the fixed
/// data seed, so every `--seed` serves the same model), and the request
/// pool with the library's answer to each request: every test link
/// (enclosing, then bridging) under head, relation and tail tasks in
/// turn, answered by `filtered_rank` on the same `(seed, index)` the
/// request carries, with its batch size. The model is not trained: one
/// epoch at this scale costs about 35 s a run on the reference machine
/// and lifts the served MRR only from about 1.5× to 1.7× chance.
pub fn fixture(seed: u64, dir: &Workdir) {
    crate::write_dataset(SCALE, Some((24, 48)), &dir.data());
    let dataset = loader::load_dir(dir.data(), "serve-open").expect("reload serve dataset");
    let cfg = DekgIlpConfig::quick();
    let mut rng = ChaCha8Rng::seed_from_u64(crate::DATA_SEED);
    let model = DekgIlp::new(cfg.clone(), &dataset, &mut rng);
    crate::write_checkpoint(&model, &cfg, &dir.ckpt());

    let graph = InferenceGraph::from_dataset(&dataset);
    let filter = crate::eval_filter(&dataset, &graph);
    let tasks = ["head", "relation", "tail"];
    let items: Vec<(usize, dekg_kg::Triple, &str)> = dataset
        .test_enclosing
        .iter()
        .chain(&dataset.test_bridging)
        .flat_map(|t| tasks.iter().map(move |task| (*t, *task)))
        .enumerate()
        .map(|(i, (t, task))| (i, t, task))
        .collect();
    use rayon::prelude::*;
    let lines: Vec<String> = crate::pool().install(|| {
        items
            .par_iter()
            .map(|&(index, t, task)| {
                let query = match task {
                    "head" => RankQuery::Head(t),
                    "relation" => RankQuery::Relation(t),
                    _ => RankQuery::Tail(t),
                };
                let mut rng = item_rng(seed, index as u64);
                let rank =
                    filtered_rank(&model, &graph, &query, &filter, Some(CANDIDATES), &mut rng);
                let candidates = filtered_candidates(
                    &query,
                    graph.num_entities,
                    graph.num_relations,
                    &filter,
                    Some(CANDIDATES),
                    &mut item_rng(seed, index as u64),
                );
                let body = format!(
                    "{{\"rank\": {{\"task\": \"{task}\", \"head\": \"{}\", \"rel\": \"{}\", \
                     \"tail\": \"{}\", \"candidates\": {CANDIDATES}, \"seed\": {seed}, \
                     \"index\": {index}}}}}",
                    dataset.vocab.entity_name(t.head),
                    dataset.vocab.relation_name(t.rel),
                    dataset.vocab.entity_name(t.tail),
                );
                // The daemon's reply, rendered the way the daemon does.
                let reply = serde_json::to_string(&serde::Value::Object(vec![
                    ("task".to_owned(), serde::Value::Str(task.to_owned())),
                    ("rank".to_owned(), serde::Value::Num(serde::Number::F(rank))),
                ]))
                .expect("render reply");
                format!("{body}\t{reply}\t{}\n", candidates.len() + 1)
            })
            .collect()
    });
    std::fs::write(dir.0.join(POOL_FILE), lines.concat()).expect("write request pool");
}

/// One `/rank` request of the cycled pool, with the library's answer.
struct Request {
    body: String,
    expected: String,
    /// Truth plus candidates, for the chance baseline.
    batch: usize,
}

fn read_pool(dir: &Workdir) -> Vec<Request> {
    let text = std::fs::read_to_string(dir.0.join(POOL_FILE)).expect("read request pool");
    text.lines()
        .map(|line| {
            let mut f = line.split('\t');
            let (body, expected, batch) = (f.next(), f.next(), f.next());
            Request {
                body: body.expect("pool body").to_owned(),
                expected: expected.expect("pool reply").to_owned(),
                batch: batch.and_then(|n| n.parse().ok()).expect("pool batch size"),
            }
        })
        .collect()
}

/// Binds a daemon, loads the engine, installs it and polls `/readyz`
/// until 200. Returns the server and the seconds that took.
fn start_server(dir: &Workdir) -> (Server, f64) {
    let data = dir.data().to_str().expect("utf-8 path").to_owned();
    let ckpt = dir.ckpt().to_str().expect("utf-8 path").to_owned();
    let t = Instant::now();
    let server = Server::bind(ServeConfig::default()).expect("bind daemon");
    let addr = server.addr().to_string();
    server.install_engine(RankEngine::load(&data, &ckpt).expect("load engine"));
    while !matches!(http_call(&addr, "GET", "/readyz", None), Ok((200, _))) {
        std::thread::sleep(Duration::from_micros(200));
    }
    (server, secs(t))
}

/// One cold start in this process, then the engine's load stages
/// through the public calls `RankEngine::load` makes:
/// `[bind-to-ready, load, graph + filter, restore]` seconds.
pub fn probe_setup(dir: &Workdir) -> Vec<f64> {
    let (server, ready) = start_server(dir);
    stop(server);
    let t = Instant::now();
    let dataset = loader::load_dir(dir.data(), "serve-open").expect("load serve dataset");
    let load = secs(t);
    let t = Instant::now();
    let graph = InferenceGraph::from_dataset(&dataset);
    let filter = crate::eval_filter(&dataset, &graph);
    let graph_s = secs(t);
    let t = Instant::now();
    let ckpt = dir.ckpt();
    let model = DekgIlp::restore(ckpt.to_str().expect("utf-8 path"), &dataset).expect("restore");
    let restore = secs(t);
    drop((model, filter, graph));
    vec![ready, load, graph_s, restore]
}

fn stop(server: Server) {
    server.shutdown();
    server.join();
}

/// What a schedule slot sends.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// `POST /rank` with pool entry `i`.
    Rank(usize),
    /// `POST /admin/reload` (same checkpoint).
    Reload,
}

/// One measured schedule slot. Times are seconds after the phase start.
#[derive(Clone, Copy)]
struct Sample {
    kind: Kind,
    scheduled: f64,
    sent: f64,
    done: f64,
    ok: bool,
    queue_ms: f64,
    score_ms: f64,
    /// The rank the daemon answered (`NaN` without one).
    rank: f64,
}

impl Sample {
    /// Latency from the scheduled send time, in ms.
    fn latency_ms(&self) -> f64 {
        (self.done - self.scheduled) * 1e3
    }

    /// Client time from the actual send, in ms.
    fn client_ms(&self) -> f64 {
        (self.done - self.sent) * 1e3
    }

    fn is_rank(&self) -> bool {
        matches!(self.kind, Kind::Rank(_))
    }
}

/// `n` pool entries in turn from `offset`, wrapping around the pool.
fn cycle(offset: usize, n: usize, pool: usize) -> Vec<usize> {
    (offset..offset + n).map(|i| i % pool).collect()
}

/// An open-loop schedule: a rank request for each of `entries`, evenly
/// spaced at `rps` (all due at once when `rps` is infinite), plus a
/// reload every `reload_every` seconds when given.
fn schedule(rps: f64, entries: &[usize], reload_every: Option<f64>) -> Vec<(f64, Kind)> {
    let mut items: Vec<(f64, Kind)> =
        entries.iter().enumerate().map(|(i, &e)| (i as f64 / rps, Kind::Rank(e))).collect();
    if let Some(every) = reload_every {
        let span = entries.len() as f64 / rps;
        let mut t = every / 2.0;
        while t < span {
            items.push((t, Kind::Reload));
            t += every;
        }
        items.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    items
}

/// Sends `items` from `connections` generator threads, one connection
/// each at a time: each thread takes the next slot, sleeps until its
/// scheduled time, sends and waits. A slot whose thread is still busy
/// goes out late; the lateness stays in its latency.
fn drive(addr: &str, pool: &[Request], items: &[(f64, Kind)], connections: usize) -> Phase {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(items.len()));
    let start = Instant::now() + Duration::from_millis(5);
    std::thread::scope(|scope| {
        for _ in 0..connections {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&(at, kind)) = items.get(i) else { break };
                let due = start + Duration::from_secs_f64(at);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = secs_between(start, Instant::now());
                let mut s = Sample {
                    kind,
                    scheduled: at,
                    sent,
                    done: 0.0,
                    ok: false,
                    queue_ms: 0.0,
                    score_ms: 0.0,
                    rank: f64::NAN,
                };
                match kind {
                    Kind::Rank(r) => {
                        let req = &pool[r];
                        if let Ok((status, headers, body)) =
                            http_call_with_headers(addr, "POST", "/rank", Some(&req.body))
                        {
                            s.ok = status == 200 && body == req.expected;
                            let ms = |name: &str| {
                                headers
                                    .iter()
                                    .find(|(k, _)| k == name)
                                    .and_then(|(_, v)| v.parse::<f64>().ok())
                                    .map_or(0.0, |us| us / 1e3)
                            };
                            s.queue_ms = ms("x-dekg-queue-us");
                            s.score_ms = ms("x-dekg-score-us");
                            s.rank = served_rank(&body).unwrap_or(f64::NAN);
                        }
                    }
                    Kind::Reload => {
                        if let Ok((status, body)) = http_call(addr, "POST", "/admin/reload", None) {
                            s.ok = status == 200 && body.starts_with("{\"generation\":");
                        }
                    }
                }
                s.done = secs_between(start, Instant::now());
                samples.lock().expect("no generator thread panics while holding the lock").push(s);
            });
        }
    });
    let mut samples = samples.into_inner().expect("generator threads joined");
    samples.sort_by(|a, b| a.scheduled.total_cmp(&b.scheduled));
    Phase { samples, start, batch_mean: 0.0 }
}

/// The `rank` field of a `/rank` reply.
fn served_rank(body: &str) -> Option<f64> {
    let value = serde_json::parse_value(body).ok()?;
    match serde::field(value.as_object()?, "rank").ok()? {
        serde::Value::Num(n) => Some(n.as_f64()),
        _ => None,
    }
}

fn secs_between(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64()
}

/// Reads `dekg_serve_batch_size` (sum, count) from `/metrics`.
fn batch_size_totals(addr: &str) -> (f64, f64) {
    let (_, text) = http_call(addr, "GET", "/metrics", None).expect("GET /metrics");
    let read = |name: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|v| v.trim().parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (read("dekg_serve_batch_size_sum "), read("dekg_serve_batch_size_count "))
}

/// One schedule's measurements.
struct Phase {
    samples: Vec<Sample>,
    start: Instant,
    /// Mean admission batch the workers drained during the phase.
    batch_mean: f64,
}

impl Phase {
    fn ranks(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter().filter(|s| s.is_rank())
    }

    fn latencies(&self) -> Vec<f64> {
        self.ranks().map(Sample::latency_ms).collect()
    }

    /// Seconds from the phase start to its last answer.
    fn wall(&self) -> f64 {
        self.samples.iter().map(|s| s.done).fold(0.0, f64::max)
    }
}

/// Drives `items` open-loop from `nproc` connections, reading the
/// admission-batch totals around it.
fn run_phase(addr: &str, pool: &[Request], items: &[(f64, Kind)]) -> Phase {
    let (s0, c0) = batch_size_totals(addr);
    let mut phase = drive(addr, pool, items, crate::threads());
    let (s1, c1) = batch_size_totals(addr);
    phase.batch_mean = if c1 > c0 { (s1 - s0) / (c1 - c0) } else { 0.0 };
    phase
}

/// The sweep's result: the highest rate whose tail stays under
/// [`LATENCY_LIMIT_MS`] without a growing backlog.
#[derive(Default)]
struct Sweep {
    max_rps: f64,
    /// `(offered rate, tail ms, passed)` per step.
    steps: Vec<(f64, f64, bool)>,
    samples: Vec<Sample>,
}

/// Raises the rate from the heavy rate by [`SWEEP_FACTOR`] per step
/// until a step fails (tail over the limit, or lateness still growing
/// at its end) or `budget_s` is spent, then interpolates the limit
/// crossing linearly between the last passing point and the failing
/// step. `floor` is the measured `(rate, tail ms)` point below the
/// sweep (the light phase) the interpolation starts from when the
/// first step already fails.
fn sweep(addr: &str, pool: &[Request], budget_s: f64, offset: usize, floor: (f64, f64)) -> Sweep {
    let started = Instant::now();
    let mut sweep = Sweep { max_rps: 0.0, steps: Vec::new(), samples: Vec::new() };
    let mut rate = HEAVY_RPS;
    let mut last_pass = if floor.1 < LATENCY_LIMIT_MS { floor } else { (0.0, 0.0) };
    while secs(started) + SWEEP_STEP_S <= budget_s || sweep.steps.is_empty() {
        let n = (rate * SWEEP_STEP_S).round() as usize;
        let entries = cycle(offset + sweep.samples.len(), n, pool.len());
        let phase = drive(addr, pool, &schedule(rate, &entries, None), crate::threads());
        let (_, tail_ms) = tail(&phase.latencies());
        let late = |part: &[Sample]| {
            median(&part.iter().map(|s| (s.sent - s.scheduled) * 1e3).collect::<Vec<_>>())
        };
        let q = phase.samples.len() / 4;
        let growing = late(&phase.samples[phase.samples.len() - q..]) - late(&phase.samples[..q])
            > LATENCY_LIMIT_MS / 2.0;
        let pass = tail_ms < LATENCY_LIMIT_MS && !growing;
        sweep.steps.push((rate, tail_ms, pass));
        sweep.samples.extend(phase.samples);
        if !pass {
            let (r0, t0) = last_pass;
            let frac = ((LATENCY_LIMIT_MS - t0) / (tail_ms - t0)).clamp(0.0, 1.0);
            sweep.max_rps = r0 + frac * (rate - r0);
            return sweep;
        }
        last_pass = (rate, tail_ms);
        rate *= SWEEP_FACTOR;
    }
    sweep.max_rps = last_pass.0;
    sweep
}

/// Requests per capacity window.
const WINDOW: usize = 96;

/// The pool entries of every capacity window: one request per test link
/// (enclosing, then bridging), the task cycling head, relation, tail, so
/// that every window scores the same mix and window rates compare.
fn window_entries(pool: usize) -> Vec<usize> {
    (0..WINDOW).map(|k| (3 * k + k % 3) % pool).collect()
}

/// Requests per light slice (1.6 s at [`LIGHT_RPS`]).
const LIGHT_SLICE: usize = 40;

/// Measurement rounds per `--seconds` (at least three): each round is a
/// light slice, a one-connection window and a saturated window, so every
/// end-to-end figure is sampled across the whole run, and a spell of a
/// shared host that lasts a few seconds moves one window of each, not
/// the median.
const SECONDS_PER_ROUND: f64 = 5.0;

/// Everything one serve-open pass measured.
struct Measured {
    light: Vec<Phase>,
    heavy: Phase,
    /// Closed-loop windows from one connection.
    sequential: Vec<Phase>,
    /// Closed-loop windows from `nproc` connections.
    saturated: Vec<Phase>,
    sweep: Sweep,
}

impl Measured {
    fn all(&self) -> impl Iterator<Item = &Sample> {
        self.light
            .iter()
            .chain([&self.heavy])
            .chain(&self.sequential)
            .chain(&self.saturated)
            .flat_map(|p| &p.samples)
            .chain(&self.sweep.samples)
    }

    /// Rank latencies of all light slices.
    fn light_latencies(&self) -> Vec<f64> {
        self.light.iter().flat_map(Phase::latencies).collect()
    }

    /// Client times of the one-connection windows' requests (closed loop:
    /// each is sent when the previous one is answered).
    fn sequential_latencies(&self) -> Vec<f64> {
        self.sequential.iter().flat_map(Phase::ranks).map(Sample::client_ms).collect()
    }

    /// Completed requests per second while every generator connection
    /// was kept busy: the median over the saturated windows.
    fn capacity_rps(&self) -> f64 {
        median(&window_rates(&self.saturated))
    }

    /// The same from one connection.
    fn sequential_rps(&self) -> f64 {
        median(&window_rates(&self.sequential))
    }
}

/// Completed requests per second of each window.
fn window_rates(windows: &[Phase]) -> Vec<f64> {
    windows.iter().map(|p| p.samples.len() as f64 / p.wall()).collect()
}

/// Warm-up, then the measurement rounds with the heavy phase (and its
/// reloads) after the middle one, then the sweep. Of `seconds`, the
/// heavy phase and the sweep take 15% each and the rounds the rest.
/// `between` runs between rounds, outside every measured phase.
fn measure(addr: &str, pool: &[Request], seconds: f64, between: &mut dyn FnMut()) -> Measured {
    let warm = cycle(0, pool.len().min(32), pool.len());
    let _ = drive(addr, pool, &schedule(LIGHT_RPS, &warm, None), crate::threads());
    let window = schedule(f64::INFINITY, &window_entries(pool.len()), None);
    let rounds = ((seconds / SECONDS_PER_ROUND).round() as usize).max(3);
    let mut offset = 0;
    let mut next = |n: usize| {
        offset += n;
        cycle(offset - n, n, pool.len())
    };
    let (mut light, mut sequential, mut saturated, mut heavy) = (vec![], vec![], vec![], None);
    for round in 0..rounds {
        if round > 0 {
            between();
        }
        light.push(run_phase(addr, pool, &schedule(LIGHT_RPS, &next(LIGHT_SLICE), None)));
        sequential.push(drive(addr, pool, &window, 1));
        saturated.push(drive(addr, pool, &window, crate::threads()));
        if round + 1 == rounds / 2 {
            let n = (HEAVY_RPS * seconds * 0.15).round() as usize;
            let items = schedule(HEAVY_RPS, &next(n), Some(RELOAD_EVERY_S));
            heavy = Some(run_phase(addr, pool, &items));
        }
    }
    let heavy = heavy.expect("at least three rounds");
    let mut m = Measured { light, heavy, sequential, saturated, sweep: Sweep::default() };
    let floor = (LIGHT_RPS, tail(&m.light_latencies()).1);
    m.sweep = sweep(addr, pool, seconds * 0.15, offset, floor);
    m
}

/// Counts attempted and failed slots and folds the answer check.
fn tally(out: &mut Outcome, m: &Measured) {
    for s in m.all() {
        out.attempted += 1;
        out.failed += u64::from(!s.ok);
    }
    out.check(
        "every response is 200 and byte-matches the library's filtered_rank answer",
        out.failed == 0,
    );
    let reloads = m.heavy.samples.iter().filter(|s| s.kind == Kind::Reload).count();
    out.check("the heavy phase reloaded the checkpoint", reloads > 0);
}

/// The rank requests of the fixed-rate phases.
fn fixed_rate(m: &Measured) -> Vec<Sample> {
    m.light.iter().flat_map(Phase::ranks).chain(m.heavy.ranks()).copied().collect()
}

/// The MRR of the answers served in the fixed-rate phases, and the
/// chance MRR of their candidate sets; checks the one against the other.
fn served_mrr(out: &mut Outcome, pool: &[Request], m: &Measured) -> (f64, f64) {
    let served = fixed_rate(m);
    let mrr = served.iter().map(|s| 1.0 / s.rank).sum::<f64>() / served.len() as f64;
    let sizes: Vec<usize> = served
        .iter()
        .filter_map(|s| match s.kind {
            Kind::Rank(i) => Some(pool[i].batch),
            Kind::Reload => None,
        })
        .collect();
    let chance = crate::chance_mrr(&sizes);
    out.check(
        &format!(
            "served MRR is at least {SERVED_CHANCE_FACTOR}x the chance MRR of its candidate sets"
        ),
        mrr >= SERVED_CHANCE_FACTOR * chance,
    );
    (mrr, chance)
}

/// The untraced run; `between` runs between measurement rounds.
pub fn run(seconds: f64, dir: &Workdir, between: &mut dyn FnMut()) -> Outcome {
    let pool = read_pool(dir);
    let (server, _) = start_server(dir);
    let m = measure(&server.addr().to_string(), &pool, seconds, between);
    stop(server);

    let mut out = Outcome::default();
    tally(&mut out, &m);
    let light = m.light_latencies();
    let heavy = m.heavy.latencies();
    let (lp, lt) = tail(&light);
    let (hp, ht) = tail(&heavy);
    let light_p50 = percentile(&light, 50.0);
    let sequential = m.sequential_latencies();
    let (sp, st) = tail(&sequential);
    let sequential_p50 = percentile(&sequential, 50.0);
    out.metric("peak_rss_mb", peak_rss_mb());
    out.metric("throughput_per_s", m.capacity_rps());
    out.metric("latency_ms", sequential_p50);
    let (mrr, chance) = served_mrr(&mut out, &pool, &m);
    out.metric("quality_error", 1.0 / mrr);
    let steps: Vec<String> = m
        .sweep
        .steps
        .iter()
        .map(|(r, t, p)| format!("{r:.1}rps:{t:.1}ms:{}", if *p { "pass" } else { "fail" }))
        .collect();
    out.note(format!(
        "serve_sequential_p50_ms={sequential_p50:.3} ms  serve_sequential_tail_ms={st:.3} ms \
         (p{sp}, n={})",
        sequential.len()
    ));
    out.note(format!(
        "serve_light_p50_ms={light_p50:.3} ms  serve_light_tail_ms={lt:.3} ms (p{lp}, n={})  \
         serve_heavy_p50_ms={:.3} ms  serve_heavy_tail_ms={ht:.3} ms (p{hp}, n={})",
        light.len(),
        percentile(&heavy, 50.0),
        heavy.len(),
    ));
    out.note(format!(
        "serve_capacity_rps={:.2} 1/s  serve_sequential_rps={:.2} 1/s  serve_max_rps={:.2} 1/s  \
         sweep [{}]",
        m.capacity_rps(),
        m.sequential_rps(),
        m.sweep.max_rps,
        steps.join(" ")
    ));
    let rates = |w: &[Phase]| -> String {
        window_rates(w).iter().map(|r| format!("{r:.1}")).collect::<Vec<_>>().join(" ")
    };
    out.note(format!(
        "saturated windows [{}] rps  one-connection windows [{}] rps  light slice p50 [{}] ms  \
         served_mrr={mrr:.6}  chance_mrr={chance:.6}",
        rates(&m.saturated),
        rates(&m.sequential),
        m.light
            .iter()
            .map(|p| format!("{:.2}", percentile(&p.latencies(), 50.0)))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    out
}

/// The traced run: the same schedule, with server-side phases taken
/// from the response headers and recorded as spans under each request.
pub fn trace(seconds: f64, dir: &Workdir, tracer: &mut Tracer) -> Outcome {
    let pool = read_pool(dir);
    let mut out = Outcome::default();
    let (server, _) = start_server(dir);
    let origin = Instant::now();
    let m = measure(&server.addr().to_string(), &pool, seconds, &mut || {});
    stop(server);
    let base = tracer.now() - secs(origin);
    tally(&mut out, &m);

    for phase in m.light.iter().chain([&m.heavy]) {
        let off = base + secs_between(origin, phase.start);
        tracer.record("serve.phase", off, off + phase.wall(), None);
        let parent = tracer.next_index() - 1;
        for s in &phase.samples {
            let id = tracer.next_index();
            let name = if s.is_rank() { "serve.request" } else { "serve.reload" };
            tracer.record(name, off + s.sent, off + s.done, Some(parent));
            if s.is_rank() {
                // Header durations carry no position: the phases are
                // laid out back to back — the HTTP exchange (the client
                // time the daemon's headers do not attribute: connect,
                // accept, parse, serialize, transfer), queue wait, then
                // scoring ending at receipt. The HTTP span is that
                // remainder, so coverage counts only queue and score.
                let score_start = off + s.done - s.score_ms / 1e3;
                let queue_start = (score_start - s.queue_ms / 1e3).max(off + s.sent);
                tracer.record("serve.http", off + s.sent, queue_start, Some(id));
                tracer.record("serve.queue", queue_start, score_start, Some(id));
                tracer.record("serve.score", score_start, off + s.done, Some(id));
            }
        }
    }

    served_mrr(&mut out, &pool, &m);
    let light: Vec<Sample> = m.light.iter().flat_map(Phase::ranks).copied().collect();
    let heavy: Vec<Sample> = m.heavy.ranks().copied().collect();
    let pick = |v: &[Sample], f: fn(&Sample) -> f64| v.iter().map(f).collect::<Vec<f64>>();
    out.metric("serve.light_p50_ms", percentile(&m.light_latencies(), 50.0));
    out.metric("serve.light_tail_ms", tail(&m.light_latencies()).1);
    out.metric("serve.heavy_p50_ms", percentile(&m.heavy.latencies(), 50.0));
    out.metric("serve.heavy_tail_ms", tail(&m.heavy.latencies()).1);
    out.metric("serve.max_rps", m.sweep.max_rps);
    out.metric("serve.sequential_rps", m.sequential_rps());
    out.metric("serve.sequential_p50_ms", percentile(&m.sequential_latencies(), 50.0));
    out.metric("serve.capacity_rps", m.capacity_rps());
    out.metric("serve.light_queue_wait_p50_ms", percentile(&pick(&light, |s| s.queue_ms), 50.0));
    let heavy_queue = pick(&heavy, |s| s.queue_ms);
    out.metric("serve.heavy_queue_wait_p50_ms", percentile(&heavy_queue, 50.0));
    out.metric("serve.heavy_queue_wait_tail_ms", tail(&heavy_queue).1);
    let both = fixed_rate(&m);
    out.metric("serve.score_ms", percentile(&pick(&both, |s| s.score_ms), 50.0));
    out.metric(
        "serve.http_other_ms",
        percentile(&pick(&light, |s| s.client_ms() - s.queue_ms - s.score_ms), 50.0),
    );
    let light_batch = m.light.iter().map(|p| p.batch_mean).sum::<f64>() / m.light.len() as f64;
    out.metric("serve.light_admission_batch_mean", light_batch);
    out.metric("serve.heavy_admission_batch_mean", m.heavy.batch_mean);
    let reloads: Vec<f64> =
        m.heavy.samples.iter().filter(|s| s.kind == Kind::Reload).map(Sample::client_ms).collect();
    out.metric("serve.reload_ms", percentile(&reloads, 50.0));
    let late: Vec<f64> = m
        .light
        .iter()
        .chain([&m.heavy])
        .flat_map(|p| &p.samples)
        .map(|s| (s.sent - s.scheduled) * 1e3)
        .collect();
    out.metric("serve.generator_late_ms", percentile(&late, 50.0));
    // The share of a request's client time the daemon attributes itself
    // (queue and score headers), at the median over requests: a stalled
    // connect on a busy host swells a few requests' unattributed rest,
    // `serve.http_other_ms`, without saying anything about the layers.
    let shares = pick(&both, |s| (s.queue_ms + s.score_ms) / s.client_ms());
    out.metric("trace.coverage", percentile(&shares, 50.0));
    out.metric("trace.wall_s", m.light.iter().chain([&m.heavy]).map(Phase::wall).sum::<f64>());
    out.note(format!(
        "serve trace: {} rank requests and {} reloads in the fixed-rate phases; capacity {:.2} rps, max {:.2} rps",
        both.len(),
        reloads.len(),
        m.capacity_rps(),
        m.sweep.max_rps
    ));
    out
}
