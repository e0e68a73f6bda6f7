//! Trace integrity under thread- and schedule-perturbation.
//!
//! `scripts/check.sh` runs this suite a second time under
//! `DEKG_SHUFFLE_SCHEDULE=1`, so the rayon shim's perturbed work order
//! exercises the same assertions: hierarchical span nesting stays
//! well-formed when spans close on many threads in shuffled order, and
//! the kernel profiler's deterministic columns (call counts, bytes
//! moved) are identical no matter which thread records which tape.
//! Wall-clock seconds are measurement, not output, and are never
//! compared here.

use dekg_tensor::{prof, Graph, ParamStore, Tensor};
use rayon::{IntoParallelRefIterator, ThreadPoolBuilder};
use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Serializes the tests in this binary: span table, chrome buffer and
/// profiler tables are process globals.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One small but real tape: record, forward, backward. Returns the
/// loss bits so callers can also pin determinism across schedules.
fn run_tape(item: u64) -> u32 {
    let mut ps = ParamStore::new();
    let seedf = (item % 7) as f32 - 3.0;
    let w = ps
        .insert("w", Tensor::from_vec([4, 4], (0..16).map(|i| seedf + i as f32 * 0.25).collect()));
    let mut g = Graph::new();
    let wv = g.param(&ps, w);
    let prod = g.matmul(wv, wv);
    let act = g.sigmoid(prod);
    let loss = g.mean_all(act);
    let grads = g.backward(loss);
    std::hint::black_box(&grads);
    g.value(loss).item().to_bits()
}

/// The profiler's deterministic columns, keyed by op mnemonic.
fn deterministic_columns() -> BTreeMap<&'static str, (u64, u64, u64, u64)> {
    prof::snapshot()
        .ops
        .iter()
        .map(|o| (o.op, (o.forward_calls, o.forward_bytes, o.backward_calls, o.backward_bytes)))
        .collect()
}

#[test]
fn per_op_totals_are_thread_and_schedule_invariant() {
    let _guard = lock();
    let items: Vec<u64> = (0..24).collect();

    // Serial reference.
    prof::reset();
    prof::set_enabled(true);
    let serial_bits: Vec<u32> = items.iter().map(|&i| run_tape(i)).collect();
    prof::set_enabled(false);
    let serial = deterministic_columns();
    assert!(!serial.is_empty(), "serial run recorded no ops");

    // Two parallel runs: the shim re-shuffles its schedule per call
    // under DEKG_SHUFFLE_SCHEDULE=1, so these two interleavings differ
    // from each other as well as from the serial order.
    let pool = ThreadPoolBuilder::new().num_threads(4).build().expect("pool");
    for round in 0..2 {
        prof::reset();
        prof::set_enabled(true);
        let par_bits: Vec<u32> = pool.install(|| items.par_iter().map(|&i| run_tape(i)).collect());
        prof::set_enabled(false);
        let parallel = deterministic_columns();
        assert_eq!(
            serial, parallel,
            "round {round}: per-op calls/bytes diverged between serial and parallel recording"
        );
        assert_eq!(serial_bits, par_bits, "round {round}: loss bits depend on the schedule");
    }
    prof::reset();
}

#[test]
fn tape_structure_rows_fold_identically_across_schedules() {
    let _guard = lock();
    // 12 executions over 3 distinct structure keys, folded from
    // whatever thread happens to run them.
    let keys: Vec<u64> = (0..12).map(|i| 100 + i % 3).collect();
    let fold_rows = || -> Vec<(u64, u64, u64)> {
        prof::snapshot().tapes.iter().map(|t| (t.key, t.executions, t.nodes)).collect()
    };

    prof::reset();
    for &k in &keys {
        prof::record_tape(k, 50 + k, 0.01);
    }
    let serial = fold_rows();

    let pool = ThreadPoolBuilder::new().num_threads(4).build().expect("pool");
    prof::reset();
    pool.install(|| {
        let _: Vec<()> = keys.par_iter().map(|&k| prof::record_tape(k, 50 + k, 0.01)).collect();
    });
    assert_eq!(serial, fold_rows(), "folded tape rows depend on the recording schedule");
    prof::reset();
}

/// `profile_eval` records forward-only tapes. This lives here, not
/// beside `profile_eval`, because the profiler tables are process
/// globals: in the library's test binary, a training test running on
/// another test thread could land backward calls in them mid-profile.
#[test]
fn eval_profile_runs_forward_only() {
    let _guard = lock();
    let d = dekg_datasets::tiny_fixture(2);
    let report = dekg_core::profile_eval(&d, 0, 2, 5);
    assert_eq!(report.batches, 2);
    assert!(!report.ops.is_empty());
    // Forward-only: no backward time anywhere.
    assert!(report.ops.iter().all(|o| o.backward_calls == 0), "{:?}", report.ops);
    assert!(report.attributed_seconds() > 0.0);
    prof::reset();
}

/// One parsed `"X"` event from a Chrome trace file.
struct Ev {
    name: String,
    tid: u64,
    ts: f64,
    dur: f64,
    trace: u64,
    span: u64,
    parent: u64,
}

fn parse_chrome(path: &std::path::Path) -> Vec<Ev> {
    let text = std::fs::read_to_string(path).expect("read chrome trace");
    let serde::Value::Array(events) = serde_json::parse_value(&text).expect("parse chrome trace")
    else {
        panic!("chrome trace is not a JSON array");
    };
    let num = |pairs: &[(String, serde::Value)], key: &str| -> f64 {
        match pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
            Some(serde::Value::Num(serde::Number::F(f))) => *f,
            Some(serde::Value::Num(serde::Number::U(u))) => *u as f64,
            Some(serde::Value::Num(serde::Number::I(i))) => *i as f64,
            other => panic!("{key}: not a number: {other:?}"),
        }
    };
    let mut out = Vec::new();
    for e in &events {
        let serde::Value::Object(pairs) = e else { panic!("event is not an object") };
        let str_field = |key: &str| -> String {
            match pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v) {
                Some(serde::Value::Str(s)) => s.clone(),
                other => panic!("{key}: not a string: {other:?}"),
            }
        };
        if str_field("ph") != "X" {
            continue;
        }
        let serde::Value::Object(args) =
            pairs.iter().find(|(k, _)| k == "args").map(|(_, v)| v).expect("args")
        else {
            panic!("args is not an object")
        };
        out.push(Ev {
            name: str_field("name"),
            tid: num(pairs, "tid") as u64,
            ts: num(pairs, "ts"),
            dur: num(pairs, "dur"),
            trace: num(args, "trace_id") as u64,
            span: num(args, "span_id") as u64,
            parent: num(args, "parent_id") as u64,
        });
    }
    out
}

#[test]
fn span_nesting_is_well_formed_under_parallel_shuffled_close_order() {
    let _guard = lock();
    let dir = std::env::temp_dir().join(format!("dekg-trace-integrity-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("trace.json");

    dekg_obs::set_chrome_trace_path(path.to_str().expect("utf8 path"));
    let items: Vec<u64> = (0..16).collect();
    let pool = ThreadPoolBuilder::new().num_threads(4).build().expect("pool");
    let _: Vec<u32> = pool.install(|| {
        items
            .par_iter()
            .map(|&i| {
                let _outer = dekg_obs::span!("ti_outer");
                let _inner = dekg_obs::span!("ti_inner");
                run_tape(i)
            })
            .collect()
    });
    dekg_obs::write_chrome_trace();
    dekg_obs::set_tracing_enabled(false);
    dekg_obs::chrome::clear_chrome_trace();

    let events = parse_chrome(&path);
    std::fs::remove_dir_all(&dir).expect("cleanup");

    // Exactly one outer and one inner per item, whatever the schedule.
    let count = |name: &str| events.iter().filter(|e| e.name == name).count();
    assert_eq!(count("ti_outer"), items.len());
    assert_eq!(count("ti_inner"), items.len());

    // Span ids are unique and nonzero.
    let mut by_span: BTreeMap<u64, &Ev> = BTreeMap::new();
    for e in &events {
        assert_ne!(e.span, 0, "span id 0 is reserved for 'none'");
        assert!(by_span.insert(e.span, e).is_none(), "duplicate span id {}", e.span);
    }

    // Every inner nests under an outer: the parent exists, shares the
    // trace, is the right shape, and its interval contains the child's
    // (half a microsecond of slack for independent f64 rounding).
    const EPS: f64 = 0.5;
    for e in events.iter().filter(|e| e.name == "ti_inner") {
        let p = by_span.get(&e.parent).expect("inner span's parent was exported");
        assert_eq!(p.name, "ti_outer", "inner nests under an outer span");
        assert_eq!(p.trace, e.trace, "parent and child share a trace");
        assert_eq!(p.tid, e.tid, "parent and child close on the opening thread");
        assert!(
            p.ts <= e.ts + EPS && e.ts + e.dur <= p.ts + p.dur + EPS,
            "child [{} +{}] escapes parent [{} +{}]",
            e.ts,
            e.dur,
            p.ts,
            p.dur
        );
    }
    // Outers are roots: the worker's span stack fully unwinds between
    // items, so no outer inherits a stale parent from a prior item.
    for e in events.iter().filter(|e| e.name == "ti_outer") {
        assert_eq!(e.parent, 0, "outer span must be a root");
    }

    // Events append at close time under one lock: within a tid, end
    // timestamps never decrease in file order.
    let mut last_end: BTreeMap<u64, f64> = BTreeMap::new();
    for e in &events {
        let end = e.ts + e.dur;
        if let Some(&prev) = last_end.get(&e.tid) {
            assert!(end + EPS >= prev, "tid {}: close order regressed ({} < {})", e.tid, end, prev);
        }
        last_end.insert(e.tid, end);
    }
}

/// The top-level phases of a training epoch: one-off set-up, then per
/// step prepare (negative sampling, subgraph extraction), forward
/// recording, backward and the optimizer step. None nests in another,
/// so their seconds add up.
const TRAINING_PHASES: &[&str] =
    &["train_setup", "train_prepare", "train_forward", "train_backward", "optim_step"];

/// Finer spans inside those phases that a training epoch must close.
const TRAINING_DETAIL: &[&str] = &[
    "negative_sampling",
    "extract_subgraph",
    "rgcn_layer",
    "clrm_score",
    "clrm_contrastive",
    "rgcn_layer_backward",
];

#[test]
fn training_spans_cover_the_epoch() {
    use dekg_core::{DekgIlp, DekgIlpConfig, TrainableModel};
    use rand::SeedableRng;

    let _guard = lock();
    let data = dekg_datasets::tiny_fixture(3);
    let cfg = DekgIlpConfig { epochs: 1, ..DekgIlpConfig::quick() };
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(4);
    let mut model = DekgIlp::new(cfg, &data, &mut rng);
    // One worker thread: span seconds are CPU-seconds summed across
    // workers, so a single thread makes them comparable to wall time.
    let pool = ThreadPoolBuilder::new().num_threads(1).build().expect("pool");
    dekg_obs::span::set_spans_enabled(true);
    let before = dekg_obs::span::span_snapshot();
    let started = std::time::Instant::now();
    pool.install(|| model.fit(&data, &mut rng));
    let wall = started.elapsed().as_secs_f64();
    let spans = dekg_obs::span::span_snapshot().diff(&before);
    for name in TRAINING_PHASES.iter().chain(TRAINING_DETAIL) {
        assert!(spans.get(name).is_some_and(|s| s.count > 0), "span {name} never closed");
    }
    let covered: f64 =
        TRAINING_PHASES.iter().filter_map(|name| spans.get(name)).map(|s| s.seconds).sum();
    let coverage = covered / wall;
    assert!(
        coverage >= 0.9,
        "training phases attribute {:.1}% of the epoch ({covered:.4} s of {wall:.4} s): {spans:?}",
        coverage * 100.0
    );
}
