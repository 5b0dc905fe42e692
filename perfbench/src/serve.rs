//! `serve_wall`: an open loop through `Server` on a `WallClock` with
//! `CnnBackend::tiny` on a one-worker `Engine`. Poisson arrivals at a
//! mean gap of 10 ms (about 100 requests/s) in the critical / interactive
//! / bulk mix 1:3:2, AIMD on, and a zero `ServiceModel` cost, so latency
//! is real inference, admission and batching rather than a modelled
//! sleep. Latency runs from each request's due arrival time.

use crate::common::{
    chain_phase, derive, export_trace, set_failed_share, table1_phase, SetupTimer, TRACED_SPLIT,
};
use crate::stats::{best_of_repeats, median, quantile, ratio, Fnv, RunResult};
use crate::Args;
use relcnn_core::{HybridCnn, HybridConfig, HybridError};
use relcnn_faults::{NoFaults, SkewedCost};
use relcnn_gtsrb::{DatasetConfig, SyntheticGtsrb};
use relcnn_obs::trace::{ArgValue, TraceRecord, TraceRecorder, TraceSnapshot};
use relcnn_runtime::Engine;
use relcnn_serve::{
    Backend, BatchPolicy, BatchReply, CnnBackend, CnnVerdict, ControllerConfig, LoadGen,
    LoadGenConfig, Outcome, Request, RequestClass, ServeRun, Server, ServerConfig, ServiceModel,
    WallClock,
};
use relcnn_tensor::Tensor;
use std::sync::Mutex;
use std::time::Instant;

/// Mean Poisson inter-arrival gap.
const MEAN_GAP_US: u64 = 10_000;

/// Class-draw weights (critical, interactive, bulk).
const CLASS_MIX: [u64; 3] = [1, 3, 2];

/// Per-class deadline budgets (critical, interactive, bulk): loose enough
/// that nothing expires below the knee, so a miss means a stall.
const DEADLINES_US: [u64; 3] = [100_000, 200_000, 400_000];

/// Admission-queue capacity and its critical reservation.
const QUEUE_CAPACITY: usize = 64;
const CRITICAL_RESERVE: usize = 4;

/// Times the end-to-end run serves the same trace; latencies are each
/// request's fastest replay.
const REPLAYS: usize = 4;

/// Seed of the fixed probe backend and batch, the same on every run.
const PROBE_SEED: u64 = 0x5EED_0003;

/// Digest of the probe batch's verdicts, pinned from the program as it
/// stood when the benchmark was written.
const PROBE_DIGEST: u64 = 0x5c0c_947f_e071_a255;

fn server_config() -> ServerConfig {
    ServerConfig::new(
        QUEUE_CAPACITY,
        BatchPolicy::new(8, 1_000).with_critical_delay(400),
        ServiceModel {
            batch_overhead_us: 0,
            cost: SkewedCost::uniform(0),
        },
    )
    .with_critical_reserve(CRITICAL_RESERVE)
    .with_control(ControllerConfig::default())
}

/// A trace whose arrivals span about `seconds`.
fn trace(seed: u64, seconds: f64) -> Vec<Request> {
    let requests = ((seconds * 1e6) / MEAN_GAP_US as f64).ceil() as u64;
    LoadGen::new(
        LoadGenConfig::poisson(requests, derive(seed, 3), MEAN_GAP_US, DEADLINES_US[1])
            .with_class_mix(CLASS_MIX)
            .with_class_deadlines(DEADLINES_US),
    )
    .generate()
}

struct Setup {
    backend: CnnBackend,
    /// The backend's image pool and model, rebuilt from the same seed:
    /// request `r` is classified on `pool[r.payload_seed % pool.len()]`.
    pool: Vec<Tensor>,
    hybrid: HybridCnn,
    /// A direct `classify` of every pool image.
    reference: Vec<CnnVerdict>,
    engine: Engine,
}

fn verdict_of(hybrid: &mut HybridCnn, image: &Tensor) -> Result<CnnVerdict, HybridError> {
    let q = hybrid.classify(image)?;
    Ok(CnnVerdict {
        class: q.class(),
        qualified: q.is_qualified(),
        confidence_bits: q.confidence().to_bits(),
    })
}

fn setup(seed: u64) -> Result<Setup, HybridError> {
    let backend = CnnBackend::tiny(seed)?;
    let data = SyntheticGtsrb::generate(&DatasetConfig::tiny(seed)).map_err(HybridError::Gtsrb)?;
    let pool: Vec<Tensor> = data.test().iter().map(|s| s.image.clone()).collect();
    let mut hybrid = HybridCnn::untrained(&HybridConfig::tiny(seed.wrapping_add(1)))?;
    let reference = pool
        .iter()
        .map(|image| verdict_of(&mut hybrid, image))
        .collect::<Result<_, _>>()?;
    let engine = Engine::with_workers(1);
    // Warm-up: one batch through the engine.
    backend.classify_batch(&engine, &probe_batch());
    Ok(Setup {
        backend,
        pool,
        hybrid,
        reference,
        engine,
    })
}

/// Eight requests over the first pool images.
fn probe_batch() -> Vec<Request> {
    (0..8)
        .map(|i| Request {
            id: i,
            arrival_us: 0,
            deadline_us: u64::MAX,
            payload_seed: i,
            class: RequestClass::Interactive,
        })
        .collect()
}

fn serve<B: Backend>(
    setup: &Setup,
    backend: &B,
    trace: &[Request],
    rec: &TraceRecorder,
    seconds: f64,
) -> ServeRun<B::Verdict> {
    let engine = setup.engine.clone().traced(rec);
    let budget_us = ((seconds * 3.0 + 60.0) * 1e6) as u64;
    Server::new(server_config())
        .backend(backend)
        .engine(&engine)
        .traced(rec)
        .clock(WallClock::with_budget(budget_us))
        .run(trace)
}

/// Per-request latencies (ms) of completed requests, all and critical.
fn latencies<V>(trace: &[Request], run: &ServeRun<V>) -> (Vec<f64>, Vec<f64>) {
    let (mut all, mut critical) = (Vec::new(), Vec::new());
    for (r, o) in trace.iter().zip(&run.outcomes) {
        if let Outcome::Completed { latency_us, .. } = o {
            let ms = *latency_us as f64 / 1e3;
            all.push(ms);
            if r.class == RequestClass::Critical {
                critical.push(ms);
            }
        }
    }
    (all, critical)
}

/// Conservation per class, counted from the outcomes and from the
/// report, and every verdict against a direct `classify` of its image.
fn check_run(setup: &Setup, trace: &[Request], run: &ServeRun<CnnVerdict>, result: &mut RunResult) {
    result.check(run.outcomes.len() == trace.len(), || {
        format!(
            "{} outcomes for {} requests",
            run.outcomes.len(),
            trace.len()
        )
    });
    result.check(run.report.conserved(), || {
        format!("report does not conserve requests: {:?}", run.report)
    });
    let mut counts = [[0u64; 4]; 3]; // offered, completed, shed, expired
    for (r, o) in trace.iter().zip(&run.outcomes) {
        let c = &mut counts[r.class.lane()];
        c[0] += 1;
        match o {
            Outcome::Completed { verdict, .. } => {
                c[1] += 1;
                let image = (r.payload_seed % setup.pool.len() as u64) as usize;
                result.check(*verdict == setup.reference[image], || {
                    format!(
                        "request {}: served {verdict:?}, direct classify of image {image} gives {:?}",
                        r.id, setup.reference[image]
                    )
                });
            }
            Outcome::Shed => c[2] += 1,
            Outcome::Expired => c[3] += 1,
        }
    }
    for class in RequestClass::ALL {
        let [offered, completed, shed, expired] = counts[class.lane()];
        let rep = run.report.class(class);
        result.check(
            offered == completed + shed + expired
                && (rep.offered, rep.completed, rep.shed, rep.expired)
                    == (offered, completed, shed, expired),
            || {
                format!(
                    "{} requests not conserved: {counts:?} vs {rep:?}",
                    class.label()
                )
            },
        );
    }
}

fn check_probe(result: &mut RunResult) {
    let backend = match CnnBackend::tiny(PROBE_SEED) {
        Ok(b) => b,
        Err(e) => return result.fail(format!("probe backend: {e}")),
    };
    let reply = backend.classify_batch(&Engine::with_workers(1), &probe_batch());
    let mut h = Fnv::default();
    for v in &reply.verdicts {
        h.u64(v.class as u64)
            .u64(u64::from(v.qualified))
            .u64(u64::from(v.confidence_bits));
    }
    let d = h.finish();
    result.check(d == PROBE_DIGEST, || {
        format!("probe batch digest {d:#018x}, pinned {PROBE_DIGEST:#018x}")
    });
}

pub fn run(args: &Args) -> RunResult {
    let mut result = RunResult::default();
    let seed = derive(args.seed, 1);
    let (setup, mut setup_timer) = SetupTimer::start(move || setup(seed));
    let setup = match setup {
        Ok(s) => s,
        Err(e) => {
            result.fail(format!("set-up failed: {e}"));
            return result;
        }
    };
    if args.trace {
        traced(args, setup, &mut result);
    } else {
        measured(args, &setup, &mut setup_timer, &mut result);
        result.set("setup_s", setup_timer.median_s());
    }
    result
}

/// The end-to-end run: serve one trace [`REPLAYS`] times, `--seconds`
/// in all, checking every replay. Latencies are each request's fastest
/// replay (see [`best_of_repeats`]); the counts and the rate cover every
/// replay.
fn measured(
    args: &Args,
    setup: &Setup,
    setup_timer: &mut SetupTimer<impl FnMut() -> Result<Setup, HybridError>>,
    result: &mut RunResult,
) {
    let seconds = args.seconds / REPLAYS as f64;
    let trace = trace(args.seed, seconds);
    let mut samples = Vec::new();
    let (mut completed, mut on_time, mut makespan_us) = (0u64, 0u64, 0u64);
    for replay in 0..REPLAYS {
        let run = serve(
            setup,
            &setup.backend,
            &trace,
            &TraceRecorder::off(),
            seconds,
        );
        check_run(setup, &trace, &run, result);
        let report = &run.report;
        for (r, o) in trace.iter().zip(&run.outcomes) {
            if let Outcome::Completed { latency_us, .. } = o {
                samples.push((r.id, *latency_us as f64 / 1e3));
            }
        }
        result.attempted += report.offered;
        result.failed += report.shed + report.expired();
        completed += report.completed;
        on_time += report.completed - report.late;
        makespan_us += report.makespan_us;
        eprintln!(
            "serve replay {replay}: offered {} completed {} late {} shed {} expired {} batches {}",
            report.offered,
            report.completed,
            report.late,
            report.shed,
            report.expired(),
            report.batches
        );
        setup_timer.tick();
    }
    check_probe(result);

    let best = best_of_repeats(samples);
    result.set("p50_ms", median(&best));
    result.set("tail_ms", quantile(&best, 0.9).unwrap_or(0.0));
    result.set(
        "ops_per_s",
        ratio(completed as f64, makespan_us as f64 / 1e6),
    );
    let offered = result.attempted as f64;
    result.set("goodput", ratio(on_time as f64, offered));
    result.set("ok_share", ratio(completed as f64, offered));
}

/// `CnnBackend` with timing: each batch's dispatch span and each
/// request's queue wait (dispatch time minus due arrival time).
struct TimedBackend<'a> {
    inner: &'a CnnBackend,
    epoch: Instant,
    batch_ms: Mutex<Vec<f64>>,
    wait_ms: Mutex<Vec<f64>>,
}

impl Backend for TimedBackend<'_> {
    type Verdict = CnnVerdict;

    fn classify_batch(&self, engine: &Engine, batch: &[Request]) -> BatchReply<CnnVerdict> {
        let now_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        let start = Instant::now();
        let reply = self.inner.classify_batch(engine, batch);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        self.batch_ms.lock().expect("batch timings").push(ms);
        self.wait_ms
            .lock()
            .expect("queue-wait timings")
            .extend(batch.iter().map(|r| (now_us - r.arrival_us as f64) / 1e3));
        reply
    }
}

/// p99 of how late the load generator offered each request, from its
/// `admit`/`shed` instants against the trace's due times.
fn loadgen_lag_ms(snapshot: &TraceSnapshot, trace: &[Request]) -> f64 {
    let mut lags = Vec::new();
    for thread in snapshot.threads.iter().filter(|t| t.label == "loadgen") {
        for record in &thread.records {
            if let TraceRecord::Instant { ts_us, args, .. } = record {
                let id = args.iter().find_map(|a| match (a.key.as_str(), &a.value) {
                    ("id", ArgValue::U64(id)) => Some(*id as usize),
                    _ => None,
                });
                if let Some(r) = id.and_then(|id| trace.get(id)) {
                    lags.push((*ts_us as f64 - r.arrival_us as f64) / 1e3);
                }
            }
        }
    }
    quantile(&lags, 0.99).unwrap_or(0.0)
}

/// The traced run: the same trace served untraced and then traced (the
/// tracing overhead, dispatch and serving counters), the stage chain on
/// the served images, and the Table 1 ratios.
fn traced(args: &Args, mut setup: Setup, result: &mut RunResult) {
    let rec = TraceRecorder::with_capacity("perfbench", 1 << 16);
    let serve_rec = TraceRecorder::with_capacity("serve_wall", 1 << 17);
    let seconds = args.seconds * TRACED_SPLIT[0] / 2.0;
    let trace = trace(args.seed, seconds);

    let plain = serve(
        &setup,
        &setup.backend,
        &trace,
        &TraceRecorder::off(),
        seconds,
    );
    check_run(&setup, &trace, &plain, result);
    let d = &plain.dispatch;
    result.set(
        "runtime.dispatch_overhead_ms",
        ratio(
            (d.engine_wall.saturating_sub(d.engine_busy)).as_secs_f64() * 1e3,
            d.engine_batches as f64,
        ),
    );
    result.set(
        "runtime.image_busy_ms",
        ratio(d.engine_busy.as_secs_f64() * 1e3, d.images as f64),
    );

    let timed = TimedBackend {
        inner: &setup.backend,
        epoch: Instant::now(),
        batch_ms: Mutex::new(Vec::new()),
        wait_ms: Mutex::new(Vec::new()),
    };
    let run = serve(&setup, &timed, &trace, &serve_rec, seconds);
    check_run(&setup, &trace, &run, result);
    let report = &run.report;
    for r in [&plain.report, report] {
        result.attempted += r.offered;
        result.failed += r.shed + r.expired();
    }
    let (traced_all, critical) = latencies(&trace, &run);
    let overhead = median(&traced_all) / median(&latencies(&trace, &plain).0) - 1.0;
    result.set("obs.trace_overhead", overhead);
    result.set(
        "serve.critical_p95_ms",
        quantile(&critical, 0.95).unwrap_or(0.0),
    );
    let batch_ms = timed.batch_ms.into_inner().expect("batch timings");
    let wait_ms = timed.wait_ms.into_inner().expect("queue-wait timings");
    result.set("serve.batch_p50_ms", median(&batch_ms));
    result.set(
        "serve.batch_p99_ms",
        quantile(&batch_ms, 0.99).unwrap_or(0.0),
    );
    result.set("serve.queue_wait_p50_ms", median(&wait_ms));
    result.set(
        "serve.queue_wait_p99_ms",
        quantile(&wait_ms, 0.99).unwrap_or(0.0),
    );
    result.set("serve.mean_batch_fill", report.mean_batch_fill());
    result.set("serve.shed", report.shed as f64);
    result.set("serve.expired", report.expired() as f64);
    result.set("serve.late", report.late as f64);
    result.set("serve.aimd_clamps", report.aimd_clamps as f64);
    result.set("serve.early_closes", report.early_closes as f64);
    let serve_snapshot = serve_rec.drain();
    result.set(
        "serve.loadgen_lag_ms",
        loadgen_lag_ms(&serve_snapshot, &trace),
    );

    let served: Vec<usize> = trace
        .iter()
        .map(|r| (r.payload_seed % setup.pool.len() as u64) as usize)
        .collect();
    chain_phase(
        &mut setup.hybrid,
        &setup.pool,
        |op| (served[op as usize % served.len()], NoFaults::new()),
        false,
        8,
        args.seconds * TRACED_SPLIT[1],
        &rec,
        result,
    );
    table1_phase(
        &setup.hybrid,
        &setup.pool[..4],
        args.seconds * TRACED_SPLIT[2],
        &rec,
        result,
    );
    export_trace(&rec, &[serve_snapshot], &args.workload, result);
    set_failed_share(result);
}
