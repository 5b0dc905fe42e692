//! `campaign_ber`: a fault campaign of `classify_under_faults` on
//! `HybridConfig::tiny` (DMR). Each trial draws transient bit flips at
//! BER 1e-4 on the multiplier and accumulator sites (`BerInjector`), and
//! the trials run on a one-worker `Engine`, one engine run per block.

use crate::chain::{result_digest, StageChain, VerdictView};
use crate::common::{
    chain_phase, derive, export_trace, render_pool, set_failed_share, table1_phase, SetupTimer,
    TRACED_SPLIT,
};
use crate::spans::Spans;
use crate::stats::{best_of_repeats, median, quantile, ratio, Fnv, RunResult};
use crate::Args;
use relcnn_core::{HybridCnn, HybridConfig, HybridError};
use relcnn_faults::campaign::TrialOutcome;
use relcnn_faults::{BerInjector, FaultInjector, FaultSite, InjectorStats};
use relcnn_obs::trace::TraceRecorder;
use relcnn_runtime::{CollectSink, Engine, RunPlan, RunStats, Trial, TrialCtx};
use relcnn_tensor::Tensor;
use std::time::Instant;

/// Per-exposure bit error rate.
const BER: f64 = 1e-4;

/// Rendered signs per class in the input pool.
const PER_CLASS: usize = 2;

/// Trials per engine run.
const BLOCK: u64 = 32;

/// Distinct blocks; block `b` replays block `b % CYCLE`, so every later
/// block must reproduce its first run's results exactly.
const CYCLE: u64 = 8;

/// Engine workers. One: on the two-core shared machine the benchmark was
/// written on, two workers let a neighbour busy on either core slow every
/// block, and the campaign rate spread 0.17 of its median over ten seeds
/// against 0.12 for a trial's latency.
const WORKERS: usize = 1;

/// Trials of the first block whose results the stage chain re-derives.
const ORACLE_TRIALS: u64 = 8;

/// Seed of the fixed probe campaign (model, images and faults), the same
/// on every run whatever `--seed` is.
const PROBE_SEED: u64 = 0x5EED_0002;

/// Trials in the probe campaign.
const PROBE_TRIALS: u64 = 32;

/// The probe campaign's outcome tally (correct, recovered, aborted,
/// silent) and injector totals (exposures, injected), pinned from the
/// program as it stood when the benchmark was written.
const PROBE_TALLY: [u64; 4] = [0, 32, 0, 0];
const PROBE_INJECTOR: [u64; 2] = [23_379_564, 1_590];

fn injector(seed: u64) -> BerInjector {
    BerInjector::new(seed, BER).with_sites(vec![FaultSite::Multiplier, FaultSite::Accumulator])
}

/// One trial's result, as the checks compare it.
#[derive(Debug, Clone)]
struct TrialOut {
    image: usize,
    /// `None` when the trial failed with an error other than the safe
    /// abort.
    outcome: Option<TrialOutcome>,
    injector: InjectorStats,
    digest: u64,
    ms: f64,
}

struct BerTrial<'a> {
    hybrid: &'a HybridCnn,
    pool: &'a [Tensor],
    clean_class: &'a [usize],
    rec: &'a TraceRecorder,
}

impl Trial for BerTrial<'_> {
    type State = (HybridCnn, Spans);
    type Output = TrialOut;

    fn init(&self, worker_index: usize) -> Self::State {
        let spans = Spans::new(self.rec, &format!("trial-{worker_index}"));
        (self.hybrid.clone(), spans)
    }

    fn run(&self, (hybrid, spans): &mut Self::State, ctx: &mut TrialCtx) -> TrialOut {
        let image = ctx.index as usize % self.pool.len();
        let mut inj = injector(ctx.seed);
        let t = Instant::now();
        let outcome = spans.time("faults.trial", ctx.index, || {
            hybrid.classify_under_faults(&self.pool[image], &mut inj)
        });
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let view = outcome.map(|q| VerdictView::of(&q));
        let tag = match &view {
            Ok(v) if v.class != self.clean_class[image] => Some(TrialOutcome::SilentCorruption),
            Ok(v) if v.guarantee.recovered > 0 => Some(TrialOutcome::DetectedRecovered),
            Ok(_) => Some(TrialOutcome::Correct),
            Err(HybridError::ReliablePathFailed(_)) => Some(TrialOutcome::DetectedAborted),
            Err(_) => None,
        };
        TrialOut {
            image,
            outcome: tag,
            injector: inj.stats(),
            digest: result_digest(&view),
            ms,
        }
    }
}

struct Setup {
    hybrid: HybridCnn,
    pool: Vec<Tensor>,
    clean_class: Vec<usize>,
}

fn setup(seed: u64) -> Result<Setup, HybridError> {
    let mut hybrid = HybridCnn::untrained(&HybridConfig::tiny(seed))?;
    let pool = render_pool(48, PER_CLASS, derive(seed, 2));
    // The clean verdicts are the campaign's reference (and the warm-up).
    let clean_class = pool
        .iter()
        .map(|image| hybrid.classify(image).map(|q| q.class()))
        .collect::<Result<_, _>>()?;
    Ok(Setup {
        hybrid,
        pool,
        clean_class,
    })
}

/// Runs one block of the campaign.
fn block(
    engine: &Engine,
    setup: &Setup,
    plan_seed: u64,
    trials: u64,
    rec: &TraceRecorder,
) -> (Vec<TrialOut>, RunStats) {
    let trial = BerTrial {
        hybrid: &setup.hybrid,
        pool: &setup.pool,
        clean_class: &setup.clean_class,
        rec,
    };
    let out = engine.run(&RunPlan::new(trials, plan_seed), &trial, CollectSink::new());
    (out.summary, out.stats)
}

/// Outcome tally (correct, recovered, aborted, silent) and injector
/// totals (exposures, injected) of a block; failed trials count in none.
fn tally(outs: &[TrialOut]) -> ([u64; 4], [u64; 2]) {
    let mut t = [0u64; 4];
    let mut inj = [0u64; 2];
    for o in outs {
        let slot = match o.outcome {
            Some(TrialOutcome::Correct) => 0,
            Some(TrialOutcome::DetectedRecovered) => 1,
            Some(TrialOutcome::DetectedAborted) => 2,
            Some(TrialOutcome::SilentCorruption) => 3,
            _ => continue,
        };
        t[slot] += 1;
        inj[0] += o.injector.exposures;
        inj[1] += o.injector.injected;
    }
    (t, inj)
}

fn block_digest(outs: &[TrialOut]) -> u64 {
    let mut h = Fnv::default();
    for o in outs {
        h.u64(o.image as u64)
            .u64(o.digest)
            .u64(o.injector.exposures)
            .u64(o.injector.injected)
            .u64(o.injector.masked);
    }
    h.finish()
}

fn plan_seed(seed: u64, block: u64) -> u64 {
    derive(seed, 100 + block % CYCLE)
}

pub fn run(args: &Args) -> RunResult {
    let mut result = RunResult::default();
    let model_seed = derive(args.seed, 1);
    let (setup, mut setup_timer) = SetupTimer::start(move || setup(model_seed));
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

/// The end-to-end run: blocks of trials for `--seconds`, then the checks.
/// Each distinct block (and so each distinct trial) recurs about 18
/// times in 55 seconds; the latencies and the rate are taken from each
/// one's fastest repeat (see [`best_of_repeats`]).
fn measured(
    args: &Args,
    setup: &Setup,
    setup_timer: &mut SetupTimer<impl FnMut() -> Result<Setup, HybridError>>,
    result: &mut RunResult,
) {
    let engine = Engine::with_workers(WORKERS);
    let off = TraceRecorder::off();
    let mut first_runs: Vec<Option<u64>> = vec![None; CYCLE as usize];
    let mut all: Vec<TrialOut> = Vec::new();
    let (mut trial_ms, mut block_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    let mut b = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds {
        setup_timer.tick();
        let t = Instant::now();
        let (outs, stats) = block(&engine, setup, plan_seed(args.seed, b), BLOCK, &off);
        block_s.push((b % CYCLE, t.elapsed().as_secs_f64()));
        trial_ms.extend(outs.iter().enumerate().map(|(i, o)| ((b % CYCLE, i), o.ms)));
        result.check(stats.trials == BLOCK, || {
            format!(
                "block {b}: {} of {BLOCK} trials reached the sink",
                stats.trials
            )
        });
        let digest = block_digest(&outs);
        let slot = &mut first_runs[(b % CYCLE) as usize];
        match slot {
            Some(d) => result.check(*d == digest, || {
                format!("block {b}: results differ from block {}", b % CYCLE)
            }),
            None => *slot = Some(digest),
        }
        all.extend(outs);
        b += 1;
    }
    result.attempted = all.len() as u64;
    for o in all.iter().filter(|o| o.outcome.is_none()) {
        result.failed += 1;
        result.fail(format!("trial on image {} failed", o.image));
    }
    let (t, inj) = tally(&all);
    eprintln!(
        "campaign: {b} blocks, tally (correct, recovered, aborted, silent) {t:?}, \
         injector (exposures, injected) {inj:?}"
    );

    oracle(args.seed, setup, result);
    check_probe(result);

    let best = best_of_repeats(trial_ms);
    let best_blocks = best_of_repeats(block_s);
    let ok = result.attempted - result.failed;
    result.set("p50_ms", median(&best));
    result.set("tail_ms", quantile(&best, 0.9).unwrap_or(0.0));
    result.set(
        "ops_per_s",
        ratio(
            (best_blocks.len() as u64 * BLOCK) as f64,
            best_blocks.iter().sum(),
        ),
    );
    result.set("goodput", ratio(ok as f64, result.attempted as f64));
    result.set("ok_share", ratio(ok as f64, result.attempted as f64));
}

/// The stage chain re-derives the first trials of block 0 under the same
/// injector seeds (`TrialCtx::seed` is the plan seed plus the index).
fn oracle(seed: u64, setup: &Setup, result: &mut RunResult) {
    let off = TraceRecorder::off();
    let (outs, _) = block(
        &Engine::with_workers(1),
        setup,
        plan_seed(seed, 0),
        ORACLE_TRIALS,
        &off,
    );
    let mut chain = StageChain::new(&setup.hybrid);
    let mut spans = Spans::new(&off, "oracle");
    for (i, o) in outs.iter().enumerate() {
        let mut inj = injector(plan_seed(seed, 0).wrapping_add(i as u64));
        let run = chain.run(
            &setup.hybrid,
            &setup.pool[o.image],
            &mut inj,
            &mut spans,
            i as u64,
        );
        result.check(result_digest(&run.result) == o.digest, || {
            format!(
                "trial {i}: stage chain {:?} differs from the campaign",
                run.result
            )
        });
        result.check(inj.stats() == o.injector, || {
            format!("trial {i}: injector counters differ from the campaign")
        });
    }
}

fn check_probe(result: &mut RunResult) {
    let probe = match setup(PROBE_SEED) {
        Ok(s) => s,
        Err(e) => return result.fail(format!("probe set-up failed: {e}")),
    };
    let engine = Engine::with_workers(WORKERS);
    let (outs, _) = block(
        &engine,
        &probe,
        PROBE_SEED,
        PROBE_TRIALS,
        &TraceRecorder::off(),
    );
    let (t, inj) = tally(&outs);
    result.check(t == PROBE_TALLY && inj == PROBE_INJECTOR, || {
        format!(
            "probe campaign tally {t:?} injector {inj:?}, pinned {PROBE_TALLY:?} {PROBE_INJECTOR:?}"
        )
    });
}

/// The traced run: untraced and traced blocks alternately (the tracing
/// overhead and the engine's counters), the stage chain under the
/// campaign's injector, and the Table 1 ratios.
fn traced(args: &Args, mut setup: Setup, result: &mut RunResult) {
    let rec = TraceRecorder::with_capacity("campaign_ber", 1 << 16);
    let off = TraceRecorder::off();
    let plain = Engine::with_workers(WORKERS);
    let traced = Engine::with_workers(WORKERS).traced(&rec);
    let mut runs: Vec<RunStats> = Vec::new();
    let (mut walls, mut traced_walls) = (0.0f64, 0.0f64);
    let start = Instant::now();
    let mut b = 0u64;
    while start.elapsed().as_secs_f64() < args.seconds * TRACED_SPLIT[0] || b < 2 {
        let seed = plan_seed(args.seed, b);
        let (outs, stats) = if b.is_multiple_of(2) {
            block(&plain, &setup, seed, BLOCK, &off)
        } else {
            block(&traced, &setup, seed, BLOCK, &rec)
        };
        let wall = stats.wall.as_secs_f64();
        if b.is_multiple_of(2) {
            walls += wall;
        } else {
            traced_walls += wall;
        }
        result.attempted += outs.len() as u64;
        result.failed += outs.iter().filter(|o| o.outcome.is_none()).count() as u64;
        runs.push(stats);
        b += 1;
    }
    // Equal trial counts on each side (b even) or one more untraced block.
    let untraced_blocks = b.div_ceil(2) as f64;
    let traced_blocks = (b / 2) as f64;
    result.set(
        "obs.trace_overhead",
        (traced_walls / traced_blocks) / (walls / untraced_blocks) - 1.0,
    );
    let n = runs.len() as f64;
    let busy: f64 = runs.iter().map(|s| s.busy.as_secs_f64()).sum();
    let wall: f64 = runs.iter().map(|s| s.wall.as_secs_f64()).sum();
    result.set("runtime.busy_share", busy / (wall * WORKERS as f64));
    let send_block_ms: f64 = runs.iter().map(|s| s.send_block.as_secs_f64() * 1e3).sum();
    result.set("runtime.send_block_ms", send_block_ms / n);

    let faults_seed = derive(args.seed, 7);
    let pool_len = setup.pool.len();
    chain_phase(
        &mut setup.hybrid,
        &setup.pool,
        |op| {
            (
                (op as usize) % pool_len,
                injector(faults_seed.wrapping_add(op)),
            )
        },
        true,
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
    export_trace(&rec, &[], &args.workload, result);
    set_failed_share(result);
}
