//! Pieces every workload shares: seed derivation, repeated set-up, the
//! input pool, the traced stage-chain phase, the Table 1 phase and the
//! Chrome trace export.

use crate::chain::{result_digest, table1_ratios, tail_macs, StageChain, VerdictView};
use crate::spans::Spans;
use crate::stats::{mean, median, ratio, RunResult};
use relcnn_core::{HybridCnn, HybridError, QualifiedClassification};
use relcnn_faults::FaultInjector;
use relcnn_gtsrb::{RenderParams, SignClass, SignRenderer};
use relcnn_obs::trace::{export_chrome, validate, TraceRecorder, TraceSnapshot};
use relcnn_tensor::init::Rand;
use relcnn_tensor::Tensor;
use std::time::Instant;

/// Set-ups run back to back at the start of a run.
pub const SETUP_REPEATS: usize = 3;

/// Seconds of a measured run between further set-ups.
pub const SETUP_EVERY_S: f64 = 4.0;

/// Largest gap allowed between the summed stage spans and the
/// classification span, as the median over operations of their ratio.
pub const STAGE_SUM_TOLERANCE: f64 = 0.10;

/// Share of a traced run spent on the workload's own loop (traced
/// against untraced), on the stage chain, and on the Table 1 phase.
pub const TRACED_SPLIT: [f64; 3] = [0.4, 0.4, 0.2];

/// SplitMix64 of `seed` and a stream tag: independent sub-seeds for the
/// model, the inputs and the faults, all from the one `--seed`.
pub fn derive(seed: u64, tag: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Times a workload's set-up: [`SETUP_REPEATS`] times back to back at
/// the start, then again whenever the measured run calls [`Self::tick`]
/// after [`SETUP_EVERY_S`] seconds; `setup_s` is the median. The
/// machine's speed changes over seconds (one run's set-ups took 25 ms,
/// the next one's 38 ms), so set-ups spread over the run give a median
/// that one slow stretch does not decide.
pub struct SetupTimer<F> {
    setup: F,
    times: Vec<f64>,
    last: Instant,
}

impl<T, F: FnMut() -> T> SetupTimer<F> {
    /// Runs `setup` [`SETUP_REPEATS`] times; returns the last result.
    pub fn start(setup: F) -> (T, Self) {
        let mut timer = SetupTimer {
            setup,
            times: Vec::new(),
            last: Instant::now(),
        };
        let mut last = None;
        for _ in 0..SETUP_REPEATS {
            last = Some(timer.time());
        }
        (last.expect("at least one set-up"), timer)
    }

    /// Times one more set-up when [`SETUP_EVERY_S`] seconds have passed
    /// since the last one; the result is dropped.
    pub fn tick(&mut self) {
        if self.last.elapsed().as_secs_f64() >= SETUP_EVERY_S {
            self.time();
        }
    }

    /// Median set-up time in seconds.
    pub fn median_s(&self) -> f64 {
        median(&self.times)
    }

    fn time(&mut self) -> T {
        let start = Instant::now();
        let out = std::hint::black_box((self.setup)());
        self.times.push(start.elapsed().as_secs_f64());
        self.last = Instant::now();
        out
    }
}

/// `per_class` rendered signs of every class at `size` px, each with
/// render parameters sampled from `seed`.
pub fn render_pool(size: usize, per_class: usize, seed: u64) -> Vec<Tensor> {
    let renderer = SignRenderer::new(size);
    let mut rng = Rand::seeded(seed);
    let mut pool = Vec::with_capacity(SignClass::COUNT * per_class);
    for class in SignClass::ALL {
        for _ in 0..per_class {
            let params = RenderParams::sampled(&mut rng);
            pool.push(renderer.render(class, &params, &mut rng));
        }
    }
    pool
}

/// Runs the program's classification and the benchmark's re-executed
/// stage chain on the same inputs, each inside spans, for at least
/// `min_ops` operations and `budget_s` seconds; checks that the two agree
/// bit for bit and reports the per-layer metrics of the chain.
///
/// `next(i)` names operation `i`'s image and its fault injector. With
/// `faulted`, each operation also runs a clean `classify` of the image so
/// the injector's cost shows as `faults.overhead_ms_per_trial`.
// The phase's knobs and sinks are all distinct; a parameter struct would
// only rename them.
#[allow(clippy::too_many_arguments)]
pub fn chain_phase<I: FaultInjector + Clone>(
    hybrid: &mut HybridCnn,
    images: &[Tensor],
    mut next: impl FnMut(u64) -> (usize, I),
    faulted: bool,
    min_ops: u64,
    budget_s: f64,
    rec: &TraceRecorder,
    result: &mut RunResult,
) {
    let mut spans = Spans::new(rec, "chain");
    let mut chain = StageChain::new(hybrid);
    let start = Instant::now();
    let mut ops = 0u64;
    let (mut classify_done, mut stage_shares, mut qualified_ops) =
        (Vec::new(), Vec::new(), Vec::new());
    let (mut detected, mut recovered, mut bucket_peak, mut aborts) = (0u64, 0u64, 0u32, 0u64);
    let (mut exposures, mut injected) = (0u64, 0u64);
    let (mut qualifier_runs, mut accepted) = (0u64, 0u64);
    let mut grow_after_warmup = 0;
    while ops < min_ops || start.elapsed().as_secs_f64() < budget_s {
        let (idx, injector) = next(ops);
        let image = &images[idx];
        let (mut prog_inj, mut chain_inj) = (injector.clone(), injector);
        // Alternate which side runs first so cache warmth favours neither.
        let (prog, run) = if ops.is_multiple_of(2) {
            let prog = program(hybrid, image, &mut prog_inj, &mut spans, ops);
            (
                prog,
                chain.run(hybrid, image, &mut chain_inj, &mut spans, ops),
            )
        } else {
            let run = chain.run(hybrid, image, &mut chain_inj, &mut spans, ops);
            (program(hybrid, image, &mut prog_inj, &mut spans, ops), run)
        };
        if faulted {
            let clean = spans.time("core.classify_clean", ops, || hybrid.classify(image));
            if let Err(e) = clean {
                result.fail(format!("clean classify of image {idx} failed: {e}"));
            }
        }
        let prog = prog.map(|q| VerdictView::of(&q));
        if result_digest(&prog) != result_digest(&run.result) {
            result.fail(format!(
                "op {ops} (image {idx}): stage chain {:?} differs from classify {:?}",
                run.result, prog
            ));
        }
        if prog_inj.stats() != chain_inj.stats() {
            result.fail(format!(
                "op {ops}: injector counters differ (classify {:?}, chain {:?})",
                prog_inj.stats(),
                chain_inj.stats()
            ));
        }
        let stats = prog_inj.stats();
        exposures += stats.exposures;
        injected += stats.injected;
        match &prog {
            Ok(v) => {
                detected += v.guarantee.detected;
                recovered += v.guarantee.recovered;
                bucket_peak = bucket_peak.max(v.guarantee.bucket_peak);
                let classify_ms = spans.samples("core.classify").last().copied();
                let classify_ms = classify_ms.unwrap_or(0.0);
                classify_done.push(classify_ms);
                stage_shares.push(ratio(run.stage_ms, classify_ms));
                qualified_ops.push(v.guarantee.ops as f64);
                if let Some(q) = &v.qualifier {
                    qualifier_runs += 1;
                    accepted += u64::from(q.accepted);
                }
            }
            Err(HybridError::ReliablePathFailed(_)) => aborts += 1,
            Err(e) => {
                result.failed += 1;
                result.fail(format!("op {ops} (image {idx}): classify failed: {e}"));
            }
        }
        if ops == 0 {
            grow_after_warmup = chain.arena_grow_events();
        }
        ops += 1;
    }
    result.attempted += ops;

    // Completed classifications only: an abort stops the chain early, so
    // its spans would understate a classification.
    let classify_ms = median(&classify_done);
    let conv_ms = spans.median("relexec.conv");
    let tail_ms = spans.median("nn.tail");
    let n = ops as f64;
    // Per-operation shares: the chain and the classification of one
    // operation run back to back, so machine-speed drift cancels.
    let stage_share = median(&stage_shares);
    result.check((stage_share - 1.0).abs() <= STAGE_SUM_TOLERANCE, || {
        format!(
            "stage spans sum to {stage_share:.3} of the classify span \
             (tolerance {STAGE_SUM_TOLERANCE})"
        )
    });
    let grow = chain.arena_grow_events() - grow_after_warmup;
    result.check(grow == 0, || {
        format!("tail arena grew {grow} times after warm-up")
    });
    result.set("core.classify_ms", classify_ms);
    result.set("core.stage_sum_share", stage_share);
    result.set("core.input_check_ms", spans.median("core.input_check"));
    result.set("relexec.conv_ms", conv_ms);
    result.set("relexec.conv_share", ratio(conv_ms, classify_ms));
    result.set("relexec.relu_ms", spans.median("relexec.relu"));
    let ops_per_conv = median(&qualified_ops);
    result.set("relexec.qualified_ops", mean(&qualified_ops));
    result.set("relexec.ns_per_op", ratio(conv_ms * 1e6, ops_per_conv));
    result.set("relexec.detected", detected as f64 / n);
    result.set("relexec.recovered", recovered as f64 / n);
    result.set("relexec.bucket_peak", f64::from(bucket_peak));
    result.set("relexec.aborts", aborts as f64 / n);
    result.set("faults.exposures_per_trial", exposures as f64 / n);
    result.set("faults.injected_per_trial", injected as f64 / n);
    if faulted {
        result.set(
            "faults.overhead_ms_per_trial",
            classify_ms - spans.median("core.classify_clean"),
        );
    }
    result.set("nn.tail_ms", tail_ms);
    result.set("nn.tail_share", ratio(tail_ms, classify_ms));
    result.set("nn.softmax_ms", spans.median("nn.softmax"));
    result.set("nn.arena_grow_events", grow as f64);
    match tail_macs(hybrid, &images[0]) {
        Ok(macs) => result.set("nn.tail_macs", macs as f64),
        Err(e) => result.fail(format!("tail MAC count: {e}")),
    }
    result.set("core.qualifier_ms", spans.median("core.qualifier"));
    result.set("core.qualifier_run_share", qualifier_runs as f64 / n);
    result.set(
        "core.qualifier_accept_share",
        ratio(accepted as f64, qualifier_runs as f64),
    );
    for (metric, span) in [
        ("vision.gray_ms", "vision.gray"),
        ("vision.sobel_ms", "vision.sobel"),
        ("vision.threshold_ms", "vision.threshold"),
        ("vision.radial_ms", "vision.radial"),
        ("sax.assess_ms", "sax.assess"),
    ] {
        result.set(metric, spans.median(span));
    }
}

/// The program's classification of `image` inside a `core.classify` span.
fn program<I: FaultInjector + Clone>(
    hybrid: &mut HybridCnn,
    image: &Tensor,
    injector: &mut I,
    spans: &mut Spans,
    op: u64,
) -> Result<QualifiedClassification, HybridError> {
    spans.time("core.classify", op, || {
        hybrid.classify_under_faults(image, injector)
    })
}

/// The paper's Table 1 ratios on this workload's model and inputs.
pub fn table1_phase(
    hybrid: &HybridCnn,
    images: &[Tensor],
    budget_s: f64,
    rec: &TraceRecorder,
    result: &mut RunResult,
) {
    let mut spans = Spans::new(rec, "table1");
    match table1_ratios(hybrid, images, 3, budget_s, &mut spans) {
        Ok((dmr, tmr)) => {
            result.set("relexec.dmr_over_plain", dmr);
            result.set("relexec.tmr_over_plain", tmr);
        }
        Err(e) => result.fail(format!("Table 1 phase: {e}")),
    }
}

/// Newest records per track kept in the exported trace. The program's
/// `validate` takes time growing faster than linearly with the document
/// (0.7 s at 0.25 MB, 11 s at 1 MB on the two-core machine the benchmark
/// was written on), so the export is a bounded window of each track; the
/// records left out are counted as dropped, like ring evictions.
const EXPORT_RECORDS_PER_TRACK: usize = 128;

/// Exports `earlier` snapshots and the recorder's rings as one Chrome
/// trace, validates it with the program's own validator and writes it to
/// `out/<workload>.trace.json` in the benchmark directory.
pub fn export_trace(
    rec: &TraceRecorder,
    earlier: &[TraceSnapshot],
    workload: &str,
    result: &mut RunResult,
) {
    let mut snapshots = earlier.to_vec();
    snapshots.push(rec.drain());
    for track in snapshots.iter_mut().flat_map(|s| s.threads.iter_mut()) {
        let excess = track.records.len().saturating_sub(EXPORT_RECORDS_PER_TRACK);
        let dropped: u64 = track.records.drain(..excess).map(|r| r.events()).sum();
        track.dropped_events += dropped;
    }
    let json = export_chrome(&snapshots);
    match validate(&json) {
        Ok(parsed) => result.set("obs.trace_events", parsed.event_count() as f64),
        Err(e) => result.fail(format!("Chrome trace does not validate: {e}")),
    }
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("{workload}.trace.json"));
    if let Err(e) = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, json)) {
        result.fail(format!("writing {}: {e}", path.display()));
    }
}

/// Sets `failed_share` from the run's counts.
pub fn set_failed_share(result: &mut RunResult) {
    let share = ratio(result.failed as f64, result.attempted as f64);
    result.set("failed_share", share);
}
