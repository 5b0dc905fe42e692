//! The classification stage chain, re-executed from outside the program
//! with a span around every public layer call, and the verdict digest the
//! output checks compare.
//!
//! [`StageChain::run`] calls, in `HybridCnn::classify_under_faults`'s
//! order: the input check, `reliable_conv2d` through the configured ALU
//! (filters and bias borrowed from `conv2d_at(0)`), `reliable_relu` when
//! configured, `forward_from_scratch`, softmax/argmax and the shape
//! qualifier. Its verdict must equal the program's bit for bit.

use crate::spans::Spans;
use crate::stats::{median, Fnv};
use relcnn_core::guarantee::GuaranteeReport;
use relcnn_core::{
    HybridCnn, HybridError, QualificationMode, QualifiedClassification, QualifierVerdict,
};
use relcnn_faults::{FaultInjector, NoFaults};
use relcnn_nn::{InferScratch, Network};
use relcnn_relexec::conv::{reliable_conv2d, reliable_relu, ExecStats};
use relcnn_relexec::{DmrAlu, PlainAlu, RedundancyMode, TmrAlu};
use relcnn_tensor::conv::ConvGeometry;
use relcnn_tensor::ops::argmax_slice;
use relcnn_tensor::Tensor;
use relcnn_vision::radial::radial_signature;
use relcnn_vision::{rgb_to_gray, sobel, threshold, VisionError};
use std::time::Instant;

/// The comparable content of a classification: every field of
/// `QualifiedClassification`, floats as raw bits.
#[derive(Debug, Clone, PartialEq)]
pub struct VerdictView {
    /// Predicted class index.
    pub class: usize,
    /// `f32::to_bits` of the softmax confidence.
    pub confidence_bits: u32,
    /// Whether the predicted class is safety-critical.
    pub safety_critical: bool,
    /// The reliable partition's report.
    pub guarantee: GuaranteeReport,
    /// The qualifier's verdict, when it ran.
    pub qualifier: Option<QualifierVerdict>,
}

impl VerdictView {
    /// The view of a program verdict.
    pub fn of(q: &QualifiedClassification) -> Self {
        VerdictView {
            class: q.class(),
            confidence_bits: q.confidence().to_bits(),
            safety_critical: q.is_safety_critical(),
            guarantee: *q.guarantee(),
            qualifier: q.qualifier().cloned(),
        }
    }

    /// Digest of every field, floats by bit pattern: a one-ulp change
    /// anywhere changes it.
    pub fn digest(&self) -> u64 {
        let g = &self.guarantee;
        let mut h = Fnv::default();
        h.u64(self.class as u64)
            .u64(u64::from(self.confidence_bits))
            .u64(u64::from(self.safety_critical))
            .str(&format!("{:?}", g.mode))
            .u64(g.ops)
            .u64(g.detected)
            .u64(g.recovered)
            .u64(g.cycles)
            .u64(u64::from(g.bucket_peak));
        match &self.qualifier {
            None => {
                h.u64(0);
            }
            Some(v) => {
                h.u64(1)
                    .u64(u64::from(v.accepted))
                    .u64(v.mindist.map_or(u64::MAX, f64::to_bits))
                    .u64(u64::from(v.radial_ratio.to_bits()))
                    .u64(v.corners as u64)
                    .u64(u64::from(v.mean_radius.to_bits()))
                    .str(v.word.as_deref().unwrap_or("-"));
                for reason in &v.reject_reasons {
                    h.str(reason);
                }
            }
        }
        h.finish()
    }
}

/// Digest of a classification result, errors included (an abort is an
/// outcome the checks compare like any verdict).
pub fn result_digest(result: &Result<VerdictView, HybridError>) -> u64 {
    match result {
        Ok(v) => v.digest(),
        Err(e) => Fnv::default().str("error").str(&e.to_string()).finish(),
    }
}

/// Runs `$body` with `$alu` bound to the ALU of `$mode` around a clone of
/// `$inj`, then hands the evolved injector back — as the program does, so
/// an aborted stage leaves the injector at its pre-call state.
macro_rules! on_alu {
    ($mode:expr, $inj:expr, |$alu:ident| $body:expr) => {
        match $mode {
            RedundancyMode::Plain => {
                let mut $alu = PlainAlu::new($inj.clone());
                let out = $body?;
                *$inj = $alu.into_injector();
                out
            }
            RedundancyMode::Dmr => {
                let mut $alu = DmrAlu::new($inj.clone());
                let out = $body?;
                *$inj = $alu.into_injector();
                out
            }
            RedundancyMode::Tmr => {
                let mut $alu = TmrAlu::new($inj.clone());
                let out = $body?;
                *$inj = $alu.into_injector();
                out
            }
        }
    };
}

/// One re-executed classification: the verdict and the summed duration
/// of its top-level stages.
#[derive(Debug)]
pub struct ChainRun {
    /// The chain's verdict (or the error it stopped with).
    pub result: Result<VerdictView, HybridError>,
    /// Sum of the top-level stage spans, in milliseconds.
    pub stage_ms: f64,
}

/// The unprotected tail and its arena, owned by the benchmark so the
/// chain never touches the program's per-classifier scratch.
#[derive(Debug, Clone)]
pub struct StageChain {
    net: Network,
    scratch: InferScratch,
}

impl StageChain {
    /// A chain over a copy of `hybrid`'s network.
    pub fn new(hybrid: &HybridCnn) -> Self {
        StageChain {
            net: hybrid.network_ref().clone(),
            scratch: InferScratch::new(),
        }
    }

    /// Grow events of the chain's tail arena (constant once warm).
    pub fn arena_grow_events(&self) -> u64 {
        self.scratch.grow_events()
    }

    /// Re-executes `hybrid.classify_under_faults(image, injector)` stage
    /// by stage, recording spans for operation `op`.
    pub fn run<I: FaultInjector + Clone>(
        &mut self,
        hybrid: &HybridCnn,
        image: &Tensor,
        injector: &mut I,
        spans: &mut Spans,
        op: u64,
    ) -> ChainRun {
        let mut stage_ms = 0.0;
        let result = self.stages(hybrid, image, injector, spans, op, &mut stage_ms);
        ChainRun { result, stage_ms }
    }

    fn stages<I: FaultInjector + Clone>(
        &mut self,
        hybrid: &HybridCnn,
        image: &Tensor,
        injector: &mut I,
        spans: &mut Spans,
        op: u64,
        stage_ms: &mut f64,
    ) -> Result<VerdictView, HybridError> {
        let config = hybrid.config();
        let conv = hybrid
            .network_ref()
            .conv2d_at(0)
            .expect("a hybrid network starts with conv-1");
        let mut timed = |spans: &mut Spans, name: &'static str| {
            *stage_ms += spans.samples(name).last().copied().unwrap_or(0.0);
        };

        let geom = spans.time("core.input_check", op, || {
            if image.shape().rank() != 3 || image.shape().dim(0) != 3 {
                return Err(HybridError::BadConfig {
                    reason: format!("expected [3,h,w] image, got {}", image.shape()),
                });
            }
            Ok(ConvGeometry::new(
                image.shape().dim(1),
                image.shape().dim(2),
                conv.kernel_size(),
                conv.kernel_size(),
                conv.stride(),
                conv.padding(),
            )?)
        });
        timed(spans, "core.input_check");
        let geom = geom?;

        let (filters, bias) = (conv.filters(), conv.bias());
        let conv_out = spans.time("relexec.conv", op, || -> Result<_, HybridError> {
            Ok(on_alu!(config.redundancy, injector, |alu| reliable_conv2d(
                image,
                filters,
                Some(bias),
                &geom,
                &mut alu,
                &config.conv,
            )))
        });
        timed(spans, "relexec.conv");
        let conv_out = conv_out?;
        let mut stats: ExecStats = conv_out.stats;

        let mut tail_start = 1;
        let conv_out = if config.reliable_relu {
            if self.net.layer_names().get(1) != Some(&"relu") {
                return Err(HybridError::BadConfig {
                    reason: "reliable_relu requires layer 1 to be a ReLU".into(),
                });
            }
            tail_start = 2;
            let relu = spans.time("relexec.relu", op, || -> Result<_, HybridError> {
                Ok(on_alu!(config.redundancy, injector, |alu| reliable_relu(
                    &conv_out.output,
                    &mut alu,
                    &config.conv,
                )))
            });
            timed(spans, "relexec.relu");
            let relu = relu?;
            stats.acc_ops += relu.stats.acc_ops;
            stats.failed_ops += relu.stats.failed_ops;
            stats.retries += relu.stats.retries;
            stats.recovered += relu.stats.recovered;
            stats.cycles += relu.stats.cycles;
            stats.bucket_peak = stats.bucket_peak.max(relu.stats.bucket_peak);
            relu.output
        } else {
            conv_out.output
        };
        let guarantee = GuaranteeReport::from_stats(config.redundancy, &stats);

        let (net, scratch) = (&mut self.net, &mut self.scratch);
        spans.time("nn.tail", op, || {
            net.forward_from_scratch(&conv_out, tail_start, scratch)
        })?;
        timed(spans, "nn.tail");

        let top = spans.time("nn.softmax", op, || {
            let probs = scratch.softmax_front();
            argmax_slice(probs).map(|class| (class, probs[class]))
        });
        timed(spans, "nn.softmax");
        let (class, confidence) = top.ok_or_else(|| HybridError::BadConfig {
            reason: "empty class output".into(),
        })?;

        let safety_critical = config.safety_critical.get(class).copied().unwrap_or(false);
        let expected = config.class_shapes.get(class).copied().flatten();
        let qualifier = match (safety_critical, expected) {
            (true, Some(shape)) => {
                let mark = spans.begin();
                let verdict = qualify(hybrid, image, &conv_out, shape, spans, op);
                spans.end(mark, "core.qualifier", op);
                timed(spans, "core.qualifier");
                Some(verdict?)
            }
            _ => None,
        };

        Ok(VerdictView {
            class,
            confidence_bits: confidence.to_bits(),
            safety_critical,
            guarantee,
            qualifier,
        })
    }
}

/// The qualifier, split at its public vision/SAX calls (Figure 1: gray +
/// Sobel on the image; Figure 2: the edge map of the reliable conv-1
/// Sobel maps), then threshold, radial signature and SAX assessment.
fn qualify(
    hybrid: &HybridCnn,
    image: &Tensor,
    conv_out: &Tensor,
    shape: relcnn_gtsrb::ShapeKind,
    spans: &mut Spans,
    op: u64,
) -> Result<QualifierVerdict, HybridError> {
    let qualifier = hybrid.qualifier();
    let edges = match hybrid.config().qualification {
        QualificationMode::Parallel => {
            let gray = spans.time("vision.gray", op, || rgb_to_gray(image))?;
            spans.time("vision.sobel", op, || sobel::gradient_magnitude(&gray))?
        }
        QualificationMode::Hybrid => spans.time("core.edge_map", op, || {
            // Filters 0 and 1 of conv-1 carry the pinned Sobel-x/y banks.
            let gx = conv_out.index_axis0(0)?;
            let gy = conv_out.index_axis0(1)?;
            let data = gx
                .iter()
                .zip(gy.iter())
                .map(|(&x, &y)| (x * x + y * y).sqrt())
                .collect();
            Tensor::from_vec(gx.shape().clone(), data)
        })?,
    };
    let mask = spans.time("vision.threshold", op, || {
        threshold::binarize(&edges, threshold::otsu_threshold(&edges))
    });
    let sig = spans.time("vision.radial", op, || {
        radial_signature(&mask, qualifier.config().angles)
    });
    match sig {
        Ok(sig) => Ok(spans.time("sax.assess", op, || qualifier.assess_signature(&sig, shape))),
        // No edge content: the program's own verdict for an empty mask.
        Err(VisionError::EmptyMask) => qualifier.assess_edge_map(&edges, shape),
        Err(e) => Err(e.into()),
    }
}

/// Multiply-accumulates of the unprotected tail (layers from
/// `tail_start`), from the layer output shapes of one forward pass.
pub fn tail_macs(hybrid: &HybridCnn, image: &Tensor) -> Result<u64, HybridError> {
    let mut net = hybrid.network_ref().clone();
    let names = net.layer_names();
    let outs = net.forward_trace(image, relcnn_nn::Mode::Eval)?;
    let tail_start = if hybrid.config().reliable_relu { 2 } else { 1 };
    let mut macs = 0u64;
    for idx in tail_start..outs.len() {
        let input = &outs[idx - 1];
        match names[idx] {
            "conv2d" => {
                let conv = net.conv2d_at(idx).expect("layer named conv2d");
                let geom = ConvGeometry::new(
                    input.shape().dim(1),
                    input.shape().dim(2),
                    conv.kernel_size(),
                    conv.kernel_size(),
                    conv.stride(),
                    conv.padding(),
                )?;
                macs += geom.mac_count(conv.in_channels(), conv.out_channels());
            }
            "dense" => macs += (input.len() * outs[idx].len()) as u64,
            _ => {}
        }
    }
    Ok(macs)
}

/// Table 1 from outside: `reliable_conv2d` on the same image under
/// `PlainAlu`, `DmrAlu` and `TmrAlu`, interleaved round by round so drift
/// hits all three alike. Returns the medians of the per-round DMR/Plain
/// and TMR/Plain ratios; runs at least `min_rounds` rounds and until
/// `budget_s` seconds have passed.
pub fn table1_ratios(
    hybrid: &HybridCnn,
    images: &[Tensor],
    min_rounds: usize,
    budget_s: f64,
    spans: &mut Spans,
) -> Result<(f64, f64), HybridError> {
    let config = hybrid.config();
    let conv = hybrid
        .network_ref()
        .conv2d_at(0)
        .expect("a hybrid network starts with conv-1");
    let (filters, bias) = (conv.filters(), conv.bias());
    let start = Instant::now();
    let (mut dmr, mut tmr) = (Vec::new(), Vec::new());
    let mut round = 0usize;
    while round < min_rounds || start.elapsed().as_secs_f64() < budget_s {
        let image = &images[round % images.len()];
        let geom = ConvGeometry::new(
            image.shape().dim(1),
            image.shape().dim(2),
            conv.kernel_size(),
            conv.kernel_size(),
            conv.stride(),
            conv.padding(),
        )?;
        let mut times = [0.0f64; 3];
        for (slot, mode) in [
            RedundancyMode::Plain,
            RedundancyMode::Dmr,
            RedundancyMode::Tmr,
        ]
        .into_iter()
        .enumerate()
        {
            let name = match mode {
                RedundancyMode::Plain => "relexec.conv_plain",
                RedundancyMode::Dmr => "relexec.conv_dmr",
                RedundancyMode::Tmr => "relexec.conv_tmr",
            };
            let mut injector = NoFaults::new();
            let out = spans.time(name, round as u64, || -> Result<_, HybridError> {
                Ok(on_alu!(mode, &mut injector, |alu| reliable_conv2d(
                    image,
                    filters,
                    Some(bias),
                    &geom,
                    &mut alu,
                    &config.conv,
                )))
            })?;
            std::hint::black_box(out);
            times[slot] = spans.samples(name).last().copied().unwrap_or(0.0);
        }
        dmr.push(times[1] / times[0]);
        tmr.push(times[2] / times[0]);
        round += 1;
    }
    Ok((median(&dmr), median(&tmr)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::render_pool;
    use relcnn_core::HybridConfig;
    use relcnn_faults::{BerInjector, FaultSite};
    use relcnn_obs::trace::TraceRecorder;

    fn tiny() -> (HybridCnn, Vec<Tensor>) {
        let hybrid = HybridCnn::untrained(&HybridConfig::tiny(3)).unwrap();
        (hybrid, render_pool(48, 1, 4))
    }

    #[test]
    fn a_one_ulp_confidence_change_fails_the_digest_check() {
        let (mut hybrid, pool) = tiny();
        let view = VerdictView::of(&hybrid.classify(&pool[0]).unwrap());
        let mut bumped = view.clone();
        bumped.confidence_bits += 1;
        assert_ne!(view.digest(), bumped.digest());
        assert_ne!(result_digest(&Ok(view)), result_digest(&Ok(bumped)));
    }

    #[test]
    fn the_stage_chain_matches_classify_bit_for_bit() {
        let (mut hybrid, pool) = tiny();
        let mut chain = StageChain::new(&hybrid);
        let mut spans = Spans::new(&TraceRecorder::off(), "test");
        for (i, image) in pool.iter().enumerate() {
            let expected = VerdictView::of(&hybrid.classify(image).unwrap());
            let run = chain.run(&hybrid, image, &mut NoFaults::new(), &mut spans, i as u64);
            assert_eq!(run.result.unwrap().digest(), expected.digest(), "image {i}");
            assert!(run.stage_ms > 0.0);
        }
        // Under faults too: the same injector seed gives the same verdict,
        // recoveries and counters.
        let sites = [FaultSite::Multiplier, FaultSite::Accumulator];
        let mut a = BerInjector::new(9, 1e-4).with_sites(sites);
        let mut b = a.clone();
        let program = hybrid.classify_under_faults(&pool[0], &mut a);
        let run = chain.run(&hybrid, &pool[0], &mut b, &mut spans, 0);
        assert_eq!(
            result_digest(&program.map(|q| VerdictView::of(&q))),
            result_digest(&run.result)
        );
        assert_eq!(a.stats(), b.stats());
        assert!(a.stats().injected > 0);
    }

    #[test]
    fn tail_macs_count_the_dense_and_conv_layers_after_conv1() {
        let (hybrid, pool) = tiny();
        let macs = tail_macs(&hybrid, &pool[0]).unwrap();
        assert!(macs > 0);
        assert_eq!(macs, tail_macs(&hybrid, &pool[1]).unwrap());
    }
}
