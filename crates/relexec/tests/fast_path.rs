//! The clean-horizon fast path of `reliable_conv2d` against its oracle.
//!
//! The oracle is the same convolution with every element on the per-op
//! Algorithm-3 path: the same injector wrapped in [`PerOp`], which hides
//! the injector's horizon. Every case must agree on the output bits,
//! `ExecStats`, the ALU's op count and cycles, the injector counters,
//! the injector's behaviour afterwards, and every error value.

use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use relcnn_faults::{
    BerInjector, Exposures, FaultDuration, FaultInjector, FaultKind, FaultSite, Horizon,
    InjectorStats, NoFaults, OpContext, ScriptedFault, ScriptedInjector,
};
use relcnn_relexec::conv::{reliable_conv2d, ConvOutput, ReliableConvConfig};
use relcnn_relexec::{
    with_alu, BucketConfig, ExecError, QualifiedAlu, RedundancyMode, RetryPolicy,
};
use relcnn_tensor::conv::ConvGeometry;
use relcnn_tensor::{Shape, Tensor};

/// An injector with its horizon hidden: every exposure goes through
/// `perturb`, so the convolution runs every element per op.
#[derive(Debug, Clone)]
struct PerOp<I>(I);

impl<I: FaultInjector> FaultInjector for PerOp<I> {
    fn perturb(&mut self, ctx: OpContext, value: f32) -> f32 {
        self.0.perturb(ctx, value)
    }

    fn stats(&self) -> InjectorStats {
        self.0.stats()
    }

    fn reset_stats(&mut self) {
        self.0.reset_stats()
    }
}

/// The injector, horizon included, counting the exposures that still go
/// through `perturb` one by one.
#[derive(Debug, Clone)]
struct Counted<I> {
    inner: I,
    perturbs: u64,
}

impl<I: FaultInjector> FaultInjector for Counted<I> {
    fn perturb(&mut self, ctx: OpContext, value: f32) -> f32 {
        self.perturbs += 1;
        self.inner.perturb(ctx, value)
    }

    fn stats(&self) -> InjectorStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats()
    }

    fn clean_horizon(&mut self, next_op: u64) -> Horizon {
        self.inner.clean_horizon(next_op)
    }

    fn commit_clean(&mut self, run: &Exposures) {
        self.inner.commit_clean(run)
    }
}

/// One convolution problem.
#[derive(Debug, Clone)]
struct Problem {
    input: Tensor,
    filters: Tensor,
    bias: Option<Tensor>,
    geom: ConvGeometry,
    config: ReliableConvConfig,
}

/// Everything a run leaves behind that the two paths must agree on.
#[derive(Debug, PartialEq)]
struct Trace {
    result: Result<(Vec<u32>, relcnn_relexec::conv::ExecStats), ExecError>,
    op_count: u64,
    cycles: u64,
    injector: InjectorStats,
    /// The injector's outputs on a fixed probe sequence afterwards.
    after: Vec<u32>,
    after_stats: InjectorStats,
}

/// A value drawn from the awkward corners of `f32` as often as from the
/// ordinary range.
fn value(rng: &mut ChaCha8Rng) -> f32 {
    match rng.random_range(0..12u32) {
        0 => 0.0,
        1 => -0.0,
        2 => f32::from_bits(rng.random_range(1..0x0080_0000u32)), // subnormal
        3 => -f32::from_bits(rng.random_range(1..0x0080_0000u32)),
        4 => f32::INFINITY,
        5 => f32::NEG_INFINITY,
        6 => f32::NAN,
        _ => rng.random_range(-4.0f32..4.0),
    }
}

fn problem(rng: &mut ChaCha8Rng, exotic: bool) -> Problem {
    let in_c = rng.random_range(1..=3usize);
    let out_c = rng.random_range(1..=3usize);
    let (in_h, in_w) = (rng.random_range(1..=7usize), rng.random_range(1..=7usize));
    let pad = rng.random_range(0..=2usize);
    let stride = rng.random_range(1..=3usize);
    // Up to the padded edge: kernels wider than the input itself leave
    // output elements whose taps are all (or all but a few) padding.
    let k_h = rng.random_range(1..=in_h + 2 * pad);
    let k_w = rng.random_range(1..=in_w + 2 * pad);
    let geom = ConvGeometry::new(in_h, in_w, k_h, k_w, stride, pad).unwrap();
    let has_bias = rng.random::<bool>();
    let mut draw = |n: usize| -> Vec<f32> {
        (0..n)
            .map(|_| {
                if exotic {
                    value(rng)
                } else {
                    rng.random_range(-2.0f32..2.0)
                }
            })
            .collect()
    };
    let input = Tensor::from_vec(Shape::d3(in_c, in_h, in_w), draw(in_c * in_h * in_w)).unwrap();
    let filters = Tensor::from_vec(
        Shape::d4(out_c, in_c, k_h, k_w),
        draw(out_c * in_c * k_h * k_w),
    )
    .unwrap();
    let bias = has_bias.then(|| Tensor::from_vec(Shape::d1(out_c), draw(out_c)).unwrap());
    let config = ReliableConvConfig {
        bucket: BucketConfig::new(rng.random_range(1..=3u32), rng.random_range(1..=8u32)),
        retry: RetryPolicy::with_retries(rng.random_range(0..=3u32)),
        pe_count: rng.random_range(1..=4u32),
    };
    Problem {
        input,
        filters,
        bias,
        geom,
        config,
    }
}

fn sites(rng: &mut ChaCha8Rng) -> Vec<FaultSite> {
    FaultSite::ALL
        .into_iter()
        .filter(|_| rng.random::<bool>())
        .collect()
}

/// A random fault script over the first `ops` (plus a few) op indices.
fn script(rng: &mut ChaCha8Rng, ops: u64) -> ScriptedInjector {
    let faults: Vec<ScriptedFault> = (0..rng.random_range(0..=4usize))
        .map(|_| {
            let kind = match rng.random_range(0..4u32) {
                0 => FaultKind::BitFlip {
                    bit: rng.random_range(0..32u32),
                },
                1 => FaultKind::RandomBitFlip,
                2 => FaultKind::StuckBit {
                    bit: rng.random_range(0..32u32),
                    high: rng.random(),
                },
                _ => FaultKind::Replace { value: value(rng) },
            };
            let duration = match rng.random_range(0..3u32) {
                0 => FaultDuration::Transient,
                1 => FaultDuration::Permanent,
                _ => FaultDuration::Intermittent {
                    activation: rng.random_range(0.0f64..1.0),
                },
            };
            ScriptedFault {
                op_index: rng.random_range(0..ops + 4),
                replica: rng.random::<bool>().then(|| rng.random_range(0..3u8)),
                site: rng
                    .random::<bool>()
                    .then(|| FaultSite::ALL[rng.random_range(0..FaultSite::ALL.len())]),
                kind,
                duration,
            }
        })
        .collect();
    ScriptedInjector::new(faults).with_seed(rng.random())
}

/// An output value's bits, every NaN as `f32::NAN`'s.
///
/// Rust leaves the sign and payload of a NaN produced by arithmetic
/// unspecified: on x86 an add of two NaNs returns the one the compiler
/// placed in the destination register, and `fadd` may be commuted
/// freely. Two compilations of the same chain can therefore disagree on
/// a NaN's bits (the debug build does). Every other value is compared bit
/// for bit.
fn output_bits(v: f32) -> u32 {
    if v.is_nan() {
        f32::NAN.to_bits()
    } else {
        v.to_bits()
    }
}

/// Runs the problem; returns what it left behind and the injector as the
/// convolution left it.
fn run<I: FaultInjector + Clone>(p: &Problem, mode: RedundancyMode, injector: I) -> (Trace, I) {
    let ((result, op_count, cycles), mut injector) = with_alu(mode, injector, |alu| {
        let r = reliable_conv2d(
            &p.input,
            &p.filters,
            p.bias.as_ref(),
            &p.geom,
            alu,
            &p.config,
        );
        (r, alu.op_count(), alu.cycles())
    });
    let stats = injector.stats();
    let evolved = injector.clone();
    let after = (0..48u64)
        .map(|i| {
            let ctx = OpContext::new(FaultSite::ALL[i as usize % 5], op_count + i / 3)
                .with_replica((i % 3) as u8);
            injector.perturb(ctx, 1.5).to_bits()
        })
        .collect();
    let trace = Trace {
        result: result.map(|ConvOutput { output, stats }| {
            (output.iter().map(|&v| output_bits(v)).collect(), stats)
        }),
        op_count,
        cycles,
        injector: stats,
        after,
        after_stats: injector.stats(),
    };
    (trace, evolved)
}

/// Runs the problem on both paths and returns the fast path's trace and
/// how many of its exposures went through `perturb` one by one.
fn agree<I: FaultInjector + Clone + std::fmt::Debug>(
    p: &Problem,
    mode: RedundancyMode,
    injector: I,
) -> Result<(Trace, u64), TestCaseError> {
    let counted = Counted {
        inner: injector.clone(),
        perturbs: 0,
    };
    let (fast, counted) = run(p, mode, counted);
    let (oracle, _) = run(p, mode, PerOp(injector));
    prop_assert_eq!(
        &fast,
        &oracle,
        "{} on {:?}\n fast:   {:?}\n oracle: {:?}",
        mode,
        p.geom,
        fast,
        oracle
    );
    Ok((fast, counted.perturbs))
}

fn mode(i: u8) -> RedundancyMode {
    RedundancyMode::ALL[i as usize % 3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Fault-free, with ±0, subnormals, ±inf and NaN among the operands.
    #[test]
    fn no_faults_fast_path_is_the_per_op_path(seed in any::<u64>(), m in 0u8..3) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let p = problem(&mut rng, true);
        let (trace, perturbs) = agree(&p, mode(m), NoFaults::new())?;
        prop_assert!(trace.result.is_ok());
        prop_assert_eq!(perturbs, 0, "a clean run never leaves the fast path");
    }

    /// Random transient, permanent and intermittent scripts, with and
    /// without replica and site filters.
    #[test]
    fn scripted_faults_fast_path_is_the_per_op_path(
        seed in any::<u64>(),
        m in 0u8..3,
        exotic in any::<bool>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let p = problem(&mut rng, exotic);
        let ops = 2 * p.geom.mac_count(p.input.shape().dim(0), p.filters.shape().dim(0));
        let injector = script(&mut rng, ops);
        agree(&p, mode(m), injector)?;
    }

    /// Bit-error-rate faults on random site subsets, loads included.
    #[test]
    fn ber_faults_fast_path_is_the_per_op_path(
        seed in any::<u64>(),
        m in 0u8..3,
        ber in prop::sample::select(vec![0.0, 1e-4, 1e-2, 0.3]),
        exotic in any::<bool>(),
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let p = problem(&mut rng, exotic);
        let injector = BerInjector::new(rng.random(), ber).with_sites(sites(&mut rng));
        let (_, perturbs) = agree(&p, mode(m), injector)?;
        if ber == 0.0 {
            prop_assert_eq!(perturbs, 0);
        }
    }
}

/// A BER campaign large enough to cross many keystream scans and faults,
/// on the paper's bucket: both paths abort or finish identically.
#[test]
fn ber_campaign_on_a_larger_layer_matches() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xBEE);
    let geom = ConvGeometry::new(16, 16, 5, 5, 1, 2).unwrap();
    let input = Tensor::from_vec(
        Shape::d3(3, 16, 16),
        (0..3 * 256)
            .map(|_| rng.random_range(-1.0f32..1.0))
            .collect(),
    )
    .unwrap();
    let filters = Tensor::from_vec(
        Shape::d4(4, 3, 5, 5),
        (0..4 * 75)
            .map(|_| rng.random_range(-1.0f32..1.0))
            .collect(),
    )
    .unwrap();
    let p = Problem {
        input,
        filters,
        bias: Some(Tensor::from_vec(Shape::d1(4), vec![0.5, -0.25, 0.0, -0.0]).unwrap()),
        geom,
        config: ReliableConvConfig::default(),
    };
    let (mut recovered, mut perturbs, mut exposures) = (0, 0, 0);
    for seed in 0..12u64 {
        for mode in RedundancyMode::ALL {
            let injector = BerInjector::new(seed, 1e-4)
                .with_sites(vec![FaultSite::Multiplier, FaultSite::Accumulator]);
            let (trace, n) = agree(&p, mode, injector).unwrap();
            if let Ok((_, stats)) = &trace.result {
                recovered += stats.recovered;
            }
            perturbs += n;
            exposures += trace.injector.exposures;
        }
    }
    assert!(
        recovered > 0,
        "the campaign must exercise the per-op recovery"
    );
    assert!(
        perturbs > 0 && perturbs * 20 < exposures,
        "faulted elements only go per op: {perturbs} of {exposures}"
    );
}

// ---------------------------------------------------------------------
// The known traps, one named test each.
// ---------------------------------------------------------------------

/// A 1×1-input, one-channel convolution with the given weights along the
/// input channels.
fn dot_problem(weights: &[f32], activations: &[f32], bias: Option<f32>) -> Problem {
    let c = weights.len();
    Problem {
        input: Tensor::from_vec(Shape::d3(c, 1, 1), activations.to_vec()).unwrap(),
        filters: Tensor::from_vec(Shape::d4(1, c, 1, 1), weights.to_vec()).unwrap(),
        bias: bias.map(|b| Tensor::from_vec(Shape::d1(1), vec![b]).unwrap()),
        geom: ConvGeometry::new(1, 1, 1, 1, 1, 0).unwrap(),
        config: ReliableConvConfig::default(),
    }
}

fn single_output(p: &Problem, mode: RedundancyMode) -> f32 {
    let (trace, _) = agree(p, mode, NoFaults::new()).unwrap();
    let (bits, _) = trace.result.unwrap();
    f32::from_bits(bits[0])
}

/// The chain starts at the loaded bias: `(1 + 1e8) − 1e8` is 0 in f32,
/// while adding the bias last (`(1e8 − 1e8) + 1`, as the blocked GEMM's
/// `gemm_bias_into` does) gives 1. Without a bias it starts at `+0.0`, so
/// negative-zero products sum to `+0.0`.
#[test]
fn accumulation_starts_at_the_bias_or_positive_zero() {
    for mode in RedundancyMode::ALL {
        let p = dot_problem(&[1e8, -1e8], &[1.0, 1.0], Some(1.0));
        assert_eq!(single_output(&p, mode).to_bits(), 0.0f32.to_bits());
        let p = dot_problem(&[-1.0, 0.0], &[0.0, -1.0], None);
        assert_eq!(single_output(&p, mode).to_bits(), 0.0f32.to_bits());
        let p = dot_problem(&[-1.0], &[0.0], Some(-0.0));
        assert_eq!(single_output(&p, mode).to_bits(), (-0.0f32).to_bits());
    }
}

/// Padded taps issue no operation and no exposure: the op count and the
/// exposures follow the valid taps alone, on both paths.
#[test]
fn padded_taps_issue_no_operation_and_no_exposure() {
    // 2×2 input, 3×3 kernel, padding 1: each of the four outputs sees a
    // 2×2 window of real input.
    let p = Problem {
        input: Tensor::from_vec(Shape::d3(1, 2, 2), vec![1.0, 2.0, 3.0, 4.0]).unwrap(),
        filters: Tensor::from_vec(Shape::d4(1, 1, 3, 3), vec![1.0; 9]).unwrap(),
        bias: None,
        geom: ConvGeometry::new(2, 2, 3, 3, 1, 1).unwrap(),
        config: ReliableConvConfig::default(),
    };
    for mode in RedundancyMode::ALL {
        let (trace, _) = agree(&p, mode, NoFaults::new()).unwrap();
        let (bits, stats) = trace.result.unwrap();
        let valid_macs = 4 * 4;
        assert_eq!(stats.mul_ops, valid_macs);
        assert_eq!(trace.op_count, 2 * valid_macs);
        // Two loads plus a multiply and an accumulate per replica.
        let replicas = mode.replicas() as u64;
        assert_eq!(trace.injector.exposures, valid_macs * (2 + 2 * replicas));
        assert!(bits.iter().all(|&b| f32::from_bits(b) == 10.0));
    }
}

/// Zero operands are multiplied like any other: `0 · inf` is NaN and a
/// zero weight still costs its operations and exposures.
#[test]
fn zero_operands_are_never_skipped() {
    for mode in RedundancyMode::ALL {
        let p = dot_problem(&[0.0, 1.0], &[f32::INFINITY, 2.0], None);
        assert!(single_output(&p, mode).is_nan());
        let p = dot_problem(&[0.0, 0.0], &[3.0, -0.0], Some(0.5));
        let (trace, _) = agree(&p, mode, NoFaults::new()).unwrap();
        assert_eq!(trace.op_count, 4);
        assert_eq!(trace.result.unwrap().1.mul_ops, 2);
    }
}

/// Every product is rounded before it is added and the chain runs in tap
/// order: a fused multiply-add of `w·a + acc` below would keep the
/// `2^-24` the rounded product drops.
#[test]
fn no_fused_multiply_add_and_no_reassociation() {
    let w = 1.0 + f32::EPSILON * 16.0; // 1 + 2^-19
    for mode in RedundancyMode::ALL {
        // bias + w·w: w·w = 1 + 2^-18 + 2^-38 rounds to 1 + 2^-18.
        let p = dot_problem(&[w], &[w], Some(-(1.0 + f32::EPSILON * 32.0)));
        assert_eq!(single_output(&p, mode).to_bits(), 0.0f32.to_bits());
        // Tap order: (1e8 + 1) − 1e8 = 0, never 1e8 − 1e8 + 1.
        let p = dot_problem(&[1e8, 1.0, -1e8], &[1.0, 1.0, 1.0], None);
        assert_eq!(single_output(&p, mode).to_bits(), 0.0f32.to_bits());
    }
}

/// A kernel larger than the padded input is a geometry error before any
/// operation is issued.
#[test]
fn kernel_beyond_the_padded_input_is_rejected_by_the_geometry() {
    assert!(ConvGeometry::new(2, 2, 5, 1, 1, 1).is_err());
    assert!(ConvGeometry::new(2, 2, 4, 4, 1, 1).is_ok());
}

/// A fault deep inside a clean stretch surfaces with the same error
/// value on both paths: the persistent abort and the exhausted retry
/// carry the failing op index, bucket level and error count.
#[test]
fn errors_carry_the_same_op_index_and_bucket_state() {
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let mut p = problem(&mut rng, false);
    p.geom = ConvGeometry::new(6, 6, 3, 3, 1, 1).unwrap();
    p.input = Tensor::from_vec(Shape::d3(2, 6, 6), vec![0.5; 72]).unwrap();
    p.filters = Tensor::from_vec(Shape::d4(2, 2, 3, 3), vec![0.25; 36]).unwrap();
    let fault = |op| {
        ScriptedInjector::new([ScriptedFault::transient_flip(op, 30)
            .on_replica(1)
            .at_site(FaultSite::Multiplier)
            .permanent()])
    };
    p.config = ReliableConvConfig::default();
    let (trace, _) = agree(&p, RedundancyMode::Dmr, fault(300)).unwrap();
    assert!(matches!(
        trace.result,
        Err(ExecError::PersistentFailure { op_index: 300, .. })
    ));
    p.config = ReliableConvConfig {
        bucket: BucketConfig::new(1, 100),
        retry: RetryPolicy::with_retries(2),
        pe_count: 4,
    };
    let (trace, _) = agree(&p, RedundancyMode::Dmr, fault(402)).unwrap();
    assert!(matches!(
        trace.result,
        Err(ExecError::UnrecoverableOperation {
            op_index: 402,
            retries: 2
        })
    ));
}
