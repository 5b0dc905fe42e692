//! Algorithm 3: the reliable convolution kernel.
//!
//! "The algorithm … calculates one convolution operation. It assumes that
//! every operation fails unless explicitly asserted otherwise. … If an
//! error occurs during the execution of an operation then, following the
//! leaky bucket pattern, an error counter is incremented by a value and
//! checked against a ceiling. For every correct operation this error
//! counter is decremented by one, floor zero. … To increase availability,
//! should one incorrect operation occur then that operation shall be
//! repeated." (paper §IV)
//!
//! The rollback distance is a single operation: a failed multiply or
//! accumulate rolls the ALU back one checkpoint and re-executes just that
//! operation. [`duplicated_conv2d`] provides the layer-granularity
//! alternative (full re-execution on mismatch) used by the rollback-
//! distance ablation.

use crate::alu::{mac_exposures, QualifiedAlu};
use crate::bucket::{BucketConfig, BucketState, LeakyBucket};
use crate::error::ExecError;
use crate::policy::RetryPolicy;
use crate::qualified::Qualified;
use relcnn_faults::Horizon;
use relcnn_tensor::conv::ConvGeometry;
use relcnn_tensor::{Shape, Tensor, TensorError};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Configuration of a reliable convolution run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReliableConvConfig {
    /// Leaky-bucket parameters (Algorithm 3 lines 2/12/18–19).
    pub bucket: BucketConfig,
    /// Per-operation retry budget (the paper repeats once).
    pub retry: RetryPolicy,
    /// Number of processing elements the output channels are distributed
    /// over (Jetson-class edge accelerators have ~128; paper §II).
    pub pe_count: u32,
}

impl Default for ReliableConvConfig {
    fn default() -> Self {
        ReliableConvConfig {
            bucket: BucketConfig::default(),
            retry: RetryPolicy::paper(),
            pe_count: 128,
        }
    }
}

/// Execution statistics of one reliable convolution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecStats {
    /// Qualified multiply operations issued (excluding retries).
    pub mul_ops: u64,
    /// Qualified accumulate operations issued (excluding retries).
    pub acc_ops: u64,
    /// Qualifier failures observed (first attempts and retries).
    pub failed_ops: u64,
    /// Rollback + re-execution events.
    pub retries: u64,
    /// Retries whose re-execution then qualified.
    pub recovered: u64,
    /// Highest leaky-bucket level reached.
    pub bucket_peak: u32,
    /// Leaky-bucket level at completion.
    pub bucket_final: u32,
    /// Errors the bucket recorded.
    pub bucket_errors: u64,
    /// ALU cost-model cycles consumed.
    pub cycles: u64,
}

/// Result of a successful reliable convolution.
#[derive(Debug, Clone, PartialEq)]
pub struct ConvOutput {
    /// The CHW feature maps.
    pub output: Tensor,
    /// Execution statistics.
    pub stats: ExecStats,
}

/// Runs one qualified operation under Algorithm 3's retry/bucket regime.
fn run_qualified<A: QualifiedAlu>(
    alu: &mut A,
    bucket: &mut LeakyBucket,
    retry: RetryPolicy,
    stats: &mut ExecStats,
    mut op: impl FnMut(&mut A) -> Qualified<f32>,
) -> Result<f32, ExecError> {
    let mut q = op(alu);
    if q.is_ok() {
        bucket.record_success();
        return Ok(q.value());
    }
    let mut attempts: u32 = 0;
    loop {
        stats.failed_ops += 1;
        if bucket.record_error() == BucketState::Persistent {
            return Err(ExecError::PersistentFailure {
                op_index: alu.op_count().saturating_sub(1),
                bucket_level: bucket.level(),
                errors: bucket.errors(),
            });
        }
        if attempts >= retry.max_retries {
            return Err(ExecError::UnrecoverableOperation {
                op_index: alu.op_count().saturating_sub(1),
                retries: attempts,
            });
        }
        attempts += 1;
        stats.retries += 1;
        // Checkpoint/rollback: re-execute the same logical operation.
        alu.rollback_op();
        q = op(alu);
        if q.is_ok() {
            stats.recovered += 1;
            bucket.record_success();
            return Ok(q.value());
        }
    }
}

fn validate(
    input: &Tensor,
    filters: &Tensor,
    bias: Option<&Tensor>,
    geom: &ConvGeometry,
) -> Result<(usize, usize), ExecError> {
    if input.shape().rank() != 3 {
        return Err(TensorError::RankMismatch {
            expected: 3,
            actual: input.shape().rank(),
            op: "reliable_conv2d(input)",
        }
        .into());
    }
    if filters.shape().rank() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: filters.shape().rank(),
            op: "reliable_conv2d(filters)",
        }
        .into());
    }
    let in_c = input.shape().dim(0);
    if input.shape().dim(1) != geom.in_h() || input.shape().dim(2) != geom.in_w() {
        return Err(TensorError::ShapeMismatch {
            expected: vec![in_c, geom.in_h(), geom.in_w()],
            actual: input.shape().dims().to_vec(),
            op: "reliable_conv2d(geometry)",
        }
        .into());
    }
    let out_c = filters.shape().dim(0);
    if filters.shape().dim(1) != in_c
        || filters.shape().dim(2) != geom.k_h()
        || filters.shape().dim(3) != geom.k_w()
    {
        return Err(TensorError::ShapeMismatch {
            expected: vec![out_c, in_c, geom.k_h(), geom.k_w()],
            actual: filters.shape().dims().to_vec(),
            op: "reliable_conv2d(filters)",
        }
        .into());
    }
    if let Some(b) = bias {
        if b.len() != out_c {
            return Err(TensorError::LengthMismatch {
                expected: out_c,
                actual: b.len(),
            }
            .into());
        }
    }
    Ok((in_c, out_c))
}

/// The kernel taps of a convolution that land inside the input, per
/// output row and column. Padded taps issue no operation and no exposure.
struct TapPlan {
    in_c: usize,
    in_h: usize,
    in_w: usize,
    k_h: usize,
    k_w: usize,
    stride: usize,
    pad: usize,
    out_w: usize,
    /// Valid kernel rows per output row.
    rows: Vec<Range<usize>>,
    /// Valid kernel columns per output column.
    cols: Vec<Range<usize>>,
    /// Valid kernel rows summed over the output rows before each one.
    rows_before: Vec<usize>,
    /// Valid kernel columns summed over the output columns before each
    /// one; the last entry is the sum over the whole row.
    cols_before: Vec<usize>,
}

/// Running sums `[0, l₀, l₀ + l₁, …]` of the range lengths.
fn lengths_before(ranges: &[Range<usize>]) -> Vec<usize> {
    std::iter::once(0)
        .chain(ranges.iter().scan(0, |sum, r| {
            *sum += r.len();
            Some(*sum)
        }))
        .collect()
}

/// Kernel offsets `k_i < k` with `0 <= out_i·stride + k_i − pad < len`.
fn valid_taps(out_i: usize, stride: usize, pad: usize, k: usize, len: usize) -> Range<usize> {
    let origin = out_i * stride;
    let lo = pad.saturating_sub(origin).min(k);
    let hi = (len + pad).saturating_sub(origin).min(k);
    lo..hi.max(lo)
}

impl TapPlan {
    fn new(geom: &ConvGeometry, in_c: usize) -> Self {
        let (stride, pad) = (geom.stride(), geom.padding());
        let rows: Vec<_> = (0..geom.out_h())
            .map(|oy| valid_taps(oy, stride, pad, geom.k_h(), geom.in_h()))
            .collect();
        let cols: Vec<_> = (0..geom.out_w())
            .map(|ox| valid_taps(ox, stride, pad, geom.k_w(), geom.in_w()))
            .collect();
        TapPlan {
            in_c,
            in_h: geom.in_h(),
            in_w: geom.in_w(),
            k_h: geom.k_h(),
            k_w: geom.k_w(),
            stride,
            pad,
            out_w: geom.out_w(),
            rows_before: lengths_before(&rows),
            cols_before: lengths_before(&cols),
            rows,
            cols,
        }
    }

    /// Multiply-accumulates of the elements before element `e` of a
    /// channel (row-major), in closed form.
    fn macs_before(&self, e: usize) -> u64 {
        let (oy, ox) = (e / self.out_w, e % self.out_w);
        let full_rows = self.rows_before[oy] * self.cols_before[self.out_w];
        let this_row = if ox == 0 {
            0
        } else {
            self.rows[oy].len() * self.cols_before[ox]
        };
        (self.in_c * (full_rows + this_row)) as u64
    }

    /// The end of the longest run of elements from `elems.start` whose
    /// exposures all lie inside `horizon`, for a convolution whose next
    /// operation has index `next_op`.
    fn fit(
        &self,
        elems: Range<usize>,
        horizon: Horizon,
        next_op: u64,
        replicas: u8,
        has_bias: bool,
    ) -> usize {
        let per_mac = mac_exposures(replicas, 1, 0).at(horizon.sites);
        let per_bias = mac_exposures(replicas, 0, has_bias as u64).at(horizon.sites);
        let base = self.macs_before(elems.start);
        // Whether elements `elems.start .. end` all fit; monotone in `end`.
        let fits = |end: usize| {
            if end == elems.start {
                return true;
            }
            let macs = self.macs_before(end) - base;
            let need = macs * per_mac + (end - elems.start) as u64 * per_bias;
            // The exposures of the last element carry op indices up to its
            // last accumulate, or its own first index (the bias load) if
            // it has no tap.
            let last_macs = self.macs_before(end) - self.macs_before(end - 1);
            let last_op = next_op + 2 * macs - (last_macs > 0) as u64;
            need <= horizon.exposures && last_op < horizon.until_op
        };
        // Binary search for the largest fitting end.
        let (mut lo, mut hi) = (elems.start, elems.end);
        while lo < hi {
            let mid = lo + (hi - lo).div_ceil(2);
            if fits(mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        lo
    }

    /// One replica's pass over the output elements `elems` of one output
    /// channel (filters `f`, accumulator start `acc0`): each element's
    /// accumulation chain in the per-op path's order, `acc + w·a` over
    /// the valid taps with ascending channel, row and column, no zero
    /// skipped, each product rounded before it is added.
    ///
    /// Runs of [`ROW_GROUP`] neighbours in one output row with the same
    /// valid taps share each weight load and advance their chains side by
    /// side: every chain keeps its own order, the group only lets the
    /// CPU (and the vectoriser) overlap independent elements.
    ///
    /// Never inlined: every replica runs the same machine code, so even a
    /// NaN, whose bits Rust leaves to the compiler, comes out the same.
    #[inline(never)]
    fn replica_pass(&self, x: &[f32], f: &[f32], acc0: f32, elems: Range<usize>, out: &mut [f32]) {
        let (mut oy, mut ox) = (elems.start / self.out_w, elems.start % self.out_w);
        let mut i = 0;
        while i < out.len() {
            let width = if i + ROW_GROUP <= out.len()
                && ox + ROW_GROUP <= self.out_w
                // Valid column ranges only shrink towards the edges, so
                // equal ends mean equal ranges throughout.
                && self.cols[ox] == self.cols[ox + ROW_GROUP - 1]
            {
                let group: &mut [f32; ROW_GROUP] = (&mut out[i..i + ROW_GROUP]).try_into().unwrap();
                self.chains(x, f, acc0, oy, ox, group);
                ROW_GROUP
            } else {
                let single: &mut [f32; 1] = (&mut out[i..i + 1]).try_into().unwrap();
                self.chains(x, f, acc0, oy, ox, single);
                1
            };
            i += width;
            ox += width;
            if ox == self.out_w {
                (oy, ox) = (oy + 1, 0);
            }
        }
    }

    /// The accumulation chains of the `L` output elements from `(oy, ox)`
    /// along one output row, all with the valid taps of `(oy, ox)`.
    #[inline(always)]
    fn chains<const L: usize>(
        &self,
        x: &[f32],
        f: &[f32],
        acc0: f32,
        oy: usize,
        ox: usize,
        out: &mut [f32; L],
    ) {
        let (ky, kx) = (self.rows[oy].clone(), self.cols[ox].clone());
        let mut acc = [acc0; L];
        if !ky.is_empty() && !kx.is_empty() {
            let iy0 = oy * self.stride + ky.start - self.pad;
            let ix0 = ox * self.stride + kx.start - self.pad;
            // Input columns lane 0 reads; lane `j` reads `stride·j` on.
            let span = (L - 1) * self.stride + kx.len();
            for ic in 0..self.in_c {
                for (row, k_y) in ky.clone().enumerate() {
                    let xs = &x[(ic * self.in_h + iy0 + row) * self.in_w + ix0..][..span];
                    let fs = &f[(ic * self.k_h + k_y) * self.k_w + kx.start..][..kx.len()];
                    for (t, &w) in fs.iter().enumerate() {
                        for (lane, &a) in acc.iter_mut().zip(xs[t..].iter().step_by(self.stride)) {
                            *lane += w * a;
                        }
                    }
                }
            }
        }
        *out = acc;
    }
}

/// Neighbouring output elements one replica pass advances side by side.
const ROW_GROUP: usize = 8;

#[cfg(test)]
thread_local! {
    /// Test hook: flips the sign of the last replica's result for this
    /// flat output index on the fast path, standing in for a fault that
    /// no horizon foresaw.
    static UPSET_REPLICA_AT: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
}

/// Algorithm 3: one full convolution layer executed reliably.
///
/// Every multiply and every accumulate is a qualified operation on `alu`;
/// a failed qualifier triggers a single-operation rollback and retry, and
/// the leaky bucket escalates persistent error patterns into an abort.
///
/// **Clean horizon.** Between faults the kernel does not go through the
/// ALU one operation at a time. It asks the ALU for the injector's
/// [`Horizon`] and runs the output elements whose exposures all lie
/// inside it as tight loops: every replica of the ALU's mode really
/// executes every element (one for Plain, two compared bitwise for DMR,
/// three that must agree for TMR), and the operation index, cycles,
/// injector, statistics and the leaky bucket's success run advance in
/// closed form. The element holding the first exposure outside the
/// horizon, and any element whose replicas disagree, runs on the per-op
/// path from its own start. Injectors without a horizon (the default)
/// keep every element on the per-op path, which is the reference the
/// fast path is tested against bit for bit.
///
/// # Errors
///
/// * [`ExecError::PersistentFailure`] when the bucket crosses its ceiling;
/// * [`ExecError::UnrecoverableOperation`] when one operation exhausts its
///   retry budget with bucket head-room remaining;
/// * [`ExecError::Tensor`] for shape/geometry mismatches.
pub fn reliable_conv2d<A: QualifiedAlu>(
    input: &Tensor,
    filters: &Tensor,
    bias: Option<&Tensor>,
    geom: &ConvGeometry,
    alu: &mut A,
    config: &ReliableConvConfig,
) -> Result<ConvOutput, ExecError> {
    let (in_c, out_c) = validate(input, filters, bias, geom)?;
    let plan = TapPlan::new(geom, in_c);
    let hw = geom.out_h() * geom.out_w();
    let filter_len = in_c * geom.k_h() * geom.k_w();
    let pe_count = config.pe_count.max(1);
    let replicas = alu.mode().replicas();

    let x = input.as_slice();
    let mut bucket = LeakyBucket::new(config.bucket);
    let mut stats = ExecStats::default();
    let mut out = vec![0.0f32; out_c * hw];
    // Results of the replicas after the first, one channel each.
    let mut spare = vec![0.0f32; (replicas as usize - 1) * hw];

    for oc in 0..out_c {
        alu.set_pe(oc as u32 % pe_count);
        let f = &filters.as_slice()[oc * filter_len..][..filter_len];
        let bias_v = bias.map(|b| b.as_slice()[oc]);
        let out_oc = &mut out[oc * hw..][..hw];
        let mut e = 0;
        while e < hw {
            let horizon = alu.clean_horizon();
            let end = plan.fit(e..hw, horizon, alu.op_count(), replicas, bias.is_some());
            if end > e {
                let n = end - e;
                let acc0 = bias_v.unwrap_or(0.0);
                plan.replica_pass(x, f, acc0, e..end, &mut out_oc[e..end]);
                for copy in spare.chunks_exact_mut(hw) {
                    // Opaque operands: the optimiser cannot prove this
                    // replica reads what the first did, so it cannot fold
                    // the replicas into one.
                    let (x, f) = std::hint::black_box((x, f));
                    plan.replica_pass(x, f, acc0, e..end, &mut copy[..n]);
                }
                #[cfg(test)]
                if let (Some(at), Some(last)) =
                    (UPSET_REPLICA_AT.get(), spare.chunks_exact_mut(hw).last())
                {
                    if (oc * hw + e..oc * hw + end).contains(&at) {
                        UPSET_REPLICA_AT.set(None);
                        last[at - oc * hw - e] = -last[at - oc * hw - e];
                    }
                }
                let agreed = (0..n)
                    .find(|&i| {
                        spare
                            .chunks_exact(hw)
                            .any(|copy| copy[i].to_bits() != out_oc[e + i].to_bits())
                    })
                    .map_or(end, |i| e + i);
                let macs = plan.macs_before(agreed) - plan.macs_before(e);
                let bias_loads = if bias.is_some() { agreed - e } else { 0 } as u64;
                alu.commit_clean_macs(macs, bias_loads);
                stats.mul_ops += macs;
                stats.acc_ops += macs;
                bucket.record_successes(2 * macs);
                e = agreed;
                if e == end {
                    continue;
                }
            }
            // Per-op Algorithm 3 for the element the horizon does not
            // cover, or whose replicas disagreed.
            out_oc[e] = per_op_element(
                alu,
                &mut bucket,
                config.retry,
                &mut stats,
                &plan,
                x,
                f,
                bias_v,
                e,
            )?;
            e += 1;
        }
    }

    stats.bucket_peak = bucket.peak();
    stats.bucket_final = bucket.level();
    stats.bucket_errors = bucket.errors();
    stats.cycles = alu.cycles();
    Ok(ConvOutput {
        output: Tensor::from_vec(Shape::d3(out_c, geom.out_h(), geom.out_w()), out)?,
        stats,
    })
}

/// Output element `e` of one channel (filters `f`) as qualified
/// operations: the bias (if any) through the common-mode weight path,
/// then one qualified multiply and one qualified accumulate per valid
/// tap, each under Algorithm 3's retry and bucket regime.
#[allow(clippy::too_many_arguments)]
fn per_op_element<A: QualifiedAlu>(
    alu: &mut A,
    bucket: &mut LeakyBucket,
    retry: RetryPolicy,
    stats: &mut ExecStats,
    plan: &TapPlan,
    x: &[f32],
    f: &[f32],
    bias: Option<f32>,
    e: usize,
) -> Result<f32, ExecError> {
    let mut acc = match bias {
        Some(b) => alu.load_weight(b),
        None => 0.0,
    };
    let (oy, ox) = (e / plan.out_w, e % plan.out_w);
    let (ky, kx) = (plan.rows[oy].clone(), plan.cols[ox].clone());
    for ic in 0..plan.in_c {
        for k_y in ky.clone() {
            let iy = oy * plan.stride + k_y - plan.pad;
            for k_x in kx.clone() {
                let ix = ox * plan.stride + k_x - plan.pad;
                let w = alu.load_weight(f[(ic * plan.k_h + k_y) * plan.k_w + k_x]);
                let a = alu.load_activation(x[(ic * plan.in_h + iy) * plan.in_w + ix]);
                stats.mul_ops += 1;
                let m = run_qualified(alu, bucket, retry, stats, |alu| alu.mul(w, a))?;
                stats.acc_ops += 1;
                acc = run_qualified(alu, bucket, retry, stats, |alu| alu.acc(acc, m))?;
            }
        }
    }
    Ok(acc)
}

/// Reliable dot product under the same Algorithm-3 regime — used by the
/// hybrid network when a dense (fully connected) slice falls inside the
/// reliable partition, and by small-scale tests.
///
/// # Errors
///
/// Same failure exits as [`reliable_conv2d`], plus a shape error when the
/// operand lengths differ.
pub fn reliable_dot<A: QualifiedAlu>(
    weights: &[f32],
    activations: &[f32],
    alu: &mut A,
    config: &ReliableConvConfig,
) -> Result<(f32, ExecStats), ExecError> {
    if weights.len() != activations.len() {
        return Err(TensorError::LengthMismatch {
            expected: weights.len(),
            actual: activations.len(),
        }
        .into());
    }
    let mut bucket = LeakyBucket::new(config.bucket);
    let mut stats = ExecStats::default();
    let mut acc = 0.0f32;
    for (&w0, &a0) in weights.iter().zip(activations.iter()) {
        let w = alu.load_weight(w0);
        let a = alu.load_activation(a0);
        stats.mul_ops += 1;
        let m = run_qualified(alu, &mut bucket, config.retry, &mut stats, |alu| {
            alu.mul(w, a)
        })?;
        stats.acc_ops += 1;
        acc = run_qualified(alu, &mut bucket, config.retry, &mut stats, |alu| {
            alu.acc(acc, m)
        })?;
    }
    stats.bucket_peak = bucket.peak();
    stats.bucket_final = bucket.level();
    stats.bucket_errors = bucket.errors();
    stats.cycles = alu.cycles();
    Ok((acc, stats))
}

/// Reliable elementwise ReLU under the Algorithm-3 regime — the building
/// block for extending the DCNN partition past conv-1 ("we believe it is
/// worthwhile investigating under what conditions subsequent layers of
/// the CNN can be harnessed", paper §V-A).
///
/// Every rectification is a qualified comparator operation with the same
/// retry/rollback/bucket semantics as the convolution's MACs.
///
/// # Errors
///
/// Same failure exits as [`reliable_conv2d`].
pub fn reliable_relu<A: QualifiedAlu>(
    input: &Tensor,
    alu: &mut A,
    config: &ReliableConvConfig,
) -> Result<ConvOutput, ExecError> {
    let mut bucket = LeakyBucket::new(config.bucket);
    let mut stats = ExecStats::default();
    let mut out = Vec::with_capacity(input.len());
    for &v in input.iter() {
        // ReLU counts as an "acc-class" op in the statistics: it runs on
        // the comparator datapath with adder-like cost.
        stats.acc_ops += 1;
        let r = run_qualified(alu, &mut bucket, config.retry, &mut stats, |alu| {
            alu.max_zero(v)
        })?;
        out.push(r);
    }
    stats.bucket_peak = bucket.peak();
    stats.bucket_final = bucket.level();
    stats.bucket_errors = bucket.errors();
    stats.cycles = alu.cycles();
    Ok(ConvOutput {
        output: Tensor::from_vec(input.shape().clone(), out)?,
        stats,
    })
}

/// Layer-granularity duplication-with-comparison: the rollback-distance
/// ablation.
///
/// The whole layer is computed twice through `alu` (qualifiers ignored —
/// Algorithm-1 style) and the outputs compared element-wise; a mismatch
/// rolls back the *entire layer* and re-executes both copies, up to
/// `retry.max_retries` times. This is the checkpointing regime the paper
/// contrasts its one-operation rollback distance against ("a rollback to a
/// checkpoint and re-execution represents a significant delay").
///
/// # Errors
///
/// * [`ExecError::PersistentFailure`] if the layer never converges within
///   the retry budget;
/// * [`ExecError::Tensor`] for shape errors.
pub fn duplicated_conv2d<A: QualifiedAlu>(
    input: &Tensor,
    filters: &Tensor,
    bias: Option<&Tensor>,
    geom: &ConvGeometry,
    alu: &mut A,
    retry: RetryPolicy,
) -> Result<ConvOutput, ExecError> {
    let run_once = |alu: &mut A, stats: &mut ExecStats| -> Result<Tensor, ExecError> {
        // Plain pass: bucket that never trips, no per-op retries; we want
        // raw (possibly corrupt) layer outputs to compare.
        let lenient = ReliableConvConfig {
            bucket: BucketConfig::new(1, u32::MAX),
            retry: RetryPolicy::none(),
            pe_count: 128,
        };
        // Plain-style execution over whatever ALU was supplied: ignore
        // qualifiers by treating unrecoverable ops as values (only possible
        // with Plain ALUs whose qualifier never fails, or healthy runs).
        let out = reliable_conv2d(input, filters, bias, geom, alu, &lenient)?;
        stats.mul_ops += out.stats.mul_ops;
        stats.acc_ops += out.stats.acc_ops;
        Ok(out.output)
    };

    let mut stats = ExecStats::default();
    let mut attempts = 0u32;
    loop {
        let first = run_once(alu, &mut stats)?;
        let second = run_once(alu, &mut stats)?;
        let agree = first
            .iter()
            .zip(second.iter())
            .all(|(a, b)| a.to_bits() == b.to_bits());
        if agree {
            stats.cycles = alu.cycles();
            return Ok(ConvOutput {
                output: first,
                stats,
            });
        }
        stats.failed_ops += 1;
        if attempts >= retry.max_retries {
            return Err(ExecError::PersistentFailure {
                op_index: alu.op_count(),
                bucket_level: 0,
                errors: stats.failed_ops,
            });
        }
        attempts += 1;
        stats.retries += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alu::{DmrAlu, PlainAlu, TmrAlu};
    use relcnn_faults::{bits, BerInjector, FaultSite, NoFaults, ScriptedFault, ScriptedInjector};
    use relcnn_tensor::conv::conv2d;

    fn small_problem() -> (Tensor, Tensor, Tensor, ConvGeometry) {
        let input = Tensor::from_fn(Shape::d3(2, 5, 5), |i| {
            ((i[0] * 31 + i[1] * 7 + i[2] * 3) % 11) as f32 - 5.0
        });
        let filters = Tensor::from_fn(Shape::d4(3, 2, 3, 3), |i| {
            ((i[0] * 5 + i[1] * 3 + i[2] * 2 + i[3]) % 7) as f32 - 3.0
        });
        let bias = Tensor::from_vec(Shape::d1(3), vec![0.5, -0.5, 1.0]).unwrap();
        let geom = ConvGeometry::new(5, 5, 3, 3, 1, 0).unwrap();
        (input, filters, bias, geom)
    }

    /// A clean injector with an unbounded horizon that counts the
    /// exposures still sent through `perturb`.
    #[derive(Debug, Clone, Default)]
    struct CleanCounter {
        stats: relcnn_faults::InjectorStats,
        perturbs: u64,
    }

    impl relcnn_faults::FaultInjector for CleanCounter {
        fn perturb(&mut self, _ctx: relcnn_faults::OpContext, value: f32) -> f32 {
            self.perturbs += 1;
            self.stats.exposures += 1;
            value
        }
        fn stats(&self) -> relcnn_faults::InjectorStats {
            self.stats
        }
        fn reset_stats(&mut self) {
            self.stats = Default::default();
        }
        fn clean_horizon(&mut self, _next_op: u64) -> Horizon {
            Horizon::UNBOUNDED
        }
        fn commit_clean(&mut self, run: &relcnn_faults::Exposures) {
            self.stats.exposures += run.total();
        }
    }

    #[test]
    fn replica_disagreement_reexecutes_the_element_per_op() {
        let (input, filters, bias, geom) = small_problem();
        let config = ReliableConvConfig::default();
        for mode in [crate::RedundancyMode::Dmr, crate::RedundancyMode::Tmr] {
            let (clean, _) = crate::with_alu(mode, NoFaults::new(), |alu| {
                reliable_conv2d(&input, &filters, Some(&bias), &geom, alu, &config).unwrap()
            });
            // Output channel 1, element 4 (of 3×3): the fast path's last
            // replica disagrees there, so the element must not be trusted.
            UPSET_REPLICA_AT.set(Some(9 + 4));
            let (out, counter) = crate::with_alu(mode, CleanCounter::default(), |alu| {
                reliable_conv2d(&input, &filters, Some(&bias), &geom, alu, &config).unwrap()
            });
            assert_eq!(UPSET_REPLICA_AT.get(), None, "the upset was applied");
            assert_eq!(out, clean, "{mode}: the per-op re-execution is the result");
            // Only that element went per op: its bias load, then per tap
            // two loads and one multiply and one accumulate per replica.
            let taps = 2 * 3 * 3;
            assert_eq!(
                counter.perturbs,
                1 + taps * (2 + 2 * mode.replicas() as u64)
            );
        }
    }

    #[test]
    fn fault_free_matches_native_conv_all_modes() {
        let (input, filters, bias, geom) = small_problem();
        let golden = conv2d(&input, &filters, Some(&bias), &geom).unwrap();
        let config = ReliableConvConfig::default();

        let mut plain = PlainAlu::new(NoFaults::new());
        let mut dmr = DmrAlu::new(NoFaults::new());
        let mut tmr = TmrAlu::new(NoFaults::new());

        for out in [
            reliable_conv2d(&input, &filters, Some(&bias), &geom, &mut plain, &config).unwrap(),
            reliable_conv2d(&input, &filters, Some(&bias), &geom, &mut dmr, &config).unwrap(),
            reliable_conv2d(&input, &filters, Some(&bias), &geom, &mut tmr, &config).unwrap(),
        ] {
            assert_eq!(out.output.shape(), golden.shape());
            for (a, b) in out.output.iter().zip(golden.iter()) {
                assert!((a - b).abs() < 1e-4, "{a} vs {b}");
            }
            assert_eq!(out.stats.failed_ops, 0);
            assert_eq!(out.stats.retries, 0);
            assert_eq!(out.stats.bucket_errors, 0);
        }
    }

    #[test]
    fn op_counts_match_mac_count() {
        let (input, filters, bias, geom) = small_problem();
        let mut alu = DmrAlu::new(NoFaults::new());
        let out = reliable_conv2d(
            &input,
            &filters,
            Some(&bias),
            &geom,
            &mut alu,
            &ReliableConvConfig::default(),
        )
        .unwrap();
        let macs = geom.mac_count(2, 3);
        assert_eq!(out.stats.mul_ops, macs);
        assert_eq!(out.stats.acc_ops, macs);
        assert_eq!(alu.op_count(), 2 * macs);
    }

    #[test]
    fn single_transient_fault_recovered_by_one_rollback() {
        let (input, filters, bias, geom) = small_problem();
        let golden = conv2d(&input, &filters, Some(&bias), &geom).unwrap();
        // Fault in replica 1 of multiply op #100.
        let inj = ScriptedInjector::new([ScriptedFault::transient_flip(100, bits::SIGN_BIT)
            .on_replica(1)
            .at_site(FaultSite::Multiplier)]);
        let mut alu = DmrAlu::new(inj);
        let out = reliable_conv2d(
            &input,
            &filters,
            Some(&bias),
            &geom,
            &mut alu,
            &ReliableConvConfig::default(),
        )
        .unwrap();
        assert_eq!(out.stats.failed_ops, 1);
        assert_eq!(out.stats.retries, 1);
        assert_eq!(out.stats.recovered, 1);
        assert_eq!(out.stats.bucket_final, 0, "success stream drains bucket");
        for (a, b) in out.output.iter().zip(golden.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn plain_alu_silently_corrupts() {
        let (input, filters, bias, geom) = small_problem();
        let golden = conv2d(&input, &filters, Some(&bias), &geom).unwrap();
        let inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(100, bits::SIGN_BIT).at_site(FaultSite::Multiplier)
        ]);
        let mut alu = PlainAlu::new(inj);
        let out = reliable_conv2d(
            &input,
            &filters,
            Some(&bias),
            &geom,
            &mut alu,
            &ReliableConvConfig::default(),
        )
        .unwrap();
        assert_eq!(out.stats.failed_ops, 0, "Algorithm 1 sees nothing");
        let diffs = out
            .output
            .iter()
            .zip(golden.iter())
            .filter(|(a, b)| (**a - **b).abs() > 1e-6)
            .count();
        assert!(diffs > 0, "corruption reached the output silently");
    }

    #[test]
    fn permanent_fault_aborts_as_persistent() {
        let (input, filters, bias, geom) = small_problem();
        let inj = ScriptedInjector::new([ScriptedFault::transient_flip(10, bits::SIGN_BIT)
            .on_replica(1)
            .at_site(FaultSite::Multiplier)
            .permanent()]);
        let mut alu = DmrAlu::new(inj);
        let err = reliable_conv2d(
            &input,
            &filters,
            Some(&bias),
            &geom,
            &mut alu,
            &ReliableConvConfig::default(),
        )
        .unwrap_err();
        match err {
            ExecError::PersistentFailure { op_index, .. } => {
                assert_eq!(op_index, 10);
            }
            other => panic!("expected persistent failure, got {other}"),
        }
    }

    #[test]
    fn tmr_corrects_without_retry() {
        let (input, filters, bias, geom) = small_problem();
        let golden = conv2d(&input, &filters, Some(&bias), &geom).unwrap();
        let inj = ScriptedInjector::new([ScriptedFault::transient_flip(50, bits::SIGN_BIT)
            .on_replica(2)
            .at_site(FaultSite::Multiplier)]);
        let mut alu = TmrAlu::new(inj);
        let out = reliable_conv2d(
            &input,
            &filters,
            Some(&bias),
            &geom,
            &mut alu,
            &ReliableConvConfig::default(),
        )
        .unwrap();
        assert_eq!(out.stats.failed_ops, 0, "vote corrected in place");
        assert_eq!(out.stats.retries, 0);
        for (a, b) in out.output.iter().zip(golden.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn two_isolated_faults_tolerated_two_adjacent_abort() {
        let (input, filters, bias, geom) = small_problem();
        // Isolated: ops 100 and 500 — plenty of successes between.
        let inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(100, bits::SIGN_BIT)
                .on_replica(1)
                .at_site(FaultSite::Multiplier),
            ScriptedFault::transient_flip(500, bits::SIGN_BIT)
                .on_replica(1)
                .at_site(FaultSite::Multiplier),
        ]);
        let mut alu = DmrAlu::new(inj);
        let out = reliable_conv2d(
            &input,
            &filters,
            Some(&bias),
            &geom,
            &mut alu,
            &ReliableConvConfig::default(),
        )
        .unwrap();
        assert_eq!(out.stats.recovered, 2);

        // Adjacent: ops 100 and 101 — the success between (acc of op 100's
        // MAC partner) cannot cancel the first error's +2.
        let inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(100, bits::SIGN_BIT)
                .on_replica(1)
                .at_site(FaultSite::Multiplier),
            ScriptedFault::transient_flip(101, bits::SIGN_BIT)
                .on_replica(1)
                .at_site(FaultSite::Accumulator),
        ]);
        let mut alu = DmrAlu::new(inj);
        let err = reliable_conv2d(
            &input,
            &filters,
            Some(&bias),
            &geom,
            &mut alu,
            &ReliableConvConfig::default(),
        );
        assert!(
            matches!(err, Err(ExecError::PersistentFailure { .. })),
            "two successive errors must be reported: {err:?}"
        );
    }

    #[test]
    fn no_retry_policy_fails_fast() {
        let (input, filters, bias, geom) = small_problem();
        let inj = ScriptedInjector::new([ScriptedFault::transient_flip(10, bits::SIGN_BIT)
            .on_replica(0)
            .at_site(FaultSite::Multiplier)]);
        let mut alu = DmrAlu::new(inj);
        let config = ReliableConvConfig {
            bucket: BucketConfig::new(1, 100),
            retry: RetryPolicy::none(),
            pe_count: 8,
        };
        let err = reliable_conv2d(&input, &filters, Some(&bias), &geom, &mut alu, &config);
        assert!(matches!(
            err,
            Err(ExecError::UnrecoverableOperation { op_index: 10, .. })
        ));
    }

    #[test]
    fn shape_validation_errors() {
        let (input, filters, bias, geom) = small_problem();
        let config = ReliableConvConfig::default();
        let mut alu = PlainAlu::new(NoFaults::new());
        // Wrong input rank.
        let flat = input.reshape(vec![2 * 5 * 5]).unwrap();
        assert!(matches!(
            reliable_conv2d(&flat, &filters, Some(&bias), &geom, &mut alu, &config),
            Err(ExecError::Tensor(_))
        ));
        // Wrong filter channel count.
        let bad_filters = Tensor::zeros(Shape::d4(3, 1, 3, 3));
        assert!(
            reliable_conv2d(&input, &bad_filters, Some(&bias), &geom, &mut alu, &config).is_err()
        );
        // Wrong bias length.
        let bad_bias = Tensor::zeros(Shape::d1(2));
        assert!(
            reliable_conv2d(&input, &filters, Some(&bad_bias), &geom, &mut alu, &config).is_err()
        );
        // Wrong geometry.
        let bad_geom = ConvGeometry::new(6, 6, 3, 3, 1, 0).unwrap();
        assert!(
            reliable_conv2d(&input, &filters, Some(&bias), &bad_geom, &mut alu, &config).is_err()
        );
    }

    #[test]
    fn reliable_dot_matches_and_recovers() {
        let w = [1.0f32, -2.0, 3.0, 0.5];
        let a = [4.0f32, 1.0, -1.0, 2.0];
        let expect: f32 = w.iter().zip(a.iter()).map(|(x, y)| x * y).sum();

        let mut alu = DmrAlu::new(NoFaults::new());
        let (v, stats) = reliable_dot(&w, &a, &mut alu, &ReliableConvConfig::default()).unwrap();
        assert!((v - expect).abs() < 1e-5);
        assert_eq!(stats.mul_ops, 4);

        let inj = ScriptedInjector::new([ScriptedFault::transient_flip(2, bits::SIGN_BIT)
            .on_replica(0)
            .at_site(FaultSite::Multiplier)]);
        let mut alu = DmrAlu::new(inj);
        let (v, stats) = reliable_dot(&w, &a, &mut alu, &ReliableConvConfig::default()).unwrap();
        assert!((v - expect).abs() < 1e-5);
        assert_eq!(stats.recovered, 1);

        let mut alu = DmrAlu::new(NoFaults::new());
        assert!(reliable_dot(&w, &a[..3], &mut alu, &ReliableConvConfig::default()).is_err());
    }

    #[test]
    fn reliable_relu_matches_and_recovers() {
        let input =
            Tensor::from_vec(Shape::d3(1, 2, 3), vec![-1.5, 2.0, 0.0, -0.25, 3.5, -7.0]).unwrap();
        // Fault-free: exact ReLU.
        let mut alu = DmrAlu::new(NoFaults::new());
        let out = reliable_relu(&input, &mut alu, &ReliableConvConfig::default()).unwrap();
        assert_eq!(out.output.as_slice(), &[0.0, 2.0, 0.0, 0.0, 3.5, 0.0]);
        assert_eq!(out.stats.acc_ops, 6);
        assert_eq!(out.stats.failed_ops, 0);

        // Transient comparator fault in one replica: detected + recovered.
        let inj = ScriptedInjector::new([ScriptedFault::transient_flip(1, bits::SIGN_BIT)
            .on_replica(1)
            .at_site(FaultSite::Comparator)]);
        let mut alu = DmrAlu::new(inj);
        let out = reliable_relu(&input, &mut alu, &ReliableConvConfig::default()).unwrap();
        assert_eq!(out.stats.recovered, 1);
        assert_eq!(out.output.as_slice(), &[0.0, 2.0, 0.0, 0.0, 3.5, 0.0]);

        // Permanent comparator fault: escalated.
        let inj = ScriptedInjector::new([ScriptedFault::transient_flip(1, bits::SIGN_BIT)
            .on_replica(1)
            .at_site(FaultSite::Comparator)
            .permanent()]);
        let mut alu = DmrAlu::new(inj);
        let err = reliable_relu(&input, &mut alu, &ReliableConvConfig::default());
        assert!(matches!(err, Err(ExecError::PersistentFailure { .. })));
    }

    #[test]
    fn reliable_relu_plain_is_silent_under_faults() {
        let input = Tensor::from_vec(Shape::d1(4), vec![1.0, -1.0, 2.0, -2.0]).unwrap();
        let inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(0, bits::SIGN_BIT).at_site(FaultSite::Comparator)
        ]);
        let mut alu = PlainAlu::new(inj);
        let out = reliable_relu(&input, &mut alu, &ReliableConvConfig::default()).unwrap();
        assert_eq!(out.stats.failed_ops, 0, "Algorithm 1 qualifier blind");
        assert_eq!(out.output.as_slice()[0], -1.0, "corruption passed through");
    }

    #[test]
    fn duplicated_layer_agrees_fault_free() {
        let (input, filters, bias, geom) = small_problem();
        let golden = conv2d(&input, &filters, Some(&bias), &geom).unwrap();
        let mut alu = PlainAlu::new(NoFaults::new());
        let out = duplicated_conv2d(
            &input,
            &filters,
            Some(&bias),
            &geom,
            &mut alu,
            RetryPolicy::paper(),
        )
        .unwrap();
        for (a, b) in out.output.iter().zip(golden.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
        assert_eq!(out.stats.retries, 0);
    }

    #[test]
    fn duplicated_layer_detects_and_reexecutes() {
        let (input, filters, bias, geom) = small_problem();
        let golden = conv2d(&input, &filters, Some(&bias), &geom).unwrap();
        // One transient fault somewhere in the first pass: copies disagree,
        // full-layer retry must converge. (Even op indices are multiplies:
        // each MAC issues mul then acc. A value-replace fault guarantees a
        // visible corruption regardless of the operand values.)
        let inj = ScriptedInjector::new([ScriptedFault {
            op_index: 8,
            replica: None,
            site: Some(FaultSite::Multiplier),
            kind: relcnn_faults::FaultKind::Replace { value: 1000.0 },
            duration: relcnn_faults::FaultDuration::Transient,
        }]);
        let mut alu = PlainAlu::new(inj);
        let out = duplicated_conv2d(
            &input,
            &filters,
            Some(&bias),
            &geom,
            &mut alu,
            RetryPolicy::paper(),
        )
        .unwrap();
        assert_eq!(out.stats.retries, 1, "layer-level rollback taken");
        for (a, b) in out.output.iter().zip(golden.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn duplicated_layer_gives_up_on_persistent_noise() {
        let (input, filters, bias, geom) = small_problem();
        let mut alu = PlainAlu::new(BerInjector::new(5, 0.02));
        let err = duplicated_conv2d(
            &input,
            &filters,
            Some(&bias),
            &geom,
            &mut alu,
            RetryPolicy::with_retries(2),
        );
        assert!(matches!(err, Err(ExecError::PersistentFailure { .. })));
    }

    #[test]
    fn ber_injected_dmr_conv_recovers_sparse_faults() {
        // Sparse random faults: DMR + rollback should converge to golden.
        let (input, filters, bias, geom) = small_problem();
        let golden = conv2d(&input, &filters, Some(&bias), &geom).unwrap();
        let inj = BerInjector::new(33, 2e-4).with_sites(vec![FaultSite::Multiplier]);
        let mut alu = DmrAlu::new(inj);
        let out = reliable_conv2d(
            &input,
            &filters,
            Some(&bias),
            &geom,
            &mut alu,
            &ReliableConvConfig::default(),
        )
        .unwrap();
        for (a, b) in out.output.iter().zip(golden.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
        assert_eq!(out.stats.recovered, out.stats.retries);
    }
}
