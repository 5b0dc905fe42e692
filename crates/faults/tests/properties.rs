//! Property-based tests for the fault-injection substrate.

use proptest::prelude::*;
use relcnn_faults::bits;
use relcnn_faults::{
    BerInjector, Exposures, FaultInjector, FaultSite, Horizon, NoFaults, OpContext, ScriptedFault,
    ScriptedInjector,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// flip_bit is a self-inverse that changes exactly one bit.
    #[test]
    fn flip_bit_involution(v in any::<f32>(), bit in 0u32..32) {
        let flipped = bits::flip_bit(v, bit);
        prop_assert_eq!(bits::hamming_f32(v, flipped), 1);
        prop_assert_eq!(bits::flip_bit(flipped, bit).to_bits(), v.to_bits());
    }

    /// stick_bit is idempotent and forces the bit to the requested level.
    #[test]
    fn stick_bit_idempotent(v in any::<f32>(), bit in 0u32..32, high in any::<bool>()) {
        let once = bits::stick_bit(v, bit, high);
        prop_assert_eq!(bits::stick_bit(once, bit, high).to_bits(), once.to_bits());
        prop_assert_eq!(bits::bit_is_set(once, bit), high);
        prop_assert!(bits::hamming_f32(v, once) <= 1);
    }

    /// NoFaults never modifies any value.
    #[test]
    fn no_faults_is_identity(v in any::<f32>(), op in 0u64..1000) {
        let mut inj = NoFaults::new();
        let out = inj.perturb(OpContext::new(FaultSite::Multiplier, op), v);
        prop_assert_eq!(out.to_bits(), v.to_bits());
    }

    /// BerInjector with the same seed produces the identical corruption
    /// stream; different seeds diverge somewhere.
    #[test]
    fn ber_determinism(seed in 0u64..1000, v in any::<f32>()) {
        let stream = |s: u64| {
            let mut inj = BerInjector::new(s, 0.5);
            (0..32u64)
                .map(|i| inj.perturb(OpContext::new(FaultSite::Multiplier, i), v).to_bits())
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(stream(seed), stream(seed));
    }

    /// A scripted transient fires exactly once however often the op index
    /// is presented.
    #[test]
    fn scripted_transient_single_shot(
        op in 0u64..64,
        bit in 0u32..32,
        presentations in 2usize..10,
        v in prop::num::f32::NORMAL,
    ) {
        let mut inj = ScriptedInjector::new([ScriptedFault::transient_flip(op, bit)]);
        let mut corrupted = 0;
        for _ in 0..presentations {
            let out = inj.perturb(OpContext::new(FaultSite::Multiplier, op), v);
            if out.to_bits() != v.to_bits() {
                corrupted += 1;
            }
        }
        prop_assert_eq!(corrupted, 1, "transient must fire exactly once");
        prop_assert_eq!(inj.stats().injected, 1);
    }

    /// Replica filters are strict: a fault pinned to replica r never
    /// touches other replicas.
    #[test]
    fn replica_pinning(target in 0u8..3, other in 0u8..3, bit in 0u32..32) {
        prop_assume!(target != other);
        let mut inj = ScriptedInjector::new([
            ScriptedFault::transient_flip(0, bit).on_replica(target).permanent(),
        ]);
        let clean = inj.perturb(
            OpContext::new(FaultSite::Multiplier, 0).with_replica(other),
            1.0,
        );
        prop_assert_eq!(clean.to_bits(), 1.0f32.to_bits());
        let hit = inj.perturb(
            OpContext::new(FaultSite::Multiplier, 0).with_replica(target),
            1.0,
        );
        prop_assert_eq!(bits::hamming_f32(1.0, hit), 1);
    }
}

/// Exposures of a run inside `horizon`: up to `want` per site, trimmed so
/// that those on the horizon's sites fit its budget.
fn run_within(horizon: &Horizon, want: [u64; FaultSite::COUNT]) -> Exposures {
    let mut run = Exposures::default();
    let mut left = horizon.exposures;
    for site in FaultSite::ALL {
        let mut n = want[site.index()];
        if horizon.sites.contains(site) {
            n = n.min(left);
            left -= n;
        }
        run.per_site[site.index()] = n;
    }
    run
}

/// Sends every exposure of `run` through `perturb`, one site after
/// another, at op indices from `op`; returns whether all came out clean.
fn perturb_run(inj: &mut impl FaultInjector, run: &Exposures, op: u64) -> bool {
    let mut clean = true;
    for site in FaultSite::ALL {
        for _ in 0..run.per_site[site.index()] {
            let v = inj.perturb(OpContext::new(site, op), 1.25);
            clean &= v.to_bits() == 1.25f32.to_bits();
        }
    }
    clean
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Committing a run inside the BER horizon leaves the injector where
    /// drawing each exposure would: same counters, and the same draws
    /// (faults included) on the exposures that follow.
    #[test]
    fn ber_commit_matches_per_exposure_draws(
        seed in any::<u64>(),
        ber in prop::sample::select(vec![0.0, 1e-4, 1e-2, 0.3, 1.0]),
        mask in 0u8..32,
        runs in collection::vec((collection::vec(0u64..200, 5), 0u8..40), 1..8),
    ) {
        let sites: Vec<FaultSite> =
            FaultSite::ALL.into_iter().filter(|s| mask & 1 << s.index() != 0).collect();
        let mut fast = BerInjector::new(seed, ber).with_sites(sites);
        let mut slow = fast.clone();
        let mut op = 0u64;
        for (want, tail) in runs {
            let horizon = fast.clean_horizon(op);
            let run = run_within(&horizon, std::array::from_fn(|i| want[i] * 37));
            fast.commit_clean(&run);
            prop_assert!(perturb_run(&mut slow, &run, op), "a run inside the horizon faulted");
            prop_assert_eq!(fast.stats(), slow.stats());
            op += 1;
            // Per-exposure draws after the run, faults included.
            for i in 0..tail as u64 {
                let ctx = OpContext::new(FaultSite::ALL[(i % 5) as usize], op);
                prop_assert_eq!(fast.perturb(ctx, 3.5).to_bits(), slow.perturb(ctx, 3.5).to_bits());
            }
            prop_assert_eq!(fast.stats(), slow.stats());
        }
    }

    /// The scripted horizon ends at the next scheduled op index: every
    /// exposure before it is clean, whatever its replica or site.
    #[test]
    fn scripted_horizon_ends_at_the_next_scheduled_op(
        ops in collection::vec(0u64..200, 0..6),
        from in 0u64..200,
        bit in 0u32..32,
    ) {
        let mut inj = ScriptedInjector::new(
            ops.iter().map(|&op| ScriptedFault::transient_flip(op, bit).permanent()),
        );
        let horizon = inj.clean_horizon(from);
        let next = ops.iter().copied().filter(|&op| op >= from).min();
        prop_assert_eq!(horizon.until_op, next.unwrap_or(u64::MAX));
        let mut slow = inj.clone();
        for op in from..horizon.until_op.min(from + 64) {
            for site in FaultSite::ALL {
                for replica in 0..3u8 {
                    let ctx = OpContext::new(site, op).with_replica(replica);
                    prop_assert_eq!(slow.perturb(ctx, 2.5), 2.5);
                }
            }
        }
        let mut run = Exposures::default();
        run.per_site[0] = slow.stats().exposures;
        inj.commit_clean(&run);
        prop_assert_eq!(inj.stats(), slow.stats());
    }

    /// NoFaults is clean forever and commits count every exposure.
    #[test]
    fn no_faults_horizon_is_unbounded(op in any::<u64>(), n in collection::vec(any::<u32>(), 5)) {
        let mut inj = NoFaults::new();
        prop_assert_eq!(inj.clean_horizon(op), Horizon::UNBOUNDED);
        let run = Exposures { per_site: std::array::from_fn(|i| n[i] as u64) };
        inj.commit_clean(&run);
        prop_assert_eq!(inj.stats().exposures, run.total());
    }
}
