use serde::{Deserialize, Serialize};
use std::fmt;

/// Where in the dataflow a fault strikes.
///
/// These mirror the paper's threat statement (§II): upsets may act on "the
/// processing element" (multiplier/accumulator) or cause "data corruption
/// of the weights and input data" (the two load sites).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FaultSite {
    /// Corruption of a filter weight as it is fetched from memory.
    WeightLoad,
    /// Corruption of an input/activation value as it is fetched.
    ActivationLoad,
    /// Corruption of a multiplier's output inside a processing element.
    Multiplier,
    /// Corruption of the accumulator/adder output inside a processing
    /// element.
    Accumulator,
    /// Corruption of a comparator/max unit output (ReLU, pooling) inside
    /// a processing element.
    Comparator,
}

impl FaultSite {
    /// All injectable sites, for campaign sweeps.
    pub const ALL: [FaultSite; 5] = [
        FaultSite::WeightLoad,
        FaultSite::ActivationLoad,
        FaultSite::Multiplier,
        FaultSite::Accumulator,
        FaultSite::Comparator,
    ];
}

impl FaultSite {
    /// Number of distinct sites.
    pub const COUNT: usize = 5;

    /// Dense index of the site, in [`FaultSite::ALL`] order.
    pub const fn index(self) -> usize {
        match self {
            FaultSite::WeightLoad => 0,
            FaultSite::ActivationLoad => 1,
            FaultSite::Multiplier => 2,
            FaultSite::Accumulator => 3,
            FaultSite::Comparator => 4,
        }
    }
}

/// A fixed set of [`FaultSite`]s, one bit per site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SiteMask(u8);

impl SiteMask {
    /// No site.
    pub const NONE: SiteMask = SiteMask(0);
    /// Every site.
    pub const ALL: SiteMask = SiteMask((1 << FaultSite::COUNT) - 1);

    /// The mask of the given sites.
    pub fn of(sites: &[FaultSite]) -> Self {
        SiteMask(sites.iter().fold(0, |m, s| m | 1 << s.index()))
    }

    /// Whether `site` is in the set.
    #[inline]
    pub fn contains(self, site: FaultSite) -> bool {
        self.0 & 1 << site.index() != 0
    }
}

/// Counts of exposures per [`FaultSite`]: what a run of exposures
/// committed in closed form (see [`Horizon`]) amounts to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Exposures {
    /// Exposures at each site, indexed by [`FaultSite::index`].
    pub per_site: [u64; FaultSite::COUNT],
}

impl Exposures {
    /// Exposures at every site.
    pub fn total(&self) -> u64 {
        self.per_site.iter().sum()
    }

    /// Exposures at the sites of `mask`.
    pub fn at(&self, mask: SiteMask) -> u64 {
        FaultSite::ALL
            .iter()
            .filter(|s| mask.contains(**s))
            .map(|s| self.per_site[s.index()])
            .sum()
    }
}

/// How far ahead an injector guarantees its exposures clean.
///
/// A run of upcoming exposures is *inside* the horizon when every one of
/// them carries an op index below [`until_op`](Self::until_op) and at most
/// [`exposures`](Self::exposures) of them fall on the [`sites`](Self::sites).
/// Every exposure of a run inside the horizon passes its value through
/// unchanged, so the caller may skip the per-exposure calls and commit
/// the run in closed form instead (see `FaultInjector::commit_clean`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Horizon {
    /// Exposures at this op index or beyond may fault.
    pub until_op: u64,
    /// How many upcoming exposures at `sites` are guaranteed clean.
    pub exposures: u64,
    /// The sites `exposures` counts; exposures elsewhere are clean
    /// whatever their number.
    pub sites: SiteMask,
}

impl Horizon {
    /// No exposure is guaranteed clean: every one goes through `perturb`.
    pub const NONE: Horizon = Horizon {
        until_op: 0,
        exposures: 0,
        sites: SiteMask::ALL,
    };

    /// Every exposure is clean.
    pub const UNBOUNDED: Horizon = Horizon {
        until_op: u64::MAX,
        exposures: u64::MAX,
        sites: SiteMask::NONE,
    };
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            FaultSite::WeightLoad => "weight-load",
            FaultSite::ActivationLoad => "activation-load",
            FaultSite::Multiplier => "multiplier",
            FaultSite::Accumulator => "accumulator",
            FaultSite::Comparator => "comparator",
        };
        f.write_str(s)
    }
}

/// The corruption applied when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FaultKind {
    /// Flip one specific bit.
    BitFlip {
        /// Bit index (0 = mantissa LSB, 31 = sign).
        bit: u32,
    },
    /// Flip one uniformly random bit (classic SEU model).
    RandomBitFlip,
    /// Flip `count` distinct uniformly random bits (multi-bit upset, as
    /// observed in modern dense SRAM).
    MultiBitFlip {
        /// Number of distinct bits flipped (clamped to 32).
        count: u32,
    },
    /// Stick a specific bit at a level (manufacturing/permanent defect).
    StuckBit {
        /// Bit index.
        bit: u32,
        /// Stuck level.
        high: bool,
    },
    /// Replace the value entirely (worst-case data corruption).
    Replace {
        /// The replacement value.
        value: f32,
    },
}

/// How long a fault condition persists.
///
/// The paper distinguishes random transient SEUs (one strike, gone on
/// re-execution — rollback recovers) from *persistent* failures that the
/// leaky bucket must escalate (§IV: "Only persistent failures are
/// explicitly reported").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum FaultDuration {
    /// Fires exactly once; re-execution sees a healthy unit.
    Transient,
    /// Fires with the given probability on every exposure (flaky joint,
    /// marginal timing) — some retries succeed, some fail.
    Intermittent {
        /// Probability the fault is active at each exposure.
        activation: f64,
    },
    /// Fires on every exposure; retries can never succeed.
    Permanent,
}

/// Identifies one elementary operation exposure for the injector.
///
/// The qualified ALU in `relcnn-relexec` constructs an `OpContext` for
/// every value it pulls through the injector: the global operation index,
/// which redundant replica is executing (faults strike replicas
/// *independently* — this is what makes DMR comparison effective), and the
/// processing-element id (so permanent faults can be pinned to one PE).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct OpContext {
    /// Dataflow site being exercised.
    pub site: FaultSite,
    /// Global elementary-operation index (monotone within an execution).
    pub op_index: u64,
    /// Redundant-execution replica (0 = first/only, 1 = second, 2 = third).
    pub replica: u8,
    /// Processing-element id executing the operation.
    pub pe: u32,
}

impl OpContext {
    /// Creates a context for replica 0 on PE 0.
    pub fn new(site: FaultSite, op_index: u64) -> Self {
        OpContext {
            site,
            op_index,
            replica: 0,
            pe: 0,
        }
    }

    /// Sets the replica index.
    pub fn with_replica(mut self, replica: u8) -> Self {
        self.replica = replica;
        self
    }

    /// Sets the processing-element id.
    pub fn with_pe(mut self, pe: u32) -> Self {
        self.pe = pe;
        self
    }
}

impl fmt::Display for OpContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "op#{} site={} replica={} pe={}",
            self.op_index, self.site, self.replica, self.pe
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_sites_listed_once() {
        let mut seen = std::collections::HashSet::new();
        for s in FaultSite::ALL {
            assert!(seen.insert(s));
            assert!(!s.to_string().is_empty());
        }
        assert_eq!(seen.len(), 5);
    }

    #[test]
    fn site_indices_follow_all_and_masks_count_per_site() {
        for (i, s) in FaultSite::ALL.into_iter().enumerate() {
            assert_eq!(s.index(), i);
            assert!(SiteMask::ALL.contains(s));
            assert!(!SiteMask::NONE.contains(s));
        }
        let mask = SiteMask::of(&[FaultSite::Multiplier, FaultSite::Accumulator]);
        assert!(mask.contains(FaultSite::Accumulator));
        assert!(!mask.contains(FaultSite::WeightLoad));
        let e = Exposures {
            per_site: [1, 2, 30, 400, 5000],
        };
        assert_eq!(e.total(), 5433);
        assert_eq!(e.at(mask), 430);
        assert_eq!(e.at(SiteMask::NONE), 0);
    }

    #[test]
    fn context_builder() {
        let ctx = OpContext::new(FaultSite::Multiplier, 17)
            .with_replica(1)
            .with_pe(5);
        assert_eq!(ctx.op_index, 17);
        assert_eq!(ctx.replica, 1);
        assert_eq!(ctx.pe, 5);
        assert!(ctx.to_string().contains("op#17"));
    }

    #[test]
    fn kinds_and_durations_are_serializable() {
        let kinds = vec![
            FaultKind::BitFlip { bit: 30 },
            FaultKind::RandomBitFlip,
            FaultKind::MultiBitFlip { count: 2 },
            FaultKind::StuckBit { bit: 3, high: true },
            FaultKind::Replace { value: 0.0 },
        ];
        for k in &kinds {
            let json = serde_json::to_string(k).unwrap();
            let back: FaultKind = serde_json::from_str(&json).unwrap();
            assert_eq!(*k, back);
        }
        let d = FaultDuration::Intermittent { activation: 0.5 };
        let json = serde_json::to_string(&d).unwrap();
        assert_eq!(d, serde_json::from_str::<FaultDuration>(&json).unwrap());
    }
}
