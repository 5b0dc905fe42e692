//! Single-event-upset (SEU) fault injection for the `relcnn` workspace.
//!
//! The paper's threat model (§II): "the failure of a number of calculations
//! in a CNN due to single event upsets acting on the processing element or
//! data corruption of the weights and input data may critically alter the
//! result". This crate is the *fault generator* half of that story — a
//! PyTorchFI-style injector that corrupts `f32` values at four
//! [sites](FaultSite) (weight load, activation load, multiplier output,
//! accumulator output) under configurable [duration models](FaultDuration)
//! (transient, intermittent, permanent).
//!
//! The qualified operators of `relcnn-relexec` pull every elementary value
//! through a [`FaultInjector`], so detection coverage can be measured
//! end-to-end with seeded, reproducible [campaigns](campaign). Between
//! faults an injector may report a clean [`Horizon`]; the reliable
//! convolution then skips the per-value calls for the exposures inside
//! it and commits them in closed form ([`FaultInjector::commit_clean`]).
//!
//! # Example
//!
//! ```rust
//! use relcnn_faults::{BerInjector, FaultInjector, FaultSite, OpContext};
//!
//! // A bit-error-rate injector: every value passed through has a 1e-3
//! // chance of a uniformly random single-bit flip.
//! let mut inj = BerInjector::new(42, 1e-3);
//! let ctx = OpContext::new(FaultSite::Multiplier, 0).with_replica(0);
//! let out = inj.perturb(ctx, 1.5);
//! // Either untouched or bit-flipped; the injector records which.
//! assert_eq!(inj.stats().injected > 0, out != 1.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bits;
pub mod campaign;
pub mod skew;

mod injector;
mod model;

pub use injector::{
    BerInjector, FaultInjector, InjectorStats, NoFaults, ScriptedFault, ScriptedInjector,
    StuckBitInjector,
};
pub use model::{Exposures, FaultDuration, FaultKind, FaultSite, Horizon, OpContext, SiteMask};
pub use skew::SkewedCost;
