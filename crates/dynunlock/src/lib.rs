//! DynUnlock: breaking dynamically keyed scan-chain obfuscation
//! (Limaye & Sinanoglu, DATE 2020).
//!
//! EFF-Dyn masks scan traffic with a free-running key LFSR, hoping the
//! per-cycle key change defeats SAT attacks. It does not: because every
//! scan session power-on resets the LFSR to the same secret seed, the
//! masking collapses to *fixed affine masks* — each mask bit an explicit
//! GF(2) linear form of the seed ([`model`]). The attack ([`attack`])
//! then runs a standard SAT-attack DIP loop over a pair of symbolic mask
//! hypotheses and finishes with plain Gaussian elimination:
//!
//! 1. [`model::session_masks`] — derive the load/unload masks `α`, `β` as
//!    linear forms of the seed via one symbolic LFSR walk, and their
//!    basis — the independent mask rows as free bits, every other mask
//!    bit as a parity of them;
//! 2. [`attack::unlock`] — over the free bits, find distinguishing input
//!    patterns with the incremental CDCL solver one output bit at a time,
//!    query the oracle, constrain, repeat until no output can differ;
//! 3. eliminate the mask values once, as linear forms of the seed
//!    ([`lfsr::recover::SeedRecovery`]), and read the seed — a
//!    functionally equivalent member of the secret's equivalence class
//!    ([`attack::same_class`]), and the secret itself whenever every mask
//!    bit is observable — then verify against the oracle with random
//!    probe sessions.
//!
//! The loop runs in one engine, the resumable state machine
//! [`robust::AttackState`]: budgeted SAT calls, retry + backoff against
//! transient oracle faults, majority-vote repair of bit-flip noise,
//! checkpoint/resume across process death (the `duckpt` codec is
//! [`ckpt`]), and graceful degradation to a [`robust::PartialReport`]
//! when the attack cannot finish. [`attack::unlock`] is that machine in
//! its strict configuration; it returns the [`Unlock`] or the
//! [`DegradeReason`] the machine stopped with, so there is one outcome
//! vocabulary.
//!
//! # Example
//!
//! ```
//! use dynunlock::attack::{same_class, unlock, AttackConfig};
//! use gf2::Xoshiro256;
//! use lfsr::TapSet;
//! use netlist::generator::s208_like;
//! use scanlock::{LockSpec, LockedScanChip};
//! use sim::ScanChain;
//!
//! let c = s208_like();
//! let chain = ScanChain::natural(c.num_dffs());
//! let mut rng = Xoshiro256::new(42);
//! let spec = LockSpec::random(TapSet::maximal(8).unwrap(), 8, 5, &mut rng);
//! let secret = spec.random_seed(&mut rng);
//! let mut oracle = LockedScanChip::new(&c, chain.clone(), spec.clone(), secret.clone());
//!
//! let result = unlock(&c, &chain, &spec, &mut oracle, &AttackConfig::default()).unwrap();
//! assert!(result.verified);
//! // The seed is pinned up to bits no output observes: it locks the chip
//! // exactly as the secret does.
//! assert!(same_class(&c, &chain, &spec, &result.seed, &secret, 1, 1000));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod attack;
pub mod ckpt;
pub mod model;
pub mod robust;

pub use attack::{same_class, unlock, AttackConfig, Unlock};
pub use ckpt::{Checkpoint, CheckpointError};
pub use model::{session_masks, SessionMasks};
pub use robust::{
    AttackState, DegradeReason, FaultStats, PartialReport, RetryPolicy, RobustConfig,
    RobustOutcome, Step,
};
