//! # bed-sketch — Count-Min substrate and CM-PBE
//!
//! Section IV of *"Bursty Event Detection Throughout Histories"* handles
//! mixed event streams by combining a Count-Min layout with the
//! single-stream PBEs: a `d × w` grid where every cell is a **persistent
//! burstiness estimator** instead of a plain counter. An arriving element
//! `(e, t)` updates one cell per row (chosen by that row's hash of `e`); the
//! cell ignores the id and treats everything hashed into it as one single
//! event stream.
//!
//! Querying `F̃_e(t)` probes the d cells `e` maps to and combines them with
//! the **median**: each cell's PBE *under*-estimates its own mixed curve,
//! while hash collisions make that curve an *over*-estimate of `F_e`, so
//! (unlike a classic CM sketch) neither min nor max is safe — the median
//! balances the two one-sided errors and yields Theorem 1's
//! `Pr[|F̃_e(t) − F_e(t)| ≤ εN + Δ] ≥ 1 − δ`.
//!
//! * [`hash`] — seeded 2-universal hash family (no external dependencies).
//! * [`params`] — (ε, δ) → (w, d) conversions.
//! * [`countmin`] — the classic counter-based CM sketch (Section II-C),
//!   kept as a reference implementation and used to sanity-check the hash
//!   family.
//! * [`cmpbe`] — the CM-PBE structure, generic over any
//!   [`bed_pbe::CurveSketch`] cell type. Every query reads the fused
//!   median probe [`CmPbe::probe3`]; [`CmPbe::probe3_by`] swaps in another
//!   [`Combiner`] for the row-combination ablation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cmpbe;
pub mod countmin;
pub mod hash;
pub mod params;
pub mod retention;

pub use cmpbe::{
    Clock, CmPbe, CmStructure, Combiner, NoClock, QueryScratch, StageClock, StageTimings,
    MEDIAN_STACK,
};
pub use countmin::CountMin;
pub use hash::HashFamily;
pub use params::SketchParams;
pub use retention::{FrozenCurve, RetentionPolicy};
