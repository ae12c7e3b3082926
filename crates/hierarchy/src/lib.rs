//! # bed-hierarchy — dyadic decomposition for bursty event queries
//!
//! Section V of *"Bursty Event Detection Throughout Histories"*: answering
//! `q(t, θ, τ)` ("which events are bursty at t?") by point-querying every
//! event costs O(K) probes. Instead, build a binary tree over dyadic ranges
//! of the event-id space and keep one CM-PBE per level, where level `l`
//! aggregates events in blocks of `2^l` (Fig. 6). Because cumulative
//! frequencies — and therefore burstinesses — are *additive* over children
//! (`b_p = b_l + b_r`), the identity
//!
//! ```text
//! b_p² − 2·b_l·b_r = b_l² + b_r²
//! ```
//!
//! yields the pruning rule (Eq. 6): if `b̃_p² − 2·b̃_l·b̃_r < θ²` then both
//! children's burstiness magnitudes are below θ and the whole subtree can be
//! skipped. In the common case only O(log K) point queries run
//! (Algorithm 3); the worst case degrades gracefully to O(K).
//!
//! * [`dyadic`] — range/level arithmetic over a power-of-two-padded universe.
//! * [`forest`] — [`DyadicCmPbe`]: per-level CM-PBE grids and ingestion.
//! * [`query`] — Algorithm 3 with probe accounting, the naive scan
//!   baseline, and the bursty-time query over a single-stream sketch's
//!   knees (grids answer it through `CmPbe::bursty_times_into`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dyadic;
pub mod forest;
pub mod query;

pub use dyadic::DyadicRange;
pub use forest::{DyadicCmPbe, ForestStructure};
pub use query::{BurstyEventHit, QueryStats};
