//! # bed-pbe — Persistent Burstiness Estimation sketches
//!
//! Implements Section III of *"Bursty Event Detection Throughout Histories"*
//! (Paul, Peng & Li, ICDE 2019): two summaries of a single event stream's
//! cumulative frequency curve `F(t)` that answer **historical** burstiness
//! point queries `b(t) = F(t) − 2F(t−τ) + F(t−2τ)` (Eq. 1–2) at any time
//! instance of the past, in sub-linear space.
//!
//! * [`Pbe1`] — *approximation with buffering* (Section III-A). Buffers the
//!   exact staircase until it holds `n_buf` corner points, then keeps the
//!   **optimal** subset of η points (minimum area error Δ*, never
//!   overestimating `F`) found by dynamic programming. The DP kernel lives
//!   in [`pbe1::dp`] with a naive `O(η·n²)` reference and an `O(η·n)`
//!   convex-hull-trick implementation.
//! * [`Pbe2`] — *approximation without buffering* (Section III-B). An online
//!   piecewise-linear approximation that keeps `F̃(t) ∈ [F(t) − γ, F(t)]` at
//!   every constraint point by maintaining the feasible `(slope, intercept)`
//!   polygon, cutting a new segment whenever the polygon empties
//!   (Algorithm 2). Guarantees `|b̃(t) − b(t)| ≤ 4γ` (Lemma 4).
//! * [`CurveSketch`] — the common interface consumed by `bed-sketch`'s
//!   CM-PBE and by the query layer; [`ExactCurve`] is the trivial exact
//!   implementation used as a control.
//!
//! Both sketches deliberately **never overestimate** `F` — inside a Count-Min
//! cell the hash-collision overestimate and the PBE underestimate offset,
//! which is why CM-PBE combines rows by median rather than minimum.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact;
pub mod kernel;
pub mod pbe1;
pub mod pbe2;
pub mod soa;
pub mod traits;

pub use exact::ExactCurve;
pub use kernel::{rank_resume, CumHint, CurveCursor};
pub use pbe1::{Pbe1, Pbe1Config};
pub use pbe2::{Pbe2, Pbe2Config};
pub use soa::{bank_of_cells, CurvePiece, PieceBank, PieceBankBuilder, ProbeRows, MAX_LANES};
pub use traits::{
    burstiness, bursty_time_candidates, bursty_time_candidates_into, bursty_time_ranges,
    CurveSketch, Interpolation, SummaryStats,
};
