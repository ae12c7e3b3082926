//! # bed-stream — stream substrate for bursty event detection
//!
//! This crate provides the foundational data model used by every other crate
//! in the `bed` workspace, following the formulation of *"Bursty Event
//! Detection Throughout Histories"* (Paul, Peng & Li, ICDE 2019), Section II:
//!
//! * [`Timestamp`], [`TimeRange`] and [`BurstSpan`] — the discrete time domain
//!   and the burst span parameter τ.
//! * [`EventId`] and [`StreamElement`] — the event identifier space Σ and the
//!   elements of an event stream `S = {(a_i, t_i)}`. The paper's black-box
//!   map `h` from raw text messages to event ids is left to the caller: the
//!   workspace starts from the mapped, time-ordered stream `S`.
//! * [`SingleEventStream`] and [`EventStream`] — ordered streams of
//!   timestamps / (id, timestamp) pairs with temporal substream extraction.
//! * [`FrequencyCurve`] — the exact cumulative frequency staircase `F(t)`
//!   together with burst frequency `bf(t)` and burstiness `b(t)`.
//! * [`ExactBaseline`] — the naive exact solution of Section II-B: store
//!   everything, answer point queries by binary search, and range queries by
//!   scanning; it doubles as the ground-truth oracle in the experiments.
//!
//! Everything here is exact; the approximation machinery lives in `bed-pbe`
//! and `bed-sketch`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;
pub mod crc;
pub mod curve;
pub mod element;
pub mod error;
pub mod event;
pub mod exact;
pub mod stream;
pub mod time;

pub use codec::{Codec, CodecError};
pub use crc::{crc32, Crc32};
pub use curve::FrequencyCurve;
pub use element::StreamElement;
pub use error::StreamError;
pub use event::EventId;
pub use exact::ExactBaseline;
pub use stream::{EventStream, SingleEventStream};
pub use time::{BurstSpan, TimeRange, Timestamp};

/// Burstiness values are signed: an event decelerating has negative
/// burstiness (see Fig. 1 of the paper, range `[4, 5)`).
pub type Burstiness = i64;
