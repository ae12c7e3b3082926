//! Stream elements.
//!
//! The paper's input is an information stream of timestamped text messages
//! `M = {(m_i, t_i)}`; a black-box function `h` maps each message to one or
//! more event identifiers, producing the event stream `S`. The mapping itself
//! is declared an orthogonal problem ("we consider it as a black box",
//! Section II-A), so `h` is left to the caller: this crate starts from the
//! elements of `S`.

use crate::event::EventId;
use crate::time::Timestamp;

/// One element `(a_i, t_i)` of an event stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StreamElement {
    /// Event identifier.
    pub event: EventId,
    /// Arrival timestamp.
    pub ts: Timestamp,
}

impl StreamElement {
    /// Convenience constructor.
    #[inline]
    pub fn new(event: impl Into<EventId>, ts: impl Into<Timestamp>) -> Self {
        StreamElement { event: event.into(), ts: ts.into() }
    }
}
