//! Event identifiers `a_i ∈ Σ`.

use std::fmt;

/// An event identifier `a_i ∈ [0, K)`.
///
/// The paper indexes events `1..K`; we use zero-based ids, which makes the
/// dyadic decomposition in `bed-hierarchy` (`id >> level`) natural.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct EventId(pub u32);

impl EventId {
    /// Raw id value.
    #[inline]
    pub fn value(self) -> u32 {
        self.0
    }

    /// Index usable for direct addressing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl From<u32> for EventId {
    fn from(v: u32) -> Self {
        EventId(v)
    }
}

impl fmt::Display for EventId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}
