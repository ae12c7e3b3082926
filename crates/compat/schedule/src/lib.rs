//! Offline, std-only schedule permuter for single-stepped concurrency
//! protocols — a loom-flavoured tester that works without crates.io.
//!
//! Real model checkers (loom, shuttle) intercept every atomic operation
//! and explore thread interleavings. This workspace cannot vendor them,
//! but the protocols under test here (the `bed-core` epoch cell) have
//! a much smaller state space: a **single writer** whose only action is
//! "publish the next generation", and a reader whose protocol exposes
//! explicit yield points. Every observable interleaving is then fully
//! described by *how many publishes land at each reader yield point* — a
//! finite sequence of small integers. A [`Schedule`] is that sequence;
//! [`exhaustive`] enumerates **all** of them up to a bound (exact
//! coverage of the small schedules, the loom discipline), and
//! [`ScheduleGen`] draws unbounded seeded random ones for soak-style
//! sweeps on top.
//!
//! The driver owns the actual protocol actions; this crate only supplies
//! deterministic counts:
//!
//! ```
//! use schedule::exhaustive;
//!
//! let mut covered = 0;
//! for mut s in exhaustive(2, 3) {
//!     // at each yield point the driver performs s.next() publishes
//!     let counts: Vec<usize> = std::iter::from_fn(|| Some(s.next())).take(3).collect();
//!     assert!(counts.iter().all(|&c| c <= 2));
//!     covered += 1;
//! }
//! assert_eq!(covered, 27); // (2+1)^3 — every interleaving, exactly once
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// One interleaving: a finite sequence of per-yield-point action counts,
/// consumed left to right. Once exhausted, [`Schedule::next`] returns 0 —
/// the protocol run simply sees no further injected actions, so drivers
/// never need to know how many yield points a run will hit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    actions: Vec<usize>,
    cursor: usize,
}

impl Schedule {
    /// A schedule from an explicit count sequence.
    pub fn new(actions: Vec<usize>) -> Self {
        Schedule { actions, cursor: 0 }
    }

    /// Actions to perform at the current yield point (0 when exhausted).
    pub fn next(&mut self) -> usize {
        let n = self.actions.get(self.cursor).copied().unwrap_or(0);
        self.cursor += 1;
        n
    }

    /// Yield points consumed so far.
    pub fn consumed(&self) -> usize {
        self.cursor
    }

    /// The counts not yet consumed.
    pub fn remaining(&self) -> &[usize] {
        self.actions.get(self.cursor.min(self.actions.len())..).unwrap_or(&[])
    }
}

/// Iterator over **every** schedule of exactly `steps` yield points with
/// at most `max_actions` actions each — `(max_actions + 1)^steps`
/// schedules, enumerated in lexicographic order (all-zeros first). This
/// is the exhaustive small-schedule sweep: if a protocol invariant can be
/// broken by any interleaving within the bound, some yielded schedule
/// breaks it.
pub fn exhaustive(max_actions: usize, steps: usize) -> Exhaustive {
    Exhaustive { max_actions, counts: vec![0; steps], done: false }
}

/// Iterator returned by [`exhaustive`].
#[derive(Debug, Clone)]
pub struct Exhaustive {
    max_actions: usize,
    counts: Vec<usize>,
    done: bool,
}

impl Iterator for Exhaustive {
    type Item = Schedule;

    fn next(&mut self) -> Option<Schedule> {
        if self.done {
            return None;
        }
        let out = Schedule::new(self.counts.clone());
        // Increment the base-(max_actions + 1) odometer, least significant
        // digit last (lexicographic order over the emitted sequences).
        let mut i = self.counts.len();
        loop {
            if i == 0 {
                self.done = true;
                break;
            }
            i -= 1;
            if self.counts[i] < self.max_actions {
                self.counts[i] += 1;
                break;
            }
            self.counts[i] = 0;
        }
        // A zero-step space still yields its one (empty) schedule once.
        if self.counts.is_empty() {
            self.done = true;
        }
        Some(out)
    }
}

/// Seeded random schedule source (xorshift64*; deterministic per seed) —
/// the soak companion to [`exhaustive`] for spaces too large to
/// enumerate. The distribution is biased toward 0 actions per step so
/// generated runs look like real executions (publishes racing a read are
/// rare) while still covering several publishes at one yield point.
#[derive(Debug, Clone)]
pub struct ScheduleGen {
    state: u64,
}

impl ScheduleGen {
    /// A generator seeded with `seed` (0 is remapped — xorshift needs a
    /// non-zero state).
    pub fn new(seed: u64) -> Self {
        ScheduleGen { state: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1 }
    }

    fn next_u64(&mut self) -> u64 {
        // xorshift64* — tiny, seedable, plenty for schedule sampling.
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Draws one schedule of `steps` yield points with counts in
    /// `0..=max_actions`, roughly half of the steps quiet.
    pub fn schedule(&mut self, max_actions: usize, steps: usize) -> Schedule {
        let actions = (0..steps)
            .map(|_| {
                let r = self.next_u64();
                if r & 1 == 0 {
                    0
                } else {
                    ((r >> 1) % (max_actions as u64 + 1)) as usize
                }
            })
            .collect();
        Schedule::new(actions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_enumerates_every_sequence_once() {
        let all: Vec<Vec<usize>> = exhaustive(2, 3).map(|s| s.remaining().to_vec()).collect();
        assert_eq!(all.len(), 27);
        assert_eq!(all[0], [0, 0, 0]);
        assert_eq!(all[26], [2, 2, 2]);
        let mut dedup = all.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 27, "no duplicates");
    }

    #[test]
    fn zero_step_space_has_exactly_the_empty_schedule() {
        let all: Vec<Schedule> = exhaustive(3, 0).collect();
        assert_eq!(all.len(), 1);
        assert_eq!(all[0].remaining(), &[] as &[usize]);
    }

    #[test]
    fn schedules_read_zero_past_the_end() {
        let mut s = Schedule::new(vec![2, 1]);
        assert_eq!((s.next(), s.next(), s.next(), s.next()), (2, 1, 0, 0));
        assert_eq!(s.consumed(), 4);
    }

    #[test]
    fn generator_is_deterministic_and_bounded() {
        let a = ScheduleGen::new(42).schedule(5, 100);
        let b = ScheduleGen::new(42).schedule(5, 100);
        assert_eq!(a, b);
        assert!(a.remaining().iter().all(|&c| c <= 5));
        assert!(a.remaining().iter().any(|&c| c == 0), "biased toward quiet steps");
        let c = ScheduleGen::new(43).schedule(5, 100);
        assert_ne!(a, c, "different seeds diverge");
    }
}
