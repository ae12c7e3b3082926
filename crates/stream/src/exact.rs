//! The naive exact baseline of Section II-B.
//!
//! Store the entire event stream (per event: its exact frequency curve) and
//! answer every query exactly:
//!
//! * POINT query — O(log n) binary search.
//! * BURSTY TIME query — burstiness is piecewise constant, changing only at
//!   the breakpoints `{t_i, t_i + τ, t_i + 2τ}` induced by the event's corner
//!   timestamps, so a linear scan over those O(n) breakpoints suffices.
//! * BURSTY EVENT query — one point query per distinct event.
//!
//! The baseline is what the sketches are measured against: it is exact but
//! costs O(n) space ("approximately 1 GB" for the paper's datasets), while
//! PBE/CM-PBE shrink this to KBs/MBs at bounded error. It also serves as the
//! ground-truth oracle for every experiment in `bed-bench`.

use std::collections::BTreeMap;

use crate::curve::FrequencyCurve;
use crate::error::StreamError;
use crate::event::EventId;
use crate::stream::EventStream;
use crate::time::{BurstSpan, TimeRange, Timestamp};
use crate::Burstiness;

/// Exact store: one frequency curve per distinct event id.
#[derive(Debug, Clone, Default)]
pub struct ExactBaseline {
    curves: BTreeMap<EventId, FrequencyCurve>,
    last_ts: Option<Timestamp>,
    elements: u64,
}

impl ExactBaseline {
    /// Empty baseline.
    pub fn new() -> Self {
        ExactBaseline::default()
    }

    /// Builds from a full mixed stream.
    pub fn from_stream(stream: &EventStream) -> Self {
        let mut b = ExactBaseline::new();
        for el in stream.iter() {
            b.ingest(el.event, el.ts).expect("stream is sorted");
        }
        b
    }

    /// Records one arrival; timestamps must be globally non-decreasing.
    pub fn ingest(&mut self, event: EventId, ts: Timestamp) -> Result<(), StreamError> {
        if let Some(last) = self.last_ts {
            if ts < last {
                return Err(StreamError::NonMonotonicTimestamp { previous: last, offered: ts });
            }
        }
        self.curves.entry(event).or_default().record(ts);
        self.last_ts = Some(ts);
        self.elements += 1;
        Ok(())
    }

    /// Number of ingested elements N.
    pub fn len(&self) -> u64 {
        self.elements
    }

    /// Whether nothing has been ingested.
    pub fn is_empty(&self) -> bool {
        self.elements == 0
    }

    /// Latest ingested timestamp `T`.
    pub fn last_timestamp(&self) -> Option<Timestamp> {
        self.last_ts
    }

    /// Distinct events seen so far.
    pub fn events(&self) -> impl Iterator<Item = EventId> + '_ {
        self.curves.keys().copied()
    }

    /// The exact frequency curve of `event`, if it has appeared.
    pub fn curve(&self, event: EventId) -> Option<&FrequencyCurve> {
        self.curves.get(&event)
    }

    /// Exact cumulative frequency `F_e(t)`.
    pub fn cumulative_frequency(&self, event: EventId, t: Timestamp) -> u64 {
        self.curves.get(&event).map_or(0, |c| c.value_at(t))
    }

    /// Exact burst frequency `bf_e(t)`.
    pub fn burst_frequency(&self, event: EventId, t: Timestamp, tau: BurstSpan) -> u64 {
        self.curves.get(&event).map_or(0, |c| c.burst_frequency(t, tau))
    }

    /// POINT QUERY `q(e, t, τ)`: exact burstiness `b_e(t)`.
    pub fn point_query(&self, event: EventId, t: Timestamp, tau: BurstSpan) -> Burstiness {
        self.curves.get(&event).map_or(0, |c| c.burstiness(t, tau))
    }

    /// BURSTY TIME QUERY `q(e, θ, τ)`: maximal time ranges within
    /// `[0, horizon]` where `b_e(t) ≥ θ`.
    ///
    /// Burstiness is constant between consecutive breakpoints, so we evaluate
    /// once per breakpoint and merge qualifying stretches.
    pub fn bursty_times(
        &self,
        event: EventId,
        theta: Burstiness,
        tau: BurstSpan,
        horizon: Timestamp,
    ) -> Vec<TimeRange> {
        let Some(curve) = self.curves.get(&event) else {
            // b ≡ 0 for unseen events: qualifies everywhere iff θ ≤ 0.
            return if theta <= 0 { vec![TimeRange::up_to(horizon)] } else { Vec::new() };
        };

        let mut breakpoints: Vec<u64> = Vec::with_capacity(curve.n_points() * 3 + 1);
        breakpoints.push(0);
        for c in curve.corners() {
            for delta in [0, tau.ticks(), tau.ticks().saturating_mul(2)] {
                let bp = c.t.ticks().saturating_add(delta);
                if bp <= horizon.ticks() {
                    breakpoints.push(bp);
                }
            }
        }
        breakpoints.sort_unstable();
        breakpoints.dedup();

        let mut ranges: Vec<TimeRange> = Vec::new();
        for (i, &bp) in breakpoints.iter().enumerate() {
            let b = curve.burstiness(Timestamp(bp), tau);
            if b < theta {
                continue;
            }
            let end = match breakpoints.get(i + 1) {
                Some(&next) => Timestamp(next - 1),
                None => horizon,
            };
            let range = TimeRange { start: Timestamp(bp), end };
            match ranges.last_mut() {
                Some(last) if last.adjacent_or_overlapping(&range) => *last = last.merge(&range),
                _ => ranges.push(range),
            }
        }
        ranges
    }

    /// BURSTY EVENT QUERY `q(t, θ, τ)`: all events with `b_e(t) ≥ θ`, with
    /// their exact burstiness. Cost: one point query per distinct event.
    pub fn bursty_events(
        &self,
        t: Timestamp,
        theta: Burstiness,
        tau: BurstSpan,
    ) -> Vec<(EventId, Burstiness)> {
        self.curves
            .iter()
            .filter_map(|(&e, c)| {
                let b = c.burstiness(t, tau);
                (b >= theta).then_some((e, b))
            })
            .collect()
    }

    /// Storage cost of the baseline in bytes: 16 bytes per stored corner
    /// point (`u64` timestamp + `u64` cumulative count). This is the number
    /// the sketches' `size_bytes` is compared against.
    pub fn size_bytes(&self) -> usize {
        self.curves.values().map(|c| c.n_points() * 16).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn baseline(elements: &[(u32, u64)]) -> ExactBaseline {
        let stream: EventStream = elements.iter().copied().collect();
        ExactBaseline::from_stream(&stream)
    }

    #[test]
    fn ingest_rejects_time_travel() {
        let mut b = ExactBaseline::new();
        b.ingest(EventId(0), Timestamp(5)).unwrap();
        b.ingest(EventId(1), Timestamp(5)).unwrap();
        assert!(b.ingest(EventId(0), Timestamp(4)).is_err());
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn point_query_unknown_event_is_zero() {
        let b = baseline(&[(1, 10)]);
        assert_eq!(b.point_query(EventId(9), Timestamp(10), BurstSpan::new(5).unwrap()), 0);
    }

    #[test]
    fn point_query_matches_curve() {
        let b = baseline(&[(1, 0), (1, 0), (1, 6), (2, 6), (1, 7)]);
        let tau = BurstSpan::new(5).unwrap();
        // F_1: (0,2), (6,3), (7,4)
        // b_1(7) = F(7) - 2F(2) + F(never) = 4 - 4 + 0 = 0
        assert_eq!(b.point_query(EventId(1), Timestamp(7), tau), 0);
        // b_1(11) = F(11) - 2F(6) + F(1) = 4 - 6 + 2 = 0
        assert_eq!(b.point_query(EventId(1), Timestamp(11), tau), 0);
        // b_2(6) = 1 - 0 + 0
        assert_eq!(b.point_query(EventId(2), Timestamp(6), tau), 1);
    }

    #[test]
    fn bursty_times_finds_the_burst_window() {
        // Event bursts at t=100..104 (5 arrivals), silence elsewhere.
        let els: Vec<(u32, u64)> = (100..105).map(|t| (1, t)).collect();
        let b = baseline(&els);
        let tau = BurstSpan::new(10).unwrap();
        let horizon = Timestamp(200);
        let ranges = b.bursty_times(EventId(1), 3, tau, horizon);
        assert!(!ranges.is_empty());
        // every reported tick must indeed satisfy b >= 3, and ticks just
        // outside must not
        for r in &ranges {
            for t in r.start.ticks()..=r.end.ticks() {
                assert!(
                    b.point_query(EventId(1), Timestamp(t), tau) >= 3,
                    "tick {t} inside reported range fails threshold"
                );
            }
        }
        // brute-force cross-check over the horizon
        let mut expected: Vec<u64> = Vec::new();
        for t in 0..=horizon.ticks() {
            if b.point_query(EventId(1), Timestamp(t), tau) >= 3 {
                expected.push(t);
            }
        }
        let mut reported: Vec<u64> = Vec::new();
        for r in &ranges {
            reported.extend(r.start.ticks()..=r.end.ticks());
        }
        assert_eq!(reported, expected);
    }

    #[test]
    fn bursty_times_with_nonpositive_threshold_covers_everything_for_unseen() {
        let b = baseline(&[(1, 10)]);
        let tau = BurstSpan::new(5).unwrap();
        let ranges = b.bursty_times(EventId(42), 0, tau, Timestamp(20));
        assert_eq!(ranges, vec![TimeRange::up_to(Timestamp(20))]);
        assert!(b.bursty_times(EventId(42), 1, tau, Timestamp(20)).is_empty());
    }

    #[test]
    fn bursty_times_merges_adjacent_ranges() {
        let els: Vec<(u32, u64)> = (0..50).map(|t| (1, t)).collect();
        let b = baseline(&els);
        let tau = BurstSpan::new(3).unwrap();
        let ranges = b.bursty_times(EventId(1), 1, tau, Timestamp(60));
        for w in ranges.windows(2) {
            assert!(
                !w[0].adjacent_or_overlapping(&w[1]),
                "ranges {} and {} should have been merged",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn bursty_events_filters_by_threshold() {
        // Event 1 bursts near t=20; event 2 is steady; event 3 absent then.
        let mut els: Vec<(u32, u64)> = (16..=20).map(|t| (1, t)).collect();
        els.extend((0..=20).step_by(5).map(|t| (2, t)));
        els.push((3, 2));
        let b = baseline(&els);
        let tau = BurstSpan::new(5).unwrap();
        let hits = b.bursty_events(Timestamp(20), 3, tau);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].0, EventId(1));
        assert!(hits[0].1 >= 3);
        // with θ = i64::MIN everything qualifies
        let all = b.bursty_events(Timestamp(20), i64::MIN, tau);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn storage_accounting() {
        let b = baseline(&[(1, 0), (1, 0), (1, 5), (2, 9)]);
        // event 1: corners at t=0, t=5 → 2 points; event 2: 1 point
        assert_eq!(b.size_bytes(), 48);
    }
}
