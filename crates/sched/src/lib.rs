//! # Deterministic integer-picosecond event scheduler
//!
//! The timing stack's event engine: an unsorted list of events over `u128`
//! picosecond timestamps, popped by minimum key.
//!
//! Sizing: the memory system's event pump holds at most one drain event
//! per channel (a channel with a drain scheduled never posts another).
//! With a handful of events, a linear scan per pop is cheaper than any
//! bucketed structure, and nothing needs re-filing when time jumps far
//! ahead.
//!
//! Determinism is the design constraint: events pop in the total order
//! `(ps, channel, id)` — the same tie-break the memory system uses to
//! merge per-channel drain results — so a replay that posts the same
//! events pops the same sequence, byte for byte. Posting an event in the
//! past is not an error: its timestamp clamps forward to the scheduler's
//! `now` frontier (per-channel device clocks are independent latency
//! accumulators, so a lagging channel may legally arm itself "before" the
//! frontier; the clamp is the one place that skew is reconciled, and it is
//! deterministic).

#![warn(missing_docs)]

/// Total order for events: time, then channel, then id.
///
/// The derived `Ord` compares fields in declaration order, which is
/// exactly the `(ps, channel, id)` tie-break the pipelined memory system
/// pins in its merge sort.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Absolute timestamp in integer picoseconds.
    pub ps: u128,
    /// Originating channel (0 for global events).
    pub channel: u32,
    /// Per-source sequence id; makes keys unique within a channel.
    pub id: u64,
}

/// Counters describing scheduler traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Events accepted by [`EventWheel::post`].
    pub posted: u64,
    /// Events returned by [`EventWheel::pop`].
    pub fired: u64,
}

/// The event scheduler: an unsorted list popped by minimum key.
///
/// `post` is O(1); `pop` is O(n) in the events scheduled, which the
/// memory system bounds by its channel count. Virtual time only moves
/// forward: `pop` advances the `now` frontier to the fired event's
/// timestamp, and `post` clamps past timestamps up to the frontier. Equal
/// keys pop in posting order.
#[derive(Debug, Clone)]
pub struct EventWheel<T> {
    events: Vec<(EventKey, T)>,
    now: u128,
    stats: WheelStats,
}

impl<T> Default for EventWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventWheel<T> {
    /// An empty scheduler with the frontier at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            events: Vec::new(),
            now: 0,
            stats: WheelStats::default(),
        }
    }

    /// Number of scheduled events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when no events are scheduled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The virtual-time frontier: the timestamp of the last fired event.
    #[must_use]
    pub fn now_ps(&self) -> u128 {
        self.now
    }

    /// Traffic counters.
    #[must_use]
    pub fn stats(&self) -> WheelStats {
        self.stats
    }

    /// Schedules an event. A timestamp behind the frontier clamps
    /// forward to `now` (deterministically), never fires in the past.
    pub fn post(&mut self, mut key: EventKey, payload: T) {
        key.ps = key.ps.max(self.now);
        self.stats.posted += 1;
        self.events.push((key, payload));
    }

    /// Fires the earliest event in `(ps, channel, id)` order, advancing
    /// the frontier to its timestamp.
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        // `min_by_key` returns the first of equal minima, and `remove`
        // keeps the rest in posting order.
        let best = (0..self.events.len()).min_by_key(|&i| self.events[i].0)?;
        let (key, payload) = self.events.remove(best);
        self.stats.fired += 1;
        self.now = key.ps;
        Some((key, payload))
    }
}

/// A power-of-two histogram for event-pump observability (idle-time
/// skips span ps to ms, so linear buckets are useless).
///
/// Bucket `0` holds zeros; bucket `i ≥ 1` holds values in
/// `[2^(i-1), 2^i)`. The exact sum and max are kept alongside, so a
/// mean over the count is not quantised.
#[derive(Debug, Clone)]
pub struct Log2Hist {
    buckets: [u64; 65],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Log2Hist {
    fn default() -> Self {
        Self::new()
    }
}

impl Log2Hist {
    /// An empty histogram.
    #[must_use]
    pub const fn new() -> Self {
        Self {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        };
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += u128::from(value);
        self.max = self.max.max(value);
    }

    /// Number of samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Largest sample (0 when empty).
    #[must_use]
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Upper bound of the bucket containing the `p`-th percentile
    /// (`0 ≤ p ≤ 100`); 0 when empty.
    #[must_use]
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (((p / 100.0).clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return match idx {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << idx) - 1,
                };
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::SplitMix64;
    use std::collections::BTreeMap;

    fn key(ps: u128, channel: u32, id: u64) -> EventKey {
        EventKey { ps, channel, id }
    }

    #[test]
    fn pops_follow_ps_order_across_magnitudes() {
        // Timestamps from picoseconds to a second out, posted in reverse
        // time order.
        let deltas: [u128; 6] = [5, 20_000, 1 << 21, 1 << 27, 1 << 33, 1 << 40];
        let mut wheel = EventWheel::new();
        for (i, &ps) in deltas.iter().enumerate().rev() {
            wheel.post(key(ps, 0, i as u64), i);
        }
        assert_eq!(wheel.len(), deltas.len());
        let mut fired = Vec::new();
        while let Some((k, payload)) = wheel.pop() {
            assert_eq!(k.id, payload as u64);
            fired.push(k.ps);
        }
        assert_eq!(fired, deltas.to_vec());
        assert!(wheel.is_empty());
        let stats = wheel.stats();
        assert_eq!(stats.posted, 6);
        assert_eq!(stats.fired, 6);
    }

    #[test]
    fn equal_ps_breaks_ties_by_channel_then_id() {
        let mut wheel = EventWheel::new();
        let order = [(3u32, 1u64), (0, 9), (1, 2), (0, 2), (3, 0), (2, 7)];
        for (i, &(ch, id)) in order.iter().enumerate() {
            wheel.post(key(1000, ch, id), i);
        }
        let mut fired = Vec::new();
        while let Some((k, _)) = wheel.pop() {
            assert_eq!(k.ps, 1000);
            fired.push((k.channel, k.id));
        }
        let mut expect = order.to_vec();
        expect.sort_unstable();
        assert_eq!(fired, expect);
    }

    #[test]
    fn equal_keys_pop_in_posting_order() {
        let mut wheel = EventWheel::new();
        for i in 0..4 {
            wheel.post(key(7, 1, 1), i);
        }
        let fired: Vec<_> = std::iter::from_fn(|| wheel.pop().map(|(_, p)| p)).collect();
        assert_eq!(fired, [0, 1, 2, 3]);
    }

    #[test]
    fn event_posted_before_a_pop_beats_a_later_post() {
        // An event posted while the frontier was far behind it must still
        // fire before a later-posted event with a larger timestamp.
        let mut wheel = EventWheel::new();
        wheel.post(key((1 << 20) - 1, 0, 0), "warm");
        wheel.post(key(1 << 20, 0, 1), "early");
        assert_eq!(wheel.pop().unwrap().1, "warm"); // now = 2^20 − 1
        wheel.post(key((1 << 20) + 5, 0, 2), "late");
        assert_eq!(wheel.pop().unwrap().1, "early");
        assert_eq!(wheel.pop().unwrap().1, "late");
    }

    #[test]
    fn far_future_epoch_stays_exact() {
        // The PR 9 drift pin, re-expressed on the wheel: at an epoch of
        // 10^16 ns (10^19 ps) every timestamp must stay integer-exact —
        // an f64 timeline has a 2-ps ulp out here.
        const EPOCH: u128 = 10u128.pow(19);
        let mut wheel = EventWheel::new();
        wheel.post(key(EPOCH, 0, 0), 0u64);
        let (k, _) = wheel.pop().unwrap();
        assert_eq!(k.ps, EPOCH);
        assert_eq!(wheel.now_ps(), EPOCH);
        for i in 1..=64u128 {
            wheel.post(key(EPOCH + 2 * i, 0, i as u64), i as u64);
        }
        for i in 1..=64u128 {
            let (k, payload) = wheel.pop().unwrap();
            assert_eq!(k.ps, EPOCH + 2 * i, "ps must not drift at the epoch");
            assert_eq!(payload, i as u64);
        }
    }

    #[test]
    fn post_in_the_past_clamps_to_now() {
        let mut wheel = EventWheel::new();
        wheel.post(key(5000, 0, 0), 0);
        wheel.pop();
        assert_eq!(wheel.now_ps(), 5000);
        wheel.post(key(17, 0, 1), 1);
        let (k, _) = wheel.pop().unwrap();
        assert_eq!(k.ps, 5000, "past timestamps clamp to the frontier");
    }

    #[test]
    fn differential_against_ordered_map() {
        // The reference is a map ordered by `EventKey` with the same
        // forward clamp on post; ids are unique, so keys never collide.
        for seed in [0x5eed, 0xd1ff, 0xbead] {
            let mut rng = SplitMix64::new(seed);
            let mut wheel = EventWheel::new();
            let mut reference: BTreeMap<EventKey, u64> = BTreeMap::new();
            let mut now = 0u128;
            for i in 0..4000u64 {
                if rng.gen_bool(0.7) || wheel.is_empty() {
                    // Deltas from 1 ps to hours, relative to the frontier;
                    // one post in five lands behind it and must clamp.
                    let mag = rng.gen_range_u64(0, 45);
                    let delta = (1u128 << mag) + u128::from(rng.gen_range_u64(0, 1 << 14));
                    let ps = if rng.gen_bool(0.2) {
                        now.saturating_sub(delta)
                    } else {
                        now + delta
                    };
                    let k = key(ps, rng.gen_range_u64(0, 4) as u32, i);
                    wheel.post(k, i);
                    reference.insert(key(ps.max(now), k.channel, i), i);
                } else {
                    let want = reference.pop_first();
                    assert_eq!(wheel.pop(), want, "seed {seed:#x} op {i}");
                    now = want.expect("non-empty").0.ps;
                }
                assert_eq!(wheel.len(), reference.len());
                assert_eq!(wheel.now_ps(), now);
            }
            loop {
                let (a, b) = (wheel.pop(), reference.pop_first());
                assert_eq!(a, b, "seed {seed:#x} drain");
                if a.is_none() {
                    break;
                }
            }
        }
    }

    #[test]
    fn percentile_takes_a_percent() {
        // 99 samples in the [512, 1024) bucket and one outlier: the median
        // is the common bucket's bound, not the outlier's.
        let mut h = Log2Hist::new();
        for _ in 0..99 {
            h.record(1_000);
        }
        h.record(1_000_000_000);
        assert!(h.percentile(50.0) <= 2_047, "p50 = {}", h.percentile(50.0));
        assert_eq!(h.percentile(100.0), (1 << 30) - 1);
    }
}
