//! Per-pool transition counters carried inside `crowd::RetainerPool`.
//!
//! The pool cannot depend on the runner's observer (it is a value type
//! that gets cloned with the rest of the runner state),
//! so an enabled pool carries this small struct and the runner folds it
//! into the shared registry at `finish()`.

use crate::registry::OCCUPANCY_BOUNDS;

/// Counters and an occupancy distribution for one retainer pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolObs {
    pub joins: u64,
    pub leaves: u64,
    pub checkouts: u64,
    pub checkins: u64,
    pub occupancy_hwm: u64,
    /// Occupancy sampled at every join/leave, bucketed against
    /// [`OCCUPANCY_BOUNDS`] (`len == bounds + 1`, last bucket overflow).
    pub occupancy_counts: Vec<u64>,
}

impl Default for PoolObs {
    fn default() -> Self {
        PoolObs::new()
    }
}

impl PoolObs {
    pub fn new() -> Self {
        PoolObs {
            joins: 0,
            leaves: 0,
            checkouts: 0,
            checkins: 0,
            occupancy_hwm: 0,
            occupancy_counts: vec![0; OCCUPANCY_BOUNDS.len() + 1],
        }
    }

    fn sample(&mut self, occupancy: u64) {
        if occupancy > self.occupancy_hwm {
            self.occupancy_hwm = occupancy;
        }
        let idx =
            OCCUPANCY_BOUNDS.iter().position(|&b| occupancy <= b).unwrap_or(OCCUPANCY_BOUNDS.len());
        self.occupancy_counts[idx] += 1;
    }

    /// A worker joined; `occupancy` is the pool size immediately after.
    pub fn note_join(&mut self, occupancy: u64) {
        self.joins += 1;
        self.sample(occupancy);
    }

    /// A worker left; `occupancy` is the pool size immediately after.
    pub fn note_leave(&mut self, occupancy: u64) {
        self.leaves += 1;
        self.sample(occupancy);
    }

    /// A waiting worker was checked out to start work.
    pub fn note_checkout(&mut self) {
        self.checkouts += 1;
    }

    /// A working worker finished and checked back in (or departed).
    pub fn note_checkin(&mut self) {
        self.checkins += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transitions_accumulate() {
        let mut obs = PoolObs::new();
        obs.note_join(1);
        obs.note_join(2);
        obs.note_checkout();
        obs.note_checkin();
        obs.note_leave(1);
        assert_eq!(obs.joins, 2);
        assert_eq!(obs.leaves, 1);
        assert_eq!(obs.checkouts, 1);
        assert_eq!(obs.checkins, 1);
        assert_eq!(obs.occupancy_hwm, 2);
        assert_eq!(obs.occupancy_counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn occupancy_overflow_bucket() {
        let mut obs = PoolObs::new();
        obs.note_join(1_000_000);
        assert_eq!(*obs.occupancy_counts.last().unwrap(), 1);
        assert_eq!(obs.occupancy_hwm, 1_000_000);
    }
}
