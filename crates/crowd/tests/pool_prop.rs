//! Equivalence of [`RetainerPool`]'s sorted-vector membership with an
//! ordered-map reference model.
//!
//! The pool keeps its members in a vector sorted by worker id. This
//! property drives random `join` / `leave` / `start_work` /
//! `finish_work` / `bump_generation` sequences through the pool and
//! through a `BTreeMap` model of the same semantics, and after every
//! step compares everything the runner reads: `members()` order and
//! records, `waiting()`, `working()`, `age`, `is_stale`, and the wait
//! `leave` settles.

use clamshell_crowd::{MemberState, RetainerPool, WorkerId};
use clamshell_sim::time::{SimDuration, SimTime};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Worker ids the sequences draw from: more than the capacities below,
/// so joins to a full pool and operations on non-members both occur.
const IDS: u32 = 10;

/// The reference: `(state, joined, generation, started, completed)`.
type Rec = (MemberState, SimTime, u64, u32, u32);

struct Model {
    capacity: usize,
    generation: u64,
    members: BTreeMap<WorkerId, Rec>,
}

impl Model {
    fn join(&mut self, w: WorkerId, now: SimTime) -> bool {
        if self.members.len() >= self.capacity || self.members.contains_key(&w) {
            return false;
        }
        self.members.insert(w, (MemberState::Waiting { since: now }, now, self.generation, 0, 0));
        true
    }

    fn leave(&mut self, w: WorkerId, now: SimTime) -> Option<SimDuration> {
        let (state, ..) = self.members.remove(&w)?;
        Some(match state {
            MemberState::Waiting { since } => now.since(since),
            MemberState::Working { .. } => SimDuration::ZERO,
        })
    }

    fn ids_in(&self, working: bool) -> Vec<WorkerId> {
        self.members
            .iter()
            .filter(|(_, r)| matches!(r.0, MemberState::Working { .. }) == working)
            .map(|(&w, _)| w)
            .collect()
    }
}

/// Apply one `(op, worker, dt)` step to both; panics on any divergence.
fn step(pool: &mut RetainerPool, model: &mut Model, now: SimTime, op: u32, w: WorkerId) {
    let state = model.members.get(&w).map(|r| r.0);
    match op {
        0 => assert_eq!(pool.join(w, now), model.join(w, now), "join {w}"),
        1 => assert_eq!(pool.leave(w, now), model.leave(w, now), "leave {w}"),
        // start/finish panic on a wrong-state worker by contract, so
        // they only run where the model says the transition is legal.
        2 => {
            if let Some(MemberState::Waiting { since }) = state {
                assert_eq!(pool.start_work(w, now), now.since(since), "start_work {w}");
                let r = model.members.get_mut(&w).unwrap();
                r.0 = MemberState::Working { since: now };
                r.3 += 1;
            }
        }
        3 | 4 => {
            if let Some(MemberState::Working { since }) = state {
                let completed = op == 3;
                assert_eq!(pool.finish_work(w, now, completed), now.since(since));
                let r = model.members.get_mut(&w).unwrap();
                r.0 = MemberState::Waiting { since: now };
                r.4 += u32::from(completed);
            }
        }
        _ => {
            pool.bump_generation();
            model.generation += 1;
        }
    }
}

fn assert_same(pool: &RetainerPool, model: &Model) {
    let got: Vec<(WorkerId, Rec)> = pool
        .members()
        .map(|(w, m)| (w, (m.state, m.joined, m.generation, m.started, m.completed)))
        .collect();
    let want: Vec<(WorkerId, Rec)> = model.members.iter().map(|(&w, &r)| (w, r)).collect();
    assert_eq!(got, want, "members() order and records");
    assert_eq!(pool.len(), model.members.len());
    assert_eq!(pool.waiting(), model.ids_in(false), "waiting()");
    assert_eq!(pool.working(), model.ids_in(true), "working()");
    assert_eq!(pool.generation(), model.generation);
    for id in 0..IDS {
        let w = WorkerId(id);
        let rec = model.members.get(&w);
        assert_eq!(pool.contains(w), rec.is_some(), "contains {w}");
        assert_eq!(pool.age(w), rec.map_or(0, |r| r.4), "age {w}");
        assert_eq!(pool.is_stale(w), rec.is_some_and(|r| r.2 < model.generation), "is_stale {w}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sorted_vector_pool_matches_ordered_map_model(
        capacity in 1usize..7,
        ops in proptest::collection::vec((0u32..6, 0u32..IDS, 0u64..40), 1..120),
    ) {
        let mut pool = RetainerPool::new(capacity);
        let mut model = Model { capacity, generation: 0, members: BTreeMap::new() };
        let mut now = SimTime::ZERO;
        for (op, id, dt) in ops {
            now += SimDuration::from_secs(dt);
            step(&mut pool, &mut model, now, op, WorkerId(id));
            assert_same(&pool, &model);
        }
    }
}
