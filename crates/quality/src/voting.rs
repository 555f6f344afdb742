//! Redundancy-based vote aggregation.

/// One worker's answer for one record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vote {
    /// Identifier of the voting worker (opaque here; `WorkerId.0` upstream).
    pub worker: u32,
    /// The label the worker chose.
    pub label: u32,
}

/// Plurality vote over labels. Ties break toward the label that reached
/// its final count *first* (stable for streaming use: the earliest-leading
/// answer wins), which also makes the result invariant to label value.
///
/// Returns `None` on an empty vote set.
pub fn majority_vote(votes: &[Vote]) -> Option<u32> {
    majority_vote_weighted(votes, |_| 1.0)
}

/// Weighted plurality vote; weights typically come from worker-quality
/// estimates ([`crate::em`]). Returns `None` on empty input or if all
/// weights are zero.
pub fn majority_vote_weighted<F: Fn(u32) -> f64>(votes: &[Vote], weight: F) -> Option<u32> {
    match votes {
        [] => None,
        // A lone ballot (every ballot at quorum 1) wins iff its weight
        // is positive — exactly what the tally below computes, without
        // allocating one.
        [v] => (weight(v.worker).max(0.0) > 0.0).then_some(v.label),
        _ => tally_winner(votes, weight),
    }
}

/// The general weighted tally behind [`majority_vote_weighted`].
fn tally_winner<F: Fn(u32) -> f64>(votes: &[Vote], weight: F) -> Option<u32> {
    // label -> (total weight, first index at which it took its final value)
    let mut tally: Vec<(u32, f64, usize)> = Vec::new();
    for (i, v) in votes.iter().enumerate() {
        let w = weight(v.worker).max(0.0);
        match tally.iter_mut().find(|(l, _, _)| *l == v.label) {
            Some(entry) => {
                entry.1 += w;
                entry.2 = i;
            }
            None => tally.push((v.label, w, i)),
        }
    }
    tally
        .into_iter()
        .filter(|&(_, w, _)| w > 0.0)
        // Max weight; ties -> earliest final update (smaller index wins),
        // then smaller label, purely for determinism.
        .max_by(|a, b| a.1.total_cmp(&b.1).then(b.2.cmp(&a.2)).then(b.0.cmp(&a.0)))
        .map(|(l, _, _)| l)
}

/// How many *additional* answers a quality-controlled task still needs
/// before it is complete: `quorum − received`, saturating at zero.
/// This is the quantity straggler mitigation keys off when deciding how
/// many concurrent assignments a task may hold (§4.1).
pub fn remaining_votes(quorum: u32, received: usize) -> u32 {
    quorum.saturating_sub(received as u32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn v(worker: u32, label: u32) -> Vote {
        Vote { worker, label }
    }

    #[test]
    fn simple_majority() {
        assert_eq!(majority_vote(&[v(0, 1), v(1, 1), v(2, 0)]), Some(1));
        assert_eq!(majority_vote(&[v(0, 2)]), Some(2));
        assert_eq!(majority_vote(&[]), None);
    }

    #[test]
    fn majority_invariant_to_permutation() {
        let votes = [v(0, 1), v(1, 1), v(2, 0), v(3, 1), v(4, 0)];
        let mut perm = votes;
        perm.reverse();
        assert_eq!(majority_vote(&votes), majority_vote(&perm));
        assert_eq!(majority_vote(&votes), Some(1));
    }

    #[test]
    fn tie_breaks_toward_earlier_leader() {
        // 0 and 1 each get two votes; label 0 completed its tally first.
        assert_eq!(majority_vote(&[v(0, 0), v(1, 0), v(2, 1), v(3, 1)]), Some(0));
        assert_eq!(majority_vote(&[v(0, 1), v(1, 1), v(2, 0), v(3, 0)]), Some(1));
    }

    #[test]
    fn weighted_vote_respects_quality() {
        // One expert (weight 3) outvotes two noisy workers (weight 1).
        let votes = [v(0, 1), v(1, 0), v(2, 0)];
        let res = majority_vote_weighted(&votes, |w| if w == 0 { 3.0 } else { 1.0 });
        assert_eq!(res, Some(1));
    }

    #[test]
    fn zero_weights_are_ignored() {
        let votes = [v(0, 1), v(1, 0)];
        assert_eq!(majority_vote_weighted(&votes, |w| if w == 0 { 0.0 } else { 1.0 }), Some(0));
        assert_eq!(majority_vote_weighted(&votes, |_| 0.0), None);
    }

    #[test]
    fn remaining_votes_saturates() {
        assert_eq!(remaining_votes(3, 0), 3);
        assert_eq!(remaining_votes(3, 2), 1);
        assert_eq!(remaining_votes(3, 3), 0);
        assert_eq!(remaining_votes(3, 5), 0);
    }

    // ------------------------------------------------------------------
    // Edge cases: empty ballots and exact ties must behave predictably —
    // the runner's complete_task leans on this determinism.
    // ------------------------------------------------------------------

    #[test]
    fn empty_ballots_never_invent_labels() {
        assert_eq!(majority_vote(&[]), None);
        assert_eq!(majority_vote_weighted(&[], |_| 1.0), None);
        assert_eq!(majority_vote_weighted(&[], |_| 0.0), None);
    }

    #[test]
    fn all_singleton_tie_picks_the_earliest_vote() {
        // Every label has exactly one vote: the first ballot cast wins,
        // regardless of label values or worker ids.
        assert_eq!(majority_vote(&[v(9, 3), v(1, 0), v(2, 2)]), Some(3));
        assert_eq!(majority_vote(&[v(0, 0), v(1, 3), v(2, 2)]), Some(0));
    }

    #[test]
    fn exact_tie_is_deterministic_across_repeats() {
        // A 2-2 tie resolves by earliest-final-count, identically on
        // every evaluation (no hidden iteration-order dependence).
        let votes = [v(0, 1), v(1, 0), v(2, 0), v(3, 1)];
        let first = majority_vote(&votes);
        for _ in 0..100 {
            assert_eq!(majority_vote(&votes), first);
        }
        assert_eq!(first, Some(0), "label 0 reached its final count at index 2 < 3");
    }

    #[test]
    fn exact_tie_is_label_value_invariant() {
        // Swapping which label value the earlier-finishing side uses must
        // track the position, not the numeric value.
        assert_eq!(majority_vote(&[v(0, 7), v(1, 7), v(2, 1), v(3, 1)]), Some(7));
        assert_eq!(majority_vote(&[v(0, 1), v(1, 1), v(2, 7), v(3, 7)]), Some(1));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The single-ballot fast path returns what the general tally
        /// returns, for positive, zero and negative weights alike.
        #[test]
        fn single_vote_fast_path_matches_the_tally(
            worker in 0u32..4,
            label in 0u32..6,
            tenths in proptest::collection::vec(-20i32..30, 4..5),
        ) {
            let weight = |w: u32| f64::from(tenths[w as usize]) / 10.0;
            let ballot = [v(worker, label)];
            prop_assert_eq!(
                majority_vote_weighted(&ballot, weight),
                tally_winner(&ballot, weight)
            );
        }
    }

    #[test]
    fn single_vote_with_nan_weight_matches_the_tally() {
        let ballot = [v(0, 3)];
        assert_eq!(majority_vote_weighted(&ballot, |_| f64::NAN), None);
        assert_eq!(tally_winner(&ballot, |_| f64::NAN), None);
    }

    #[test]
    fn weighted_exact_tie_breaks_by_earliest_final_update() {
        // Equal total weight on both labels: index order decides, so the
        // outcome is stable under re-evaluation and weight permutation.
        let votes = [v(0, 4), v(1, 5)];
        assert_eq!(majority_vote_weighted(&votes, |_| 2.5), Some(4));
        let reversed = [v(1, 5), v(0, 4)];
        assert_eq!(majority_vote_weighted(&reversed, |_| 2.5), Some(5));
    }
}
