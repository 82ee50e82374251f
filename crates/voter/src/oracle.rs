//! Ground-truth oracle.
//!
//! A pure-Rust simulator of the Voter rules with **batch semantics that
//! mirror the S-Store workflow exactly**: each input batch goes through a
//! validation pass (SP1), a counting pass (SP2), and any eliminations the
//! counting pass signalled (SP3) — before the next batch begins. Experiment
//! E1 compares both engines' final state against this oracle.

use crate::schema::VoterConfig;
use std::collections::{BTreeMap, BTreeSet};

/// The reference implementation of the game's rules.
#[derive(Debug, Clone)]
pub struct Oracle {
    cfg: VoterConfig,
    /// Live contestants.
    pub contestants: BTreeSet<i64>,
    /// Per-contestant counted votes (live contestants only).
    pub counts: BTreeMap<i64, i64>,
    /// Live votes: vote id -> (phone, contestant).
    votes: sstore_common::hash::HashMap<i64, (i64, i64)>,
    /// Phones with a live vote.
    phones: sstore_common::hash::HashSet<i64>,
    /// Eliminated contestants in order, with the vote total at elimination.
    pub eliminated: Vec<(i64, i64)>,
    /// Counted votes so far.
    pub total: i64,
    since: i64,
    next_vote_id: i64,
    /// Rejected submissions.
    pub rejected: i64,
}

impl Oracle {
    /// Fresh oracle for a configuration.
    pub fn new(cfg: VoterConfig) -> Self {
        let contestants: BTreeSet<i64> = (1..=cfg.num_contestants).collect();
        let counts = contestants.iter().map(|&c| (c, 0)).collect();
        Oracle {
            cfg,
            contestants,
            counts,
            votes: Default::default(),
            phones: Default::default(),
            eliminated: Vec::new(),
            total: 0,
            since: 0,
            next_vote_id: 0,
            rejected: 0,
        }
    }

    /// Process one input batch through the three workflow passes.
    pub fn feed_batch(&mut self, batch: &[(i64, i64)]) {
        // SP1: validate and record.
        let mut validated = Vec::new();
        for &(phone, contestant) in batch {
            if !self.contestants.contains(&contestant) || self.phones.contains(&phone) {
                self.rejected += 1;
                continue;
            }
            self.next_vote_id += 1;
            self.votes.insert(self.next_vote_id, (phone, contestant));
            self.phones.insert(phone);
            validated.push(contestant);
        }
        // SP2: count and signal.
        let mut signals = 0;
        for contestant in validated {
            *self.counts.get_mut(&contestant).expect("validated") += 1;
            self.total += 1;
            self.since += 1;
            if self.since >= self.cfg.elimination_every {
                self.since = 0;
                signals += 1;
            }
        }
        // SP3: eliminate once per signal.
        for _ in 0..signals {
            self.eliminate_lowest();
        }
    }

    /// Convenience: feed votes one at a time (batch size 1).
    pub fn feed(&mut self, phone: i64, contestant: i64) {
        self.feed_batch(&[(phone, contestant)]);
    }

    fn eliminate_lowest(&mut self) {
        // The show runs until a single winner remains.
        if self.contestants.len() <= 1 {
            return;
        }
        // Lowest count, ties broken by lowest contestant number — matching
        // SP3's ORDER BY num_votes ASC, contestant_number ASC LIMIT 1.
        let Some((&loser, _)) = self.counts.iter().min_by_key(|(&c, &n)| (n, c)) else {
            return;
        };
        self.contestants.remove(&loser);
        self.counts.remove(&loser);
        self.eliminated.push((loser, self.total));
        // Return votes to the people: free those phones.
        let dead: Vec<i64> = self
            .votes
            .iter()
            .filter(|(_, &(_, c))| c == loser)
            .map(|(&vid, _)| vid)
            .collect();
        for vid in dead {
            let (phone, _) = self.votes.remove(&vid).expect("listed");
            self.phones.remove(&phone);
        }
    }

    /// Live recorded votes.
    pub(crate) fn live_votes(&self) -> usize {
        self.votes.len()
    }

    /// The current leader (highest count, ties to lowest number).
    pub(crate) fn leader(&self) -> Option<i64> {
        self.counts
            .iter()
            .max_by_key(|(&c, &n)| (n, std::cmp::Reverse(c)))
            .map(|(&c, _)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(n: i64, every: i64) -> VoterConfig {
        VoterConfig {
            num_contestants: n,
            elimination_every: every,
            trending_window: 10,
            trending_slide: 1,
        }
    }

    #[test]
    fn validates_and_counts() {
        let mut o = Oracle::new(cfg(3, 100));
        o.feed(1, 1);
        o.feed(2, 1);
        o.feed(1, 2); // duplicate phone
        o.feed(3, 99); // no such contestant
        assert_eq!(o.total, 2);
        assert_eq!(o.rejected, 2);
        assert_eq!(o.counts[&1], 2);
    }

    #[test]
    fn eliminates_lowest_with_tiebreak() {
        let mut o = Oracle::new(cfg(3, 4));
        // 4 votes: c1 x2, c2 x2 -> c3 has 0, eliminated.
        o.feed(1, 1);
        o.feed(2, 1);
        o.feed(3, 2);
        o.feed(4, 2);
        assert_eq!(o.eliminated, vec![(3, 4)]);
        // Next 4 votes: all for c1 -> c2 (2 votes) vs c1; c2 loses.
        for p in 5..9 {
            o.feed(p, 1);
        }
        assert_eq!(o.eliminated.len(), 2);
        assert_eq!(o.eliminated[1].0, 2);
        assert_eq!(o.leader(), Some(1));
    }

    #[test]
    fn eliminated_votes_free_phones() {
        let mut o = Oracle::new(cfg(3, 4));
        o.feed(10, 3); // phone 10 votes for c3
        o.feed(1, 1);
        o.feed(2, 1);
        o.feed(3, 2);
        // 4 counted votes; lowest is c2(1) vs c3(1)? counts: c1=2,c2=1,c3=1
        // tie c2/c3 -> lowest number c2 eliminated.
        assert_eq!(o.eliminated[0].0, 2);
        // phone 3 voted for c2; freed, can vote again.
        o.feed(3, 1);
        assert_eq!(o.total, 5);
        assert_eq!(o.rejected, 0);
        // phone 10 still bound (c3 alive).
        o.feed(10, 1);
        assert_eq!(o.rejected, 1);
    }

    #[test]
    fn batch_semantics_defer_elimination() {
        let mut per_vote = Oracle::new(cfg(3, 2));
        let mut batched = Oracle::new(cfg(3, 2));
        let votes = [(1i64, 1i64), (2, 1), (3, 1), (4, 1)];
        for &(p, c) in &votes {
            per_vote.feed(p, c);
        }
        batched.feed_batch(&votes);
        // Both eliminate twice, but the *timing* of validation differs only
        // across batches, so final eliminated sets can match here.
        assert_eq!(per_vote.eliminated.len(), 2);
        assert_eq!(batched.eliminated.len(), 2);
    }

    #[test]
    fn runs_to_a_winner() {
        let mut o = Oracle::new(cfg(5, 3));
        let mut phone = 0;
        while o.contestants.len() > 1 {
            phone += 1;
            // Everyone votes for the live contestant with the lowest id.
            let c = *o.contestants.iter().next().unwrap();
            o.feed(phone, c);
        }
        assert_eq!(o.contestants.len(), 1);
        assert_eq!(o.eliminated.len(), 4);
    }
}
