//! The members of the window sweep's pool in its rank space
//! ([`crate::maintain`]): a 64-ary hierarchical bitset.

/// Levels enough for any `usize` rank: `64¹¹ > 2⁶⁴`.
const MAX_LEVELS: usize = 11;

/// A set of ranks `0..n`. Level 0 holds one bit per rank; a word of level
/// `k + 1` one bit per word of level `k`, set while that word is not zero;
/// the top level is one word (one level up to 64 ranks, two up to 4 096,
/// three up to 262 144). Insert and remove flip one bit per level, and
/// [`RankSet::next`] climbs to the first word with a member past its
/// start, then descends by `trailing_zeros`.
#[derive(Default)]
pub(crate) struct RankSet {
    /// Every level's words, level 0 first.
    words: Vec<u64>,
    /// Level `k` is `words[starts[k]..starts[k + 1]]`.
    starts: [usize; MAX_LEVELS + 1],
    depth: usize,
}

impl RankSet {
    /// Empty the set and size it for the ranks `0..n`, reusing its words.
    pub(crate) fn reset(&mut self, n: usize) {
        self.words.clear();
        self.depth = 0;
        let mut bits = n.max(1);
        loop {
            let len = bits.div_ceil(64);
            self.words.resize(self.words.len() + len, 0);
            self.depth += 1;
            self.starts[self.depth] = self.words.len();
            if len == 1 {
                return;
            }
            bits = len;
        }
    }

    /// Add rank `rank` (below the size of the last reset).
    pub(crate) fn insert(&mut self, mut rank: usize) {
        for k in 0..self.depth {
            self.words[self.starts[k] + (rank >> 6)] |= 1 << (rank & 63);
            rank >>= 6;
        }
    }

    /// Take rank `rank` out; a summary bit goes with the last member under
    /// it.
    pub(crate) fn remove(&mut self, mut rank: usize) {
        for k in 0..self.depth {
            let word = &mut self.words[self.starts[k] + (rank >> 6)];
            *word &= !(1 << (rank & 63));
            if *word != 0 {
                return;
            }
            rank >>= 6;
        }
    }

    /// Is `rank` a member?
    pub(crate) fn contains(&self, rank: usize) -> bool {
        let leaves = &self.words[..self.starts[1]];
        leaves
            .get(rank >> 6)
            .is_some_and(|word| word >> (rank & 63) & 1 == 1)
    }

    /// The smallest member at or above `from`.
    pub(crate) fn next(&self, from: usize) -> Option<usize> {
        let (mut at, mut k) = (from, 0);
        // Climb to the first level whose word holding `at` has a member at
        // or past it; past a word's end, its successor's bit one level up.
        loop {
            let word = *self.words[self.starts[k]..self.starts[k + 1]].get(at >> 6)?;
            let rest = word & (u64::MAX << (at & 63));
            if rest != 0 {
                at = (at & !63) | rest.trailing_zeros() as usize;
                break;
            }
            k += 1;
            if k == self.depth {
                return None;
            }
            at = (at >> 6) + 1;
        }
        // Descend through the first member of each word below.
        while k > 0 {
            k -= 1;
            at = at << 6 | self.words[self.starts[k] + at].trailing_zeros() as usize;
        }
        Some(at)
    }

    /// The members from `from` on, in ascending order.
    pub(crate) fn iter_from(&self, from: usize) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next(from), |&rank| self.next(rank + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[derive(Clone, Debug)]
    enum Step {
        Insert(usize),
        /// Remove the first member at or past a rank, else the first one.
        Remove(usize),
        Next(usize),
    }

    /// Ranks drawn near the ends of words and of the set as often as
    /// anywhere else: `spot` picks a region, `offset` a rank in it.
    fn steps() -> impl Strategy<Value = Vec<Step>> {
        let step = (0u8..7, 0u8..4, 0usize..1 << 20).prop_map(|(pick, spot, offset)| {
            let rank = match spot {
                0 => offset % 130,
                1 => offset % 64 * 64 + offset / 64 % 3,
                _ => offset,
            };
            match pick {
                0..=2 => Step::Insert(rank),
                3..=4 => Step::Remove(rank),
                _ => Step::Next(rank),
            }
        });
        proptest::collection::vec(step, 1..60)
    }

    /// `next` and `contains` at `from` against the model.
    fn agree(set: &RankSet, model: &BTreeSet<usize>, from: usize) {
        let next = model.range(from..).next().copied();
        assert_eq!(set.next(from), next, "next({from})");
        assert_eq!(set.contains(from), next == Some(from), "contains({from})");
    }

    proptest! {
        // Sized for Miri (CI runs this module's tests under it).
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Interleaved inserts, removals and `next` queries ≡ a `BTreeSet`
        /// over one word and several, at the edges of one and two levels,
        /// and past three: every query, then the members in order.
        #[test]
        fn rank_set_is_a_sorted_set(steps in steps()) {
            for n in [1usize, 63, 64, 65, 4096, 4097, 300_000] {
                let mut set = RankSet::default();
                set.reset(n);
                let mut model = BTreeSet::new();
                for step in &steps {
                    match *step {
                        Step::Insert(rank) => {
                            set.insert(rank % n);
                            model.insert(rank % n);
                        }
                        Step::Remove(rank) => {
                            let member = model.range(rank % n..).next().or(model.first());
                            if let Some(member) = member.copied() {
                                set.remove(member);
                                model.remove(&member);
                            }
                        }
                        Step::Next(rank) => agree(&set, &model, rank % (n + 70)),
                    }
                    for &member in model.iter().take(3) {
                        agree(&set, &model, member);
                        agree(&set, &model, member + 1);
                    }
                    agree(&set, &model, 0);
                }
                prop_assert_eq!(set.iter_from(0).collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
            }
        }
    }

    /// A reset empties a set that held members, at any size.
    #[test]
    fn a_reset_set_is_empty() {
        let mut set = RankSet::default();
        assert_eq!(set.next(0), None);
        for n in [5_000usize, 64, 1] {
            set.reset(n);
            assert_eq!(set.next(0), None);
            set.insert(n - 1);
            set.insert(0);
            let want: BTreeSet<usize> = [0, n - 1].into();
            assert_eq!(set.iter_from(0).collect::<BTreeSet<_>>(), want);
        }
    }
}
