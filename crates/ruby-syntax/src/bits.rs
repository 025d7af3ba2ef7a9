//! The set type that slot sets and dataflow facts are built on.
//!
//! A [`Bits`] is a set of small indices: slots of a method's local table
//! ([`crate::scope::Locals`]) in the scope walk and the lints, taint
//! origins in the effect summaries.  The first 64 members sit inline
//! in one word and the rest in a tail of words that stays empty, and so
//! allocates nothing, while every member is below 64.  Iteration is in
//! ascending index order, so a fact iterates the same way on every run.

/// A set of `usize` indices.  Equality ignores trailing zero words, so a
/// set that grew past 64 members and shrank again equals one that never
/// did.
#[derive(Clone, Debug, Default)]
pub struct Bits {
    /// Members 0–63.
    head: u64,
    /// Members from 64 on, 64 to a word; never longer than it needs to be
    /// after an insert or a union, but a removal may leave zero words.
    tail: Vec<u64>,
}

const WORD: usize = u64::BITS as usize;

impl Bits {
    /// The empty set.
    pub fn new() -> Bits {
        Bits::default()
    }

    /// The set `{i}`.
    #[inline]
    pub fn single(i: usize) -> Bits {
        let mut bits = Bits::new();
        bits.insert(i);
        bits
    }

    #[inline]
    fn word(&self, w: usize) -> u64 {
        match w {
            0 => self.head,
            _ => self.tail.get(w - 1).copied().unwrap_or(0),
        }
    }

    #[inline]
    fn word_mut(&mut self, w: usize) -> &mut u64 {
        if w == 0 {
            return &mut self.head;
        }
        if self.tail.len() < w {
            self.tail.resize(w, 0);
        }
        &mut self.tail[w - 1]
    }

    /// Whether `i` is a member.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        self.word(i / WORD) >> (i % WORD) & 1 == 1
    }

    /// Adds `i`; returns whether it was not already a member.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        let word = self.word_mut(i / WORD);
        let bit = 1 << (i % WORD);
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    /// Removes `i` if it is a member.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        let (w, bit) = (i / WORD, 1u64 << (i % WORD));
        match w {
            0 => self.head &= !bit,
            _ => {
                if let Some(word) = self.tail.get_mut(w - 1) {
                    *word &= !bit;
                }
            }
        }
    }

    /// Adds every member of `other`; returns whether the set grew.
    #[inline]
    pub fn union(&mut self, other: &Bits) -> bool {
        let mut grew = other.head & !self.head != 0;
        self.head |= other.head;
        let used = other.tail.iter().rposition(|&w| w != 0).map_or(0, |last| last + 1);
        if self.tail.len() < used {
            self.tail.resize(used, 0);
        }
        for (mine, &theirs) in self.tail.iter_mut().zip(&other.tail[..used]) {
            grew |= theirs & !*mine != 0;
            *mine |= theirs;
        }
        grew
    }

    /// Keeps only the members that `other` also holds.
    #[inline]
    pub fn intersect(&mut self, other: &Bits) {
        self.head &= other.head;
        for (w, mine) in self.tail.iter_mut().enumerate() {
            *mine &= other.tail.get(w).copied().unwrap_or(0);
        }
    }

    /// Whether the set has no member.
    pub fn is_empty(&self) -> bool {
        self.head == 0 && self.tail.iter().all(|&w| w == 0)
    }

    /// The members in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.head).chain(self.tail.iter().copied()).enumerate().flat_map(
            |(w, mut word)| {
                std::iter::from_fn(move || {
                    (word != 0).then(|| {
                        let bit = word.trailing_zeros() as usize;
                        word &= word - 1;
                        w * WORD + bit
                    })
                })
            },
        )
    }
}

impl PartialEq for Bits {
    fn eq(&self, other: &Bits) -> bool {
        let (long, short) = if self.tail.len() >= other.tail.len() {
            (&self.tail, &other.tail)
        } else {
            (&other.tail, &self.tail)
        };
        self.head == other.head
            && long[..short.len()] == short[..]
            && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for Bits {}

impl FromIterator<usize> for Bits {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Bits {
        let mut bits = Bits::new();
        for i in iter {
            bits.insert(i);
        }
        bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sets_that_differ_only_by_trailing_zero_words_are_equal() {
        let mut grown = Bits::single(3);
        grown.insert(200);
        grown.remove(200);
        assert_eq!(grown.tail.len(), 3, "the removal leaves its zero words");
        assert_eq!(grown, Bits::single(3));
        assert_eq!(Bits::single(3), grown);
        let mut far = Bits::single(3);
        far.insert(70);
        assert_ne!(far, Bits::single(3));
        assert_ne!(Bits::single(3), far);
        let mut emptied = Bits::single(100);
        emptied.intersect(&Bits::single(5));
        assert!(emptied.is_empty());
        assert_eq!(emptied, Bits::new());
    }

    #[test]
    fn union_reports_whether_the_set_grew() {
        let mut a: Bits = [1, 65].into_iter().collect();
        assert!(!a.union(&Bits::single(1)), "a member already there");
        assert!(!a.union(&Bits::single(65)), "a tail member already there");
        assert!(!a.union(&Bits::new()));
        let mut zero_tail = Bits::single(2);
        zero_tail.insert(300);
        zero_tail.remove(300);
        assert!(a.union(&zero_tail), "2 is new");
        assert_eq!(a.tail.len(), 1, "zero words of the other set are not copied");
        assert!(a.union(&Bits::single(130)), "a new tail word");
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2, 65, 130]);
        assert!(a.insert(0) && !a.insert(0));
    }

    #[test]
    fn iteration_is_ascending_across_words() {
        let members = [199, 0, 64, 63, 5, 128, 127, 65];
        let bits: Bits = members.into_iter().collect();
        let mut sorted = members.to_vec();
        sorted.sort_unstable();
        assert_eq!(bits.iter().collect::<Vec<_>>(), sorted);
        assert!(members.iter().all(|&i| bits.contains(i)));
        assert!(!bits.contains(1) && !bits.contains(500));
        assert_eq!(Bits::new().iter().next(), None);
    }
}
