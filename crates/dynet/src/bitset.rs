//! A compact fixed-capacity bit set, used for per-node token-knowledge
//! tracking in views and adversaries.

/// A fixed-capacity set of small integers, bit-packed.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Vec<u64>,
    capacity: usize,
}

impl core::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl BitSet {
    /// An empty set over the universe `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            capacity,
        }
    }

    /// The set whose packed words are `words` (bit `i % 64` of word
    /// `i / 64` is element `i`), over the universe `0..capacity`.
    ///
    /// # Panics
    /// Panics unless `words` holds exactly ⌈capacity/64⌉ words with no bit
    /// set at or past `capacity`.
    pub fn from_words(words: &[u64], capacity: usize) -> Self {
        assert_eq!(words.len(), capacity.div_ceil(64), "word count mismatch");
        let tail = capacity % 64;
        assert!(
            tail == 0 || words[words.len() - 1] >> tail == 0,
            "element past capacity {capacity}"
        );
        BitSet {
            words: words.to_vec(),
            capacity,
        }
    }

    /// The universe size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `i`; returns `true` if it was absent.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "element {i} out of capacity {}",
            self.capacity
        );
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] >> b & 1;
        self.words[w] |= 1 << b;
        was == 0
    }

    /// Removes `i`; returns `true` if it was present.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "element {i} out of capacity {}",
            self.capacity
        );
        let (w, b) = (i / 64, i % 64);
        let was = self.words[w] >> b & 1;
        self.words[w] &= !(1 << b);
        was == 1
    }

    /// Membership test.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    pub fn contains(&self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "element {i} out of capacity {}",
            self.capacity
        );
        self.words[i / 64] >> (i % 64) & 1 == 1
    }

    /// Removes every element, keeping the capacity (and the allocation).
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Does the set contain every element of the universe?
    pub fn is_full(&self) -> bool {
        self.len() == self.capacity
    }

    /// `self |= other`.
    ///
    /// # Panics
    /// Panics on capacity mismatch.
    pub fn union_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// `self &= other`.
    ///
    /// # Panics
    /// Panics on capacity mismatch.
    pub fn intersect_with(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// `self -= other`.
    ///
    /// # Panics
    /// Panics on capacity mismatch.
    pub fn subtract(&mut self, other: &BitSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Is `self ⊆ other`?
    ///
    /// # Panics
    /// Panics on capacity mismatch.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// A 64-bit content signature: equal sets always collide, unequal
    /// sets almost never do. Used as a cheap clustering key by the
    /// knowledge-adaptive adversary.
    pub fn signature(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &w in &self.words {
            h ^= w;
            h = h.wrapping_mul(0x1000_0000_01b3);
            h ^= h >> 29;
        }
        h
    }

    /// Elements in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(w, &word)| {
            let mut word = word;
            core::iter::from_fn(move || {
                if word == 0 {
                    None
                } else {
                    let b = word.trailing_zeros() as usize;
                    word &= word - 1;
                    Some(w * 64 + b)
                }
            })
        })
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects elements into a set whose capacity is one past the maximum
    /// element (or 0 when empty).
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(100);
        assert!(s.insert(3));
        assert!(!s.insert(3));
        assert!(s.contains(3));
        assert!(s.insert(99));
        assert_eq!(s.len(), 2);
        assert!(s.remove(3));
        assert!(!s.remove(3));
        assert!(!s.contains(3));
    }

    #[test]
    fn set_algebra() {
        let a: BitSet = [1usize, 2, 3].into_iter().collect();
        let mut a = {
            let mut x = BitSet::new(10);
            for i in a.iter() {
                x.insert(i);
            }
            x
        };
        let mut b = BitSet::new(10);
        b.insert(3);
        b.insert(4);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3]);
        a.subtract(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 2]);
        assert!(i.is_subset(&b));
        assert!(!b.is_subset(&i));
    }

    #[test]
    fn full_and_empty() {
        let mut s = BitSet::new(65);
        assert!(s.is_empty());
        for i in 0..65 {
            s.insert(i);
        }
        assert!(s.is_full());
        assert_eq!(s.len(), 65);
    }

    #[test]
    fn from_words_equals_inserting_the_same_elements() {
        let mut s = BitSet::new(130);
        for i in [0, 63, 64, 129] {
            s.insert(i);
        }
        let w = (1u64 << 63) | 1;
        assert_eq!(BitSet::from_words(&[w, 1, 2], 130), s);
    }

    #[test]
    #[should_panic(expected = "element past capacity")]
    fn from_words_rejects_bits_past_capacity() {
        BitSet::from_words(&[1 << 8], 8);
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn out_of_range_panics() {
        let mut s = BitSet::new(8);
        s.insert(8);
    }

    #[test]
    fn signatures_separate_unequal_sets() {
        let mut a = BitSet::new(128);
        let mut b = BitSet::new(128);
        assert_eq!(a.signature(), b.signature(), "equal sets, equal signatures");
        a.insert(3);
        assert_ne!(a.signature(), b.signature());
        b.insert(3);
        assert_eq!(a.signature(), b.signature());
        // A different element with the same count must differ too.
        let mut c = BitSet::new(128);
        c.insert(67);
        assert_ne!(a.signature(), c.signature());
    }
}
