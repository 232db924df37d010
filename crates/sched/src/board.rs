//! Per-CPU bitsets ("boards") that let the scheduler's machine-wide
//! searches visit only the CPUs that can matter instead of striding over
//! every CPU.
//!
//! A [`CpuBits`] is a set of CPU indices kept as one bit per CPU plus a
//! running count. Words are `Cell`s, so the runqueues of one scheduler can
//! share their [`RqBoards`] through an `Rc` and update their own bit on
//! their 0↔non-empty transitions, the way the kernel keeps `nohz.idle_cpus_mask`
//! beside its runqueues.

use std::cell::Cell;

/// A set of CPU indices: bit `i % 64` of word `i / 64`, plus the number of
/// set bits. Iteration is in ascending CPU order, so a search over a board
/// keeps the tie-breaks of a full `0..ncpu` stride.
#[derive(Debug, Default)]
pub struct CpuBits {
    words: Box<[Cell<u64>]>,
    count: Cell<usize>,
}

impl CpuBits {
    /// An empty set with room for CPUs `0..ncpu`.
    pub fn new(ncpu: usize) -> Self {
        CpuBits {
            words: (0..ncpu.div_ceil(64)).map(|_| Cell::new(0)).collect(),
            count: Cell::new(0),
        }
    }

    /// Whether `cpu` is in the set.
    #[inline]
    pub fn contains(&self, cpu: usize) -> bool {
        self.words[cpu >> 6].get() & (1u64 << (cpu & 63)) != 0
    }

    /// Put `cpu` in the set (`on`) or take it out; a no-op if it already
    /// is (or is not) there.
    #[inline]
    pub fn set(&self, cpu: usize, on: bool) {
        let w = &self.words[cpu >> 6];
        let bit = 1u64 << (cpu & 63);
        let old = w.get();
        if (old & bit != 0) != on {
            w.set(old ^ bit);
            let n = self.count.get();
            self.count.set(if on { n + 1 } else { n - 1 });
        }
    }

    /// Number of CPUs in the set, O(1).
    #[inline]
    pub fn len(&self) -> usize {
        self.count.get()
    }

    /// True if no CPU is in the set, O(1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count.get() == 0
    }

    /// Word `w` of the bitset (CPUs `64 * w .. 64 * w + 64`).
    #[inline]
    pub fn word(&self, w: usize) -> u64 {
        self.words[w].get()
    }

    /// Number of 64-bit words.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.words.len()
    }

    /// The CPUs in the set, ascending.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            words: &self.words,
            next_word: 0,
            base: 0,
            cur: 0,
        }
    }
}

/// Ascending iterator over a [`CpuBits`]; reads each word when it gets
/// there.
pub struct Iter<'a> {
    words: &'a [Cell<u64>],
    next_word: usize,
    base: usize,
    cur: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.cur == 0 {
            let w = self.words.get(self.next_word)?;
            self.cur = w.get();
            self.base = self.next_word * 64;
            self.next_word += 1;
        }
        let bit = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(self.base + bit)
    }
}

/// The boards every runqueue of one scheduler maintains for it.
#[derive(Debug)]
pub struct RqBoards {
    /// Runqueues holding any task, VB-parked ones included (the running
    /// task is not on its queue). Only these can be a periodic-balance
    /// source.
    pub occupied: CpuBits,
    /// Runqueues holding at least one schedulable task: idle-steal
    /// sources, and CPUs that are not idle even with nothing running.
    pub waiters: CpuBits,
}

impl RqBoards {
    /// Empty boards for CPUs `0..ncpu`.
    pub fn new(ncpu: usize) -> Self {
        RqBoards {
            occupied: CpuBits::new(ncpu),
            waiters: CpuBits::new(ncpu),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_count_and_order() {
        let s = CpuBits::new(130);
        for c in [129, 0, 64, 63, 5, 64] {
            s.set(c, true);
        }
        assert_eq!(s.len(), 5);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 63, 64, 129]);
        s.set(64, false);
        s.set(64, false);
        s.set(7, false);
        assert_eq!(s.len(), 4);
        assert!(!s.contains(64) && s.contains(129));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 5, 63, 129]);
        assert_eq!(s.num_words(), 3);
        assert_eq!(s.word(2), 0b10);
    }

    #[test]
    fn empty_sets_iterate_nothing() {
        assert_eq!(CpuBits::new(0).iter().next(), None);
        let s = CpuBits::new(200);
        assert!(s.is_empty());
        assert_eq!(s.iter().next(), None);
    }
}
