//! Last Branch Record (LBR) model.
//!
//! Intel CPUs expose a small ring of the most recently retired branches as
//! `(from, to)` virtual-address pairs. The paper's busy-waiting detector
//! configures the LBR to *exclude call/return branches* and reads the ring
//! every 100 µs: a full ring of 16 identical backward branches is the spin
//! signature.
//!
//! In the simulation, executed code segments report their branches here.
//! Spin loops report one identical backward branch per iteration; ordinary
//! code reports a varied stream of branch addresses.

/// Number of LBR entries on the paper's Broadwell platform.
pub const LBR_ENTRIES: usize = 16;

/// One recorded branch.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct BranchRecord {
    /// Address of the branch instruction.
    pub from: u64,
    /// Branch target address.
    pub to: u64,
}

impl BranchRecord {
    /// A backward branch jumps to an earlier address (loops).
    #[inline]
    pub fn is_backward(&self) -> bool {
        self.to < self.from
    }
}

/// The per-core LBR ring.
#[derive(Clone, Debug)]
pub struct Lbr {
    ring: [BranchRecord; LBR_ENTRIES],
    /// Number of valid entries since the last clear (caps at LBR_ENTRIES).
    valid: usize,
    /// Next slot to overwrite.
    head: usize,
    /// Total branches recorded since the last clear (can exceed ring size).
    recorded_since_clear: u64,
    /// `(base, head)` of the last full [`Lbr::record_varied`] fill, kept
    /// while the ring still holds exactly what that fill wrote: any other
    /// write drops it, and [`Lbr::clear`] keeps it (clearing resets the
    /// counters, not the slots). A full fill writes 16 entries that depend
    /// only on `base`, starting at `head` and ending back at `head`, so a
    /// repeat fill at the same head rewrites identical slots and only its
    /// counter updates remain — the common case of a task running
    /// ordinary code across monitoring windows.
    varied_memo: Option<(u64, usize)>,
}

impl Default for Lbr {
    fn default() -> Self {
        Self::new()
    }
}

impl Lbr {
    /// An empty ring.
    pub fn new() -> Self {
        Lbr {
            ring: [BranchRecord::default(); LBR_ENTRIES],
            valid: 0,
            head: 0,
            recorded_since_clear: 0,
            varied_memo: None,
        }
    }

    /// Record a single retired branch.
    #[inline]
    pub fn record(&mut self, from: u64, to: u64) {
        self.varied_memo = None;
        self.ring[self.head] = BranchRecord { from, to };
        self.head = (self.head + 1) % LBR_ENTRIES;
        if self.valid < LBR_ENTRIES {
            self.valid += 1;
        }
        self.recorded_since_clear += 1;
    }

    /// Record the same branch `count` times (bulk path for spin loops; the
    /// ring ends up in the same state as `count` individual records).
    pub fn record_repeated(&mut self, from: u64, to: u64, count: u64) {
        if count == 0 {
            return;
        }
        self.varied_memo = None;
        let reps = count.min(LBR_ENTRIES as u64) as usize;
        for _ in 0..reps {
            self.ring[self.head] = BranchRecord { from, to };
            self.head = (self.head + 1) % LBR_ENTRIES;
        }
        self.valid = (self.valid + reps).min(LBR_ENTRIES);
        self.recorded_since_clear += count;
    }

    /// Branch `i` of the varied stream synthesized from `base`:
    /// consecutive entries differ, and forward and backward branches
    /// alternate at varied addresses.
    #[inline]
    pub fn varied_branch(base: u64, i: u64) -> BranchRecord {
        let k = base.wrapping_add(i.wrapping_mul(0x9E37)) & 0xFFFF;
        let from = 0x40_0000 + k * 64;
        let to = if i.is_multiple_of(2) {
            from + 128
        } else {
            from - 96
        };
        BranchRecord { from, to }
    }

    /// Record a stream of varied branches, as ordinary code does: the
    /// first `min(count, 16)` branches of [`Lbr::varied_branch`]'s stream
    /// from `base` land in the ring, and all `count` are counted.
    pub fn record_varied(&mut self, base: u64, count: u64) {
        if count < LBR_ENTRIES as u64 {
            for i in 0..count {
                let b = Self::varied_branch(base, i);
                self.record(b.from, b.to);
            }
            return;
        }
        // A full fill wraps the ring exactly once: `head` ends where it
        // started.
        if self.varied_memo != Some((base, self.head)) {
            for i in 0..LBR_ENTRIES {
                self.ring[(self.head + i) % LBR_ENTRIES] = Self::varied_branch(base, i as u64);
            }
            self.varied_memo = Some((base, self.head));
        }
        self.valid = LBR_ENTRIES;
        self.recorded_since_clear += count;
    }

    /// Number of valid entries since the last clear (<= 16).
    #[inline]
    pub fn valid_entries(&self) -> usize {
        self.valid
    }

    /// True if all 16 entries have been filled since the last clear — a BWD
    /// precondition (guards against short intervals mislabeling).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.valid == LBR_ENTRIES
    }

    /// Total branches recorded since the last clear.
    #[inline]
    pub fn recorded_since_clear(&self) -> u64 {
        self.recorded_since_clear
    }

    /// Snapshot of the valid entries (unordered; BWD only checks equality).
    pub fn entries(&self) -> &[BranchRecord] {
        &self.ring[..self.valid]
    }

    /// True if every valid entry is the same backward branch and the ring is
    /// full — the raw LBR component of the spin signature.
    pub fn all_identical_backward(&self) -> bool {
        if !self.is_full() {
            return false;
        }
        let first = self.ring[0];
        first.is_backward() && self.ring.iter().all(|r| *r == first)
    }

    /// Clear the ring for the next monitoring period.
    pub fn clear(&mut self) {
        self.valid = 0;
        self.head = 0;
        self.recorded_since_clear = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_ring_is_not_spin() {
        let l = Lbr::new();
        assert!(!l.is_full());
        assert!(!l.all_identical_backward());
        assert_eq!(l.valid_entries(), 0);
    }

    #[test]
    fn identical_backward_branches_fill_signature() {
        let mut l = Lbr::new();
        l.record_repeated(0x1000, 0x0FF0, 100);
        assert!(l.is_full());
        assert!(l.all_identical_backward());
        assert_eq!(l.recorded_since_clear(), 100);
    }

    #[test]
    fn forward_branches_are_not_spin() {
        let mut l = Lbr::new();
        l.record_repeated(0x1000, 0x1010, 100); // forward
        assert!(l.is_full());
        assert!(!l.all_identical_backward());
    }

    #[test]
    fn underfilled_ring_is_not_spin() {
        let mut l = Lbr::new();
        l.record_repeated(0x1000, 0x0FF0, 10);
        assert!(!l.is_full());
        assert!(!l.all_identical_backward());
    }

    #[test]
    fn varied_stream_is_not_spin() {
        let mut l = Lbr::new();
        l.record_varied(12345, 64);
        assert!(l.is_full());
        assert!(!l.all_identical_backward());
    }

    #[test]
    fn mixed_stream_is_not_spin() {
        let mut l = Lbr::new();
        l.record_repeated(0x1000, 0x0FF0, 15);
        l.record(0x2000, 0x2040);
        assert!(l.is_full());
        assert!(!l.all_identical_backward());
    }

    #[test]
    fn spin_after_normal_code_overwrites_ring() {
        let mut l = Lbr::new();
        l.record_varied(7, 40);
        l.record_repeated(0x1000, 0x0FF0, 16);
        assert!(l.all_identical_backward());
    }

    #[test]
    fn clear_resets_everything() {
        let mut l = Lbr::new();
        l.record_repeated(0x1000, 0x0FF0, 50);
        l.clear();
        assert_eq!(l.valid_entries(), 0);
        assert_eq!(l.recorded_since_clear(), 0);
        assert!(!l.all_identical_backward());
    }

    #[test]
    fn bulk_and_individual_records_agree() {
        let mut a = Lbr::new();
        let mut b = Lbr::new();
        a.record_repeated(0x1000, 0x0FF0, 23);
        for _ in 0..23 {
            b.record(0x1000, 0x0FF0);
        }
        assert_eq!(a.entries(), b.entries());
        assert_eq!(a.recorded_since_clear(), b.recorded_since_clear());
    }
}
