//! Property tests of the analytic memory model and the monitored hardware
//! state.

use oversub_hw::{
    AccessPattern, BranchRecord, CoreHw, Lbr, MemModel, NormalCodeRates, LBR_ENTRIES,
};
use proptest::prelude::*;

#[derive(Clone, Copy, Debug)]
enum LbrOp {
    Record(u64, u64),
    Varied(u64, u64),
    Repeated(u64, u64, u64),
    Clear,
}

fn arb_lbr_ops() -> impl Strategy<Value = Vec<LbrOp>> {
    proptest::collection::vec(
        prop_oneof![
            (0u64..64, 0u64..64).prop_map(|(f, t)| LbrOp::Record(f, t)),
            // Few bases, so repeat fills at the same head are common.
            (0u64..3, 0u64..40).prop_map(|(b, n)| LbrOp::Varied(b, n)),
            (0u64..3, 16u64..100).prop_map(|(b, n)| LbrOp::Varied(b, n)),
            (0u64..64, 0u64..64, 0u64..40).prop_map(|(f, t, n)| LbrOp::Repeated(f, t, n)),
            Just(LbrOp::Clear),
        ],
        1..120,
    )
}

/// The ring without the varied-fill memo: every branch written slot by
/// slot, exactly as `record_varied` is specified.
#[derive(Default)]
struct PlainRing {
    ring: [BranchRecord; LBR_ENTRIES],
    valid: usize,
    head: usize,
    recorded: u64,
}

impl PlainRing {
    fn record(&mut self, b: BranchRecord) {
        self.ring[self.head] = b;
        self.head = (self.head + 1) % LBR_ENTRIES;
        self.valid = (self.valid + 1).min(LBR_ENTRIES);
        self.recorded += 1;
    }

    fn apply(&mut self, op: LbrOp) {
        match op {
            LbrOp::Record(from, to) => self.record(BranchRecord { from, to }),
            LbrOp::Varied(base, n) => {
                let written = n.min(LBR_ENTRIES as u64);
                for i in 0..written {
                    self.record(Lbr::varied_branch(base, i));
                }
                self.recorded += n - written;
            }
            LbrOp::Repeated(from, to, n) => {
                let written = n.min(LBR_ENTRIES as u64);
                for _ in 0..written {
                    self.record(BranchRecord { from, to });
                }
                self.recorded += n - written;
            }
            LbrOp::Clear => {
                self.valid = 0;
                self.head = 0;
                self.recorded = 0;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Per-element cost is always positive and finite, and RMW never beats
    /// the read variant of the same pattern.
    #[test]
    fn per_elem_sane(ws in 1024u64..(1u64 << 31)) {
        let m = MemModel::default();
        for p in AccessPattern::ALL {
            let (ns, l1, tlb) = m.per_elem(p, ws);
            prop_assert!(ns.is_finite() && ns > 0.0);
            prop_assert!((0.0..=1.0).contains(&l1));
            prop_assert!((0.0..=1.0).contains(&tlb));
        }
        let r = m.per_elem(AccessPattern::RndRead, ws).0;
        let w = m.per_elem(AccessPattern::RndRmw, ws).0;
        prop_assert!(w >= r);
        let sr = m.per_elem(AccessPattern::SeqRead, ws).0;
        let sw = m.per_elem(AccessPattern::SeqRmw, ws).0;
        prop_assert!(sw >= sr);
        // Sequential streaming is never worse than random access.
        prop_assert!(sr <= r + 1e-9);
    }

    /// Random-read cost is monotone in working-set size.
    #[test]
    fn rnd_cost_monotone(a in 4096u64..(1u64 << 30), b in 4096u64..(1u64 << 30)) {
        let m = MemModel::default();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let cl = m.per_elem(AccessPattern::RndRead, lo).0;
        let ch = m.per_elem(AccessPattern::RndRead, hi).0;
        prop_assert!(ch + 1e-9 >= cl, "cost decreased: {cl} -> {ch} for {lo} -> {hi}");
    }

    /// Traversal pricing is (near-)linear in the element count.
    #[test]
    fn traversal_linear(ws in 4096u64..(1u64 << 28), elems in 100u64..100_000) {
        let m = MemModel::default();
        let one = m.traversal(AccessPattern::RndRead, ws, elems);
        let two = m.traversal(AccessPattern::RndRead, ws, elems * 2);
        let ratio = two.ns as f64 / one.ns.max(1) as f64;
        prop_assert!((1.98..=2.02).contains(&ratio), "ratio {ratio}");
    }

    /// The switch penalty is zero without a previous footprint and
    /// bounded; once the combined footprints spill the shared L3, the
    /// sequential penalty (full bandwidth-bound refetch) dominates the
    /// random one (inline residency rebuild).
    #[test]
    fn switch_penalty_bounds(inc in 0u64..(1u64 << 31), prev in 0u64..(1u64 << 31)) {
        let m = MemModel::default();
        prop_assert_eq!(m.switch_penalty_ns(inc, 0, true), 0);
        prop_assert_eq!(m.switch_penalty_ns(0, prev, false), 0);
        let rnd = m.switch_penalty_ns(inc, prev, true);
        let seq = m.switch_penalty_ns(inc, prev, false);
        if inc.saturating_add(prev) > m.params().l3_bytes {
            prop_assert!(rnd <= seq, "rnd {rnd} > seq {seq} beyond L3");
        }
        // Even the worst cases stay far below 10 ms.
        prop_assert!(seq < 10_000_000);
        prop_assert!(rnd < 10_000_000);
    }

    /// Migration refill grows with footprint and is dearer cross-node.
    #[test]
    fn migration_refill_monotone(f1 in 0u64..(1u64 << 28), f2 in 0u64..(1u64 << 28)) {
        let m = MemModel::default();
        let (lo, hi) = if f1 <= f2 { (f1, f2) } else { (f2, f1) };
        prop_assert!(m.migration_refill_ns(lo, false) <= m.migration_refill_ns(hi, false));
        prop_assert!(m.migration_refill_ns(hi, true) >= m.migration_refill_ns(hi, false));
    }

    /// The LBR ring state after any branch sequence equals a 16-entry
    /// sliding window of it.
    #[test]
    fn lbr_is_a_sliding_window(branches in proptest::collection::vec((0u64..1000, 0u64..1000), 1..80)) {
        let mut lbr = Lbr::new();
        for &(f, t) in &branches {
            lbr.record(f, t);
        }
        prop_assert_eq!(lbr.recorded_since_clear(), branches.len() as u64);
        let window: Vec<(u64, u64)> = branches
            .iter()
            .rev()
            .take(16)
            .copied()
            .collect();
        let mut got: Vec<(u64, u64)> = lbr.entries().iter().map(|r| (r.from, r.to)).collect();
        got.sort_unstable();
        let mut expect = window;
        expect.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    /// A spin signature is only reported when the window is pure spin:
    /// appending even one varied-branch run destroys it.
    #[test]
    fn spin_signature_requires_purity(iters in 16u64..10_000, tail in 1u64..16) {
        let mut hw = CoreHw::new();
        hw.note_spin(0x9000, 0x8FF0, iters, 4);
        prop_assert!(hw.lbr.all_identical_backward());
        hw.note_normal_execution(tail * 1_000, &NormalCodeRates::default(), 3);
        prop_assert!(!hw.lbr.all_identical_backward() || hw.pmc.l1d_misses > 0);
    }

    /// The varied-fill memo is invisible: after every operation of any
    /// record/varied/repeated/clear sequence the ring reads exactly like
    /// one that writes every branch.
    #[test]
    fn lbr_varied_memo_matches_a_plain_ring(ops in arb_lbr_ops()) {
        let mut lbr = Lbr::new();
        let mut plain = PlainRing::default();
        for op in ops {
            match op {
                LbrOp::Record(f, t) => lbr.record(f, t),
                LbrOp::Varied(b, n) => lbr.record_varied(b, n),
                LbrOp::Repeated(f, t, n) => lbr.record_repeated(f, t, n),
                LbrOp::Clear => lbr.clear(),
            }
            plain.apply(op);
            prop_assert_eq!(lbr.entries(), &plain.ring[..plain.valid], "after {:?}", op);
            prop_assert_eq!(lbr.recorded_since_clear(), plain.recorded);
            let spin = plain.valid == LBR_ENTRIES
                && plain.ring[0].is_backward()
                && plain.ring.iter().all(|r| *r == plain.ring[0]);
            prop_assert_eq!(lbr.all_identical_backward(), spin);
        }
    }
}
