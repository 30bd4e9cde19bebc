//! Property-based tests for the netsim event queue and flow network.
//!
//! Two invariants the whole subsystem rests on:
//!
//! 1. The queue's pop sequence is the total order `(time, seq)` regardless
//!    of how pushes and pops interleave — equal-time events never reorder.
//! 2. A million-event churn is deterministic: two identical runs produce
//!    bit-identical pop sequences.

use netsim::{EventQueue, Network};
use proptest::prelude::*;

/// A random interleaving of pushes (time drawn from a coarse grid so time
/// collisions are frequent) and pops.
fn arb_ops() -> impl Strategy<Value = Vec<Option<f64>>> {
    proptest::collection::vec(
        proptest::option::of((0u64..40).prop_map(|t| t as f64 * 0.25)),
        1..400,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Replaying any interleaved push/pop script, every pop returns the
    /// `(time, seq)`-minimal pending event: times never decrease between
    /// consecutive pops of the same pending set, and equal times pop in
    /// push order.
    #[test]
    fn pops_follow_the_total_order(ops in arb_ops()) {
        let mut q = EventQueue::new();
        // Mirror of the queue's pending set, kept brute-force sorted.
        let mut pending: Vec<(f64, u64)> = Vec::new();
        for op in ops {
            match op {
                Some(time) => {
                    let seq = q.push(time, ());
                    pending.push((time, seq));
                }
                None => {
                    let got = q.pop();
                    let want = pending
                        .iter()
                        .enumerate()
                        .min_by(|(_, a), (_, b)| {
                            a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1))
                        })
                        .map(|(i, _)| i);
                    match (got, want) {
                        (Some(s), Some(i)) => {
                            let (time, seq) = pending.remove(i);
                            prop_assert_eq!(s.time.to_bits(), time.to_bits());
                            prop_assert_eq!(s.seq, seq);
                        }
                        (None, None) => {}
                        (g, w) => panic!("queue/model disagree: {g:?} vs {w:?}"),
                    }
                }
            }
        }
        prop_assert_eq!(q.len(), pending.len());
    }

    /// Sequence stamps are unique and increase monotonically in push
    /// order, so they are a valid tie-break.
    #[test]
    fn seq_stamps_are_monotone(times in proptest::collection::vec(0.0f64..10.0, 1..200)) {
        let mut q = EventQueue::new();
        let mut last = None;
        for t in times {
            let seq = q.push(t, ());
            if let Some(prev) = last {
                prop_assert!(seq > prev);
            }
            last = Some(seq);
        }
    }
}

/// Deterministic xorshift64* — the churn driver needs reproducible
/// pseudo-random times without touching any global RNG.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn time(&mut self) -> f64 {
        // Coarse grid: ~6% of pushes collide with an existing time.
        (self.next() % 65_536) as f64 * 0.125
    }
}

/// One million events through the queue, popped in blocks, hashing the
/// `(time-bits, seq)` pop sequence. Runs twice; the digests must match
/// exactly. Its rate is a host number: `benchmark/` times the same churn
/// shape as `netsim.queue_events_per_s`.
#[test]
fn million_event_churn_is_deterministic() {
    fn churn() -> (u64, u64) {
        let mut q = EventQueue::with_capacity(1 << 16);
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        let mut digest: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |time: f64, seq: u64| {
            for word in [time.to_bits(), seq] {
                digest ^= word;
                digest = digest.wrapping_mul(0x1000_0000_01b3);
            }
        };
        const TOTAL: u64 = 1_000_000;
        let mut pushed = 0u64;
        while pushed < TOTAL || !q.is_empty() {
            // Push a burst, then drain roughly half the backlog.
            let burst = 64.min(TOTAL - pushed);
            for _ in 0..burst {
                q.push(rng.time(), pushed);
                pushed += 1;
            }
            let drain = if pushed < TOTAL { q.len() / 2 } else { q.len() };
            for _ in 0..drain {
                let ev = q.pop().expect("backlog is non-empty");
                fold(ev.time, ev.seq);
            }
        }
        assert_eq!(q.total_pushed(), TOTAL);
        assert_eq!(q.total_popped(), TOTAL);
        (digest, q.total_popped())
    }
    let (d1, n1) = churn();
    let (d2, n2) = churn();
    assert_eq!(n1, n2);
    assert_eq!(d1, d2, "identical churns must pop identical sequences");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Flow-level conservation: on a single shared link, every flow's
    /// completion time matches a brute-force fluid re-simulation, and the
    /// link is never oversubscribed.
    #[test]
    fn shared_link_completions_match_fluid_model(
        sizes in proptest::collection::vec(0.5f64..50.0, 1..12),
    ) {
        let cap = 10.0;
        let mut net = Network::new();
        let link = net.add_link(cap);
        for &s in &sizes {
            net.start_flow(vec![link], s);
        }
        let done = {
            let mut out = Vec::new();
            while let Some(c) = net.pop_completion() {
                out.push(c);
            }
            out
        };
        prop_assert_eq!(done.len(), sizes.len());

        // Fluid model: equal shares; smallest remaining finishes first.
        let mut remaining: Vec<(usize, f64)> =
            sizes.iter().copied().enumerate().collect();
        let mut now = 0.0;
        let mut expect: Vec<(f64, usize)> = Vec::new();
        while !remaining.is_empty() {
            let share = cap / remaining.len() as f64;
            let (pos, &(id, rem)) = remaining
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.1.partial_cmp(&b.1).unwrap().then(a.0.cmp(&b.0)))
                .unwrap();
            let dt = rem / share;
            now += dt;
            for (_, r) in remaining.iter_mut() {
                *r -= share * dt;
            }
            expect.push((now, id));
            remaining.remove(pos);
        }
        for ((t, f), (te, fe)) in done.iter().zip(&expect) {
            prop_assert_eq!(*f, *fe);
            prop_assert!((t - te).abs() < 1e-6 * te.max(1.0),
                "completion {} at {} vs fluid {}", f, t, te);
        }
    }
}
