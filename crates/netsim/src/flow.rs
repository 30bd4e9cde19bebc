//! The flow-level network simulator.
//!
//! A [`Network`] is a set of capacitated links and a set of *flows*, each
//! carrying a byte count over a fixed path of links. Bandwidth is shared
//! by progressive-filling **max-min fairness**: repeatedly find the most
//! contended link (smallest `capacity / flows` share), freeze every flow
//! crossing it at that share, subtract, and continue until every flow has
//! a rate. Rates are recomputed *event-driven* — on every flow arrival and
//! completion — never on a fixed tick, so an idle network costs nothing.
//!
//! Completions are tracked through an [`EventQueue`] with per-flow
//! generation counters: when a recomputation changes a flow's rate, its
//! old completion prediction becomes stale (the generation no longer
//! matches) and is skipped when popped. A flow whose rate did not change
//! keeps its prediction — under a constant rate the predicted completion
//! instant is a fixed point, so steady traffic does not churn the queue.
//!
//! Everything is deterministic: links and flows are iterated in id order,
//! the queue breaks time ties by insertion sequence, and the arithmetic
//! performs the same operations in the same order for identical call
//! sequences.

use crate::queue::EventQueue;

/// Index of a link within a [`Network`].
pub type LinkId = usize;
/// Index of a flow within a [`Network`].
pub type FlowId = usize;

struct Link {
    capacity: f64,
}

struct Flow {
    path: Vec<LinkId>,
    remaining: f64,
    rate: f64,
    last_update: f64,
    gen: u64,
    done: bool,
}

/// Lifetime counters, exposed for the repro figures (`fig_scale`'s
/// `flows` column, pinned by doc-sync) and `benchmark/`'s
/// `netsim.flow_events_per_s` drive.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetworkStats {
    /// Flows ever started.
    pub flows_started: u64,
    /// Flows that ran to completion.
    pub flows_completed: u64,
    /// Completion events scheduled (including ones later invalidated).
    pub events_scheduled: u64,
    /// Completion events popped (valid + stale).
    pub events_processed: u64,
    /// Max-min rate recomputations performed.
    pub recomputes: u64,
}

impl std::ops::AddAssign for NetworkStats {
    fn add_assign(&mut self, o: Self) {
        self.flows_started += o.flows_started;
        self.flows_completed += o.flows_completed;
        self.events_scheduled += o.events_scheduled;
        self.events_processed += o.events_processed;
        self.recomputes += o.recomputes;
    }
}

/// A deterministic flow-level network with max-min fair sharing.
pub struct Network {
    links: Vec<Link>,
    flows: Vec<Flow>,
    /// Active flow ids, kept sorted — the deterministic iteration order
    /// for rate assignment.
    active: Vec<FlowId>,
    completions: EventQueue<(FlowId, u64)>,
    now: f64,
    stats: NetworkStats,
    /// Recompute scratch (persistent so a 1000-link fabric does not pay
    /// five allocations plus an all-links sweep per event): remaining
    /// capacity and active-flow count per link, valid only for links in
    /// `touched`; `at_min` holds round stamps; `fixed`/`new_rate` are
    /// indexed by position in `active`.
    scratch: Scratch,
}

#[derive(Default)]
struct Scratch {
    cap: Vec<f64>,
    cnt: Vec<u32>,
    at_min: Vec<u64>,
    touched: Vec<LinkId>,
    work: Vec<usize>,
    new_rate: Vec<f64>,
    round: u64,
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// An empty network at time zero.
    pub fn new() -> Self {
        Network {
            links: Vec::new(),
            flows: Vec::new(),
            active: Vec::new(),
            completions: EventQueue::new(),
            now: 0.0,
            stats: NetworkStats::default(),
            scratch: Scratch::default(),
        }
    }

    /// Adds a link of `capacity` bytes/s. Infinite capacity is allowed —
    /// such a link never bottlenecks anything (the flat fabric).
    ///
    /// # Panics
    /// Panics on a zero, negative, or NaN capacity.
    pub fn add_link(&mut self, capacity: f64) -> LinkId {
        assert!(capacity > 0.0, "link capacity must be positive");
        self.links.push(Link { capacity });
        self.links.len() - 1
    }

    /// Current simulation time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Lifetime counters.
    pub fn stats(&self) -> NetworkStats {
        self.stats
    }

    /// Number of flows still transferring.
    pub fn active_flows(&self) -> usize {
        self.active.len()
    }

    /// The current max-min rate of a flow (0 once complete).
    pub fn rate_of(&self, flow: FlowId) -> f64 {
        if self.flows[flow].done {
            0.0
        } else {
            self.flows[flow].rate
        }
    }

    /// Moves the clock forward to `t` (between events). `t` must not skip
    /// past a pending completion.
    pub fn sync_to(&mut self, t: f64) {
        assert!(
            t >= self.now - 1e-12,
            "clock cannot rewind: {t} < {}",
            self.now
        );
        if let Some(next) = self.next_completion_time() {
            assert!(
                t <= next + 1e-9,
                "sync_to({t}) would skip a completion at {next}"
            );
        }
        self.now = self.now.max(t);
    }

    /// Starts a flow of `bytes` over `path` at the current time and
    /// returns its id. Rates of all active flows are recomputed.
    ///
    /// # Panics
    /// Panics on an empty path or a non-positive byte count.
    pub fn start_flow(&mut self, path: Vec<LinkId>, bytes: f64) -> FlowId {
        assert!(!path.is_empty(), "a flow needs at least one link");
        assert!(bytes > 0.0, "a flow needs a positive byte count");
        debug_assert!(path.iter().all(|&l| l < self.links.len()));
        let id = self.flows.len();
        self.flows.push(Flow {
            path,
            remaining: bytes,
            rate: -1.0, // sentinel: always differs from the first real rate
            last_update: self.now,
            gen: 0,
            done: false,
        });
        self.active.push(id); // ids are increasing, so `active` stays sorted
        self.stats.flows_started += 1;
        self.recompute();
        id
    }

    /// The time of the next genuine flow completion, if any flows are
    /// active. Stale predictions are discarded on the way.
    pub fn next_completion_time(&mut self) -> Option<f64> {
        self.skim_stale();
        self.completions.peek_time()
    }

    /// Pops the next completion: advances the clock to it, retires the
    /// flow, recomputes the survivors' rates, and returns `(time, flow)`.
    pub fn pop_completion(&mut self) -> Option<(f64, FlowId)> {
        self.skim_stale();
        let ev = self.completions.pop()?;
        self.stats.events_processed += 1;
        let (flow, _) = ev.item;
        self.now = self.now.max(ev.time);
        let f = &mut self.flows[flow];
        f.done = true;
        f.remaining = 0.0;
        f.rate = 0.0;
        let pos = self
            .active
            .binary_search(&flow)
            .expect("completed flow was active");
        self.active.remove(pos);
        self.stats.flows_completed += 1;
        self.recompute();
        Some((ev.time, flow))
    }

    /// Drops queued completion events whose generation no longer matches
    /// their flow (the rate changed after they were scheduled).
    fn skim_stale(&mut self) {
        while let Some((_, &(flow, gen))) = self.completions.peek() {
            let f = &self.flows[flow];
            if !f.done && f.gen == gen {
                return;
            }
            self.completions.pop();
            self.stats.events_processed += 1;
        }
    }

    /// Progressive-filling max-min fair rate assignment over the active
    /// flows, rescheduling completion predictions for flows whose rate
    /// changed.
    ///
    /// Only links actually crossed by an active flow are visited (a link
    /// nobody uses cannot bottleneck anyone), and all working storage is
    /// persistent scratch — on a rack fabric with a thousand NICs this is
    /// what keeps per-event cost proportional to the *traffic*, not the
    /// topology.
    fn recompute(&mut self) {
        self.stats.recomputes += 1;
        if self.active.is_empty() {
            return;
        }
        let s = &mut self.scratch;
        s.cap.resize(self.links.len(), 0.0);
        s.cnt.resize(self.links.len(), 0);
        s.at_min.resize(self.links.len(), 0);
        s.touched.clear();
        for &fid in &self.active {
            for &l in &self.flows[fid].path {
                if s.cnt[l] == 0 {
                    s.cap[l] = self.links[l].capacity;
                    s.touched.push(l);
                }
                s.cnt[l] += 1;
            }
        }

        s.new_rate.clear();
        s.new_rate.resize(self.active.len(), f64::INFINITY);
        s.work.clear();
        s.work.extend(0..self.active.len());
        while !s.work.is_empty() {
            // The most contended link determines this round's share.
            // Links drained of flows are compacted out of `touched` as
            // rounds proceed, and fixed flows out of `work`, so total
            // round cost shrinks with progress instead of rescanning
            // everything every time.
            let mut share = f64::INFINITY;
            for &l in &s.touched {
                share = share.min(s.cap[l] / s.cnt[l] as f64);
            }
            if !share.is_finite() {
                // Every remaining flow crosses only infinite links.
                break;
            }
            // Freeze every unfixed flow crossing a link at exactly that
            // share (identical links produce identical f64 shares, so a
            // homogeneous tier resolves in one round). The at-min set is
            // stamped before any subtraction, so later flows in the same
            // round see the same snapshot.
            s.round += 1;
            let round = s.round;
            for &l in &s.touched {
                if s.cap[l] / s.cnt[l] as f64 == share {
                    s.at_min[l] = round;
                }
            }
            let before = s.work.len();
            let mut work = std::mem::take(&mut s.work);
            work.retain(|&i| {
                let fid = self.active[i];
                if !self.flows[fid].path.iter().any(|&l| s.at_min[l] == round) {
                    return true;
                }
                s.new_rate[i] = share;
                for &l in &self.flows[fid].path {
                    s.cap[l] = (s.cap[l] - share).max(0.0);
                    s.cnt[l] -= 1;
                }
                false
            });
            s.work = work;
            let mut touched = std::mem::take(&mut s.touched);
            touched.retain(|&l| s.cnt[l] > 0);
            s.touched = touched;
            debug_assert!(
                s.work.len() < before,
                "each round must fix at least one flow"
            );
            if s.work.len() == before {
                break;
            }
        }

        // Apply: only flows whose rate changed get touched — a constant
        // rate keeps its completion prediction valid, so steady flows do
        // not churn the event queue.
        for (i, &fid) in self.active.iter().enumerate() {
            let new_rate = self.scratch.new_rate[i];
            let f = &mut self.flows[fid];
            if f.rate == new_rate {
                continue;
            }
            if f.rate > 0.0 && f.rate.is_finite() {
                f.remaining = (f.remaining - f.rate * (self.now - f.last_update)).max(0.0);
            }
            f.last_update = self.now;
            f.rate = new_rate;
            f.gen += 1;
            let eta = if f.rate.is_finite() {
                self.now + f.remaining / f.rate
            } else {
                self.now
            };
            self.completions.push(eta, (fid, f.gen));
            self.stats.events_scheduled += 1;
        }
    }

    /// Runs the network until every flow has completed, returning the
    /// completions in order.
    pub fn drain(&mut self) -> Vec<(f64, FlowId)> {
        let mut out = Vec::with_capacity(self.active.len());
        while let Some(done) = self.pop_completion() {
            out.push(done);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_flow_runs_at_link_capacity() {
        let mut net = Network::new();
        let l = net.add_link(10.0);
        let f = net.start_flow(vec![l], 25.0);
        assert_eq!(net.rate_of(f), 10.0);
        let done = net.drain();
        assert_eq!(done.len(), 1);
        assert!((done[0].0 - 2.5).abs() < 1e-12);
    }

    #[test]
    fn two_flows_split_a_link_evenly() {
        let mut net = Network::new();
        let l = net.add_link(10.0);
        let a = net.start_flow(vec![l], 10.0);
        let b = net.start_flow(vec![l], 10.0);
        assert_eq!(net.rate_of(a), 5.0);
        assert_eq!(net.rate_of(b), 5.0);
        let done = net.drain();
        assert!((done[0].0 - 2.0).abs() < 1e-12);
        assert!((done[1].0 - 2.0).abs() < 1e-12);
        // Equal completion times resolve in flow-start order.
        assert_eq!((done[0].1, done[1].1), (a, b));
    }

    #[test]
    fn late_arrival_slows_then_releases_bandwidth() {
        let mut net = Network::new();
        let l = net.add_link(10.0);
        let a = net.start_flow(vec![l], 20.0); // alone: done at t=2
        net.sync_to(1.0);
        let b = net.start_flow(vec![l], 5.0); // shares 5/5 from t=1
        assert_eq!(net.rate_of(a), 5.0);
        let (tb, fb) = net.pop_completion().unwrap();
        assert_eq!(fb, b);
        assert!((tb - 2.0).abs() < 1e-12, "5 bytes at rate 5 from t=1");
        // A had 10 left at t=1, ran at 5 until t=2 (5 left), then back to 10.
        assert_eq!(net.rate_of(a), 10.0);
        let (ta, fa) = net.pop_completion().unwrap();
        assert_eq!(fa, a);
        assert!((ta - 2.5).abs() < 1e-12);
    }

    #[test]
    fn max_min_redistributes_headroom() {
        // f1 on L1 only; f2 on L1+L2; f3 on L2 only. L2 (cap 2) is the
        // bottleneck: f2 = f3 = 1. Max-min then gives f1 the L1 headroom:
        // 10 - 1 = 9 — a plain equal-share split would cap it at 5.
        let mut net = Network::new();
        let l1 = net.add_link(10.0);
        let l2 = net.add_link(2.0);
        let f1 = net.start_flow(vec![l1], 9.0);
        let f2 = net.start_flow(vec![l1, l2], 100.0);
        let f3 = net.start_flow(vec![l2], 100.0);
        assert_eq!(net.rate_of(f2), 1.0);
        assert_eq!(net.rate_of(f3), 1.0);
        assert_eq!(net.rate_of(f1), 9.0);
        let (t, f) = net.pop_completion().unwrap();
        assert_eq!(f, f1);
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn infinite_links_never_bottleneck() {
        let mut net = Network::new();
        let spine = net.add_link(f64::INFINITY);
        let nic = net.add_link(4.0);
        let f = net.start_flow(vec![spine, nic], 8.0);
        assert_eq!(net.rate_of(f), 4.0);
        let done = net.drain();
        assert!((done[0].0 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn oversubscribed_uplink_throttles_cross_rack_fetches() {
        // Four host NICs of 10 behind an uplink of 10 (oversub 4): each
        // cross-rack flow gets 2.5, not its NIC's 10.
        let mut net = Network::new();
        let uplink = net.add_link(10.0);
        let nics: Vec<LinkId> = (0..4).map(|_| net.add_link(10.0)).collect();
        let flows: Vec<FlowId> = nics
            .iter()
            .map(|&n| net.start_flow(vec![uplink, n], 25.0))
            .collect();
        for &f in &flows {
            assert_eq!(net.rate_of(f), 2.5);
        }
        let done = net.drain();
        assert!(done.iter().all(|&(t, _)| (t - 10.0).abs() < 1e-12));
    }

    #[test]
    fn identical_runs_produce_identical_completion_sequences() {
        let run = || {
            let mut net = Network::new();
            let links: Vec<LinkId> = (0..8).map(|i| net.add_link(5.0 + (i % 3) as f64)).collect();
            let mut out = Vec::new();
            for i in 0..50 {
                net.start_flow(
                    vec![links[i % 8], links[(i * 3 + 1) % 8]],
                    10.0 + (i % 7) as f64,
                );
                if i % 5 == 4 {
                    out.push(net.pop_completion().unwrap());
                }
            }
            out.extend(net.drain());
            out
        };
        let (a, b) = (run(), run());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.0.to_bits(), y.0.to_bits(), "bit-identical times");
            assert_eq!(x.1, y.1);
        }
    }

    #[test]
    fn steady_flows_do_not_churn_the_queue() {
        let mut net = Network::new();
        let l = net.add_link(10.0);
        net.start_flow(vec![l], 100.0);
        let scheduled = net.stats().events_scheduled;
        // Adding and completing a flow on an unrelated link must not
        // reschedule the steady flow.
        let l2 = net.add_link(10.0);
        net.start_flow(vec![l2], 1.0);
        net.pop_completion();
        assert_eq!(
            net.stats().events_scheduled,
            scheduled + 1,
            "only the new flow gets a prediction"
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        Network::new().add_link(0.0);
    }

    #[test]
    #[should_panic(expected = "at least one link")]
    fn empty_path_rejected() {
        let mut net = Network::new();
        net.start_flow(vec![], 1.0);
    }
}
