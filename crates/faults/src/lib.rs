//! Deterministic, seeded fault-injection plans.
//!
//! A [`FaultPlan`] describes every fault a run will suffer — per-task
//! failure probabilities, executor/node loss at a virtual time, slow-node
//! straggler multipliers, shuffle-block corruption — as a pure function of
//! a seed. The engine consults the plan at fixed, schedule-independent
//! decision points (stage id, task index, attempt number), so the same
//! plan injects the *same* faults regardless of worker count or host
//! timing: failure behaviour becomes as reproducible as the rest
//! of the virtual cluster.
//!
//! The plan carries no state. Every query ([`FaultPlan::attempts`],
//! [`FaultPlan::corrupt_chunk`]) derives its verdict by hashing the seed
//! with the query coordinates, so callers may ask in any order, from any
//! thread, and replays are exact. [`FaultCounters`] aggregates what the
//! recovery machinery actually did.

use numeric::XorShift64;

/// Loss of one node (executor + its local shuffle files) at a virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeLoss {
    /// Node index in the cluster spec.
    pub node: usize,
    /// Virtual time (seconds) at which the node dies. The engine applies
    /// the loss at the next stage boundary whose clock has passed `at`.
    pub at: f64,
}

/// A slow-node (straggler) event: from `at` on, `node` runs `factor`×
/// slower.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Straggler {
    /// Node index in the cluster spec.
    pub node: usize,
    /// Slowdown multiplier (≥ 1).
    pub factor: f64,
    /// Virtual time (seconds) at which the slowdown begins.
    pub at: f64,
}

/// A deterministic, seeded fault-injection plan.
///
/// Parsed from a small line-based text format (see [`FaultPlan::from_text`])
/// or built directly. [`FaultPlan::default`] is inert: no failures, no
/// events — running under it is bit-identical to running without a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every probabilistic draw. Same seed ⇒ same injected faults.
    pub seed: u64,
    /// Per-attempt probability that a task attempt fails, in `[0, 1)`.
    pub task_fail_prob: f64,
    /// Retry budget per task. A task makes at most `max_task_retries + 1`
    /// attempts; the final attempt succeeds deterministically so jobs
    /// always complete (the recovery invariant requires results to exist).
    pub max_task_retries: u32,
    /// Base backoff (virtual seconds) before retry `k`, doubled each
    /// attempt: retry `k` waits `retry_backoff_s · 2^(k-1)`.
    pub retry_backoff_s: f64,
    /// Per-fetch-chunk probability that a shuffle block arrives corrupt
    /// and must be refetched, in `[0, 1)`.
    pub corrupt_prob: f64,
    /// Node-loss events.
    pub node_loss: Vec<NodeLoss>,
    /// Slow-node events.
    pub stragglers: Vec<Straggler>,
    /// Enable speculative re-execution with this straggler threshold
    /// multiplier (> 1): a task running longer than that many times the
    /// stage's median gets a backup copy on another node. It sits with
    /// the plan's other recovery policy (retry budget, backoff); the
    /// engine has no speculation setting of its own.
    pub speculation: Option<f64>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0x5EED_FA17,
            task_fail_prob: 0.0,
            max_task_retries: 3,
            retry_backoff_s: 0.25,
            corrupt_prob: 0.0,
            node_loss: Vec::new(),
            stragglers: Vec::new(),
            speculation: None,
        }
    }
}

/// Domain-separation tags so the per-purpose draw streams never collide.
const TAG_RETRY: u64 = 0x51;
const TAG_CORRUPT: u64 = 0x52;

/// One round of seed/coordinate mixing (splitmix-style).
fn mix(h: u64, v: u64) -> u64 {
    let x = h ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let x = x.rotate_left(27).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl FaultPlan {
    /// Parses the line-based plan format:
    ///
    /// ```text
    /// # comment
    /// seed 42
    /// task-fail-prob 0.05
    /// max-task-retries 3
    /// retry-backoff 0.25
    /// corrupt-prob 0.01
    /// lose-node 2 30.0          # node 2 dies at t=30s
    /// slow-node 1 4.0 10.0      # node 1 runs 4x slower from t=10s
    /// speculation 1.5
    /// ```
    ///
    /// Unknown keywords and malformed numbers are errors; unset keys keep
    /// their [`FaultPlan::default`] values.
    pub fn from_text(text: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split_whitespace();
            let key = parts.next().expect("non-empty line has a first token");
            let rest: Vec<&str> = parts.collect();
            let bad = |what: &str| format!("fault plan line {}: {what}: '{raw}'", lineno + 1);
            let num = |idx: usize, what: &str| -> Result<f64, String> {
                rest.get(idx)
                    .ok_or_else(|| bad(&format!("missing {what}")))?
                    .parse::<f64>()
                    .map_err(|_| bad(&format!("bad {what}")))
            };
            let int = |idx: usize, what: &str| -> Result<u64, String> {
                rest.get(idx)
                    .ok_or_else(|| bad(&format!("missing {what}")))?
                    .parse::<u64>()
                    .map_err(|_| bad(&format!("bad {what}")))
            };
            let arity = |n: usize| -> Result<(), String> {
                if rest.len() == n {
                    Ok(())
                } else {
                    Err(bad(&format!("expected {n} value(s) after '{key}'")))
                }
            };
            match key {
                "seed" => {
                    arity(1)?;
                    plan.seed = int(0, "seed")?;
                }
                "task-fail-prob" => {
                    arity(1)?;
                    plan.task_fail_prob = num(0, "probability")?;
                }
                "max-task-retries" => {
                    arity(1)?;
                    plan.max_task_retries =
                        rest[0].parse::<u32>().map_err(|_| bad("bad retry count"))?;
                }
                "retry-backoff" => {
                    arity(1)?;
                    plan.retry_backoff_s = num(0, "backoff seconds")?;
                }
                "corrupt-prob" => {
                    arity(1)?;
                    plan.corrupt_prob = num(0, "probability")?;
                }
                "lose-node" => {
                    arity(2)?;
                    plan.node_loss.push(NodeLoss {
                        node: int(0, "node id")? as usize,
                        at: num(1, "virtual time")?,
                    });
                }
                "slow-node" => {
                    arity(3)?;
                    plan.stragglers.push(Straggler {
                        node: int(0, "node id")? as usize,
                        factor: num(1, "slowdown factor")?,
                        at: num(2, "virtual time")?,
                    });
                }
                "speculation" => {
                    arity(1)?;
                    plan.speculation = Some(num(0, "multiplier")?);
                }
                other => return Err(bad(&format!("unknown keyword '{other}'"))),
            }
        }
        Ok(plan)
    }

    /// Renders the plan in the [`FaultPlan::from_text`] format.
    pub fn to_text(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!("seed {}\n", self.seed));
        s.push_str(&format!("task-fail-prob {}\n", self.task_fail_prob));
        s.push_str(&format!("max-task-retries {}\n", self.max_task_retries));
        s.push_str(&format!("retry-backoff {}\n", self.retry_backoff_s));
        s.push_str(&format!("corrupt-prob {}\n", self.corrupt_prob));
        for l in &self.node_loss {
            s.push_str(&format!("lose-node {} {}\n", l.node, l.at));
        }
        for st in &self.stragglers {
            s.push_str(&format!("slow-node {} {} {}\n", st.node, st.factor, st.at));
        }
        if let Some(m) = self.speculation {
            s.push_str(&format!("speculation {m}\n"));
        }
        s
    }

    /// Checks the plan against a cluster of `num_nodes` nodes.
    pub fn validate(&self, num_nodes: usize) -> Result<(), String> {
        let prob = |p: f64, what: &str| {
            if (0.0..1.0).contains(&p) {
                Ok(())
            } else {
                Err(format!("fault plan: {what} must be in [0, 1), got {p}"))
            }
        };
        prob(self.task_fail_prob, "task-fail-prob")?;
        prob(self.corrupt_prob, "corrupt-prob")?;
        // NaN fails every check below on purpose: a plan with a NaN knob
        // must be rejected, not silently treated as zero.
        if self.retry_backoff_s.is_nan() || self.retry_backoff_s < 0.0 {
            return Err(format!(
                "fault plan: retry-backoff must be >= 0, got {}",
                self.retry_backoff_s
            ));
        }
        for l in &self.node_loss {
            if l.node >= num_nodes {
                return Err(format!(
                    "fault plan: lose-node {} out of range (cluster has {num_nodes} nodes)",
                    l.node
                ));
            }
            if l.at.is_nan() || l.at < 0.0 {
                return Err(format!(
                    "fault plan: lose-node time must be >= 0, got {}",
                    l.at
                ));
            }
        }
        let mut lost: Vec<usize> = self.node_loss.iter().map(|l| l.node).collect();
        lost.sort_unstable();
        lost.dedup();
        if lost.len() >= num_nodes {
            return Err(format!(
                "fault plan: losing all {num_nodes} nodes leaves no survivor to recover on"
            ));
        }
        for s in &self.stragglers {
            if s.node >= num_nodes {
                return Err(format!(
                    "fault plan: slow-node {} out of range (cluster has {num_nodes} nodes)",
                    s.node
                ));
            }
            if s.factor.is_nan() || s.factor < 1.0 {
                return Err(format!(
                    "fault plan: slow-node factor must be >= 1, got {}",
                    s.factor
                ));
            }
            if s.at.is_nan() || s.at < 0.0 {
                return Err(format!(
                    "fault plan: slow-node time must be >= 0, got {}",
                    s.at
                ));
            }
        }
        if let Some(m) = self.speculation {
            if m.is_nan() || m <= 1.0 {
                return Err(format!(
                    "fault plan: speculation multiplier must be > 1, got {m}"
                ));
            }
        }
        Ok(())
    }

    /// Uniform draw in `[0, 1)` for the given coordinates.
    fn draw(&self, tag: u64, a: u64, b: u64, c: u64) -> f64 {
        let state = mix(mix(mix(mix(self.seed, tag), a), b), c);
        XorShift64::new(state).next_f64()
    }

    /// Number of attempts task `task` of stage `stage` makes before
    /// succeeding: `1 + consecutive failed draws`, capped at
    /// `max_task_retries + 1` (the final attempt succeeds
    /// deterministically, so every task completes).
    pub fn attempts(&self, stage: u64, task: u64) -> u32 {
        if self.task_fail_prob <= 0.0 {
            return 1;
        }
        let mut attempts = 1u32;
        while attempts <= self.max_task_retries
            && self.draw(TAG_RETRY, stage, task, attempts as u64) < self.task_fail_prob
        {
            attempts += 1;
        }
        attempts
    }

    /// Total backoff (virtual seconds) a task waited after `failures`
    /// failed attempts: `retry_backoff_s · (2^failures − 1)`.
    pub fn backoff(&self, failures: u32) -> f64 {
        if failures == 0 {
            return 0.0;
        }
        self.retry_backoff_s * ((1u64 << failures.min(62)) - 1) as f64
    }

    /// Whether fetch chunk `chunk` of task `task` in stage `stage` arrives
    /// corrupt and must be refetched.
    pub fn corrupt_chunk(&self, stage: u64, task: u64, chunk: u64) -> bool {
        self.corrupt_prob > 0.0 && self.draw(TAG_CORRUPT, stage, task, chunk) < self.corrupt_prob
    }
}

/// What the recovery machinery actually did over a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultCounters {
    /// Task attempts that failed (every failure triggers a retry).
    pub injected_failures: u64,
    /// Tasks that needed at least one retry.
    pub retried_tasks: u64,
    /// Tasks that exhausted the retry budget (final attempt forced
    /// through deterministically).
    pub exhausted_retries: u64,
    /// Total virtual backoff charged to retried tasks, in seconds.
    pub backoff_s: f64,
    /// Nodes lost to `lose-node` events.
    pub nodes_lost: u64,
    /// Slow-node events applied.
    pub stragglers_applied: u64,
    /// Lost shuffle map outputs recomputed through lineage.
    pub recomputed_map_tasks: u64,
    /// Cached partitions re-homed to a surviving replica holder.
    pub replica_rehomed_partitions: u64,
    /// Bytes read back from replicas while re-homing.
    pub replica_read_bytes: u64,
    /// Corrupt shuffle chunks detected and refetched.
    pub corrupt_chunks: u64,
    /// Bytes refetched due to corruption.
    pub refetched_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(prob: f64) -> FaultPlan {
        FaultPlan {
            seed: 7,
            task_fail_prob: prob,
            ..FaultPlan::default()
        }
    }

    #[test]
    fn default_plan_is_inert() {
        assert_eq!(FaultPlan::default().attempts(3, 9), 1);
        assert!(!FaultPlan::default().corrupt_chunk(3, 9, 0));
    }

    #[test]
    fn text_round_trips() {
        let p = FaultPlan {
            seed: 99,
            task_fail_prob: 0.05,
            max_task_retries: 2,
            retry_backoff_s: 0.5,
            corrupt_prob: 0.01,
            node_loss: vec![NodeLoss { node: 2, at: 30.0 }],
            stragglers: vec![Straggler {
                node: 1,
                factor: 4.0,
                at: 10.0,
            }],
            speculation: Some(1.5),
        };
        assert_eq!(FaultPlan::from_text(&p.to_text()), Ok(p));
    }

    #[test]
    fn parser_ignores_comments_and_blank_lines() {
        let p = FaultPlan::from_text("# a comment\n\nseed 5   # trailing\n").unwrap();
        let only_the_seed = FaultPlan {
            seed: 5,
            ..FaultPlan::default()
        };
        assert_eq!(p, only_the_seed);
    }

    #[test]
    fn parser_rejects_unknown_keyword_and_bad_numbers() {
        assert!(FaultPlan::from_text("frobnicate 1").is_err());
        assert!(FaultPlan::from_text("seed banana").is_err());
        assert!(FaultPlan::from_text("lose-node 1").is_err());
        assert!(FaultPlan::from_text("slow-node 1 2.0").is_err());
        assert!(FaultPlan::from_text("seed 1 2").is_err());
    }

    /// A retry count past `u32::MAX` is an error, not a wrapped count.
    #[test]
    fn parser_rejects_a_retry_count_past_u32() {
        let plan = FaultPlan::from_text("max-task-retries 4294967295").expect("u32::MAX");
        assert_eq!(plan.max_task_retries, u32::MAX);
        let err = FaultPlan::from_text("max-task-retries 4294967296").unwrap_err();
        assert!(err.contains("bad retry count"), "{err}");
    }

    #[test]
    fn validate_catches_bad_plans() {
        let mut p = plan(1.5);
        assert!(p.validate(3).is_err(), "probability >= 1");
        p.task_fail_prob = 0.1;
        p.node_loss.push(NodeLoss { node: 3, at: 1.0 });
        assert!(p.validate(3).is_err(), "node out of range");
        p.node_loss.clear();
        for n in 0..3 {
            p.node_loss.push(NodeLoss { node: n, at: 1.0 });
        }
        assert!(p.validate(3).is_err(), "losing every node");
        p.node_loss.truncate(1);
        p.stragglers.push(Straggler {
            node: 0,
            factor: 0.5,
            at: 0.0,
        });
        assert!(p.validate(3).is_err(), "slowdown factor < 1");
        p.stragglers[0].factor = 2.0;
        assert!(p.validate(3).is_ok());
        p.speculation = Some(1.0);
        assert!(p.validate(3).is_err(), "speculation multiplier must be > 1");
    }

    #[test]
    fn draws_are_deterministic_and_order_free() {
        let p = plan(0.3);
        let a: Vec<u32> = (0..64).map(|t| p.attempts(5, t)).collect();
        let b: Vec<u32> = (0..64).rev().map(|t| p.attempts(5, t)).collect();
        let b: Vec<u32> = b.into_iter().rev().collect();
        assert_eq!(a, b);
        assert_eq!(
            a,
            (0..64)
                .map(|t| plan(0.3).attempts(5, t))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<u32> = (0..256).map(|t| plan(0.3).attempts(1, t)).collect();
        let b: Vec<u32> = (0..256)
            .map(|t| {
                FaultPlan {
                    seed: 8,
                    ..plan(0.3)
                }
                .attempts(1, t)
            })
            .collect();
        assert_ne!(a, b, "seed must steer the draws");
    }

    #[test]
    fn attempts_respect_the_cap() {
        // With failure probability ~1 every draw fails; the cap must hold.
        let p = FaultPlan {
            task_fail_prob: 0.999_999,
            max_task_retries: 4,
            ..plan(0.0)
        };
        for t in 0..128 {
            assert_eq!(p.attempts(0, t), 5);
        }
    }

    #[test]
    fn failure_rate_tracks_probability() {
        let p = plan(0.25);
        let retried = (0..4000).filter(|&t| p.attempts(9, t) > 1).count();
        let rate = retried as f64 / 4000.0;
        assert!(
            (rate - 0.25).abs() < 0.03,
            "empirical first-attempt failure rate {rate} far from 0.25"
        );
    }

    #[test]
    fn backoff_doubles_per_retry() {
        let p = FaultPlan {
            retry_backoff_s: 0.25,
            ..FaultPlan::default()
        };
        assert_eq!(p.backoff(0), 0.0);
        assert_eq!(p.backoff(1), 0.25);
        assert_eq!(p.backoff(2), 0.75);
        assert_eq!(p.backoff(3), 1.75);
    }

    #[test]
    fn corruption_draws_are_chunk_granular() {
        let p = FaultPlan {
            corrupt_prob: 0.5,
            ..plan(0.0)
        };
        let hits = (0..256).filter(|&c| p.corrupt_chunk(2, 3, c)).count();
        assert!(
            hits > 64 && hits < 192,
            "corruption rate wildly off: {hits}/256"
        );
        // Deterministic replay.
        assert_eq!(
            (0..256)
                .map(|c| p.corrupt_chunk(2, 3, c))
                .collect::<Vec<_>>(),
            (0..256)
                .map(|c| p.corrupt_chunk(2, 3, c))
                .collect::<Vec<_>>()
        );
    }
}
