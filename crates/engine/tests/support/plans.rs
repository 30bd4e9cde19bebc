//! The one generator of fault plans. `workloads/tests/fault_equivalence.rs`
//! includes this file by path, so a plan shape added here is drawn there
//! too.

use engine::{FaultPlan, NodeLoss, Straggler};
use proptest::prelude::*;

/// A plan that is valid on a 3-node cluster whatever is drawn: at most
/// two `lose-node` events, so a node always survives. Event times are
/// fractions of a run — 0 is "before the first stage" — for the test to
/// scale by the plan-free run's length.
pub fn arb_plan() -> impl Strategy<Value = FaultPlan> {
    let when = || prop_oneof![Just(0.0), 0.0f64..1.0];
    let prob = || prop_oneof![Just(0.0), 0.0f64..0.2];
    (
        any::<u64>(),
        prob(),
        prob(),
        proptest::collection::vec((0usize..3, when()), 0..3),
        proptest::collection::vec((0usize..3, 1.0f64..6.0, when()), 0..3),
        proptest::option::of(1.1f64..3.0),
    )
        .prop_map(
            |(seed, task_fail_prob, corrupt_prob, losses, slows, speculation)| FaultPlan {
                seed,
                task_fail_prob,
                corrupt_prob,
                node_loss: losses
                    .into_iter()
                    .map(|(node, at)| NodeLoss { node, at })
                    .collect(),
                stragglers: slows
                    .into_iter()
                    .map(|(node, factor, at)| Straggler { node, factor, at })
                    .collect(),
                speculation,
                ..FaultPlan::default()
            },
        )
}
