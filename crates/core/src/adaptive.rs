//! No effect: the between-job re-planner's names, kept for the frozen
//! `benchmark/` until ROADMAP item 4a. Skew is the chosen partitioner's
//! and P's alone.

use engine::{ReplanInput, WorkloadConf};

/// No effect. Kept for the frozen `benchmark/` until ROADMAP item 4a.
#[derive(Debug, Clone, Default)]
pub struct ReplanOptions;

/// No effect: there is no [`ReplanInput`] to call it with. Kept for the
/// frozen `benchmark/` until ROADMAP item 4a.
pub fn replan(input: &ReplanInput, _: &ReplanOptions) -> Option<WorkloadConf> {
    match *input {}
}
