//! The per-workload stage-partitioning configuration file (paper Fig. 6).
//!
//! CHOPPER's framework hook: a configuration artifact mapping *stage
//! signatures* to `(partitioner, number of partitions)` tuples, which the
//! scheduler consults before launching each stage. The engine resolves every
//! shuffle's scheme (and every auto-partitioned source's split count)
//! against this table, so CHOPPER can retune a workload without the program
//! being recompiled — the exact capability Section III-A adds to Spark.
//!
//! Entries can also request an *inserted repartition phase* after a stage
//! (Algorithm 3's remedy when a user-fixed scheme cannot be changed).
//!
//! A small text format mirrors the paper's example file:
//!
//! ```text
//! # workload: kmeans
//! default 300
//! stage 1a2b3c4d5e6f7788 hash 210
//! stage 8899aabbccddeeff range 720
//! repartition 1122334455667788 hash 64
//! ```

use crate::partitioner::{PartitionerKind, PartitionerSpec};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Per-workload partitioning configuration.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WorkloadConf {
    /// Scheme overrides keyed by stage signature.
    pub stages: HashMap<u64, PartitionerSpec>,
    /// Repartition phases to insert *after* the RDD with this signature
    /// (applied by workload builders via the engine's insertion hook).
    pub insert_repartition: HashMap<u64, PartitionerSpec>,
    /// Override of the engine's default parallelism.
    pub default_parallelism: Option<usize>,
    /// Allow configuration entries to override user-fixed schemes. Never
    /// set in production configurations (CHOPPER "leaves the user
    /// optimization intact"), but CHOPPER's own sandboxed test runs set it
    /// so fixed stages can be probed at varied partition counts — without
    /// which their models have no P-signal and Algorithm 3's repartition
    /// insertion could never fire.
    #[serde(default)]
    pub override_user_fixed: bool,
}

impl WorkloadConf {
    /// An empty configuration (vanilla behaviour).
    pub fn new() -> Self {
        WorkloadConf::default()
    }

    /// Adds a stage scheme entry.
    pub fn set_stage(&mut self, signature: u64, scheme: PartitionerSpec) -> &mut Self {
        self.stages.insert(signature, scheme);
        self
    }

    /// Adds a repartition-insertion entry.
    pub fn set_repartition(&mut self, signature: u64, scheme: PartitionerSpec) -> &mut Self {
        self.insert_repartition.insert(signature, scheme);
        self
    }

    /// Looks up the scheme for a stage signature.
    pub fn stage_scheme(&self, signature: u64) -> Option<PartitionerSpec> {
        self.stages.get(&signature).copied()
    }

    /// Looks up a repartition insertion for an RDD signature.
    pub fn repartition_after(&self, signature: u64) -> Option<PartitionerSpec> {
        self.insert_repartition.get(&signature).copied()
    }

    /// Whether the configuration is empty (no effect on execution).
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
            && self.insert_repartition.is_empty()
            && self.default_parallelism.is_none()
            && !self.override_user_fixed
    }

    /// Serializes to the Fig. 6-style text format.
    pub fn to_text(&self) -> String {
        let mut out = String::from("# CHOPPER workload configuration\n");
        if let Some(d) = self.default_parallelism {
            out.push_str(&format!("default {d}\n"));
        }
        if self.override_user_fixed {
            out.push_str("override-fixed\n");
        }
        let mut stages: Vec<_> = self.stages.iter().collect();
        stages.sort_by_key(|(sig, _)| **sig);
        for (sig, scheme) in stages {
            out.push_str(&format!(
                "stage {sig:016x} {} {}\n",
                scheme.kind, scheme.partitions
            ));
        }
        let mut reparts: Vec<_> = self.insert_repartition.iter().collect();
        reparts.sort_by_key(|(sig, _)| **sig);
        for (sig, scheme) in reparts {
            out.push_str(&format!(
                "repartition {sig:016x} {} {}\n",
                scheme.kind, scheme.partitions
            ));
        }
        out
    }

    /// Parses the text format produced by [`WorkloadConf::to_text`].
    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut conf = WorkloadConf::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let verb = parts.next().expect("non-empty line has a first token");
            let err = |msg: &str| format!("line {}: {msg}: {raw}", lineno + 1);
            match verb {
                "override-fixed" => {
                    conf.override_user_fixed = true;
                }
                "default" => {
                    let n: usize = parts
                        .next()
                        .ok_or_else(|| err("missing value"))?
                        .parse()
                        .map_err(|_| err("bad number"))?;
                    if n == 0 {
                        return Err(err("default parallelism must be positive"));
                    }
                    conf.default_parallelism = Some(n);
                }
                "stage" | "repartition" => {
                    let sig = u64::from_str_radix(
                        parts.next().ok_or_else(|| err("missing signature"))?,
                        16,
                    )
                    .map_err(|_| err("bad signature"))?;
                    let kind: PartitionerKind = parts
                        .next()
                        .ok_or_else(|| err("missing partitioner"))?
                        .parse()
                        .map_err(|e: String| err(&e))?;
                    let partitions: usize = parts
                        .next()
                        .ok_or_else(|| err("missing partition count"))?
                        .parse()
                        .map_err(|_| err("bad partition count"))?;
                    if partitions == 0 {
                        return Err(err("partition count must be positive"));
                    }
                    let scheme = PartitionerSpec { kind, partitions };
                    if verb == "stage" {
                        conf.stages.insert(sig, scheme);
                    } else {
                        conf.insert_repartition.insert(sig, scheme);
                    }
                }
                other => return Err(err(&format!("unknown directive '{other}'"))),
            }
            if parts.next().is_some() {
                return Err(err("trailing tokens"));
            }
        }
        Ok(conf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_through_text() {
        let mut c = WorkloadConf::new();
        c.default_parallelism = Some(300);
        c.set_stage(0x1a2b, PartitionerSpec::hash(210));
        c.set_stage(0xffee, PartitionerSpec::range(720));
        c.set_repartition(0x77, PartitionerSpec::hash(64));
        let text = c.to_text();
        let back = WorkloadConf::from_text(&text).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn parses_paper_style_example() {
        let text = "\
# workload: kmeans
default 300
stage 00000000000001ab hash 210
stage 00000000000001cd range 720
repartition 00000000000001ef hash 100
";
        let c = WorkloadConf::from_text(text).unwrap();
        assert_eq!(c.default_parallelism, Some(300));
        assert_eq!(c.stage_scheme(0x1ab), Some(PartitionerSpec::hash(210)));
        assert_eq!(c.stage_scheme(0x1cd), Some(PartitionerSpec::range(720)));
        assert_eq!(c.repartition_after(0x1ef), Some(PartitionerSpec::hash(100)));
        assert_eq!(c.stage_scheme(0x999), None);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let c = WorkloadConf::from_text("\n# hi\n\n").unwrap();
        assert!(c.is_empty());
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(WorkloadConf::from_text("stage zz hash 10").is_err());
        assert!(WorkloadConf::from_text("stage 10 zebra 10").is_err());
        assert!(WorkloadConf::from_text("stage 10 hash").is_err());
        assert!(WorkloadConf::from_text("stage 10 hash 0").is_err());
        assert!(WorkloadConf::from_text("default 0").is_err());
        assert!(WorkloadConf::from_text("frobnicate 1").is_err());
        assert!(WorkloadConf::from_text("default 10 extra").is_err());
    }

    #[test]
    fn serde_json_roundtrip() {
        let mut c = WorkloadConf::new();
        c.set_stage(42, PartitionerSpec::range(16));
        let json = serde_json::to_string(&c).unwrap();
        let back: WorkloadConf = serde_json::from_str(&json).unwrap();
        assert_eq!(back, c);
    }

    #[test]
    fn empty_conf_is_empty() {
        assert!(WorkloadConf::new().is_empty());
        let mut c = WorkloadConf::new();
        c.default_parallelism = Some(1);
        assert!(!c.is_empty());
    }
}
