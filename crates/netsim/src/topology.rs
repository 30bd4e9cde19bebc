//! Hierarchical cluster topology descriptions.
//!
//! Two shapes cover the repo's needs:
//!
//! * [`Topology::Flat`] — the default: every NIC hangs off a
//!   non-blocking fabric. It is the one-rack case of the shape below
//!   (`num_racks() == 1`, `rack_of() == 0`, infinite uplinks), and
//!   simulates identically to `rack:1x<nodes>:1`.
//! * [`Topology::Rack`] — a two-tier leaf/spine: hosts are grouped into
//!   racks of `hosts` machines behind a ToR switch whose uplink into the
//!   (non-blocking) spine carries `hosts × NIC / oversub` in each
//!   direction. `oversub` is the usual oversubscription factor: 1.0 is a
//!   full-bisection fabric, 4.0 means four hosts' worth of traffic
//!   compete for one host's worth of core bandwidth.
//!
//! The textual form is the CLI syntax: `flat` or
//! `rack:<racks>x<hosts>[:oversub]`, e.g. `rack:8x12:4`. Parsing is
//! strict — malformed specs are rejected with a message naming the
//! offending part, so a typo dies at argument-parse time rather than
//! producing a silently flat cluster.

use serde::{Deserialize, Json, Serialize};
use std::fmt;
use std::str::FromStr;

/// A cluster network topology.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub enum Topology {
    /// Non-blocking fabric: NICs are the only constraint.
    #[default]
    Flat,
    /// Two-tier leaf/spine with oversubscribed rack uplinks.
    Rack {
        /// Number of racks.
        racks: usize,
        /// Hosts per rack.
        hosts: usize,
        /// Oversubscription factor (≥ 1.0): the rack uplink carries
        /// `hosts × NIC / oversub` each way.
        oversub: f64,
    },
}

/// Why a topology spec string failed to parse.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyParseError(pub String);

impl fmt::Display for TopologyParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bad topology spec: {} (expected `flat` or `rack:<racks>x<hosts>[:oversub]`)",
            self.0
        )
    }
}

impl std::error::Error for TopologyParseError {}

impl FromStr for Topology {
    type Err = TopologyParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s == "flat" {
            return Ok(Topology::Flat);
        }
        let Some(rest) = s.strip_prefix("rack:") else {
            return Err(TopologyParseError(format!("unknown topology '{s}'")));
        };
        let (grid, oversub) = match rest.split_once(':') {
            None => (rest, 1.0),
            Some((grid, o)) => {
                let oversub: f64 = o
                    .parse()
                    .map_err(|_| TopologyParseError(format!("oversub '{o}' is not a number")))?;
                if !oversub.is_finite() || oversub < 1.0 {
                    return Err(TopologyParseError(format!(
                        "oversub must be a finite factor >= 1, got '{o}'"
                    )));
                }
                (grid, oversub)
            }
        };
        let Some((r, h)) = grid.split_once('x') else {
            return Err(TopologyParseError(format!(
                "'{grid}' is not of the form <racks>x<hosts>"
            )));
        };
        let racks: usize = r
            .parse()
            .map_err(|_| TopologyParseError(format!("rack count '{r}' is not an integer")))?;
        let hosts: usize = h
            .parse()
            .map_err(|_| TopologyParseError(format!("host count '{h}' is not an integer")))?;
        if racks == 0 || hosts == 0 {
            return Err(TopologyParseError(format!(
                "rack grid {racks}x{hosts} must be at least 1x1"
            )));
        }
        Ok(Topology::Rack {
            racks,
            hosts,
            oversub,
        })
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Topology::Flat => write!(f, "flat"),
            Topology::Rack {
                racks,
                hosts,
                oversub,
            } => write!(f, "rack:{racks}x{hosts}:{oversub}"),
        }
    }
}

// The spec is carried inside `ClusterSpec` JSON as its textual form; the
// vendored serde derive only handles named-field structs and fieldless
// enums, and the string form round-trips exactly (usize and a `{}`-printed
// f64 both reparse to the same value).
impl Serialize for Topology {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl Deserialize for Topology {
    fn from_json(v: &Json) -> Result<Self, serde::Error> {
        match v {
            Json::Str(s) => s.parse().map_err(|e: TopologyParseError| serde::Error(e.0)),
            other => Err(serde::Error::expected("topology string", other)),
        }
    }
}

impl Topology {
    /// Number of racks (1 for flat).
    pub fn num_racks(&self) -> usize {
        match self {
            Topology::Flat => 1,
            Topology::Rack { racks, .. } => *racks,
        }
    }

    /// The rack a node lives in: nodes fill racks in id order.
    pub fn rack_of(&self, node: usize) -> usize {
        match self {
            Topology::Flat => 0,
            Topology::Rack { racks, hosts, .. } => (node / hosts).min(racks - 1),
        }
    }

    /// Whether the rack grid has room for `nodes` hosts.
    pub fn covers(&self, nodes: usize) -> bool {
        match self {
            Topology::Flat => true,
            Topology::Rack { racks, hosts, .. } => racks.saturating_mul(*hosts) >= nodes,
        }
    }

    /// Capacity of one rack's uplink (and downlink) in bytes/s, given the
    /// per-host NIC bandwidth.
    pub fn uplink_capacity(&self, nic_bandwidth: f64) -> f64 {
        match self {
            Topology::Flat => f64::INFINITY,
            Topology::Rack { hosts, oversub, .. } => *hosts as f64 * nic_bandwidth / oversub,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_and_rack_forms() {
        assert_eq!("flat".parse::<Topology>().unwrap(), Topology::Flat);
        assert_eq!(
            "rack:8x12".parse::<Topology>().unwrap(),
            Topology::Rack {
                racks: 8,
                hosts: 12,
                oversub: 1.0
            }
        );
        assert_eq!(
            "rack:25x40:4.5".parse::<Topology>().unwrap(),
            Topology::Rack {
                racks: 25,
                hosts: 40,
                oversub: 4.5
            }
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        for bad in [
            "",
            "Flat",
            "rack",
            "rack:",
            "rack:8",
            "rack:x12",
            "rack:8x",
            "rack:0x4",
            "rack:4x0",
            "rack:ax4",
            "rack:4xb",
            "rack:8x12:",
            "rack:8x12:zero",
            "rack:8x12:0.5",
            "rack:8x12:-1",
            "rack:8x12:inf",
            "mesh:4x4",
        ] {
            assert!(bad.parse::<Topology>().is_err(), "'{bad}' must be rejected");
        }
    }

    #[test]
    fn display_round_trips() {
        for t in [
            Topology::Flat,
            Topology::Rack {
                racks: 8,
                hosts: 12,
                oversub: 4.0,
            },
            Topology::Rack {
                racks: 25,
                hosts: 40,
                oversub: 2.5,
            },
        ] {
            assert_eq!(t.to_string().parse::<Topology>().unwrap(), t);
        }
    }

    #[test]
    fn serde_round_trips_through_string_form() {
        let t = Topology::Rack {
            racks: 3,
            hosts: 2,
            oversub: 4.0,
        };
        assert_eq!(Topology::from_json(&t.to_json()).unwrap(), t);
        assert!(Topology::from_json(&Json::Int(3)).is_err());
    }

    #[test]
    fn rack_membership_fills_in_id_order() {
        let t = Topology::Rack {
            racks: 3,
            hosts: 2,
            oversub: 1.0,
        };
        assert_eq!(t.rack_of(0), 0);
        assert_eq!(t.rack_of(1), 0);
        assert_eq!(t.rack_of(2), 1);
        assert_eq!(t.rack_of(5), 2);
        // Nodes past the grid clamp into the last rack rather than index
        // out of range — `covers` is the caller's guard.
        assert_eq!(t.rack_of(7), 2);
        assert!(t.covers(6));
        assert!(!t.covers(7));
        assert!(Topology::Flat.covers(10_000));
    }

    #[test]
    fn uplink_capacity_applies_oversubscription() {
        let t = Topology::Rack {
            racks: 8,
            hosts: 12,
            oversub: 4.0,
        };
        let nic = 1.25e9;
        assert!((t.uplink_capacity(nic) - 12.0 * nic / 4.0).abs() < 1e-6);
        assert!(Topology::Flat.uplink_capacity(nic).is_infinite());
    }
}
