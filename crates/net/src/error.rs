//! Error type for network-model construction and queries.

use std::error::Error;
use std::fmt;

/// Errors produced while building or querying the network model.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NetError {
    /// An IEEE 802.15.4 channel number outside the 2.4 GHz band (11..=26).
    InvalidChannel(u8),
    /// A channel range with `first > last` or outside the band.
    InvalidChannelRange {
        /// First channel requested.
        first: u8,
        /// Last channel requested.
        last: u8,
    },
    /// A PRR value outside `[0.0, 1.0]` (or NaN).
    InvalidPrr(f64),
    /// A node index beyond the topology size.
    UnknownNode(usize),
    /// A channel that the topology holds no measurements for.
    UnmeasuredChannel(u8),
    /// Route construction failed: destination unreachable on the
    /// communication graph.
    Unreachable {
        /// Route source.
        from: usize,
        /// Route destination.
        to: usize,
    },
    /// The topology has no nodes, or too few for the requested operation.
    TooFewNodes {
        /// Nodes required.
        required: usize,
        /// Nodes present.
        present: usize,
    },
    /// A plant configuration without buildings, floors, or nodes per floor.
    DegeneratePlant {
        /// What the configuration lacks.
        reason: &'static str,
    },
    /// A plant configuration with more nodes than node ids exist.
    PlantTooLarge {
        /// Nodes configured (saturating at `usize::MAX`).
        nodes: usize,
        /// Size of the node id space.
        limit: usize,
    },
    /// No candidate plant had a connected communication graph.
    DisconnectedPlant {
        /// Name of the plant configuration.
        name: String,
        /// Candidates drawn.
        attempts: u32,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::InvalidChannel(c) => {
                write!(f, "channel {c} is outside the IEEE 802.15.4 2.4 GHz band (11..=26)")
            }
            NetError::InvalidChannelRange { first, last } => {
                write!(f, "invalid channel range {first}..={last}")
            }
            NetError::InvalidPrr(v) => write!(f, "PRR {v} is not within [0.0, 1.0]"),
            NetError::UnknownNode(i) => write!(f, "node index {i} is not in the topology"),
            NetError::UnmeasuredChannel(c) => {
                write!(f, "topology has no PRR measurements for channel {c}")
            }
            NetError::Unreachable { from, to } => {
                write!(f, "no route from node {from} to node {to} on the communication graph")
            }
            NetError::TooFewNodes { required, present } => {
                write!(f, "operation requires {required} nodes but topology has {present}")
            }
            NetError::DegeneratePlant { reason } => write!(f, "degenerate plant: {reason}"),
            NetError::PlantTooLarge { nodes, limit } => {
                write!(f, "plant of {nodes} nodes exceeds the {limit}-node id space")
            }
            NetError::DisconnectedPlant { name, attempts } => write!(
                f,
                "no connected communication graph after {attempts} attempts for plant \
                 '{name}'; the street grid is out of radio range"
            ),
        }
    }
}

impl Error for NetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = NetError::InvalidChannel(5);
        let msg = e.to_string();
        assert!(msg.contains('5'));
        assert!(msg.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<NetError>();
    }

    #[test]
    fn unreachable_display_names_both_endpoints() {
        let e = NetError::Unreachable { from: 3, to: 9 };
        let msg = e.to_string();
        assert!(msg.contains('3') && msg.contains('9'));
    }
}
