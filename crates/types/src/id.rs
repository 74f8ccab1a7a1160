//! Opaque identifiers for nodes, volatile groups, broadcasts and walks.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a single node (one participant process) in the system.
///
/// Node identifiers are assigned by the application when the node is created
/// (in a deployment they would be derived from the node's public key; in the
/// simulator they are dense integers so they can double as vector indices).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct NodeId(u64);

impl NodeId {
    /// Creates a node identifier from a raw integer.
    pub const fn new(raw: u64) -> Self {
        NodeId(raw)
    }

    /// Returns the raw integer value.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the identifier as a `usize` index (useful for dense vectors in
    /// the simulator).
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u64> for NodeId {
    fn from(raw: u64) -> Self {
        NodeId(raw)
    }
}

/// Identifier of a volatile group (vgroup).
///
/// Vgroup identifiers are unique over the lifetime of a system instance: a
/// split creates a fresh identifier for the new group, and a merge retires
/// the identifier of the dissolved group.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct VgroupId(u64);

impl VgroupId {
    /// Creates a vgroup identifier from a raw integer.
    pub const fn new(raw: u64) -> Self {
        VgroupId(raw)
    }

    /// Returns the raw integer value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for VgroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}", self.0)
    }
}

impl From<u64> for VgroupId {
    fn from(raw: u64) -> Self {
        VgroupId(raw)
    }
}

/// Identifier of an application-level broadcast: the originating node plus a
/// per-origin sequence number.
///
/// Broadcast identifiers are what the gossip layer deduplicates on, and what
/// applications use to correlate [`deliver`](crate::config::Params) callbacks
/// with their own bookkeeping.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct BroadcastId {
    /// Node that invoked `broadcast`.
    pub origin: NodeId,
    /// Per-origin sequence number, starting at 0.
    pub seq: u64,
}

impl BroadcastId {
    /// Creates a broadcast identifier.
    pub const fn new(origin: NodeId, seq: u64) -> Self {
        BroadcastId { origin, seq }
    }
}

impl fmt::Display for BroadcastId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}.{}", self.origin.raw(), self.seq)
    }
}

/// Identifier of a random walk: the vgroup that initiated it plus a
/// per-vgroup sequence number.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct WalkId {
    /// Vgroup that started the walk.
    pub origin: VgroupId,
    /// Per-origin sequence number.
    pub seq: u64,
}

impl WalkId {
    /// Creates a walk identifier.
    pub const fn new(origin: VgroupId, seq: u64) -> Self {
        WalkId { origin, seq }
    }
}

impl fmt::Display for WalkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "w{}.{}", self.origin.raw(), self.seq)
    }
}

/// Identifier of an ASub topic (each topic is its own Atum instance).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct TopicId(u64);

impl TopicId {
    /// Creates a topic identifier from a raw integer.
    pub const fn new(raw: u64) -> Self {
        TopicId(raw)
    }

    /// Returns the raw integer value.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Display for TopicId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::new(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.index(), 42);
        assert_eq!(NodeId::from(42u64), id);
        assert_eq!(id.to_string(), "n42");
    }

    #[test]
    fn vgroup_id_roundtrip() {
        let id = VgroupId::new(7);
        assert_eq!(id.raw(), 7);
        assert_eq!(VgroupId::from(7u64), id);
        assert_eq!(id.to_string(), "g7");
    }

    #[test]
    fn broadcast_id_ordering_is_by_origin_then_seq() {
        let a = BroadcastId::new(NodeId::new(1), 5);
        let b = BroadcastId::new(NodeId::new(2), 0);
        let c = BroadcastId::new(NodeId::new(1), 6);
        assert!(a < b);
        assert!(a < c);
        assert!(c < b);
    }

    #[test]
    fn walk_id_display() {
        let w = WalkId::new(VgroupId::new(3), 9);
        assert_eq!(w.to_string(), "w3.9");
    }
}
