//! ASub: a topic-based publish/subscribe service (§4.1).
//!
//! Topic-based pub/sub is essentially equivalent to group communication: a
//! topic is a group, subscribing is joining, publishing is broadcasting. ASub
//! is therefore a thin facade over the Atum API; one Atum instance backs one
//! topic.

use crate::kind;
use atum_core::{AtumMessage, AtumNode, CollectingApp};
use atum_simnet::Context;
use atum_types::wire::{decode_exact, encode_to_vec};
use atum_types::{NodeId, Params, Result, TopicId, WireEncode, WireWriter};

/// An event published on a topic (the payload carried by the underlying
/// Atum broadcast).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsubEvent {
    /// The topic the event belongs to.
    pub topic: TopicId,
    /// Application data.
    pub data: Vec<u8>,
}

/// An [`AsubEvent`] over a borrowed body, encoding to the event's bytes (the
/// codec-law proptest pins that), so a caller that only holds `&[u8]` (the
/// edge mapping) encodes without first cloning the body into an owned event.
pub(crate) struct EventRef<'a> {
    pub topic: TopicId,
    pub data: &'a [u8],
}

impl WireEncode for EventRef<'_> {
    fn wire_encode(&self, w: &mut WireWriter<'_>) {
        w.put_u8(kind::ASUB_EVENT);
        self.topic.wire_encode(w);
        w.put_len(self.data.len());
        w.put_bytes(self.data);
    }
}

atum_types::wire_codec!([kind::ASUB_EVENT] AsubEvent { topic, data });

impl AsubEvent {
    /// Serialises the event for broadcasting.
    pub fn encode(&self) -> Vec<u8> {
        encode_to_vec(self)
    }

    /// Parses an event from a delivered broadcast payload.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        decode_exact(bytes).ok()
    }
}

/// A participant in one ASub topic: an Atum node whose pub/sub operations
/// map directly onto the Atum API.
#[derive(Debug)]
pub struct AsubNode {
    topic: TopicId,
    node: AtumNode<CollectingApp>,
}

impl AsubNode {
    /// Creates a participant for `topic`.
    pub fn new(
        id: NodeId,
        topic: TopicId,
        params: Params,
        registry: std::sync::Arc<atum_crypto::KeyRegistry>,
    ) -> Self {
        AsubNode {
            topic,
            node: AtumNode::new(id, params, registry, CollectingApp::new()),
        }
    }

    /// The topic this participant is attached to.
    pub fn topic(&self) -> TopicId {
        self.topic
    }

    /// Access to the underlying Atum node (for membership inspection).
    pub fn atum(&self) -> &AtumNode<CollectingApp> {
        &self.node
    }

    /// `create_topic`: bootstrap a fresh topic group with this node as the
    /// first subscriber.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`AtumNode::bootstrap`] error.
    pub fn create_topic(&mut self, ctx: &mut Context<'_, AtumMessage>) -> Result<()> {
        self.node.bootstrap(ctx)
    }

    /// `subscribe`: join the topic through any existing subscriber.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`AtumNode::join`] error.
    pub fn subscribe(&mut self, contact: NodeId, ctx: &mut Context<'_, AtumMessage>) -> Result<()> {
        self.node.join(contact, ctx)
    }

    /// `unsubscribe`: leave the topic.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`AtumNode::leave`] error.
    pub fn unsubscribe(&mut self, ctx: &mut Context<'_, AtumMessage>) -> Result<()> {
        self.node.leave(ctx)
    }

    /// `publish`: broadcast an event to every subscriber of the topic.
    ///
    /// # Errors
    ///
    /// Propagates the underlying [`AtumNode::broadcast`] error.
    pub fn publish(&mut self, data: Vec<u8>, ctx: &mut Context<'_, AtumMessage>) -> Result<()> {
        let event = AsubEvent {
            topic: self.topic,
            data,
        };
        self.node.broadcast(event.encode(), ctx).map(|_| ())
    }

    /// Events delivered to this subscriber so far, in delivery order.
    pub fn notifications(&self) -> Vec<AsubEvent> {
        self.node
            .app()
            .delivered_payloads()
            .iter()
            .filter_map(|p| AsubEvent::decode(p))
            .filter(|e| e.topic == self.topic)
            .collect()
    }
}

// AsubNode must be hostable by the simulator: delegate the actor callbacks to
// the wrapped Atum node.
impl atum_simnet::Node<AtumMessage> for AsubNode {
    fn on_start(&mut self, ctx: &mut Context<'_, AtumMessage>) {
        self.node.on_start(ctx);
    }
    fn on_message(&mut self, from: NodeId, msg: AtumMessage, ctx: &mut Context<'_, AtumMessage>) {
        self.node.on_message(from, msg, ctx);
    }
    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, AtumMessage>) {
        self.node.on_timer(tag, ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atum_crypto::KeyRegistry;
    use atum_simnet::{NetConfig, Simulation};
    use atum_types::Duration;

    #[test]
    fn event_roundtrip() {
        let e = AsubEvent {
            topic: TopicId::new(3),
            data: b"tick".to_vec(),
        };
        let bytes = e.encode();
        assert_eq!(AsubEvent::decode(&bytes), Some(e));
        assert_eq!(AsubEvent::decode(b"not an event"), None);
        assert_eq!(AsubEvent::decode(b""), None);
        assert_eq!(AsubEvent::decode(&bytes[..bytes.len() - 1]), None);
        let mut extended = bytes;
        extended.push(0);
        assert_eq!(AsubEvent::decode(&extended), None);
    }

    #[test]
    fn publish_subscribe_end_to_end() {
        let mut registry = KeyRegistry::new();
        for i in 0..3 {
            registry.register(NodeId::new(i), 1);
        }
        let registry = registry.shared();
        let params = Params::default()
            .with_round(Duration::from_millis(200))
            .with_group_bounds(1, 8);
        let topic = TopicId::new(7);

        let mut sim: Simulation<AtumMessage, AsubNode> = Simulation::new(NetConfig::lan(), 11);
        for i in 0..3u64 {
            sim.add_node(
                NodeId::new(i),
                AsubNode::new(NodeId::new(i), topic, params.clone(), registry.clone()),
            );
        }
        sim.call(NodeId::new(0), |n, ctx| n.create_topic(ctx).unwrap());
        sim.run_for(Duration::from_secs(2));
        sim.call(NodeId::new(1), |n, ctx| {
            n.subscribe(NodeId::new(0), ctx).unwrap()
        });
        sim.run_for(Duration::from_secs(40));
        sim.call(NodeId::new(2), |n, ctx| {
            n.subscribe(NodeId::new(0), ctx).unwrap()
        });
        sim.run_for(Duration::from_secs(60));

        sim.call(NodeId::new(1), |n, ctx| {
            n.publish(b"breaking news".to_vec(), ctx).unwrap()
        });
        sim.run_for(Duration::from_secs(30));

        for i in 0..3u64 {
            let events = sim.node(NodeId::new(i)).unwrap().notifications();
            assert!(
                events.iter().any(|e| e.data == b"breaking news"),
                "subscriber {i} missed the event"
            );
        }
        assert_eq!(sim.node(NodeId::new(0)).unwrap().topic(), topic);
    }
}
