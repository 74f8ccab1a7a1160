//! The application-facing callback interface (`deliver`) and the context
//! through which applications react to deliveries.

use atum_types::{BroadcastId, Instant, NodeId};

/// A message delivered to the application by Atum.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered {
    /// The broadcast identifier (origin node + per-origin sequence).
    pub id: BroadcastId,
    /// The application payload.
    pub payload: Vec<u8>,
    /// The simulated time of delivery at this node.
    pub at: Instant,
    /// Number of overlay hops the message travelled before reaching this
    /// node's vgroup (0 = delivered in the origin's own vgroup).
    pub hops: u32,
}

/// Actions an application can request while handling a callback.
///
/// Applications do not talk to the network directly; they queue effects here
/// and the node performs them after the callback returns (mirroring how the
/// callbacks of the paper run inside the middleware's delivery path).
#[derive(Debug, Default)]
pub struct AppCtx {
    pub(crate) broadcasts: Vec<Vec<u8>>,
    pub(crate) app_messages: Vec<(NodeId, Vec<u8>, u32)>,
    pub(crate) now: Instant,
    pub(crate) own_id: NodeId,
}

impl AppCtx {
    /// Creates a context for a callback happening at `now` on node `own_id`.
    ///
    /// Application code never constructs contexts itself — the node does —
    /// but application *unit tests* and harnesses do, which is why this is
    /// public.
    pub fn new(now: Instant, own_id: NodeId) -> Self {
        AppCtx {
            broadcasts: Vec::new(),
            app_messages: Vec::new(),
            now,
            own_id,
        }
    }

    /// The simulated time of the callback.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Broadcasts queued so far (test introspection).
    pub fn queued_broadcasts(&self) -> &[Vec<u8>] {
        &self.broadcasts
    }

    /// Point-to-point application messages queued so far: `(to, payload,
    /// advertised size)` (test introspection).
    pub fn queued_app_messages(&self) -> &[(NodeId, Vec<u8>, u32)] {
        &self.app_messages
    }

    /// The identifier of the node running the application.
    pub fn own_id(&self) -> NodeId {
        self.own_id
    }

    /// Queue a new Atum broadcast (e.g. AShare announcing a new replica).
    pub fn broadcast(&mut self, payload: Vec<u8>) {
        self.broadcasts.push(payload);
    }

    /// Queue a point-to-point application message (e.g. an AShare chunk
    /// request). `advertised_size` lets small logical payloads stand in for
    /// large physical transfers in the bandwidth model (0 = actual size).
    pub fn send_app_message(&mut self, to: NodeId, payload: Vec<u8>, advertised_size: u32) {
        self.app_messages.push((to, payload, advertised_size));
    }
}

/// The application callback of §3.3, `deliver`, plus a hook for
/// point-to-point application messages (used by AShare transfers and the
/// AStream second tier). §3.3's `forward` callback has no counterpart here:
/// restricted gossip is a system parameter, [`atum_types::GossipPolicy`].
pub trait Application: Send {
    /// Called exactly once per broadcast delivered at this node.
    fn deliver(&mut self, msg: &Delivered, ctx: &mut AppCtx);

    /// Called when another node sends this node an application message
    /// through [`AppCtx::send_app_message`].
    fn on_app_message(&mut self, _from: NodeId, _payload: &[u8], _ctx: &mut AppCtx) {}
}

/// A trivial application that records everything it receives. Useful for
/// tests, examples and the base experiments (ASub behaves exactly like this:
/// pub/sub operations map one-to-one onto Atum operations).
#[derive(Debug, Default, Clone)]
pub struct CollectingApp {
    delivered: Vec<Delivered>,
    app_messages: Vec<(NodeId, Vec<u8>)>,
}

impl CollectingApp {
    /// Creates an empty collector.
    pub fn new() -> Self {
        CollectingApp::default()
    }

    /// Everything delivered so far, in delivery order.
    pub fn delivered(&self) -> &[Delivered] {
        &self.delivered
    }

    /// Only the payloads, in delivery order.
    pub fn delivered_payloads(&self) -> Vec<Vec<u8>> {
        self.delivered.iter().map(|d| d.payload.clone()).collect()
    }

    /// Point-to-point application messages received.
    pub fn app_messages(&self) -> &[(NodeId, Vec<u8>)] {
        &self.app_messages
    }
}

impl Application for CollectingApp {
    fn deliver(&mut self, msg: &Delivered, _ctx: &mut AppCtx) {
        self.delivered.push(msg.clone());
    }

    fn on_app_message(&mut self, from: NodeId, payload: &[u8], _ctx: &mut AppCtx) {
        self.app_messages.push((from, payload.to_vec()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collecting_app_records_deliveries_and_messages() {
        let mut app = CollectingApp::new();
        let mut ctx = AppCtx::new(Instant::from_micros(5), NodeId::new(1));
        let msg = Delivered {
            id: BroadcastId::new(NodeId::new(2), 0),
            payload: b"data".to_vec(),
            at: Instant::from_micros(5),
            hops: 3,
        };
        app.deliver(&msg, &mut ctx);
        app.on_app_message(NodeId::new(3), b"chunk", &mut ctx);
        assert_eq!(app.delivered().len(), 1);
        assert_eq!(app.delivered_payloads(), vec![b"data".to_vec()]);
        assert_eq!(app.app_messages(), &[(NodeId::new(3), b"chunk".to_vec())]);
    }

    #[test]
    fn app_ctx_queues_effects() {
        let mut ctx = AppCtx::new(Instant::from_micros(7), NodeId::new(4));
        assert_eq!(ctx.now().as_micros(), 7);
        assert_eq!(ctx.own_id(), NodeId::new(4));
        ctx.broadcast(b"announce".to_vec());
        ctx.send_app_message(NodeId::new(5), b"pull".to_vec(), 1024);
        assert_eq!(ctx.broadcasts.len(), 1);
        assert_eq!(ctx.app_messages.len(), 1);
        assert_eq!(ctx.app_messages[0].2, 1024);
    }
}
