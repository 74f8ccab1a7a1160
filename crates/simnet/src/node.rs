//! The runtime-neutral actor surface: the [`Node`] trait, the [`Context`]
//! through which actors act on the world, and the [`ContextEffects`] buffer
//! a runtime applies after each callback.
//!
//! # One state machine, two runtimes
//!
//! A [`Context`] is a pure *effect buffer*: a callback records sends and
//! timer requests, and whoever constructed the context applies them
//! afterwards. A node only ever arms timers: its periodic work hangs off
//! one timer that each firing re-arms. Nothing in here is specific to the
//! discrete-event simulator — the engine in this crate builds contexts for
//! simulated time, and the `atum-net` TCP runtime builds the very same
//! contexts ([`Context::for_runtime`]) for wall-clock time and real sockets.
//! The protocol state machines ([`Node`] implementations) are byte-for-byte
//! identical in both worlds.
//!
//! # The simnet-determinism invariant
//!
//! Simulation runs must stay **bit-identical for a fixed seed** (the
//! `fabric_equivalence` golden tests pin this). Everything a [`Node`] can
//! observe through a [`Context`] is therefore deterministic in the
//! simulator: `now` is simulated time, `rng` is the node's seeded ChaCha8
//! stream. Runtime integrations must preserve this contract:
//!
//! * apply effects in buffer order: sends in `outbox` order, then timers in
//!   the order they were set (timers due at one instant fire in that
//!   order);
//! * never reach into a node between callbacks;
//! * never add observable inputs (real time, OS randomness, thread identity)
//!   to this surface. A real runtime is free to be nondeterministic in when
//!   callbacks run, but the *API* through which nodes act must not grow
//!   nondeterministic observables that would leak into simulated runs.

use atum_types::{Duration, Instant, NodeId, WireSize};
use rand_chacha::ChaCha8Rng;

/// A message queued for sending, together with its size accounting.
#[derive(Debug, Clone)]
pub struct OutboundMessage<M> {
    /// Destination node.
    pub to: NodeId,
    /// Payload.
    pub msg: M,
    /// Size in bytes charged to the link (serialisation delay, stats).
    pub size: usize,
}

/// A timer requested through [`Context::set_timer`], waiting to be armed by
/// the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerRequest {
    /// Delay from the callback's `now`.
    pub delay: Duration,
    /// Tag passed back to [`Node::on_timer`].
    pub tag: u64,
}

/// The effects one callback produced, for the hosting runtime to apply:
/// sends, then timers, each in the order the callback recorded them.
#[derive(Debug)]
pub struct ContextEffects<M> {
    /// Messages to transmit, in send order.
    pub outbox: Vec<OutboundMessage<M>>,
    /// Timers to arm.
    pub new_timers: Vec<TimerRequest>,
}

impl<M> Default for ContextEffects<M> {
    fn default() -> Self {
        ContextEffects::new()
    }
}

impl<M> ContextEffects<M> {
    /// Empty effect buffers.
    pub fn new() -> Self {
        ContextEffects {
            outbox: Vec::new(),
            new_timers: Vec::new(),
        }
    }

    /// Clears the buffers, keeping their capacity for reuse across events.
    pub fn clear(&mut self) {
        self.outbox.clear();
        self.new_timers.clear();
    }
}

/// The interface a node uses to act on the world during a callback.
///
/// A `Context` is only valid for the duration of one callback invocation; all
/// effects (sends, timers) are applied by the hosting runtime when the
/// callback returns (see the module docs for the ordering contract).
pub struct Context<'a, M> {
    pub(crate) own_id: NodeId,
    pub(crate) now: Instant,
    pub(crate) rng: &'a mut ChaCha8Rng,
    pub(crate) effects: ContextEffects<M>,
}

// Manual so `M` needs no `Debug` bound; the buffered effects and the RNG
// stream are runtime plumbing, not state worth printing.
impl<M> std::fmt::Debug for Context<'_, M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Context")
            .field("own_id", &self.own_id)
            .field("now", &self.now)
            .finish_non_exhaustive()
    }
}

impl<'a, M: WireSize> Context<'a, M> {
    /// Builds a context for an external runtime (the TCP runtime, tests).
    ///
    /// `effects` may carry recycled (cleared) buffers; retrieve the recorded
    /// effects afterwards with [`Context::into_effects`] and apply them in
    /// the order the module docs specify.
    pub fn for_runtime(
        own_id: NodeId,
        now: Instant,
        rng: &'a mut ChaCha8Rng,
        effects: ContextEffects<M>,
    ) -> Self {
        Context {
            own_id,
            now,
            rng,
            effects,
        }
    }

    /// Consumes the context, returning the effects the callback recorded.
    pub fn into_effects(self) -> ContextEffects<M> {
        self.effects
    }

    /// The identifier of the node this context belongs to.
    pub fn id(&self) -> NodeId {
        self.own_id
    }

    /// Current time (simulated or wall-clock, depending on the runtime).
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Deterministic per-node random number generator.
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        self.rng
    }

    /// Sends `msg` to `to`. The size is taken from [`WireSize`].
    pub fn send(&mut self, to: NodeId, msg: M) {
        let size = msg.wire_size() + atum_types::wire::ENVELOPE_OVERHEAD;
        self.send_sized(to, msg, size);
    }

    /// Sends `msg` to `to` charging an explicit size (used when the logical
    /// payload stands in for a larger physical one, e.g. file chunks).
    pub fn send_sized(&mut self, to: NodeId, msg: M, size: usize) {
        self.effects.outbox.push(OutboundMessage { to, msg, size });
    }

    /// Schedules a timer to fire after `delay` with the given tag.
    pub fn set_timer(&mut self, delay: Duration, tag: u64) {
        self.effects.new_timers.push(TimerRequest { delay, tag });
    }
}

/// A simulated node (actor).
///
/// All methods receive a [`Context`] for interacting with the network and the
/// clock. Implementations must be deterministic given the context's RNG.
pub trait Node<M>: Sized {
    /// Called once when the node is added to the simulation.
    fn on_start(&mut self, _ctx: &mut Context<'_, M>) {}

    /// Called when a message from `from` is delivered.
    fn on_message(&mut self, from: NodeId, msg: M, ctx: &mut Context<'_, M>);

    /// Called when a timer set through [`Context::set_timer`] fires.
    fn on_timer(&mut self, tag: u64, ctx: &mut Context<'_, M>);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn make_ctx<M: WireSize>(rng: &mut ChaCha8Rng) -> Context<'_, M> {
        // The same constructor an external runtime uses.
        Context::for_runtime(
            NodeId::new(3),
            Instant::from_micros(500),
            rng,
            ContextEffects::new(),
        )
    }

    #[test]
    fn context_collects_sends_and_timers() {
        let mut rng = ChaCha8Rng::seed_from_u64(0);
        let mut ctx: Context<'_, Vec<u8>> = make_ctx(&mut rng);
        assert_eq!(ctx.id(), NodeId::new(3));
        assert_eq!(ctx.now().as_micros(), 500);

        ctx.send(NodeId::new(4), vec![1, 2, 3]);
        ctx.send_sized(NodeId::new(5), vec![], 9_999);
        ctx.set_timer(Duration::from_secs(2), 8);
        ctx.set_timer(Duration::from_secs(1), 7);

        let effects = ctx.into_effects();
        assert_eq!(effects.outbox.len(), 2);
        assert_eq!(effects.outbox[0].to, NodeId::new(4));
        // 3 bytes + 4-byte length prefix + envelope overhead
        assert_eq!(
            effects.outbox[0].size,
            7 + atum_types::wire::ENVELOPE_OVERHEAD
        );
        assert_eq!(effects.outbox[1].size, 9_999);
        // Timers keep the order they were set in, not their deadlines'.
        let tags: Vec<u64> = effects.new_timers.iter().map(|t| t.tag).collect();
        assert_eq!(tags, vec![8, 7]);
    }

    #[test]
    fn rng_is_deterministic_per_seed() {
        use rand::RngCore;
        let mut rng1 = ChaCha8Rng::seed_from_u64(42);
        let mut rng2 = ChaCha8Rng::seed_from_u64(42);
        let mut ctx1: Context<'_, Vec<u8>> = make_ctx(&mut rng1);
        let a = ctx1.rng().next_u64();
        let mut ctx2: Context<'_, Vec<u8>> = make_ctx(&mut rng2);
        let b = ctx2.rng().next_u64();
        assert_eq!(a, b);
    }
}
