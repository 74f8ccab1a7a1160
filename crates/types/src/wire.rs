//! The wire codec and byte-size accounting shared by the simulator and the
//! TCP runtime.
//!
//! Two related facilities live here:
//!
//! * **The binary codec** — [`WireEncode`]/[`WireDecode`] over
//!   [`WireWriter`]/[`WireReader`]: the compact, positional, little-endian
//!   encoding every Atum protocol type implements in its own crate (ids and
//!   compositions here, digests and signature chains in `atum-crypto`, walks
//!   and neighbour tables in `atum-overlay`, SMR messages in `atum-smr`, the
//!   full message tree in `atum-core`). The TCP runtime (`atum-net`) frames
//!   these encodings onto sockets; see the frame constants below.
//!   `wire_encode` is a type's **only** field walk: the writer's three sinks
//!   turn it into the bytes that travel, their exact count ([`wire_len`]),
//!   or the content digest (`atum_crypto::Digestible`).
//! * **[`WireSize`]** — the per-message byte count the simulator charges for
//!   serialisation delay and bandwidth statistics: for protocol messages the
//!   counting pass plus framing, never a separate estimate.
//!
//! # Encoding conventions
//!
//! Integers are fixed-width little-endian; `bool` is one byte (`0`/`1`,
//! decoders reject anything else); sequences are a `u32` length prefix
//! followed by the elements; a `String` is its UTF-8 bytes as such a sequence
//! (decoders reject invalid UTF-8); `Option` is a one-byte presence tag; enums
//! are a one-byte variant tag followed by the fields, in the order the type's
//! [`wire_codec!`](crate::wire_codec) list gives them. Tags are wire ABI:
//! retired tags stay commented beside the list, never reused.
//!
//! # Decode hardening
//!
//! Every read is bounds-checked ([`WireError::Truncated`] instead of a
//! panic), sequence lengths are validated against the bytes actually
//! remaining before any allocation ([`WireReader::take_len`]), and top-level
//! decoders require exact consumption ([`WireReader::finish`] turns trailing
//! garbage into [`WireError::TrailingBytes`]).

use crate::composition::Composition;
use crate::id::{BroadcastId, NodeId, TopicId, VgroupId, WalkId};
use std::fmt;
use std::sync::Arc;

/// Size of a signature on the wire (bytes). The workspace's keyed-hash
/// signature scheme produces 32-byte tags, and that is what the codec
/// actually encodes; an Ed25519 deployment would carry 64.
pub const SIGNATURE_SIZE: usize = 32;
/// Size of a digest or MAC on the wire, modelled on SHA-256/HMAC (bytes).
pub const DIGEST_SIZE: usize = 32;
/// Modelled per-message transport overhead (TCP/IP headers and ACK share)
/// charged by the simulator on top of the encoded frame.
pub const ENVELOPE_OVERHEAD: usize = 48;

// ---------------------------------------------------------------- framing

/// Magic bytes opening every frame.
pub const FRAME_MAGIC: [u8; 2] = *b"AT";
/// Wire-format version carried in every frame header. Version 2 introduced
/// the [`FRAME_KIND_ROUTE`] frame: connections are no longer a dedicated
/// pipe between one node pair, so every message frame is preceded by a
/// route frame naming its endpoints.
pub const WIRE_VERSION: u8 = 2;
/// Frame kind: connection handshake (`Hello`).
pub const FRAME_KIND_HELLO: u8 = 0;
/// Frame kind: an encoded `AtumMessage`.
pub const FRAME_KIND_MESSAGE: u8 = 1;
/// Frame kind: the `(from, to)` routing header preceding a message frame.
/// Kept outside the message frame so the message bytes stay identical
/// across every recipient of a fan-out (the encode-once `Arc<[u8]>` path).
pub const FRAME_KIND_ROUTE: u8 = 2;
/// Frame kind: an encoded [`EdgeRequest`](crate::edge::EdgeRequest) from an
/// external client to a gateway. Edge kinds share the frame header format
/// (and version) with the node-to-node wire but are only ever valid on a
/// gateway's client listener — a node connection that receives one closes,
/// and vice versa.
pub const FRAME_KIND_EDGE_REQUEST: u8 = 3;
/// Frame kind: an encoded [`EdgeResponse`](crate::edge::EdgeResponse) from
/// a gateway back to an external client.
pub const FRAME_KIND_EDGE_RESPONSE: u8 = 4;
/// Bytes of the frame header: magic (2), version (1), kind (1), body length
/// (`u32` little-endian).
pub const FRAME_HEADER_LEN: usize = 8;
/// Maximum accepted frame body. Larger length prefixes are rejected before
/// any allocation, so a hostile peer cannot make a node reserve gigabytes.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

// ----------------------------------------------------------------- errors

/// Why a decode failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    Truncated,
    /// A tag, length or invariant check failed; the message names it.
    Malformed(&'static str),
    /// The frame header's magic bytes were wrong.
    BadMagic,
    /// The frame header carried an unsupported wire-format version.
    BadVersion(u8),
    /// A frame's length prefix exceeded [`MAX_FRAME_LEN`].
    FrameTooLarge(usize),
    /// A top-level value decoded successfully but bytes were left over.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "input truncated"),
            WireError::Malformed(what) => write!(f, "malformed {what}"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::FrameTooLarge(n) => {
                write!(f, "frame body of {n} bytes exceeds cap {MAX_FRAME_LEN}")
            }
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for WireError {}

// ----------------------------------------------------------------- writer

/// Where a [`WireWriter`]'s bytes go.
enum Sink<'a> {
    Buf(&'a mut Vec<u8>),
    Count,
    Digest(&'a mut dyn FnMut(&[u8])),
}

/// Byte sink for [`WireEncode`] — the one field walk per type, three sinks:
///
/// * **buffer** ([`WireWriter::to_buf`]): the bytes that travel;
/// * **counting** ([`WireWriter::counting`]): only the length, so the exact
///   encoded size of a message costs one allocation-free traversal — cheap
///   enough for the simulator's per-send accounting;
/// * **digest** ([`WireWriter::digesting`]): every `put_*` is fed to a
///   caller-supplied hasher, so the bytes that are authenticated are the
///   same walk as the bytes that travel.
///
/// The digest stream predates the codec and differs from the wire form in
/// two primitives, kept so digest *values* (which seed walks and pick
/// exchange candidates) stay what they always were: integers are
/// **big-endian** and length prefixes are **`u64`**. Both differences live in
/// [`WireWriter::put_u16`]/`u32`/`u64` and [`WireWriter::put_len`], are not
/// configurable, and keep the stream prefix-free exactly as the wire form is.
pub struct WireWriter<'a> {
    sink: Sink<'a>,
    written: usize,
}

// Manual: the digest sink is a closure with no meaningful rendering.
impl fmt::Debug for WireWriter<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WireWriter")
            .field("written", &self.written)
            .finish_non_exhaustive()
    }
}

// The `put_*` methods are `#[inline]` on purpose: every codec impl outside
// this crate calls them once per field, and without the hint the sink match
// makes them too large for automatic cross-crate inlining — a function call
// per field, measured at +25% on a 64-byte message's encode.
impl<'a> WireWriter<'a> {
    /// A writer appending to `buf`.
    pub fn to_buf(buf: &'a mut Vec<u8>) -> Self {
        WireWriter {
            sink: Sink::Buf(buf),
            written: 0,
        }
    }

    /// A counting writer: discards bytes, remembers only the length.
    pub fn counting() -> WireWriter<'static> {
        WireWriter {
            sink: Sink::Count,
            written: 0,
        }
    }

    /// A digest writer: hands every written field to `feed` (a hasher's
    /// `update`), in the digest stream's primitive form (see the type docs).
    pub fn digesting(feed: &'a mut dyn FnMut(&[u8])) -> Self {
        WireWriter {
            sink: Sink::Digest(feed),
            written: 0,
        }
    }

    /// Bytes written (or counted, or fed to the digest) so far.
    pub fn written(&self) -> usize {
        self.written
    }

    /// Appends raw bytes.
    #[inline]
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        match &mut self.sink {
            Sink::Buf(buf) => buf.extend_from_slice(bytes),
            Sink::Count => {}
            Sink::Digest(feed) => feed(bytes),
        }
        self.written += bytes.len();
    }

    /// Appends an integer given in both byte orders: little-endian on the
    /// wire, big-endian in the digest stream.
    #[inline]
    fn put_int<const N: usize>(&mut self, le: [u8; N], be: [u8; N]) {
        match &mut self.sink {
            Sink::Buf(buf) => buf.extend_from_slice(&le),
            Sink::Count => {}
            Sink::Digest(feed) => feed(&be),
        }
        self.written += N;
    }

    /// Appends one byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.put_bytes(&[v]);
    }

    /// Appends a `u16` (little-endian; big-endian in the digest stream).
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.put_int(v.to_le_bytes(), v.to_be_bytes());
    }

    /// Appends a `u32` (little-endian; big-endian in the digest stream).
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.put_int(v.to_le_bytes(), v.to_be_bytes());
    }

    /// Appends a `u64` (little-endian; big-endian in the digest stream).
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.put_int(v.to_le_bytes(), v.to_be_bytes());
    }

    /// Appends a boolean as `0`/`1`.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(v as u8);
    }

    /// Appends a sequence length prefix: a `u32` on the wire, a `u64` in
    /// the digest stream.
    ///
    /// # Panics
    ///
    /// Panics if `len` does not fit a `u32`; no protocol collection comes
    /// within orders of magnitude of that.
    #[inline]
    pub fn put_len(&mut self, len: usize) {
        if matches!(self.sink, Sink::Digest(_)) {
            self.put_u64(len as u64);
        } else {
            self.put_u32(u32::try_from(len).expect("sequence length fits u32"));
        }
    }

    /// Appends a length-prefixed sequence of encodable items.
    pub fn put_seq<T: WireEncode>(&mut self, items: &[T]) {
        self.put_len(items.len());
        for item in items {
            item.wire_encode(self);
        }
    }
}

// ----------------------------------------------------------------- reader

/// Bounds-checked cursor over an encoded byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// A reader over `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        WireReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes `n` raw bytes.
    pub fn take_bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Takes one byte.
    pub fn take_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take_bytes(1)?[0])
    }

    /// Takes a little-endian `u16`.
    pub fn take_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take_bytes(2)?.try_into().unwrap()))
    }

    /// Takes a little-endian `u32`.
    pub fn take_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_bytes(4)?.try_into().unwrap()))
    }

    /// Takes a little-endian `u64`.
    pub fn take_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_bytes(8)?.try_into().unwrap()))
    }

    /// Takes a boolean, rejecting anything but `0`/`1`.
    pub fn take_bool(&mut self) -> Result<bool, WireError> {
        match self.take_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("bool")),
        }
    }

    /// Takes a sequence length prefix, validating it against the bytes that
    /// actually remain (`min_elem_size` bytes per element) *before* the
    /// caller allocates — an oversized length prefix fails cleanly instead
    /// of reserving unbounded memory.
    pub fn take_len(&mut self, min_elem_size: usize) -> Result<usize, WireError> {
        let len = self.take_u32()? as usize;
        if len.saturating_mul(min_elem_size.max(1)) > self.remaining() {
            return Err(WireError::Malformed("sequence length exceeds input"));
        }
        Ok(len)
    }

    /// Takes a length-prefixed sequence of decodable items, assuming each
    /// item occupies at least `min_elem_size` bytes.
    pub fn take_seq<T: WireDecode>(&mut self, min_elem_size: usize) -> Result<Vec<T>, WireError> {
        let len = self.take_len(min_elem_size)?;
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::wire_decode(self)?);
        }
        Ok(out)
    }

    /// The not-yet-consumed tail of the input. Decoders that need the raw
    /// bytes a sub-value occupied (e.g. to key a verified-digest cache) take
    /// this before the sub-decode and slice it by how much `remaining()`
    /// shrank.
    pub fn rest(&self) -> &'a [u8] {
        &self.bytes[self.pos..]
    }

    /// Succeeds only when every input byte was consumed. Top-level decoders
    /// call this so trailing garbage is an error, not silently ignored.
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(WireError::TrailingBytes(n)),
        }
    }
}

// ----------------------------------------------------------------- traits

/// Types with a binary wire encoding.
pub trait WireEncode {
    /// Appends this value's encoding to the writer.
    fn wire_encode(&self, w: &mut WireWriter<'_>);
}

/// Types that can be decoded from their binary wire encoding.
pub trait WireDecode: Sized {
    /// Decodes one value, advancing the reader past it.
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// The hook for **encode-once fan-out**: a runtime that frames messages
/// onto sockets asks the message for a logical identity, so one logical
/// message fanned out to many recipients is encoded exactly once and the
/// frame bytes are shared (`Arc<[u8]>`) across every per-peer queue.
///
/// The default implementation opts out (every copy is encoded
/// independently), which is always correct; messages backed by shared
/// allocations (e.g. `Arc`-wrapped envelopes) override it.
pub trait FrameMemo {
    /// Identity of the logical message this value is a fan-out copy of, or
    /// `None` when copies carry no shared identity. Pointer-derived
    /// identities are only stable while the message is alive, so callers
    /// must scope any identity-keyed memo to a window in which all compared
    /// messages coexist (e.g. one effect batch).
    fn fanout_identity(&self) -> Option<usize> {
        None
    }
}

impl FrameMemo for u64 {}
impl FrameMemo for Vec<u8> {}

/// Exact encoded size of a value: one counting traversal, no allocation.
pub fn wire_len<T: WireEncode + ?Sized>(value: &T) -> usize {
    let mut w = WireWriter::counting();
    value.wire_encode(&mut w);
    w.written()
}

/// Encodes a value into a fresh buffer.
pub fn encode_to_vec<T: WireEncode + ?Sized>(value: &T) -> Vec<u8> {
    let mut buf = Vec::with_capacity(wire_len(value));
    let mut w = WireWriter::to_buf(&mut buf);
    value.wire_encode(&mut w);
    buf
}

/// Decodes a value that must span the entire input (trailing bytes error).
pub fn decode_exact<T: WireDecode>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(bytes);
    let value = T::wire_decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

// ---------------------------------------------------------- the codec list

/// Generates a type's [`WireEncode`] and [`WireDecode`] impls from one
/// ordered list of its wire tags and field names, so the encode walk and the
/// decode walk cannot drift apart. The type itself stays a plain declaration.
///
/// ```text
/// wire_codec!(GroupVote { source, source_composition, digest, id });
/// wire_codec!(AtumMessage, "atum-message tag" {
///     0 => JoinContactRequest,
///     3 => Welcome(config),
///     9 => BroadcastKeys { group, keys: seq(16) },
/// });
/// wire_codec!(SmrMessage<O>, "smr-message tag" { ... });
/// wire_codec!([kind::ASUB_EVENT] AsubEvent { topic, data });
/// ```
///
/// * A struct is its fields in list order. An enum is a one-byte tag, then
///   the variant's fields in list order; an unknown tag decodes to
///   `WireError::Malformed` with the given name.
/// * Every field is its own type's codec, except `name: seq(N)`: a `Vec`
///   written with [`WireWriter::put_seq`] and read with
///   [`WireReader::take_seq`]`(N)`, `N` being the least bytes an item takes.
/// * `<O>` makes the impls generic over one type parameter.
/// * `[K]` leads every encoding with the constant byte `K`; a decode that
///   finds another byte fails as `Malformed("payload kind")`.
///
/// Decode names no types: each field's is inferred from the constructor,
/// and a struct literal evaluates its fields in the order written. The
/// compiler checks the list is whole: a field left out fails the encode's
/// pattern and the decode's literal, a variant left out fails the match.
#[macro_export]
macro_rules! wire_codec {
    (@put $w:ident, $field:ident) => {
        $crate::WireEncode::wire_encode($field, $w)
    };
    (@put $w:ident, $field:ident, $bound:expr) => {
        $w.put_seq($field)
    };
    (@take $r:ident, $field:ident) => {
        $crate::WireDecode::wire_decode($r)?
    };
    (@take $r:ident, $field:ident, $bound:expr) => {
        $r.take_seq($bound)?
    };
    (@kind $r:ident, $kind:expr) => {
        if $r.take_u8()? != $kind {
            return Err($crate::WireError::Malformed("payload kind"));
        }
    };
    ($([$kind:expr])? $ty:ident $(<$p:ident>)?, $unknown:literal {
        $($tag:literal => $variant:ident
            $({ $($field:ident $(: seq($bound:expr))?),* $(,)? })?
            $(( $($item:ident),* ))?
        ),* $(,)?
    }) => {
        impl$(<$p: $crate::WireEncode>)? $crate::WireEncode for $ty$(<$p>)? {
            fn wire_encode(&self, w: &mut $crate::WireWriter<'_>) {
                $(w.put_u8($kind);)?
                match self {
                    $(Self::$variant $({ $($field),* })? $(( $($item),* ))? => {
                        w.put_u8($tag);
                        $($($crate::wire_codec!(@put w, $field $(, $bound)?);)*)?
                        $($($crate::wire_codec!(@put w, $item);)*)?
                    })*
                }
            }
        }

        impl$(<$p: $crate::WireDecode>)? $crate::WireDecode for $ty$(<$p>)? {
            fn wire_decode(
                r: &mut $crate::WireReader<'_>,
            ) -> ::core::result::Result<Self, $crate::WireError> {
                $($crate::wire_codec!(@kind r, $kind);)?
                Ok(match r.take_u8()? {
                    $($tag => Self::$variant
                        $({ $($field: $crate::wire_codec!(@take r, $field $(, $bound)?)),* })?
                        $(( $($crate::wire_codec!(@take r, $item)),* ))?,
                    )*
                    _ => return Err($crate::WireError::Malformed($unknown)),
                })
            }
        }
    };
    ($([$kind:expr])? $ty:ident $(<$p:ident>)? {
        $($field:ident $(: seq($bound:expr))?),* $(,)?
    }) => {
        impl$(<$p: $crate::WireEncode>)? $crate::WireEncode for $ty$(<$p>)? {
            fn wire_encode(&self, w: &mut $crate::WireWriter<'_>) {
                $(w.put_u8($kind);)?
                let Self { $($field),* } = self;
                $($crate::wire_codec!(@put w, $field $(, $bound)?);)*
            }
        }

        impl$(<$p: $crate::WireDecode>)? $crate::WireDecode for $ty$(<$p>)? {
            fn wire_decode(
                r: &mut $crate::WireReader<'_>,
            ) -> ::core::result::Result<Self, $crate::WireError> {
                $($crate::wire_codec!(@kind r, $kind);)?
                Ok(Self { $($field: $crate::wire_codec!(@take r, $field $(, $bound)?)),* })
            }
        }
    };
}

// ------------------------------------------------- codec impls (primitives)

// `#[inline]` for the reason the `put_*` methods carry it: a generated codec
// calls these once per scalar field, from another crate.
macro_rules! scalar_codec {
    ($($ty:ty: $put:ident, $take:ident;)*) => {$(
        impl WireEncode for $ty {
            #[inline]
            fn wire_encode(&self, w: &mut WireWriter<'_>) {
                w.$put(*self);
            }
        }

        impl WireDecode for $ty {
            #[inline]
            fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                r.$take()
            }
        }
    )*};
}

scalar_codec! {
    u8: put_u8, take_u8;
    u16: put_u16, take_u16;
    u32: put_u32, take_u32;
    u64: put_u64, take_u64;
    bool: put_bool, take_bool;
}

impl WireEncode for Vec<u8> {
    fn wire_encode(&self, w: &mut WireWriter<'_>) {
        w.put_len(self.len());
        w.put_bytes(self);
    }
}

impl WireDecode for Vec<u8> {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.take_len(1)?;
        Ok(r.take_bytes(len)?.to_vec())
    }
}

impl WireEncode for String {
    fn wire_encode(&self, w: &mut WireWriter<'_>) {
        w.put_len(self.len());
        w.put_bytes(self.as_bytes());
    }
}

impl WireDecode for String {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.take_len(1)?;
        std::str::from_utf8(r.take_bytes(len)?)
            .map(str::to_owned)
            .map_err(|_| WireError::Malformed("utf-8 string"))
    }
}

impl WireEncode for Arc<[u8]> {
    fn wire_encode(&self, w: &mut WireWriter<'_>) {
        w.put_len(self.len());
        w.put_bytes(self);
    }
}

impl WireDecode for Arc<[u8]> {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.take_len(1)?;
        Ok(Arc::from(r.take_bytes(len)?))
    }
}

impl<T: WireEncode> WireEncode for Arc<T> {
    fn wire_encode(&self, w: &mut WireWriter<'_>) {
        (**self).wire_encode(w);
    }
}

impl<T: WireDecode> WireDecode for Arc<T> {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        T::wire_decode(r).map(Arc::new)
    }
}

/// A boxed value encodes exactly as the value: boxing a large variant's
/// payload shrinks the in-memory enum, never the bytes on the wire.
impl<T: WireEncode> WireEncode for Box<T> {
    fn wire_encode(&self, w: &mut WireWriter<'_>) {
        (**self).wire_encode(w);
    }
}

impl<T: WireDecode> WireDecode for Box<T> {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        T::wire_decode(r).map(Box::new)
    }
}

impl<A: WireEncode, B: WireEncode> WireEncode for (A, B) {
    fn wire_encode(&self, w: &mut WireWriter<'_>) {
        self.0.wire_encode(w);
        self.1.wire_encode(w);
    }
}

impl<A: WireDecode, B: WireDecode> WireDecode for (A, B) {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((A::wire_decode(r)?, B::wire_decode(r)?))
    }
}

impl<T: WireEncode> WireEncode for Option<T> {
    fn wire_encode(&self, w: &mut WireWriter<'_>) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.wire_encode(w);
            }
        }
    }
}

impl<T: WireDecode> WireDecode for Option<T> {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.take_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::wire_decode(r)?)),
            _ => Err(WireError::Malformed("option tag")),
        }
    }
}

// ------------------------------------------------------ codec impls (ids)

impl WireEncode for NodeId {
    fn wire_encode(&self, w: &mut WireWriter<'_>) {
        w.put_u64(self.raw());
    }
}

impl WireDecode for NodeId {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.take_u64().map(NodeId::new)
    }
}

impl WireEncode for VgroupId {
    fn wire_encode(&self, w: &mut WireWriter<'_>) {
        w.put_u64(self.raw());
    }
}

impl WireDecode for VgroupId {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.take_u64().map(VgroupId::new)
    }
}

impl WireEncode for TopicId {
    fn wire_encode(&self, w: &mut WireWriter<'_>) {
        w.put_u64(self.raw());
    }
}

impl WireDecode for TopicId {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.take_u64().map(TopicId::new)
    }
}

wire_codec!(BroadcastId { origin, seq });
wire_codec!(WalkId { origin, seq });

impl WireEncode for Composition {
    fn wire_encode(&self, w: &mut WireWriter<'_>) {
        w.put_len(self.len());
        for member in self.iter() {
            w.put_u64(member.raw());
        }
    }
}

impl WireDecode for Composition {
    fn wire_decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.take_len(8)?;
        let mut members = Vec::with_capacity(len);
        for _ in 0..len {
            members.push(NodeId::new(r.take_u64()?));
        }
        // `from_members` sorts and deduplicates: the boundary canonicalises,
        // so a hostile encoding cannot smuggle in a duplicate-bearing set.
        Ok(Composition::from_members(members))
    }
}

/// The per-message byte count a runtime charges for a value: what the
/// simulator bills for serialisation delay and bandwidth statistics. For a
/// codec type it is the counting pass ([`wire_len`]) plus framing — the
/// `AtumMessage` impl in `atum-core` — never a separate estimate; the impls
/// here are the scalar and byte-string messages tests and benches send.
pub trait WireSize {
    /// Number of bytes this value is charged on the wire.
    fn wire_size(&self) -> usize;
}

impl WireSize for u64 {
    fn wire_size(&self) -> usize {
        8
    }
}

impl WireSize for Vec<u8> {
    fn wire_size(&self) -> usize {
        4 + self.len()
    }
}

impl WireSize for String {
    fn wire_size(&self) -> usize {
        4 + self.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_sizes() {
        assert_eq!(7u64.wire_size(), 8);
    }

    #[test]
    fn container_sizes() {
        let bytes: Vec<u8> = vec![0u8; 100];
        assert_eq!(bytes.wire_size(), 104);
        assert_eq!("hello".to_string().wire_size(), 9);
    }

    #[test]
    fn strings_are_length_prefixed_utf8_and_nothing_else() {
        let name = "père.txt".to_string();
        let bytes = encode_to_vec(&name);
        assert_eq!(bytes.len(), 4 + name.len());
        assert_eq!(decode_exact::<String>(&bytes), Ok(name));
        assert_eq!(
            decode_exact::<String>(&[2, 0, 0, 0, 0xc3, 0x28]),
            Err(WireError::Malformed("utf-8 string"))
        );
        // A length prefix past the input fails before any allocation.
        assert!(decode_exact::<String>(&[0xff, 0xff, 0xff, 0xff, b'a']).is_err());
    }
}
