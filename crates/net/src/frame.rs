//! Length-prefixed binary framing over byte streams.
//!
//! Every frame is an 8-byte header — magic (2), wire version (1), frame kind
//! (1), body length (`u32` little-endian) — followed by the body bytes. The
//! first frame on every connection must be a [`Hello`]
//! ([`FRAME_KIND_HELLO`]): it names the sending node and the port its own
//! listener accepts connections on, so the receiver can both attribute the
//! connection and learn a return address. After the hello, frames arrive in
//! strict pairs: a [`Route`] frame ([`FRAME_KIND_ROUTE`]) naming the
//! `(from, to)` endpoints, immediately followed by the encoded
//! `AtumMessage` body it addresses ([`FRAME_KIND_MESSAGE`]). Routing lives
//! *outside* the message frame so the message bytes are identical for
//! every recipient of a fan-out — the encode-once `Arc<[u8]>` frames of the
//! runtime are shared verbatim across peers and recipients.
//!
//! The edge gateway's client wire shares the header under its own frame
//! kinds; [`scan_frame`] and [`frame_bytes`] are the one header validator
//! and the one header encoder for both, each caller passing the kinds and
//! the body cap of its wire.
//!
//! Decode hardening: the magic, version and kind are checked before the body
//! length is honoured, bodies above the caller's cap (at most
//! [`MAX_FRAME_LEN`]) are rejected *before* any allocation, and message
//! bodies must decode to exactly their length (trailing garbage closes the
//! connection deliberately; see the runtime).

use atum_types::wire::{
    decode_exact, encode_to_vec, WireDecode, WireEncode, WireError, FRAME_HEADER_LEN,
    FRAME_KIND_HELLO, FRAME_KIND_MESSAGE, FRAME_KIND_ROUTE, FRAME_MAGIC, MAX_FRAME_LEN,
    WIRE_VERSION,
};
use atum_types::NodeId;
use std::io::Read;
use std::sync::Arc;

/// The handshake opening every connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The connecting node.
    pub node: NodeId,
    /// The TCP port the connecting node's own listener accepts on (its IP is
    /// whatever the accepted socket reports).
    pub listen_port: u16,
}

atum_types::wire_codec!(Hello { node, listen_port });

/// The routing header preceding every message frame: which node sent the
/// message that follows, and which hosted node it is addressed to. A
/// multiplexed connection carries traffic for many node pairs, so the pair
/// travels per message rather than per connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// The sending node.
    pub from: NodeId,
    /// The destination node (hosted by the receiving runtime).
    pub to: NodeId,
}

atum_types::wire_codec!(Route { from, to });

/// Encoded length of a [`Route`] frame (header + two ids).
pub const ROUTE_FRAME_LEN: usize = FRAME_HEADER_LEN + 16;

/// Encodes a [`Route`] frame into a fixed array — route frames are written
/// once per queued message, so the hot path stays allocation-free.
pub fn route_frame(route: Route) -> [u8; ROUTE_FRAME_LEN] {
    let mut out = [0u8; ROUTE_FRAME_LEN];
    out[0..2].copy_from_slice(&FRAME_MAGIC);
    out[2] = WIRE_VERSION;
    out[3] = FRAME_KIND_ROUTE;
    out[4..8].copy_from_slice(&16u32.to_le_bytes());
    out[8..16].copy_from_slice(&route.from.raw().to_le_bytes());
    out[16..24].copy_from_slice(&route.to.raw().to_le_bytes());
    out
}

/// Encodes a frame (header + body) into a fresh buffer, ready for one
/// `write_all`.
pub fn frame_bytes(kind: u8, body: &[u8]) -> Vec<u8> {
    assert!(body.len() <= MAX_FRAME_LEN, "frame body exceeds cap");
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + body.len());
    out.extend_from_slice(&FRAME_MAGIC);
    out.push(WIRE_VERSION);
    out.push(kind);
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Encodes a value as a single frame of the given kind.
pub fn encode_frame<T: WireEncode + ?Sized>(kind: u8, value: &T) -> Vec<u8> {
    frame_bytes(kind, &encode_to_vec(value))
}

/// The shareable [`FRAME_KIND_MESSAGE`] frame for a message: one encoding
/// pass, framed into bytes every recipient's queue can share.
pub fn message_frame_shared<M: WireEncode>(msg: &M) -> Arc<[u8]> {
    frame_bytes(FRAME_KIND_MESSAGE, &encode_to_vec(msg)).into()
}

/// The frame kinds legal on a node-to-node connection.
pub const NODE_KINDS: [u8; 3] = [FRAME_KIND_HELLO, FRAME_KIND_ROUTE, FRAME_KIND_MESSAGE];

/// The one header check of the workspace: validates against the caller's
/// vocabulary (`kinds`) and body cap, returning the kind and body length.
fn check_header(
    header: &[u8; FRAME_HEADER_LEN],
    kinds: &[u8],
    max_body: usize,
) -> Result<(u8, usize), WireError> {
    if header[0..2] != FRAME_MAGIC {
        return Err(WireError::BadMagic);
    }
    if header[2] != WIRE_VERSION {
        return Err(WireError::BadVersion(header[2]));
    }
    let kind = header[3];
    if !kinds.contains(&kind) {
        return Err(WireError::Malformed("frame kind"));
    }
    let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
    if len > max_body {
        return Err(WireError::FrameTooLarge(len));
    }
    Ok((kind, len))
}

/// Scans buffered bytes for one complete frame **without consuming input**:
/// the non-blocking read path appends socket bytes to a connection buffer
/// and repeatedly scans its front. Returns `Ok(None)` while the buffered
/// prefix is an incomplete frame, and `Ok(Some((kind, body_range)))` once a
/// full frame is present — the caller slices `buf[body_range]` for the body
/// and drains `body_range.end` bytes. A header outside `kinds` or announcing
/// more than `max_body` bytes is a terminal error as soon as its eight
/// bytes are visible, before any of the body is waited for.
pub fn scan_frame(
    buf: &[u8],
    kinds: &[u8],
    max_body: usize,
) -> Result<Option<(u8, std::ops::Range<usize>)>, WireError> {
    let Some(header) = buf.first_chunk::<FRAME_HEADER_LEN>() else {
        return Ok(None);
    };
    let (kind, len) = check_header(header, kinds, max_body)?;
    if buf.len() < FRAME_HEADER_LEN + len {
        return Ok(None);
    }
    Ok(Some((kind, FRAME_HEADER_LEN..FRAME_HEADER_LEN + len)))
}

/// A wire violation met on a blocking read: `InvalidData` carrying the
/// [`WireError`], so callers tell it from a transport failure by kind.
fn violation(e: WireError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

/// Blocking counterpart of [`scan_frame`]: reads one frame of `kinds` into
/// a reused body buffer, returning the frame kind. A hostile length prefix
/// is rejected before the buffer grows.
pub fn read_frame_into<R: Read>(
    r: &mut R,
    kinds: &[u8],
    body: &mut Vec<u8>,
) -> std::io::Result<u8> {
    let mut header = [0u8; FRAME_HEADER_LEN];
    r.read_exact(&mut header)?;
    let (kind, len) = check_header(&header, kinds, MAX_FRAME_LEN).map_err(violation)?;
    body.clear();
    body.resize(len, 0);
    r.read_exact(body)?;
    Ok(kind)
}

/// Reads one frame of `expected_kind` and decodes its body as `T`,
/// requiring the body to be consumed exactly.
pub fn read_decoded<R: Read, T: WireDecode>(r: &mut R, expected_kind: u8) -> std::io::Result<T> {
    let mut body = Vec::new();
    read_frame_into(r, &[expected_kind], &mut body)?;
    decode_exact(&body).map_err(violation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn hello_round_trips_through_a_frame() {
        let hello = Hello {
            node: NodeId::new(7),
            listen_port: 9_100,
        };
        let bytes = encode_frame(FRAME_KIND_HELLO, &hello);
        let mut cursor = Cursor::new(bytes);
        let back: Hello = read_decoded(&mut cursor, FRAME_KIND_HELLO).unwrap();
        assert_eq!(back, hello);
    }

    /// Reads one node-wire frame from `bytes`: the kind, or the wire
    /// violation that refused it. Transport errors are not expected.
    fn read_node_frame(bytes: Vec<u8>) -> Result<u8, WireError> {
        read_frame_into(&mut Cursor::new(bytes), &NODE_KINDS, &mut Vec::new()).map_err(|e| {
            let inner = e.into_inner().expect("a wire violation");
            *inner.downcast::<WireError>().expect("a wire violation")
        })
    }

    #[test]
    fn bad_magic_version_kind_and_oversize_are_rejected() {
        let good = encode_frame(
            FRAME_KIND_HELLO,
            &Hello {
                node: NodeId::new(1),
                listen_port: 1,
            },
        );

        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            read_node_frame(bad_magic),
            Err(WireError::BadMagic)
        ));

        let mut bad_version = good.clone();
        bad_version[2] = 99;
        assert!(matches!(
            read_node_frame(bad_version),
            Err(WireError::BadVersion(99))
        ));

        let mut bad_kind = good.clone();
        bad_kind[3] = 42;
        assert!(matches!(
            read_node_frame(bad_kind),
            Err(WireError::Malformed("frame kind"))
        ));

        // A length prefix over the cap is rejected without allocating; only
        // the header needs to be present.
        let mut oversized = good[..FRAME_HEADER_LEN].to_vec();
        oversized[4..8].copy_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_le_bytes());
        assert!(matches!(
            read_node_frame(oversized),
            Err(WireError::FrameTooLarge(_))
        ));
    }

    #[test]
    fn route_frame_scans_and_decodes() {
        let route = Route {
            from: NodeId::new(3),
            to: NodeId::new(9),
        };
        let bytes = route_frame(route);
        assert_eq!(bytes.len(), ROUTE_FRAME_LEN);
        // Byte-identical to the generic framing path.
        assert_eq!(bytes.to_vec(), encode_frame(FRAME_KIND_ROUTE, &route));
        let (kind, body) = scan_frame(&bytes, &NODE_KINDS, MAX_FRAME_LEN)
            .unwrap()
            .expect("complete frame");
        assert_eq!(kind, FRAME_KIND_ROUTE);
        assert_eq!(decode_exact::<Route>(&bytes[body]).unwrap(), route);
    }

    #[test]
    fn scan_frame_waits_for_complete_frames_and_rejects_bad_headers() {
        let scan = |buf: &[u8]| scan_frame(buf, &NODE_KINDS, MAX_FRAME_LEN);
        let route = route_frame(Route {
            from: NodeId::new(1),
            to: NodeId::new(2),
        });
        // Every proper prefix is "incomplete", never an error.
        for cut in 0..route.len() {
            assert!(matches!(scan(&route[..cut]), Ok(None)), "cut {cut}");
        }
        // Concatenated frames scan one at a time.
        let mut two = route.to_vec();
        two.extend_from_slice(&route);
        let (_, body) = scan(&two).unwrap().unwrap();
        assert_eq!(body.end, ROUTE_FRAME_LEN);
        assert!(scan(&two[body.end..]).unwrap().is_some());
        // A corrupt header is terminal as soon as it is visible.
        let mut bad = route;
        bad[2] = 77;
        assert!(matches!(
            scan(&bad[..FRAME_HEADER_LEN]),
            Err(WireError::BadVersion(77))
        ));
    }

    #[test]
    fn foreign_kinds_and_oversized_bodies_are_terminal_from_the_header_alone() {
        use atum_types::wire::{FRAME_KIND_EDGE_REQUEST, FRAME_KIND_EDGE_RESPONSE};
        const EDGE_KINDS: [u8; 1] = [FRAME_KIND_EDGE_REQUEST];
        // Only the eight header bytes are ever presented: the verdict comes
        // before a single body byte is buffered or allocated for.
        let header = |kind: u8, len: u32| {
            let mut h = frame_bytes(kind, &[]);
            h[4..8].copy_from_slice(&len.to_le_bytes());
            h
        };
        // The two wires share a header but not a vocabulary: edge kinds are
        // violations on a node connection, node kinds on a gateway's client
        // connection. Pinned so extending either protocol never silently
        // widens the other wire.
        for kind in [FRAME_KIND_EDGE_REQUEST, FRAME_KIND_EDGE_RESPONSE] {
            assert!(matches!(
                scan_frame(&header(kind, 4), &NODE_KINDS, MAX_FRAME_LEN),
                Err(WireError::Malformed("frame kind"))
            ));
            assert!(matches!(
                read_node_frame(frame_bytes(kind, &[0u8; 4])),
                Err(WireError::Malformed("frame kind"))
            ));
        }
        for kind in NODE_KINDS {
            assert!(matches!(
                scan_frame(&header(kind, 4), &EDGE_KINDS, 1024),
                Err(WireError::Malformed("frame kind"))
            ));
        }
        // The body cap is the caller's, not only the wire's.
        assert!(matches!(
            scan_frame(&header(FRAME_KIND_EDGE_REQUEST, 1025), &EDGE_KINDS, 1024),
            Err(WireError::FrameTooLarge(1025))
        ));
        assert!(matches!(
            scan_frame(&header(FRAME_KIND_EDGE_REQUEST, 1024), &EDGE_KINDS, 1024),
            Ok(None)
        ));
    }

    #[test]
    fn truncated_frames_surface_as_io_errors() {
        let good = encode_frame(
            FRAME_KIND_HELLO,
            &Hello {
                node: NodeId::new(1),
                listen_port: 1,
            },
        );
        for cut in [1, FRAME_HEADER_LEN - 1, good.len() - 1] {
            let mut cursor = Cursor::new(good[..cut].to_vec());
            let r = read_frame_into(&mut cursor, &NODE_KINDS, &mut Vec::new());
            assert_eq!(
                r.unwrap_err().kind(),
                std::io::ErrorKind::UnexpectedEof,
                "cut at {cut}"
            );
        }
    }
}
