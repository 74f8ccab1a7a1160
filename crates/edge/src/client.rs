//! A minimal blocking client for the edge protocol, used by the tests,
//! the benchmark drivers and the examples. Production clients can speak
//! the protocol from any language — it is length-prefixed frames of
//! [`EdgeRequest`]/[`EdgeResponse`] — but everything in-repo goes through
//! this one implementation.

use atum_net::frame;
use atum_types::edge::{EdgeRequest, EdgeResponse};
use atum_types::wire::{FRAME_KIND_EDGE_REQUEST, FRAME_KIND_EDGE_RESPONSE};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A blocking edge-protocol connection.
pub struct EdgeClient {
    stream: TcpStream,
}

impl std::fmt::Debug for EdgeClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EdgeClient").finish()
    }
}

/// Frames one [`EdgeRequest`] for the wire (public so tests can build
/// corrupted variants from a known-good frame).
pub fn request_frame(req: &EdgeRequest) -> Vec<u8> {
    frame::encode_frame(FRAME_KIND_EDGE_REQUEST, req)
}

impl EdgeClient {
    /// Connects to a gateway, with `timeout` applied to the connect and to
    /// every subsequent read.
    pub fn connect(addr: SocketAddr, timeout: Duration) -> std::io::Result<EdgeClient> {
        let stream = TcpStream::connect_timeout(&addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        let _ = stream.set_nodelay(true);
        Ok(EdgeClient { stream })
    }

    /// Sends one request without waiting for its response (pipelining).
    pub fn send(&mut self, req: &EdgeRequest) -> std::io::Result<()> {
        self.stream.write_all(&request_frame(req))
    }

    /// Reads the next response frame.
    pub fn recv(&mut self) -> std::io::Result<EdgeResponse> {
        frame::read_decoded(&mut self.stream, FRAME_KIND_EDGE_RESPONSE)
    }

    /// Sends one request and waits for its response.
    pub fn request(&mut self, req: &EdgeRequest) -> std::io::Result<EdgeResponse> {
        self.send(req)?;
        self.recv()
    }
}
