//! Length-prefixed wire frames carrying one `tfe-encode` value each.
//!
//! Every coordinator↔worker exchange is one [`Frame`] each way. The binary
//! layout (version 2) is a fixed 34-byte header followed by the body in
//! `tfe-encode`'s binary syntax:
//!
//! ```text
//! offset  size  field
//!      0     4  magic  b"TFEW"
//!      4     1  version (currently 2)
//!      5     1  flags   (bit 0: trace ids present)
//!      6     8  call id (little-endian u64)
//!     14     8  trace id  (LE u64; zero unless flag bit 0)
//!     22     8  span id   (LE u64; zero unless flag bit 0)
//!     30     4  payload length (LE u32, bounded by MAX_FRAME_LEN)
//!     34   len  payload: `Value::to_bytes` of the body
//! ```
//!
//! A tensor in the body is a `{dtype, shape, data}` object whose `data` is a
//! bytes leaf, so its elements sit in the payload once, raw and
//! length-prefixed (`tfe_graph::serial::tensor_to_value` owns that layout;
//! this module only moves values). Version 1 carried the body as JSON text
//! and is refused with [`WireError::UnsupportedVersion`].
//!
//! The trace ids carry the coordinator's `(trace_id, span_id)` so workers
//! can continue the request's causal arc via `tfe_profile::adopt_remote`
//! (DESIGN.md §16). Decoding is hardened: checked length reads everywhere,
//! a max-frame-size guard before any allocation, bounded nesting, and typed
//! [`WireError`]s instead of panics — `tests/wire_hardening.rs` fuzzes every
//! one-byte mutation and truncation of valid frames against this decoder.

use std::io::{Read, Write};
use std::time::Instant;
use tfe_encode::Value;

/// Frame magic: the first four bytes of every frame.
pub const MAGIC: [u8; 4] = *b"TFEW";

/// Current wire protocol version.
pub const VERSION: u8 = 2;

/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 34;

/// Upper bound on the payload of one frame (guards the decoder's
/// allocation against a corrupt or hostile length field).
pub const MAX_FRAME_LEN: usize = 64 << 20;

const FLAG_TRACE: u8 = 1;

/// Header offsets of the call id and the payload length.
const CALL_ID_AT: usize = 6;
const LEN_AT: usize = 30;

/// Give an encoded frame a new call id, so that a retry re-sends the bytes
/// of the first attempt instead of encoding the body again.
pub(crate) fn set_call_id(encoded: &mut [u8], call_id: u64) {
    encoded[CALL_ID_AT..CALL_ID_AT + 8].copy_from_slice(&call_id.to_le_bytes());
}

/// One request or response on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Correlates a response with its request; chosen by the caller.
    pub call_id: u64,
    /// The sender's `(trace_id, span_id)`, if a request scope is active —
    /// the receiver rebuilds the causal chain with `adopt_remote`.
    pub trace: Option<(u64, u64)>,
    /// The body (protocol-level request or response).
    pub body: Value,
}

/// Typed frame decode/transfer failures — the decoder never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The first four bytes were not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The version byte named a protocol this build does not speak.
    UnsupportedVersion(u8),
    /// The input ended before the declared structure was complete.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The length field exceeded [`MAX_FRAME_LEN`].
    Oversized {
        /// Declared payload length.
        len: usize,
        /// The enforced bound.
        max: usize,
    },
    /// Bytes remained after a complete frame (buffer decode only).
    Trailing {
        /// Number of unconsumed bytes.
        extra: usize,
    },
    /// The payload was not one well-formed value.
    Payload(String),
    /// A socket read/write hit its timeout.
    TimedOut,
    /// The peer hung up (EOF, reset, broken pipe).
    Disconnected(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Truncated { needed, got } => {
                write!(f, "truncated frame: needed {needed} bytes, got {got}")
            }
            WireError::Oversized { len, max } => {
                write!(f, "oversized frame: payload {len} bytes exceeds max {max}")
            }
            WireError::Trailing { extra } => write!(f, "{extra} trailing bytes after frame"),
            WireError::Payload(msg) => write!(f, "bad frame payload: {msg}"),
            WireError::TimedOut => write!(f, "wire read/write timed out"),
            WireError::Disconnected(msg) => write!(f, "peer disconnected: {msg}"),
        }
    }
}

impl std::error::Error for WireError {}

fn io_err(e: std::io::Error) -> WireError {
    match e.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => WireError::TimedOut,
        std::io::ErrorKind::UnexpectedEof => WireError::Disconnected("eof".to_string()),
        _ => WireError::Disconnected(e.to_string()),
    }
}

impl Frame {
    /// Build a request/response frame.
    pub fn new(call_id: u64, trace: Option<(u64, u64)>, body: Value) -> Frame {
        Frame { call_id, trace, body }
    }

    /// Serialize to header + payload bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(if self.trace.is_some() { FLAG_TRACE } else { 0 });
        out.extend_from_slice(&self.call_id.to_le_bytes());
        let (t, s) = self.trace.unwrap_or((0, 0));
        out.extend_from_slice(&t.to_le_bytes());
        out.extend_from_slice(&s.to_le_bytes());
        out.extend_from_slice(&[0; 4]);
        self.body.write_bytes(&mut out);
        // A payload past u32 saturates, and every receiver refuses that
        // length as `Oversized` rather than reading a wrapped one.
        let len = u32::try_from(out.len() - HEADER_LEN).unwrap_or(u32::MAX);
        out[LEN_AT..HEADER_LEN].copy_from_slice(&len.to_le_bytes());
        out
    }

    /// Decode a frame from a complete buffer; trailing bytes are an error.
    ///
    /// # Errors
    /// Any [`WireError`]; never panics, whatever the input.
    pub fn decode(bytes: &[u8]) -> Result<Frame, WireError> {
        let (frame, used) = Frame::decode_prefix(bytes)?;
        if used != bytes.len() {
            return Err(WireError::Trailing { extra: bytes.len() - used });
        }
        Ok(frame)
    }

    /// Decode one frame from the front of `bytes`, returning the frame and
    /// the number of bytes consumed.
    ///
    /// # Errors
    /// Any [`WireError`]; never panics, whatever the input.
    pub fn decode_prefix(bytes: &[u8]) -> Result<(Frame, usize), WireError> {
        if bytes.len() < HEADER_LEN {
            return Err(WireError::Truncated { needed: HEADER_LEN, got: bytes.len() });
        }
        let header: [u8; HEADER_LEN] = bytes[..HEADER_LEN].try_into().expect("length checked");
        let len = parse_header(&header)?;
        let total = HEADER_LEN + len;
        if bytes.len() < total {
            return Err(WireError::Truncated { needed: total, got: bytes.len() });
        }
        let frame = assemble(&header, &bytes[HEADER_LEN..total])?;
        Ok((frame, total))
    }

    /// The `(trace_id, span_id)` to stamp on an outgoing frame: the current
    /// thread's request context, if any.
    pub fn current_trace() -> Option<(u64, u64)> {
        tfe_profile::current_context().map(|c| (c.trace_id, c.span_id))
    }
}

/// Validate the fixed header and return the declared payload length.
fn parse_header(header: &[u8; HEADER_LEN]) -> Result<usize, WireError> {
    if header[..4] != MAGIC {
        return Err(WireError::BadMagic(header[..4].try_into().expect("length checked")));
    }
    if header[4] != VERSION {
        return Err(WireError::UnsupportedVersion(header[4]));
    }
    let len = u32::from_le_bytes(header[LEN_AT..].try_into().expect("length checked")) as usize;
    if len > MAX_FRAME_LEN {
        return Err(WireError::Oversized { len, max: MAX_FRAME_LEN });
    }
    Ok(len)
}

fn assemble(header: &[u8; HEADER_LEN], payload: &[u8]) -> Result<Frame, WireError> {
    let flags = header[5];
    let call_id =
        u64::from_le_bytes(header[CALL_ID_AT..CALL_ID_AT + 8].try_into().expect("length checked"));
    let trace = if flags & FLAG_TRACE != 0 {
        Some((
            u64::from_le_bytes(header[14..22].try_into().expect("length checked")),
            u64::from_le_bytes(header[22..30].try_into().expect("length checked")),
        ))
    } else {
        None
    };
    let body = Value::from_bytes(payload).map_err(|e| WireError::Payload(e.to_string()))?;
    Ok(Frame { call_id, trace, body })
}

/// Write one frame to a stream.
///
/// # Errors
/// [`WireError::TimedOut`] / [`WireError::Disconnected`] from the sink.
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    let bytes = frame.encode();
    w.write_all(&bytes).map_err(io_err)?;
    w.flush().map_err(io_err)?;
    Ok(())
}

/// Read one complete frame from a stream with checked length reads.
///
/// `idle_probe`: when `true`, a timeout on the *first* byte returns
/// `Ok(None)` ("no request yet") instead of an error — worker serve loops
/// use this to poll for shutdown between requests. A timeout after any
/// byte has arrived is always [`WireError::TimedOut`] (a torn frame), and
/// EOF is always [`WireError::Disconnected`].
///
/// On success returns the frame plus the total number of wire bytes it
/// occupied (header + payload).
///
/// # Errors
/// Any [`WireError`]; never panics.
pub fn read_frame(
    r: &mut impl Read,
    idle_probe: bool,
) -> Result<Option<(Frame, usize)>, WireError> {
    let mut header = [0u8; HEADER_LEN];
    let mut filled = 0usize;
    while filled < HEADER_LEN {
        match r.read(&mut header[filled..]) {
            Ok(0) => return Err(WireError::Disconnected("eof".to_string())),
            Ok(n) => filled += n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if filled == 0 && idle_probe {
                    return Ok(None);
                }
                return Err(WireError::TimedOut);
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err(e)),
        }
    }
    let len = parse_header(&header)?;
    let mut payload = vec![0u8; len];
    let mut filled = 0usize;
    while filled < len {
        match r.read(&mut payload[filled..]) {
            Ok(0) => return Err(WireError::Disconnected("eof mid-payload".to_string())),
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_err(e)),
        }
    }
    assemble(&header, &payload).map(|f| Some((f, HEADER_LEN + len)))
}

/// Remaining time before `deadline`, or `None` if it already passed.
pub(crate) fn remaining(deadline: Instant) -> Option<std::time::Duration> {
    let now = Instant::now();
    if now >= deadline {
        None
    } else {
        Some(deadline - now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Frame {
        Frame::new(
            42,
            Some((7, 9)),
            Value::object([
                ("type".to_string(), Value::str("ping")),
                ("n".to_string(), Value::Int(3)),
            ]),
        )
    }

    #[test]
    fn round_trip() {
        let f = sample();
        let bytes = f.encode();
        assert_eq!(Frame::decode(&bytes).unwrap(), f);
        // Without trace ids.
        let g = Frame::new(1, None, Value::Null);
        assert_eq!(Frame::decode(&g.encode()).unwrap(), g);
    }

    #[test]
    fn typed_errors_not_panics() {
        assert!(matches!(Frame::decode(b""), Err(WireError::Truncated { .. })));
        assert!(matches!(Frame::decode(b"XXXX"), Err(WireError::Truncated { .. })));
        let mut bytes = sample().encode();
        bytes[0] = b'Z';
        assert!(matches!(Frame::decode(&bytes), Err(WireError::BadMagic(_))));
        let mut bytes = sample().encode();
        bytes[4] = 99;
        assert!(matches!(Frame::decode(&bytes), Err(WireError::UnsupportedVersion(99))));
    }

    #[test]
    fn oversized_guard_before_allocation() {
        let mut bytes = sample().encode();
        let huge = (MAX_FRAME_LEN as u32 + 1).to_le_bytes();
        bytes[30..34].copy_from_slice(&huge);
        assert!(matches!(Frame::decode(&bytes), Err(WireError::Oversized { .. })));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = sample().encode();
        bytes.push(0);
        assert!(matches!(Frame::decode(&bytes), Err(WireError::Trailing { extra: 1 })));
    }

    #[test]
    fn stream_read_matches_buffer_decode() {
        let f = sample();
        let bytes = f.encode();
        let total = bytes.len();
        let mut cursor = std::io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor, false).unwrap(), Some((f, total)));
    }
}
