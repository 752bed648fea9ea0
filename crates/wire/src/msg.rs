//! The coordinator↔site control envelope and its framed send/receive
//! helpers.
//!
//! A [`WireRequest::Round`] carries the *pre-encoded* protocol message as a
//! byte body rather than the typed value: the coordinator charges its
//! traffic meters with exactly `body.len()` bytes, and the reply's body is
//! charged the same way — so the envelope (handshake, tags, the ops/busy
//! meters riding along) is free, precisely like the simulator, which
//! charges `encoded_size` of the protocol message and nothing else.

use crate::codec::{self, CodecError};
use crate::frame;
use paxml_distsim::SiteId;
use paxml_fragment::Fragment;
use serde::{Deserialize, Serialize};
use std::io::{self, Read, Write};

/// A coordinator→site control message.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WireRequest {
    /// Handshake: tell the site which [`SiteId`] it plays.
    Hello {
        /// The identity this site assumes.
        site: SiteId,
    },
    /// Install fragments at the site (during deployment).
    Load {
        /// The fragments this site will own.
        fragments: Vec<Fragment>,
    },
    /// One protocol round: `body` is an encoded
    /// [`ProtocolRequest`](paxml_core::ProtocolRequest).
    Round {
        /// The encoded protocol request; its length is the metered
        /// request traffic.
        body: Vec<u8>,
    },
    /// Ask how many scratch entries are parked (test instrumentation).
    ScratchLen,
    /// Ask what the site currently stores (control-plane observability for
    /// the rebalance planner; uncharged, like `ScratchLen`).
    SiteLoad,
    /// Clear all scratch state (between independent executions).
    Reset,
    /// Clean shutdown: the site replies [`WireReply::ShuttingDown`] and
    /// exits its accept loop.
    Shutdown,
}

/// A site→coordinator reply, one variant per [`WireRequest`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum WireReply {
    /// Handshake acknowledged.
    Hello {
        /// The identity the site assumed.
        site: SiteId,
    },
    /// Fragments installed.
    Loaded {
        /// How many fragments the site now owns.
        fragments: usize,
    },
    /// A protocol round's outcome.
    Round {
        /// Elementary operations the task charged (the paper's computation
        /// meter — identical to what the simulator would have charged).
        ops: u64,
        /// Wall-clock nanoseconds the site spent in the task.
        busy_nanos: u64,
        /// The encoded [`ProtocolResponse`](paxml_core::ProtocolResponse);
        /// its length is the metered response traffic.
        body: Vec<u8>,
    },
    /// Current scratch-store size.
    ScratchLen {
        /// Number of parked scratch entries.
        len: usize,
    },
    /// What the site currently stores.
    SiteLoad {
        /// Per-fragment resident bytes at the site's newest epoch.
        report: paxml_distsim::SiteLoadReport,
    },
    /// Scratch state cleared.
    ResetDone,
    /// The site is exiting its accept loop.
    ShuttingDown,
    /// The request could not be served (decode failure, task panic). The
    /// connection stays usable; the coordinator surfaces this as a
    /// protocol-violation error.
    Error {
        /// Human-readable description of what went wrong site-side.
        message: String,
    },
}

/// Encode `message` and write it as one frame, in one write.
pub fn send<T: Serialize>(writer: &mut impl Write, message: &T) -> io::Result<()> {
    let mut frame = vec![0; frame::PREFIX_LEN];
    codec::encode_into(&mut frame, message);
    frame::write_prefixed(writer, &mut frame)
}

/// Room a [`send_with_body`] frame reserves ahead of the body: the frame
/// prefix plus the largest envelope header — a one-byte tag and up to three
/// u64 varints of at most 10 bytes each (`ops`, `busy_nanos`, body length).
const HEADROOM: usize = frame::PREFIX_LEN + 1 + 3 * 10;

/// Send `envelope(body)` as one frame in one write, where `body` is the
/// encoding of `value` — the same bytes as
/// `send(writer, &envelope(codec::encode(value)))`, without encoding `value`
/// into a vector of its own and copying it into the envelope.
///
/// `value` is encoded straight into the frame buffer behind [`HEADROOM`]
/// reserved bytes; the envelope's header is then written right before it.
/// `envelope` must hold the body as its last field, as [`WireRequest::Round`]
/// and [`WireReply::Round`] do. Returns the body's encoded length: the
/// metered traffic.
pub(crate) fn send_with_body<T: Serialize, E: Serialize>(
    writer: &mut impl Write,
    value: &T,
    envelope: impl FnOnce(Vec<u8>) -> E,
) -> io::Result<usize> {
    let mut frame = vec![0; HEADROOM];
    codec::encode_into(&mut frame, value);
    let body_len = frame.len() - HEADROOM;
    // Around an empty body the envelope ends in that body's length varint,
    // a single zero byte: swap it for the real length.
    let mut header = codec::encode(&envelope(Vec::new()));
    assert_eq!(header.pop(), Some(0), "the envelope must end in its body");
    codec::encode_into(&mut header, &(body_len as u64));
    let start = HEADROOM - header.len();
    frame[start..HEADROOM].copy_from_slice(&header);
    frame::write_prefixed(writer, &mut frame[start - frame::PREFIX_LEN..])?;
    Ok(body_len)
}

/// Read one frame and decode it as a `T`.
pub fn recv<T: for<'de> Deserialize<'de>>(reader: &mut impl Read) -> io::Result<T> {
    let payload = frame::read_frame(reader)?;
    codec::decode(&payload).map_err(invalid_data)
}

/// Map a codec failure onto the io error domain the socket paths live in.
fn invalid_data(err: CodecError) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::tests::CountingWriter;

    #[test]
    fn the_envelope_roundtrips_over_a_buffer() {
        let mut pipe = Vec::new();
        send(&mut pipe, &WireRequest::Hello { site: SiteId(3) }).unwrap();
        send(&mut pipe, &WireRequest::Round { body: vec![1, 2, 3] }).unwrap();
        send(&mut pipe, &WireRequest::Shutdown).unwrap();
        let mut cursor = io::Cursor::new(pipe);
        assert!(matches!(
            recv::<WireRequest>(&mut cursor).unwrap(),
            WireRequest::Hello { site: SiteId(3) }
        ));
        assert!(
            matches!(recv::<WireRequest>(&mut cursor).unwrap(), WireRequest::Round { body } if body == vec![1, 2, 3])
        );
        assert!(matches!(recv::<WireRequest>(&mut cursor).unwrap(), WireRequest::Shutdown));
    }

    #[test]
    fn a_message_is_one_write_in_the_prefix_then_payload_layout() {
        for body in [vec![], vec![7u8; 5], vec![0xab; 300]] {
            let message = WireRequest::Round { body };
            let mut writer = CountingWriter::default();
            send(&mut writer, &message).unwrap();
            assert_eq!(writer.writes, 1);
            let mut expected = Vec::new();
            frame::write_frame(&mut expected, &codec::encode(&message)).unwrap();
            assert_eq!(writer.bytes, expected);
        }
    }

    #[test]
    fn an_in_place_body_is_one_write_with_the_bytes_of_a_copied_one() {
        for body in [vec![], vec![7u8; 5], vec![0xab; 300]] {
            // Large meters exercise the widest envelope header.
            for (ops, busy_nanos) in [(0, 0), (17, 123_456), (u64::MAX, u64::MAX)] {
                let reply = |body| WireReply::Round { ops, busy_nanos, body };
                let mut writer = CountingWriter::default();
                let len = send_with_body(&mut writer, &body, reply).unwrap();
                assert_eq!(writer.writes, 1);
                assert_eq!(len, codec::encode(&body).len());
                let mut expected = Vec::new();
                send(&mut expected, &reply(codec::encode(&body))).unwrap();
                assert_eq!(writer.bytes, expected);
            }
            let mut writer = CountingWriter::default();
            send_with_body(&mut writer, &body, |body| WireRequest::Round { body }).unwrap();
            assert_eq!(writer.writes, 1);
            let mut expected = Vec::new();
            send(&mut expected, &WireRequest::Round { body: codec::encode(&body) }).unwrap();
            assert_eq!(writer.bytes, expected);
        }
    }

    #[test]
    fn a_garbage_frame_decodes_to_invalid_data() {
        let mut pipe = Vec::new();
        frame::write_frame(&mut pipe, &[0xee, 0xee, 0xee]).unwrap();
        let mut cursor = io::Cursor::new(pipe);
        assert_eq!(recv::<WireReply>(&mut cursor).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }
}
