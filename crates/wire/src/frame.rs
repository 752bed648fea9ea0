//! Per-message framing: a 4-byte little-endian length prefix followed by
//! the payload.
//!
//! ```text
//!  ┌────────────┬─────────────────────────────┐
//!  │ len: u32 LE│ payload (len bytes)         │
//!  └────────────┴─────────────────────────────┘
//! ```
//!
//! The prefix lets both peers read exactly one message per call without any
//! in-band delimiters; [`MAX_FRAME_LEN`] bounds the allocation a malformed
//! or hostile prefix could cause.
//!
//! A frame leaves in **one** write: prefix and payload sit in one buffer
//! (built in place by `write_prefixed`'s callers, who reserve the prefix
//! bytes ahead of the payload). Together with `TCP_NODELAY`, which both
//! ends of every connection set, that makes each message one segment.
//! Written as two, the lone prefix goes out first and Nagle holds the
//! payload until the peer's delayed ACK — about 40 ms per message.

use std::io::{self, Read, Write};

/// Upper bound on a frame payload (64 MiB). The largest legitimate message
/// is a naive-baseline fragment shipment; anything bigger than this is a
/// corrupted length prefix, not data.
pub const MAX_FRAME_LEN: usize = 64 << 20;

/// Length of the frame prefix: the bytes a frame buffer reserves ahead of
/// its payload.
pub(crate) const PREFIX_LEN: usize = 4;

/// Write one length-prefixed frame in a single write and flush it.
pub fn write_frame(writer: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(PREFIX_LEN + payload.len());
    frame.extend_from_slice(&[0; PREFIX_LEN]);
    frame.extend_from_slice(payload);
    write_prefixed(writer, &mut frame)
}

/// Write a frame built in place and flush it: `frame` holds [`PREFIX_LEN`]
/// reserved bytes (panics if it is shorter) followed by the payload. The
/// prefix is patched with the payload length and the whole frame goes out
/// in one `write_all`.
pub(crate) fn write_prefixed(writer: &mut impl Write, frame: &mut [u8]) -> io::Result<()> {
    let len = frame.len().checked_sub(PREFIX_LEN).expect("a frame buffer starts with its prefix");
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    frame[..PREFIX_LEN].copy_from_slice(&(len as u32).to_le_bytes());
    writer.write_all(frame)?;
    writer.flush()
}

/// Read one length-prefixed frame.
pub fn read_frame(reader: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut prefix = [0u8; PREFIX_LEN];
    reader.read_exact(&mut prefix)?;
    let len = u32::from_le_bytes(prefix) as usize;
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"),
        ));
    }
    let mut payload = vec![0u8; len];
    reader.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    #[test]
    fn frames_roundtrip_over_a_buffer() {
        let mut pipe = Vec::new();
        write_frame(&mut pipe, b"hello").unwrap();
        write_frame(&mut pipe, b"").unwrap();
        write_frame(&mut pipe, &[0xff; 300]).unwrap();
        let mut cursor = io::Cursor::new(pipe);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"");
        assert_eq!(read_frame(&mut cursor).unwrap(), vec![0xff; 300]);
        // The stream is exhausted: the next read reports a clean EOF.
        assert_eq!(read_frame(&mut cursor).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }

    /// Counts `write` calls and keeps the bytes, so a test can see how many
    /// pieces a frame left in.
    #[derive(Default)]
    pub(crate) struct CountingWriter {
        pub(crate) writes: usize,
        pub(crate) bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_is_one_write_in_the_prefix_then_payload_layout() {
        for payload in [&b""[..], b"hello", &[0xab; 300]] {
            let mut writer = CountingWriter::default();
            write_frame(&mut writer, payload).unwrap();
            assert_eq!(writer.writes, 1, "a {}-byte payload took several writes", payload.len());
            let mut expected = (payload.len() as u32).to_le_bytes().to_vec();
            expected.extend_from_slice(payload);
            assert_eq!(writer.bytes, expected);
        }
    }

    #[test]
    fn an_oversized_frame_is_refused_before_any_write() {
        let mut writer = CountingWriter::default();
        let mut frame = vec![0u8; PREFIX_LEN + MAX_FRAME_LEN + 1];
        let err = write_prefixed(&mut writer, &mut frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(writer.writes, 0);
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&(u32::MAX).to_le_bytes());
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).unwrap_err().kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_payload_is_an_eof() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&8u32.to_le_bytes());
        bytes.extend_from_slice(b"shor");
        let mut cursor = io::Cursor::new(bytes);
        assert_eq!(read_frame(&mut cursor).unwrap_err().kind(), io::ErrorKind::UnexpectedEof);
    }
}
