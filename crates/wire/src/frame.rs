//! Framing: magic + length prefix over `io::Read` / `io::Write`.
//!
//! A frame is `[MAGIC (4 bytes)][payload length (u32 BE)][payload]`. The
//! length is validated against [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN)
//! *before* the payload buffer is allocated, so a hostile length prefix
//! cannot OOM the receiver, and a wrong magic fails before the length is
//! even read.

use crate::{WireError, MAGIC, MAX_FRAME_LEN};
use std::io::{Read, Write};

/// Writes one frame (magic, length, payload) in a single `write_all`
/// and flushes.
///
/// One write means one syscall (and, with `TCP_NODELAY`, one segment)
/// per frame on an unbuffered stream, and a frame is never split across
/// Nagle-delayed segments that a close could discard.
///
/// # Errors
///
/// [`WireError::TooLarge`] when the payload exceeds
/// [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN); [`WireError::Io`] on stream
/// failure.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> Result<(), WireError> {
    let len = u64::try_from(payload.len()).unwrap_or(u64::MAX);
    if len > u64::from(MAX_FRAME_LEN) {
        return Err(WireError::TooLarge {
            context: "frame payload",
            len,
            max: u64::from(MAX_FRAME_LEN),
        });
    }
    let mut frame = Vec::with_capacity(payload.len() + 8);
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame, returning its payload.
///
/// # Errors
///
/// [`WireError::BadMagic`] when the stream does not start with [`MAGIC`];
/// [`WireError::TooLarge`] for a length prefix beyond
/// [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN); [`WireError::Io`] on stream
/// failure (an `UnexpectedEof` before any magic byte is the peer closing
/// between frames — see [`WireError::is_disconnect`]).
pub fn read_frame<R: Read>(r: &mut R) -> Result<Vec<u8>, WireError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != MAGIC {
        return Err(WireError::BadMagic { found: magic });
    }
    let mut len_bytes = [0u8; 4];
    r.read_exact(&mut len_bytes)?;
    let len = u32::from_be_bytes(len_bytes);
    if len > MAX_FRAME_LEN {
        return Err(WireError::TooLarge {
            context: "frame payload",
            len: u64::from(len),
            max: u64::from(MAX_FRAME_LEN),
        });
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello frames").unwrap();
        let payload = read_frame(&mut buf.as_slice()).unwrap();
        assert_eq!(payload, b"hello frames");
    }

    #[test]
    fn empty_payload_round_trips() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"").unwrap();
        assert_eq!(read_frame(&mut buf.as_slice()).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn back_to_back_frames() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"one").unwrap();
        write_frame(&mut buf, b"two").unwrap();
        let mut cursor = buf.as_slice();
        assert_eq!(read_frame(&mut cursor).unwrap(), b"one");
        assert_eq!(read_frame(&mut cursor).unwrap(), b"two");
        // A third read is a clean disconnect.
        assert!(read_frame(&mut cursor).unwrap_err().is_disconnect());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = b"HTTP/1.1 200 OK\r\n".to_vec();
        buf.resize(64, 0);
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::BadMagic { found } if &found == b"HTTP"));
    }

    #[test]
    fn oversized_length_prefix_rejected_without_allocation() {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        let err = read_frame(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::TooLarge { .. }));
        // u32::MAX likewise.
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(
            read_frame(&mut buf.as_slice()),
            Err(WireError::TooLarge { .. })
        ));
    }

    #[test]
    fn truncated_frames_error_not_panic() {
        let mut full = Vec::new();
        write_frame(&mut full, b"payload bytes").unwrap();
        for cut in 0..full.len() {
            let err = read_frame(&mut &full[..cut]).unwrap_err();
            assert!(matches!(err, WireError::Io(_)), "cut at {cut}: {err}");
        }
    }

    #[test]
    fn oversized_write_refused() {
        // Construct a frame just past the cap without allocating 4 GiB:
        // the check happens before any write.
        let payload = vec![0u8; MAX_FRAME_LEN as usize + 1];
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame(&mut sink, &payload),
            Err(WireError::TooLarge { .. })
        ));
        assert!(sink.is_empty());
    }
}
