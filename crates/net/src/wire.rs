//! Length-prefixed wire format of the process backend.
//!
//! Every frame on a `ProcEngine` connection is
//!
//! ```text
//! [u32 LE payload-length][payload]
//! payload = [u64 LE sequence][u8 tag][tag-specific fields, all LE]
//! ```
//!
//! The sequence number ties a reply to its request on a connection (replies
//! come back in request order, one per request, so this is a cheap
//! cross-check, not a demultiplexer). Variable-length fields
//! (PUT payloads, handler arguments, error strings) are `u32`
//! length-prefixed within the payload. Decoding is strict: truncated
//! frames, trailing bytes, unknown tags, and over-length frames are all
//! [`WireError`]s, never panics — a malformed peer must not take the
//! progress service down.
//!
//! A frame costs one syscall in each direction: [`encode_frame`] appends
//! prefix and payload to one buffer (several frames can share it and leave
//! in a single `write`), and [`read_msg_opt`] reads through a
//! [`std::io::BufRead`] — a `BufReader` of [`READ_BUF`] bytes per
//! connection — so prefix and payload arrive in one `read` and a frame that
//! fits the buffer is decoded in place.

use std::io::{self, BufRead, ErrorKind};

use pgas_sim::SymOp64;

/// Upper bound on a frame payload, bounding a malicious or corrupt length
/// prefix. Large enough for any symmetric-heap PUT the bench issues.
pub const MAX_FRAME: usize = 1 << 20;

/// Capacity of a connection's read buffer: several of the small frames the
/// symmetric-heap operations exchange, and a fixed cost per connection.
pub const READ_BUF: usize = 4096;

/// One message of the process-backend protocol: requests carry a
/// symmetric-heap or handler descriptor, replies carry the result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Msg {
    /// 64-bit atomic descriptor against the receiver's symmetric heap.
    Atomic64 {
        /// Byte offset of the word.
        offset: u64,
        /// The operation (see [`SymOp64`]).
        op: SymOp64,
    },
    /// 128-bit compare-and-swap on a wide seqlock cell.
    Dcas {
        /// Byte offset of the 24-byte cell.
        offset: u64,
        /// Compare value.
        expected: u128,
        /// Swap value.
        new: u128,
    },
    /// One-sided GET of `len` bytes at `offset`.
    Get {
        /// Byte offset.
        offset: u64,
        /// Bytes to read.
        len: u32,
    },
    /// One-sided PUT of `data` at `offset`.
    Put {
        /// Byte offset.
        offset: u64,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// Invoke registered handler `id` with `args` (see
    /// [`pgas_sim::handlers`]).
    Handler {
        /// Registered handler index.
        id: u32,
        /// Serialized arguments.
        args: Vec<u8>,
    },
    /// Reply to [`Msg::Atomic64`]: the word's previous value.
    ReplyU64(u64),
    /// Reply to [`Msg::Dcas`].
    ReplyDcas {
        /// Whether the compare succeeded.
        ok: bool,
        /// The cell's previous value.
        current: u128,
    },
    /// Reply to [`Msg::Get`] or [`Msg::Handler`]: the payload bytes.
    ReplyBytes(Vec<u8>),
    /// Reply to [`Msg::Put`].
    ReplyUnit,
    /// The remote handler panicked; the requester re-panics with the
    /// message (mirroring the simulator's panic propagation).
    ReplyErr(String),
}

/// Decoding failure (see the module docs; encoding cannot fail).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The payload ended before the message did.
    Truncated,
    /// Bytes remained after the message — an over-length frame.
    TrailingBytes,
    /// Unknown message or operation tag.
    BadTag(u8),
    /// A length field exceeded [`MAX_FRAME`].
    TooLong(usize),
    /// An error string was not UTF-8.
    BadUtf8,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "frame truncated"),
            WireError::TrailingBytes => write!(f, "frame longer than its message"),
            WireError::BadTag(t) => write!(f, "unknown wire tag {t}"),
            WireError::TooLong(n) => write!(f, "length field {n} exceeds MAX_FRAME"),
            WireError::BadUtf8 => write!(f, "error string is not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u128(out: &mut Vec<u8>, v: u128) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(out: &mut Vec<u8>, data: &[u8]) {
    put_u32(out, data.len() as u32);
    out.extend_from_slice(data);
}

/// Encode `(seq, msg)` into a frame payload (without the outer length
/// prefix; [`encode_frame`] adds it).
pub fn encode_payload(seq: u64, msg: &Msg) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_payload(&mut out, seq, msg);
    out
}

/// Append one whole frame — length prefix, then payload — to `out`.
pub fn encode_frame(out: &mut Vec<u8>, seq: u64, msg: &Msg) {
    let prefix = out.len();
    put_u32(out, 0);
    put_payload(out, seq, msg);
    let len = out.len() - prefix - 4;
    debug_assert!(len <= MAX_FRAME);
    out[prefix..prefix + 4].copy_from_slice(&(len as u32).to_le_bytes());
}

fn put_payload(out: &mut Vec<u8>, seq: u64, msg: &Msg) {
    put_u64(out, seq);
    match msg {
        Msg::Atomic64 { offset, op } => {
            out.push(0);
            put_u64(out, *offset);
            let (optag, a, b) = match *op {
                SymOp64::Load => (0u8, 0, 0),
                SymOp64::Store(v) => (1, v, 0),
                SymOp64::FetchAdd(v) => (2, v, 0),
                SymOp64::Exchange(v) => (3, v, 0),
                SymOp64::Cas { expected, new } => (4, expected, new),
            };
            out.push(optag);
            put_u64(out, a);
            put_u64(out, b);
        }
        Msg::Dcas {
            offset,
            expected,
            new,
        } => {
            out.push(1);
            put_u64(out, *offset);
            put_u128(out, *expected);
            put_u128(out, *new);
        }
        Msg::Get { offset, len } => {
            out.push(2);
            put_u64(out, *offset);
            put_u32(out, *len);
        }
        Msg::Put { offset, data } => {
            out.push(3);
            put_u64(out, *offset);
            put_bytes(out, data);
        }
        Msg::Handler { id, args } => {
            out.push(4);
            put_u32(out, *id);
            put_bytes(out, args);
        }
        Msg::ReplyU64(v) => {
            out.push(5);
            put_u64(out, *v);
        }
        Msg::ReplyDcas { ok, current } => {
            out.push(6);
            out.push(u8::from(*ok));
            put_u128(out, *current);
        }
        Msg::ReplyBytes(data) => {
            out.push(7);
            put_bytes(out, data);
        }
        Msg::ReplyUnit => {
            out.push(8);
        }
        Msg::ReplyErr(s) => {
            out.push(9);
            put_bytes(out, s.as_bytes());
        }
    }
}

/// Bounds-checked cursor over a frame payload.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.pos + n > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(self.take(16)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let n = self.u32()? as usize;
        if n > MAX_FRAME {
            return Err(WireError::TooLong(n));
        }
        Ok(self.take(n)?.to_vec())
    }
}

/// Decode a frame payload into `(seq, msg)`. Strict: every byte must be
/// consumed (trailing bytes are an error) and no read may run past the end.
pub fn decode_payload(buf: &[u8]) -> Result<(u64, Msg), WireError> {
    let mut r = Reader { buf, pos: 0 };
    let seq = r.u64()?;
    let tag = r.u8()?;
    let msg = match tag {
        0 => {
            let offset = r.u64()?;
            let optag = r.u8()?;
            let a = r.u64()?;
            let b = r.u64()?;
            let op = match optag {
                0 => SymOp64::Load,
                1 => SymOp64::Store(a),
                2 => SymOp64::FetchAdd(a),
                3 => SymOp64::Exchange(a),
                4 => SymOp64::Cas {
                    expected: a,
                    new: b,
                },
                t => return Err(WireError::BadTag(t)),
            };
            Msg::Atomic64 { offset, op }
        }
        1 => Msg::Dcas {
            offset: r.u64()?,
            expected: r.u128()?,
            new: r.u128()?,
        },
        2 => Msg::Get {
            offset: r.u64()?,
            len: r.u32()?,
        },
        3 => Msg::Put {
            offset: r.u64()?,
            data: r.bytes()?,
        },
        4 => Msg::Handler {
            id: r.u32()?,
            args: r.bytes()?,
        },
        5 => Msg::ReplyU64(r.u64()?),
        6 => {
            let ok = r.u8()? != 0;
            Msg::ReplyDcas {
                ok,
                current: r.u128()?,
            }
        }
        7 => Msg::ReplyBytes(r.bytes()?),
        8 => Msg::ReplyUnit,
        9 => Msg::ReplyErr(String::from_utf8(r.bytes()?).map_err(|_| WireError::BadUtf8)?),
        t => return Err(WireError::BadTag(t)),
    };
    if r.pos != buf.len() {
        return Err(WireError::TrailingBytes);
    }
    Ok((seq, msg))
}

/// Write one length-prefixed frame with a single `write`.
pub fn write_msg<W: io::Write>(w: &mut W, seq: u64, msg: &Msg) -> io::Result<()> {
    let mut frame = Vec::with_capacity(64);
    encode_frame(&mut frame, seq, msg);
    w.write_all(&frame)?;
    w.flush()
}

/// Read one length-prefixed frame, decoding strictly. A malformed length
/// or payload surfaces as `InvalidData`, not a panic.
pub fn read_msg<R: BufRead>(r: &mut R) -> io::Result<(u64, Msg)> {
    match read_msg_opt(r)? {
        Some(m) => Ok(m),
        None => Err(io::Error::new(
            ErrorKind::UnexpectedEof,
            "connection closed before a frame",
        )),
    }
}

/// Like [`read_msg`], but a clean EOF *at a frame boundary* yields
/// `Ok(None)` (the peer hung up between requests; not an error for a
/// server loop).
pub fn read_msg_opt<R: BufRead>(r: &mut R) -> io::Result<Option<(u64, Msg)>> {
    if buffered(r)? == 0 {
        return Ok(None);
    }
    let mut len_buf = [0u8; 4];
    r.read_exact(&mut len_buf).map_err(mid_frame)?;
    let len = u32::from_le_bytes(len_buf) as usize;
    if len == 0 || len > MAX_FRAME {
        return Err(io::Error::new(
            ErrorKind::InvalidData,
            format!("bad frame length {len}"),
        ));
    }
    // The sender wrote prefix and payload together, so the read that brought
    // the prefix usually brought the payload too: decode it where it lies.
    let decoded = if buffered(r)? >= len {
        let decoded = decode_payload(&r.fill_buf()?[..len]);
        r.consume(len);
        decoded
    } else {
        let mut payload = vec![0u8; len];
        r.read_exact(&mut payload).map_err(mid_frame)?;
        decode_payload(&payload)
    };
    decoded
        .map(Some)
        .map_err(|e| io::Error::new(ErrorKind::InvalidData, e.to_string()))
}

/// Bytes `r` holds ready, after one read of the source if it held none;
/// zero only at end of stream.
fn buffered<R: BufRead>(r: &mut R) -> io::Result<usize> {
    loop {
        match r.fill_buf() {
            Ok(buf) => return Ok(buf.len()),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// `read_exact` reports a stream that ends inside a frame as a bare
/// `UnexpectedEof`; say which end it was.
fn mid_frame(e: io::Error) -> io::Error {
    if e.kind() == ErrorKind::UnexpectedEof {
        io::Error::new(ErrorKind::UnexpectedEof, "connection closed mid-frame")
    } else {
        e
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(msg: Msg) {
        let payload = encode_payload(42, &msg);
        assert_eq!(decode_payload(&payload), Ok((42, msg)));
    }

    #[test]
    fn every_kind_round_trips() {
        roundtrip(Msg::Atomic64 {
            offset: 8,
            op: SymOp64::Load,
        });
        roundtrip(Msg::Atomic64 {
            offset: 16,
            op: SymOp64::Cas {
                expected: 3,
                new: u64::MAX,
            },
        });
        roundtrip(Msg::Dcas {
            offset: 24,
            expected: u128::MAX - 1,
            new: 7,
        });
        roundtrip(Msg::Get { offset: 0, len: 64 });
        roundtrip(Msg::Put {
            offset: 32,
            data: vec![1, 2, 3],
        });
        roundtrip(Msg::Handler {
            id: 9,
            args: vec![],
        });
        roundtrip(Msg::ReplyU64(u64::MAX));
        roundtrip(Msg::ReplyDcas {
            ok: true,
            current: 1 << 100,
        });
        roundtrip(Msg::ReplyBytes(vec![0xFF; 100]));
        roundtrip(Msg::ReplyUnit);
        roundtrip(Msg::ReplyErr("boom".into()));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let payload = encode_payload(
            1,
            &Msg::Put {
                offset: 8,
                data: vec![9; 32],
            },
        );
        for cut in 0..payload.len() {
            let r = decode_payload(&payload[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail, got {r:?}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = encode_payload(1, &Msg::ReplyUnit);
        payload.push(0);
        assert_eq!(decode_payload(&payload), Err(WireError::TrailingBytes));
    }

    #[test]
    fn unknown_tags_rejected() {
        let mut payload = encode_payload(1, &Msg::ReplyUnit);
        let at = payload.len() - 1;
        payload[at] = 200;
        assert_eq!(decode_payload(&payload), Err(WireError::BadTag(200)));
    }

    #[test]
    fn oversized_length_prefix_rejected_by_reader() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(MAX_FRAME as u32 + 1).to_le_bytes());
        frame.extend_from_slice(&[0u8; 16]);
        let err = read_msg(&mut frame.as_slice()).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::InvalidData);
    }

    #[test]
    fn clean_eof_is_none_mid_frame_is_error() {
        let empty: &[u8] = &[];
        assert!(read_msg_opt(&mut &*empty).unwrap().is_none());
        let partial: &[u8] = &[5, 0];
        assert!(read_msg_opt(&mut &*partial).is_err());
    }

    #[test]
    fn io_round_trip() {
        let mut buf = Vec::new();
        write_msg(&mut buf, 7, &Msg::Get { offset: 8, len: 24 }).unwrap();
        write_msg(&mut buf, 8, &Msg::ReplyUnit).unwrap();
        let mut r = buf.as_slice();
        assert_eq!(
            read_msg(&mut r).unwrap(),
            (7, Msg::Get { offset: 8, len: 24 })
        );
        assert_eq!(read_msg(&mut r).unwrap(), (8, Msg::ReplyUnit));
        assert!(read_msg_opt(&mut r).unwrap().is_none());
    }
}
