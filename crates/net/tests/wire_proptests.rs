//! Property tests for the proc-backend wire format: every message kind
//! round-trips bit-exactly, and the decoder rejects truncated, padded,
//! and over-length frames with an error — never a panic. Frames read
//! through a connection's read buffer come out the same however the
//! stream was cut into reads.
//!
//! The vendored proptest shim has no `prop_oneof`/`Just`, so message
//! kinds are driven by an integer selector plus raw integer/byte-vector
//! fields, dispatched through a constructor.

use std::io::{BufReader, ErrorKind, Read};

use pgas_net::wire::{self, Msg, WireError, MAX_FRAME, READ_BUF};
use pgas_sim::symheap::SymOp64;
use proptest::collection;
use proptest::prelude::*;

/// A stream that hands `data` out in reads of `sizes` bytes (cycled), the
/// way a socket delivers whatever has arrived.
struct Chunked<'a> {
    data: &'a [u8],
    sizes: &'a [usize],
    reads: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.reads % self.sizes.len()];
        self.reads += 1;
        let n = size.min(buf.len()).min(self.data.len());
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

/// Every frame `data` holds, read through a `capacity`-byte buffer over
/// reads of `sizes` bytes, and how the stream ended.
fn read_all(
    data: &[u8],
    sizes: &[usize],
    capacity: usize,
) -> (Vec<(u64, Msg)>, std::io::Result<()>) {
    let stream = Chunked {
        data,
        sizes,
        reads: 0,
    };
    let mut r = BufReader::with_capacity(capacity, stream);
    let mut frames = Vec::new();
    loop {
        match wire::read_msg_opt(&mut r) {
            Ok(Some(frame)) => frames.push(frame),
            Ok(None) => return (frames, Ok(())),
            Err(e) => return (frames, Err(e)),
        }
    }
}

fn concat(frames: &[(u64, Msg)]) -> Vec<u8> {
    let mut out = Vec::new();
    for (seq, msg) in frames {
        wire::encode_frame(&mut out, *seq, msg);
    }
    out
}

#[test]
fn named_splits_decode_to_the_same_frames() {
    let frames = vec![
        (1, Msg::Get { offset: 8, len: 24 }),
        (2, Msg::ReplyBytes(vec![7; 24])),
        // Longer than the read buffer: the payload cannot be decoded in place.
        (
            3,
            Msg::Put {
                offset: 0,
                data: (0..READ_BUF + 904).map(|i| i as u8).collect(),
            },
        ),
        (4, Msg::ReplyUnit),
    ];
    let stream = concat(&frames);
    let first = 4 + wire::encode_payload(1, &frames[0].1).len();
    let second = 4 + wire::encode_payload(2, &frames[1].1).len();
    for (what, sizes) in [
        ("one byte per read", vec![1]),
        ("a split inside the length prefix", vec![2, usize::MAX]),
        (
            "a split inside the second prefix",
            vec![first + 3, usize::MAX],
        ),
        ("two frames in one read", vec![first + second, usize::MAX]),
        ("everything in one read", vec![usize::MAX]),
    ] {
        for capacity in [READ_BUF, 16] {
            let (got, end) = read_all(&stream, &sizes, capacity);
            assert_eq!(got, frames, "{what}, {capacity}-byte buffer");
            assert!(end.is_ok(), "{what}: a frame boundary is a clean EOF");
        }
    }
}

/// Deterministically build one message of each kind from raw entropy.
fn build_msg(kind: u8, a: u64, b: u64, c: u64, d: u64, bytes: &[u8]) -> Msg {
    let op = match a % 5 {
        0 => SymOp64::Load,
        1 => SymOp64::Store(b),
        2 => SymOp64::FetchAdd(b),
        3 => SymOp64::Exchange(b),
        _ => SymOp64::Cas {
            expected: b,
            new: c,
        },
    };
    let wide1 = ((a as u128) << 64) | b as u128;
    let wide2 = ((c as u128) << 64) | d as u128;
    match kind % 10 {
        0 => Msg::Atomic64 { offset: c, op },
        1 => Msg::Dcas {
            offset: a,
            expected: wide1,
            new: wide2,
        },
        2 => Msg::Get {
            offset: a,
            len: b as u32,
        },
        3 => Msg::Put {
            offset: a,
            data: bytes.to_vec(),
        },
        4 => Msg::Handler {
            id: a as u32,
            args: bytes.to_vec(),
        },
        5 => Msg::ReplyU64(a),
        6 => Msg::ReplyDcas {
            ok: a.is_multiple_of(2),
            current: wide1,
        },
        7 => Msg::ReplyBytes(bytes.to_vec()),
        8 => Msg::ReplyUnit,
        _ => Msg::ReplyErr(String::from_utf8_lossy(bytes).into_owned()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn roundtrip_every_kind(
        (kind, seq) in (0u8..10, 0u64..),
        (a, b, c, d) in (0u64.., 0u64.., 0u64.., 0u64..),
        bytes in collection::vec(0u8..=255, 0..64),
    ) {
        let msg = build_msg(kind, a, b, c, d, &bytes);
        let payload = wire::encode_payload(seq, &msg);
        let (dseq, dmsg) = wire::decode_payload(&payload)
            .expect("encoded payload must decode");
        prop_assert_eq!(dseq, seq);
        prop_assert_eq!(dmsg, msg);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic(
        (kind, seq) in (0u8..10, 0u64..),
        (a, b, c, d) in (0u64.., 0u64.., 0u64.., 0u64..),
        bytes in collection::vec(0u8..=255, 0..32),
        cut_seed in 0usize..,
    ) {
        let msg = build_msg(kind, a, b, c, d, &bytes);
        let payload = wire::encode_payload(seq, &msg);
        // Any strict prefix must fail to decode, without panicking.
        let cut = cut_seed % payload.len();
        prop_assert!(wire::decode_payload(&payload[..cut]).is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected(
        (kind, seq, junk) in (0u8..10, 0u64.., 1usize..8),
        (a, b, c, d) in (0u64.., 0u64.., 0u64.., 0u64..),
        bytes in collection::vec(0u8..=255, 0..32),
    ) {
        let msg = build_msg(kind, a, b, c, d, &bytes);
        let mut payload = wire::encode_payload(seq, &msg);
        payload.extend(std::iter::repeat_n(0xA5, junk));
        prop_assert!(matches!(
            wire::decode_payload(&payload),
            Err(WireError::TrailingBytes)
        ));
    }

    #[test]
    fn random_bytes_never_panic(
        payload in collection::vec(0u8..=255, 0..128),
    ) {
        // Arbitrary input: decoding may succeed by chance but must never
        // panic, and success implies a faithful re-encode.
        if let Ok((seq, msg)) = wire::decode_payload(&payload) {
            prop_assert_eq!(wire::encode_payload(seq, &msg), payload);
        }
    }

    #[test]
    fn overlength_vec_is_rejected(
        (seq, offset, excess) in (0u64.., 0u64.., 1u64..1024),
    ) {
        // Hand-craft a Put whose length field promises more than
        // MAX_FRAME: the decoder must refuse before allocating.
        let mut payload = Vec::new();
        payload.extend_from_slice(&seq.to_le_bytes());
        payload.push(3); // Put tag
        payload.extend_from_slice(&offset.to_le_bytes());
        let huge = (MAX_FRAME as u64 + excess) as u32;
        payload.extend_from_slice(&huge.to_le_bytes());
        prop_assert!(matches!(
            wire::decode_payload(&payload),
            Err(WireError::TooLong(_)) | Err(WireError::Truncated)
        ));
    }

    #[test]
    fn buffered_reader_is_blind_to_how_the_stream_was_split(
        msgs in collection::vec((0u8..10, 0u64.., 0u64.., collection::vec(0u8..=255, 0..64)), 1..8),
        sizes in collection::vec(1usize..40, 1..6),
        (small_buffer, cut_seed) in (0u8..2, 0usize..),
    ) {
        let frames: Vec<(u64, Msg)> = msgs
            .iter()
            .enumerate()
            .map(|(i, (kind, a, b, bytes))| (i as u64, build_msg(*kind, *a, *b, *a ^ *b, !*a, bytes)))
            .collect();
        let stream = concat(&frames);
        let capacity = if small_buffer == 1 { 16 } else { READ_BUF };

        // Whole stream: the same k frames in order, then a clean EOF.
        let (got, end) = read_all(&stream, &sizes, capacity);
        prop_assert_eq!(&got, &frames);
        prop_assert!(end.is_ok());

        // Stream cut short: every whole frame before the cut, exactly once;
        // a cut on a frame boundary is a clean EOF, one inside a frame is
        // `UnexpectedEof`.
        let cut = cut_seed % stream.len();
        let mut whole = 0;
        let mut boundary = 0;
        for (seq, msg) in &frames {
            let next = boundary + 4 + wire::encode_payload(*seq, msg).len();
            if next > cut {
                break;
            }
            boundary = next;
            whole += 1;
        }
        let (got, end) = read_all(&stream[..cut], &sizes, capacity);
        prop_assert_eq!(&got[..], &frames[..whole]);
        match end {
            Ok(()) => prop_assert_eq!(cut, boundary),
            Err(e) => {
                prop_assert!(cut > boundary);
                prop_assert_eq!(e.kind(), ErrorKind::UnexpectedEof);
            }
        }
    }
}
