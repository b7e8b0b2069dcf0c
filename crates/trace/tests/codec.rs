//! Codec round-trip and corruption tests for the trace format.

use pagetable::addr::VirtAddr;
use trace::format::{
    crc32, put_varint, MAGIC, MAX_CHUNK_OPS, TAG_COMPUTE_RUN, TAG_LOAD, TRAILER_SENTINEL, VERSION,
};
use trace::{TraceError, TraceReader, TraceWriter};
use workloads::profiles::ALL_WORKLOADS;
use workloads::tracegen::{Op, TraceGenerator};

/// Encodes `ops` into an in-memory stream with the given chunk capacity.
fn encode(ops: &[Op], chunk_cap: u32) -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new(), "synthetic", 0x5eed, ops.len() as u64)
        .unwrap()
        .chunk_ops(chunk_cap);
    w.extend(ops.iter().copied()).unwrap();
    w.finish().unwrap()
}

/// Decodes a byte stream back into ops, propagating the first error.
fn decode(bytes: Vec<u8>) -> Result<Vec<Op>, TraceError> {
    let reader = TraceReader::new(std::io::Cursor::new(bytes))?;
    reader.collect()
}

/// A deterministic mixed op stream with adversarial address jumps
/// (forward, backward, and repeated addresses).
fn mixed_ops(n: usize) -> Vec<Op> {
    let mut rng = rng::SplitMix64::new(0xc0dec);
    let mut ops = Vec::with_capacity(n);
    for _ in 0..n {
        ops.push(match rng.gen_range_u64(0, 10) {
            0..=4 => Op::Compute,
            5..=7 => Op::Load(VirtAddr::new(rng.gen_range_u64(0, 1 << 40) & !0x7)),
            _ => Op::Store(VirtAddr::new(rng.gen_range_u64(0, 1 << 40) & !0x7)),
        });
    }
    ops
}

#[test]
fn empty_stream_roundtrips() {
    let bytes = encode(&[], 4);
    let reader = TraceReader::new(std::io::Cursor::new(bytes)).unwrap();
    assert_eq!(reader.header().op_count, 0);
    let ops: Vec<Op> = reader.map(Result::unwrap).collect();
    assert!(ops.is_empty());
}

#[test]
fn single_chunk_roundtrips() {
    let ops = mixed_ops(100);
    assert_eq!(decode(encode(&ops, 1 << 20)).unwrap(), ops);
}

#[test]
fn multi_chunk_roundtrips_across_capacities() {
    // Capacities that divide the stream evenly, unevenly, and degenerately
    // (1 op per chunk); deltas must reset cleanly at every boundary.
    let ops = mixed_ops(1000);
    for cap in [1u32, 7, 64, 333, 999, 1000, 1001] {
        assert_eq!(
            decode(encode(&ops, cap)).unwrap(),
            ops,
            "chunk capacity {cap}"
        );
    }
}

#[test]
fn all_compute_and_all_memory_streams_roundtrip() {
    let computes = vec![Op::Compute; 5000];
    assert_eq!(decode(encode(&computes, 512)).unwrap(), computes);
    let loads: Vec<Op> = (0..5000)
        .map(|i| Op::Load(VirtAddr::new(0x10_0000_0000 + i * 64)))
        .collect();
    assert_eq!(decode(encode(&loads, 512)).unwrap(), loads);
}

#[test]
fn real_generator_streams_roundtrip() {
    for profile in ALL_WORKLOADS.iter().take(4) {
        let ops: Vec<Op> = TraceGenerator::new(*profile, 42).take(20_000).collect();
        assert_eq!(decode(encode(&ops, 4096)).unwrap(), ops, "{}", profile.name);
    }
}

#[test]
fn header_fields_survive() {
    let mut w = TraceWriter::new(Vec::new(), "xalancbmk", 0xdead_beef, 3).unwrap();
    w.extend([Op::Compute, Op::Load(VirtAddr::new(4096)), Op::Compute])
        .unwrap();
    let bytes = w.finish().unwrap();
    let reader = TraceReader::new(std::io::Cursor::new(bytes)).unwrap();
    let h = reader.header();
    assert_eq!(h.profile, "xalancbmk");
    assert_eq!(h.seed, 0xdead_beef);
    assert_eq!(h.op_count, 3);
    assert_eq!(h.version, 1);
}

#[test]
fn writer_refuses_count_mismatch() {
    let mut w = TraceWriter::new(Vec::new(), "p", 1, 10).unwrap();
    w.push(Op::Compute).unwrap();
    match w.finish() {
        Err(TraceError::CountMismatch {
            declared: 10,
            actual: 1,
        }) => {}
        other => panic!("expected CountMismatch, got {other:?}"),
    }
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = encode(&mixed_ops(10), 4);
    bytes[0] = b'X';
    match TraceReader::new(std::io::Cursor::new(bytes)) {
        Err(TraceError::BadMagic(_)) => {}
        other => panic!("expected BadMagic, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn future_version_is_rejected() {
    let mut bytes = encode(&mixed_ops(10), 4);
    bytes[4] = 0xff; // version LE low byte
    match TraceReader::new(std::io::Cursor::new(bytes)) {
        Err(TraceError::UnsupportedVersion(_)) => {}
        other => panic!("expected UnsupportedVersion, got {:?}", other.map(|_| ())),
    }
}

#[test]
fn payload_bitflip_is_a_checksum_mismatch() {
    let ops = mixed_ops(4000);
    let clean = encode(&ops, 1024); // 4 chunks
                                    // Flip one bit in every byte position past the header, one at a time,
                                    // on a sampled stride; every flip must surface as a typed error, never
                                    // as silently different ops.
    let header_len = 4 + 2 + 1 + "synthetic".len() + 8 + 8;
    for pos in (header_len..clean.len()).step_by(97) {
        let mut bytes = clean.clone();
        bytes[pos] ^= 1 << (pos % 8);
        assert!(
            decode(bytes).is_err(),
            "single-bit flip at byte {pos} went undetected"
        );
    }
}

#[test]
fn payload_bitflip_reports_the_right_chunk() {
    let ops = mixed_ops(400);
    let mut bytes = encode(&ops, 100); // 4 chunks
                                       // Corrupt deep into the stream: 20 bytes before the trailer lands in
                                       // the last chunk's payload or CRC.
    let pos = bytes.len() - 20;
    bytes[pos] ^= 0x40;
    match decode(bytes) {
        Err(TraceError::ChecksumMismatch { chunk }) => assert_eq!(chunk, 3),
        Err(TraceError::Corrupt(_)) | Err(TraceError::Truncated) => {}
        other => panic!("expected a typed corruption error, got {other:?}"),
    }
}

#[test]
fn truncation_is_typed_at_every_cut_point() {
    let ops = mixed_ops(300);
    let clean = encode(&ops, 64);
    let header_len = 4 + 2 + 1 + "synthetic".len() + 8 + 8;
    for cut in (header_len..clean.len() - 1).step_by(31) {
        let bytes = clean[..cut].to_vec();
        match decode(bytes) {
            Err(TraceError::Truncated) => {}
            other => panic!("cut at {cut}: expected Truncated, got {other:?}"),
        }
    }
}

#[test]
fn a_chunk_declaring_too_many_ops_is_corrupt() {
    // 50 bytes: a valid header, one chunk whose 2-byte payload (a one-op
    // compute run) carries a correct CRC-32 but whose op count is
    // 0xFFFF_FFFE, then the trailer sentinel. The count must be rejected
    // before anything is sized from it.
    let payload = [TAG_COMPUTE_RUN, 1];
    let mut bytes = MAGIC.to_vec();
    bytes.extend(VERSION.to_le_bytes());
    bytes.push("synthetic".len() as u8);
    bytes.extend(b"synthetic");
    bytes.extend(0x5eed_u64.to_le_bytes());
    bytes.extend(1u64.to_le_bytes());
    bytes.extend((payload.len() as u32).to_le_bytes());
    bytes.extend(0xFFFF_FFFE_u32.to_le_bytes());
    bytes.extend(payload);
    bytes.extend(crc32(&payload).to_le_bytes());
    bytes.extend(TRAILER_SENTINEL.to_le_bytes());
    assert_eq!(bytes.len(), 50);
    match decode(bytes) {
        Err(TraceError::Corrupt(why)) => assert!(why.contains("4294967294"), "{why}"),
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
fn a_compute_run_past_the_chunk_count_is_corrupt() {
    // One load, then a compute run of u64::MAX: the run must be checked
    // against the chunk's count without wrapping.
    let mut payload = vec![TAG_LOAD, 0, TAG_COMPUTE_RUN];
    put_varint(&mut payload, u64::MAX);
    let mut bytes = MAGIC.to_vec();
    bytes.extend(VERSION.to_le_bytes());
    bytes.push(1);
    bytes.push(b'p');
    bytes.extend(0u64.to_le_bytes());
    bytes.extend(2u64.to_le_bytes());
    bytes.extend((payload.len() as u32).to_le_bytes());
    bytes.extend(2u32.to_le_bytes());
    bytes.extend(&payload);
    bytes.extend(crc32(&payload).to_le_bytes());
    match decode(bytes) {
        Err(TraceError::Corrupt(_)) => {}
        other => panic!("expected Corrupt, got {other:?}"),
    }
}

#[test]
#[should_panic(expected = "chunk capacity")]
fn writer_refuses_a_chunk_capacity_the_reader_would_reject() {
    let _ = TraceWriter::new(Vec::new(), "p", 1, 0)
        .unwrap()
        .chunk_ops(MAX_CHUNK_OPS + 1);
}

#[test]
fn truncated_header_is_typed_too() {
    let clean = encode(&mixed_ops(10), 4);
    for cut in [0usize, 3, 5, 8] {
        match TraceReader::new(std::io::Cursor::new(clean[..cut].to_vec())) {
            Err(TraceError::Truncated) => {}
            other => panic!(
                "cut at {cut}: expected Truncated, got {:?}",
                other.map(|_| ())
            ),
        }
    }
}

#[test]
fn trailer_count_tamper_is_detected() {
    let mut bytes = encode(&mixed_ops(50), 16);
    let n = bytes.len();
    bytes[n - 8..].copy_from_slice(&999u64.to_le_bytes());
    match decode(bytes) {
        Err(TraceError::CountMismatch { .. }) => {}
        other => panic!("expected CountMismatch, got {other:?}"),
    }
}

#[test]
fn early_drop_does_not_hang() {
    // A reader dropped mid-stream, with chunks left unread, must return
    // promptly.
    let ops = mixed_ops(200_000);
    let bytes = encode(&ops, 1024);
    let mut reader = TraceReader::new(std::io::Cursor::new(bytes)).unwrap();
    for _ in 0..10 {
        reader.try_next().unwrap().unwrap();
    }
    drop(reader); // must not deadlock
}

#[test]
fn stats_match_hand_count() {
    let ops = vec![
        Op::Compute,
        Op::Load(VirtAddr::new(0x1000)),
        Op::Store(VirtAddr::new(0x1008)),
        Op::Load(VirtAddr::new(0x9000)),
        Op::Compute,
        Op::Compute,
    ];
    let bytes = encode(&ops, 2);
    let mut reader = TraceReader::new(std::io::Cursor::new(bytes)).unwrap();
    let s = trace::TraceStats::collect(&mut reader, Some(0x2000)).unwrap();
    assert_eq!(s.ops, 6);
    assert_eq!(s.computes, 3);
    assert_eq!(s.loads, 2);
    assert_eq!(s.stores, 1);
    assert_eq!(s.unique_pages, 2); // 0x1xxx and 0x9xxx
    assert_eq!(s.hot_accesses, 2);
    assert_eq!(s.cold_accesses, 1);
    assert_eq!(s.footprint_bytes(), 8192);
}
