//! Binary codec for the durability path.
//!
//! The command log, snapshots and the coordinator's decision log all use
//! this one length-prefixed binary format:
//!
//! * **varint/LE primitives** — LEB128 unsigned varints, zigzag signed
//!   varints, little-endian `f64`/`u32`;
//! * **value codec** — a tag byte plus a compact payload per [`Value`];
//!   [`encode_row`] borrows the COW row's cells (no copy on encode);
//! * **frames** — `[len u32 LE][crc32 u32 LE][payload]`; [`read_frame`]
//!   returns a frame only when it is whole and its CRC holds, and an
//!   error at the frame's offset otherwise. Whether a bad tail is a torn
//!   write is decided a layer up: the append files wrap each write in one
//!   checksummed extent (`crate::durable`), and snapshots are written
//!   whole and renamed into place, so a bad frame there is corruption;
//! * **file headers** — a 4-byte magic plus a `u32` format version;
//!   [`check_file_header`] refuses any file that is not exactly
//!   `CODEC_VERSION`.
//!
//! The CRC is CRC-32 (IEEE 802.3, reflected, init/final `0xFFFF_FFFF`) —
//! the same polynomial gzip and ethernet use.

use crate::error::{Error, Result};
use crate::row::Row;
use crate::value::Value;

/// Format version stamped into every binary log / snapshot / `coord.log`
/// header. v4 is the only layout; readers refuse every other version.
/// It differs from v3 in the append files only: each write is one
/// extent (`crate::durable`), where v3 appended bare frames.
pub(crate) const CODEC_VERSION: u32 = 4;

/// Magic bytes opening a binary command log.
pub const LOG_MAGIC: [u8; 4] = *b"SSLG";

/// Magic bytes opening a binary snapshot.
pub const SNAPSHOT_MAGIC: [u8; 4] = *b"SSNP";

/// Magic bytes opening a coordinator decision log (`coord.log`).
pub const COORD_MAGIC: [u8; 4] = *b"SSCO";

// ---------------------------------------------------------------------------
// Command-log record tags
// ---------------------------------------------------------------------------
// One byte opening every binary log-record payload. Defined here (not in
// the txn crate) so the on-disk vocabulary is owned by the codec layer and
// every crate that frames records agrees on the numbering.

/// A border input batch entering a workflow.
pub const REC_BORDER: u8 = 0;
/// A direct client invocation (H-Store mode / OLTP requests).
pub const REC_INVOKE: u8 = 1;
/// A batch's workflow fully committed (upstream backup may discard it).
pub const REC_ACK: u8 = 2;
/// A 2PC participant prepared a fragment of a multi-sited transaction
/// (input logged; undo held open until the decision).
pub const REC_PREPARE: u8 = 3;
/// A 2PC participant learned the global outcome of a prepared fragment.
pub const REC_DECISION: u8 = 4;
/// A batch forwarded across a cross-partition workflow edge (logged on
/// the *receiving* partition before execution — the edge's upstream
/// backup).
pub const REC_FORWARD: u8 = 5;
/// Per-(source partition, stream) forwarding high-water marks, appended
/// at snapshot points so edge dedup survives log GC.
pub const REC_EDGE_HW: u8 = 6;
/// A cross-partition edge envelope logged on the *emitting* partition at
/// emission time — recovery re-forwards it when a snapshot covers the
/// emitting batch (so replay won't re-run it) but the receiver never
/// acknowledged the edge.
pub const REC_FORWARD_OUT: u8 = 7;

/// File header size: magic + version.
pub const FILE_HEADER_LEN: usize = 8;

/// Frame header size: payload length + CRC32.
pub const FRAME_HEADER_LEN: usize = 8;

/// Upper bound on a single frame's payload. Nothing the engine writes
/// approaches this; a larger length in a header is a bad frame.
pub(crate) const MAX_FRAME_LEN: u32 = 256 * 1024 * 1024;

// ---------------------------------------------------------------------------
// CRC32 (IEEE)
// ---------------------------------------------------------------------------

/// The eight tables of slicing-by-8: `t[0]` is the byte-wise table, and
/// `t[k][b]` is the CRC of byte `b` followed by `k` zero bytes, so eight
/// input bytes fold into the register with eight independent lookups.
const fn build_crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
}

static CRC_TABLES: [[u32; 256]; 8] = build_crc_tables();

/// CRC-32 (IEEE 802.3) of `bytes`, eight bytes per step (slicing-by-8),
/// the tail byte by byte.
pub(crate) fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for b in &mut chunks {
        let lo = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let hi = u32::from_le_bytes([b[4], b[5], b[6], b[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------------
// Write primitives
// ---------------------------------------------------------------------------

/// Append an LEB128 unsigned varint.
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Append a zigzag-encoded signed varint.
pub fn put_ivarint(out: &mut Vec<u8>, v: i64) {
    put_uvarint(out, ((v << 1) ^ (v >> 63)) as u64);
}

/// Append a length-prefixed byte string.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_uvarint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_bytes(out, s.as_bytes());
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A cursor over an encoded byte slice. Every accessor returns
/// [`Error::Codec`] on underrun or malformed data — decoding never panics.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Current byte offset from the start of the slice.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True when everything has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Consume exactly `n` bytes.
    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::Codec(format!(
                "unexpected end of input at byte {} (wanted {n} more, have {})",
                self.pos,
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Consume one byte.
    pub fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Consume a little-endian `u32`.
    pub(crate) fn u32_le(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Consume a little-endian `f64`.
    pub(crate) fn f64_le(&mut self) -> Result<f64> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Consume an LEB128 unsigned varint.
    pub fn uvarint(&mut self) -> Result<u64> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(Error::Codec(format!(
                    "varint overflows u64 at byte {}",
                    self.pos
                )));
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Consume a zigzag-encoded signed varint.
    pub fn ivarint(&mut self) -> Result<i64> {
        let u = self.uvarint()?;
        Ok(((u >> 1) as i64) ^ -((u & 1) as i64))
    }

    /// Consume a length-prefixed byte string.
    pub(crate) fn bytes(&mut self) -> Result<&'a [u8]> {
        let len = self.uvarint()?;
        if len > self.remaining() as u64 {
            return Err(Error::Codec(format!(
                "byte-string length {len} exceeds remaining input at byte {}",
                self.pos
            )));
        }
        self.take(len as usize)
    }

    /// Consume a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<&'a str> {
        let at = self.pos;
        std::str::from_utf8(self.bytes()?)
            .map_err(|e| Error::Codec(format!("invalid UTF-8 at byte {at}: {e}")))
    }
}

// ---------------------------------------------------------------------------
// Value / Row codec
// ---------------------------------------------------------------------------

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_TEXT: u8 = 3;
const TAG_FALSE: u8 = 4;
const TAG_TRUE: u8 = 5;
const TAG_TIMESTAMP: u8 = 6;

/// Append one [`Value`]: a tag byte plus a compact payload.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(i) => {
            out.push(TAG_INT);
            put_ivarint(out, *i);
        }
        Value::Float(f) => {
            out.push(TAG_FLOAT);
            out.extend_from_slice(&f.to_le_bytes());
        }
        Value::Text(s) => {
            out.push(TAG_TEXT);
            put_str(out, s);
        }
        Value::Bool(false) => out.push(TAG_FALSE),
        Value::Bool(true) => out.push(TAG_TRUE),
        Value::Timestamp(t) => {
            out.push(TAG_TIMESTAMP);
            put_ivarint(out, *t);
        }
    }
}

/// Decode one [`Value`].
pub fn decode_value(r: &mut Reader<'_>) -> Result<Value> {
    let at = r.pos();
    match r.u8()? {
        TAG_NULL => Ok(Value::Null),
        TAG_INT => Ok(Value::Int(r.ivarint()?)),
        TAG_FLOAT => Ok(Value::Float(r.f64_le()?)),
        TAG_TEXT => Ok(Value::Text(r.str()?.to_string())),
        TAG_FALSE => Ok(Value::Bool(false)),
        TAG_TRUE => Ok(Value::Bool(true)),
        TAG_TIMESTAMP => Ok(Value::Timestamp(r.ivarint()?)),
        tag => Err(Error::Codec(format!(
            "unknown value tag {tag} at byte {at}"
        ))),
    }
}

/// Append one [`Row`]: arity varint plus cells. Encoding iterates the
/// shared cell slice directly — a borrow of the COW handle, never a copy.
pub fn encode_row(row: &Row, out: &mut Vec<u8>) {
    put_uvarint(out, row.len() as u64);
    for v in row {
        encode_value(v, out);
    }
}

/// Decode one [`Row`].
pub fn decode_row(r: &mut Reader<'_>) -> Result<Row> {
    let arity = r.uvarint()? as usize;
    // Guard against corrupt arities before reserving memory: every cell
    // costs at least one byte.
    if arity > r.remaining() {
        return Err(Error::Codec(format!(
            "row arity {arity} exceeds remaining input at byte {}",
            r.pos()
        )));
    }
    let mut cells = Vec::with_capacity(arity);
    for _ in 0..arity {
        cells.push(decode_value(r)?);
    }
    Ok(Row::new(cells))
}

// ---------------------------------------------------------------------------
// File headers and frames
// ---------------------------------------------------------------------------

/// Append a file header: magic + format version.
pub fn put_file_header(out: &mut Vec<u8>, magic: [u8; 4]) {
    out.extend_from_slice(&magic);
    out.extend_from_slice(&CODEC_VERSION.to_le_bytes());
}

/// Consume and validate a file header. Rejects a wrong magic and every
/// version but `CODEC_VERSION`.
pub fn check_file_header(r: &mut Reader<'_>, magic: [u8; 4]) -> Result<()> {
    let got = r.take(4)?;
    if got != magic {
        return Err(Error::Codec(format!(
            "bad magic {:02x?} (expected {:02x?})",
            got, magic
        )));
    }
    let version = r.u32_le()?;
    if version != CODEC_VERSION {
        return Err(Error::Codec(format!(
            "format version {version} is not supported (only v{CODEC_VERSION} is)"
        )));
    }
    Ok(())
}

/// Reserve a frame header in `out` and return a position token for
/// [`end_frame`]. Encode the payload directly into `out` between the two
/// calls — no intermediate payload buffer.
pub fn begin_frame(out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0u8; FRAME_HEADER_LEN]);
    start
}

/// Fill in the length and CRC of the frame opened at `start`.
pub fn end_frame(out: &mut [u8], start: usize) {
    let payload_start = start + FRAME_HEADER_LEN;
    let len = (out.len() - payload_start) as u32;
    let crc = crc32(&out[payload_start..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

/// Read the next frame: its payload when it is whole and its CRC holds,
/// `None` at the end of the input, and [`Error::Codec`] naming the
/// frame's byte offset otherwise — bytes that run out inside the header
/// or payload, a length of zero (no writer makes an empty frame, and a
/// zero-filled region would otherwise pass as `len = 0, crc = 0`) or over
/// `MAX_FRAME_LEN` (256 MiB), or a CRC mismatch.
pub fn read_frame<'a>(r: &mut Reader<'a>) -> Result<Option<&'a [u8]>> {
    let offset = r.pos();
    if r.is_empty() {
        return Ok(None);
    }
    let bad = |what: String| Error::Codec(format!("bad frame at byte {offset}: {what}"));
    if r.remaining() < FRAME_HEADER_LEN {
        return Err(bad(format!("{} bytes, short of a header", r.remaining())));
    }
    let len = r.u32_le()?;
    let crc = r.u32_le()?;
    if len == 0 || (r.remaining() as u64) < len as u64 || len > MAX_FRAME_LEN {
        let have = r.remaining();
        return Err(bad(format!("declares length {len} (have {have} bytes)")));
    }
    let payload = r.take(len as usize)?;
    let actual = crc32(payload);
    if actual != crc {
        let detail = format!("CRC mismatch (stored {crc:#010x}, computed {actual:#010x})");
        return Err(bad(detail));
    }
    Ok(Some(payload))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Append one complete frame wrapping `payload`.
    fn put_frame(out: &mut Vec<u8>, payload: &[u8]) {
        out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(payload).to_le_bytes());
        out.extend_from_slice(payload);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC-32 the sliced one replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xFFFF_FFFFu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        c ^ 0xFFFF_FFFF
    }

    /// Slicing-by-8 equals the byte-wise loop on random bytes, for every
    /// length up to 300 from each of the eight misaligned starts, and on
    /// random longer spans.
    #[test]
    fn crc32_slicing_matches_the_bytewise_reference() {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let buf: Vec<u8> = (0..4_096).map(|_| next() as u8).collect();
        for start in 0..8 {
            for len in 0..=300 {
                let s = &buf[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
        for _ in 0..200 {
            let start = next() as usize % 64;
            let len = next() as usize % (buf.len() - start);
            let s = &buf[start..start + len];
            assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
        }
    }

    #[test]
    fn varints_round_trip_edges() {
        let mut buf = Vec::new();
        let us = [0u64, 1, 127, 128, 300, u64::MAX];
        let is = [0i64, 1, -1, 63, -64, i64::MIN, i64::MAX];
        for &v in &us {
            put_uvarint(&mut buf, v);
        }
        for &v in &is {
            put_ivarint(&mut buf, v);
        }
        let mut r = Reader::new(&buf);
        for &v in &us {
            assert_eq!(r.uvarint().unwrap(), v);
        }
        for &v in &is {
            assert_eq!(r.ivarint().unwrap(), v);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn values_round_trip() {
        let vals = [
            Value::Null,
            Value::Int(0),
            Value::Int(-1),
            Value::Int(i64::MIN),
            Value::Float(2.5),
            Value::Float(f64::NAN),
            Value::Text(String::new()),
            Value::Text("héllo".into()),
            Value::Bool(true),
            Value::Bool(false),
            Value::Timestamp(-7),
        ];
        let mut buf = Vec::new();
        for v in &vals {
            encode_value(v, &mut buf);
        }
        let mut r = Reader::new(&buf);
        for v in &vals {
            let back = decode_value(&mut r).unwrap();
            // NaN != NaN under sql semantics but cmp_total treats them equal.
            assert_eq!(&back, v);
        }
        assert!(r.is_empty());
    }

    #[test]
    fn rows_round_trip_borrowing() {
        let row = Row::new(vec![Value::Int(1), Value::Text("x".into()), Value::Null]);
        let alias = row.clone();
        let mut buf = Vec::new();
        encode_row(&row, &mut buf);
        let back = decode_row(&mut Reader::new(&buf)).unwrap();
        assert_eq!(back, row);
        // Encoding did not break sharing: the alias still shares storage.
        assert!(!alias.is_unique());
    }

    #[test]
    fn frames_round_trip_and_classify() {
        let mut buf = Vec::new();
        put_file_header(&mut buf, LOG_MAGIC);
        let f1 = begin_frame(&mut buf);
        buf.extend_from_slice(b"hello");
        end_frame(&mut buf, f1);
        put_frame(&mut buf, b"world");

        let mut r = Reader::new(&buf);
        check_file_header(&mut r, LOG_MAGIC).unwrap();
        assert_eq!(read_frame(&mut r).unwrap(), Some(&b"hello"[..]));
        assert_eq!(read_frame(&mut r).unwrap(), Some(&b"world"[..]));
        assert_eq!(read_frame(&mut r).unwrap(), None);
    }

    /// Reads `bytes` as a frame stream: the payloads before the first bad
    /// frame, and that frame's offset as its error names it.
    fn read_all(bytes: &[u8]) -> (Vec<&[u8]>, Option<usize>) {
        let mut r = Reader::new(bytes);
        let mut frames = Vec::new();
        loop {
            match read_frame(&mut r) {
                Ok(Some(payload)) => frames.push(payload),
                Ok(None) => return (frames, None),
                Err(e) => {
                    assert_eq!(e.kind(), "codec");
                    let msg = e.to_string();
                    let at = msg.split("bad frame at byte ").nth(1).unwrap();
                    let at = at.split(':').next().unwrap().parse().unwrap();
                    return (frames, Some(at));
                }
            }
        }
    }

    #[test]
    fn a_cut_off_frame_is_an_error_at_its_offset() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"complete");
        let cut_at = buf.len();
        // A second frame cut off mid-payload, then inside its header.
        let mut cut = Vec::new();
        put_frame(&mut cut, b"never finished");
        buf.extend_from_slice(&cut[..cut.len() - 3]);
        assert_eq!(read_all(&buf), (vec![&b"complete"[..]], Some(cut_at)));
        assert_eq!(read_all(&buf[..cut_at + 5]).1, Some(cut_at));
    }

    #[test]
    fn mid_stream_bit_flip_is_corruption() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"abcdefgh");
        put_frame(&mut buf, b"second");
        // Flip a payload byte of the FIRST frame.
        buf[FRAME_HEADER_LEN + 3] ^= 0x40;
        assert_eq!(read_all(&buf), (vec![], Some(0)));
    }

    #[test]
    fn a_flipped_bit_in_the_last_frame_is_an_error_at_its_offset() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"first");
        let last_at = buf.len();
        put_frame(&mut buf, b"abcdefgh");
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        assert_eq!(read_all(&buf), (vec![&b"first"[..]], Some(last_at)));
    }

    #[test]
    fn zeros_are_an_error_at_their_offset() {
        // `len = 0, crc = 0` passes the CRC of an empty payload, but no
        // writer makes empty frames: zeros after the frames and zeros
        // before one are both a bad frame where they start.
        let mut buf = Vec::new();
        put_frame(&mut buf, b"first");
        put_frame(&mut buf, b"second");
        let zeros_at = buf.len();
        buf.extend_from_slice(&[0; 24]);
        let (frames, bad) = read_all(&buf);
        assert_eq!((frames.len(), bad), (2, Some(zeros_at)));

        let mut buf = vec![0; 24];
        put_frame(&mut buf, b"after");
        assert_eq!(read_all(&buf), (vec![], Some(0)));
    }

    #[test]
    fn flipped_length_field_with_valid_frames_after_is_corruption() {
        let mut buf = Vec::new();
        put_frame(&mut buf, b"first");
        let second_at = buf.len();
        put_frame(&mut buf, b"second");
        put_frame(&mut buf, b"third");
        buf[second_at + 3] ^= 0x80; // high byte of the len u32
        assert_eq!(read_all(&buf), (vec![&b"first"[..]], Some(second_at)));
    }

    #[test]
    fn trailing_text_garbage_is_an_error_at_its_offset() {
        // Garbage after the last frame (e.g. a crashed writer of a
        // different format) parses as an implausible header.
        let mut buf = Vec::new();
        put_frame(&mut buf, b"good");
        let garbage_at = buf.len();
        buf.extend_from_slice(b"{\"BorderBatch\":{\"batch\":999}}");
        assert_eq!(read_all(&buf), (vec![&b"good"[..]], Some(garbage_at)));
    }

    #[test]
    fn future_version_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&SNAPSHOT_MAGIC);
        buf.extend_from_slice(&(CODEC_VERSION + 1).to_le_bytes());
        let err = check_file_header(&mut Reader::new(&buf), SNAPSHOT_MAGIC).unwrap_err();
        assert_eq!(err.kind(), "codec");
    }

    #[test]
    fn decode_never_panics_on_garbage() {
        // Any byte soup must produce Err, not a panic or huge allocation.
        let garbage: Vec<u8> = (0..64u8).map(|i| i.wrapping_mul(37) ^ 0xA5).collect();
        let _ = decode_value(&mut Reader::new(&garbage));
        let _ = decode_row(&mut Reader::new(&garbage));
        let mut r = Reader::new(&garbage);
        while let Ok(Some(_)) = read_frame(&mut r) {}
    }
}
