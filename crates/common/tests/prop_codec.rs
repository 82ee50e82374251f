//! Property tests for the binary durability codec: every `Value`/`Row`
//! must round-trip exactly (including NULL, negative ints, empty strings,
//! and non-finite floats), framed streams must survive concatenation, and
//! decoding arbitrary garbage must fail cleanly — never panic, never
//! allocate absurdly.

use proptest::prelude::*;
use sstore_common::codec::{self, Reader};
use sstore_common::{Row, Value};

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Timestamp),
        ".{0,16}".prop_map(Value::Text),
        Just(Value::Text(String::new())),
        Just(Value::Int(i64::MIN)),
        Just(Value::Int(-1)),
    ]
}

fn arb_row() -> impl Strategy<Value = Row> {
    prop::collection::vec(arb_value(), 0..8).prop_map(Row::new)
}

/// Bit-identical value equality: `Value::eq` uses SQL total ordering,
/// which conflates `Int(2)`/`Float(2.0)`/`Timestamp(2)` and all NaNs —
/// too weak to prove the codec preserves the exact representation.
fn bits_equal(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Timestamp(x), Value::Timestamp(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Text(x), Value::Text(y)) => x == y,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        _ => false,
    }
}

/// Reads `bytes` as a frame stream: how many frames read back before the
/// first bad one, and that frame's offset as its error names it.
fn read_all(bytes: &[u8]) -> (usize, Option<usize>) {
    let mut r = Reader::new(bytes);
    let mut frames = 0;
    loop {
        match codec::read_frame(&mut r) {
            Ok(Some(_)) => frames += 1,
            Ok(None) => return (frames, None),
            Err(e) => {
                let msg = e.to_string();
                let at = msg.split("bad frame at byte ").nth(1).unwrap();
                return (frames, at.split(':').next().unwrap().parse().ok());
            }
        }
    }
}

proptest! {
    #[test]
    fn value_round_trips_bit_exactly(v in arb_value()) {
        let mut buf = Vec::new();
        codec::encode_value(&v, &mut buf);
        let mut r = Reader::new(&buf);
        let back = codec::decode_value(&mut r).unwrap();
        prop_assert!(r.is_empty(), "trailing bytes after value");
        prop_assert!(bits_equal(&v, &back), "{v:?} -> {back:?}");
    }

    #[test]
    fn row_round_trips(row in arb_row()) {
        let mut buf = Vec::new();
        codec::encode_row(&row, &mut buf);
        let mut r = Reader::new(&buf);
        let back = codec::decode_row(&mut r).unwrap();
        prop_assert!(r.is_empty());
        prop_assert_eq!(back.len(), row.len());
        for (a, b) in row.iter().zip(back.iter()) {
            prop_assert!(bits_equal(a, b), "{a:?} -> {b:?}");
        }
    }

    #[test]
    fn framed_row_stream_round_trips(rows in prop::collection::vec(arb_row(), 0..10)) {
        let mut buf = Vec::new();
        codec::put_file_header(&mut buf, codec::LOG_MAGIC);
        for row in &rows {
            let f = codec::begin_frame(&mut buf);
            codec::encode_row(row, &mut buf);
            codec::end_frame(&mut buf, f);
        }
        let mut r = Reader::new(&buf);
        codec::check_file_header(&mut r, codec::LOG_MAGIC).unwrap();
        let mut back = Vec::new();
        while let Some(payload) = codec::read_frame(&mut r).unwrap() {
            back.push(codec::decode_row(&mut Reader::new(payload)).unwrap());
        }
        prop_assert_eq!(back.len(), rows.len());
    }

    /// A truncated frame stream reads back every frame before the cut,
    /// then ends cleanly when the cut falls between frames and fails at
    /// the cut frame's offset when it falls inside one.
    #[test]
    fn truncated_stream_yields_intact_prefix(
        rows in prop::collection::vec(arb_row(), 1..8),
        cut_back in 1usize..40,
    ) {
        let mut buf = Vec::new();
        let mut ends = vec![0];
        for row in &rows {
            let f = codec::begin_frame(&mut buf);
            codec::encode_row(row, &mut buf);
            codec::end_frame(&mut buf, f);
            ends.push(buf.len());
        }
        let cut = buf.len().saturating_sub(cut_back % buf.len().max(1));
        let whole_frames = ends.iter().filter(|&&e| e <= cut).count() - 1;
        let (seen, bad) = read_all(&buf[..cut]);
        prop_assert_eq!(seen, whole_frames);
        let cut_frame = (cut != ends[whole_frames]).then_some(ends[whole_frames]);
        prop_assert_eq!(bad, cut_frame);
    }

    /// Zeros after a valid stream (a file whose size outlived its data)
    /// read as the intact frames, then an error at the first zero.
    #[test]
    fn a_zero_run_after_valid_frames_is_an_error_at_the_first_zero(
        rows in prop::collection::vec(arb_row(), 0..6),
        zeros in 1usize..64,
    ) {
        let mut buf = Vec::new();
        for row in &rows {
            let f = codec::begin_frame(&mut buf);
            codec::encode_row(row, &mut buf);
            codec::end_frame(&mut buf, f);
        }
        let end = buf.len();
        buf.resize(end + zeros, 0);
        prop_assert_eq!(read_all(&buf), (rows.len(), Some(end)));
    }

    /// Decoding arbitrary bytes never panics (errors are fine).
    #[test]
    fn garbage_decodes_fail_cleanly(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = codec::decode_value(&mut Reader::new(&bytes));
        let _ = codec::decode_row(&mut Reader::new(&bytes));
        let mut r = Reader::new(&bytes);
        while let Ok(Some(_)) = codec::read_frame(&mut r) {}
    }
}
