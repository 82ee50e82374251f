//! Property tests for the binary durability codec: every `Value`/`Row`
//! must round-trip exactly (including NULL, negative ints, empty strings,
//! and non-finite floats), framed streams must survive concatenation, and
//! decoding arbitrary garbage must fail cleanly — never panic, never
//! allocate absurdly.

use proptest::prelude::*;
use sstore_common::codec::{self, FrameRead, Reader};
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
        loop {
            match codec::read_frame(&mut r) {
                FrameRead::Frame(payload) => {
                    back.push(codec::decode_row(&mut Reader::new(payload)).unwrap());
                }
                FrameRead::Eof => break,
                other => prop_assert!(false, "unexpected {other:?}"),
            }
        }
        prop_assert_eq!(back.len(), rows.len());
    }

    /// A truncated frame stream always classifies as Torn/Eof at the cut,
    /// and every frame before the cut still reads back — the exact
    /// guarantee torn-tail recovery depends on.
    #[test]
    fn truncated_stream_yields_intact_prefix(
        rows in prop::collection::vec(arb_row(), 1..8),
        cut_back in 1usize..40,
    ) {
        let mut buf = Vec::new();
        let mut ends = Vec::new();
        for row in &rows {
            let f = codec::begin_frame(&mut buf);
            codec::encode_row(row, &mut buf);
            codec::end_frame(&mut buf, f);
            ends.push(buf.len());
        }
        let cut = buf.len().saturating_sub(cut_back % buf.len().max(1));
        let truncated = &buf[..cut];
        let whole_frames = ends.iter().filter(|&&e| e <= cut).count();
        let mut r = Reader::new(truncated);
        let mut seen = 0usize;
        loop {
            match codec::read_frame(&mut r) {
                FrameRead::Frame(_) => seen += 1,
                FrameRead::Eof | FrameRead::Torn { .. } => break,
                FrameRead::Corrupt { offset, detail } => {
                    prop_assert!(false, "truncation misread as corruption at {offset}: {detail}");
                }
            }
        }
        prop_assert_eq!(seen, whole_frames);
    }

    /// Zeros after a valid stream (a file whose size outlived its data)
    /// read as the intact frames, then a torn tail at the first zero.
    #[test]
    fn a_zero_run_after_valid_frames_is_a_torn_tail(
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
        let mut r = Reader::new(&buf);
        for _ in &rows {
            prop_assert!(matches!(codec::read_frame(&mut r), FrameRead::Frame(_)));
        }
        match codec::read_frame(&mut r) {
            FrameRead::Torn { offset } => prop_assert_eq!(offset, end),
            other => prop_assert!(false, "zeros read as {other:?}"),
        }
    }

    /// Decoding arbitrary bytes never panics (errors are fine).
    #[test]
    fn garbage_decodes_fail_cleanly(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = codec::decode_value(&mut Reader::new(&bytes));
        let _ = codec::decode_row(&mut Reader::new(&bytes));
        let mut r = Reader::new(&bytes);
        while let FrameRead::Frame(_) = codec::read_frame(&mut r) {}
    }
}
