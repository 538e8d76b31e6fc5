//! Wire-frame hardening (mirrors `tests/saved_hardening.rs` for the
//! on-disk format): every one-byte mutation and every truncation of a
//! valid frame must decode to a typed `WireError` or to a (different but
//! well-formed) frame — never a panic, never an oversized allocation.

use tf_eager::dist::wire::HEADER_LEN;
use tf_eager::dist::{Frame, WireError, MAX_FRAME_LEN};
use tf_eager::graph::serial::{tensor_from_value, tensor_to_value};
use tf_eager::TensorData;
use tfe_encode::Value;

/// A `run` request whose first step takes one inline tensor and whose
/// second reads the first by step reference.
fn run_frame(tensor: Value) -> Frame {
    let object = |fields: Vec<(&str, Value)>| {
        Value::object(fields.into_iter().map(|(k, v)| (k.to_string(), v)))
    };
    let first = object(vec![("step", Value::Int(0)), ("output", Value::Int(0))]);
    let step = |op: &str, inputs: Vec<Value>| {
        object(vec![
            ("op", Value::str(op)),
            ("attrs", object(vec![])),
            ("inputs", Value::Array(inputs)),
        ])
    };
    Frame::new(
        u64::MAX,
        Some((u64::MAX, 1)),
        object(vec![
            ("type", Value::str("run")),
            ("free", Value::from(vec![3i64, 4])),
            (
                "steps",
                Value::Array(vec![
                    step("square", vec![object(vec![("inline", tensor)])]),
                    step("add", vec![first.clone(), first]),
                ]),
            ),
            ("keep", Value::Array(vec![object(vec![("step", Value::Int(1))])])),
            ("return", Value::Array(vec![object(vec![("resident", Value::Int(3))])])),
        ]),
    )
}

fn sample_frames() -> Vec<Frame> {
    vec![
        Frame::new(1, None, Value::Null),
        Frame::new(42, Some((7, 9)), Value::str("pong")),
        run_frame(tensor_to_value(
            &TensorData::from_vec(vec![1.5f32, f32::NAN, -2.25], [3]).unwrap(),
        )),
        run_frame(tensor_to_value(&TensorData::from_vec(vec![true, false], [2]).unwrap())),
    ]
}

/// The inline tensor of a frame built by `run_frame`, decoded.
fn inline_tensor(frame: &Frame) -> Result<TensorData, String> {
    let inline = frame
        .body
        .get("steps")
        .and_then(Value::as_array)
        .and_then(|steps| steps.first())
        .and_then(|step| step.get("inputs"))
        .and_then(Value::as_array)
        .and_then(|inputs| inputs.first())
        .and_then(|arg| arg.get("inline"))
        .ok_or("frame has no inline input")?;
    tensor_from_value(inline).map_err(|e| e.to_string())
}

/// Every truncation prefix decodes to a typed error (or, for the empty
/// tail case, the full frame).
#[test]
fn truncations_are_typed_errors() {
    for frame in sample_frames() {
        let bytes = frame.encode();
        for cut in 0..bytes.len() {
            match Frame::decode(&bytes[..cut]) {
                Err(_) => {}
                Ok(decoded) => panic!("truncated at {cut} decoded to {decoded:?}"),
            }
        }
        assert_eq!(Frame::decode(&bytes).unwrap(), frame);
    }
}

/// Every single-byte corruption decodes to a typed error or a well-formed
/// frame — the decoder must not panic on any of them.
#[test]
fn single_byte_mutations_never_panic() {
    tf_eager::init();
    let worker = tf_eager::dist::WorkerState::new("fuzz/0");
    for frame in sample_frames() {
        let bytes = frame.encode();
        for pos in 0..bytes.len() {
            for flip in [0x01u8, 0x80, 0xff] {
                let mut mutated = bytes.clone();
                mutated[pos] ^= flip;
                // Must return, not panic; both Ok (benign payload edit)
                // and Err (structural damage) are acceptable. The same
                // holds for the tensor codec under the frame, and for the
                // worker that is handed whatever still decodes.
                if let Ok(decoded) = Frame::decode(&mutated) {
                    let _ = inline_tensor(&decoded);
                    let (reply, _) = worker.handle_frame(&decoded);
                    assert!(reply.body.get("ok").is_some() || reply.body.get("err").is_some());
                }
            }
        }
    }
}

/// A hostile length field is rejected before any allocation happens.
#[test]
fn oversized_length_is_guarded() {
    let mut bytes = Frame::new(1, None, Value::str("x")).encode();
    for len in [MAX_FRAME_LEN as u32 + 1, u32::MAX, u32::MAX / 2] {
        bytes[30..34].copy_from_slice(&len.to_le_bytes());
        assert!(
            matches!(Frame::decode(&bytes), Err(WireError::Oversized { .. })),
            "length {len} must be rejected"
        );
    }
}

/// Structured garbage: random-looking inputs with valid prefixes of
/// increasing depth all fail with typed errors.
#[test]
fn garbage_inputs_are_typed_errors() {
    let cases: Vec<Vec<u8>> = vec![
        vec![],
        b"hello world this is not a frame at all".to_vec(),
        b"TFEW".to_vec(),                      // magic only
        [b"TFEW".as_slice(), &[3u8]].concat(), // wrong version
        vec![0xff; 64],
    ];
    for bytes in cases {
        assert!(Frame::decode(&bytes).is_err(), "{bytes:?} must not decode");
    }
    // Valid header, payload that is not a well-formed value.
    let mut bytes = Frame::new(9, None, Value::str("abcd")).encode();
    let last = bytes.len() - 1;
    bytes[last] = 0xc0; // invalid UTF-8 in the string
    assert!(matches!(Frame::decode(&bytes), Err(WireError::Payload(_))));
    bytes[HEADER_LEN] = 0x2a; // no such value tag
    assert!(matches!(Frame::decode(&bytes), Err(WireError::Payload(_))));
}

/// Rewrite the payload of an encoded frame, keeping its header consistent.
fn with_payload(frame: &Frame, payload: &[u8]) -> Vec<u8> {
    let mut bytes = frame.encode()[..HEADER_LEN].to_vec();
    bytes[30..34].copy_from_slice(&(payload.len() as u32).to_le_bytes());
    bytes.extend_from_slice(payload);
    bytes
}

/// A frame of the previous protocol version (JSON text payload) is refused
/// by version, before its payload is looked at.
#[test]
fn v1_frames_are_refused_by_version() {
    let frame = Frame::new(5, None, Value::str("pong"));
    let mut v1 = with_payload(&frame, frame.body.to_json().as_bytes());
    v1[4] = 1;
    assert_eq!(Frame::decode(&v1), Err(WireError::UnsupportedVersion(1)));
}

/// Lengths inside the payload are checked against the bytes that are there:
/// a blob or a count that claims more is a typed error, and nothing is
/// allocated for it.
#[test]
fn inner_lengths_are_checked_before_allocation() {
    let frame = Frame::new(1, None, Value::Null);
    // tag 6 = bytes, tag 5 = string, tag 7 = array, tag 8 = object; then a
    // varint far beyond MAX_FRAME_LEN and a few bytes of "content".
    let huge = [0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f];
    for tag in [5u8, 6, 7, 8] {
        let payload = [&[tag][..], &huge, &[0, 0, 0]].concat();
        let got = Frame::decode(&with_payload(&frame, &payload));
        assert!(matches!(got, Err(WireError::Payload(_))), "tag {tag}: {got:?}");
    }
    // One byte more than is left.
    let got = Frame::decode(&with_payload(&frame, &[6, 4, 1, 2, 3]));
    assert!(matches!(got, Err(WireError::Payload(_))), "{got:?}");
}

/// Nesting deeper than the decoder's limit is a typed error, not a stack
/// overflow: 16 MB of nested one-element arrays fit in a frame.
#[test]
fn nesting_bomb_is_a_typed_error() {
    let frame = Frame::new(1, None, Value::Null);
    let bomb = [7u8, 1].repeat(8 << 20);
    let got = Frame::decode(&with_payload(&frame, &bomb));
    assert!(matches!(got, Err(WireError::Payload(_))), "{got:?}");
}

/// A well-formed frame whose tensor payload does not fit its header fields
/// decodes as a frame and fails, typed, in the tensor codec.
#[test]
fn tensor_payload_is_checked_against_dtype_and_shape() {
    let tensor = |dtype: &str, dims: Vec<i64>, data: Vec<u8>| {
        Value::object([
            ("dtype".to_string(), Value::str(dtype)),
            ("shape".to_string(), Value::from(dims)),
            ("data".to_string(), Value::Bytes(data.into())),
        ])
    };
    let through_the_wire = |t: Value| {
        let frame = run_frame(t);
        let decoded = Frame::decode(&frame.encode()).expect("frame itself is well-formed");
        assert_eq!(decoded, frame);
        inline_tensor(&decoded)
    };
    assert!(through_the_wire(tensor("float32", vec![2], vec![0; 8])).is_ok());
    // One byte short, one element long, wrong width for the dtype.
    assert!(through_the_wire(tensor("float32", vec![2], vec![0; 7])).is_err());
    assert!(through_the_wire(tensor("float32", vec![2], vec![0; 12])).is_err());
    assert!(through_the_wire(tensor("float64", vec![2], vec![0; 8])).is_err());
    assert!(through_the_wire(tensor("float32", vec![2, 0], vec![0; 4])).is_err());
    // Dims whose product overflows, with a payload that is merely small.
    assert!(through_the_wire(tensor("float32", vec![i64::MAX, 8], vec![0; 8])).is_err());
    // A bool is 0 or 1.
    assert!(through_the_wire(tensor("bool", vec![3], vec![0, 1, 1])).is_ok());
    assert!(through_the_wire(tensor("bool", vec![3], vec![0, 1, 2])).is_err());
    assert!(through_the_wire(tensor("bool", vec![3], vec![0, 1, 0xff])).is_err());
}

/// Stream reads tolerate arbitrary chunking: a frame split at every
/// possible boundary still reassembles exactly.
#[test]
fn chunked_stream_reads_reassemble() {
    use std::io::Read;

    /// A reader that returns at most `chunk` bytes per read call.
    struct Dribble<'a> {
        data: &'a [u8],
        pos: usize,
        chunk: usize,
    }
    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.chunk.min(buf.len()).min(self.data.len() - self.pos);
            buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
            self.pos += n;
            Ok(n)
        }
    }

    for frame in sample_frames() {
        let bytes = frame.encode();
        for chunk in [1, 2, 3, 7, 16] {
            let mut r = Dribble { data: &bytes, pos: 0, chunk };
            let (decoded, total) =
                tf_eager::dist::wire::read_frame(&mut r, false).unwrap().unwrap();
            assert_eq!(decoded, frame, "chunk size {chunk}");
            assert_eq!(total, bytes.len());
        }
    }
}
