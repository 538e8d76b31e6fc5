//! A tensor's elements as raw little-endian bytes, and back: the payload
//! of the tensor codec in `tfe_graph::serial` (wire frames, bundles,
//! checkpoints).

use crate::{Buffer, DType, Result, Shape, TensorData, TensorError};

impl TensorData {
    /// The elements as raw little-endian bytes, row-major, each at its
    /// dtype's width (bool is one byte, 0 or 1). Bit-exact: NaN payloads,
    /// signed zeros and subnormals are copied, never converted.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        fn pack<T: Copy, const W: usize>(v: &[T], le: impl Fn(T) -> [u8; W]) -> Vec<u8> {
            let mut out = vec![0u8; v.len() * W];
            for (dst, &x) in out.chunks_exact_mut(W).zip(v) {
                dst.copy_from_slice(&le(x));
            }
            out
        }
        match self.buffer() {
            Buffer::F32(v) => pack(v, f32::to_le_bytes),
            Buffer::F64(v) => pack(v, f64::to_le_bytes),
            Buffer::I32(v) => pack(v, i32::to_le_bytes),
            Buffer::I64(v) => pack(v, i64::to_le_bytes),
            Buffer::Bool(v) => v.iter().map(|&b| b as u8).collect(),
        }
    }

    /// Rebuild a tensor from the bytes [`TensorData::to_le_bytes`] wrote.
    ///
    /// # Errors
    /// [`TensorError::InvalidArgument`] when `bytes` is not exactly
    /// `shape.num_elements() × dtype.size_bytes()` long, or a bool byte is
    /// neither 0 nor 1.
    pub fn from_le_bytes(
        dtype: DType,
        shape: impl Into<Shape>,
        bytes: &[u8],
    ) -> Result<TensorData> {
        fn unpack<T, const W: usize>(bytes: &[u8], le: impl Fn([u8; W]) -> T) -> Vec<T> {
            bytes.chunks_exact(W).map(|c| le(c.try_into().expect("chunk is W bytes"))).collect()
        }
        let shape = shape.into();
        if shape.num_elements().checked_mul(dtype.size_bytes()) != Some(bytes.len()) {
            return Err(TensorError::InvalidArgument(format!(
                "{} payload bytes do not fill a {dtype} tensor of shape {shape}",
                bytes.len()
            )));
        }
        let buf = match dtype {
            DType::F32 => Buffer::F32(unpack(bytes, f32::from_le_bytes)),
            DType::F64 => Buffer::F64(unpack(bytes, f64::from_le_bytes)),
            DType::I32 => Buffer::I32(unpack(bytes, i32::from_le_bytes)),
            DType::I64 => Buffer::I64(unpack(bytes, i64::from_le_bytes)),
            DType::Bool => {
                if let Some(bad) = bytes.iter().find(|&&b| b > 1) {
                    return Err(TensorError::InvalidArgument(format!(
                        "bool payload byte {bad} is neither 0 nor 1"
                    )));
                }
                Buffer::Bool(bytes.iter().map(|&b| b == 1).collect())
            }
        };
        TensorData::from_buffer(buf, shape)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn le_bytes_round_trip_is_bit_exact_and_checked() {
        let nan = f32::from_bits(0xffc0_1234);
        let t = TensorData::from_vec(vec![nan, -0.0, f32::from_bits(1)], Shape::from([3])).unwrap();
        let bytes = t.to_le_bytes();
        assert_eq!(&bytes[..4], &0xffc0_1234u32.to_le_bytes());
        let back = TensorData::from_le_bytes(DType::F32, [3], &bytes).unwrap();
        let raw = |t: &TensorData| -> Vec<u32> {
            t.as_slice::<f32>().unwrap().iter().map(|v| v.to_bits()).collect()
        };
        assert_eq!(raw(&back), raw(&t));
        for t in [
            TensorData::from_vec(vec![i64::MIN, (1 << 53) + 1], Shape::from([2])).unwrap(),
            TensorData::from_vec(vec![true, false], Shape::from([2, 1])).unwrap(),
            TensorData::zeros(DType::F64, [0]),
        ] {
            let back =
                TensorData::from_le_bytes(t.dtype(), t.shape().clone(), &t.to_le_bytes()).unwrap();
            assert_eq!(back, t);
        }
        // One byte short, one byte long, and a bool that is neither 0 nor 1.
        assert!(TensorData::from_le_bytes(DType::F32, [3], &bytes[..11]).is_err());
        assert!(TensorData::from_le_bytes(DType::F32, [2], &bytes).is_err());
        assert!(TensorData::from_le_bytes(DType::Bool, [2], &[1, 2]).is_err());
    }
}
