//! Column codecs for sealed trace chunks: delta, run-length, and raw.
//!
//! Every column of a sealed row group is encoded independently as a small
//! self-describing byte string: one tag byte, then the payload. The encoder
//! tries all three schemes and keeps the smallest (ties prefer delta, then
//! RLE, then raw), so callers never choose a scheme per column — monotone
//! timestamp columns collapse under delta, low-cardinality columns (rank,
//! op, layer, file id) collapse under RLE, and adversarial columns fall back
//! to raw at exactly `width` bytes per value plus the tag.
//!
//! The encoder sizes all three schemes in one pass over the column's
//! native-width slice (see `encode_values`) and then writes only the
//! winner. Decoded values travel as `u64` regardless of the column's native
//! width; `width` (1/2/4/8 bytes) bounds the raw representation and is
//! validated on decode so a corrupt byte can't smuggle an oversized value
//! past the checksum into a narrowing cast.
//!
//! The byte layout is part of spill format v4 (see `spill.rs`): a spill
//! log stores these column bytes verbatim, so changes must bump that
//! version.
//!
//! Layout per tag:
//! - `0` RAW:   `n` little-endian values of `width` bytes each.
//! - `1` RLE:   LEB128 varint pairs `(value, run_length)`, runs ≥ 1,
//!   summing to `n`.
//! - `2` DELTA: first value as 8-byte LE, a delta width byte
//!   `w ∈ {0,1,2,4,8}`, then `n-1` zigzag-encoded wrapping deltas of `w`
//!   bytes each (`w = 0` means every delta is zero — a constant column).

use crate::record::{Layer, OpKind};

/// Encoding scheme tags (the first byte of every encoded column).
const TAG_RAW: u8 = 0;
const TAG_RLE: u8 = 1;
const TAG_DELTA: u8 = 2;

/// A malformed encoded column. Decoding is fallible by design: the salvage
/// loader feeds possibly-corrupt bytes through it and needs typed reasons.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Payload ended before `n` values were produced.
    Truncated,
    /// Unknown scheme tag.
    BadTag(u8),
    /// Delta width byte outside `{0, 1, 2, 4, 8}`.
    BadWidth(u8),
    /// Payload continued past the `n`-th value.
    TrailingBytes,
    /// A decoded value does not fit the column's declared native width.
    ValueTooWide { value: u64, width: u8 },
    /// A LEB128 varint ran past 10 bytes (can't fit in u64).
    VarintOverflow,
    /// An RLE run of length zero, or runs not summing to `n`.
    BadRun,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "encoded column truncated"),
            CodecError::BadTag(t) => write!(f, "unknown codec tag {t}"),
            CodecError::BadWidth(w) => write!(f, "bad delta width {w}"),
            CodecError::TrailingBytes => write!(f, "trailing bytes after last value"),
            CodecError::ValueTooWide { value, width } => {
                write!(f, "value {value} exceeds {width}-byte column width")
            }
            CodecError::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            CodecError::BadRun => write!(f, "rle runs malformed"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Zigzag-map a signed delta onto an unsigned value so small magnitudes of
/// either sign encode in few bytes.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Read one LEB128 varint starting at `*pos`, advancing it.
fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = bytes.get(*pos).ok_or(CodecError::Truncated)?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && b > 1) {
            return Err(CodecError::VarintOverflow);
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// Write `v` as a LEB128 varint at `out[pos..]`; returns the position
/// after it. The caller sized `out` to leave room, so there are no
/// capacity checks.
#[inline]
fn put_varint_at(out: &mut [u8], mut pos: usize, mut v: u64) -> usize {
    while v >= 0x80 {
        out[pos] = v as u8 | 0x80;
        v >>= 7;
        pos += 1;
    }
    out[pos] = v as u8;
    pos + 1
}

/// A column element the encoder reads at its native width: the unsigned
/// integer columns, and the [`Layer`] / [`OpKind`] columns as their
/// one-byte codes (whose order is the code order). Sealing encodes each
/// column straight from its own slice, with no `u64` staging copy.
pub(crate) trait ColumnValue: Copy + Ord {
    /// Native width in bytes (1, 2, 4 or 8): the RAW scheme's bytes per
    /// value and the width the decoder validates against.
    const WIDTH: u8;
    /// The value in the codec's `u64` domain.
    fn to_u64(self) -> u64;
}

macro_rules! int_column_value {
    ($($t:ty),*) => {$(
        impl ColumnValue for $t {
            const WIDTH: u8 = std::mem::size_of::<$t>() as u8;
            #[inline(always)]
            fn to_u64(self) -> u64 {
                self as u64
            }
        }
    )*};
}
int_column_value!(u8, u16, u32, u64);

impl ColumnValue for Layer {
    const WIDTH: u8 = 1;
    #[inline(always)]
    fn to_u64(self) -> u64 {
        self.code() as u64
    }
}

impl ColumnValue for OpKind {
    const WIDTH: u8 = 1;
    #[inline(always)]
    fn to_u64(self) -> u64 {
        self.code() as u64
    }
}

/// Store `values` back to back, `width` bytes (1, 2, 4 or 8) each, little
/// endian; width 0 stores nothing. The caller guarantees every value fits.
#[inline(always)]
fn put_width(out: &mut [u8], width: u8, values: impl Iterator<Item = u64>) {
    // Constant-width stores: one move per value instead of a
    // variable-length copy.
    macro_rules! store_loop {
        ($t:ty) => {
            for (o, v) in out.chunks_exact_mut(std::mem::size_of::<$t>()).zip(values) {
                o.copy_from_slice(&(v as $t).to_le_bytes());
            }
        };
    }
    match width {
        0 => {}
        1 => store_loop!(u8),
        2 => store_loop!(u16),
        4 => store_loop!(u32),
        _ => store_loop!(u64),
    }
}

/// The zigzagged wrapping delta from `a` to `b`, as the DELTA scheme
/// stores it. Zero exactly when `a == b`, so it also marks run boundaries.
#[inline(always)]
fn zdelta<T: ColumnValue>(a: T, b: T) -> u64 {
    zigzag(b.to_u64().wrapping_sub(a.to_u64()) as i64)
}

/// Smallest delta byte width in `{0, 1, 2, 4, 8}` holding every delta
/// whose bits are OR-ed into `bits` (an OR has the same highest set bit
/// as the maximum).
fn delta_width(bits: u64) -> u8 {
    match bits {
        0 => 0,
        v if v <= 0xff => 1,
        v if v <= 0xffff => 2,
        v if v <= 0xffff_ffff => 4,
        _ => 8,
    }
}

/// Encoded length of `v` as a LEB128 varint, without materializing it:
/// `ceil(bits / 7)` as a multiply-shift, exact for every bit count 1..=64.
fn varint_len(v: u64) -> usize {
    ((70 - (v | 1).leading_zeros() as usize) * 37) >> 8
}

/// Longest LEB128 varint of a `u64`.
const MAX_VARINT: usize = 10;

/// The RLE scheme of `values` (`runs` runs, each at least `run_floor`
/// bytes), or `None` once it is sure to exceed `limit` bytes. Written
/// speculatively in one pass: when RLE wins this is the only walk over the
/// runs. When it loses, the walk stops as soon as the bytes written plus
/// the floor of every run still to come pass `limit`.
fn write_rle<T: ColumnValue>(
    values: &[T],
    runs: usize,
    run_floor: usize,
    limit: usize,
) -> Option<Vec<u8>> {
    let (&first, tail) = values.split_first()?;
    // Room for one more (value, run) pair past `limit` before the check.
    let mut out = vec![0u8; limit + 2 * MAX_VARINT];
    out[0] = TAG_RLE;
    let mut pos = 1;
    let mut runs_left = runs;
    let mut run_value = first;
    let mut run_start = 0usize;
    for (i, &v) in (1..).zip(tail) {
        if v != run_value {
            pos = put_varint_at(&mut out, pos, run_value.to_u64());
            pos = put_varint_at(&mut out, pos, (i - run_start) as u64);
            runs_left -= 1;
            if pos + run_floor * runs_left > limit {
                return None;
            }
            run_value = v;
            run_start = i;
        }
    }
    pos = put_varint_at(&mut out, pos, run_value.to_u64());
    pos = put_varint_at(&mut out, pos, (values.len() - run_start) as u64);
    if pos > limit {
        return None;
    }
    out.truncate(pos);
    out.shrink_to_fit();
    Some(out)
}

/// Encode one column from its native-width slice. Returns the smallest of
/// the three schemes; ties prefer delta, then RLE, then raw, so the choice
/// is deterministic.
///
/// One stats pass finds the widest zigzag delta, the number of runs and
/// the smallest value. That sizes delta and raw exactly and bounds RLE
/// from below: each run costs at least one length byte plus the varint
/// bytes of the smallest value. RLE is attempted only when that floor could win,
/// and the chosen scheme is written once into a buffer sized for it.
pub(crate) fn encode_values<T: ColumnValue>(values: &[T]) -> Vec<u8> {
    let Some((&first, tail)) = values.split_first() else {
        return vec![TAG_RAW];
    };
    // A run starts exactly where the zigzag delta is nonzero. OR-ing the
    // deltas keeps the highest set bit of their maximum, which is all the
    // delta width needs.
    let mut bits = 0u64;
    let mut boundaries = 0usize;
    let mut min = first;
    for (&a, &b) in values.iter().zip(tail) {
        let z = zdelta(a, b);
        bits |= z;
        boundaries += (z != 0) as usize;
        min = min.min(b);
    }
    let n = values.len();
    let dw = delta_width(bits);
    let raw = 1 + T::WIDTH as usize * n;
    let delta = 10 + dw as usize * (n - 1);

    // RLE wins only strictly below delta and at or below raw.
    let rle_limit = (delta - 1).min(raw);
    let runs = boundaries + 1;
    let run_floor = 1 + varint_len(min.to_u64());
    let rle_floor = 1 + run_floor * runs;
    if rle_floor <= rle_limit {
        if let Some(out) = write_rle(values, runs, run_floor, rle_limit) {
            return out;
        }
    }
    if delta <= raw {
        let mut out = vec![0u8; delta];
        out[0] = TAG_DELTA;
        out[1..9].copy_from_slice(&first.to_u64().to_le_bytes());
        out[9] = dw;
        let deltas = values.iter().zip(tail).map(|(&a, &b)| zdelta(a, b));
        put_width(&mut out[10..], dw, deltas);
        out
    } else {
        let mut out = vec![0u8; raw];
        out[0] = TAG_RAW;
        put_width(&mut out[1..], T::WIDTH, values.iter().map(|&v| v.to_u64()));
        out
    }
}

/// Encode one column of `u64` values whose native width is `width` bytes
/// (1, 2, 4, or 8): the native-width encoder over the values narrowed to
/// that width, so the bytes equal those of the native column.
pub fn encode_column(values: &[u64], width: u8) -> Vec<u8> {
    assert!(
        matches!(width, 1 | 2 | 4 | 8),
        "unsupported column width {width}"
    );
    debug_assert!(
        width == 8 || values.iter().all(|&v| v >> (width * 8) == 0),
        "value exceeds declared column width"
    );
    fn narrow<T: ColumnValue>(values: &[u64], cast: impl Fn(u64) -> T) -> Vec<u8> {
        encode_values(&values.iter().map(|&v| cast(v)).collect::<Vec<T>>())
    }
    match width {
        1 => narrow(values, |v| v as u8),
        2 => narrow(values, |v| v as u16),
        4 => narrow(values, |v| v as u32),
        _ => encode_values(values),
    }
}

/// Decode an encoded column of `n` values, handing each decoded value to
/// `emit` in order. `width` is the column's declared native width; every
/// decoded value is checked to fit it. The closure form lets consumers
/// decode straight into their native-width column vectors without staging
/// through a `u64` buffer — the chunk decoder's hot path. On error, `emit`
/// may have been called for a prefix of the column.
#[inline]
pub(crate) fn decode_column_each(
    bytes: &[u8],
    n: usize,
    width: u8,
    mut emit: impl FnMut(u64),
) -> Result<(), CodecError> {
    assert!(
        matches!(width, 1 | 2 | 4 | 8),
        "unsupported column width {width}"
    );
    let (&tag, payload) = bytes.split_first().ok_or(CodecError::Truncated)?;
    let fits = |v: u64| width == 8 || v >> (width * 8) == 0;
    match tag {
        TAG_RAW => {
            let w = width as usize;
            if payload.len() < n * w {
                return Err(CodecError::Truncated);
            }
            if payload.len() > n * w {
                return Err(CodecError::TrailingBytes);
            }
            // Constant-width inner loops: the loads compile to single
            // moves instead of a variable-length copy per value.
            macro_rules! raw_loop {
                ($w:literal) => {
                    for chunk in payload.chunks_exact($w) {
                        let mut buf = [0u8; 8];
                        buf[..$w].copy_from_slice(chunk);
                        emit(u64::from_le_bytes(buf));
                    }
                };
            }
            match w {
                1 => raw_loop!(1),
                2 => raw_loop!(2),
                4 => raw_loop!(4),
                _ => raw_loop!(8),
            }
            Ok(())
        }
        TAG_RLE => {
            let mut pos = 0usize;
            let mut produced = 0usize;
            while produced < n {
                let value = get_varint(payload, &mut pos)?;
                let run = get_varint(payload, &mut pos)?;
                if run == 0 || produced + run as usize > n {
                    return Err(CodecError::BadRun);
                }
                if !fits(value) {
                    return Err(CodecError::ValueTooWide { value, width });
                }
                for _ in 0..run {
                    emit(value);
                }
                produced += run as usize;
            }
            if pos != payload.len() {
                return Err(CodecError::TrailingBytes);
            }
            Ok(())
        }
        TAG_DELTA => {
            if n == 0 {
                // Empty columns always encode as RAW; a delta header here
                // means the byte stream lies about its row count.
                return Err(CodecError::TrailingBytes);
            }
            if payload.len() < 9 {
                return Err(CodecError::Truncated);
            }
            let first = u64::from_le_bytes(payload[..8].try_into().expect("8 bytes"));
            let dw = payload[8];
            if !matches!(dw, 0 | 1 | 2 | 4 | 8) {
                return Err(CodecError::BadWidth(dw));
            }
            let deltas = &payload[9..];
            let w = dw as usize;
            if deltas.len() < (n - 1) * w {
                return Err(CodecError::Truncated);
            }
            if deltas.len() > (n - 1) * w {
                return Err(CodecError::TrailingBytes);
            }
            if !fits(first) {
                return Err(CodecError::ValueTooWide {
                    value: first,
                    width,
                });
            }
            emit(first);
            let mut prev = first;
            // Constant-width inner loops (see `raw_loop`); `chunks_exact`
            // also drops the per-iteration slice bounds checks.
            macro_rules! delta_loop {
                ($w:literal) => {
                    for chunk in deltas.chunks_exact($w) {
                        let mut buf = [0u8; 8];
                        buf[..$w].copy_from_slice(chunk);
                        let v = prev.wrapping_add(unzigzag(u64::from_le_bytes(buf)) as u64);
                        if !fits(v) {
                            return Err(CodecError::ValueTooWide { value: v, width });
                        }
                        emit(v);
                        prev = v;
                    }
                };
            }
            match w {
                // Zero delta width: every value equals the first.
                0 => {
                    for _ in 1..n {
                        emit(prev);
                    }
                }
                1 => delta_loop!(1),
                2 => delta_loop!(2),
                4 => delta_loop!(4),
                _ => delta_loop!(8),
            }
            Ok(())
        }
        other => Err(CodecError::BadTag(other)),
    }
}

/// Decode an encoded column back into `n` values, appending to `out`.
/// On error `out` may hold a partial prefix.
pub fn decode_column_into(
    bytes: &[u8],
    n: usize,
    width: u8,
    out: &mut Vec<u64>,
) -> Result<(), CodecError> {
    out.reserve(n);
    decode_column_each(bytes, n, width, |v| out.push(v))
}

/// [`decode_column_into`] into a fresh vector.
pub fn decode_column(bytes: &[u8], n: usize, width: u8) -> Result<Vec<u64>, CodecError> {
    let mut out = Vec::with_capacity(n);
    decode_column_into(bytes, n, width, &mut out)?;
    Ok(out)
}

/// The original three-pass encoder, kept as the byte-identity oracle for
/// [`encode_values`]: it widens to `u64`, sizes RLE and delta in separate
/// passes, then writes the chosen scheme value by value.
#[cfg(test)]
mod oracle {
    use super::{zigzag, TAG_DELTA, TAG_RAW, TAG_RLE};

    /// Encoded length of `v` as a LEB128 varint.
    pub(crate) fn varint_len(v: u64) -> usize {
        (64 - v.leading_zeros() as usize).max(1).div_ceil(7)
    }

    /// Append `v` as a LEB128 varint.
    pub(crate) fn put_varint(out: &mut Vec<u8>, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                out.push(byte);
                return;
            }
            out.push(byte | 0x80);
        }
    }

    /// Minimal delta byte width in `{0, 1, 2, 4, 8}` that represents
    /// every zigzagged delta of `values`.
    pub(crate) fn delta_width(values: &[u64]) -> u8 {
        let mut max = 0u64;
        for w in values.windows(2) {
            max = max.max(zigzag((w[1].wrapping_sub(w[0])) as i64));
        }
        match max {
            0 => 0,
            v if v <= 0xff => 1,
            v if v <= 0xffff => 2,
            v if v <= 0xffff_ffff => 4,
            _ => 8,
        }
    }

    /// Byte length the RLE scheme would need (tag included).
    pub(crate) fn rle_len(values: &[u64]) -> usize {
        let mut len = 1usize;
        let mut i = 0usize;
        while i < values.len() {
            let mut run = 1usize;
            while i + run < values.len() && values[i + run] == values[i] {
                run += 1;
            }
            len += varint_len(values[i]) + varint_len(run as u64);
            i += run;
        }
        len
    }

    /// Encode one column of `values` whose native width is `width` bytes.
    pub(crate) fn encode_column(values: &[u64], width: u8) -> Vec<u8> {
        if values.is_empty() {
            return vec![TAG_RAW];
        }
        let raw = 1 + width as usize * values.len();
        let rle = rle_len(values);
        let dw = delta_width(values);
        let delta = 1 + 8 + 1 + dw as usize * (values.len() - 1);

        if delta <= rle && delta <= raw {
            let mut out = Vec::with_capacity(delta);
            out.push(TAG_DELTA);
            out.extend_from_slice(&values[0].to_le_bytes());
            out.push(dw);
            for w in values.windows(2) {
                let z = zigzag((w[1].wrapping_sub(w[0])) as i64);
                out.extend_from_slice(&z.to_le_bytes()[..dw as usize]);
            }
            out
        } else if rle <= raw {
            let mut out = Vec::with_capacity(rle);
            out.push(TAG_RLE);
            let mut i = 0usize;
            while i < values.len() {
                let mut run = 1usize;
                while i + run < values.len() && values[i + run] == values[i] {
                    run += 1;
                }
                put_varint(&mut out, values[i]);
                put_varint(&mut out, run as u64);
                i += run;
            }
            out
        } else {
            let mut out = Vec::with_capacity(raw);
            out.push(TAG_RAW);
            for &v in values {
                out.extend_from_slice(&v.to_le_bytes()[..width as usize]);
            }
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::put_varint;
    use super::*;

    fn round_trip(values: &[u64], width: u8) -> Vec<u8> {
        let enc = encode_column(values, width);
        let dec = decode_column(&enc, values.len(), width).expect("decodes");
        assert_eq!(dec, values, "width {width}");
        enc
    }

    #[test]
    fn empty_column_is_one_tag_byte() {
        let enc = round_trip(&[], 4);
        assert_eq!(enc, vec![TAG_RAW]);
    }

    #[test]
    fn constant_column_collapses() {
        let values = vec![42u64; 10_000];
        let enc = round_trip(&values, 4);
        // A single RLE run beats delta-with-zero-width: tag + one
        // (value, run) varint pair.
        assert_eq!(enc.len(), 4);
        assert_eq!(enc[0], TAG_RLE);
    }

    #[test]
    fn monotone_column_compresses_under_delta() {
        let values: Vec<u64> = (0..5_000u64).map(|i| 1_000_000 + i * 37).collect();
        let enc = round_trip(&values, 8);
        assert_eq!(enc[0], TAG_DELTA);
        assert!(
            enc.len() < values.len() * 2,
            "delta beats 8B/value: {}",
            enc.len()
        );
    }

    #[test]
    fn low_cardinality_column_compresses_under_rle() {
        let mut values = Vec::new();
        for rank in 0..8u64 {
            values.extend(std::iter::repeat(rank).take(500));
        }
        let enc = round_trip(&values, 4);
        // 8 runs of 500: delta also sees long zero runs but pays per-value.
        assert_eq!(enc[0], TAG_RLE);
        assert!(enc.len() < 40, "rle pair per run: {}", enc.len());
    }

    #[test]
    fn random_column_falls_back_to_raw_width() {
        // Splitmix-style scramble: incompressible under all three schemes.
        let values: Vec<u64> = (0..1000u64)
            .map(|i| {
                let mut z = i
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(0xbf58_476d_1ce4_e5b9);
                z ^= z >> 30;
                z.wrapping_mul(0x94d0_49bb_1331_11eb)
            })
            .collect();
        let enc = round_trip(&values, 8);
        assert!(
            enc.len() <= 1 + 8 * values.len(),
            "never worse than raw: {}",
            enc.len()
        );
    }

    #[test]
    fn single_record_chunk_round_trips() {
        for width in [1u8, 2, 4, 8] {
            let enc = round_trip(&[7], width);
            assert!(enc.len() <= 11, "one value stays tiny: {}", enc.len());
        }
        round_trip(&[u64::MAX], 8);
        round_trip(&[0], 1);
    }

    #[test]
    fn negative_and_wrapping_deltas_round_trip() {
        round_trip(&[100, 3, 250, 0, u64::MAX, 1, u64::MAX / 2], 8);
        // Sawtooth: small alternating deltas of both signs.
        let saw: Vec<u64> = (0..2048u64).map(|i| 1000 + (i % 2) * 7).collect();
        let enc = round_trip(&saw, 4);
        assert!(enc.len() < saw.len() * 4);
    }

    #[test]
    fn width_is_enforced_on_decode() {
        // A forged RLE stream carrying a value too wide for a u8 column.
        let mut forged = vec![TAG_RLE];
        put_varint(&mut forged, 300);
        put_varint(&mut forged, 4);
        assert_eq!(
            decode_column(&forged, 4, 1),
            Err(CodecError::ValueTooWide {
                value: 300,
                width: 1
            })
        );
    }

    #[test]
    fn corrupt_streams_return_typed_errors() {
        assert_eq!(decode_column(&[], 1, 4), Err(CodecError::Truncated));
        assert_eq!(decode_column(&[9, 1, 2], 1, 4), Err(CodecError::BadTag(9)));
        let good = encode_column(&[1, 2, 3, 4, 5], 4);
        // Truncate mid-payload.
        assert!(decode_column(&good[..good.len() - 1], 5, 4).is_err());
        // Extend with junk.
        let mut long = good.clone();
        long.push(0);
        assert!(decode_column(&long, 5, 4).is_err());
        // Lie about the row count.
        assert!(decode_column(&good, 4, 4).is_err());
        assert!(decode_column(&good, 6, 4).is_err());
    }

    #[test]
    fn varints_round_trip_at_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v));
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        // Every bit length: the multiply-shift length and the slice writer
        // agree with the byte-at-a-time oracle.
        for bits in 0..=64u32 {
            for v in [
                u64::MAX >> (64 - bits.max(1)),
                if bits == 0 { 0 } else { 1u64 << (bits - 1) },
            ] {
                let mut want = Vec::new();
                put_varint(&mut want, v);
                assert_eq!(varint_len(v), want.len(), "{v:#x}");
                let mut out = [0xaau8; 1 + MAX_VARINT];
                assert_eq!(put_varint_at(&mut out, 1, v), 1 + want.len());
                assert_eq!(&out[1..1 + want.len()], &want[..], "{v:#x}");
            }
        }
        // An 11-byte varint can't fit in 64 bits.
        let over = [0xffu8; 10];
        let mut pos = 0;
        assert_eq!(get_varint(&over, &mut pos), Err(CodecError::VarintOverflow));
    }

    #[test]
    fn zigzag_is_an_involution() {
        for v in [
            0i64,
            1,
            -1,
            63,
            -64,
            i64::MAX,
            i64::MIN,
            1 << 40,
            -(1 << 40),
        ] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn seeded_randomized_columns_round_trip() {
        // A deterministic xorshift sweep over mixed-shape columns: mostly-
        // constant, step functions, random, monotone with jitter — at every
        // supported width (values masked to fit).
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for width in [1u8, 2, 4, 8] {
            let mask = if width == 8 {
                u64::MAX
            } else {
                (1u64 << (width * 8)) - 1
            };
            for len in [0usize, 1, 2, 3, 100, 4097] {
                for shape in 0..4 {
                    let mut acc = 0u64;
                    let values: Vec<u64> = (0..len)
                        .map(|i| match shape {
                            0 => next() % 3,             // low cardinality
                            1 => (i as u64 / 97) & mask, // step function
                            2 => next() & mask,          // random
                            _ => {
                                acc = acc.wrapping_add(next() % 16) & mask;
                                acc // monotone-ish
                            }
                        })
                        .collect();
                    round_trip(&values, width);
                }
            }
        }
    }

    /// The seeded byte-identity gate: the native-width encoder emits
    /// exactly the oracle's bytes at every width and on the enum code
    /// columns, so sealed chunks and spill logs never move.
    #[test]
    fn native_encoder_matches_the_three_pass_oracle() {
        fn mask(width: u8) -> u64 {
            if width == 8 {
                u64::MAX
            } else {
                (1u64 << (width * 8)) - 1
            }
        }
        // Encode `values` (already fitting `width`) both ways and compare;
        // returns the oracle's (delta, rle, raw) sizes for tie coverage.
        // `encode_column` narrows to the native type of `width`, so this
        // runs the encoder on u8, u16, u32 and u64 slices.
        fn check(values: &[u64], width: u8, label: &str) -> (usize, usize, usize) {
            let want = oracle::encode_column(values, width);
            assert_eq!(
                encode_column(values, width),
                want,
                "{label}: width {width} values {values:?}"
            );
            let delta = if values.is_empty() {
                usize::MAX
            } else {
                10 + oracle::delta_width(values) as usize * (values.len() - 1)
            };
            (
                delta,
                oracle::rle_len(values),
                1 + width as usize * values.len(),
            )
        }

        let mut state = 0x5eed_c0de_1234_abcdu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Tie coverage: (delta == rle, delta == raw, rle == raw) cases hit.
        let mut ties = [0usize; 3];
        for width in [1u8, 2, 4, 8] {
            let m = mask(width);
            let mut cases: Vec<(&str, Vec<u64>)> = vec![
                ("empty", vec![]),
                ("single zero", vec![0]),
                ("single max", vec![m]),
                ("single mid", vec![m / 3]),
                ("constant", vec![m / 2; 1000]),
                ("constant max", vec![m; 37]),
                ("constant zero", vec![0; 9]),
                ("wrap", vec![0, m, 0, m, 1, m - 1]),
                (
                    "descending",
                    (0..300u64).map(|i| m.wrapping_sub(i * 3) & m).collect(),
                ),
                // Exact ties: eight distinct small values tie all three
                // schemes at width 2; value pairs tie RLE with raw at width 1.
                ("three-way tie", (0..8u64).collect()),
                (
                    "pairs",
                    (0..40u64).map(|i| (i / 2) % 100).collect::<Vec<_>>(),
                ),
                ("rle-delta tie", vec![0, 1, 2, 3, 4, 4, 5, 6, 6, 7, 8, 9]),
            ];
            // Runs and values straddling varint length boundaries.
            for run in [127u64, 128, 16_383, 16_384] {
                let value = (run & m).max(1);
                let mut v = vec![value; run as usize];
                v.extend(std::iter::repeat_n(value - 1, run as usize + 1));
                v.push(0);
                cases.push(("varint boundary runs", v));
            }
            for value in [127u64, 128, 16_383, 16_384, u64::MAX >> 1, u64::MAX] {
                cases.push(("varint boundary values", vec![value & m; 5]));
                cases.push((
                    "varint boundary steps",
                    (0..64u64)
                        .map(|i| (value & m).wrapping_sub(i / 8) & m)
                        .collect(),
                ));
            }
            // Seeded shapes: low cardinality, runs, ramps with jitter
            // (including deltas at each width boundary), random.
            for len in [2usize, 3, 8, 9, 17, 100, 1000, 4097] {
                for shape in 0..6 {
                    let mut acc = next() & m;
                    let step = [1u64, 0x7f, 0x80, 0x7fff, 0x8000, 0x7fff_ffff][shape];
                    let values: Vec<u64> = (0..len)
                        .map(|i| match shape {
                            0 => next() % 3,
                            1 => ((i as u64) / (1 + next() % 50)) & m,
                            2 => next() & m,
                            3 => {
                                acc = acc.wrapping_add(next() % 16) & m;
                                acc
                            }
                            _ => {
                                acc = acc.wrapping_add(step) & m;
                                acc
                            }
                        })
                        .collect();
                    cases.push(("seeded", values));
                }
            }
            // Every short column over a tiny alphabet hits exact ties.
            for len in 1..=12usize {
                for _ in 0..64 {
                    let values: Vec<u64> = (0..len).map(|_| (next() % 4) * (m / 3)).collect();
                    cases.push(("short", values));
                }
            }
            for (label, values) in &cases {
                let (delta, rle, raw) = check(values, width, label);
                ties[0] += (delta == rle) as usize;
                ties[1] += (delta == raw) as usize;
                ties[2] += (rle == raw) as usize;
            }
        }
        assert!(ties.iter().all(|&t| t > 0), "tie coverage {ties:?}");

        // The enum code columns encode by code at width 1.
        let layers = [
            Layer::App,
            Layer::HighLevel,
            Layer::MpiIo,
            Layer::Stdio,
            Layer::Posix,
            Layer::Middleware,
        ];
        for len in [0usize, 1, 2, 9, 300, 5000] {
            for runs in [1u64, 4, 200] {
                let picks: Vec<u64> = (0..len).map(|i| next() % 6 + i as u64 / runs).collect();
                let col: Vec<Layer> = picks.iter().map(|&p| layers[p as usize % 6]).collect();
                let codes: Vec<u64> = col.iter().map(|l| l.code() as u64).collect();
                assert_eq!(encode_values(&col), oracle::encode_column(&codes, 1));
                let ops: Vec<OpKind> = picks
                    .iter()
                    .filter_map(|&p| OpKind::from_code((p % 19) as u8))
                    .collect();
                let codes: Vec<u64> = ops.iter().map(|o| o.code() as u64).collect();
                assert_eq!(encode_values(&ops), oracle::encode_column(&codes, 1));
            }
        }
    }
}
