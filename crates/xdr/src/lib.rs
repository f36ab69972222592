//! XDR (External Data Representation, RFC 4506 subset) encoding.
//!
//! NFS and ONC RPC messages are XDR-encoded on the wire. The µproxy's
//! per-packet cost is dominated by *decoding* these messages — locating the
//! request type and arguments past variable-length fields (paper §5,
//! Table 3) — so this codec is written for the same access pattern the
//! paper's filter uses: forward, bounds-checked cursor reads over a byte
//! slice, no allocation on the decode fast path except where the caller
//! extracts owned data.
//!
//! All quantities are big-endian and padded to 4-byte alignment, per XDR.

use std::fmt;

/// Errors produced while decoding an XDR stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XdrError {
    /// The stream ended before the requested item.
    Truncated {
        /// Decode offset at which the shortfall was detected.
        offset: usize,
        /// Bytes needed beyond the end of the buffer.
        needed: usize,
    },
    /// A length prefix exceeded the decoder's configured bound.
    LengthOverflow {
        /// The length that was declared in the stream.
        declared: usize,
        /// The maximum the decoder allows.
        max: usize,
    },
    /// A discriminant or enum value was out of range.
    InvalidValue {
        /// Human-readable item description.
        what: &'static str,
        /// The offending raw value.
        value: u32,
    },
    /// Non-zero padding bytes, which RFC 4506 forbids.
    BadPadding,
}

impl fmt::Display for XdrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            XdrError::Truncated { offset, needed } => {
                write!(
                    f,
                    "xdr stream truncated at offset {offset} (needed {needed} more bytes)"
                )
            }
            XdrError::LengthOverflow { declared, max } => {
                write!(f, "xdr length {declared} exceeds bound {max}")
            }
            XdrError::InvalidValue { what, value } => {
                write!(f, "invalid xdr value {value} for {what}")
            }
            XdrError::BadPadding => write!(f, "non-zero xdr padding"),
        }
    }
}

impl std::error::Error for XdrError {}

/// Result alias for XDR operations.
pub type Result<T> = std::result::Result<T, XdrError>;

/// Largest variable-length item the decoder will accept by default (1 MB):
/// far above any NFS message component, far below anything that could be
/// used to make a µproxy allocate unboundedly from a hostile packet.
pub const DEFAULT_MAX_LEN: usize = 1 << 20;

#[inline]
fn pad_len(n: usize) -> usize {
    (4 - (n % 4)) % 4
}

/// Growable XDR output buffer.
///
/// # Examples
///
/// ```
/// use slice_xdr::{XdrEncoder, XdrDecoder};
///
/// let mut enc = XdrEncoder::new();
/// enc.put_u32(3); // NFS_V3
/// enc.put_string("hello");
/// let bytes = enc.into_bytes();
///
/// let mut dec = XdrDecoder::new(&bytes);
/// assert_eq!(dec.get_u32().unwrap(), 3);
/// assert_eq!(dec.get_string().unwrap(), "hello");
/// assert!(dec.is_empty());
/// ```
#[derive(Debug, Default, Clone)]
pub struct XdrEncoder {
    buf: Vec<u8>,
}

impl XdrEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an encoder with `cap` bytes preallocated.
    pub fn with_capacity(cap: usize) -> Self {
        XdrEncoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder, returning the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Borrows the encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Appends an unsigned 32-bit integer.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a signed 32-bit integer.
    #[inline]
    pub fn put_i32(&mut self, v: i32) {
        self.put_u32(v as u32);
    }

    /// Appends an unsigned 64-bit integer (XDR "unsigned hyper").
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Appends a boolean as a 32-bit 0/1.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(u32::from(v));
    }

    /// Appends fixed-length opaque data (padded, no length prefix).
    pub fn put_opaque_fixed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
        self.buf
            .extend(std::iter::repeat_n(0u8, pad_len(data.len())));
    }

    /// Appends variable-length opaque data (length prefix + padding).
    pub fn put_opaque(&mut self, data: &[u8]) {
        self.put_u32(data.len() as u32);
        self.put_opaque_fixed(data);
    }

    /// Appends a string as variable-length opaque UTF-8.
    pub fn put_string(&mut self, s: &str) {
        self.put_opaque(s.as_bytes());
    }
}

/// Forward-only bounds-checked XDR reader over a byte slice.
#[derive(Debug, Clone)]
pub struct XdrDecoder<'a> {
    data: &'a [u8],
    pos: usize,
    max_len: usize,
}

impl<'a> XdrDecoder<'a> {
    /// Wraps `data` with the default length bound.
    pub fn new(data: &'a [u8]) -> Self {
        XdrDecoder {
            data,
            pos: 0,
            max_len: DEFAULT_MAX_LEN,
        }
    }

    /// Wraps `data` with a custom bound on variable-length items.
    pub fn with_max_len(data: &'a [u8], max_len: usize) -> Self {
        XdrDecoder {
            data,
            pos: 0,
            max_len,
        }
    }

    /// Current decode offset from the start of the buffer.
    #[inline]
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes remaining past the cursor.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// True when the cursor has consumed the whole buffer.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(XdrError::Truncated {
                offset: self.pos,
                needed: n - self.remaining(),
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads an unsigned 32-bit integer.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a signed 32-bit integer.
    #[inline]
    pub fn get_i32(&mut self) -> Result<i32> {
        Ok(self.get_u32()? as i32)
    }

    /// Reads an unsigned 64-bit integer.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a boolean; any value other than 0 or 1 is an error.
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(XdrError::InvalidValue {
                what: "bool",
                value: v,
            }),
        }
    }

    /// Reads `n` bytes of fixed-length opaque data (consuming padding).
    pub fn get_opaque_fixed(&mut self, n: usize) -> Result<&'a [u8]> {
        let body = self.take(n)?;
        let pad = self.take(pad_len(n))?;
        if pad.iter().any(|&b| b != 0) {
            return Err(XdrError::BadPadding);
        }
        Ok(body)
    }

    /// Reads variable-length opaque data, borrowing from the buffer.
    pub fn get_opaque(&mut self) -> Result<&'a [u8]> {
        let n = self.get_u32()? as usize;
        if n > self.max_len {
            return Err(XdrError::LengthOverflow {
                declared: n,
                max: self.max_len,
            });
        }
        self.get_opaque_fixed(n)
    }

    /// Reads a string, validating UTF-8.
    pub fn get_string(&mut self) -> Result<&'a str> {
        let raw = self.get_opaque()?;
        std::str::from_utf8(raw).map_err(|_| XdrError::InvalidValue {
            what: "utf-8 string",
            value: 0,
        })
    }

    /// Skips `n` raw bytes plus padding, as the µproxy does for fields it
    /// does not need to inspect.
    pub fn skip_opaque_fixed(&mut self, n: usize) -> Result<()> {
        self.take(n + pad_len(n))?;
        Ok(())
    }

    /// Skips a variable-length opaque item without touching its contents.
    pub fn skip_opaque(&mut self) -> Result<()> {
        let n = self.get_u32()? as usize;
        if n > self.max_len {
            return Err(XdrError::LengthOverflow {
                declared: n,
                max: self.max_len,
            });
        }
        self.skip_opaque_fixed(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars() {
        let mut e = XdrEncoder::new();
        e.put_u32(0xdead_beef);
        e.put_i32(-17);
        e.put_u64(0x0123_4567_89ab_cdef);
        e.put_bool(true);
        e.put_bool(false);
        let b = e.into_bytes();
        assert_eq!(b.len(), 4 + 4 + 8 + 4 + 4);
        let mut d = XdrDecoder::new(&b);
        assert_eq!(d.get_u32().unwrap(), 0xdead_beef);
        assert_eq!(d.get_i32().unwrap(), -17);
        assert_eq!(d.get_u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert!(d.get_bool().unwrap());
        assert!(!d.get_bool().unwrap());
        assert!(d.is_empty());
    }

    #[test]
    fn opaque_padding() {
        for len in 0..9 {
            let data: Vec<u8> = (0..len as u8).collect();
            let mut e = XdrEncoder::new();
            e.put_opaque(&data);
            let b = e.into_bytes();
            assert_eq!(b.len() % 4, 0, "len {len} not padded");
            let mut d = XdrDecoder::new(&b);
            assert_eq!(d.get_opaque().unwrap(), &data[..]);
            assert!(d.is_empty());
        }
    }

    #[test]
    fn string_roundtrip() {
        let mut e = XdrEncoder::new();
        e.put_string("µproxy");
        let b = e.into_bytes();
        let mut d = XdrDecoder::new(&b);
        assert_eq!(d.get_string().unwrap(), "µproxy");
    }

    #[test]
    fn truncated_reads_fail() {
        let mut e = XdrEncoder::new();
        e.put_u32(5);
        let b = e.into_bytes();
        let mut d = XdrDecoder::new(&b[..3]);
        assert!(matches!(d.get_u32(), Err(XdrError::Truncated { .. })));
        // A declared length that runs past the buffer must also fail.
        let mut d = XdrDecoder::new(&b);
        assert!(matches!(d.get_opaque(), Err(XdrError::Truncated { .. })));
    }

    #[test]
    fn hostile_length_bounded() {
        let mut e = XdrEncoder::new();
        e.put_u32(u32::MAX);
        let b = e.into_bytes();
        let mut d = XdrDecoder::new(&b);
        assert!(matches!(
            d.get_opaque(),
            Err(XdrError::LengthOverflow { .. })
        ));
    }

    #[test]
    fn nonzero_padding_rejected() {
        let mut e = XdrEncoder::new();
        e.put_opaque(b"abc");
        let mut b = e.into_bytes();
        *b.last_mut().unwrap() = 1;
        let mut d = XdrDecoder::new(&b);
        assert_eq!(d.get_opaque(), Err(XdrError::BadPadding));
    }

    #[test]
    fn bad_bool_rejected() {
        let mut e = XdrEncoder::new();
        e.put_u32(2);
        let b = e.into_bytes();
        assert!(matches!(
            XdrDecoder::new(&b).get_bool(),
            Err(XdrError::InvalidValue {
                what: "bool",
                value: 2
            })
        ));
    }

    #[test]
    fn skip_matches_get() {
        let mut e = XdrEncoder::new();
        e.put_opaque(b"skip me");
        e.put_u32(42);
        let b = e.into_bytes();
        let mut d = XdrDecoder::new(&b);
        d.skip_opaque().unwrap();
        assert_eq!(d.get_u32().unwrap(), 42);
    }
}
