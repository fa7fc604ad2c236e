//! Offline stand-in for the `bytes` crate.
//!
//! Implements the subset Railgun uses: the [`Buf`] / [`BufMut`] cursor
//! traits (little-endian accessors over `&[u8]` / `Vec<u8>`) and a
//! cheaply-cloneable [`Bytes`] buffer backed by an `Arc<[u8]>`.
//! See `DESIGN.md` § "Vendored dependency shims".

use std::sync::Arc;

/// Read-side cursor over a contiguous byte buffer.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// The next `len` bytes as a [`Bytes`], advancing past them. Copies
    /// here; [`Bytes`] overrides it with a zero-copy slice of itself.
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "buffer underflow");
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }

    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    fn get_i8(&mut self) -> i8 {
        self.get_u8() as i8
    }

    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    fn get_i64_le(&mut self) -> i64 {
        self.get_u64_le() as i64
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "buffer underflow");
        *self = &self[cnt..];
    }
}

impl<B: Buf + ?Sized> Buf for &mut B {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }

    fn chunk(&self) -> &[u8] {
        (**self).chunk()
    }

    fn advance(&mut self, cnt: usize) {
        (**self).advance(cnt)
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        (**self).copy_to_bytes(len)
    }
}

/// Write-side cursor appending to a growable byte buffer.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_i8(&mut self, v: i8) {
        self.put_u8(v as u8);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_i64_le(&mut self, v: i64) {
        self.put_u64_le(v as u64);
    }

    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl<B: BufMut + ?Sized> BufMut for &mut B {
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src)
    }
}

/// An immutable, cheaply-cloneable byte buffer (shared via `Arc`).
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        Self::default()
    }

    /// One allocation, one copy (`Arc<[u8]>` straight from the slice).
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Self {
            data: Arc::from(data),
            start: 0,
            end: data.len(),
        }
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Zero-copy sub-slice sharing the same backing allocation.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Self {
        assert!(range.start <= range.end && range.end <= self.len());
        Self {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Self {
            data: v.into(),
            start: 0,
            end,
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Self::copy_from_slice(v)
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Bytes(len={})", self.len())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn chunk(&self) -> &[u8] {
        self
    }

    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "buffer underflow");
        self.start += cnt;
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        let out = self.slice(0..len);
        self.start += len;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = Vec::new();
        buf.put_u8(7);
        buf.put_u16_le(300);
        buf.put_u32_le(70_000);
        buf.put_u64_le(1 << 40);
        buf.put_f64_le(2.5);
        buf.put_slice(b"xyz");
        let mut cur = &buf[..];
        assert_eq!(cur.get_u8(), 7);
        assert_eq!(cur.get_u16_le(), 300);
        assert_eq!(cur.get_u32_le(), 70_000);
        assert_eq!(cur.get_u64_le(), 1 << 40);
        assert_eq!(cur.get_f64_le(), 2.5);
        let mut rest = [0u8; 3];
        cur.copy_to_slice(&mut rest);
        assert_eq!(&rest, b"xyz");
        assert!(!cur.has_remaining());
    }

    #[test]
    fn bytes_slice_shares_and_advances() {
        let b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(s.as_ref(), &[2, 3, 4]);
        let mut cur = s.clone();
        cur.advance(2);
        assert_eq!(cur.as_ref(), &[4]);
        assert_eq!(b.len(), 5);
    }

    #[test]
    fn copy_to_bytes_shares_a_bytes_and_copies_a_slice() {
        let mut b = Bytes::from(vec![1u8, 2, 3, 4, 5]);
        b.advance(1);
        let head = b.copy_to_bytes(2);
        assert_eq!(head.as_ref(), &[2, 3]);
        assert_eq!(b.as_ref(), &[4, 5], "advanced past what was taken");
        assert!(Arc::ptr_eq(&head.data, &b.data), "a slice of the same buffer");
        // Through `&mut B` the override is still the one that runs.
        fn take(mut buf: impl Buf, len: usize) -> Bytes {
            buf.copy_to_bytes(len)
        }
        let tail = take(&mut b, 2);
        assert!(Arc::ptr_eq(&tail.data, &head.data));
        assert!(b.is_empty());

        let raw = [9u8, 8, 7];
        let mut cur = &raw[..];
        let copied = cur.copy_to_bytes(2);
        assert_eq!(copied.as_ref(), &[9, 8]);
        assert_eq!(cur, &[7]);
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn copy_to_bytes_past_the_end_panics() {
        let mut cur = &[1u8, 2][..];
        cur.copy_to_bytes(3);
    }

    #[test]
    fn copy_from_slice_owns_exactly_the_slice() {
        let src = [5u8; 40];
        let b = Bytes::copy_from_slice(&src[8..24]);
        assert_eq!(b.as_ref(), &src[8..24]);
        assert_eq!(b.data.len(), 16, "no slack beyond the copied bytes");
        assert_eq!(Bytes::copy_from_slice(&[]), Bytes::new());
    }
}
