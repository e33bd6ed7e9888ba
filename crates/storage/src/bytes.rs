//! Byte primitives shared by the WAL payload codec ([`crate::codec`])
//! and the snapshot codec ([`crate::snapshot`]): little-endian writers
//! and a bounds-checked read cursor whose failures are
//! [`StorageError::Corrupt`]. Lengths and counts are `u32`.

use crate::{StorageError, StorageResult};

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u32(out, u32::try_from(n).expect("length fits u32"));
}

pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Byte cursor with corruption-reporting reads. Every error reads
/// `{prefix}truncated or malformed {what}`, so a codec can name itself
/// in its messages.
pub(crate) struct Reader<'a> {
    b: &'a [u8],
    pos: usize,
    prefix: &'static str,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(b: &'a [u8], prefix: &'static str) -> Self {
        Reader { b, pos: 0, prefix }
    }

    /// The error for a malformed `what`.
    pub(crate) fn corrupt(&self, what: &str) -> StorageError {
        StorageError::Corrupt(format!("{}truncated or malformed {what}", self.prefix))
    }

    pub(crate) fn take(&mut self, n: usize, what: &str) -> StorageResult<&'a [u8]> {
        if self.b.len() - self.pos < n {
            return Err(self.corrupt(what));
        }
        let s = &self.b[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self, what: &str) -> StorageResult<u8> {
        Ok(self.take(1, what)?[0])
    }

    pub(crate) fn u32(&mut self, what: &str) -> StorageResult<u32> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self, what: &str) -> StorageResult<u64> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    pub(crate) fn i64(&mut self, what: &str) -> StorageResult<i64> {
        Ok(i64::from_le_bytes(self.take(8, what)?.try_into().unwrap()))
    }

    /// A length/count field, sanity-capped by the remaining input so a
    /// corrupt count cannot drive huge allocations.
    pub(crate) fn len(&mut self, what: &str) -> StorageResult<usize> {
        let n = self.u32(what)? as usize;
        if n > self.b.len() - self.pos {
            return Err(self.corrupt(what));
        }
        Ok(n)
    }

    pub(crate) fn str(&mut self, what: &str) -> StorageResult<String> {
        let n = self.len(what)?;
        let bytes = self.take(n, what)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| self.corrupt(what))
    }

    /// The bytes not yet read.
    pub(crate) fn rest(&self) -> &'a [u8] {
        &self.b[self.pos..]
    }

    /// True once every byte was read.
    pub(crate) fn done(&self) -> bool {
        self.pos == self.b.len()
    }
}
