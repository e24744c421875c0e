//! The sealed-blob envelope every persistence and cluster format shares.
//!
//! `TSC1` counts, the `TSWR` window ring, the `TSBA` budget ledger, the
//! `TSCL` cluster frame, the `TSMF` manifest, the `TSSH` shard header and
//! the `TSRG` region graph all use one layout (integers little-endian):
//!
//! ```text
//! magic      4 bytes
//! version    u16
//! body       format-specific fields
//! crc32      u32   (IEEE, over every preceding byte)
//! ```
//!
//! [`Sealer`] writes it; [`open`] checks it in one fixed order — minimum
//! length, CRC, magic, version — and hands the body to a [`Reader`]
//! whose getters do checked arithmetic and never index past the buffer.
//! Each format keeps its own magic, version and field order; only the
//! sealing, the cursor and the error type live here.

use crate::crc::crc32;
use std::io::Write;
use std::path::Path;

/// Magic + version + CRC: the shortest blob [`open`] accepts.
const MIN_LEN: usize = 4 + 2 + 4;

/// Why a sealed blob was refused. Every variant other than `Io` means
/// the bytes can never decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlobError {
    /// The buffer ends before a field it must hold.
    Truncated,
    /// Magic bytes are not the format's.
    BadMagic,
    /// A version this build does not read.
    UnsupportedVersion(u16),
    /// The trailing CRC-32 does not match.
    BadCrc,
    /// CRC-valid bytes whose content contradicts itself or the reader's
    /// configuration (a declared size, range or shape).
    Inconsistent(&'static str),
    /// Filesystem or socket error (message only, so errors compare).
    Io(String),
}

impl std::fmt::Display for BlobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlobError::Truncated => write!(f, "blob truncated"),
            BlobError::BadMagic => write!(f, "blob magic invalid"),
            BlobError::UnsupportedVersion(v) => write!(f, "blob version {v} not supported"),
            BlobError::BadCrc => write!(f, "blob CRC mismatch"),
            BlobError::Inconsistent(what) => write!(f, "blob inconsistent: {what}"),
            BlobError::Io(msg) => write!(f, "blob I/O error: {msg}"),
        }
    }
}

impl std::error::Error for BlobError {}

impl From<std::io::Error> for BlobError {
    fn from(e: std::io::Error) -> Self {
        BlobError::Io(e.to_string())
    }
}

/// Writes one blob: header on [`Sealer::new`], fields in call order,
/// CRC on [`Sealer::seal`].
#[derive(Debug)]
pub struct Sealer(Vec<u8>);

impl Sealer {
    /// Starts a blob; `capacity` is the body size, so the buffer is
    /// allocated once.
    pub fn new(magic: [u8; 4], version: u16, capacity: usize) -> Self {
        let mut out = Vec::with_capacity(MIN_LEN + capacity);
        out.extend_from_slice(&magic);
        out.extend_from_slice(&version.to_le_bytes());
        Sealer(out)
    }

    /// Appends raw bytes.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.0.extend_from_slice(v);
        self
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.bytes(&[v])
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends an `f32`.
    pub fn f32(&mut self, v: f32) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends an `f64`.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Appends every value of `vs` as a `u64`.
    pub fn u64s(&mut self, vs: &[u64]) -> &mut Self {
        for &v in vs {
            self.u64(v);
        }
        self
    }

    /// Appends the CRC-32 of everything written and returns the blob.
    pub fn seal(mut self) -> Vec<u8> {
        let crc = crc32(&self.0);
        self.u32(crc);
        self.0
    }
}

/// Checks a blob's envelope — minimum length, CRC over all but the last
/// four bytes, magic, version, in that order — and returns a reader over
/// its body.
pub fn open(buf: &[u8], magic: [u8; 4], version: u16) -> Result<Reader<'_>, BlobError> {
    if buf.len() < MIN_LEN {
        return Err(BlobError::Truncated);
    }
    let (payload, crc) = buf.split_at(buf.len() - 4);
    if crc32(payload) != u32::from_le_bytes(crc.try_into().unwrap()) {
        return Err(BlobError::BadCrc);
    }
    if payload[..4] != magic {
        return Err(BlobError::BadMagic);
    }
    let found = u16::from_le_bytes([payload[4], payload[5]]);
    if found != version {
        return Err(BlobError::UnsupportedVersion(found));
    }
    Ok(Reader(&payload[6..]))
}

/// A bounds-checked cursor over a blob body: every getter consumes its
/// bytes or returns [`BlobError::Truncated`].
#[derive(Debug)]
pub struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// Takes the next `n` bytes.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], BlobError> {
        if n > self.0.len() {
            return Err(BlobError::Truncated);
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], BlobError> {
        Ok(self.bytes(N)?.try_into().unwrap())
    }

    /// Takes one byte.
    pub fn u8(&mut self) -> Result<u8, BlobError> {
        Ok(self.array::<1>()?[0])
    }

    /// Takes a `u16`.
    pub fn u16(&mut self) -> Result<u16, BlobError> {
        self.array().map(u16::from_le_bytes)
    }

    /// Takes a `u32`.
    pub fn u32(&mut self) -> Result<u32, BlobError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Takes a `u64`.
    pub fn u64(&mut self) -> Result<u64, BlobError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Takes an `f32`.
    pub fn f32(&mut self) -> Result<f32, BlobError> {
        self.array().map(f32::from_le_bytes)
    }

    /// Takes an `f64`.
    pub fn f64(&mut self) -> Result<f64, BlobError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Takes `n` `u64`s; the bytes are bounds-checked before the vector
    /// is allocated.
    pub fn u64s(&mut self, n: usize) -> Result<Vec<u64>, BlobError> {
        let raw = self.bytes(n.checked_mul(8).ok_or(BlobError::Truncated)?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Takes a declared `u64` element count, refusing one above `max` or
    /// whose `elem_bytes`-sized elements would not fit in the bytes left
    /// — so a hostile count never sizes an allocation.
    pub fn count(&mut self, max: u64, elem_bytes: usize) -> Result<usize, BlobError> {
        let n = self.u64()?;
        let fits = (n as u128) * (elem_bytes as u128) <= self.0.len() as u128;
        if n > max || !fits {
            return Err(BlobError::Inconsistent("declared count vs length"));
        }
        Ok(n as usize)
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.0.len()
    }

    /// Ends the read, refusing trailing bytes.
    pub fn finish(self) -> Result<(), BlobError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(BlobError::Inconsistent("trailing bytes"))
        }
    }
}

/// The workspace's one atomic small-file write: `bytes` go to a sibling
/// `.tmp` file, are fsynced, and are renamed over `path`. A crash
/// mid-write leaves either the old file or none, never a torn one.
pub fn write_blob_atomic(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}
