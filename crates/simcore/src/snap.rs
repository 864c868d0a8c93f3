//! Versioned, checksummed binary snapshot codec.
//!
//! The engine's snapshot/restore capability (resumable runs, crash
//! recovery) needs a serialization format that is:
//!
//! - **deterministic** — the same state always encodes to the same
//!   bytes, so snapshot→restore→snapshot is byte-stable and testable;
//! - **self-describing enough to fail loudly** — a fixed magic, a schema
//!   version, a whole-payload checksum, and named section markers turn
//!   corruption, truncation, and version skew into typed
//!   [`SnapshotError`]s instead of silently half-loaded state;
//! - **dependency-free** — the workspace builds offline; this is a
//!   hand-rolled little-endian codec, not a serde backend.
//!
//! Layout: `"EPASNAP1"` (8 bytes) · version (`u32`) · payload length
//! (`u64`) · FNV-1a-64 checksum of the payload (`u64`) · payload. The
//! payload is a strict sequence of primitive fields; composite state is
//! framed by named section markers so a reader that drifts out of sync
//! reports *where* it lost the plot.
//!
//! Every value is little-endian. `f64` round-trips via its IEEE-754 bit
//! pattern, so restored floating-point state is bit-identical — the
//! foundation of the engine's byte-identical-resume guarantee.

use crate::time::{SimDuration, SimTime};
use std::fmt;

/// The 8-byte magic prefix of every snapshot.
pub const SNAP_MAGIC: [u8; 8] = *b"EPASNAP1";

/// Marker byte preceding each named section.
const SECTION_TAG: u8 = 0xA5;

/// Why a snapshot could not be decoded. Restore paths return these —
/// never panic — so a damaged or incompatible snapshot degrades into a
/// reportable error instead of corrupt engine state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with [`SNAP_MAGIC`].
    BadMagic,
    /// The snapshot was written by an incompatible schema version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// Version this reader understands.
        expected: u32,
    },
    /// The buffer ends before the declared payload does.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// The payload checksum does not match the header.
    ChecksumMismatch {
        /// Checksum stored in the header.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The snapshot describes a different machine (node count) than the
    /// engine it is being restored into.
    TopologyMismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// The snapshot was taken under a different engine configuration
    /// (config fingerprint, workload, or policy disagree).
    ConfigMismatch {
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// The payload is structurally invalid (bad section marker, invalid
    /// enum tag, impossible value).
    Corrupt {
        /// Human-readable description of the damage.
        detail: String,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a snapshot: bad magic"),
            SnapshotError::UnsupportedVersion { found, expected } => {
                write!(
                    f,
                    "unsupported snapshot version {found} (expected {expected})"
                )
            }
            SnapshotError::Truncated { needed, available } => {
                write!(
                    f,
                    "truncated snapshot: needed {needed} bytes, have {available}"
                )
            }
            SnapshotError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            SnapshotError::TopologyMismatch { detail } => {
                write!(f, "snapshot topology mismatch: {detail}")
            }
            SnapshotError::ConfigMismatch { detail } => {
                write!(f, "snapshot config mismatch: {detail}")
            }
            SnapshotError::Corrupt { detail } => write!(f, "corrupt snapshot: {detail}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// FNV-1a 64-bit hash — the snapshot checksum and the config
/// fingerprint's fold. Not cryptographic; it guards against accidental
/// corruption and mismatched inputs, not adversaries.
#[must_use]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Incremental FNV-1a-64 fold for building config fingerprints out of
/// heterogeneous fields without allocating an intermediate buffer.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    hash: u64,
}

impl Default for Fingerprint {
    fn default() -> Self {
        Self::new()
    }
}

impl Fingerprint {
    /// Starts a fingerprint at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Fingerprint {
            hash: 0xcbf2_9ce4_8422_2325,
        }
    }

    /// Folds raw bytes into the fingerprint.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    /// Folds a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds an `f64` via its bit pattern.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds a string (length-prefixed, so `"ab","c"` ≠ `"a","bc"`).
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The folded hash.
    #[must_use]
    pub fn finish(&self) -> u64 {
        self.hash
    }
}

/// Serializer for the snapshot payload. Fields are appended in a fixed
/// order; [`SnapWriter::finish`] frames the payload with magic, version,
/// length, and checksum.
#[derive(Debug, Default)]
pub struct SnapWriter {
    buf: Vec<u8>,
}

impl SnapWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> Self {
        SnapWriter { buf: Vec::new() }
    }

    /// Appends a named section marker. Purely structural: readers check
    /// it with [`SnapReader::section`] to detect drift early and report
    /// which component's state went bad.
    pub fn section(&mut self, name: &str) {
        self.buf.push(SECTION_TAG);
        self.str(name);
    }

    /// Appends a `u8`.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u32` (little-endian).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (little-endian).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i64` (little-endian, two's complement).
    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `usize` as `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Appends an `f64` via its IEEE-754 bit pattern (bit-exact).
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a `bool` as one byte.
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends an option tag (1 = present) followed by the value when
    /// present, encoded by `f`.
    pub fn opt<T>(&mut self, v: Option<&T>, f: impl FnOnce(&mut Self, &T)) {
        match v {
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
            None => self.u8(0),
        }
    }

    /// Appends a length-prefixed sequence, each element encoded by `f`.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.u64(items.len() as u64);
        for item in items {
            f(self, item);
        }
    }

    /// Bytes written so far (payload only, no header).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Frames the payload: magic · version · length · checksum · payload.
    #[must_use]
    pub fn finish(self, version: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.buf.len() + 28);
        out.extend_from_slice(&SNAP_MAGIC);
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&(self.buf.len() as u64).to_le_bytes());
        out.extend_from_slice(&fnv1a64(&self.buf).to_le_bytes());
        out.extend_from_slice(&self.buf);
        out
    }
}

/// Deserializer over a framed snapshot. [`SnapReader::open`] validates
/// magic, version, declared length, and checksum before any field is
/// decoded; every accessor returns a typed error instead of panicking.
#[derive(Debug)]
pub struct SnapReader<'a> {
    payload: &'a [u8],
    pos: usize,
}

impl<'a> SnapReader<'a> {
    /// Validates the frame and returns a reader positioned at the start
    /// of the payload.
    pub fn open(bytes: &'a [u8], expected_version: u32) -> Result<Self, SnapshotError> {
        if bytes.len() < 8 {
            return Err(SnapshotError::Truncated {
                needed: 8,
                available: bytes.len(),
            });
        }
        if bytes[..8] != SNAP_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        if bytes.len() < 28 {
            return Err(SnapshotError::Truncated {
                needed: 28,
                available: bytes.len(),
            });
        }
        let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if version != expected_version {
            return Err(SnapshotError::UnsupportedVersion {
                found: version,
                expected: expected_version,
            });
        }
        let len = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
        let stored = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
        let available = bytes.len() - 28;
        if available < len {
            return Err(SnapshotError::Truncated {
                needed: len + 28,
                available: bytes.len(),
            });
        }
        let payload = &bytes[28..28 + len];
        let computed = fnv1a64(payload);
        if computed != stored {
            return Err(SnapshotError::ChecksumMismatch { stored, computed });
        }
        Ok(SnapReader { payload, pos: 0 })
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.pos + n > self.payload.len() {
            return Err(SnapshotError::Truncated {
                needed: self.pos + n,
                available: self.payload.len(),
            });
        }
        let slice = &self.payload[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Consumes and validates a section marker written by
    /// [`SnapWriter::section`].
    pub fn section(&mut self, name: &str) -> Result<(), SnapshotError> {
        let tag = self.u8()?;
        if tag != SECTION_TAG {
            return Err(SnapshotError::Corrupt {
                detail: format!("expected section marker for {name:?}, found byte {tag:#04x}"),
            });
        }
        let found = self.str()?;
        if found != name {
            return Err(SnapshotError::Corrupt {
                detail: format!("expected section {name:?}, found {found:?}"),
            });
        }
        Ok(())
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u32`.
    pub fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a `u64`.
    pub fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an `i64`.
    pub fn i64(&mut self) -> Result<i64, SnapshotError> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `usize` (stored as `u64`; errors if it overflows).
    pub fn usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt {
            detail: format!("length {v} overflows usize"),
        })
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a [`SimTime`], rejecting a negative or non-finite value
    /// (which [`SimTime::from_secs`] would panic on).
    pub fn time(&mut self) -> Result<SimTime, SnapshotError> {
        self.secs("time").map(SimTime::from_secs)
    }

    /// Reads a [`SimDuration`], rejecting a negative or non-finite value
    /// (which [`SimDuration::from_secs`] would panic on).
    pub fn duration(&mut self) -> Result<SimDuration, SnapshotError> {
        self.secs("duration").map(SimDuration::from_secs)
    }

    fn secs(&mut self, what: &str) -> Result<f64, SnapshotError> {
        let secs = self.f64()?;
        if secs.is_finite() && secs >= 0.0 {
            Ok(secs)
        } else {
            Err(SnapshotError::Corrupt {
                detail: format!("{what} {secs} is negative or not finite"),
            })
        }
    }

    /// Reads a `bool`, rejecting anything but 0 or 1.
    pub fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(SnapshotError::Corrupt {
                detail: format!("invalid bool byte {b:#04x}"),
            }),
        }
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| SnapshotError::Corrupt {
            detail: "invalid UTF-8 in string".to_owned(),
        })
    }

    /// Reads an option written by [`SnapWriter::opt`].
    pub fn opt<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Option<T>, SnapshotError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            b => Err(SnapshotError::Corrupt {
                detail: format!("invalid option tag {b:#04x}"),
            }),
        }
    }

    /// Reads a length-prefixed sequence written by [`SnapWriter::seq`].
    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, SnapshotError>,
    ) -> Result<Vec<T>, SnapshotError> {
        let len = self.usize()?;
        // Guard allocation against a corrupt length that slipped past the
        // checksum (each element is at least one byte).
        if len > self.payload.len() - self.pos {
            return Err(SnapshotError::Corrupt {
                detail: format!("sequence length {len} exceeds remaining payload"),
            });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Verifies the whole payload was consumed — trailing garbage means
    /// the writer and reader disagree about the schema.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.pos != self.payload.len() {
            return Err(SnapshotError::Corrupt {
                detail: format!(
                    "{} unread payload bytes after the last field",
                    self.payload.len() - self.pos
                ),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip_frame(version: u32) -> Vec<u8> {
        let mut w = SnapWriter::new();
        w.section("demo");
        w.u8(7);
        w.u32(0xdead_beef);
        w.u64(u64::MAX);
        w.i64(-42);
        w.f64(std::f64::consts::PI);
        w.bool(true);
        w.str("hello");
        w.opt(Some(&3u64), |w, v| w.u64(*v));
        w.opt(None::<&u64>, |w, v| w.u64(*v));
        w.seq(&[1u64, 2, 3], |w, v| w.u64(*v));
        w.finish(version)
    }

    #[test]
    fn primitives_roundtrip() {
        let bytes = roundtrip_frame(1);
        let mut r = SnapReader::open(&bytes, 1).unwrap();
        r.section("demo").unwrap();
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX);
        assert_eq!(r.i64().unwrap(), -42);
        assert_eq!(r.f64().unwrap(), std::f64::consts::PI);
        assert!(r.bool().unwrap());
        assert_eq!(r.str().unwrap(), "hello");
        assert_eq!(r.opt(|r| r.u64()).unwrap(), Some(3));
        assert_eq!(r.opt(|r| r.u64()).unwrap(), None);
        assert_eq!(r.seq(|r| r.u64()).unwrap(), vec![1, 2, 3]);
        r.finish().unwrap();
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = roundtrip_frame(1);
        bytes[0] ^= 0xff;
        assert_eq!(
            SnapReader::open(&bytes, 1).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn version_skew_is_typed() {
        let bytes = roundtrip_frame(2);
        assert_eq!(
            SnapReader::open(&bytes, 1).unwrap_err(),
            SnapshotError::UnsupportedVersion {
                found: 2,
                expected: 1
            }
        );
    }

    #[test]
    fn every_flipped_payload_byte_is_caught() {
        let bytes = roundtrip_frame(1);
        for i in 28..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x01;
            match SnapReader::open(&bad, 1) {
                Err(SnapshotError::ChecksumMismatch { .. }) => {}
                other => panic!("flip at {i}: expected checksum mismatch, got {other:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_is_caught() {
        let bytes = roundtrip_frame(1);
        for cut in 0..bytes.len() {
            match SnapReader::open(&bytes[..cut], 1) {
                Err(SnapshotError::Truncated { .. }) => {}
                other => panic!("cut at {cut}: expected truncation error, got {other:?}"),
            }
        }
    }

    #[test]
    fn wrong_section_name_is_corrupt() {
        let mut w = SnapWriter::new();
        w.section("alpha");
        let bytes = w.finish(1);
        let mut r = SnapReader::open(&bytes, 1).unwrap();
        assert!(matches!(
            r.section("beta").unwrap_err(),
            SnapshotError::Corrupt { .. }
        ));
    }

    #[test]
    fn negative_and_non_finite_times_are_corrupt() {
        let mut w = SnapWriter::new();
        for secs in [-0.0, 90.5, -1.0, f64::NAN, f64::INFINITY] {
            w.f64(secs);
            w.f64(secs);
        }
        let bytes = w.finish(1);
        let mut r = SnapReader::open(&bytes, 1).unwrap();
        for _ in 0..2 {
            assert_eq!(r.time().unwrap().as_secs(), r.duration().unwrap().as_secs());
        }
        for _ in 0..3 {
            assert!(matches!(r.time(), Err(SnapshotError::Corrupt { .. })));
            assert!(matches!(r.duration(), Err(SnapshotError::Corrupt { .. })));
        }
        r.finish().unwrap();
    }

    #[test]
    fn trailing_bytes_are_corrupt() {
        let mut w = SnapWriter::new();
        w.u8(1);
        w.u8(2);
        let bytes = w.finish(1);
        let mut r = SnapReader::open(&bytes, 1).unwrap();
        let _ = r.u8().unwrap();
        assert!(matches!(
            r.finish().unwrap_err(),
            SnapshotError::Corrupt { .. }
        ));
    }

    #[test]
    fn fingerprint_is_order_and_frame_sensitive() {
        let a = Fingerprint::new().str("ab").str("c").finish();
        let b = Fingerprint::new().str("a").str("bc").finish();
        assert_ne!(a, b, "length prefixes must separate fields");
        let c = Fingerprint::new().u64(1).u64(2).finish();
        let d = Fingerprint::new().u64(2).u64(1).finish();
        assert_ne!(c, d);
    }
}
