//! # The byte codec
//!
//! One implementation of the byte conventions every persisted or wired
//! format of the workspace shares: the learning-cache file (`SKLC`,
//! `skinner_service::persist`), the knowledge file (`SKKS`,
//! `skinner_knowledge::persist`) and the wire frames (`SKNF`,
//! `skinner_net::frame` / `skinner_net::proto`). Each of those modules is
//! only a payload schema over this one.
//!
//! * **Primitives.** Integers are little-endian; strings are
//!   `u32`-length-prefixed UTF-8 ([`put_u8`], [`put_u32`], [`put_u64`],
//!   [`put_str`]). Decoding runs over a bounds-checked [`Cursor`]: any
//!   overrun is `None`, never a panic, and [`Cursor::count`] rejects an
//!   item count the remaining bytes cannot hold *before* anything is
//!   sized by it.
//! * **Checksum.** [`checksum`] is the `FxHasher` digest of a payload.
//! * **Record files.** A [`RecordFile`] describes one file format:
//!
//!   ```text
//!   header : magic (4) | format version u32
//!   record : payload len u32 | checksum of payload u64 | payload
//!   ```
//!
//!   [`RecordFile::save`] writes atomically: the file is assembled in a
//!   `.tmp` sibling, fsynced, renamed over the target, and the directory
//!   is fsynced — a crash leaves the old file or the new one, never a
//!   torn mix. [`RecordFile::load`] still defends in depth: a record
//!   whose checksum or payload decode fails is skipped (the length
//!   prefix keeps framing intact), a torn tail or an impossible length
//!   stops the scan, a foreign magic or version loads nothing, and a
//!   missing file is a fresh start — all counted in one [`LoadReport`].
//!
//! Each format names its own four fault-injection sites (see
//! [`failpoints`]).

use crate::failpoints;
use skinner_storage::hash::FxHasher;
use std::fmt;
use std::fs::{File, OpenOptions};
use std::hash::Hasher;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

/// Append one byte.
#[inline]
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u32`.
#[inline]
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
#[inline]
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a `u32`-length-prefixed UTF-8 string.
#[inline]
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked reader over one payload: every accessor returns
/// `None` on overrun and consumes nothing it could not read whole.
#[derive(Debug)]
pub struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `buf`.
    #[inline]
    pub fn new(buf: &'a [u8]) -> Cursor<'a> {
        Cursor { buf, pos: 0 }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// The next byte.
    #[inline]
    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    /// The next little-endian `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    /// The next little-endian `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// The next `u64`, reinterpreted as two's-complement `i64`.
    #[inline]
    pub fn i64(&mut self) -> Option<i64> {
        Some(self.u64()? as i64)
    }

    /// The next `u32`-length-prefixed UTF-8 string.
    #[inline]
    pub fn str(&mut self) -> Option<String> {
        let n = self.u32()? as usize;
        String::from_utf8(self.take(n)?.to_vec()).ok()
    }

    /// A `u32` item count, rejected when the bytes left cannot hold that
    /// many items of at least `min_bytes_each` bytes — so a corrupt or
    /// hostile count never sizes an allocation.
    #[inline]
    pub fn count(&mut self, min_bytes_each: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        (n.saturating_mul(min_bytes_each) <= self.buf.len() - self.pos).then_some(n)
    }

    /// True once every byte was consumed (trailing bytes inside a
    /// checksummed payload are corruption, not padding).
    #[inline]
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// The payload checksum shared by every format: the `FxHasher` digest.
#[inline]
pub fn checksum(payload: &[u8]) -> u64 {
    let mut h = FxHasher::default();
    h.write(payload);
    h.finish()
}

// ---------------------------------------------------------------------
// Record files
// ---------------------------------------------------------------------

/// Bytes of a record's framing: payload length `u32` + checksum `u64`.
const RECORD_HEADER_BYTES: usize = 12;

/// What a load pass observed. Every degraded path is counted, so an
/// operator can tell "clean start" from "survived corruption".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoadReport {
    /// Records decoded and kept.
    pub loaded: usize,
    /// Records skipped: checksum mismatch or undecodable payload.
    pub corrupt: usize,
    /// Records skipped by the caller because what they were learned
    /// against (table versions) no longer matches the live catalog.
    pub stale: usize,
    /// True if the scan stopped early: the file ended mid-record (a torn
    /// tail after a crash) or a length prefix was impossible.
    pub truncated: bool,
    /// True if the file had a foreign magic or format version (nothing
    /// was loaded from it).
    pub format_mismatch: bool,
}

impl fmt::Display for LoadReport {
    /// `N loaded, N corrupt, N stale`, plus `(truncated tail)` and
    /// `(format mismatch)` when they apply.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} loaded, {} corrupt, {} stale",
            self.loaded, self.corrupt, self.stale
        )?;
        if self.truncated {
            f.write_str(" (truncated tail)")?;
        }
        if self.format_mismatch {
            f.write_str(" (format mismatch)")?;
        }
        Ok(())
    }
}

/// One checksummed record-file format: its header and its
/// fault-injection site names.
#[derive(Debug)]
pub struct RecordFile {
    /// File magic.
    pub magic: [u8; 4],
    /// Format version; bump on any layout change (old files then load
    /// empty).
    pub version: u32,
    /// Upper bound on one record's payload, so a corrupt length prefix
    /// cannot claim an absurd record.
    pub max_record_bytes: usize,
    /// Failpoint checked before the file is read.
    pub read_site: &'static str,
    /// Failpoint checked before the temp file is written.
    pub write_site: &'static str,
    /// Failpoint checked before the temp file is fsynced.
    pub fsync_site: &'static str,
    /// Failpoint checked before the temp file is renamed over `path`.
    pub rename_site: &'static str,
}

impl RecordFile {
    /// Write `payloads` to `path` atomically, one checksummed record
    /// each: assemble in `path.tmp`, fsync, rename over `path`, fsync the
    /// directory. A crash at any point leaves the previous file (or no
    /// file) intact.
    pub fn save<P: AsRef<[u8]>>(
        &self,
        path: &Path,
        payloads: impl IntoIterator<Item = P>,
    ) -> io::Result<()> {
        let mut buf = Vec::with_capacity(4096);
        buf.extend_from_slice(&self.magic);
        put_u32(&mut buf, self.version);
        for payload in payloads {
            let payload = payload.as_ref();
            put_u32(&mut buf, payload.len() as u32);
            put_u64(&mut buf, checksum(payload));
            buf.extend_from_slice(payload);
        }

        let tmp = tmp_path(path);
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        failpoints::io_check(self.write_site)?;
        f.write_all(&buf)?;
        failpoints::io_check(self.fsync_site)?;
        f.sync_all()?;
        drop(f);
        failpoints::io_check(self.rename_site)?;
        std::fs::rename(&tmp, path)?;
        // Make the rename itself durable. Directory fsync is advisory on
        // some filesystems; failure here cannot un-rename, so best-effort.
        if let Some(dir) = path.parent() {
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    /// Decode every intact record of `path` with `decode` (`None` =
    /// corrupt payload). Degradation, not failure: see the module docs.
    /// Only an I/O error opening or reading the file is an `Err`; a
    /// missing file is `Ok` with an empty load.
    pub fn load<T>(
        &self,
        path: &Path,
        mut decode: impl FnMut(&[u8]) -> Option<T>,
    ) -> io::Result<(Vec<T>, LoadReport)> {
        let mut report = LoadReport::default();
        let mut records = Vec::new();
        failpoints::io_check(self.read_site)?;
        let mut buf = Vec::new();
        match File::open(path) {
            Ok(mut f) => {
                f.read_to_end(&mut buf)?;
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok((records, report)),
            Err(e) => return Err(e),
        }

        let mut c = Cursor::new(&buf);
        if c.take(4) != Some(&self.magic[..]) || c.u32() != Some(self.version) {
            report.format_mismatch = true;
            return Ok((records, report));
        }
        while !c.done() {
            // A record header or payload that runs past the end is a torn
            // tail; a length over the bound cannot be resynced past.
            let framed = c.take(RECORD_HEADER_BYTES).and_then(|h| {
                let mut h = Cursor::new(h);
                let (len, want) = (h.u32()? as usize, h.u64()?);
                if len > self.max_record_bytes {
                    return None;
                }
                Some((c.take(len)?, want))
            });
            let Some((payload, want)) = framed else {
                report.truncated = true;
                break;
            };
            let decoded = if checksum(payload) == want {
                decode(payload)
            } else {
                None
            };
            match decoded {
                Some(r) => {
                    records.push(r);
                    report.loaded += 1;
                }
                None => report.corrupt += 1,
            }
        }
        Ok((records, report))
    }
}

/// The temp sibling a save assembles in: `<path>.tmp`.
fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(".tmp");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEST_FILE: RecordFile = RecordFile {
        magic: *b"SKTF",
        version: 1,
        max_record_bytes: 1 << 10,
        read_site: "codec_test.read",
        write_site: "codec_test.write",
        fsync_site: "codec_test.fsync",
        rename_site: "codec_test.rename",
    };

    fn dir(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("skinner_codec_{name}_{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn utf8(p: &[u8]) -> Option<String> {
        String::from_utf8(p.to_vec()).ok()
    }

    #[test]
    fn count_rejects_what_the_bytes_cannot_hold() {
        let mut b = Vec::new();
        put_u32(&mut b, 2);
        b.extend_from_slice(&[0; 16]);
        assert_eq!(Cursor::new(&b).count(8), Some(2));
        assert_eq!(Cursor::new(&b).count(9), None);
        let mut hostile = Vec::new();
        put_u32(&mut hostile, u32::MAX);
        assert_eq!(Cursor::new(&hostile).count(1), None);
        assert_eq!(Cursor::new(&hostile).count(usize::MAX), None);
    }

    #[test]
    fn file_round_trips_and_missing_file_is_fresh() {
        let d = dir("rt");
        let path = d.join("f.bin");
        TEST_FILE.save(&path, ["one", "two", ""]).unwrap();
        // Atomic write leaves no temp file behind.
        assert!(!tmp_path(&path).exists());
        let (records, report) = TEST_FILE.load(&path, utf8).unwrap();
        assert_eq!(records, ["one", "two", ""]);
        assert_eq!(
            report,
            LoadReport {
                loaded: 3,
                ..Default::default()
            }
        );
        let (none, fresh) = TEST_FILE.load(&d.join("absent.bin"), utf8).unwrap();
        assert!(none.is_empty());
        assert_eq!(fresh, LoadReport::default());
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn corrupt_record_is_skipped_others_survive() {
        let d = dir("corrupt");
        let path = d.join("f.bin");
        TEST_FILE
            .save(&path, ["alpha", "bravo", "charlie"])
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one byte inside the SECOND record's payload: its checksum
        // fails, records one and three still load.
        bytes[8 + 12 + 5 + 12 + 2] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (records, report) = TEST_FILE.load(&path, utf8).unwrap();
        assert_eq!(records, ["alpha", "charlie"]);
        assert_eq!((report.loaded, report.corrupt), (2, 1));
        assert!(!report.truncated);
        // A payload the schema rejects counts as corrupt too.
        let (records, report) = TEST_FILE
            .load(&path, |p| (p != b"alpha").then_some(()))
            .unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!((report.loaded, report.corrupt), (1, 2));
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn torn_tail_keeps_complete_prefix() {
        let d = dir("torn");
        let path = d.join("f.bin");
        TEST_FILE.save(&path, ["alpha", "bravo"]).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        // Cut inside the second record's header, then inside its payload.
        for cut in [8 + 12 + 5 + 3, bytes.len() - 2] {
            std::fs::write(&path, &bytes[..cut]).unwrap();
            let (records, report) = TEST_FILE.load(&path, utf8).unwrap();
            assert_eq!(records, ["alpha"]);
            assert!(report.truncated);
        }
        // A length over the record bound stops the scan the same way.
        let mut inflated = bytes.clone();
        inflated[8 + 12 + 5..8 + 12 + 5 + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        std::fs::write(&path, &inflated).unwrap();
        let (records, report) = TEST_FILE.load(&path, utf8).unwrap();
        assert_eq!(records, ["alpha"]);
        assert!(report.truncated);
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn foreign_header_loads_nothing() {
        let d = dir("magic");
        let path = d.join("f.bin");
        for bytes in [
            &b"NOPE\x01\x00\x00\x00rest"[..],
            b"SKTF\x02\x00\x00\x00",
            b"SKT",
        ] {
            std::fs::write(&path, bytes).unwrap();
            let (records, report) = TEST_FILE.load(&path, utf8).unwrap();
            assert!(records.is_empty());
            assert!(report.format_mismatch);
        }
        std::fs::remove_dir_all(&d).ok();
    }

    #[test]
    fn failpoints_surface_as_io_errors_and_keep_the_old_file() {
        let d = dir("faults");
        let path = d.join("f.bin");
        TEST_FILE.save(&path, ["kept"]).unwrap();
        for site in [
            TEST_FILE.write_site,
            TEST_FILE.fsync_site,
            TEST_FILE.rename_site,
        ] {
            failpoints::config_for_current_thread(site, "err");
            let err = TEST_FILE.save(&path, ["lost"]).unwrap_err();
            assert!(err.to_string().contains("injected"), "{site}: {err}");
        }
        failpoints::config_for_current_thread(TEST_FILE.read_site, "err");
        assert!(TEST_FILE.load(&path, utf8).is_err());
        let (records, _) = TEST_FILE.load(&path, utf8).unwrap();
        assert_eq!(records, ["kept"]);
        std::fs::remove_dir_all(&d).ok();
    }
}
