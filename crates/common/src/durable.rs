//! Crash-safe framed files: the one place the command log, `coord.log`
//! and the snapshot writers open, write, sync, truncate or rename a file.
//!
//! An append file ([`AppendFile`]: the command log and `coord.log`) is a
//! codec header (magic + version), then one **extent** per append:
//! `[len u32 LE][masked crc32 u32 LE][CRC32 frames]`. The extent's CRC
//! covers its whole write and is XORed with a private non-zero mask; a
//! frame stores its CRC unmasked, so no frame can pass as an extent. The
//! file is grown ahead of its appends in zero-filled chunks, written but
//! never synced on their own: an append is one positional write into
//! space the file already holds plus one `fdatasync`, which then has no
//! new file size to journal. A clean close truncates the reserve away.
//!
//! Crash rules:
//! * [`AppendFile::open`] refuses another magic or version, or a corrupt
//!   extent ([`Error::Recovery`], bytes untouched). It trims a torn tail,
//!   so no append lands after torn bytes; a file shorter than its header
//!   restarts empty. A zero tail is kept, and the next append overwrites
//!   it. The header goes out with the first append.
//! * [`AppendFile::append`] is one write and one `fsync`. A failed write
//!   is rolled back to the durable length; if the rollback fails too, the
//!   file is poisoned and refuses every later append.
//! * [`write_atomic`] and [`AppendFile::rewrite`] write a temp file,
//!   `fsync` it, rename it over the real name and `fsync` the directory:
//!   a crash leaves the old file or the new one, both complete. Opening
//!   an append file with no header yet (a new one) `fsync`s its directory.
//! * No append is acknowledged under a name that may not survive a power
//!   loss: after a rewrite whose directory sync failed, the next append
//!   syncs the directory first and fails unwritten if that fails again.
//! * [`for_each_frame`] reads extents up to the end of the log, which an
//!   all-zero remainder marks: the reserve, or an append none of whose
//!   sectors reached the disk. A bad extent with no valid extent after it
//!   is a torn tail (the last append persisted in part) and is dropped
//!   with a warning. A bad extent *with* a valid one after it cannot come
//!   from a torn append, so it is an [`Error::Recovery`] rather than a
//!   silently lost suffix.
//!
//! The caller names each write's [`fault`] points; every directory sync
//! is IO-error point `dir-sync-io-error`. [`counts`] tells the calling
//! thread's syncs, size-changing writes and directory syncs.

use crate::codec::{self, Reader};
use crate::error::{Error, Result};
use crate::fault;
use std::cell::Cell;
use std::fs::{self, File, OpenOptions};
use std::io::{self, ErrorKind, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Extent header size: length + masked CRC-32.
const EXTENT_HEADER_LEN: usize = 8;

/// XORed into each extent's CRC-32, so a frame header never checks as an
/// extent header.
const EXTENT_CRC_MASK: u32 = 0xA282_EAD8;

/// How far a file grows, in zeros, when an append would pass its end.
const RESERVE_CHUNK: usize = 64 * 1024;

/// The zeros each reserve chunk is written from.
static ZEROS: [u8; RESERVE_CHUNK] = [0; RESERVE_CHUNK];

/// The disk work this module did on one thread, counted from the
/// thread's start: the figures a budget test pins where timing the disk
/// cannot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// `fdatasync` calls: one per append, plus a rollback's or a trim's.
    pub syncs: u64,
    /// Writes that grew an append file: one per reserve chunk.
    pub size_changes: u64,
    /// Directory `fsync`s: one per created append file and per rename.
    pub dir_syncs: u64,
}

thread_local! {
    static COUNTS: Cell<Counts> = const {
        Cell::new(Counts { syncs: 0, size_changes: 0, dir_syncs: 0 })
    };
}

/// The calling thread's [`Counts`].
pub fn counts() -> Counts {
    COUNTS.with(Cell::get)
}

fn count(bump: impl FnOnce(&mut Counts)) {
    COUNTS.with(|c| {
        let mut n = c.get();
        bump(&mut n);
        c.set(n);
    });
}

fn sync_data(file: &File) -> io::Result<()> {
    count(|n| n.syncs += 1);
    file.sync_data()
}

/// `fsync` the directory holding `path`, so that a new or renamed entry
/// in it survives a power loss.
fn sync_parent(path: &Path) -> Result<()> {
    let dir = match path.parent() {
        Some(dir) if !dir.as_os_str().is_empty() => dir,
        _ => Path::new("."),
    };
    count(|n| n.dir_syncs += 1);
    if let Some(e) = fault::io_error("dir-sync-io-error") {
        return Err(e);
    }
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// An append-only framed file; see the module docs for its crash rules.
#[derive(Debug)]
pub struct AppendFile {
    file: File,
    path: PathBuf,
    magic: [u8; 4],
    /// The logical end: the header and every complete extent; 0 = no
    /// header. The next extent lands here, and a failed one rolls back
    /// to it.
    len: u64,
    /// The file's size: `len` plus the zero-filled reserve after it.
    size: u64,
    /// The append in flight (header if due, extent header, frames);
    /// reused from one append to the next.
    buf: Vec<u8>,
    /// The tail is of unknown durability (an append tore, or its rollback
    /// failed): nothing may land after it.
    poisoned: bool,
    /// A rewrite renamed the file but its directory sync failed: the next
    /// append syncs the directory first.
    dir_unsynced: bool,
}

impl AppendFile {
    /// Open `path` for appending, creating it and its directory. Returns
    /// the file and whether a torn tail was trimmed off.
    pub fn open(path: &Path, magic: [u8; 4]) -> Result<(AppendFile, bool)> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let (len, torn) = scan(path, magic, |_| Ok(()))?;
        if torn {
            file.set_len(len)?;
            sync_data(&file)?;
        }
        if len == 0 {
            // New, or left by an open whose directory sync failed.
            sync_parent(path)?;
        }
        let size = file.metadata()?.len();
        let file = AppendFile {
            file,
            path: path.to_path_buf(),
            magic,
            len,
            size,
            buf: Vec::new(),
            poisoned: false,
            dir_unsynced: false,
        };
        Ok((file, torn))
    }

    /// Append `bytes` (whole frames) as one extent, after the header if
    /// the file has none, with one write and one `fsync`; returns the
    /// bytes written. Kill point `torn_point` writes half of them and
    /// dies. A failed write, or one injected at `io_point`, is rolled
    /// back and returns [`Error::Io`]; a failed rollback poisons the file.
    pub fn append(&mut self, bytes: &[u8], torn_point: &str, io_point: &str) -> Result<u64> {
        self.check_poisoned()?;
        if bytes.is_empty() {
            return Ok(0);
        }
        if self.dir_unsynced {
            sync_parent(&self.path)?;
            self.dir_unsynced = false;
        }
        self.buf.clear();
        if self.len == 0 {
            codec::put_file_header(&mut self.buf, self.magic);
        }
        put_extent_header(&mut self.buf, bytes)?;
        self.buf.extend_from_slice(bytes);
        if let Some(mode) = fault::should_fire(torn_point) {
            // Not even a flush on drop may follow the torn bytes.
            self.poisoned = true;
            let _ = self.put(self.buf.len() / 2);
            fault::die(torn_point, mode);
        }
        let write = match fault::io_error(io_point) {
            Some(e) => Err(e),
            None => self.put(self.buf.len()).map_err(Error::from),
        };
        if let Err(e) = write {
            let rollback = self.file.set_len(self.len).and_then(|()| {
                self.size = self.len;
                sync_data(&self.file)
            });
            self.poisoned = rollback.is_err();
            let path = self.path.display();
            return Err(match rollback {
                Ok(()) => Error::Io(format!("{path}: write failed, rolled back: {e}")),
                Err(r) => Error::Recovery(format!(
                    "{path}: write failed ({e}) and so did its rollback ({r}): tail of unknown \
                     durability"
                )),
            });
        }
        let written = self.buf.len() as u64;
        self.len += written;
        Ok(written)
    }

    /// Write the first `n` bytes of the append in flight at `len`,
    /// growing the reserve first if they would pass it, then `fsync`.
    fn put(&mut self, n: usize) -> io::Result<()> {
        while self.size < self.len + n as u64 {
            let at = self.size;
            write_at(&self.file, &mut self.size, &ZEROS, at)?;
        }
        write_at(&self.file, &mut self.size, &self.buf[..n], self.len)?;
        sync_data(&self.file)
    }

    /// Replace the file with the header plus `frames`, as [`write_atomic`]
    /// does; kill point `kill_point` dies before the rename. An error
    /// after the rename (the directory sync) leaves the file on its new
    /// contents, and the next append retries the sync.
    pub fn rewrite(&mut self, frames: &[u8], kill_point: &str) -> Result<()> {
        self.check_poisoned()?;
        let mut head = Vec::new();
        codec::put_file_header(&mut head, self.magic);
        if !frames.is_empty() {
            put_extent_header(&mut head, frames)?;
        }
        rename_over(&self.path, &[&head, frames], kill_point)?;
        // The old handle names the unlinked inode: no append may use it.
        self.file = OpenOptions::new()
            .write(true)
            .open(&self.path)
            .inspect_err(|_| self.poisoned = true)?;
        self.len = (head.len() + frames.len()) as u64;
        self.size = self.len;
        let synced = sync_parent(&self.path);
        self.dir_unsynced = synced.is_err();
        synced
    }

    /// True once the tail is of unknown durability: every later append
    /// fails, and the owner should be rebuilt from disk.
    pub fn poisoned(&self) -> bool {
        self.poisoned
    }

    fn check_poisoned(&self) -> Result<()> {
        if self.poisoned {
            let path = self.path.display();
            return Err(Error::Recovery(format!(
                "{path}: poisoned by an earlier write of unknown durability"
            )));
        }
        Ok(())
    }
}

impl Drop for AppendFile {
    /// A clean close gives the reserve back. After a panic, or once
    /// poisoned, the file stays as the crash left it.
    fn drop(&mut self) {
        if self.size > self.len && !self.poisoned && !std::thread::panicking() {
            let _ = self.file.set_len(self.len);
        }
    }
}

/// Append the header of an extent wrapping `frames` to `out`.
fn put_extent_header(out: &mut Vec<u8>, frames: &[u8]) -> Result<()> {
    let len = u32::try_from(frames.len())
        .map_err(|_| Error::Io(format!("a {}-byte write overflows an extent", frames.len())))?;
    let crc = codec::crc32(frames) ^ EXTENT_CRC_MASK;
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc.to_le_bytes());
    Ok(())
}

/// The frames of the checksum-valid extent that opens `bytes`, if one
/// does: a non-zero length that fits, and a CRC that checks.
fn extent(bytes: &[u8]) -> Option<&[u8]> {
    let header = bytes.get(..EXTENT_HEADER_LEN)?;
    let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as usize;
    let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
    let frames = bytes.get(EXTENT_HEADER_LEN..EXTENT_HEADER_LEN.checked_add(len)?)?;
    (len > 0 && codec::crc32(frames) ^ EXTENT_CRC_MASK == crc).then_some(frames)
}

/// Write all of `bytes` at `offset`, counting the write when it grows
/// the file past `size`.
fn write_at(file: &File, size: &mut u64, bytes: &[u8], offset: u64) -> io::Result<()> {
    let end = offset + bytes.len() as u64;
    if end > *size {
        count(|n| n.size_changes += 1);
    }
    file.write_all_at(bytes, offset)?;
    *size = (*size).max(end);
    Ok(())
}

/// Write `bytes` to `path` through a temp file, `fsync` and rename. An
/// error injected at `io_point` fails before the temp file exists; kill
/// point `kill_point` dies between the `fsync` and the rename.
pub fn write_atomic(path: &Path, bytes: &[u8], io_point: &str, kill_point: &str) -> Result<()> {
    if let Some(e) = fault::io_error(io_point) {
        return Err(e);
    }
    rename_over(path, &[bytes], kill_point)?;
    sync_parent(path)
}

/// Write `parts` to a temp file, `fsync` it and rename it over `path`;
/// the caller syncs the directory.
fn rename_over(path: &Path, parts: &[&[u8]], kill_point: &str) -> Result<()> {
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp)?;
    for part in parts {
        file.write_all(part)?;
    }
    file.sync_all()?;
    drop(file);
    fault::kill_point(kill_point);
    fs::rename(&tmp, path)?;
    Ok(())
}

/// Call `f` on the payload of each frame of the append file at `path`,
/// in order; a missing, empty or all-zero file has none. Returns the
/// offset of the torn tail it dropped, if any (0 for a torn header).
pub fn for_each_frame(
    path: &Path,
    magic: [u8; 4],
    f: impl FnMut(&[u8]) -> Result<()>,
) -> Result<Option<u64>> {
    let (end, torn) = scan(path, magic, f)?;
    Ok(torn.then_some(end))
}

/// Read the append file at `path`, calling `f` on each frame's payload.
/// Returns the logical end and whether a torn tail lies past it.
fn scan(path: &Path, magic: [u8; 4], f: impl FnMut(&[u8]) -> Result<()>) -> Result<(u64, bool)> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok((0, false)),
        Err(e) => return Err(e.into()),
    };
    let display = path.display();
    let (end, torn) = read_extents(&bytes, &display, magic, f)?;
    if torn {
        crate::slog!(
            Warn;
            "{display}: dropping torn tail at byte {end} (incomplete write at crash)"
        );
    }
    Ok((end as u64, torn))
}

/// Walk the extents of the append file `name`'s bytes, calling `f` on
/// each frame's payload; returns the logical end and whether a torn tail
/// lies past it (see the module docs for the rules).
fn read_extents(
    bytes: &[u8],
    name: &impl std::fmt::Display,
    magic: [u8; 4],
    mut f: impl FnMut(&[u8]) -> Result<()>,
) -> Result<(usize, bool)> {
    let corrupt = |offset: usize, detail: &str| {
        Error::Recovery(format!(
            "{name}: corrupted at byte {offset}: {detail}; reading stopped rather than \
             silently dropping the suffix"
        ))
    };
    let is_zero = |b: &[u8]| b.iter().all(|&x| x == 0);
    let mut pos = 0;
    if bytes
        .get(..codec::FILE_HEADER_LEN)
        .is_some_and(|h| !is_zero(h))
    {
        codec::check_file_header(&mut Reader::new(bytes), magic)
            .map_err(|e| Error::Recovery(format!("{name}: {e}")))?;
        pos = codec::FILE_HEADER_LEN;
        while let Some(frames) = extent(&bytes[pos..]) {
            let mut r = Reader::new(frames);
            loop {
                let at = pos + EXTENT_HEADER_LEN + r.pos();
                let bad = |_| corrupt(at, "a frame in a checksum-valid extent is bad");
                match codec::read_frame(&mut r).map_err(bad)? {
                    Some(payload) => f(payload)?,
                    None => break,
                }
            }
            pos += EXTENT_HEADER_LEN + frames.len();
        }
    }
    // `pos` opens the end, a bad extent, or a short or zeroed header.
    if is_zero(&bytes[pos..]) {
        return Ok((pos, false));
    }
    if (pos + 1..bytes.len()).any(|at| extent(&bytes[at..]).is_some()) {
        return Err(corrupt(pos, "bad extent with valid extents after it"));
    }
    Ok((pos, true))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 4] = codec::LOG_MAGIC;
    const SECTOR: usize = 512;

    fn tempdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sstore-durable-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// A seeded xorshift stream.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0 % n
        }
    }

    /// 1–3 frames of random payloads of 1..=`max` bytes: one append's
    /// bytes, and the payloads a reader should hand back.
    fn random_frames(rng: &mut Rng, max: u64) -> (Vec<u8>, Vec<Vec<u8>>) {
        let (mut bytes, mut payloads) = (Vec::new(), Vec::new());
        for _ in 0..1 + rng.below(3) {
            let payload: Vec<u8> = (0..1 + rng.below(max))
                .map(|_| rng.below(256) as u8)
                .collect();
            let f = codec::begin_frame(&mut bytes);
            bytes.extend_from_slice(&payload);
            codec::end_frame(&mut bytes, f);
            payloads.push(payload);
        }
        (bytes, payloads)
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut bytes = Vec::new();
        let f = codec::begin_frame(&mut bytes);
        bytes.extend_from_slice(payload);
        codec::end_frame(&mut bytes, f);
        bytes
    }

    /// The payloads of `bytes`, its logical end and whether a torn tail
    /// lies past it.
    fn read(bytes: &[u8]) -> Result<(Vec<Vec<u8>>, usize, bool)> {
        let mut got = Vec::new();
        let (end, torn) = read_extents(bytes, &"image", MAGIC, |p| {
            got.push(p.to_vec());
            Ok(())
        })?;
        Ok((got, end, torn))
    }

    /// The offset a read reported corruption at, if it did.
    fn corrupt_at<T>(read: Result<T>) -> Option<usize> {
        let msg = read.err()?.to_string();
        let at = msg.split("corrupted at byte ").nth(1)?.split(':').next()?;
        at.parse().ok()
    }

    fn read_file(path: &Path) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        for_each_frame(path, MAGIC, |p| {
            got.push(p.to_vec());
            Ok(())
        })
        .unwrap();
        got
    }

    /// The crash states of an append into reserved space: each subset of
    /// the last extent's 512-byte sectors persisted, the rest still the
    /// reserve's zeros. Every state reads back exactly the earlier
    /// extents (all of them when every sector made it), never an error;
    /// no sector persisted is a zero tail, the end of the log, and any
    /// other partial subset a torn tail. Reopening trims a torn tail,
    /// keeps a zero one, and appends at the durable end. A bit flip in
    /// any complete extent but the last is corruption.
    #[test]
    fn every_sector_subset_of_the_last_extent_reads_as_the_earlier_extents() {
        let dir = tempdir("sectors");
        let path = dir.join("a.log");
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        for case in 0..32 {
            let _ = fs::remove_file(&path);
            let (mut file, _) = AppendFile::open(&path, MAGIC).unwrap();
            let mut earlier = Vec::new();
            for _ in 0..1 + rng.below(4) {
                let (bytes, payloads) = random_frames(&mut rng, 700);
                file.append(&bytes, "never-armed", "never-armed").unwrap();
                earlier.extend(payloads);
            }
            // Cases from 24 on start the last extent in the reserve's
            // last sectors, where it often grows the file as well.
            if case >= 24 {
                let gap = RESERVE_CHUNK as u64 - file.len % RESERVE_CHUNK as u64;
                let (filler, payloads) = {
                    let mut bytes = Vec::new();
                    let f = codec::begin_frame(&mut bytes);
                    let n = gap.saturating_sub(EXTENT_HEADER_LEN as u64 + 8 + 300);
                    bytes.resize(bytes.len() + n.max(1) as usize, 7);
                    codec::end_frame(&mut bytes, f);
                    let payload = bytes[codec::FRAME_HEADER_LEN..].to_vec();
                    (bytes, vec![payload])
                };
                file.append(&filler, "never-armed", "never-armed").unwrap();
                earlier.extend(payloads);
            }
            let mut durable = fs::read(&path).unwrap();
            let start = file.len as usize;
            let (bytes, last) = random_frames(&mut rng, 900);
            file.append(&bytes, "never-armed", "never-armed").unwrap();
            let end = file.len as usize;
            std::mem::forget(file); // a crash: no clean close
                                    // The reserve past the sector after the extent adds nothing.
            let keep = end.next_multiple_of(SECTOR) + SECTOR;
            let mut after = fs::read(&path).unwrap();
            after.resize(keep, 0);
            durable.resize(keep, 0);
            let sectors: Vec<usize> = (start / SECTOR..end.div_ceil(SECTOR)).collect();
            assert!(sectors.len() <= 8, "case {case}: {} sectors", sectors.len());
            let mut all = earlier.clone();
            all.extend(last);
            for mask in 0..1u32 << sectors.len() {
                let mut image = durable.clone();
                for (i, s) in sectors.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        let span = s * SECTOR..(s + 1) * SECTOR;
                        image[span.clone()].copy_from_slice(&after[span]);
                    }
                }
                let state = format!("case {case}, sectors {sectors:?}, mask {mask:b}");
                let (got, at, torn) = read(&image)
                    .unwrap_or_else(|e| panic!("{state}: a torn append read as an error: {e}"));
                if image == after {
                    assert_eq!((got, at, torn), (all.clone(), end, false), "{state}");
                } else {
                    let zero_tail = image[start..].iter().all(|&b| b == 0);
                    assert_eq!(
                        (got, at, torn),
                        (earlier.clone(), start, !zero_tail),
                        "{state}"
                    );
                }
            }
            // Reopen three states: none, some and all of the sectors.
            let some = (1u32 << sectors.len()) / 2;
            for mask in [0, some, u32::MAX] {
                let mut image = durable.clone();
                for (i, s) in sectors.iter().enumerate() {
                    if mask & (1 << i) != 0 {
                        let span = s * SECTOR..(s + 1) * SECTOR;
                        image[span.clone()].copy_from_slice(&after[span]);
                    }
                }
                let (before, at, torn) = read(&image).unwrap();
                fs::write(&path, &image).unwrap();
                let (mut file, trimmed) = AppendFile::open(&path, MAGIC).unwrap();
                assert_eq!((trimmed, file.len), (torn, at as u64), "case {case}");
                let size = fs::metadata(&path).unwrap().len();
                assert_eq!(size, if torn { at } else { image.len() } as u64);
                let (bytes, next) = random_frames(&mut rng, 200);
                file.append(&bytes, "never-armed", "never-armed").unwrap();
                drop(file);
                assert_eq!(read_file(&path), [before, next].concat(), "case {case}");
            }
            // A bit flip inside a complete extent that another follows.
            let mut flipped = after.clone();
            let at = codec::FILE_HEADER_LEN
                + rng.below((start - codec::FILE_HEADER_LEN) as u64) as usize;
            flipped[at] ^= 1 << rng.below(8);
            assert!(
                corrupt_at(read(&flipped)).is_some(),
                "case {case}: flip at byte {at} of {start}"
            );
        }
        fs::remove_dir_all(dir).ok();
    }

    /// An all-zero file, or one whose header is zero while the rest is,
    /// reads empty; a zeroed header before a valid extent is corruption.
    #[test]
    fn zeros_where_the_header_belongs() {
        assert_eq!(read(&[0; 100]).unwrap(), (vec![], 0, false));
        assert_eq!(read(&[]).unwrap(), (vec![], 0, false));
        let mut bytes = Vec::new();
        codec::put_file_header(&mut bytes, MAGIC);
        for payload in [b"one", b"two"] {
            put_extent_header(&mut bytes, &frame(payload)).unwrap();
            bytes.extend_from_slice(&frame(payload));
        }
        bytes.resize(bytes.len() + 64, 0);
        assert_eq!(
            read(&bytes).unwrap(),
            (
                vec![b"one".to_vec(), b"two".to_vec()],
                bytes.len() - 64,
                false
            )
        );
        bytes[..codec::FILE_HEADER_LEN].fill(0);
        assert_eq!(corrupt_at(read(&bytes)), Some(0));
    }

    /// A frame header never passes as an extent header: bare frames (the
    /// v3 body) under a current header read as a torn tail at the first.
    #[test]
    fn bare_frames_never_read_as_extents() {
        let mut bytes = Vec::new();
        codec::put_file_header(&mut bytes, MAGIC);
        for payload in [&b"a"[..], b"bb", b"ccc"] {
            bytes.extend_from_slice(&frame(payload));
        }
        let header = codec::FILE_HEADER_LEN;
        assert_eq!(read(&bytes).unwrap(), (vec![], header, true));
    }

    /// Creating an append file syncs its directory once, reopening it
    /// does not, and each rename (a rewrite, a `write_atomic`) syncs it
    /// once more.
    #[test]
    fn creation_and_each_rename_sync_the_directory_once() {
        let dir = tempdir("dir-sync");
        let path = dir.join("a.log");
        let dir_syncs = || counts().dir_syncs;
        let base = dir_syncs();
        let (mut file, _) = AppendFile::open(&path, MAGIC).unwrap();
        assert_eq!(dir_syncs(), base + 1, "creating the file");
        file.append(&frame(b"x"), "never-armed", "never-armed")
            .unwrap();
        drop(file);
        let (mut file, _) = AppendFile::open(&path, MAGIC).unwrap();
        assert_eq!(dir_syncs(), base + 1, "reopening creates nothing");
        file.rewrite(&frame(b"y"), "never-armed").unwrap();
        assert_eq!(dir_syncs(), base + 2, "the rewrite's rename");
        write_atomic(&dir.join("s.dat"), b"image", "never-armed", "never-armed").unwrap();
        assert_eq!(dir_syncs(), base + 3, "write_atomic's rename");
        drop(file);
        assert_eq!(read_file(&path), vec![b"y".to_vec()]);
        fs::remove_dir_all(dir).ok();
    }

    /// Appends grow the file a chunk at a time and sync once each; a
    /// clean close truncates the reserve, a panicking thread leaves it.
    #[test]
    fn the_reserve_grows_by_chunks_and_a_clean_close_truncates_it() {
        let dir = tempdir("reserve");
        let path = dir.join("a.log");
        let before = counts();
        let (mut file, _) = AppendFile::open(&path, MAGIC).unwrap();
        let one = frame(&[5; 1000]);
        for _ in 0..200 {
            file.append(&one, "never-armed", "never-armed").unwrap();
        }
        let end = file.len;
        let after = counts();
        assert_eq!(after.syncs - before.syncs, 200);
        let chunks = end.div_ceil(RESERVE_CHUNK as u64);
        assert_eq!(after.size_changes - before.size_changes, chunks);
        assert_eq!(
            fs::metadata(&path).unwrap().len(),
            chunks * RESERVE_CHUNK as u64
        );
        drop(file);
        assert_eq!(fs::metadata(&path).unwrap().len(), end);

        let (mut file, _) = AppendFile::open(&path, MAGIC).unwrap();
        file.append(&one, "never-armed", "never-armed").unwrap();
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _file = file;
            panic!("a crash with the file open");
        }));
        assert!(crashed.is_err());
        let size = fs::metadata(&path).unwrap().len();
        assert_eq!(size, end + RESERVE_CHUNK as u64, "the reserve stays");
        assert_eq!(read_file(&path).len(), 201);
        fs::remove_dir_all(dir).ok();
    }
}
