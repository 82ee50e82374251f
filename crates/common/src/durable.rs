//! Crash-safe framed files: the one place the command log, `coord.log`
//! and the snapshot writers open, write, sync, truncate or rename a file.
//!
//! Each file is a codec header (magic + version), then CRC32 frames.
//! * [`AppendFile::open`] refuses another magic or version, or a corrupt
//!   frame ([`Error::Recovery`], bytes untouched). It trims a torn tail,
//!   so no append lands after torn bytes; a file shorter than its header
//!   restarts empty. The header goes out with the first append.
//! * [`AppendFile::append`] is one write and one `fsync`. A failed write
//!   is rolled back to the durable length; if the rollback fails too, the
//!   file is poisoned and refuses every later append.
//! * [`write_atomic`] and [`AppendFile::rewrite`] write a temp file,
//!   `fsync` it and rename it over the real name: a crash leaves the old
//!   file or the new one, both complete.
//! * [`for_each_frame`] drops a torn tail with a warning. A corrupt
//!   *complete* frame cannot come from a torn append, so it is an
//!   [`Error::Recovery`] rather than a silently lost suffix.
//!
//! The caller names each write's [`fault`] points.

use crate::codec::{self, FrameRead, Reader};
use crate::error::{Error, Result};
use crate::fault;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// An append-only framed file; see the module docs for its crash rules.
#[derive(Debug)]
pub struct AppendFile {
    file: File,
    path: PathBuf,
    magic: [u8; 4],
    /// The durable length a failed append rolls back to; 0 = no header.
    len: u64,
    /// The tail is of unknown durability (an append tore, or its rollback
    /// failed): nothing may land after it.
    poisoned: bool,
}

impl AppendFile {
    /// Open `path` for appending, creating it and its directory. Returns
    /// the file and whether a torn tail was trimmed off.
    pub fn open(path: &Path, magic: [u8; 4]) -> Result<(AppendFile, bool)> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        let torn_at = for_each_frame(path, magic, |_| Ok(()))?;
        if let Some(len) = torn_at {
            file.set_len(len)?;
            file.sync_data()?;
        }
        let len = file.metadata()?.len();
        let (path, poisoned) = (path.to_path_buf(), false);
        let file = AppendFile {
            file,
            path,
            magic,
            len,
            poisoned,
        };
        Ok((file, torn_at.is_some()))
    }

    /// Append `bytes` (whole frames), after the header if the file is
    /// empty, with one write and one `fsync`; returns the bytes written.
    /// Kill point `torn_point` writes half of them and dies. A failed
    /// write, or one injected at `io_point`, is rolled back and returns
    /// [`Error::Io`]; a failed rollback poisons the file.
    pub fn append(&mut self, bytes: &[u8], torn_point: &str, io_point: &str) -> Result<u64> {
        self.check_poisoned()?;
        let mut headed = Vec::new();
        let bytes = if self.len == 0 {
            codec::put_file_header(&mut headed, self.magic);
            headed.extend_from_slice(bytes);
            &headed[..]
        } else {
            bytes
        };
        let mut file = &self.file;
        if let Some(mode) = fault::should_fire(torn_point) {
            // Not even a flush on drop may follow the torn bytes.
            self.poisoned = true;
            let _ = file
                .write_all(&bytes[..bytes.len() / 2])
                .and_then(|()| file.sync_data());
            fault::die(torn_point, mode);
        }
        let write = match fault::io_error(io_point) {
            Some(e) => Err(e),
            None => file
                .write_all(bytes)
                .and_then(|()| file.sync_data())
                .map_err(Error::from),
        };
        if let Err(e) = write {
            let rollback = file.set_len(self.len).and_then(|()| file.sync_data());
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
        self.len += bytes.len() as u64;
        Ok(bytes.len() as u64)
    }

    /// Replace the file with the header plus `frames`, as [`write_atomic`]
    /// does; kill point `kill_point` dies before the rename.
    pub fn rewrite(&mut self, frames: &[u8], kill_point: &str) -> Result<()> {
        self.check_poisoned()?;
        let mut header = Vec::new();
        codec::put_file_header(&mut header, self.magic);
        replace(&self.path, &[&header, frames], kill_point)?;
        // The old handle names the unlinked inode: no append may use it.
        self.file = OpenOptions::new()
            .append(true)
            .open(&self.path)
            .inspect_err(|_| self.poisoned = true)?;
        self.len = (header.len() + frames.len()) as u64;
        Ok(())
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

/// Write `bytes` to `path` through a temp file, `fsync` and rename. An
/// error injected at `io_point` fails before the temp file exists; kill
/// point `kill_point` dies between the `fsync` and the rename.
pub fn write_atomic(path: &Path, bytes: &[u8], io_point: &str, kill_point: &str) -> Result<()> {
    if let Some(e) = fault::io_error(io_point) {
        return Err(e);
    }
    replace(path, &[bytes], kill_point)
}

fn replace(path: &Path, parts: &[&[u8]], kill_point: &str) -> Result<()> {
    let tmp = path.with_extension("tmp");
    let mut file = File::create(&tmp)?;
    for part in parts {
        file.write_all(part)?;
    }
    file.sync_all()?;
    drop(file);
    fault::kill_point(kill_point);
    Ok(fs::rename(&tmp, path)?)
}

/// Call `f` on the payload of each frame of the file at `path`, in order;
/// a missing or empty file has none. Returns the offset of the torn tail
/// it dropped, if any (0 for a torn header).
pub fn for_each_frame(
    path: &Path,
    magic: [u8; 4],
    mut f: impl FnMut(&[u8]) -> Result<()>,
) -> Result<Option<u64>> {
    let bytes = match fs::read(path) {
        Ok(bytes) if !bytes.is_empty() => bytes,
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
        _ => return Ok(None),
    };
    let display = path.display();
    let mut r = Reader::new(&bytes);
    let torn_at = if bytes.len() < codec::FILE_HEADER_LEN {
        0
    } else {
        codec::check_file_header(&mut r, magic)
            .map_err(|e| Error::Recovery(format!("{display}: {e}")))?;
        loop {
            match codec::read_frame(&mut r) {
                FrameRead::Frame(payload) => f(payload)?,
                FrameRead::Eof => return Ok(None),
                FrameRead::Torn { offset } => break offset,
                FrameRead::Corrupt { offset, detail } => {
                    return Err(Error::Recovery(format!(
                        "{display}: corrupted at byte {offset}: {detail}; reading \
                         stopped rather than silently dropping the suffix"
                    )))
                }
            }
        }
    };
    crate::slog!(
        Warn;
        "{display}: dropping torn tail at byte {torn_at} (incomplete write at crash)"
    );
    Ok(Some(torn_at as u64))
}
