//! A failed directory sync never lets an append be acknowledged in a
//! file whose name may not survive a power loss. One test: the fault
//! registry is process-global, and this file is its own process.

use sstore_common::codec::{self, LOG_MAGIC};
use sstore_common::durable::{self, AppendFile};
use sstore_common::fault;
use std::fs;
use std::path::Path;

fn frame(payload: &[u8]) -> Vec<u8> {
    let mut bytes = Vec::new();
    let f = codec::begin_frame(&mut bytes);
    bytes.extend_from_slice(payload);
    codec::end_frame(&mut bytes, f);
    bytes
}

fn read(path: &Path) -> Vec<Vec<u8>> {
    let mut got = Vec::new();
    durable::for_each_frame(path, LOG_MAGIC, |p| {
        got.push(p.to_vec());
        Ok(())
    })
    .unwrap();
    got
}

fn append(file: &mut AppendFile, payload: &[u8]) -> sstore_common::Result<u64> {
    file.append(&frame(payload), "never-armed", "never-armed")
}

/// * A rewrite whose rename lands but whose directory sync fails returns
///   the error; the next append syncs the directory, then lands in the
///   renamed file, and reads back after close.
/// * If that retry fails too, the append fails with nothing written, and
///   the one after it succeeds.
/// * An open that created the file and failed its directory sync is
///   retried by the next open, which syncs the directory.
#[test]
fn a_failed_directory_sync_is_retried_before_the_next_append() {
    let dir = std::env::temp_dir().join(format!("sstore-dir-sync-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let path = dir.join("a.log");
    let dir_syncs = || durable::counts().dir_syncs;

    let (mut file, _) = AppendFile::open(&path, LOG_MAGIC).unwrap();
    append(&mut file, b"old").unwrap();
    fault::arm_io_error("dir-sync-io-error", 1);
    let err = file.rewrite(&frame(b"kept"), "never-armed").unwrap_err();
    assert_eq!(err.kind(), "io", "{err}");
    assert_eq!(read(&path), [b"kept".to_vec()], "the rename landed");
    let before = dir_syncs();
    append(&mut file, b"next").unwrap();
    assert_eq!(dir_syncs(), before + 1, "the append synced the directory");
    append(&mut file, b"then").unwrap();
    assert_eq!(dir_syncs(), before + 1, "once");
    let got = read(&path);
    assert_eq!(got, [b"kept".to_vec(), b"next".to_vec(), b"then".to_vec()]);
    assert!(!file.poisoned());

    fault::arm_io_error("dir-sync-io-error", 1);
    let err = file.rewrite(&frame(b"again"), "never-armed").unwrap_err();
    assert_eq!(err.kind(), "io", "{err}");
    fault::arm_io_error("dir-sync-io-error", 1);
    let size = fs::metadata(&path).unwrap().len();
    let err = append(&mut file, b"refused").unwrap_err();
    assert_eq!(err.kind(), "io", "{err}");
    assert_eq!(fs::metadata(&path).unwrap().len(), size, "nothing written");
    append(&mut file, b"last").unwrap();
    drop(file);
    assert_eq!(read(&path), [b"again".to_vec(), b"last".to_vec()]);

    fs::remove_file(&path).unwrap();
    fault::arm_io_error("dir-sync-io-error", 1);
    let err = AppendFile::open(&path, LOG_MAGIC).unwrap_err();
    assert_eq!(err.kind(), "io", "{err}");
    assert!(path.exists(), "the file was created");
    let before = dir_syncs();
    let (mut file, _) = AppendFile::open(&path, LOG_MAGIC).unwrap();
    assert_eq!(dir_syncs(), before + 1, "the reopen synced the directory");
    append(&mut file, b"first").unwrap();
    drop(file);
    assert_eq!(read(&path), [b"first".to_vec()]);
    fault::disarm();
    fs::remove_dir_all(dir).ok();
}
