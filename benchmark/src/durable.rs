//! The durable half of `live-2k-durable`: a scratch directory that never
//! outlives the run, and the reopen loop that measures recovery.

use crate::service::{configure, render, Fallible};
use crate::workload::{ms, timed, Samples, PUBLISHES_TO_REPLAY};
use gps_core::SessionManager;
use gps_graph::Graph;
use gps_store::encode_snapshot;
use std::path::{Path, PathBuf};

/// A directory removed on drop — on success, on a failed run and on a panic
/// alike.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    /// `<root>/run-<pid>-<seed>`, emptied if a killed run left one behind.
    pub fn create(root: &Path, seed: u64) -> Fallible<Self> {
        let path = root.join(format!("run-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(render)?;
        Ok(Self(path))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn copy_dir(from: &Path, to: &Path) -> Fallible<()> {
    std::fs::create_dir_all(to).map_err(render)?;
    for entry in std::fs::read_dir(from).map_err(render)? {
        let entry = entry.map_err(render)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(render)?;
    }
    Ok(())
}

/// What the dropped service left behind, and what a reopen must find.
pub struct LeftBehind {
    pub dir: PathBuf,
    pub epoch: u64,
    /// `encode_snapshot` of the last acknowledged epoch, taken before the
    /// drop.
    pub snapshot_bytes: Vec<u8>,
}

/// Reopens a copy of the left-behind directory `count` times.  Each reopen
/// works on its own copy, because a recovery folds what it replayed into a
/// fresh checkpoint: reopening in place would replay nothing the second
/// time.
///
/// The process is dropped, not killed, and the operating system's cache is
/// intact: this checks that every acknowledged publish is in the files, not
/// that it reached the device.
pub fn recoveries(left: &LeftBehind, scratch: &Path, count: usize, samples: &mut Samples) {
    for i in 0..count {
        let copy = scratch.join(format!("reopen-{i}"));
        let result = copy_dir(&left.dir, &copy).and_then(|()| {
            let (opened, waited) =
                timed(|| SessionManager::open_durable(&copy, configure(Graph::new())));
            let (manager, report) = opened.map_err(render)?;
            if report.current_epoch != left.epoch {
                return Err(format!(
                    "reopen serves epoch {}, but epoch {} was acknowledged",
                    report.current_epoch, left.epoch
                ));
            }
            if encode_snapshot(manager.core().snapshot()) != left.snapshot_bytes {
                return Err("the recovered snapshot differs from the one dropped".to_string());
            }
            if report.replayed_publishes as u64 != PUBLISHES_TO_REPLAY {
                return Err(format!(
                    "reopen replayed {} publishes, expected {PUBLISHES_TO_REPLAY}",
                    report.replayed_publishes
                ));
            }
            samples.replayed_publishes += report.replayed_publishes;
            Ok(waited)
        });
        if let Some(waited) = samples.attempt("recovery", result) {
            samples.recovery_ms.push(ms(waited));
        }
        let _ = std::fs::remove_dir_all(&copy);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_scratch_dir_is_removed_on_success_and_on_panic() {
        let root = std::env::temp_dir().join(format!("gps-benchmark-test-{}", std::process::id()));
        let kept = {
            let scratch = ScratchDir::create(&root, 1).unwrap();
            std::fs::write(scratch.path().join("wal.log"), b"x").unwrap();
            scratch.path().to_path_buf()
        };
        assert!(!kept.exists(), "removed when the run ends");
        let panicked = std::panic::catch_unwind(|| {
            let scratch = ScratchDir::create(&root, 2).unwrap();
            std::fs::create_dir(scratch.path().join("store-0")).unwrap();
            panic!("a failed run");
        });
        assert!(panicked.is_err());
        assert_eq!(std::fs::read_dir(&root).unwrap().count(), 0, "nothing left");
        std::fs::remove_dir(&root).unwrap();
    }
}
