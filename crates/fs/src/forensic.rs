//! Forensic file recovery from the raw device — no live file system needed.
//!
//! §3.9 of the paper: the recovery tools "obtain the LPAs from the file
//! system superblock and inode table" and then drive the page-level
//! time-travel API. This module implements exactly that flow against a
//! [`TimeSsd`]: it locates the on-flash inode-table region from the device
//! geometry (the same layout rule `AlmanacFs::new` uses), reads each inode
//! page's *historical version* as of the investigation time, and parses the
//! file maps out of it — resurrecting files whose metadata a compromised
//! host has since deleted or overwritten.

use almanac_core::TimeSsd;
use almanac_flash::{Lpa, Nanos};

use crate::fs::INODE_TABLE_FRACTION;
use crate::inode::Inode;

/// A file-system view reconstructed from device history alone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForensicFile {
    /// Parsed inode (name, size, page layout) as of the queried time.
    pub inode: Inode,
    /// The inode-table LPA it was parsed from.
    pub inode_lpa: Lpa,
    /// Write timestamp of the inode version used.
    pub version_ts: Nanos,
}

/// Scans the inode-table region of `ssd` and reconstructs every file that
/// existed at time `t`, using only device-level history.
pub fn files_at(ssd: &TimeSsd, t: Nanos) -> Vec<ForensicFile> {
    let exported = ssd.config().exported_pages();
    let inode_pages = (exported / INODE_TABLE_FRACTION).max(1);
    let page_size = ssd.geometry().page_size as usize;
    let mut out = Vec::new();
    for slot in 0..inode_pages {
        let lpa = Lpa(1 + slot);
        let Some(version) = ssd.version_as_of(lpa, t) else {
            continue;
        };
        let Ok(content) = ssd.decode(&version) else {
            continue;
        };
        let bytes = content.materialize(page_size);
        if let Some(inode) = Inode::from_page_bytes(&bytes) {
            out.push(ForensicFile {
                inode,
                inode_lpa: lpa,
                version_ts: version.timestamp,
            });
        }
    }
    out
}

/// Reconstructs the full content of a forensically recovered file as of
/// time `t` (each data page resolved through the time-travel index).
pub fn read_file_at(ssd: &TimeSsd, file: &ForensicFile, t: Nanos) -> Option<Vec<u8>> {
    let page_size = ssd.geometry().page_size as usize;
    let mut out = Vec::with_capacity(file.inode.pages.len() * page_size);
    for &lpa in &file.inode.pages {
        let version = ssd.version_as_of(lpa, t)?;
        let content = ssd.decode(&version).ok()?;
        out.extend_from_slice(&content.materialize(page_size));
    }
    out.truncate(file.inode.size as usize);
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AlmanacFs, FsMode};
    use almanac_core::{SsdConfig, TimeSsd};
    use almanac_flash::{Geometry, SEC_NS};

    #[test]
    fn deleted_file_recovered_without_the_fs() {
        let ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        let mut fs = AlmanacFs::new(ssd, FsMode::Ext4NoJournal).unwrap();
        let (fid, t) = fs.create("manifesto.txt", SEC_NS).unwrap();
        let body = b"the plan: meet at dawn, bring the ledger".to_vec();
        let t = fs.write(fid, 0, &body, t).unwrap();
        let t = fs.sync(t).unwrap();
        let checkpoint = t;
        // The adversary deletes the file and its metadata via the host.
        let t2 = fs.delete(fid, t + SEC_NS).unwrap();

        // Investigator has only the device.
        let ssd = fs.device();
        let files = files_at(ssd, checkpoint);
        let found = files
            .iter()
            .find(|f| f.inode.name == "manifesto.txt")
            .expect("deleted file not found forensically");
        assert_eq!(found.inode.size, body.len() as u64);
        let content = read_file_at(ssd, found, checkpoint).expect("content");
        assert_eq!(content, body);

        // At a time after deletion, the inode slot shows the tombstone.
        let after = files_at(ssd, t2 + SEC_NS);
        assert!(after.iter().all(|f| f.inode.name != "manifesto.txt"));
    }

    #[test]
    fn multiple_files_reconstructed_in_one_scan() {
        let ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        let mut fs = AlmanacFs::new(ssd, FsMode::Ext4NoJournal).unwrap();
        let mut t = SEC_NS;
        for i in 0..5u32 {
            let (fid, ct) = fs.create(&format!("doc{i}"), t).unwrap();
            t = fs
                .write(fid, 0, format!("contents {i}").as_bytes(), ct)
                .unwrap();
        }
        let t = fs.sync(t).unwrap();
        let files = files_at(fs.device(), t);
        assert_eq!(files.len(), 5);
        for f in &files {
            let body = read_file_at(fs.device(), f, t).unwrap();
            assert!(String::from_utf8_lossy(&body).starts_with("contents "));
        }
    }

    #[test]
    fn overwritten_file_shows_old_content_at_old_time() {
        let ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        let mut fs = AlmanacFs::new(ssd, FsMode::Ext4NoJournal).unwrap();
        let (fid, t) = fs.create("report", SEC_NS).unwrap();
        let t = fs.write(fid, 0, b"honest numbers", t).unwrap();
        let t = fs.sync(t).unwrap();
        let checkpoint = t;
        let t = fs.write(fid, 0, b"cooked numbers", t + SEC_NS).unwrap();
        let t = fs.sync(t).unwrap();
        let files = files_at(fs.device(), checkpoint);
        let f = files.iter().find(|f| f.inode.name == "report").unwrap();
        assert_eq!(
            read_file_at(fs.device(), f, checkpoint).unwrap(),
            b"honest numbers"
        );
        let now_files = files_at(fs.device(), t);
        let f = now_files.iter().find(|f| f.inode.name == "report").unwrap();
        assert_eq!(read_file_at(fs.device(), f, t).unwrap(), b"cooked numbers");
    }
}
