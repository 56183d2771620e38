//! The file system proper.

use std::collections::{HashMap, HashSet};
use std::fmt;

use almanac_core::{AlmanacError, SsdDevice};
use almanac_flash::{Lpa, Nanos, PageData};

use crate::inode::{FileId, Inode};

/// Write-path model (see the crate docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsMode {
    /// Ext4 with data journaling: journal write + commit + checkpoint.
    Ext4DataJournal,
    /// Ext4 without a journal (the TimeSSD configuration of §5.3).
    Ext4NoJournal,
    /// F2FS-style log-structured writes.
    F2fsLog,
}

impl fmt::Display for FsMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsMode::Ext4DataJournal => write!(f, "ext4"),
            FsMode::Ext4NoJournal => write!(f, "ext4-nj"),
            FsMode::F2fsLog => write!(f, "f2fs"),
        }
    }
}

/// File-system errors.
#[derive(Debug)]
pub enum FsError {
    /// Underlying device error.
    Device(AlmanacError),
    /// Unknown file.
    NoSuchFile(FileId),
    /// Out of data pages.
    NoSpace,
    /// Byte range past the end of the file (a read), or past `u64::MAX`.
    BadRange {
        /// Requested offset.
        offset: u64,
        /// Requested length.
        len: u64,
        /// Actual size.
        size: u64,
    },
}

impl fmt::Display for FsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FsError::Device(e) => write!(f, "device error: {e}"),
            FsError::NoSuchFile(id) => write!(f, "no such file: {}", id.0),
            FsError::NoSpace => write!(f, "file system out of space"),
            FsError::BadRange { offset, len, size } => {
                write!(f, "range {offset}+{len} outside file of {size} bytes")
            }
        }
    }
}

impl std::error::Error for FsError {}

impl From<AlmanacError> for FsError {
    fn from(e: AlmanacError) -> Self {
        FsError::Device(e)
    }
}

/// Result alias.
pub type FsResult<T> = Result<T, FsError>;

/// Fraction of the device reserved for the inode table.
pub(crate) const INODE_TABLE_FRACTION: u64 = 64;
/// Journal size in pages (Ext4 data-journal mode).
const JOURNAL_PAGES: u64 = 256;

/// The file system over any simulated SSD.
pub struct AlmanacFs<D: SsdDevice> {
    dev: D,
    mode: FsMode,
    page_size: usize,
    inode_pages: u64,
    journal_start: u64,
    journal_len: u64,
    journal_head: u64,
    data_start: u64,
    exported: u64,
    /// Free data-page stack (home-location allocation).
    free: Vec<u64>,
    /// Log head for F2FS-style allocation.
    log_cursor: u64,
    inodes: HashMap<FileId, Inode>,
    next_id: u64,
    /// Write calls since the last metadata flush (metadata and journal
    /// commits batch, like jbd2 transactions / F2FS checkpoints).
    meta_clock: u64,
    /// Files whose in-RAM inode is newer than its on-flash copy.
    dirty: HashSet<FileId>,
}

impl<D: SsdDevice> AlmanacFs<D> {
    /// Formats the device: lays out superblock, inode table, journal (when
    /// journaling), and the data area.
    pub fn new(dev: D, mode: FsMode) -> FsResult<Self> {
        let exported = dev.exported_pages();
        let inode_pages = (exported / INODE_TABLE_FRACTION).max(1);
        let journal_len = if mode == FsMode::Ext4DataJournal {
            JOURNAL_PAGES.min(exported / 16)
        } else {
            0
        };
        let journal_start = 1 + inode_pages;
        let data_start = journal_start + journal_len;
        let free = (data_start..exported).rev().collect();
        Ok(AlmanacFs {
            dev,
            mode,
            page_size: 4096,
            inode_pages,
            journal_start,
            journal_len,
            journal_head: 0,
            data_start,
            exported,
            free,
            log_cursor: 0,
            inodes: HashMap::new(),
            next_id: 1,
            meta_clock: 0,
            dirty: HashSet::new(),
        })
    }

    /// The write-path model.
    pub fn mode(&self) -> FsMode {
        self.mode
    }

    /// Borrow the underlying device.
    pub fn device(&self) -> &D {
        &self.dev
    }

    /// Mutably borrow the underlying device (e.g. to attach TimeKits).
    pub fn device_mut(&mut self) -> &mut D {
        &mut self.dev
    }

    /// Consumes the file system, returning the device.
    pub fn into_device(self) -> D {
        self.dev
    }

    /// Number of files.
    pub fn file_count(&self) -> usize {
        self.inodes.len()
    }

    /// All file ids, ascending.
    pub fn files(&self) -> Vec<FileId> {
        let mut v: Vec<FileId> = self.inodes.keys().copied().collect();
        v.sort();
        v
    }

    /// Immutable inode access.
    pub fn inode(&self, fid: FileId) -> FsResult<&Inode> {
        self.inodes.get(&fid).ok_or(FsError::NoSuchFile(fid))
    }

    /// Exports a file's page layout for TimeKits-level recovery.
    pub fn file_map(&self, fid: FileId) -> FsResult<(String, Vec<Lpa>, u64)> {
        let inode = self.inode(fid)?;
        Ok((inode.name.clone(), inode.pages.clone(), inode.size))
    }

    /// The LPA of a file's inode-table page.
    fn inode_lpa(&self, fid: FileId) -> Lpa {
        Lpa(1 + fid.0 % self.inode_pages)
    }

    fn alloc_data_page(&mut self) -> FsResult<u64> {
        match self.mode {
            FsMode::F2fsLog => {
                // Log-structured: sweep the data area as a circular log.
                let span = self.exported - self.data_start;
                if span == 0 {
                    return Err(FsError::NoSpace);
                }
                let lpa = self.data_start + (self.log_cursor % span);
                self.log_cursor += 1;
                Ok(lpa)
            }
            _ => self.free.pop().ok_or(FsError::NoSpace),
        }
    }

    fn write_inode(&mut self, fid: FileId, now: Nanos) -> FsResult<Nanos> {
        let lpa = self.inode_lpa(fid);
        let bytes = self
            .inodes
            .get(&fid)
            .map(|i| i.to_page_bytes())
            .unwrap_or_else(|| format!("deleted {}\n", fid.0).into_bytes());
        let c = self.dev.write(lpa, PageData::bytes(bytes), now)?;
        Ok(c.finish)
    }

    fn journal_write(&mut self, payload: PageData, now: Nanos) -> FsResult<Nanos> {
        let lpa = Lpa(self.journal_start + (self.journal_head % self.journal_len));
        self.journal_head += 1;
        let c = self.dev.write(lpa, payload, now)?;
        Ok(c.finish)
    }

    /// Creates an empty file and persists its inode.
    pub fn create(&mut self, name: &str, now: Nanos) -> FsResult<(FileId, Nanos)> {
        let fid = FileId(self.next_id);
        self.next_id += 1;
        self.inodes.insert(
            fid,
            Inode {
                id: fid,
                name: name.to_string(),
                size: 0,
                pages: Vec::new(),
            },
        );
        let mut t = now;
        // Metadata changes (inode + directory entry) go through the journal
        // in data-journal mode before reaching their home location.
        if self.mode == FsMode::Ext4DataJournal {
            let bytes = self
                .inodes
                .get(&fid)
                .expect("just inserted")
                .to_page_bytes();
            t = self.journal_write(PageData::bytes(bytes), t)?;
        }
        let t = self.write_inode(fid, t)?;
        Ok((fid, t))
    }

    /// Writes `data` at byte `offset`, extending the file as needed.
    ///
    /// Returns the completion time of the last flash operation.
    pub fn write(&mut self, fid: FileId, offset: u64, data: &[u8], now: Nanos) -> FsResult<Nanos> {
        if data.is_empty() {
            return Ok(now);
        }
        let size = self.inode(fid)?.size;
        let page_size = self.page_size as u64;
        let len = data.len() as u64;
        let end = offset
            .checked_add(len)
            .ok_or(FsError::BadRange { offset, len, size })?;
        let first_page = (offset / page_size) as usize;
        let last_page = ((end - 1) / page_size) as usize;
        let mut t = now;

        for page_idx in first_page..=last_page {
            // Assemble the new content of this page (read-modify-write for
            // partial pages).
            let page_start = page_idx as u64 * page_size;
            let old = {
                let inode = self.inodes.get(&fid).expect("checked above");
                inode.pages.get(page_idx).copied()
            };
            let mut content = match old {
                Some(lpa) => {
                    let (d, c) = self.dev.read(lpa, t)?;
                    t = c.finish;
                    d.materialize(self.page_size)
                }
                None => vec![0u8; self.page_size],
            };
            let from = offset.max(page_start);
            let to = end.min(page_start + page_size);
            let src_from = (from - offset) as usize;
            let src_to = (to - offset) as usize;
            content[(from - page_start) as usize..(to - page_start) as usize]
                .copy_from_slice(&data[src_from..src_to]);
            let payload = PageData::bytes(content);

            // Resolve the destination LPA per mode.
            let home = match self.mode {
                FsMode::F2fsLog => {
                    let fresh = self.alloc_data_page()?;
                    if let Some(old_lpa) = old {
                        let c = self.dev.trim(old_lpa, t)?;
                        t = c.finish;
                    }
                    fresh
                }
                _ => match old {
                    Some(lpa) => lpa.0,
                    None => self.alloc_data_page()?,
                },
            };

            // Data journaling doubles the write for page *overwrites* (the
            // history-preserving path this mode exists for); fresh
            // allocations only contribute to the batched commit record.
            if self.mode == FsMode::Ext4DataJournal && old.is_some() {
                t = self.journal_write(payload.clone(), t)?;
                let commit =
                    PageData::bytes(format!("commit {} {}\n", fid.0, page_idx).into_bytes());
                t = self.journal_write(commit, t)?;
            }
            let c = self.dev.write(Lpa(home), payload, t)?;
            t = c.finish;

            // Fill any hole pages between the current end and this page
            // with explicit zero pages so every index maps somewhere real.
            while self.inodes.get(&fid).expect("checked above").pages.len() < page_idx {
                let hole = self.alloc_data_page()?;
                let c = self.dev.write(Lpa(hole), PageData::Zeros, t)?;
                t = c.finish;
                self.inodes
                    .get_mut(&fid)
                    .expect("checked above")
                    .pages
                    .push(Lpa(hole));
            }
            let inode = self.inodes.get_mut(&fid).expect("checked above");
            if page_idx < inode.pages.len() {
                inode.pages[page_idx] = Lpa(home);
            } else {
                inode.pages.push(Lpa(home));
            }
        }
        {
            let inode = self.inodes.get_mut(&fid).expect("checked above");
            inode.size = inode.size.max(end);
        }
        // Metadata updates batch: dirty inodes (node pages in F2FS terms)
        // and, for the journaling mode, the transaction commit record are
        // persisted every 16th write call rather than per operation.
        self.dirty.insert(fid);
        self.meta_clock += 1;
        if self.meta_clock.is_multiple_of(16) {
            t = self.sync(t)?;
        }
        Ok(t)
    }

    /// Flushes every dirty inode to its on-flash slot (fsync/commit point);
    /// the journaling mode also writes its commit record.
    pub fn sync(&mut self, now: Nanos) -> FsResult<Nanos> {
        let mut t = now;
        let mut dirty: Vec<FileId> = self.dirty.drain().collect();
        dirty.sort();
        for fid in dirty {
            t = self.write_inode(fid, t)?;
        }
        if self.mode == FsMode::Ext4DataJournal {
            let commit = PageData::bytes(b"commit-batch\n".to_vec());
            t = self.journal_write(commit, t)?;
        }
        Ok(t)
    }

    /// Reads `len` bytes at `offset`.
    pub fn read(
        &mut self,
        fid: FileId,
        offset: u64,
        len: u64,
        now: Nanos,
    ) -> FsResult<(Vec<u8>, Nanos)> {
        let inode = self.inode(fid)?;
        let size = inode.size;
        let end = offset
            .checked_add(len)
            .filter(|&end| end <= size)
            .ok_or(FsError::BadRange { offset, len, size })?;
        let page_size = self.page_size as u64;
        let pages: Vec<Lpa> = inode.pages.clone();
        let mut out = Vec::with_capacity(len as usize);
        let mut t = now;
        let mut pos = offset;
        while pos < end {
            let page_idx = (pos / page_size) as usize;
            let lpa = pages[page_idx];
            let (data, c) = self.dev.read(lpa, t)?;
            t = c.finish;
            let bytes = data.materialize(self.page_size);
            let in_page = (pos % page_size) as usize;
            let take = ((end - pos) as usize).min(self.page_size - in_page);
            out.extend_from_slice(&bytes[in_page..in_page + take]);
            pos += take as u64;
        }
        Ok((out, t))
    }

    /// Deletes a file: trims its pages and erases its inode entry.
    pub fn delete(&mut self, fid: FileId, now: Nanos) -> FsResult<Nanos> {
        let inode = self.inodes.remove(&fid).ok_or(FsError::NoSuchFile(fid))?;
        let mut t = now;
        for lpa in &inode.pages {
            let c = self.dev.trim(*lpa, t)?;
            t = c.finish;
            if self.mode != FsMode::F2fsLog && lpa.0 >= self.data_start {
                self.free.push(lpa.0);
            }
        }
        if self.mode == FsMode::Ext4DataJournal {
            let bytes = format!("journal-unlink {}\n", fid.0).into_bytes();
            t = self.journal_write(PageData::bytes(bytes), t)?;
        }
        self.dirty.remove(&fid);
        t = self.write_inode(fid, t)?;
        Ok(t)
    }

    /// Truncates a file to `size` bytes, trimming whole pages past the end
    /// and zeroing the tail of the last partial page (so a later extension
    /// reads zeros, not stale bytes — as real file systems guarantee).
    pub fn truncate(&mut self, fid: FileId, size: u64, now: Nanos) -> FsResult<Nanos> {
        let page_size = self.page_size as u64;
        let keep_pages = size.div_ceil(page_size) as usize;
        let (dropped, old_size): (Vec<Lpa>, u64) = {
            let inode = self.inodes.get_mut(&fid).ok_or(FsError::NoSuchFile(fid))?;
            let old_size = inode.size;
            inode.size = inode.size.min(size);
            (
                inode.pages.split_off(keep_pages.min(inode.pages.len())),
                old_size,
            )
        };
        let mut t = now;
        // Zero the tail of the last kept page if the old size reached into it.
        let tail = size % page_size;
        if tail != 0 && old_size > size {
            let last_idx = (size / page_size) as usize;
            let last_lpa = self
                .inodes
                .get(&fid)
                .and_then(|i| i.pages.get(last_idx).copied());
            if let Some(lpa) = last_lpa {
                let (data, c) = self.dev.read(lpa, t)?;
                t = c.finish;
                let mut content = data.materialize(self.page_size);
                content[tail as usize..].fill(0);
                let c = self.dev.write(lpa, PageData::bytes(content), t)?;
                t = c.finish;
            }
        }
        for lpa in dropped {
            let c = self.dev.trim(lpa, t)?;
            t = c.finish;
            if self.mode != FsMode::F2fsLog && lpa.0 >= self.data_start {
                self.free.push(lpa.0);
            }
        }
        t = self.write_inode(fid, t)?;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_core::{RegularSsd, SsdConfig, SsdReadOps, TimeSsd};
    use almanac_flash::{Geometry, SEC_NS};

    fn regular_fs(mode: FsMode) -> AlmanacFs<RegularSsd> {
        AlmanacFs::new(
            RegularSsd::new(SsdConfig::new(Geometry::medium_test())),
            mode,
        )
        .unwrap()
    }

    #[test]
    fn create_write_read_roundtrip() {
        let mut fs = regular_fs(FsMode::Ext4NoJournal);
        let (fid, t) = fs.create("a.txt", 0).unwrap();
        let t = fs.write(fid, 0, b"hello", t).unwrap();
        let (bytes, _) = fs.read(fid, 0, 5, t).unwrap();
        assert_eq!(bytes, b"hello");
    }

    #[test]
    fn partial_overwrite_preserves_neighbours() {
        let mut fs = regular_fs(FsMode::Ext4NoJournal);
        let (fid, t) = fs.create("a", 0).unwrap();
        let t = fs.write(fid, 0, &[1u8; 100], t).unwrap();
        let t = fs.write(fid, 10, &[9u8; 5], t).unwrap();
        let (bytes, _) = fs.read(fid, 0, 100, t).unwrap();
        assert_eq!(&bytes[..10], &[1u8; 10]);
        assert_eq!(&bytes[10..15], &[9u8; 5]);
        assert_eq!(&bytes[15..], &[1u8; 85]);
    }

    #[test]
    fn cross_page_writes_work() {
        let mut fs = regular_fs(FsMode::Ext4NoJournal);
        let (fid, t) = fs.create("big", 0).unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        let t = fs.write(fid, 0, &data, t).unwrap();
        let (bytes, _) = fs.read(fid, 0, 10_000, t).unwrap();
        assert_eq!(bytes, data);
        assert_eq!(fs.inode(fid).unwrap().pages.len(), 3);
    }

    #[test]
    fn journaling_doubles_overwrite_traffic() {
        // Overwrites are what data journaling duplicates; fresh allocations
        // are not journalled (ordered-style batching).
        let run = |mode| {
            let mut fs = regular_fs(mode);
            let (fid, t) = fs.create("f", 0).unwrap();
            let mut t = fs.write(fid, 0, &[5u8; 4096 * 4], t).unwrap();
            for round in 0..8u8 {
                t = fs.write(fid, 0, &[round; 4096 * 4], t).unwrap();
            }
            fs.device().stats().user_writes
        };
        let plain = run(FsMode::Ext4NoJournal);
        let journaled = run(FsMode::Ext4DataJournal);
        assert!(
            journaled as f64 >= plain as f64 * 1.7,
            "journal mode wrote {journaled}, plain {plain}"
        );
    }

    #[test]
    fn f2fs_allocates_fresh_pages_per_overwrite() {
        let mut fs = regular_fs(FsMode::F2fsLog);
        let (fid, t) = fs.create("f", 0).unwrap();
        let t = fs.write(fid, 0, &[1u8; 4096], t).unwrap();
        let first = fs.inode(fid).unwrap().pages[0];
        let t = fs.write(fid, 0, &[2u8; 4096], t).unwrap();
        let second = fs.inode(fid).unwrap().pages[0];
        assert_ne!(first, second);
        let (bytes, _) = fs.read(fid, 0, 4096, t).unwrap();
        assert_eq!(bytes, vec![2u8; 4096]);
    }

    #[test]
    fn delete_frees_pages_and_forgets_file() {
        let mut fs = regular_fs(FsMode::Ext4NoJournal);
        let (fid, t) = fs.create("gone", 0).unwrap();
        let t = fs.write(fid, 0, &[1u8; 8192], t).unwrap();
        let before = fs.free.len();
        fs.delete(fid, t).unwrap();
        assert_eq!(fs.free.len(), before + 2);
        assert!(fs.inode(fid).is_err());
    }

    #[test]
    fn truncate_trims_tail_pages() {
        let mut fs = regular_fs(FsMode::Ext4NoJournal);
        let (fid, t) = fs.create("t", 0).unwrap();
        let t = fs.write(fid, 0, &[1u8; 4096 * 3], t).unwrap();
        fs.truncate(fid, 4096, t).unwrap();
        let inode = fs.inode(fid).unwrap();
        assert_eq!(inode.pages.len(), 1);
        assert_eq!(inode.size, 4096);
    }

    #[test]
    fn read_past_end_rejected() {
        let mut fs = regular_fs(FsMode::Ext4NoJournal);
        let (fid, t) = fs.create("s", 0).unwrap();
        let t = fs.write(fid, 0, b"abc", t).unwrap();
        // The last two wrap `offset + len` to a small in-file value.
        for (offset, len) in [(0, 10), (4, 0), (u64::MAX, 2), (2, u64::MAX)] {
            assert!(
                matches!(fs.read(fid, offset, len, t), Err(FsError::BadRange { .. })),
                "read({offset}, {len}) of a 3-byte file"
            );
        }
        assert_eq!(fs.read(fid, 3, 0, t).unwrap().0, b"");
    }

    #[test]
    fn write_wrapping_past_u64_max_rejected() {
        let mut fs = regular_fs(FsMode::Ext4NoJournal);
        let (fid, t) = fs.create("s", 0).unwrap();
        let t = fs.write(fid, 0, b"abc", t).unwrap();
        let writes = fs.device().stats().user_writes;
        assert!(matches!(
            fs.write(fid, u64::MAX - 1, b"xyz", t),
            Err(FsError::BadRange { size: 3, .. })
        ));
        assert_eq!(fs.device().stats().user_writes, writes, "nothing written");
        assert_eq!(fs.read(fid, 0, 3, t).unwrap().0, b"abc");
    }

    #[test]
    fn deleted_file_recoverable_from_timessd() {
        let ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        let mut fs = AlmanacFs::new(ssd, FsMode::Ext4NoJournal).unwrap();
        let (fid, t) = fs.create("secret", SEC_NS).unwrap();
        let t = fs.write(fid, 0, b"precious data", t).unwrap();
        let (_, lpas, _) = fs.file_map(fid).unwrap();
        let t2 = fs.delete(fid, t + SEC_NS).unwrap();
        // File gone at FS level, history alive at device level.
        let ssd = fs.device();
        let chain = ssd.version_chain(lpas[0]);
        assert!(!chain.is_empty());
        let content = ssd.version_content(lpas[0], chain[0].timestamp).unwrap();
        assert_eq!(&content.materialize(13), b"precious data");
        let _ = t2;
    }
}
