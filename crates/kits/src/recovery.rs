//! File-level recovery on top of the page-level Table-1 API.
//!
//! The paper's case studies (§5.5) recover whole files — ransomware victims
//! and reverted OS source files — by obtaining the file's LPAs from the
//! file-system metadata and rolling each page back. A [`FileMap`] carries
//! exactly that: a file name plus its data-page LPAs in file order.

use almanac_core::{QueryCost, Result, RollbackOutcome};
use almanac_flash::{Lpa, Nanos, PageData};

use crate::kits::TimeKits;

/// A file's identity and page layout, as exported by the file system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileMap {
    /// Human-readable name (e.g. `"mm/mmap.c"`).
    pub name: String,
    /// Data-page LPAs in file order.
    pub lpas: Vec<Lpa>,
    /// File size in bytes (the last page may be partial).
    pub size: u64,
}

/// A file reconstructed as of some past time.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveredFile {
    /// The file's name.
    pub name: String,
    /// Reconstructed page contents in file order.
    pub pages: Vec<PageData>,
    /// Retrieval cost.
    pub cost: QueryCost,
}

impl RecoveredFile {
    /// Concatenates the pages into the file's bytes, truncated to `size`.
    pub fn into_bytes(self, page_size: usize, size: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.pages.len() * page_size);
        for p in &self.pages {
            out.extend_from_slice(&p.materialize(page_size));
        }
        out.truncate(size as usize);
        out
    }
}

impl TimeKits<'_> {
    /// Reconstructs a file's content as of time `t` without modifying the
    /// device (read-only recovery, e.g. for forensic export).
    pub fn recover_file(&self, map: &FileMap, t: Nanos) -> Result<RecoveredFile> {
        let (hits, cost) = self.snapshot_at(&map.lpas, t)?;
        Ok(RecoveredFile {
            name: map.name.clone(),
            pages: hits.into_iter().map(|h| h.data).collect(),
            cost,
        })
    }

    /// Rolls a file back in place to its state as of `t`.
    pub fn restore_file(&mut self, map: &FileMap, t: Nanos, now: Nanos) -> Result<RollbackOutcome> {
        self.roll_back_set(&map.lpas, t, now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_core::{SsdConfig, SsdDevice, TimeSsd};
    use almanac_flash::{Geometry, SEC_NS};

    #[test]
    fn recover_and_restore_a_file() {
        let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        let lpas = vec![Lpa(10), Lpa(11)];
        // Original content, then "ransomware" overwrites it.
        for (i, lpa) in lpas.iter().enumerate() {
            ssd.write(*lpa, PageData::bytes(vec![i as u8; 32]), SEC_NS)
                .unwrap();
        }
        for lpa in &lpas {
            ssd.write(*lpa, PageData::bytes(b"ENCRYPTED!".to_vec()), 5 * SEC_NS)
                .unwrap();
        }
        let map = FileMap {
            name: "victim.txt".into(),
            lpas: lpas.clone(),
            size: 40,
        };
        let mut kits = TimeKits::new(&mut ssd);
        let recovered = kits.recover_file(&map, 2 * SEC_NS).unwrap();
        assert_eq!(recovered.pages[0], PageData::bytes(vec![0u8; 32]));
        assert_eq!(recovered.pages[1], PageData::bytes(vec![1u8; 32]));

        kits.restore_file(&map, 2 * SEC_NS, 10 * SEC_NS).unwrap();
        let (data, _) = ssd.read(Lpa(10), 20 * SEC_NS).unwrap();
        assert_eq!(data, PageData::bytes(vec![0u8; 32]));
    }

    #[test]
    fn recovered_file_serialises_to_bytes() {
        let rec = RecoveredFile {
            name: "f".into(),
            pages: vec![PageData::bytes(vec![1, 2]), PageData::bytes(vec![3])],
            cost: QueryCost::new(1),
        };
        let bytes = rec.into_bytes(4, 6);
        assert_eq!(bytes, vec![1, 2, 0, 0, 3, 0]);
    }
}
