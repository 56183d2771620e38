//! Page payloads, out-of-band metadata, and the on-flash delta-page format.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use crate::addr::{Lpa, Nanos, Ppa};
use crate::array::xorshift64;

/// Content stored in one flash page.
///
/// Real workloads (PostMark, OLTP, the file system) store actual bytes and go
/// through the real XOR-delta + LZF codec. Block traces such as MSR and FIU
/// carry no data content, so — exactly like the paper (§5.2) — those pages are
/// `Synthetic` and delta sizes are drawn from a Gaussian compression-ratio
/// model instead.
///
/// # Examples
///
/// ```
/// use almanac_flash::PageData;
/// let a = PageData::Synthetic { seed: 1, version: 2 };
/// let b = PageData::Synthetic { seed: 1, version: 2 };
/// assert_eq!(a, b);
/// assert!(a.is_synthetic());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageData {
    /// An all-zero page (fresh or trimmed content).
    Zeros,
    /// Placeholder content identified by `(seed, version)`; used when a
    /// workload supplies no real bytes.
    Synthetic {
        /// Identity of the logical object (usually derived from the LPA).
        seed: u64,
        /// Monotonic version counter for this object.
        version: u64,
    },
    /// Real page bytes.
    Bytes(Arc<Vec<u8>>),
    /// A delta page: packed compressed old versions (see [`DeltaPage`]).
    DeltaPage(DeltaPage),
}

impl PageData {
    /// Builds a `Bytes` page from a vector.
    pub fn bytes(v: Vec<u8>) -> Self {
        PageData::Bytes(Arc::new(v))
    }

    /// True if this is synthetic (model-driven) content.
    pub fn is_synthetic(&self) -> bool {
        matches!(self, PageData::Synthetic { .. })
    }

    /// Materialises page content as bytes of length `page_size`.
    ///
    /// Synthetic pages expand to a deterministic pattern derived from
    /// `(seed, version)` so that content comparisons (e.g. rollback
    /// verification) are meaningful even without real data.
    pub fn materialize(&self, page_size: usize) -> Vec<u8> {
        match self {
            PageData::Zeros => vec![0u8; page_size],
            PageData::Synthetic { seed, version } => {
                let mut out = vec![0u8; page_size];
                let mut state = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(version.wrapping_mul(0xbf58_476d_1ce4_e5b9))
                    | 1;
                for chunk in out.chunks_mut(8) {
                    // Xorshift64* keeps materialisation fast and deterministic.
                    state = xorshift64(state);
                    let b = state.wrapping_mul(0x2545_f491_4f6c_dd1d).to_le_bytes();
                    let n = chunk.len();
                    chunk.copy_from_slice(&b[..n]);
                }
                out
            }
            PageData::Bytes(b) => {
                let mut out = b.as_ref().clone();
                out.resize(page_size, 0);
                out
            }
            PageData::DeltaPage(_) => vec![0u8; page_size],
        }
    }
}

/// Out-of-band metadata stored alongside each flash page.
///
/// The paper reserves 12 OOB bytes per page for exactly these three fields
/// (§3.7): the owning LPA, a back-pointer to the previous version's physical
/// page, and the write timestamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Oob {
    /// Logical page this physical page belongs to.
    pub lpa: Lpa,
    /// Physical page holding the previous version of `lpa` (`None` for the
    /// first version).
    pub back_ptr: Option<Ppa>,
    /// Virtual time at which this page was written.
    pub timestamp: Nanos,
}

impl Oob {
    /// Creates OOB metadata.
    pub fn new(lpa: Lpa, back_ptr: Option<Ppa>, timestamp: Nanos) -> Self {
        Oob {
            lpa,
            back_ptr,
            timestamp,
        }
    }
}

/// Compressed body of one retained old version.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaBody {
    /// Model-driven delta for synthetic content: remembers the identity of the
    /// old version and the modelled compressed size.
    Synthetic {
        /// Seed of the logical object.
        seed: u64,
        /// Version this delta reconstructs.
        version: u64,
    },
    /// The old version was an all-zero page; no payload needed.
    Zeros,
    /// Real compressed bytes: `lzf(xor(reference, old_version))`.
    Bytes(Vec<u8>),
    /// Not a version at all: a journalled TRIM tombstone. The record's
    /// `timestamp` is the trim instant and `back_ptr` the chain head at
    /// trim time; recovery replays it into `AmtEntry::Trimmed` so deletion
    /// survives a power cut. Never served as page content.
    Trim,
}

/// One retained old version packed inside a delta page.
///
/// Mirrors the per-delta metadata of §3.7: LPA, back-pointer, own write
/// timestamp, and the write timestamp of the reference version needed for
/// decompression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaRecord {
    /// Logical page this delta belongs to.
    pub lpa: Lpa,
    /// Physical page (data or delta page) holding the next-older version.
    pub back_ptr: Option<Ppa>,
    /// Write timestamp of the version this delta reconstructs.
    pub timestamp: Nanos,
    /// Write timestamp of the reference (newer) version used for compression.
    pub ref_timestamp: Nanos,
    /// Compressed payload.
    pub body: DeltaBody,
    /// Compressed size in bytes (occupies this much of the delta page).
    pub size: u32,
}

impl DeltaRecord {
    /// Size charged against a delta page for one trim tombstone.
    pub const TRIM_SIZE: u32 = 8;

    /// Builds a TRIM journal record: `head` is the version-chain head at
    /// trim time, `timestamp` the trim instant.
    pub fn trim(lpa: Lpa, head: Ppa, timestamp: Nanos) -> Self {
        DeltaRecord {
            lpa,
            back_ptr: Some(head),
            timestamp,
            ref_timestamp: timestamp,
            body: DeltaBody::Trim,
            size: Self::TRIM_SIZE,
        }
    }

    /// True when this record is a journalled trim tombstone rather than a
    /// compressed version.
    pub fn is_trim(&self) -> bool {
        matches!(self.body, DeltaBody::Trim)
    }
}

/// A flash page packed with [`DeltaRecord`]s plus a header, per §3.7.
///
/// The header fields of the paper (number of deltas, byte offset of each
/// delta, per-delta metadata) are represented structurally: `deltas.len()`,
/// the cumulative `size` prefix sums, and the records themselves. The page
/// is one shared slice of records, so reading a delta off a page is the
/// page slot, then the records.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DeltaPage {
    /// Packed deltas, newest first.
    pub deltas: DeltaRecords,
}

impl DeltaPage {
    /// Total payload bytes used by the packed deltas.
    pub fn used_bytes(&self) -> u32 {
        self.deltas.iter().map(|d| d.size).sum()
    }

    /// Header size in bytes for `n` deltas: count (2) + per-delta offset (2)
    /// + per-delta metadata (LPA 4, back-pointer 4, two timestamps 8).
    pub fn header_bytes(n: usize) -> u32 {
        2 + (n as u32) * (2 + 4 + 4 + 8 + 8)
    }
}

/// The records of one programmed delta page: one immutable, shared
/// allocation. Cloning a page (a flash read, a device clone) shares it.
///
/// It reads as a `&[DeltaRecord]`, and its `Debug` is the plain list, so a
/// page prints (and digests) as its records.
#[derive(Clone, PartialEq, Eq, Default)]
pub struct DeltaRecords(Arc<[DeltaRecord]>);

impl Deref for DeltaRecords {
    type Target = [DeltaRecord];

    fn deref(&self) -> &[DeltaRecord] {
        &self.0
    }
}

impl<'a> IntoIterator for &'a DeltaRecords {
    type Item = &'a DeltaRecord;
    type IntoIter = std::slice::Iter<'a, DeltaRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

impl From<Vec<DeltaRecord>> for DeltaRecords {
    fn from(records: Vec<DeltaRecord>) -> Self {
        DeltaRecords(records.into())
    }
}

impl fmt::Debug for DeltaRecords {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_materialisation_is_deterministic() {
        let a = PageData::Synthetic {
            seed: 9,
            version: 4,
        };
        let b = PageData::Synthetic {
            seed: 9,
            version: 4,
        };
        assert_eq!(a.materialize(4096), b.materialize(4096));
    }

    #[test]
    fn synthetic_materialisation_differs_per_version() {
        let a = PageData::Synthetic {
            seed: 9,
            version: 4,
        };
        let b = PageData::Synthetic {
            seed: 9,
            version: 5,
        };
        assert_ne!(a.materialize(4096), b.materialize(4096));
    }

    #[test]
    fn bytes_materialise_padded() {
        let p = PageData::bytes(vec![1, 2, 3]);
        let m = p.materialize(8);
        assert_eq!(m, vec![1, 2, 3, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn zeros_materialise_to_zeroes() {
        assert_eq!(PageData::Zeros.materialize(16), vec![0u8; 16]);
    }

    #[test]
    fn delta_page_accounting() {
        let rec = |ts, size| DeltaRecord {
            lpa: Lpa(1),
            back_ptr: None,
            timestamp: ts,
            ref_timestamp: 100,
            body: DeltaBody::Synthetic {
                seed: 1,
                version: 0,
            },
            size,
        };
        let page = DeltaPage {
            deltas: vec![rec(10, 100), rec(5, 50)].into(),
        };
        assert_eq!(page.used_bytes(), 150);
        assert_eq!(page.deltas.len(), 2);
    }

    #[test]
    fn delta_page_debugs_as_its_record_list() {
        // The flash state digest hashes this text: a page must print
        // exactly as the record list it holds.
        let rec = DeltaRecord::trim(Lpa(3), Ppa(9), 40);
        let page = PageData::DeltaPage(DeltaPage {
            deltas: vec![rec.clone()].into(),
        });
        assert_eq!(
            format!("{page:?}"),
            format!("DeltaPage(DeltaPage {{ deltas: {:?} }})", vec![rec]),
        );
    }

    #[test]
    fn header_grows_with_records() {
        assert!(DeltaPage::header_bytes(2) > DeltaPage::header_bytes(1));
    }
}
