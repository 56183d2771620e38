//! Forensic evidence export (the §2.2 storage-forensics use case).
//!
//! Investigators need an *evidence chain*: every version of every affected
//! page inside the incident window, with content digests, ordered in time,
//! in a form that can leave the machine. [`TimeKits::export_evidence`]
//! produces exactly that — a self-describing text archive built from the
//! firmware-isolated history, which the host OS (even a compromised one)
//! could not have altered.

use std::fmt::Write as _;

use almanac_core::{Result, SsdReadOps};
use almanac_flash::{fnv1a, Lpa, LpaSpan, Nanos, FNV_OFFSET};

use crate::kits::TimeKits;

/// One exported version record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvidenceRecord {
    /// Logical page.
    pub lpa: Lpa,
    /// Write timestamp.
    pub timestamp: Nanos,
    /// FNV-1a digest of the page content.
    pub digest: u64,
    /// Content length before page padding (always the page size here).
    pub len: usize,
}

/// A complete evidence archive for a time window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EvidenceArchive {
    /// Window start.
    pub from: Nanos,
    /// Window end.
    pub to: Nanos,
    /// Version records, ordered by `(timestamp, lpa)`.
    pub records: Vec<EvidenceRecord>,
}

impl EvidenceArchive {
    /// Serialises the archive to its text form (one record per line plus a
    /// trailer digest covering the whole archive).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "# almanac evidence archive");
        let _ = writeln!(out, "# window {} {}", self.from, self.to);
        let _ = writeln!(out, "# records {}", self.records.len());
        for r in &self.records {
            let _ = writeln!(
                out,
                "{} {} {:016x} {}",
                r.timestamp, r.lpa.0, r.digest, r.len
            );
        }
        let trailer = fnv1a(FNV_OFFSET, out.as_bytes());
        let _ = writeln!(out, "# trailer {trailer:016x}");
        out
    }

    /// Verifies a text archive's trailer digest; returns the record count.
    pub fn verify_text(text: &str) -> Option<usize> {
        let trailer_line = text.lines().last()?;
        let expect = trailer_line.strip_prefix("# trailer ")?;
        let body_end = text.rfind("# trailer ")?;
        let actual = fnv1a(FNV_OFFSET, &text.as_bytes()[..body_end]);
        if format!("{actual:016x}") != expect {
            return None;
        }
        let records = text
            .lines()
            .find(|l| l.starts_with("# records "))?
            .strip_prefix("# records ")?
            .parse()
            .ok()?;
        Some(records)
    }
}

impl TimeKits<'_> {
    /// Exports every retrievable version written in `[from, to]` across the
    /// whole device as an evidence archive.
    pub fn export_evidence(&self, from: Nanos, to: Nanos) -> Result<EvidenceArchive> {
        let ssd = self.ssd();
        let page_size = ssd.geometry().page_size as usize;
        let mut records = Vec::new();
        for lpa in LpaSpan::clamped(Lpa(0), u64::MAX, ssd.exported_pages()).iter() {
            for v in ssd.versions_in(lpa, from, to) {
                let bytes = ssd.decode(&v)?.materialize(page_size);
                records.push(EvidenceRecord {
                    lpa,
                    timestamp: v.timestamp,
                    digest: fnv1a(FNV_OFFSET, &bytes),
                    len: bytes.len(),
                });
            }
        }
        records.sort_by_key(|r| (r.timestamp, r.lpa));
        Ok(EvidenceArchive { from, to, records })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_core::{SsdConfig, SsdDevice, TimeSsd};
    use almanac_flash::{Geometry, PageData, SEC_NS};

    fn busy_device() -> TimeSsd {
        let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        for i in 0..10u64 {
            ssd.write(
                Lpa(i % 4),
                PageData::bytes(format!("gen {i}").into_bytes()),
                (i + 1) * SEC_NS,
            )
            .unwrap();
        }
        ssd
    }

    #[test]
    fn archive_covers_the_window() {
        let mut ssd = busy_device();
        let kits = TimeKits::new(&mut ssd);
        let archive = kits.export_evidence(3 * SEC_NS, 7 * SEC_NS).unwrap();
        assert_eq!(archive.records.len(), 5); // writes at t=3..=7 s
        assert!(archive
            .records
            .windows(2)
            .all(|w| w[0].timestamp <= w[1].timestamp));
    }

    #[test]
    fn identical_content_has_identical_digest() {
        let mut ssd = TimeSsd::new(SsdConfig::new(Geometry::medium_test()));
        ssd.write(Lpa(0), PageData::bytes(b"same".to_vec()), SEC_NS)
            .unwrap();
        ssd.write(Lpa(1), PageData::bytes(b"same".to_vec()), 2 * SEC_NS)
            .unwrap();
        let kits = TimeKits::new(&mut ssd);
        let archive = kits.export_evidence(0, u64::MAX).unwrap();
        assert_eq!(archive.records[0].digest, archive.records[1].digest);
    }

    #[test]
    fn text_roundtrip_verifies() {
        let mut ssd = busy_device();
        let kits = TimeKits::new(&mut ssd);
        let archive = kits.export_evidence(0, u64::MAX).unwrap();
        let text = archive.to_text();
        assert_eq!(
            EvidenceArchive::verify_text(&text),
            Some(archive.records.len())
        );
    }

    #[test]
    fn tampering_breaks_the_trailer() {
        let mut ssd = busy_device();
        let kits = TimeKits::new(&mut ssd);
        let text = kits.export_evidence(0, u64::MAX).unwrap().to_text();
        let tampered = text.replacen("gen", "GEN", 1); // no-op if absent; mutate a digit instead
        let tampered = if tampered == text {
            text.replacen('1', "2", 1)
        } else {
            tampered
        };
        assert_eq!(EvidenceArchive::verify_text(&tampered), None);
    }
}
