//! The regular (baseline) SSD of Figures 6 and 7: the [`Ftl`] skeleton with
//! nothing retained. An invalid page is simply dropped by the erase of its
//! block, whether GC or the skeleton's wear-levelling swap cleaned it.

use crate::config::SsdConfig;
use crate::ftl::{sealed::Sealed, Ftl, Retention};

/// The retention policy of a conventional SSD: invalid pages are discarded.
#[derive(Debug, Clone, Copy, Default)]
pub struct Discard;

/// A conventional SSD simulator.
///
/// # Examples
///
/// ```
/// use almanac_core::{RegularSsd, SsdConfig, SsdDevice};
/// use almanac_flash::{Geometry, Lpa, PageData};
///
/// let mut ssd = RegularSsd::new(SsdConfig::new(Geometry::small_test()));
/// let c = ssd.write(Lpa(0), PageData::Zeros, 0).unwrap();
/// let (data, _) = ssd.read(Lpa(0), c.finish).unwrap();
/// assert_eq!(data, PageData::Zeros);
/// ```
pub type RegularSsd = Ftl<Discard>;

impl Sealed for Discard {}

impl Retention for Discard {
    const KIND: &'static str = "regular";

    fn new(_config: &SsdConfig) -> Self {
        Discard
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{SsdDevice, SsdReadOps};
    use crate::error::AlmanacError;
    use almanac_flash::{Geometry, Lpa, PageData};

    fn small() -> RegularSsd {
        RegularSsd::new(SsdConfig::new(Geometry::small_test()))
    }

    #[test]
    fn write_read_roundtrip() {
        let mut ssd = small();
        let data = PageData::bytes(vec![9; 8]);
        ssd.write(Lpa(3), data.clone(), 0).unwrap();
        let (read, _) = ssd.read(Lpa(3), 1000).unwrap();
        assert_eq!(read, data);
    }

    #[test]
    fn unwritten_read_returns_zeros_without_flash() {
        let mut ssd = small();
        let before = ssd.flash().stats().reads;
        let (data, _) = ssd.read(Lpa(5), 0).unwrap();
        assert_eq!(data, PageData::Zeros);
        assert_eq!(ssd.flash().stats().reads, before);
    }

    #[test]
    fn overwrite_invalidates_old_version() {
        let mut ssd = small();
        ssd.write(Lpa(0), PageData::Zeros, 0).unwrap();
        ssd.write(Lpa(0), PageData::bytes(vec![1]), 1000).unwrap();
        let (data, _) = ssd.read(Lpa(0), 2000).unwrap();
        assert_eq!(data, PageData::bytes(vec![1]));
        // Exactly one page valid for this LPA.
        let total_valid: u32 = ssd.bst.iter().map(|(_, i)| i.valid).sum();
        assert_eq!(total_valid, 1);
    }

    #[test]
    fn out_of_range_lpa_rejected() {
        let mut ssd = small();
        let exported = ssd.exported_pages();
        assert!(matches!(
            ssd.write(Lpa(exported), PageData::Zeros, 0),
            Err(AlmanacError::LpaOutOfRange { .. })
        ));
    }

    #[test]
    fn trim_unmaps() {
        let mut ssd = small();
        ssd.write(Lpa(2), PageData::bytes(vec![5]), 0).unwrap();
        ssd.trim(Lpa(2), 100).unwrap();
        let (data, _) = ssd.read(Lpa(2), 200).unwrap();
        assert_eq!(data, PageData::Zeros);
    }

    #[test]
    fn sustained_overwrites_trigger_gc_and_stay_consistent() {
        let mut ssd = small();
        let exported = ssd.exported_pages();
        let mut now = 0;
        // Write 10x the exported capacity to force plenty of GC.
        for i in 0..(exported * 10) {
            let lpa = Lpa(i % exported);
            let c = ssd
                .write(
                    lpa,
                    PageData::Synthetic {
                        seed: lpa.0,
                        version: i,
                    },
                    now,
                )
                .unwrap();
            now = c.finish;
        }
        assert!(ssd.stats().gc_erases > 0, "GC never ran");
        // Every LPA must read back its latest version.
        for l in 0..exported {
            let (data, _) = ssd.read(Lpa(l), now).unwrap();
            match data {
                PageData::Synthetic { seed, .. } => assert_eq!(seed, l),
                other => panic!("unexpected data {other:?}"),
            }
        }
        assert!(ssd.stats().write_amplification() >= 1.0);
    }

    #[test]
    fn gc_makes_forward_progress() {
        let mut ssd = small();
        let exported = ssd.exported_pages();
        for i in 0..(exported * 20) {
            ssd.write(Lpa(i % exported), PageData::Zeros, i * 1000)
                .unwrap();
        }
        assert!(ssd.free_blocks() > 0);
    }

    #[test]
    fn reads_have_constant_service_time_when_idle() {
        let mut ssd = small();
        ssd.write(Lpa(0), PageData::Zeros, 0).unwrap();
        let (_, c1) = ssd.read(Lpa(0), 10_000_000).unwrap();
        let (_, c2) = ssd.read(Lpa(0), 20_000_000).unwrap();
        assert_eq!(c1.finish - c1.start, c2.finish - c2.start);
    }

    #[test]
    fn trim_of_unmapped_page_is_harmless() {
        let mut ssd = small();
        ssd.trim(Lpa(3), 0).unwrap();
        ssd.trim(Lpa(3), 100).unwrap();
        let (data, _) = ssd.read(Lpa(3), 200).unwrap();
        assert_eq!(data, PageData::Zeros);
    }

    #[test]
    fn regular_ssd_retains_nothing_after_gc() {
        // The baseline really is a baseline: after churn, exactly one valid
        // version per written LPA exists on flash.
        let mut ssd = small();
        let exported = ssd.exported_pages();
        for i in 0..(exported * 12) {
            ssd.write(Lpa(i % exported), PageData::Zeros, i * 1000)
                .unwrap();
        }
        assert!(ssd.stats().gc_erases > 0);
        let total_valid: u32 = ssd.bst.iter().map(|(_, info)| info.valid).sum();
        assert_eq!(total_valid as u64, exported);
    }

    #[test]
    fn stats_programs_account_for_flash_traffic() {
        let mut ssd = small();
        let exported = ssd.exported_pages();
        for i in 0..(exported * 8) {
            ssd.write(Lpa(i % exported), PageData::Zeros, i * 1000)
                .unwrap();
        }
        let s = *ssd.stats();
        assert_eq!(
            s.user_programs + s.gc_programs + s.wl_programs,
            ssd.flash().stats().programs
        );
    }

    #[test]
    fn response_time_reflects_gc_pressure() {
        let mut ssd = small();
        let exported = ssd.exported_pages();
        for i in 0..exported {
            ssd.write(Lpa(i), PageData::Zeros, 0).unwrap();
        }
        let quiet = ssd.stats().write_lat.avg_ns();
        for i in 0..(exported * 10) {
            ssd.write(Lpa(i % exported), PageData::Zeros, 0).unwrap();
        }
        assert!(ssd.stats().write_lat.avg_ns() > quiet);
    }
}
