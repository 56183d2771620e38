//! TimeSSD's half of garbage collection (Algorithm 1, §3.8; the pass, the
//! page loop and the wear-levelling swap are the skeleton's): delta
//! compression of retained versions (§3.6–3.7), which every cleaned block's
//! retained pages meet through `reclaim`, expired delta blocks, window
//! shrinking and background idle-time compression.

use std::borrow::Cow;

use almanac_bloom::FilterId;
use almanac_flash::{mix64, DeltaBody, DeltaRecord, Lpa, Nanos, PageData, Ppa};

use crate::error::{AlmanacError, Result};
use crate::tables::AmtEntry;

use super::query::Link;
use super::{TimeSsd, REF_ZEROS};

/// A retained version on its way into a delta: its page, timestamp,
/// content and the filter whose delta block takes it.
pub(crate) type RetainedVersion = (Ppa, Nanos, PageData, FilterId);

/// Who initiated a compression pass — determines which statistics and
/// Equation-1 counters it feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Cause {
    /// Foreground GC: counts into Equation 1.
    Gc,
    /// Background idle-cycle compression: free as far as Equation 1 is
    /// concerned (it steals no bandwidth from the host).
    Background,
}

/// A time budget for background work; `None` means unbounded (foreground).
pub(crate) struct Budget {
    remaining: Option<Nanos>,
}

impl Budget {
    pub(crate) fn unbounded() -> Self {
        Budget { remaining: None }
    }

    pub(crate) fn bounded(ns: Nanos) -> Self {
        Budget {
            remaining: Some(ns),
        }
    }

    /// Tries to charge `cost`; returns false (and charges nothing) when the
    /// budget cannot cover it.
    fn charge(&mut self, cost: Nanos) -> bool {
        match &mut self.remaining {
            None => true,
            Some(rem) => {
                if *rem >= cost {
                    *rem -= cost;
                    true
                } else {
                    false
                }
            }
        }
    }

    fn exhausted(&self) -> bool {
        matches!(self.remaining, Some(0))
    }

    /// True when fewer than `floor` nanoseconds remain.
    fn below(&self, floor: Nanos) -> bool {
        matches!(self.remaining, Some(r) if r < floor)
    }
}

/// `data` as exactly `page_size` bytes, borrowed when it already is.
fn page_bytes(data: &PageData, page_size: usize) -> Cow<'_, [u8]> {
    match data {
        PageData::Bytes(bytes) if bytes.len() == page_size => Cow::Borrowed(bytes.as_slice()),
        _ => Cow::Owned(data.materialize(page_size)),
    }
}

impl TimeSsd {
    /// Models the compressed size of one synthetic old version: a Gaussian
    /// compression ratio (mean/std from the config, as in §5.2 of the paper)
    /// drawn deterministically from the page identity.
    fn model_delta_size(&self, lpa: Lpa, ts: Nanos) -> u32 {
        let page = lpa.0.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let time = ts.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        let z = mix64(page.wrapping_add(time).wrapping_add(0x1234_5678));
        // Box-Muller from two uniforms in (0, 1).
        let u1 = ((z >> 11) as f64 + 1.0) / (((1u64 << 53) + 1) as f64);
        let u2 = (((z.wrapping_mul(0x2545_f491_4f6c_dd1d)) >> 11) as f64 + 1.0)
            / (((1u64 << 53) + 1) as f64);
        let n = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        let ratio = (self.config.synthetic_delta_mean + self.config.synthetic_delta_std * n)
            .clamp(0.02, 0.95);
        (ratio * self.config.geometry.page_size as f64) as u32
    }

    /// Builds the delta body and size for one old version against the
    /// reference (latest) version.
    fn make_delta(
        &self,
        reference: &PageData,
        old: &PageData,
        lpa: Lpa,
        ts: Nanos,
    ) -> (DeltaBody, u32) {
        match old {
            PageData::Synthetic { seed, version } => (
                DeltaBody::Synthetic {
                    seed: *seed,
                    version: *version,
                },
                self.model_delta_size(lpa, ts),
            ),
            PageData::Zeros => (DeltaBody::Zeros, 8),
            PageData::Bytes(_) => {
                let page_size = self.config.geometry.page_size as usize;
                let mut encoded = almanac_compress::delta::encode(
                    &page_bytes(reference, page_size),
                    &page_bytes(old, page_size),
                );
                // §3.10: retained data may be encrypted under the user key so
                // stolen history is unreadable without it.
                if let Some(key) = self.config.retention_key {
                    crate::crypt::apply_keystream(key, lpa, ts, &mut encoded);
                }
                let size = encoded.len() as u32;
                (DeltaBody::Bytes(encoded), size)
            }
            PageData::DeltaPage(_) => {
                debug_assert!(false, "delta pages never appear in a data chain");
                (DeltaBody::Zeros, 8)
            }
        }
    }

    /// Compresses every retained, uncompressed invalid version of `lpa` into
    /// deltas (the §3.7 procedure triggered when GC breaks a data-page
    /// chain). Marks compressed pages reclaimable and updates the IMT head.
    ///
    /// `probed` is the triggering page's Bloom group and the newest filter
    /// holding it, which the caller already looked up: a version on that
    /// group takes its delta to that filter without a second walk of the
    /// chain. Respects `budget` when bounded, compressing an oldest-first
    /// prefix so a partial pass still leaves the chain consistent.
    pub(crate) fn compress_versions_of(
        &mut self,
        lpa: Lpa,
        t: Nanos,
        budget: &mut Budget,
        cause: Cause,
        probed: (u64, FilterId),
    ) -> Result<Nanos> {
        // The version list is the policy's scratch vector, emptied after
        // every call and never freed.
        let mut versions = std::mem::take(&mut self.policy.versions);
        let out = self.compress_chain(lpa, t, budget, cause, probed, &mut versions);
        versions.clear();
        self.policy.versions = versions;
        out
    }

    /// The body of [`Self::compress_versions_of`], collecting into the
    /// empty `versions`.
    fn compress_chain(
        &mut self,
        lpa: Lpa,
        mut t: Nanos,
        budget: &mut Budget,
        cause: Cause,
        probed: (u64, FilterId),
        versions: &mut Vec<RetainedVersion>,
    ) -> Result<Nanos> {
        let lat = *self.flash.latency();
        // Resolve the reference (latest) version.
        let (reference, ref_ts) = match self.amt.get(lpa) {
            AmtEntry::Mapped(head) => {
                if !budget.charge(lat.read_total()) {
                    return Ok(t);
                }
                let (data, oob, rt) = self.flash.read(head, t)?;
                t = rt;
                self.note_read(cause);
                (data, oob.timestamp)
            }
            AmtEntry::Trimmed(..) => (PageData::Zeros, REF_ZEROS),
            AmtEntry::Unmapped => return Ok(t),
        };

        // Walk the data-page chain by the walk's own link rule, collecting
        // retained uncompressed versions newest first. The PRT says "already
        // compressed from here down" without a read; every other page a
        // data link lands on is read, the one that ends the chain too.
        let (_, mut link) = self.chain_start(lpa);
        let mut prev_ts = ref_ts;
        while let Link::FromData(ppa) = link {
            if self.policy.prt.get(ppa) || !budget.charge(lat.read_total()) {
                break;
            }
            let Ok((data, _, rt)) = self.flash.read(ppa, t) else {
                break; // page erased, or a reserved delta buffer
            };
            t = rt;
            self.note_read(cause);
            let (Some(version), next) = self.step(lpa, prev_ts, link) else {
                break;
            };
            // The step found the page's group in a live filter; the newest
            // such filter's delta block takes the version.
            let group = self.group_of(ppa);
            let fid = match probed {
                (g, fid) if g == group => fid,
                _ => self
                    .policy
                    .chain
                    .find(group)
                    .ok_or(AlmanacError::Internal("retained page outside the chain"))?,
            };
            prev_ts = version.timestamp;
            link = next;
            versions.push((ppa, prev_ts, data, fid));
        }
        if versions.is_empty() {
            return Ok(t);
        }

        // The oldest new delta links to the existing delta chain if there is
        // one, otherwise to where the data chain stopped.
        let stopped = match link {
            Link::FromData(ppa) => Some(ppa),
            _ => None,
        };
        let mut next_older: Option<Ppa> = self.policy.imt.head(lpa).map(|(p, _)| p).or(stopped);

        for (ppa, ts, data, fid) in versions.iter().rev() {
            if budget.exhausted() {
                break;
            }
            if !budget.charge(lat.compress_ns) {
                break;
            }
            let (body, size) = self.make_delta(&reference, data, lpa, *ts);
            t += lat.compress_ns;
            let record = DeltaRecord {
                lpa,
                back_ptr: next_older,
                timestamp: *ts,
                ref_timestamp: ref_ts,
                body,
                size,
            };
            let out = self.policy.deltas.append(
                *fid,
                record,
                &mut self.alloc,
                &mut self.bst,
                &mut self.flash,
                t,
            )?;
            t = out.finish;
            self.stats.delta_programs += out.programs;
            self.note_compression(cause, out.programs);
            budget.charge(out.programs * self.flash.latency().program_total());
            next_older = Some(out.page);
            self.mark_reclaimable(*ppa);
            self.policy.imt.set_head(lpa, out.page, *ts);
        }
        Ok(t)
    }

    fn mark_reclaimable(&mut self, ppa: Ppa) {
        if !self.policy.prt.get(ppa) {
            self.policy.prt.set(ppa, true);
            self.bst.update(self.config.geometry.block_of(ppa), |info| {
                info.reclaimable += 1
            });
        }
    }

    fn note_read(&mut self, cause: Cause) {
        match cause {
            Cause::Gc => {
                self.stats.gc_reads += 1;
                self.policy.period.reads += 1;
            }
            Cause::Background => self.stats.bg_reads += 1,
        }
    }

    fn note_compression(&mut self, cause: Cause, programs: u64) {
        match cause {
            Cause::Gc => {
                self.stats.gc_compressions += 1;
                self.policy.period.compressions += 1;
                self.policy.period.programs += programs;
            }
            Cause::Background => self.stats.bg_compressions += 1,
        }
    }

    /// GC's verdict on the invalid page `ppa` of a victim (Algorithm 1,
    /// lines 10-25): reclaimable and expired pages go with the erase, a
    /// retained page is compressed into deltas first.
    pub(crate) fn compress_retained(&mut self, ppa: Ppa, mut t: Nanos) -> Result<Nanos> {
        // Lines 10-13: reclaimable pages are discarded by the erase.
        if self.policy.prt.get(ppa) {
            return Ok(t);
        }
        // Lines 15-17: pages missing every Bloom filter have expired.
        let group = self.group_of(ppa);
        let Some(fid) = self.policy.chain.find(group) else {
            return Ok(t);
        };
        // Lines 19-25: retained page — compress its LPA's whole
        // uncompressed tail (including this page) into deltas.
        let (_, oob, rt) = self.flash.read(ppa, t)?;
        t = rt;
        self.note_read(Cause::Gc);
        let mut budget = Budget::unbounded();
        t = self.compress_versions_of(oob.lpa, t, &mut budget, Cause::Gc, (group, fid))?;
        if !self.policy.prt.get(ppa) {
            // The page was unreachable from its chain head (e.g. the
            // chain was truncated by expiry); compress it standalone so
            // the history is still preserved.
            t = self.compress_single(ppa, t)?;
        }
        Ok(t)
    }

    /// Fallback: compress one orphaned retained page as its own delta.
    fn compress_single(&mut self, ppa: Ppa, mut t: Nanos) -> Result<Nanos> {
        let (data, oob, rt) = self.flash.read(ppa, t)?;
        t = rt;
        self.note_read(Cause::Gc);
        // A stale twin left by an aborted pass (the page was migrated, then
        // a failed program stopped GC before the victim erase) still carries
        // a version that lives on elsewhere in the chain. Recording it again
        // would plant a duplicate delta whose timestamp collides with the
        // live copy; the bytes are already safe, so just reclaim the page.
        if self
            .versions(oob.lpa)
            .take_while(|v| v.timestamp >= oob.timestamp)
            .any(|v| v.timestamp == oob.timestamp && v.location.ppa() != ppa)
        {
            self.mark_reclaimable(ppa);
            return Ok(t);
        }
        let Some(fid) = self.policy.chain.find(self.group_of(ppa)) else {
            self.mark_reclaimable(ppa);
            return Ok(t);
        };
        // The delta is encoded against the head's bytes, so it records the
        // head's timestamp as its reference.
        let (reference, ref_ts) = match self.amt.get(oob.lpa).mapped() {
            Some(head) => {
                let (d, head_oob, rt2) = self.flash.read(head, t)?;
                t = rt2;
                self.note_read(Cause::Gc);
                (d, head_oob.timestamp)
            }
            None => (PageData::Zeros, REF_ZEROS),
        };
        let (body, size) = self.make_delta(&reference, &data, oob.lpa, oob.timestamp);
        t += self.flash.latency().compress_ns;
        let record = DeltaRecord {
            lpa: oob.lpa,
            back_ptr: oob.back_ptr,
            timestamp: oob.timestamp,
            ref_timestamp: ref_ts,
            body,
            size,
        };
        let out = self.policy.deltas.append(
            fid,
            record,
            &mut self.alloc,
            &mut self.bst,
            &mut self.flash,
            t,
        )?;
        t = out.finish;
        self.stats.delta_programs += out.programs;
        self.note_compression(Cause::Gc, out.programs);
        // Only promote the IMT head if this version is newer than it.
        match self.policy.imt.head(oob.lpa) {
            Some((_, newest)) if newest >= oob.timestamp => {}
            _ => self.policy.imt.set_head(oob.lpa, out.page, oob.timestamp),
        }
        self.mark_reclaimable(ppa);
        Ok(t)
    }

    /// Shrinks the retention window under space pressure; returns false when
    /// the minimum-retention guarantee forbids it (the stall case of §3.4).
    pub(crate) fn force_shrink(&mut self, now: Nanos) -> bool {
        if !super::retention::may_drop_oldest(
            now,
            self.policy.chain.retention_start_after_drop(),
            self.config.min_retention,
        ) {
            return false;
        }
        if let Some(info) = self.policy.chain.drop_oldest() {
            // Its delta blocks now hold only expired versions: GC erases
            // them, lowest block first, before it looks for a victim.
            self.policy.deltas.drop_filter(info.id);
            self.stats.filters_dropped += 1;
            true
        } else {
            false
        }
    }

    /// Spends a just-elapsed idle window on background compression when the
    /// predictor had cleared the threshold (§3.6).
    pub(crate) fn background_compress_window(&mut self, now: Nanos) -> Result<()> {
        if now <= self.last_io_end || !self.policy.idle.worth_compressing() {
            return Ok(());
        }
        let window = now - self.last_io_end;
        if window < self.config.idle_threshold {
            return Ok(());
        }
        let start = self.last_io_end;
        let mut budget = Budget::bounded(window);
        // §3.6: each idle period compresses ONE victim flash block — the
        // full, closed block with the most retained (uncompressed) invalid
        // pages, the highest-numbered of equals.
        let ppb = self.config.geometry.pages_per_block;
        let lat = self.flash.latency();
        let floor = lat.program_total() + lat.read_total();
        if budget.below(floor) {
            return Ok(());
        }
        let victim = self.bst.background_victim(|b, _| !self.alloc.is_active(b));
        let Some(victim) = victim else {
            return Ok(());
        };
        let mut t = start;
        // Consecutive pages share a Bloom group and nothing inserts into or
        // drops from the chain inside a window: one probe per group, whose
        // filter the compression reuses.
        let mut probed: Option<(u64, Option<FilterId>)> = None;
        // Only invalid, not yet reclaimable pages can need work: the word
        // scan of PVT|PRT finds them. It is asked again after every
        // compression, which can mark later pages of this victim reclaimable.
        let mut from = victim.0 * u64::from(ppb);
        let end = from + u64::from(ppb);
        while let Some(ppa) = self.pvt.next_clear_in_both(&self.policy.prt, from..end) {
            if budget.exhausted() {
                break;
            }
            from = ppa.0 + 1;
            let group = self.group_of(ppa);
            let filter = match probed {
                Some((g, filter)) if g == group => filter,
                _ => self.policy.chain.find(group),
            };
            probed = Some((group, filter));
            let Some(fid) = filter else {
                continue;
            };
            if !budget.charge(self.flash.latency().read_total()) {
                break;
            }
            let (_, oob, rt) = self.flash.read(ppa, t)?;
            t = rt;
            self.note_read(Cause::Background);
            t = self.compress_versions_of(
                oob.lpa,
                t,
                &mut budget,
                Cause::Background,
                (group, fid),
            )?;
        }
        Ok(())
    }
}
