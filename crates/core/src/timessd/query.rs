//! The time-travel index: version-chain traversal and version decoding
//! (§3.7 and the firmware half of §3.9's state query engine).
//!
//! Every LPA's history is a reverse chain: the valid head (from the AMT),
//! then uncompressed invalid versions linked by OOB back-pointers (the *data
//! page chain*), then compressed versions inside delta pages linked through
//! the index mapping table (the *delta page chain*). Traversal is defensive
//! exactly as the paper prescribes: each hop verifies the owning LPA and a
//! strictly decreasing timestamp, so chains broken by GC or expiry terminate
//! cleanly instead of returning wrong data.
//!
//! The walk is lazy. [`TimeSsd::versions`] yields one version per hop and
//! keeps its cursor in between, so each query is a fold that stops as soon
//! as its answer is complete: as-of at the first version at or before `t`, a
//! window at its lower edge. Stopping early is exact because timestamps
//! strictly decrease along a chain. [`TimeSsd::decode`] materialises a
//! version from its location alone, re-checking that one hop instead of
//! re-walking, so a query walks each chain once.

use almanac_flash::{DeltaBody, DeltaPage, Lpa, Nanos, Oob, PageData, Ppa};

use crate::error::{AlmanacError, Result};
use crate::tables::{AmtEntry, BlockKind};

use super::{TimeSsd, REF_ZEROS};

/// Where one version physically lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VersionLocation {
    /// An uncompressed flash data page.
    DataPage(Ppa),
    /// A delta inside a flushed delta page.
    DeltaPage(Ppa),
    /// A delta inside a reserved-but-unflushed delta buffer (firmware RAM).
    BufferedDelta(Ppa),
}

impl VersionLocation {
    /// The physical page backing this version.
    pub fn ppa(&self) -> Ppa {
        match self {
            VersionLocation::DataPage(p)
            | VersionLocation::DeltaPage(p)
            | VersionLocation::BufferedDelta(p) => *p,
        }
    }
}

/// One version of a logical page found in the time-travel index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VersionInfo {
    /// The logical page.
    pub lpa: Lpa,
    /// When this version was written.
    pub timestamp: Nanos,
    /// Where it lives.
    pub location: VersionLocation,
    /// True for the current valid version.
    pub is_head: bool,
    /// Chip a flash read for this version lands on (`None` for buffered
    /// deltas) — used by TimeKits for channel-parallel query scheduling.
    pub chip: Option<u32>,
}

/// Hard bound on chain length walked per LPA, against pathological loops.
const MAX_CHAIN: usize = 65_536;

/// What one hop of the walk landed on.
enum Hop<'a> {
    /// A delta page, and whether it still sits in a RAM buffer.
    Delta(&'a DeltaPage, bool),
    /// A data page, by its OOB.
    Data(Oob),
    /// A free or erased page.
    Gone,
}

/// The lazy walk behind [`TimeSsd::versions`]: the §3.7 traversal with its
/// cursor kept between versions.
struct Walk<'a> {
    ssd: &'a TimeSsd,
    lpa: Lpa,
    /// The valid head, yielded first.
    head: Option<VersionInfo>,
    cursor: Option<Ppa>,
    /// Timestamp of the last version yielded (`Nanos::MAX` before the
    /// first): every later one is strictly older.
    min_ts: Nanos,
    tried_imt: bool,
    repair_below: Nanos,
    steps: usize,
    /// The walk ended; `next` keeps returning `None`.
    done: bool,
}

impl Iterator for Walk<'_> {
    type Item = VersionInfo;

    fn next(&mut self) -> Option<VersionInfo> {
        if let Some(head) = self.head.take() {
            return Some(head);
        }
        let ssd = self.ssd;
        let lpa = self.lpa;
        while !self.done {
            self.steps += 1;
            if self.steps > MAX_CHAIN {
                break;
            }
            let Some(ppa) = self.cursor else {
                // Data chain ended; continue into the delta chain once.
                if !self.tried_imt {
                    self.tried_imt = true;
                    // `<=`, not `<`: the newest compressed version can share
                    // its timestamp with a still-present data-page head (GC
                    // compresses the head before the old page is erased; a
                    // power cut or a rebuild can freeze that state). The
                    // in-page record filter is strict, so equality never
                    // duplicates an entry — but skipping the jump would
                    // orphan the whole delta chain.
                    self.cursor = match ssd.policy.imt.head(lpa) {
                        Some((page, newest)) if newest <= self.min_ts => Some(page),
                        _ => None,
                    };
                    if self.cursor.is_some() {
                        continue;
                    }
                }
                // Torn-link repair (rebuilt devices only): a delta record's
                // back-pointer may name a buffer page that was lost in the
                // power cut, orphaning older on-flash records. Reconnect via
                // the rebuild scan's index, strictly downward in timestamp so
                // the walk always terminates.
                let bound = self.min_ts.min(self.repair_below);
                let next = ssd
                    .policy
                    .recovered_deltas
                    .get(&lpa)
                    .and_then(|list| list.iter().find(|(ts, _)| *ts < bound))
                    .copied();
                match next {
                    Some((ts, page)) => {
                        self.repair_below = ts;
                        self.cursor = Some(page);
                        continue;
                    }
                    None => break,
                }
            };

            match ssd.hop(ppa) {
                Hop::Delta(dp, buffered) => {
                    if !buffered && !ssd.delta_block_live(ppa) {
                        break; // expired segment
                    }
                    let best = dp
                        .deltas
                        .iter()
                        .filter(|d| d.lpa == lpa && d.timestamp < self.min_ts && !d.is_trim())
                        .max_by_key(|d| d.timestamp);
                    let Some(rec) = best else {
                        // No unseen version here, but the hop may still carry
                        // the chain onward: the newest record for this LPA at
                        // or before `min_ts` — a duplicate of a version
                        // already emitted from a data page (GC compressed a
                        // stale copy left by an aborted pass), or a trim
                        // journal record (whose back-pointer names the
                        // pre-trim head) — links to the older records.
                        // Bailing instead would orphan every flushed delta
                        // behind it.
                        let carrier = dp
                            .deltas
                            .iter()
                            .filter(|d| d.lpa == lpa && d.timestamp <= self.min_ts)
                            .max_by_key(|d| d.timestamp);
                        self.cursor = carrier.and_then(|c| c.back_ptr);
                        if carrier.is_some() && self.cursor.is_none() {
                            self.tried_imt = true; // the chain genuinely ends here
                        }
                        // A page with no record for this LPA at all is a
                        // stale pointer (delta GC re-homed it, or — after a
                        // rebuild — it predates a lost delta buffer): cursor
                        // stays None and the walk falls back to the IMT head.
                        continue;
                    };
                    self.min_ts = rec.timestamp;
                    self.cursor = rec.back_ptr;
                    if self.cursor.is_none() {
                        // The delta chain itself ended.
                        self.tried_imt = true;
                    }
                    return Some(VersionInfo {
                        lpa,
                        timestamp: rec.timestamp,
                        location: if buffered {
                            VersionLocation::BufferedDelta(ppa)
                        } else {
                            VersionLocation::DeltaPage(ppa)
                        },
                        is_head: false,
                        chip: (!buffered).then(|| ssd.config.geometry.chip_of_ppa(ppa)),
                    });
                }
                // Data page: verify ownership and ordering (§3.7).
                Hop::Data(oob) => {
                    if oob.lpa != lpa || oob.timestamp >= self.min_ts {
                        self.cursor = None;
                        continue; // broken link → try IMT
                    }
                    if ssd.policy.prt.get(ppa) {
                        // Compressed copy exists; the delta chain covers it.
                        self.cursor = None;
                        continue;
                    }
                    if !ssd.policy.chain.contains(ssd.group_of(ppa)) {
                        break; // expired tail
                    }
                    self.min_ts = oob.timestamp;
                    self.cursor = oob.back_ptr;
                    return Some(VersionInfo {
                        lpa,
                        timestamp: oob.timestamp,
                        location: VersionLocation::DataPage(ppa),
                        is_head: false,
                        chip: Some(ssd.config.geometry.chip_of_ppa(ppa)),
                    });
                }
                Hop::Gone => self.cursor = None, // erased/free → try IMT
            }
        }
        self.done = true;
        None
    }
}

impl TimeSsd {
    /// Resolves the page one hop lands on: flash, or a reserved delta buffer
    /// (firmware RAM) where flash has nothing.
    fn hop(&self, ppa: Ppa) -> Hop<'_> {
        match self.flash.peek(ppa) {
            Ok((PageData::DeltaPage(dp), _)) => Hop::Delta(dp, false),
            Ok((_, oob)) => Hop::Data(oob),
            // A buffer's reserved page stays free until the flush that
            // programs it also drops the buffer, so only a free page can be
            // buffered: a hop that lands on flash searches no buffer.
            Err(_) => match self.policy.deltas.buffered_page(ppa) {
                Some(page) => Hop::Delta(page, true),
                None => Hop::Gone,
            },
        }
    }

    /// True when the flushed delta page at `ppa` sits in a block of a live
    /// filter.
    fn delta_block_live(&self, ppa: Ppa) -> bool {
        match self.bst.get(self.config.geometry.block_of(ppa)).kind {
            BlockKind::Delta(fid) => self.policy.chain.is_live(fid),
            _ => false,
        }
    }

    /// The delta page at `ppa` — buffered, or flushed under a live filter —
    /// or `None` when it is gone or expired.
    pub(crate) fn live_delta_page(&self, ppa: Ppa) -> Option<&DeltaPage> {
        match self.hop(ppa) {
            Hop::Delta(dp, buffered) if buffered || self.delta_block_live(ppa) => Some(dp),
            _ => None,
        }
    }

    /// Walks the retrievable version chain of `lpa` lazily, newest first.
    ///
    /// The valid head (if any) comes first with `is_head = true`; retained
    /// versions follow in strictly decreasing timestamp order. Expired
    /// versions are excluded. Each `next` takes the walk one version further
    /// and no further, so stopping early costs only the hops taken.
    pub fn versions(&self, lpa: Lpa) -> impl Iterator<Item = VersionInfo> + '_ {
        let mut walk = Walk {
            ssd: self,
            lpa,
            head: None,
            cursor: None,
            min_ts: Nanos::MAX,
            tried_imt: false,
            repair_below: Nanos::MAX,
            steps: 0,
            done: false,
        };
        match self.amt.get(lpa) {
            AmtEntry::Mapped(head) => {
                if let Ok((_, oob)) = self.flash.peek(head) {
                    walk.head = Some(VersionInfo {
                        lpa,
                        timestamp: oob.timestamp,
                        location: VersionLocation::DataPage(head),
                        is_head: true,
                        chip: Some(self.config.geometry.chip_of_ppa(head)),
                    });
                    walk.min_ts = oob.timestamp;
                    walk.cursor = oob.back_ptr;
                }
            }
            AmtEntry::Trimmed(head, _) => walk.cursor = Some(head),
            AmtEntry::Unmapped => {}
        }
        walk
    }

    /// Returns the full retrievable version chain of `lpa`, newest first:
    /// [`Self::versions`], collected.
    pub fn version_chain(&self, lpa: Lpa) -> Vec<VersionInfo> {
        self.versions(lpa).collect()
    }

    /// Materialises one version the walk yielded, from its location alone,
    /// decompressing a delta (and resolving its reference version) as
    /// needed. Uses the device's configured retention key, i.e. the
    /// authorized-owner path.
    ///
    /// The hop is re-checked instead of re-walked. A data page must still
    /// carry `v`'s timestamp and, unless the AMT maps it as the current
    /// head, `v`'s LPA in its OOB and a Bloom hit for its group; a delta
    /// page must still be live and hold `v`'s record. So a `VersionInfo`
    /// kept across later writes, GC or a filter drop decodes to its own
    /// bytes or to [`AlmanacError::NoSuchVersion`], never to another
    /// version's bytes.
    pub fn decode(&self, v: &VersionInfo) -> Result<PageData> {
        self.decode_keyed(v, self.config.retention_key, 0)
    }

    /// Materialises the content of the version of `lpa` written at exactly
    /// `timestamp`: the walk down to that timestamp, then [`Self::decode`].
    pub fn version_content(&self, lpa: Lpa, timestamp: Nanos) -> Result<PageData> {
        self.version_content_keyed(lpa, timestamp, self.config.retention_key, 0)
    }

    /// Like [`Self::version_content`] but decrypting retained data with the
    /// *caller's* key — models an adversary (or a forensic analyst) holding
    /// the drive: without the right key, §3.10-encrypted history does not
    /// decode.
    pub fn version_content_with_key(
        &self,
        lpa: Lpa,
        timestamp: Nanos,
        key: Option<u64>,
    ) -> Result<PageData> {
        self.version_content_keyed(lpa, timestamp, key, 0)
    }

    fn version_content_keyed(
        &self,
        lpa: Lpa,
        timestamp: Nanos,
        key: Option<u64>,
        depth: u32,
    ) -> Result<PageData> {
        if depth > 64 {
            return Err(AlmanacError::DecodeFailed("reference chain too deep"));
        }
        let v = self
            .versions(lpa)
            .take_while(|v| v.timestamp >= timestamp)
            .find(|v| v.timestamp == timestamp)
            .ok_or(AlmanacError::NoSuchVersion { lpa, at: timestamp })?;
        self.decode_keyed(&v, key, depth)
    }

    fn decode_keyed(&self, v: &VersionInfo, key: Option<u64>, depth: u32) -> Result<PageData> {
        let lpa = v.lpa;
        let gone = AlmanacError::NoSuchVersion {
            lpa,
            at: v.timestamp,
        };
        if let VersionLocation::DataPage(ppa) = v.location {
            let Ok((data, oob)) = self.flash.peek(ppa) else {
                return Err(gone);
            };
            // The AMT vouches for the current head, as it does in the walk.
            let head = self.amt.get(lpa).mapped() == Some(ppa);
            let retained =
                head || (oob.lpa == lpa && self.policy.chain.contains(self.group_of(ppa)));
            return if retained && oob.timestamp == v.timestamp {
                Ok(data.clone())
            } else {
                Err(gone)
            };
        }
        let rec = self
            .live_delta_page(v.location.ppa())
            .and_then(|dp| dp.find(lpa, v.timestamp))
            .ok_or(gone)?;
        match &rec.body {
            DeltaBody::Synthetic { seed, version } => Ok(PageData::Synthetic {
                seed: *seed,
                version: *version,
            }),
            DeltaBody::Zeros => Ok(PageData::Zeros),
            // Unreachable: `find` skips journal records.
            DeltaBody::Trim => Err(AlmanacError::DecodeFailed(
                "trim journal record is not a version",
            )),
            DeltaBody::Bytes(encoded) => {
                let page_size = self.config.geometry.page_size as usize;
                let ref_bytes = if rec.ref_timestamp == REF_ZEROS {
                    vec![0u8; page_size]
                } else {
                    self.version_content_keyed(lpa, rec.ref_timestamp, key, depth + 1)?
                        .materialize(page_size)
                };
                let mut payload = encoded.clone();
                if self.config.retention_key.is_some() {
                    // Decrypt with whatever key the caller supplied; a wrong
                    // key yields garbage that fails to decode (or decodes to
                    // ciphertext-like noise).
                    crate::crypt::apply_keystream(
                        key.unwrap_or(0),
                        lpa,
                        rec.timestamp,
                        &mut payload,
                    );
                }
                let old = almanac_compress::delta::decode(&ref_bytes, &payload)
                    .map_err(|_| AlmanacError::DecodeFailed("delta payload corrupt"))?;
                Ok(PageData::bytes(old))
            }
        }
    }

    /// The newest version of `lpa` written at or before `at` — the state of
    /// the page "as of" that time. The walk stops at that version.
    ///
    /// Trim-aware: if the page is currently trimmed and the trim happened at
    /// or before `at`, the page did not exist at that instant and `None` is
    /// returned — otherwise a rollback to a post-trim time would resurrect
    /// deleted data. The tombstone is forgotten when the page is rewritten
    /// (the trim is then an interior gap the chain does not record); the
    /// explicitly-historical [`Self::versions_in`] still surfaces pre-trim
    /// write events.
    pub fn version_as_of(&self, lpa: Lpa, at: Nanos) -> Option<VersionInfo> {
        if let Some(t_trim) = self.amt.get(lpa).trimmed_at() {
            if t_trim <= at {
                return None;
            }
        }
        self.versions(lpa).find(|v| v.timestamp <= at)
    }

    /// All versions written inside `[from, to]`, newest first. The walk
    /// stops at the window's lower edge.
    pub fn versions_in(
        &self,
        lpa: Lpa,
        from: Nanos,
        to: Nanos,
    ) -> impl Iterator<Item = VersionInfo> + '_ {
        self.versions(lpa)
            .skip_while(move |v| v.timestamp > to)
            .take_while(move |v| v.timestamp >= from)
    }

    /// True when the LPA currently maps to valid data.
    pub fn is_mapped(&self, lpa: Lpa) -> bool {
        matches!(self.amt.get(lpa), AmtEntry::Mapped(_))
    }

    /// When `lpa` was trimmed, if it currently carries a trim tombstone.
    ///
    /// Rewriting the page forgets the tombstone. A power cut does *not*:
    /// every trim journals a durable TRIM record into the delta stream
    /// before completing, and rebuild replays the newest surviving record
    /// back into `AmtEntry::Trimmed`.
    pub fn trimmed_at(&self, lpa: Lpa) -> Option<Nanos> {
        self.amt.get(lpa).trimmed_at()
    }

    /// The array geometry (for host-side query cost accounting).
    pub fn geometry(&self) -> &almanac_flash::Geometry {
        &self.config.geometry
    }

    /// Shared-access view over this device's retained history — the `&self`
    /// query path parallel queries run on. Equivalent to
    /// [`SsdReadOps::read_view`](crate::SsdReadOps::read_view) without the
    /// trait-object indirection.
    pub fn read_view(&self) -> SsdReadView<'_> {
        SsdReadView { ssd: self }
    }
}

/// A shared-access window onto a [`TimeSsd`]'s time-travel index.
///
/// Every method works through `&self` and takes no lock, so any number of
/// views (one per query worker) can traverse version chains concurrently
/// while the device is between `&mut` commands — the borrow checker keeps
/// writers out for as long as a view lives. The view is `Copy` — hand one
/// to each scoped thread.
///
/// Obtained from [`TimeSsd::read_view`] or, device-generically, from
/// [`SsdReadOps::read_view`](crate::SsdReadOps::read_view).
#[derive(Clone, Copy)]
pub struct SsdReadView<'a> {
    ssd: &'a TimeSsd,
}

impl std::fmt::Debug for SsdReadView<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SsdReadView")
            .field("exported_pages", &self.ssd.amt.len())
            .field("amt_shards", &self.amt_shards())
            .finish()
    }
}

impl<'a> SsdReadView<'a> {
    /// The underlying device (for cost models that need latency/config).
    pub fn device(&self) -> &'a TimeSsd {
        self.ssd
    }

    /// See [`TimeSsd::geometry`].
    pub fn geometry(&self) -> &'a almanac_flash::Geometry {
        self.ssd.geometry()
    }

    /// Number of host-visible pages.
    pub fn exported_pages(&self) -> u64 {
        self.ssd.amt.len()
    }

    /// Partition width for a parallel ranged query over this view (see
    /// [`SsdConfig::amt_shards`](crate::SsdConfig)).
    pub fn amt_shards(&self) -> u32 {
        self.ssd.amt_shards()
    }
}
