//! The time-travel index: version-chain traversal and version decoding
//! (§3.7 and the firmware half of §3.9's state query engine).
//!
//! Every LPA's history is a reverse chain: the valid head (from the AMT),
//! then uncompressed invalid versions linked by OOB back-pointers (the *data
//! page chain*), then compressed versions inside delta pages linked through
//! the index mapping table (the *delta page chain*). Every hop follows a
//! [`Link`], and one step function, [`TimeSsd::step`], says what each link
//! may land on:
//!
//! - A *data link* (an OOB back-pointer, or a trimmed head) must land on a
//!   retained data page of the same LPA with a smaller timestamp. A page
//!   the PRT marks compressed, or anything else (a delta page, live or
//!   expired; an erased page; another LPA; a newer timestamp), ends the data
//!   chain, and the walk continues once at the IMT head. An expired data
//!   page ends the walk.
//! - A *delta link* (a delta record's back-pointer, or the IMT head) may land
//!   on a delta page holding a record of the LPA (a version, or a record that
//!   only carries the chain on), or on a data page held to the rule above.
//!   An expired delta page ends the walk only here. Any other miss goes to
//!   the rebuild scan's repair index, strictly below the last version.
//!
//! So every hop checks the owning LPA and a strictly decreasing timestamp,
//! as the paper prescribes, and a chain broken by GC, expiry or a reused
//! block ends cleanly instead of returning wrong data or orphaning the delta
//! chain.
//!
//! The walk is lazy. [`TimeSsd::versions`] yields one version per hop and
//! keeps its link in between, so each query is a fold that stops as soon as
//! its answer is complete: as-of at the first version at or before `t`, a
//! window at its lower edge. Stopping early is exact because timestamps
//! strictly decrease along a chain. [`TimeSsd::decode`] materialises a
//! version from its location alone, re-checking that one hop instead of
//! re-walking, so a query walks each chain once.

use almanac_flash::{DeltaBody, DeltaRecord, Lpa, Nanos, Oob, PageData, Ppa};

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
    /// deltas) — used by the query engine for channel-parallel scheduling.
    pub chip: Option<u32>,
}

/// Hard bound on chain length walked per LPA, against pathological loops.
const MAX_CHAIN: usize = 65_536;

/// One link of a version chain: where the walk goes next, and by which half
/// of the link rule ([`TimeSsd::step`]) its target is judged.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Link {
    /// A data page's OOB back-pointer, or a trimmed head's page.
    FromData(Ppa),
    /// A delta record's back-pointer, or the IMT head.
    FromDelta(Ppa),
    /// The data chain ended: continue at the IMT head.
    Imt,
    /// A delta link missed: continue at the rebuild scan's newest record
    /// strictly older than this (torn links of a rebuilt device).
    Repair(Nanos),
    /// The walk is over.
    End,
}

/// What one hop of the walk landed on.
enum Hop<'a> {
    /// A delta page's records, and whether they still sit in a RAM buffer.
    Delta(&'a [DeltaRecord], bool),
    /// A data page, by its OOB.
    Data(Oob),
    /// A free or erased page.
    Gone,
}

/// The lazy walk behind [`TimeSsd::versions`]: the §3.7 traversal with its
/// link kept between versions.
struct Walk<'a> {
    ssd: &'a TimeSsd,
    lpa: Lpa,
    link: Link,
    /// Timestamp of the last version yielded (`Nanos::MAX` before the
    /// first): every later one is strictly older.
    min_ts: Nanos,
    steps: usize,
}

impl Iterator for Walk<'_> {
    type Item = VersionInfo;

    fn next(&mut self) -> Option<VersionInfo> {
        while self.link != Link::End && self.steps < MAX_CHAIN {
            self.steps += 1;
            let (version, next) = self.ssd.step(self.lpa, self.min_ts, self.link);
            self.link = next;
            if let Some(v) = version {
                self.min_ts = v.timestamp;
                return Some(v);
            }
        }
        None
    }
}

impl TimeSsd {
    /// Resolves the page one hop lands on: flash, or a reserved delta buffer
    /// (firmware RAM) where flash has nothing.
    fn hop(&self, ppa: Ppa) -> Hop<'_> {
        match self.flash.peek(ppa) {
            Ok((PageData::DeltaPage(dp), _)) => Hop::Delta(&dp.deltas, false),
            Ok((_, oob)) => Hop::Data(oob),
            // A buffer's reserved page stays free until the flush that
            // programs it also drops the buffer, so only a free page can be
            // buffered: a hop that lands on flash searches no buffer.
            Err(_) => match self.policy.deltas.buffered_page(ppa) {
                Some(records) => Hop::Delta(records, true),
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

    /// The records of the delta page at `ppa` — buffered, or flushed under
    /// a live filter — or `None` when it is gone or expired.
    pub(crate) fn live_delta_page(&self, ppa: Ppa) -> Option<&[DeltaRecord]> {
        match self.hop(ppa) {
            Hop::Delta(records, buffered) if buffered || self.delta_block_live(ppa) => {
                Some(records)
            }
            _ => None,
        }
    }

    /// Where the walk of `lpa` begins: the valid head the AMT maps, if any,
    /// and the first link. A mapped head links on through its OOB
    /// back-pointer; a trimmed head is itself a data link. A rebuild may have
    /// promoted a trimmed head to a delta page (`rebuild.rs`), and set the
    /// IMT head to that same page, so the data link's miss lands there.
    #[inline]
    pub(crate) fn chain_start(&self, lpa: Lpa) -> (Option<VersionInfo>, Link) {
        match self.amt.get(lpa) {
            AmtEntry::Mapped(head) => match self.flash.peek(head) {
                Ok((_, oob)) => {
                    let head = VersionInfo {
                        lpa,
                        timestamp: oob.timestamp,
                        location: VersionLocation::DataPage(head),
                        is_head: true,
                        chip: Some(self.config.geometry.chip_of_ppa(head)),
                    };
                    (Some(head), oob.back_ptr.map_or(Link::Imt, Link::FromData))
                }
                Err(_) => (None, Link::Imt),
            },
            AmtEntry::Trimmed(page, _) => (None, Link::FromData(page)),
            AmtEntry::Unmapped => (None, Link::Imt),
        }
    }

    /// One hop of the walk of `lpa` below `min_ts`: follows `link` to its
    /// target and returns the version found there, if any, and the link to
    /// follow next. This is the chain's one link rule (see the module docs);
    /// the query walk and GC's data-chain walk both take every hop here.
    #[inline]
    pub(crate) fn step(&self, lpa: Lpa, min_ts: Nanos, link: Link) -> (Option<VersionInfo>, Link) {
        // The target, and where the walk goes when the target breaks the link.
        let (ppa, broken) = match link {
            Link::FromData(ppa) => (ppa, Link::Imt),
            Link::FromDelta(ppa) => (ppa, Link::Repair(min_ts)),
            // `<=`, not `<`: the newest compressed version can share its
            // timestamp with a still-present data-page head (GC compresses
            // the head before the old page is erased; a power cut or a
            // rebuild can freeze that state). The in-page record filter is
            // strict, so equality never duplicates an entry — but skipping
            // the jump would orphan the whole delta chain.
            Link::Imt => {
                let next = match self.policy.imt.head(lpa) {
                    Some((page, newest)) if newest <= min_ts => Link::FromDelta(page),
                    _ => Link::Repair(min_ts),
                };
                return (None, next);
            }
            // Torn-link repair (rebuilt devices only): a delta record's
            // back-pointer may name a buffer page lost in the power cut,
            // orphaning older on-flash records. Reconnect via the rebuild
            // scan's index, strictly downward in timestamp so the walk
            // always terminates.
            Link::Repair(below) => {
                let next = self
                    .policy
                    .recovered_deltas
                    .get(&lpa)
                    .and_then(|list| list.iter().find(|(ts, _)| *ts < below));
                match next {
                    Some(&(ts, page)) => (page, Link::Repair(ts)),
                    None => return (None, Link::End),
                }
            }
            Link::End => return (None, Link::End),
        };
        let chip = || Some(self.config.geometry.chip_of_ppa(ppa));
        match self.hop(ppa) {
            Hop::Data(oob)
                if oob.lpa == lpa && oob.timestamp < min_ts && !self.policy.prt.get(ppa) =>
            {
                if !self.policy.chain.contains(self.group_of(ppa)) {
                    return (None, Link::End); // expired tail
                }
                let version = VersionInfo {
                    lpa,
                    timestamp: oob.timestamp,
                    location: VersionLocation::DataPage(ppa),
                    is_head: false,
                    chip: chip(),
                };
                let next = oob.back_ptr.map_or(Link::Imt, Link::FromData);
                (Some(version), next)
            }
            // Only a delta link may land on a delta page.
            Hop::Delta(records, buffered) if !matches!(link, Link::FromData(_)) => {
                if !buffered && !self.delta_block_live(ppa) {
                    return (None, Link::End); // expired segment
                }
                let best = records
                    .iter()
                    .filter(|d| d.lpa == lpa && d.timestamp < min_ts && !d.is_trim())
                    .max_by_key(|d| d.timestamp);
                if let Some(rec) = best {
                    let version = VersionInfo {
                        lpa,
                        timestamp: rec.timestamp,
                        location: if buffered {
                            VersionLocation::BufferedDelta(ppa)
                        } else {
                            VersionLocation::DeltaPage(ppa)
                        },
                        is_head: false,
                        chip: if buffered { None } else { chip() },
                    };
                    let next = rec
                        .back_ptr
                        .map_or(Link::Repair(rec.timestamp), Link::FromDelta);
                    return (Some(version), next);
                }
                // No unseen version here, but the page may still carry the
                // chain onward: the newest record for this LPA at or before
                // `min_ts` — a duplicate of a version already yielded from a
                // data page (GC compressed a stale copy left by an aborted
                // pass), or a trim journal record (whose back-pointer names
                // the pre-trim head) — links to the older records.
                let carrier = records
                    .iter()
                    .filter(|d| d.lpa == lpa && d.timestamp <= min_ts)
                    .max_by_key(|d| d.timestamp);
                let next = carrier.and_then(|c| c.back_ptr);
                (None, next.map_or(broken, Link::FromDelta))
            }
            _ => (None, broken),
        }
    }

    /// Walks the retrievable version chain of `lpa` lazily, newest first.
    ///
    /// The valid head (if any) comes first with `is_head = true`; retained
    /// versions follow in strictly decreasing timestamp order. Expired
    /// versions are excluded. Each `next` takes the walk one version further
    /// and no further, so stopping early costs only the hops taken.
    pub fn versions(&self, lpa: Lpa) -> impl Iterator<Item = VersionInfo> + '_ {
        let (head, link) = self.chain_start(lpa);
        let walk = Walk {
            ssd: self,
            lpa,
            link,
            min_ts: head.map_or(Nanos::MAX, |h| h.timestamp),
            steps: 0,
        };
        head.into_iter().chain(walk)
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
        // Journal records are not versions and are never decoded.
        let rec = self
            .live_delta_page(v.location.ppa())
            .and_then(|records| {
                records
                    .iter()
                    .find(|d| d.lpa == lpa && d.timestamp == v.timestamp && !d.is_trim())
            })
            .ok_or(gone)?;
        match &rec.body {
            DeltaBody::Synthetic { seed, version } => Ok(PageData::Synthetic {
                seed: *seed,
                version: *version,
            }),
            DeltaBody::Zeros => Ok(PageData::Zeros),
            // Unreachable: the search above skips journal records.
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
}

/// The `&self` query path is a plain `&TimeSsd`: every query method takes
/// `&self` and no lock, so any number of workers can walk version chains at
/// once while the borrow checker keeps `&mut` commands out. The alias
/// survives only because `benchmark/` compiles against this name, and goes
/// with the next change to that crate.
pub type SsdReadView<'a> = &'a TimeSsd;
