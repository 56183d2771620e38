//! Lockstep differential execution: one device under test, one
//! [`ModelDevice`], every op applied to both and compared.
//!
//! This is the one place an [`OracleOp`] reaches a device. The harness is
//! generic over the device's retention policy ([`Guarantee`]): each `Ftl`
//! gets the head and read checks and the device's `check_consistency`
//! audit (for the `RegularSsd` / `FlashGuardSsd` baselines the model runs
//! on the mirror ordinal with nothing obligated), and a [`TimeSsd`]
//! additionally gets everything that needs its history — chains,
//! obligations, as-of and rollback probes, the power-cut crash contract,
//! and the whole-space query check a run ends with.
//!
//! The harness implements [`SsdDevice`], so anything that drives a device —
//! `trace::replay` in particular — can drive the pair and get op-by-op
//! read checking for free. Richer probes are available through
//! [`DifferentialHarness::apply`] on [`OracleOp`] sequences, which is what
//! the proptest strategies and the `queues` runner feed it.
//!
//! ## Comparison rules
//!
//! - **Reads** must return the model's current bytes, byte-for-byte.
//! - **Chains** must be strictly decreasing in time, every entry must be a
//!   version the model saw written (no phantoms), and entry content must
//!   decode to the originally-written bytes.
//! - **Heads** must agree: the device maps `lpa` iff the model has a live,
//!   untrimmed head, at the same timestamp.
//! - **Obligations**: every model version still inside the minimum
//!   retention window (measured from its invalidation basis) must appear in
//!   the device chain. Older versions are *allowed* but not demanded.
//! - **As-of / rollback** answers may skip newest-first past versions that
//!   are no longer obligated (expired or waived), but must stop at the
//!   first obligated one; see [`ModelDevice`] for the waiver rules after a
//!   power cut.
//! - **Queries** over the whole exported span must list exactly the
//!   `(lpa, timestamp)` pairs of the per-page chains held above, in LPA
//!   order, at whatever partition width the device was built with.
//!
//! A [`Divergence`] is recorded for each disagreement;
//! [`minimal_failing_prefix`] re-runs an op sequence with a deep check
//! after every op to pin the shortest reproducing prefix.

use std::collections::BTreeMap;
use std::fmt::Debug;

use almanac_core::{
    time_scan, AddrQuery, AlmanacError, Completion, DeviceStats, Discard, Ftl, QueryHit, ReadGated,
    Result, Retention, SsdConfig, SsdDevice, SsdReadOps, TimeQueryHit, TimeSsd, TimeTravel,
    VersionLocation,
};
use almanac_flash::{FlashError, Lpa, LpaSpan, Nanos, PageData};

use crate::model::ModelDevice;
use crate::report::{Divergence, DivergenceReport};
use crate::strategy::{Action, Decoder, OracleOp};

/// Per-LPA cap on full content decodes in one deep check; timestamps and
/// ordering are still verified for the whole chain beyond it.
const CONTENT_CHECK_CAP: usize = 32;

/// Stop recording after this many divergences (the first is what matters).
const MAX_DIVERGENCES: usize = 16;

/// A device under test (a [`TimeSsd`] unless named otherwise) and its
/// reference model, driven in lockstep.
pub struct DifferentialHarness<D = TimeSsd> {
    /// `None` only while `power_cycle` holds the flash array.
    ssd: Option<D>,
    model: ModelDevice,
    config: SsdConfig,
    divergences: Vec<Divergence>,
    ops: Vec<OracleOp>,
    first_divergence_op: Option<usize>,
    /// Arrival clock, pages and payloads of `apply`-driven runs.
    decoder: Decoder,
    /// Max arrival/completion time observed — the instant obligations are
    /// evaluated at. Never behind any expiry decision the device has made.
    clock: Nanos,
    /// Writes and trims mirrored so far: the model's clock for a device
    /// that stamps nothing.
    mirrored: u64,
    stalled: bool,
    power_cuts: usize,
    /// Deep-check cadence in ops (0 = only explicit `Check` ops + final).
    check_every: usize,
    since_check: usize,
}

/// What the oracle holds each [`Retention`] policy to. The only place the
/// harness asks which device it has; the defaults are the baselines, which
/// guarantee no history. Sealed, as `Retention` is.
pub trait Guarantee: Retention {
    /// The retention window the device guarantees: what the model obligates.
    fn window(_config: &SsdConfig) -> Nanos {
        0
    }

    /// The harness as that of a [`TimeSsd`], when it is one: the way in to
    /// every check that needs the device's history.
    fn history(_h: &mut DifferentialHarness<Ftl<Self>>) -> Option<&mut DifferentialHarness> {
        None
    }
}

impl Guarantee for Discard {}

impl Guarantee for ReadGated {}

impl Guarantee for TimeTravel {
    fn window(config: &SsdConfig) -> Nanos {
        config.min_retention
    }

    fn history(h: &mut DifferentialHarness) -> Option<&mut DifferentialHarness> {
        Some(h)
    }
}

impl DifferentialHarness {
    /// A fresh [`TimeSsd`]/model pair for `config`.
    pub fn new(config: SsdConfig) -> Self {
        Self::over(config)
    }
}

impl<R: Guarantee> DifferentialHarness<Ftl<R>> {
    /// A fresh `Ftl<R>`/model pair for `config`. A baseline guarantees no
    /// history, so its model keeps none obligated (retention zero) and only
    /// heads and reads are held.
    pub fn over(config: SsdConfig) -> Self {
        let ssd = Ftl::new(config.clone());
        let page_size = config.geometry.page_size as usize;
        DifferentialHarness {
            model: ModelDevice::new(ssd.exported_pages(), page_size, R::window(&config)),
            decoder: Decoder::new(ssd.exported_pages(), page_size),
            ssd: Some(ssd),
            config,
            divergences: Vec::new(),
            ops: Vec::new(),
            first_divergence_op: None,
            clock: 0,
            mirrored: 0,
            stalled: false,
            power_cuts: 0,
            check_every: 0,
            since_check: 0,
        }
    }

    /// Runs a deep check every `n` applied ops (0 disables the cadence).
    pub fn with_check_every(mut self, n: usize) -> Self {
        self.check_every = n;
        self
    }

    /// Read access to the device under test.
    pub fn ssd(&self) -> &Ftl<R> {
        self.ssd.as_ref().expect("device present between ops")
    }

    /// Read access to the reference model.
    pub fn model(&self) -> &ModelDevice {
        &self.model
    }

    /// Mutable access to the device under test, bypassing the model.
    ///
    /// Exists so tests can seed device-side state the model does not know
    /// about and prove the oracle flags it; using it in a differential run
    /// for anything else desynchronises the pair by construction.
    pub fn ssd_mut_bypassing_model(&mut self) -> &mut Ftl<R> {
        self.dev()
    }

    fn dev(&mut self) -> &mut Ftl<R> {
        self.ssd.as_mut().expect("device present between ops")
    }

    /// Divergences recorded so far.
    pub fn divergences(&self) -> &[Divergence] {
        &self.divergences
    }

    /// Power cuts survived so far.
    pub fn power_cuts(&self) -> usize {
        self.power_cuts
    }

    /// True once the device refused service (retention pinned GC).
    pub fn is_stalled(&self) -> bool {
        self.stalled
    }

    /// Arrival time of the last applied op.
    fn now(&self) -> Nanos {
        self.decoder.now()
    }

    fn page_size(&self) -> usize {
        self.config.geometry.page_size as usize
    }

    fn full(&self) -> bool {
        self.divergences.len() >= MAX_DIVERGENCES
    }

    fn timed(&mut self) -> Option<&mut DifferentialHarness> {
        R::history(self)
    }

    fn diverge(&mut self, d: Divergence) {
        if self.full() {
            return;
        }
        if self.first_divergence_op.is_none() && !self.ops.is_empty() {
            self.first_divergence_op = Some(self.ops.len() - 1);
        }
        self.divergences.push(d);
    }

    // ---- op application ------------------------------------------------

    /// Applies one generated op to both sides. Stalls and power cuts are
    /// handled internally: a stall (retention pinned GC) ends the run, and
    /// an injected single-op flash fault is a *failed host op* — the device
    /// reported the error, applied nothing, and must still satisfy every
    /// invariant afterwards (the model is deliberately not updated).
    /// Unexpected device errors panic (the oracle runs inside tests).
    pub fn apply(&mut self, op: &OracleOp) {
        if self.stalled || self.full() {
            return;
        }
        self.ops.push(op.clone());
        let (now, action) = self.decoder.decode(op);
        let checked = matches!(action, Action::Check);
        let outcome = match action {
            Action::Write(lpa, data) => self.write(lpa, data, now).map(|_| ()),
            Action::Read(lpa) => self.read(lpa, now).map(|_| ()),
            Action::Trim(lpa) => self.trim(lpa, now).map(|_| ()),
            Action::Flush => self.flush(now).map(|_| ()),
            Action::Check => {
                self.check_now();
                Ok(())
            }
            probe => self.timed().map_or(Ok(()), |h| h.probe(probe, now)),
        };
        if self.check_every > 0 && !checked {
            self.since_check += 1;
            if self.since_check >= self.check_every {
                self.since_check = 0;
                self.check_now();
            }
        }
        match outcome {
            Ok(())
            | Err(AlmanacError::DeviceStalled { .. })
            | Err(AlmanacError::Flash(FlashError::Injected { .. })) => {}
            Err(e) => panic!("unexpected device error in differential run: {e}"),
        }
    }

    /// Applies a whole sequence, finishing with [`check_now`](Self::check_now)
    /// and, on a [`TimeSsd`], the whole-space query check — once per run: at
    /// every `Check` op it would cost more than the rest of the run.
    pub fn run(&mut self, ops: &[OracleOp]) -> DivergenceReport {
        ops.iter().for_each(|op| self.apply(op));
        self.check_now();
        if let Some(h) = self.timed() {
            h.query_check();
        }
        self.report()
    }

    /// The current outcome snapshot.
    pub fn report(&self) -> DivergenceReport {
        DivergenceReport {
            divergences: self.divergences.clone(),
            ops: self.ops.clone(),
            first_divergence_op: self.first_divergence_op,
            stalled: self.stalled,
            applied: self.ops.len(),
        }
    }

    /// Structural comparison of device against model — chains, heads and
    /// obligations on a TimeSSD — then the device's own audit, the same
    /// rules on every FTL, issuing no host command. A baseline has no
    /// history to compare: its whole-space check against the model is
    /// [`read_sweep`](Self::read_sweep). True when nothing new was found.
    pub fn check_now(&mut self) -> bool {
        let before = self.divergences.len();
        if let Some(h) = self.timed() {
            h.deep_check();
        }
        let report = self.ssd().check_consistency();
        if !report.is_clean() {
            self.diverge(Divergence::ConsistencyViolations {
                count: report.violations.len(),
                sample: report
                    .violations
                    .iter()
                    .take(4)
                    .map(|v| format!("{v:?}"))
                    .collect(),
            });
        }
        self.divergences.len() == before
    }

    /// Host-reads the whole exported space, never-written pages included,
    /// against the model. Never implicit: a host read is an input to the
    /// device (it sets FlashGuard's read bit), so the caller decides when
    /// the stream can bear one. True when nothing new was found.
    pub fn read_sweep(&mut self) -> bool {
        let before = self.divergences.len();
        let at = self.clock;
        for lpa in (0..self.model.exported_pages()).map(Lpa) {
            if self.read(lpa, at).is_err() {
                self.diverge(Divergence::ReadMismatch { lpa, at });
            }
        }
        self.divergences.len() == before
    }

    /// Issues `op` at `now`. A scheduled power cut firing inside it (the
    /// fault layer's, not a strategy op) lands before the op is
    /// acknowledged, so nothing was promised for it: the device is
    /// recovered and the "host" reissues the op once.
    fn issue<T>(&mut self, now: Nanos, op: impl Fn(&mut Ftl<R>, Nanos) -> Result<T>) -> Result<T> {
        self.clock = self.clock.max(now);
        let mut out = op(self.dev(), now);
        if matches!(out, Err(AlmanacError::Flash(FlashError::PowerLoss))) {
            if let Some(h) = self.timed() {
                h.power_cycle();
                let again = self.now().max(now);
                out = op(self.dev(), again);
            }
        }
        self.stalled |= matches!(out, Err(AlmanacError::DeviceStalled { .. }));
        out
    }

    /// The model's clock for a write or trim mirrored from a device that
    /// stamps nothing: the next ordinal. `None` for a [`TimeSsd`], whose own
    /// timestamps are mirrored instead (they must strictly increase per
    /// page — the model rejects a repeat).
    fn ordinal(&mut self) -> Option<Nanos> {
        self.mirrored += 1;
        self.timed().is_none().then_some(self.mirrored)
    }
}

// ---- what only a TimeSsd can be asked -----------------------------------

impl DifferentialHarness<TimeSsd> {
    /// The ops with no [`SsdDevice`] surface: history probes and power cuts.
    fn probe(&mut self, probe: Action, now: Nanos) -> Result<()> {
        match probe {
            Action::AsOf(lpa, at) => self.as_of_check(lpa, at),
            Action::RollBack(addr, cnt, t) => return self.roll_back(addr, cnt, t, now),
            // `apply` serves host I/O and checks itself: a power cut is left.
            _ => self.power_cycle(),
        }
        Ok(())
    }

    /// The device answers `version_as_of(lpa, at)` may legally give:
    /// model versions at or before `at`, newest first, up to and including
    /// the first *obligated* one (which it must not skip). The bool says
    /// whether `None` is also legal (no obligated version at or before
    /// `at`, or the page was tombstoned by then).
    fn acceptable_as_of(&self, lpa: Lpa, at: Nanos) -> (Vec<Nanos>, bool) {
        if let Some(t_trim) = self.model.trimmed_at(lpa) {
            if t_trim <= at {
                return (Vec::new(), true);
            }
        }
        let mut acceptable = Vec::new();
        for v in self.model.history(lpa).iter().rev() {
            if v.timestamp > at {
                continue;
            }
            acceptable.push(v.timestamp);
            if self.model.obligated(v, self.clock) {
                return (acceptable, false);
            }
        }
        (acceptable, true)
    }

    /// Compares `version_as_of` against the model's acceptable answers.
    fn as_of_check(&mut self, lpa: Lpa, at: Nanos) {
        let device = self.ssd().version_as_of(lpa, at).map(|v| v.timestamp);
        let (acceptable, none_ok) = self.acceptable_as_of(lpa, at);
        let legal = match device {
            Some(ts) => acceptable.contains(&ts),
            None => none_ok,
        };
        if !legal {
            let model = self.model.as_of(lpa, at).map(|v| v.timestamp);
            self.diverge(Divergence::AsOfMismatch {
                lpa,
                at,
                device,
                model,
            });
        } else if let Some(ts) = device {
            // The served version must also decode to the written bytes.
            self.verify_content(lpa, ts);
        }
    }

    fn verify_content(&mut self, lpa: Lpa, ts: Nanos) {
        let Some(mv) = self.model.version_at(lpa, ts) else {
            self.diverge(Divergence::PhantomVersion { lpa, ts });
            return;
        };
        let expect = mv.data.materialize(self.page_size());
        match self.ssd().version_content(lpa, ts) {
            Ok(c) if c.materialize(self.page_size()) == expect => {}
            Ok(_) => self.diverge(Divergence::ContentMismatch {
                lpa,
                ts,
                detail: "decoded bytes differ from written bytes".into(),
            }),
            Err(e) => self.diverge(Divergence::ContentMismatch {
                lpa,
                ts,
                detail: format!("version unreadable: {e}"),
            }),
        }
    }

    /// `RollBack(addr, cnt, t)` through the harness's own [`SsdDevice`]
    /// surface, as any host runs it: each restore is mirrored as it lands,
    /// and a cut or fault inside one is [`issue`](Self::issue)'s. Then each
    /// page of the span is held to the model — unless power was cut
    /// meanwhile: an unflushed rollback trim may legally come back.
    fn roll_back(&mut self, addr: Lpa, cnt: u64, t: Nanos, now: Nanos) -> Result<()> {
        let cuts = self.power_cuts;
        almanac_core::roll_back(self, addr, cnt, t, now)?;
        if self.power_cuts == cuts {
            for lpa in LpaSpan::clamped(addr, cnt, self.model.exported_pages()).iter() {
                self.check_rolled_page(lpa, t, now);
            }
        }
        Ok(())
    }

    /// One page after a rollback to `t` issued at `now`: its head is an
    /// acceptable as-of answer left in place, or a fresh write (stamped at
    /// or after `now`) of an acceptable version's bytes, or absent where no
    /// version is obligated.
    fn check_rolled_page(&mut self, lpa: Lpa, t: Nanos, now: Nanos) {
        let (acceptable, none_ok) = self.acceptable_as_of(lpa, t);
        let ps = self.page_size();
        let restores = |bytes: &[u8]| {
            acceptable
                .iter()
                .filter_map(|&ts| self.model.version_at(lpa, ts))
                .any(|v| v.data.materialize(ps) == bytes)
        };
        let detail = match self.model.current(lpa) {
            None if none_ok => return,
            None => "page erased though an obligated version was live at t".into(),
            Some(h) if acceptable.contains(&h.timestamp) => return,
            Some(h) if h.timestamp >= now && restores(&h.data.materialize(ps)) => return,
            Some(h) if h.timestamp >= now => "restored bytes match no version live at t".into(),
            Some(h) => format!("head left at @{}, not an as-of answer for t", h.timestamp),
        };
        self.diverge(Divergence::RollbackMismatch {
            lpa,
            target: t,
            detail,
        });
    }

    /// Cuts power (losing all RAM state), revives the flash, rebuilds the
    /// device, and applies the documented crash contract to the model.
    fn power_cycle(&mut self) {
        self.power_cuts += 1;

        // Versions living only in volatile delta buffers are legally lost.
        let mut buffered: Vec<(Lpa, Nanos)> = Vec::new();
        for lpa in self.model.lpas() {
            for v in self.ssd().version_chain(lpa) {
                if matches!(v.location, VersionLocation::BufferedDelta(_)) {
                    buffered.push((lpa, v.timestamp));
                }
            }
        }

        // Power off; recover the array (clears the scheduled cut).
        let old = self.ssd.take().expect("device present between ops");
        let mut flash = old.into_flash();
        flash.revive();

        // Mirror rebuild pass 1: the newest durable data page per LPA is
        // what the device will map as the head, and the newest durable TRIM
        // journal record per LPA is the tombstone it will replay.
        let geo = self.config.geometry;
        let exported = self.config.exported_pages();
        let mut heads: BTreeMap<Lpa, Nanos> = BTreeMap::new();
        let mut trims: BTreeMap<Lpa, Nanos> = BTreeMap::new();
        for block in 0..geo.total_blocks() {
            for off in 0..geo.pages_per_block {
                let ppa = geo.ppa(block, off);
                let Ok((data, oob)) = flash.peek(ppa) else {
                    break; // sequential programming: first free page ends it
                };
                if let PageData::DeltaPage(dp) = &data {
                    for d in dp.deltas.iter().filter(|d| d.is_trim()) {
                        if trims.get(&d.lpa).is_none_or(|&ts| ts < d.timestamp) {
                            trims.insert(d.lpa, d.timestamp);
                        }
                    }
                } else if oob.lpa.0 < exported
                    && heads.get(&oob.lpa).is_none_or(|&ts| ts < oob.timestamp)
                {
                    heads.insert(oob.lpa, oob.timestamp);
                }
            }
        }
        // A trim record beaten by a strictly newer durable write was
        // superseded; the device will not replay it.
        trims.retain(|lpa, ts| heads.get(lpa).is_none_or(|hts| hts <= ts));

        // A head the model has never seen is a phantom.
        for (&lpa, &ts) in &heads {
            if self.model.version_at(lpa, ts).is_none() {
                self.diverge(Divergence::PhantomVersion { lpa, ts });
            }
        }

        let lost = self.model.on_power_cut(&heads, &buffered, &trims);
        for (lpa, ts) in lost {
            // A flush-barriered tombstone lives on flash until its filter
            // leaves the retention window, at which point the delta block
            // may be erased legally. Only in-window losses are divergences.
            if self.clock.saturating_sub(ts) <= self.config.min_retention {
                self.diverge(Divergence::LostDurableTrim { lpa, ts });
            }
        }
        self.ssd = Some(TimeSsd::recover_from_flash(flash, self.config.clone()));
        self.stalled = false;
    }

    /// Full structural comparison of device against model.
    fn deep_check(&mut self) {
        let now = self.clock;
        let lpas: Vec<Lpa> = self.model.lpas().collect();
        for lpa in lpas {
            if self.full() {
                break;
            }
            let chain = self.ssd().version_chain(lpa);

            // 1. Strictly decreasing timestamps.
            if !chain.windows(2).all(|w| w[0].timestamp > w[1].timestamp) {
                self.diverge(Divergence::ChainOrder {
                    lpa,
                    chain: chain.iter().map(|v| v.timestamp).collect(),
                });
                continue;
            }

            // 2. Head agreement.
            let dev_head = chain.first().filter(|v| v.is_head).map(|v| v.timestamp);
            let model_head = self.model.current(lpa).map(|v| v.timestamp);
            if dev_head != model_head {
                self.diverge(Divergence::HeadMismatch {
                    lpa,
                    device: dev_head,
                    model: model_head,
                });
            }

            // 3. Soundness: every served version was actually written, and
            // (capped) decodes to the written bytes.
            for (i, v) in chain.iter().enumerate() {
                if self.model.version_at(lpa, v.timestamp).is_none() {
                    self.diverge(Divergence::PhantomVersion {
                        lpa,
                        ts: v.timestamp,
                    });
                } else if i < CONTENT_CHECK_CAP {
                    self.verify_content(lpa, v.timestamp);
                }
            }

            // 4. Obligation completeness: everything inside the guaranteed
            // window is still served.
            let served: Vec<Nanos> = chain.iter().map(|v| v.timestamp).collect();
            let missing: Vec<(Nanos, Nanos)> = self
                .model
                .history(lpa)
                .iter()
                .filter(|mv| self.model.obligated(mv, now) && !served.contains(&mv.timestamp))
                .map(|mv| {
                    let basis = mv.basis.unwrap_or(now);
                    (mv.timestamp, now.saturating_sub(basis))
                })
                .collect();
            for (ts, age) in missing {
                self.diverge(Divergence::MissingObligated { lpa, ts, age });
            }
        }
    }

    /// Runs every Table-1 query over the whole exported span — the three
    /// [`AddrQuery`] modes and `time_query` / `time_query_range` /
    /// `time_query_all` — and holds each to the chains of the pages
    /// [`deep_check`](Self::deep_check) walks. `t` is the run's clock: as-of
    /// asks for `t`, the ranges for `[t/2, t]`, `time_query` for `[t/2, ∞)`.
    fn query_check(&mut self) {
        let (t, span) = (self.clock, self.model.exported_pages());
        let ssd = self.ssd();
        let pages: Vec<(Lpa, Option<Nanos>, Vec<Nanos>)> = self
            .model
            .lpas()
            .map(|lpa| {
                let chain = ssd.version_chain(lpa).iter().map(|v| v.timestamp).collect();
                (lpa, ssd.trimmed_at(lpa), chain)
            })
            .collect();
        // The chains' pairs inside `[from, to]`, in LPA order; as-of keeps
        // each page's newest, and none once the page was trimmed by `to`.
        let listed = |from: Nanos, to: Nanos, as_of: bool| {
            let mut pairs = Vec::new();
            for (lpa, trimmed, chain) in &pages {
                if as_of && trimmed.is_some_and(|at| at <= to) {
                    continue;
                }
                let inside = chain.iter().filter(|&&ts| from <= ts && ts <= to);
                let inside = inside.take(if as_of { 1 } else { usize::MAX });
                pairs.extend(inside.map(|&ts| (*lpa, ts)));
            }
            pairs
        };
        let whole = || AddrQuery::new(ssd, Lpa(0), span);
        let addr = [
            ("as_of", whole().as_of(t), listed(0, t, true)),
            ("range", whole().range(t / 2, t), listed(t / 2, t, false)),
            (
                "all_versions",
                whole().all_versions(),
                listed(0, Nanos::MAX, false),
            ),
        ]
        .map(|(query, q, expected)| (query, q.run().map(|out| out.hits), expected));
        let time = [
            ("time_query", t / 2, Nanos::MAX),
            ("time_query_range", t / 2, t),
            ("time_query_all", 0, Nanos::MAX),
        ]
        .map(|(query, from, to)| (query, time_scan(ssd, from, to).0, listed(from, to, false)));
        for (query, hits, expected) in addr {
            let pairs = |h: &QueryHit| vec![(h.lpa, h.timestamp)];
            self.compare_query(query, &expected, pairs, hits);
        }
        for (query, hits, expected) in time {
            let pairs = |h: &TimeQueryHit| h.timestamps.iter().map(|&ts| (h.lpa, ts)).collect();
            self.compare_query(query, &expected, pairs, Ok(hits));
        }
    }

    /// Holds one query's answer to the rule: its hits list exactly
    /// `expected` (`pairs` flattens a hit). A broken rule is a
    /// [`Divergence::QueryMismatch`].
    fn compare_query<H>(
        &mut self,
        query: &'static str,
        expected: &[(Lpa, Nanos)],
        pairs: impl Fn(&H) -> Vec<(Lpa, Nanos)>,
        hits: Result<Vec<H>>,
    ) {
        let detail = match hits {
            Err(e) => format!("failed: {e}"),
            Ok(hits) => {
                let listed: Vec<(Lpa, Nanos)> = hits.iter().flat_map(pairs).collect();
                let Some(d) = first_difference(&listed, expected) else {
                    return;
                };
                format!("(lpa, timestamp) vs the chains: {d}")
            }
        };
        self.diverge(Divergence::QueryMismatch { query, detail });
    }
}

/// Where two lists first part: the index, both lengths and both entries.
fn first_difference<T: PartialEq + Debug>(a: &[T], b: &[T]) -> Option<String> {
    let i = (0..a.len().max(b.len())).find(|&i| a.get(i) != b.get(i))?;
    let (x, y, m, n) = (a.get(i), b.get(i), a.len(), b.len());
    Some(format!("entry {i} of {m} vs {n}: {x:?} vs {y:?}"))
}

// ---- SsdDevice: anything that drives a device can drive the pair --------

impl<R: Guarantee> SsdDevice for DifferentialHarness<Ftl<R>> {
    fn write(&mut self, lpa: Lpa, data: PageData, now: Nanos) -> Result<Completion> {
        let c = self.issue(now, |d, t| d.write(lpa, data.clone(), t))?;
        self.clock = self.clock.max(c.finish);
        let ts = self.ordinal().unwrap_or(c.start);
        if let Err((prev, ts)) = self.model.record_write(lpa, data, ts) {
            self.diverge(Divergence::ChainOrder {
                lpa,
                chain: vec![ts, prev],
            });
        }
        Ok(c)
    }

    fn read(&mut self, lpa: Lpa, now: Nanos) -> Result<(PageData, Completion)> {
        let (data, c) = self.issue(now, |d, t| d.read(lpa, t))?;
        self.clock = self.clock.max(c.finish);
        if data.materialize(self.page_size()) != self.model.read_bytes(lpa) {
            self.diverge(Divergence::ReadMismatch { lpa, at: now });
        }
        Ok((data, c))
    }

    fn trim(&mut self, lpa: Lpa, now: Nanos) -> Result<Completion> {
        // A cut inside the trim fires before the ack, so the host never saw
        // it land (and no barrier covered it — the tombstone may or may not
        // have reached flash); `issue` reissues it after recovery.
        let c = self.issue(now, |d, t| d.trim(lpa, t))?;
        self.clock = self.clock.max(c.finish);
        let tombstone = self
            .ordinal()
            .or_else(|| self.timed().and_then(|h| h.ssd().trimmed_at(lpa)));
        match tombstone {
            Some(at) => self.model.record_trim(lpa, at),
            // The device saw nothing to trim; the model must agree.
            None => {
                if let Some(model) = self.model.current(lpa).map(|v| v.timestamp) {
                    self.diverge(Divergence::HeadMismatch {
                        lpa,
                        device: None,
                        model: Some(model),
                    });
                }
            }
        }
        Ok(c)
    }

    fn flush(&mut self, now: Nanos) -> Result<Completion> {
        // A cut mid-barrier fires before the ack: no durability was
        // promised, so the model records no barrier for the failed attempt.
        let c = self.issue(now, |d, t| d.flush(t))?;
        self.clock = self.clock.max(c.finish);
        self.model.record_flush();
        // The ack promises an empty volatile set: every buffered delta page
        // must be on flash the instant flush returns.
        let buffered = self.timed().map_or(0, |h| h.ssd().buffered_delta_pages());
        if buffered != 0 {
            self.diverge(Divergence::BarrierLeftVolatile { buffered });
        }
        Ok(c)
    }
}

impl<R: Guarantee> SsdReadOps for DifferentialHarness<Ftl<R>> {
    fn stats(&self) -> &DeviceStats {
        self.ssd().stats()
    }

    fn exported_pages(&self) -> u64 {
        self.model.exported_pages()
    }

    fn kind(&self) -> &'static str {
        "differential"
    }

    // The harness's read view is the device-under-test's: oracle suites use
    // it to run AddrQuery builders against the real TimeSsd while the model
    // stays the arbiter of correctness.
    fn read_view(&self) -> Option<&TimeSsd> {
        self.ssd().read_view()
    }
}

/// Re-runs `ops` with a deep check after every op, so the reported
/// `first_divergence_op` is the shortest prefix that reproduces the first
/// detectable divergence. Deterministic: same ops, same answer.
pub fn minimal_failing_prefix(config: &SsdConfig, ops: &[OracleOp]) -> DivergenceReport {
    let mut h = DifferentialHarness::new(config.clone()).with_check_every(1);
    h.run(ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use almanac_flash::Geometry;

    #[test]
    fn seeded_query_divergence_is_caught() {
        // The query check is not vacuous: each broken answer is reported.
        let mut h = DifferentialHarness::new(SsdConfig::new(Geometry::small_test()));
        let chains = [(Lpa(1), 30), (Lpa(1), 10), (Lpa(4), 20)];
        let pairs = |&hit: &(Lpa, Nanos)| vec![hit];
        h.compare_query("all_versions", &chains, pairs, Ok(chains.to_vec()));
        assert!(h.divergences().is_empty(), "{:?}", h.divergences());

        h.compare_query("all_versions", &chains, pairs, Ok(chains[..2].to_vec()));
        let swapped = vec![chains[1], chains[0], chains[2]];
        h.compare_query("range", &chains, pairs, Ok(swapped));

        let caught: Vec<&str> = h
            .divergences()
            .iter()
            .map(|d| match d {
                Divergence::QueryMismatch { query, .. } => *query,
                other => panic!("not a query mismatch: {other}"),
            })
            .collect();
        assert_eq!(caught, ["all_versions", "range"]);
    }
}
