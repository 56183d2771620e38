//! The wire carries the device's own answers. Each of the eight Table-1
//! opcodes is submitted as a 64-byte entry to
//! `NvmeController<DifferentialHarness<TimeSsd>>`, and what it posts must
//! equal what core's body returns on the same device state: every hit with
//! its LPA, timestamp and bytes, the query's cost and per-shard costs, the
//! time-query hits and their cost, and a rollback's outcome, completion and
//! resulting flash state. The harness holds every rollback write to the
//! model, and its report must stay clean.

use almanac_core::{roll_back, roll_back_all, time_scan, AddrQuery};
use almanac_core::{SsdConfig, SsdReadOps, TimeSsd};
use almanac_flash::{Geometry, Lpa, Nanos, MS_NS, SEC_NS};
use almanac_nvme::{Answer, HostDriver, NvmeController, NvmeOpcode, SubmissionEntry};
use almanac_oracle::{strategy::OracleOp, DifferentialHarness};

type Wire = NvmeController<DifferentialHarness>;

/// The version filter an address-query opcode stands for.
type Filter = fn(AddrQuery) -> AddrQuery;

/// Host workers the controller schedules a time query over.
const TIME_QUERY_THREADS: u32 = 4;

/// Forty rounds of byte writes over LPAs 0–7, 20 ms apart, with LPA 5
/// trimmed and LPA 9 born halfway: enough overwrite pressure on a small
/// device that GC compresses mid-history versions into delta pages.
fn history() -> Vec<OracleOp> {
    let mut ops = Vec::new();
    for round in 0..40u8 {
        for lpa in 0..8 {
            let gap = 20 * MS_NS;
            ops.push(OracleOp::WriteBytes {
                lpa,
                tag: round,
                gap,
            });
        }
        if round == 20 {
            ops.push(OracleOp::Trim { lpa: 5, gap: MS_NS });
            ops.push(OracleOp::WriteBytes {
                lpa: 9,
                tag: 0xEE,
                gap: MS_NS,
            });
        }
    }
    ops
}

/// Submits `entry` on queue 0 at `now` and runs the controller dry: the
/// command must post success with `items` in its result dword, at `finish`,
/// answering `answer`.
fn expect_posted(c: &mut Wire, entry: SubmissionEntry, now: Nanos, expect: (usize, Nanos, Answer)) {
    let what = entry.opcode;
    assert!(c.submit_to(0, entry, Vec::new()), "queue 0 has room");
    c.run_to_completion(now);
    let done = c.pop_completion(0).expect("the command posted");
    let (items, finish, answer) = expect;
    assert_eq!(done.status, 0, "{what:?}");
    assert_eq!(done.result as usize, items, "{what:?}: result dword");
    assert_eq!(done.finish, finish, "{what:?}: finish");
    assert_eq!(done.outcome, Ok(Some(answer)), "{what:?}: answer");
}

#[test]
fn every_table1_answer_is_cores_body_on_the_same_state() {
    let cfg = SsdConfig::new(Geometry::small_test())
        .with_min_retention(SEC_NS)
        .with_amt_shards(4);
    let page_size = cfg.geometry.page_size as usize;
    let mut h = DifferentialHarness::new(cfg);
    let report = h.run(&history());
    assert!(report.is_clean(), "{report}");
    let mut c = Wire::over(h, page_size);
    let (t1, t2, now) = (2 * SEC_NS, 5 * SEC_NS, 60 * SEC_NS);
    let everything = AddrQuery::new(c.ssd().ssd(), Lpa(0), 11).run().unwrap();
    assert!(
        everything.cost.decompressions > 0,
        "the history no longer reaches delta pages"
    );

    // AddrQuery, AddrQueryRange and AddrQueryAll on LPAs 0–10 over three
    // host workers (CDW13, or CDW15 for a range, whose bounds CDW13–14
    // carry in whole seconds).
    let span = |opcode| SubmissionEntry::span(opcode, 0, 11);
    let mut as_of = span(NvmeOpcode::AddrQuery);
    as_of.cdw[3] = 3;
    as_of.set_u64(4, t2);
    let mut range = span(NvmeOpcode::AddrQueryRange);
    range.cdw[3..].copy_from_slice(&[2, 5, 3]);
    let mut all = span(NvmeOpcode::AddrQueryAll);
    all.cdw[3] = 3;
    let filters: [(SubmissionEntry, Filter); 3] = [
        (as_of, |q| q.as_of(5 * SEC_NS)),
        (range, |q| q.range(2 * SEC_NS, 5 * SEC_NS)),
        (all, |q| q.all_versions()),
    ];
    for (entry, filter) in filters {
        let query = filter(AddrQuery::new(c.ssd().ssd(), Lpa(0), 11));
        let out = query.run().unwrap();
        let (items, finish) = (out.hits.len(), now + out.makespan(3));
        expect_posted(
            &mut c,
            entry,
            now,
            (items, finish, Answer::Versions(Box::new(out))),
        );
    }

    // TimeQuery, TimeQueryRange and TimeQueryAll.
    let mut since = SubmissionEntry::new(NvmeOpcode::TimeQuery, 0);
    since.set_u64(0, t2);
    let mut window = SubmissionEntry::new(NvmeOpcode::TimeQueryRange, 0);
    window.set_u64(0, t1);
    window.set_u64(2, t2);
    let every = SubmissionEntry::new(NvmeOpcode::TimeQueryAll, 0);
    for (entry, from, to) in [
        (since, t2, Nanos::MAX),
        (window, t1, t2),
        (every, 0, Nanos::MAX),
    ] {
        let (hits, cost) = time_scan(c.ssd().ssd(), from, to);
        let (items, finish) = (hits.len(), now + cost.makespan(TIME_QUERY_THREADS));
        expect_posted(
            &mut c,
            entry,
            now,
            (items, finish, Answer::Times(Box::new((hits, cost)))),
        );
    }

    // RollBack of LPAs 2–5 to `t2`, then RollBackAll to `t1`, each also run
    // on a clone of the device: same outcome, same flash state.
    let mut back = SubmissionEntry::span(NvmeOpcode::RollBack, 2, 4);
    back.set_u64(4, t2);
    let mut back_all = SubmissionEntry::new(NvmeOpcode::RollBackAll, 0);
    back_all.set_u64(0, t1);
    for (entry, at) in [(back, now), (back_all, now + SEC_NS)] {
        let mut twin: TimeSsd = c.ssd().ssd().clone();
        let out = match entry.opcode {
            NvmeOpcode::RollBack => roll_back(&mut twin, Lpa(2), 4, t2, at),
            _ => roll_back_all(&mut twin, t1, at),
        }
        .unwrap();
        assert!(
            !out.restored.is_empty(),
            "{:?} restored nothing",
            entry.opcode
        );
        let (items, finish) = (out.restored.len(), out.finish);
        expect_posted(
            &mut c,
            entry,
            at,
            (items, finish, Answer::Rollback(Box::new(out))),
        );
        let device = c.ssd().ssd();
        assert_eq!(device.flash().state_digest(), twin.flash().state_digest());
        assert_eq!(device.stats(), twin.stats(), "{:?}", entry.opcode);
    }

    // The rollbacks' writes and trims were the harness's own host ops: the
    // model, the device's audit and the whole-space query check agree.
    let mut h = HostDriver::new(c).into_ssd();
    let report = h.run(&[]);
    assert!(report.is_clean(), "{report}");
}
