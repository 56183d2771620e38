//! Pins the flash array's observable behaviour: a scripted
//! program/read/erase sequence with one injected fault and one power cut,
//! over two geometries, must leave the same state digest, the same block
//! views and the same per-op results (completion times included, so every
//! page's chip is pinned too) as the per-block store it replaced. The
//! constants were computed on that store.

use almanac_flash::{
    BlockId, DeltaBody, DeltaPage, DeltaRecord, FaultPlan, FlashArray, FlashError, Geometry,
    LatencyConfig, Lpa, Oob, PageData, PageState, Ppa,
};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, s: &str) {
        for b in s.bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
    }
}

/// A small xorshift stream: the script must not depend on any other crate.
struct Script(u64);

impl Script {
    fn next(&mut self, bound: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % bound
    }
}

fn payload(script: &mut Script, ppa: Ppa) -> PageData {
    match script.next(4) {
        0 => PageData::Zeros,
        1 => PageData::Synthetic {
            seed: ppa.0,
            version: script.next(1000),
        },
        2 => PageData::bytes(vec![script.next(256) as u8; script.next(40) as usize]),
        _ => PageData::DeltaPage(DeltaPage {
            deltas: vec![DeltaRecord {
                lpa: Lpa(script.next(64)),
                back_ptr: Some(Ppa(script.next(64))),
                timestamp: script.next(1 << 20),
                ref_timestamp: 7,
                body: DeltaBody::Bytes(vec![1, 2, 3]),
                size: 3,
            }]
            .into(),
        }),
    }
}

/// Runs the script on `geo`; returns `(log digest, state digest, block-view
/// digest)`. The log folds every op and its result.
fn run(geo: Geometry) -> (u64, u64, u64) {
    let plan = FaultPlan::new(5)
        .with_program_fault(17)
        .with_power_cut_at(150);
    let mut flash = FlashArray::new(geo, LatencyConfig::default()).with_fault_plan(plan);
    let mut script = Script(0x2545_f491_4f6c_dd1d);
    let mut log = Fnv(FNV_OFFSET);
    let mut now = 0;
    let mut failed = [0; 2];
    let blocks = geo.total_blocks();
    for step in 0..600u64 {
        if step == 400 {
            // The cut fired at op 150; everything since failed with
            // `PowerLoss` and is in the log.
            assert!(flash.powered_off());
            flash.revive();
        }
        now += script.next(50_000);
        // Six blocks, so the script fills and erases them, spread over
        // the chips so that each op's chip shows in its completion time.
        let block = script.next(6) * (blocks / 6);
        let ptr = flash.block(BlockId(block)).unwrap().write_ptr;
        let line = match script.next(10) {
            0..=4 if ptr < geo.pages_per_block => {
                let ppa = geo.ppa(block, ptr);
                let data = payload(&mut script, ppa);
                let oob = Oob::new(
                    Lpa(step),
                    ptr.checked_sub(1).map(|p| geo.ppa(block, p)),
                    now,
                );
                format!("program {ppa:?} {:?}", flash.program(ppa, data, oob, now))
            }
            5..=7 => {
                let ppa = geo.ppa(block, script.next(u64::from(geo.pages_per_block)) as u32);
                format!("read {ppa:?} {:?}", flash.read(ppa, now))
            }
            8 => {
                // Out of order, or onto a written page.
                let ppa = geo.ppa(block, script.next(u64::from(geo.pages_per_block)) as u32);
                let oob = Oob::new(Lpa(step), None, now);
                format!(
                    "misprogram {ppa:?} {:?}",
                    flash.program(ppa, PageData::Zeros, oob, now)
                )
            }
            _ => format!("erase {block} {:?}", flash.erase(BlockId(block), now)),
        };
        failed[0] += usize::from(line.contains("Injected"));
        failed[1] += usize::from(line.contains("PowerLoss"));
        log.eat(&line);
        log.eat(&format!("{:?};", flash.stats()));
    }
    assert_eq!(failed[0], 1, "one injected fault");
    assert!(failed[1] > 0, "the cut fired");
    let mut view = Fnv(FNV_OFFSET);
    for b in 0..blocks {
        let block = flash.block(BlockId(b)).unwrap();
        view.eat(&format!(
            "{}|{}|{}|",
            block.write_ptr,
            block.erase_count,
            block.pages.len()
        ));
        view.eat(&format!("{:?}{};", block.state(), block.is_full()));
        for page in block.pages.iter() {
            view.eat(&format!("{:?}|{:?}|{:?};", page.state, page.data, page.oob));
        }
    }
    (log.0, flash.state_digest(), view.0)
}

#[test]
fn scripted_run_matches_the_per_block_store() {
    let want = [
        (
            Geometry::small_test(),
            (
                16_195_873_419_189_894_587,
                11_217_751_989_640_352_522,
                10_676_787_976_772_991_067,
            ),
        ),
        (
            Geometry::medium_test(),
            (
                11_950_599_952_190_916_566,
                13_687_380_094_167_236_427,
                2_433_048_699_038_447_101,
            ),
        ),
    ];
    for (geo, digests) in want {
        assert_eq!(run(geo), digests, "{geo:?}");
    }
}

#[test]
fn errors_keep_their_precedence() {
    let geo = Geometry::small_test();
    let mut flash = FlashArray::new(geo, LatencyConfig::default())
        .with_fault_plan(FaultPlan::new(1).with_power_cut_at(3));
    let beyond = Ppa(geo.total_pages());
    let oob = |lpa| Oob::new(Lpa(lpa), None, 0);
    let (first, second, free) = (geo.ppa(2, 0), geo.ppa(2, 1), geo.ppa(2, 5));
    flash.program(first, PageData::Zeros, oob(0), 0).unwrap();
    flash.program(second, PageData::Zeros, oob(1), 0).unwrap();
    let powered = |flash: &mut FlashArray| {
        // A bad address before anything else, then a free page, then a
        // written page out of sequence before the sequence itself.
        assert_eq!(flash.read(beyond, 0), Err(FlashError::BadPpa(beyond)));
        assert_eq!(flash.peek(beyond).err(), Some(FlashError::BadPpa(beyond)));
        assert_eq!(flash.page_state(beyond), Err(FlashError::BadPpa(beyond)));
        let program = |flash: &mut FlashArray, ppa| flash.program(ppa, PageData::Zeros, oob(9), 0);
        assert_eq!(program(flash, beyond), Err(FlashError::BadPpa(beyond)));
        assert_eq!(flash.read(free, 0), Err(FlashError::ReadFree(free)));
        assert_eq!(flash.peek(free).err(), Some(FlashError::ReadFree(free)));
        assert_eq!(
            program(flash, first),
            Err(FlashError::ProgramWritten(first))
        );
        assert_eq!(
            program(flash, free),
            Err(FlashError::NonSequentialProgram {
                ppa: free,
                expected_offset: 2
            })
        );
    };
    powered(&mut flash);
    // Op 2 succeeds; op 3 meets the cut.
    flash.read(first, 0).unwrap();
    assert_eq!(flash.read(second, 0), Err(FlashError::PowerLoss));
    // Validity errors still come before the dead device.
    powered(&mut flash);
    assert_eq!(flash.read(second, 0), Err(FlashError::PowerLoss));
    assert_eq!(flash.page_state(second), Ok(PageState::Written));
    assert_eq!(flash.peek(second).map(|(_, oob)| oob.lpa), Ok(Lpa(1)));
}
