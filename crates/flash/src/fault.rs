//! Deterministic fault injection for the flash array.
//!
//! A [`FaultPlan`] is attached to a [`FlashArray`](crate::FlashArray) at
//! construction time and drives three failure modes, all pure functions of
//! the plan (no hidden randomness — the same plan against the same op
//! sequence always fails the same ops the same way):
//!
//! - **Targeted op failures**: the *n*-th read / program / erase fails with
//!   an [`InjectedKind`] error. Failed ops leave flash state untouched.
//! - **Power cut**: once the array has issued `power_cut_at` operations, the
//!   device drops dead — every further op returns
//!   [`FlashError::PowerLoss`](crate::FlashError) until
//!   [`revive`](crate::FlashArray::revive) is called. A program at the cut
//!   boundary aborts atomically (the page stays free), modelling a torn
//!   write whose partial page fails ECC on the way back.
//! - **OOB bit-rot**: a deterministic per-PPA hash of the plan seed decides
//!   which pages return corrupted out-of-band metadata on read. The stored
//!   page is pristine — rot is applied on the way out — so the corruption is
//!   stable across reads and across identically-seeded devices.

use crate::addr::Ppa;
use crate::array::mix64;
use crate::page::Oob;

/// Operation classes a fault can target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlashOp {
    /// Page read.
    Read,
    /// Page program.
    Program,
    /// Block erase.
    Erase,
}

/// The error surfaced by an injected op failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InjectedKind {
    /// Read failed ECC beyond correction capability.
    ReadUncorrectable,
    /// Program operation reported failure; the page remains free.
    ProgramFail,
    /// Erase operation reported failure; the block is unchanged.
    EraseFail,
}

impl InjectedKind {
    /// The op class this kind applies to.
    pub fn op(self) -> FlashOp {
        match self {
            InjectedKind::ReadUncorrectable => FlashOp::Read,
            InjectedKind::ProgramFail => FlashOp::Program,
            InjectedKind::EraseFail => FlashOp::Erase,
        }
    }
}

/// One scheduled op failure: the `nth` op of class `kind.op()` fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpFault {
    /// 0-based index into the per-class op sequence.
    pub nth: u64,
    /// Error to surface.
    pub kind: InjectedKind,
}

/// A deterministic fault schedule for one device lifetime.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Seed for the bit-rot hash; also lets two plans differing only in
    /// seed produce different rot patterns.
    pub seed: u64,
    /// Global op index at which power is lost (`None` = never). The op with
    /// this index and everything after it fails with `PowerLoss`.
    pub power_cut_at: Option<u64>,
    /// Scheduled per-class op failures.
    pub op_faults: Vec<OpFault>,
    /// Per-page probability of OOB corruption, in tenths of a percent
    /// (0 = off, 1000 = every page).
    pub oob_rot_per_mille: u16,
}

impl FaultPlan {
    /// An empty plan with the given seed (faults added via builders).
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Schedules a power cut once `op_index` operations have been issued.
    pub fn with_power_cut_at(mut self, op_index: u64) -> Self {
        self.power_cut_at = Some(op_index);
        self
    }

    /// Fails the `nth` read with an uncorrectable-ECC error.
    pub fn with_read_fault(mut self, nth: u64) -> Self {
        self.op_faults.push(OpFault {
            nth,
            kind: InjectedKind::ReadUncorrectable,
        });
        self
    }

    /// Fails the `nth` program; the target page stays free.
    pub fn with_program_fault(mut self, nth: u64) -> Self {
        self.op_faults.push(OpFault {
            nth,
            kind: InjectedKind::ProgramFail,
        });
        self
    }

    /// Fails the `nth` erase; the target block is unchanged.
    pub fn with_erase_fault(mut self, nth: u64) -> Self {
        self.op_faults.push(OpFault {
            nth,
            kind: InjectedKind::EraseFail,
        });
        self
    }

    /// Corrupts the OOB of roughly `per_mille`/1000 of read pages.
    pub fn with_oob_rot(mut self, per_mille: u16) -> Self {
        self.oob_rot_per_mille = per_mille.min(1000);
        self
    }

    /// True when any fault source is configured.
    pub fn is_active(&self) -> bool {
        self.power_cut_at.is_some() || !self.op_faults.is_empty() || self.oob_rot_per_mille > 0
    }

    /// Whether the `nth` op of class `op` should fail, and how.
    pub fn fault_for(&self, op: FlashOp, nth: u64) -> Option<InjectedKind> {
        self.op_faults
            .iter()
            .find(|f| f.nth == nth && f.kind.op() == op)
            .map(|f| f.kind)
    }

    fn rot_hash(&self, ppa: Ppa) -> u64 {
        // SplitMix64 finalizer over (seed, ppa): cheap, deterministic,
        // and uncorrelated with the PRNG streams used by workloads.
        let seed = self.seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        mix64(seed.wrapping_add(ppa.0.wrapping_mul(0xd134_2543_de82_ef95)))
    }

    /// Applies deterministic OOB bit-rot for `ppa`, if this page is among
    /// the rotted ones. Stable: the same plan and PPA always yield the same
    /// (possibly corrupted) OOB.
    pub fn rot_oob(&self, ppa: Ppa, oob: Oob) -> Oob {
        if self.oob_rot_per_mille == 0 {
            return oob;
        }
        let h = self.rot_hash(ppa);
        if h % 1000 >= self.oob_rot_per_mille as u64 {
            return oob;
        }
        let mut rotted = oob;
        // Independent hash bits pick the corruption shape so a rot sweep
        // exercises several degradation paths, not just one.
        match (h >> 10) % 3 {
            0 => {
                // Back-pointer flips to a bogus (possibly out-of-range)
                // address: the chain walk must stop, not panic.
                let bogus = Ppa((h >> 13) ^ oob.back_ptr.map_or(0, |p| p.0));
                rotted.back_ptr = Some(bogus);
            }
            1 => {
                // Timestamp corrupted upward: breaks the strictly-decreasing
                // invariant the chain walk checks.
                rotted.timestamp = oob.timestamp ^ (1 << 62);
            }
            _ => {
                // LPA bit flip: the page appears to belong to another LPA;
                // ownership checks must reject it.
                rotted.lpa.0 ^= 1 << ((h >> 13) % 20);
            }
        }
        rotted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Lpa;

    #[test]
    fn rot_is_deterministic_and_seed_dependent() {
        let a = FaultPlan::new(1).with_oob_rot(1000);
        let b = FaultPlan::new(2).with_oob_rot(1000);
        let oob = Oob::new(Lpa(5), Some(Ppa(9)), 1234);
        for p in 0..64 {
            assert_eq!(a.rot_oob(Ppa(p), oob), a.rot_oob(Ppa(p), oob));
        }
        let differs = (0..64).any(|p| a.rot_oob(Ppa(p), oob) != b.rot_oob(Ppa(p), oob));
        assert!(differs, "different seeds should rot differently");
    }

    #[test]
    fn zero_rate_never_rots() {
        let plan = FaultPlan::new(7);
        let oob = Oob::new(Lpa(1), None, 10);
        for p in 0..128 {
            assert_eq!(plan.rot_oob(Ppa(p), oob), oob);
        }
    }

    #[test]
    fn full_rate_rots_everything() {
        let plan = FaultPlan::new(3).with_oob_rot(1000);
        let oob = Oob::new(Lpa(42), Some(Ppa(4)), 99);
        for p in 0..128 {
            assert_ne!(plan.rot_oob(Ppa(p), oob), oob, "ppa {p} escaped rot");
        }
    }

    #[test]
    fn fault_for_matches_class_and_index() {
        let plan = FaultPlan::new(0).with_read_fault(3).with_program_fault(5);
        assert_eq!(
            plan.fault_for(FlashOp::Read, 3),
            Some(InjectedKind::ReadUncorrectable)
        );
        assert_eq!(plan.fault_for(FlashOp::Read, 5), None);
        assert_eq!(
            plan.fault_for(FlashOp::Program, 5),
            Some(InjectedKind::ProgramFail)
        );
        assert_eq!(plan.fault_for(FlashOp::Erase, 3), None);
    }

    #[test]
    fn builders_activate_plan() {
        assert!(!FaultPlan::new(1).is_active());
        assert!(FaultPlan::new(1).with_power_cut_at(10).is_active());
        assert!(FaultPlan::new(1).with_erase_fault(0).is_active());
        assert!(FaultPlan::new(1).with_oob_rot(1).is_active());
    }
}
