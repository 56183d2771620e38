//! NVMe wire format: 64-byte submission entries.
//!
//! Layout follows the NVMe 1.3 SQE shape (simplified): byte 0 opcode, bytes
//! 2–3 command identifier, bytes 4–7 namespace id, bytes 40–63 the six
//! command dwords CDW10–CDW15. The data pointer (bytes 24–39, a PRP list on
//! real hardware) is not modelled and stays zero: a command's pages ride
//! beside its entry, into the queue with a Write and back out with the
//! completion of a read or query. Vendor-specific opcodes (0xC0 and up) carry
//! the TimeKits commands; their parameters ride in the command dwords:
//!
//! | opcode | command | CDW10/11 | CDW12/13 | CDW14/15 |
//! |--------|---------|----------|----------|----------|
//! | 0x01/0x02 | Write/Read | start LPA (lo/hi) | page count | — |
//! | 0x09 | Dataset mgmt (TRIM) | start LPA | page count | — |
//! | 0xC0 | AddrQuery | LPA | count, threads | timestamp |
//! | 0xC1 | AddrQueryRange | LPA | count, t1 (s) | t2 (s), threads |
//! | 0xC2 | AddrQueryAll | LPA | count, threads | — |
//! | 0xC3 | TimeQuery | timestamp | — | — |
//! | 0xC4 | TimeQueryRange | t1 | t2 | — |
//! | 0xC5 | TimeQueryAll | — | — | — |
//! | 0xC6 | RollBack | LPA | count | timestamp |
//! | 0xC7 | RollBackAll | timestamp | — | — |

/// NVMe opcodes used by Project Almanac (I/O set + vendor extensions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum NvmeOpcode {
    /// Flush volatile buffers (delta buffers in TimeSSD).
    Flush = 0x00,
    /// Page write.
    Write = 0x01,
    /// Page read.
    Read = 0x02,
    /// Dataset management (TRIM).
    DatasetMgmt = 0x09,
    /// Vendor: `AddrQuery(addr, cnt, t)`.
    AddrQuery = 0xC0,
    /// Vendor: `AddrQueryRange(addr, cnt, t1, t2)`.
    AddrQueryRange = 0xC1,
    /// Vendor: `AddrQueryAll(addr, cnt)`.
    AddrQueryAll = 0xC2,
    /// Vendor: `TimeQuery(t)`.
    TimeQuery = 0xC3,
    /// Vendor: `TimeQueryRange(t1, t2)`.
    TimeQueryRange = 0xC4,
    /// Vendor: `TimeQueryAll()`.
    TimeQueryAll = 0xC5,
    /// Vendor: `RollBack(addr, cnt, t)`.
    RollBack = 0xC6,
    /// Vendor: `RollBackAll(t)`.
    RollBackAll = 0xC7,
}

impl NvmeOpcode {
    /// Decodes an opcode byte.
    pub fn from_u8(b: u8) -> Option<NvmeOpcode> {
        Some(match b {
            0x00 => NvmeOpcode::Flush,
            0x01 => NvmeOpcode::Write,
            0x02 => NvmeOpcode::Read,
            0x09 => NvmeOpcode::DatasetMgmt,
            0xC0 => NvmeOpcode::AddrQuery,
            0xC1 => NvmeOpcode::AddrQueryRange,
            0xC2 => NvmeOpcode::AddrQueryAll,
            0xC3 => NvmeOpcode::TimeQuery,
            0xC4 => NvmeOpcode::TimeQueryRange,
            0xC5 => NvmeOpcode::TimeQueryAll,
            0xC6 => NvmeOpcode::RollBack,
            0xC7 => NvmeOpcode::RollBackAll,
            _ => return None,
        })
    }

    /// True for the TimeKits vendor extensions.
    pub fn is_vendor(&self) -> bool {
        (*self as u8) >= 0xC0
    }
}

/// A 64-byte NVMe submission queue entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmissionEntry {
    /// Command opcode.
    pub opcode: NvmeOpcode,
    /// Host-assigned command identifier (echoed in the completion).
    pub cid: u16,
    /// Namespace (always 1 here).
    pub nsid: u32,
    /// Command dwords 10–15.
    pub cdw: [u32; 6],
}

impl SubmissionEntry {
    /// Builds an entry with the common fields.
    pub fn new(opcode: NvmeOpcode, cid: u16) -> Self {
        SubmissionEntry {
            opcode,
            cid,
            nsid: 1,
            cdw: [0; 6],
        }
    }

    /// A command on `count` pages from `lpa`: the LPA in CDW10–11, the count
    /// in CDW12 (the layout every I/O and address command shares).
    pub fn span(opcode: NvmeOpcode, lpa: u64, count: u32) -> Self {
        let mut e = SubmissionEntry::new(opcode, 0);
        e.set_u64(0, lpa);
        e.cdw[2] = count;
        e
    }

    /// Packs a 64-bit value into two consecutive dwords.
    pub fn set_u64(&mut self, dword: usize, value: u64) {
        self.cdw[dword] = value as u32;
        self.cdw[dword + 1] = (value >> 32) as u32;
    }

    /// Reads a 64-bit value from two consecutive dwords.
    pub fn get_u64(&self, dword: usize) -> u64 {
        self.cdw[dword] as u64 | ((self.cdw[dword + 1] as u64) << 32)
    }

    /// Serialises to the 64-byte wire form.
    pub fn to_bytes(&self) -> [u8; 64] {
        let mut out = [0u8; 64];
        out[0] = self.opcode as u8;
        out[2..4].copy_from_slice(&self.cid.to_le_bytes());
        out[4..8].copy_from_slice(&self.nsid.to_le_bytes());
        for (i, dw) in self.cdw.iter().enumerate() {
            let base = 40 + i * 4;
            out[base..base + 4].copy_from_slice(&dw.to_le_bytes());
        }
        out
    }

    /// Parses the 64-byte wire form; `None` for unknown opcodes.
    pub fn from_bytes(bytes: &[u8; 64]) -> Option<SubmissionEntry> {
        let opcode = NvmeOpcode::from_u8(bytes[0])?;
        let cid = u16::from_le_bytes([bytes[2], bytes[3]]);
        let nsid = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        let mut cdw = [0u32; 6];
        for (i, dw) in cdw.iter_mut().enumerate() {
            let base = 40 + i * 4;
            *dw = u32::from_le_bytes([
                bytes[base],
                bytes[base + 1],
                bytes[base + 2],
                bytes[base + 3],
            ]);
        }
        Some(SubmissionEntry {
            opcode,
            cid,
            nsid,
            cdw,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sqe_roundtrip() {
        let mut e = SubmissionEntry::new(NvmeOpcode::AddrQuery, 77);
        e.set_u64(0, 0x1234_5678_9abc_def0);
        e.cdw[2] = 42;
        e.set_u64(4, u64::MAX - 5);
        let wire = e.to_bytes();
        assert_eq!(wire[8..40], [0; 32], "no data pointer on the wire");
        let parsed = SubmissionEntry::from_bytes(&wire).unwrap();
        assert_eq!(parsed, e);
        assert_eq!(parsed.get_u64(0), 0x1234_5678_9abc_def0);
        assert_eq!(parsed.get_u64(4), u64::MAX - 5);
    }

    #[test]
    fn unknown_opcode_rejected() {
        let mut bytes = [0u8; 64];
        bytes[0] = 0x55;
        assert!(SubmissionEntry::from_bytes(&bytes).is_none());
    }

    #[test]
    fn vendor_classification() {
        assert!(NvmeOpcode::RollBack.is_vendor());
        assert!(!NvmeOpcode::Read.is_vendor());
    }

    #[test]
    fn all_opcodes_roundtrip() {
        for b in [
            0x00u8, 0x01, 0x02, 0x09, 0xC0, 0xC1, 0xC2, 0xC3, 0xC4, 0xC5, 0xC6, 0xC7,
        ] {
            let op = NvmeOpcode::from_u8(b).unwrap();
            assert_eq!(op as u8, b);
        }
    }
}
