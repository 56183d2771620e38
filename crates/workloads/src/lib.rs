//! Workload generators for the Project Almanac evaluation (Table 2).
//!
//! The paper evaluates with MSR Cambridge and FIU block traces, the IOZone
//! and PostMark file-system benchmarks, Shore-MT OLTP workloads, 13 real
//! ransomware samples, and a replay of 1000 Linux-kernel commits. None of
//! those artifacts are redistributable (and the traces carry no data
//! content), so this crate builds faithful synthetic equivalents:
//!
//! - [`profiles`] — parameterised generators for the seven MSR volumes
//!   (`hm, rsrch, src, stg, ts, usr, wdev`) and five FIU volumes
//!   (`research, webmail, online, web-online, webusers`), calibrated to the
//!   published write ratios and relative intensities and scaled to the
//!   simulated device size.
//! - [`iozone`] — sequential/random read/write phases over the file system
//!   with incompressible content (IOZone writes random values, §5.3).
//! - [`postmark`] — a mail-server transaction mix over many small files with
//!   realistic compressible text.
//! - [`oltp`] — a miniature page-oriented transaction engine with TPCC-,
//!   TPCB-, and TATP-shaped mixes producing content-local page updates.
//! - [`ransomware`] — 13 named encryptor behaviours (read-encrypt-write,
//!   optional delete) matching Figure 10's families.
//! - [`commits`] — a synthetic kernel source tree plus a patch stream that
//!   mimics replaying kernel commits (Figure 11).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod commits;
pub mod iozone;
pub mod oltp;
pub mod postmark;
pub mod profiles;
pub mod ransomware;
mod textgen;

pub use profiles::{fiu_profiles, msr_profiles, TraceProfile};
