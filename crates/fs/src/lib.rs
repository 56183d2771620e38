//! Minimal inode file system with pluggable write-path models.
//!
//! Figure 9 of the paper compares TimeSSD against *software* approaches to
//! retaining storage state: Ext4's data journaling and F2FS's log-structured
//! writes, both on a regular SSD, versus journaling-free Ext4 on TimeSSD.
//! This crate provides the substrate for that comparison: one small inode
//! file system whose write path follows one of three models:
//!
//! - [`FsMode::Ext4DataJournal`] — every data page is first written to a
//!   circular journal region together with metadata and a commit record,
//!   then checkpointed to its home location (≈2× data write traffic).
//! - [`FsMode::Ext4NoJournal`] — data goes straight to its home location;
//!   only the inode page is additionally updated. This is the mode the paper
//!   runs on TimeSSD, which retains history in firmware instead.
//! - [`FsMode::F2fsLog`] — log-structured: every write allocates fresh
//!   logical pages at the log head, the old pages are trimmed, and a node
//!   (inode) page is appended (no double write of data).
//!
//! # Examples
//!
//! ```
//! use almanac_core::{RegularSsd, SsdConfig};
//! use almanac_flash::Geometry;
//! use almanac_fs::{AlmanacFs, FsMode};
//!
//! let ssd = RegularSsd::new(SsdConfig::new(Geometry::medium_test()));
//! let mut fs = AlmanacFs::new(ssd, FsMode::Ext4NoJournal).unwrap();
//! let (fid, t) = fs.create("hello.txt", 0).unwrap();
//! let t = fs.write(fid, 0, b"hello world", t).unwrap();
//! let (bytes, _) = fs.read(fid, 0, 11, t).unwrap();
//! assert_eq!(bytes, b"hello world");
//! ```

#![warn(missing_docs, unreachable_pub)]

pub mod forensic;
mod fs;
mod inode;

pub use fs::{AlmanacFs, FsError, FsMode, FsResult};
pub use inode::{FileId, Inode};
