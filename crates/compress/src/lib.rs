//! LZF and XOR-delta codecs for Project Almanac.
//!
//! TimeSSD (EuroSys'19) compresses retained old page versions with *delta
//! compression*: the difference between an old version and the latest
//! (reference) version of the same logical page is computed and then packed
//! with the LZF algorithm — the paper uses LibLZF for its speed (§4). This
//! crate implements both pieces from scratch:
//!
//! - [`lzf`] — a self-contained implementation of the LZF compressed format
//!   (compatible control-byte layout: literal runs and back-references).
//! - [`delta`] — XOR-difference + LZF packaging with a raw fallback for
//!   incompressible input.
//!
//! # Examples
//!
//! ```
//! use almanac_compress::delta;
//! let reference = vec![7u8; 4096];
//! let mut old = reference.clone();
//! old[100] = 1; // the old version differs in one byte
//! let d = delta::encode(&reference, &old);
//! assert!(d.len() < 64); // tiny delta
//! assert_eq!(delta::decode(&reference, &d).unwrap(), old);
//! ```

#![warn(missing_docs, unreachable_pub)]
#![forbid(unsafe_code)]

pub mod delta;
pub mod lzf;

use std::fmt;

/// Errors raised while decoding compressed data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The compressed stream ended unexpectedly or contained an invalid
    /// back-reference.
    Corrupt(&'static str),
    /// Decoded output did not match the expected length.
    LengthMismatch {
        /// Length the caller expected.
        expected: usize,
        /// Length actually produced.
        actual: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Corrupt(what) => write!(f, "corrupt compressed stream: {what}"),
            CodecError::LengthMismatch { expected, actual } => {
                write!(f, "decoded length {actual}, expected {expected}")
            }
        }
    }
}

impl std::error::Error for CodecError {}
