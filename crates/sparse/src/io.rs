//! Matrix Market I/O.
//!
//! The paper's CPU/GPU evaluations use matrices from the SuiteSparse Matrix
//! Collection, which are distributed in the Matrix Market exchange format.
//! This module implements the subset of the format needed to load those
//! files (`matrix coordinate real/integer/pattern general/symmetric`), so
//! that the experiment harness can be pointed at real SuiteSparse downloads
//! when they are available; the bundled experiments fall back to the
//! synthetic analogue generators of [`crate::gen`].

use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

use f3r_precision::Scalar;

use crate::coo::CooMatrix;
use crate::csr::CsrMatrix;

/// Dynamic-range statistics of a matrix's stored entries, answering the
/// question the fp16 storage axis depends on: *does this matrix survive an
/// unscaled half-precision copy?*
///
/// Matrix Market inputs in the wild span many orders of magnitude; entries
/// above fp16's largest finite value (65504) round to ±∞ and nonzero entries
/// below its smallest subnormal (≈ 6.0e-8) flush to zero, silently corrupting
/// an unscaled `to_precision::<f16>()` copy.  Loaders expose these stats so
/// callers can pick scaled matrix storage
/// ([`StoredMatrix::row_scaled`](crate::StoredMatrix::row_scaled)) — or
/// global Jacobi pre-scaling — before any fp16 copy is materialized.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EntryRangeStats {
    /// Largest absolute value of any stored entry.
    pub max_abs: f64,
    /// Smallest absolute value of any stored *nonzero* entry (`0.0` if the
    /// matrix stores no nonzero entries).
    pub min_abs_nonzero: f64,
    /// `max_abs / min_abs_nonzero` (`1.0` when degenerate) — the dynamic
    /// range of the stored entries.
    pub dynamic_range: f64,
    /// Stored entries whose fp16 conversion overflows to ±∞.
    pub fp16_overflow: usize,
    /// Stored nonzero entries whose fp16 conversion flushes to zero.
    pub fp16_underflow: usize,
}

impl EntryRangeStats {
    /// Compute the stats for a matrix.
    #[must_use]
    pub fn compute<T: Scalar>(a: &CsrMatrix<T>) -> Self {
        let mut max_abs = 0.0f64;
        let mut min_abs_nonzero = f64::INFINITY;
        let mut fp16_overflow = 0usize;
        let mut fp16_underflow = 0usize;
        for v in a.values() {
            let m = v.to_f64().abs();
            max_abs = max_abs.max(m);
            if m > 0.0 {
                min_abs_nonzero = min_abs_nonzero.min(m);
                let h = half::f16::from_f64(m);
                if !h.to_f64().is_finite() {
                    fp16_overflow += 1;
                } else if h.to_f64() == 0.0 {
                    fp16_underflow += 1;
                }
            }
        }
        if !min_abs_nonzero.is_finite() {
            min_abs_nonzero = 0.0;
        }
        let dynamic_range = if min_abs_nonzero > 0.0 {
            max_abs / min_abs_nonzero
        } else {
            1.0
        };
        Self {
            max_abs,
            min_abs_nonzero,
            dynamic_range,
            fp16_overflow,
            fp16_underflow,
        }
    }

    /// `true` when every stored entry survives an *unscaled* fp16 conversion
    /// (no overflow to ±∞, no nonzero flushed to zero).
    #[must_use]
    pub fn fp16_representable(&self) -> bool {
        self.fp16_overflow == 0 && self.fp16_underflow == 0
    }
}

/// Errors produced by the Matrix Market reader.
#[derive(Debug)]
pub enum MatrixMarketError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file does not follow the expected format.
    Parse(String),
}

impl std::fmt::Display for MatrixMarketError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MatrixMarketError::Io(e) => write!(f, "I/O error: {e}"),
            MatrixMarketError::Parse(msg) => write!(f, "Matrix Market parse error: {msg}"),
        }
    }
}

impl std::error::Error for MatrixMarketError {}

impl From<std::io::Error> for MatrixMarketError {
    fn from(e: std::io::Error) -> Self {
        MatrixMarketError::Io(e)
    }
}

fn parse_err(msg: impl Into<String>) -> MatrixMarketError {
    MatrixMarketError::Parse(msg.into())
}

/// Read a sparse matrix in Matrix Market coordinate format from a reader.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<CsrMatrix<f64>, MatrixMarketError> {
    let mut lines = BufReader::new(reader).lines();

    let header = lines
        .next()
        .ok_or_else(|| parse_err("empty file"))??
        .to_lowercase();
    if !header.starts_with("%%matrixmarket") {
        return Err(parse_err("missing %%MatrixMarket header"));
    }
    let tokens: Vec<&str> = header.split_whitespace().collect();
    if tokens.len() < 5 || tokens[1] != "matrix" || tokens[2] != "coordinate" {
        return Err(parse_err("only 'matrix coordinate' files are supported"));
    }
    let field = tokens[3];
    let symmetry = tokens[4];
    if !matches!(field, "real" | "integer" | "pattern") {
        return Err(parse_err(format!("unsupported field type '{field}'")));
    }
    if !matches!(symmetry, "general" | "symmetric") {
        return Err(parse_err(format!("unsupported symmetry '{symmetry}'")));
    }

    // Skip comments, find the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        size_line = Some(trimmed.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| parse_err("missing size line"))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|t| t.parse::<usize>().map_err(|_| parse_err("bad size line")))
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(parse_err("size line must contain rows cols nnz"));
    }
    let (n_rows, n_cols, nnz) = (dims[0], dims[1], dims[2]);

    let mut coo = CooMatrix::with_capacity(n_rows, n_cols, nnz);
    let mut seen = 0usize;
    for line in lines {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let r: usize = it
            .next()
            .ok_or_else(|| parse_err("missing row index"))?
            .parse()
            .map_err(|_| parse_err("bad row index"))?;
        let c: usize = it
            .next()
            .ok_or_else(|| parse_err("missing column index"))?
            .parse()
            .map_err(|_| parse_err("bad column index"))?;
        let v: f64 = match field {
            "pattern" => 1.0,
            _ => it
                .next()
                .ok_or_else(|| parse_err("missing value"))?
                .parse()
                .map_err(|_| parse_err("bad value"))?,
        };
        if r == 0 || c == 0 || r > n_rows || c > n_cols {
            return Err(parse_err(format!("index ({r},{c}) out of bounds")));
        }
        let (r, c) = (r - 1, c - 1);
        if symmetry == "symmetric" {
            coo.push_sym(r, c, v);
        } else {
            coo.push(r, c, v);
        }
        seen += 1;
    }
    if seen != nnz {
        return Err(parse_err(format!("expected {nnz} entries, found {seen}")));
    }
    Ok(coo.to_csr())
}

/// Read a Matrix Market matrix together with its [`EntryRangeStats`], so the
/// caller can decide on a storage strategy (unscaled vs scaled fp16) before
/// materializing any reduced-precision copy.
pub fn read_matrix_market_with_stats<R: Read>(
    reader: R,
) -> Result<(CsrMatrix<f64>, EntryRangeStats), MatrixMarketError> {
    let a = read_matrix_market(reader)?;
    let stats = EntryRangeStats::compute(&a);
    Ok((a, stats))
}

/// [`read_matrix_market_with_stats`] for a file path.
pub fn read_matrix_market_file_with_stats(
    path: impl AsRef<Path>,
) -> Result<(CsrMatrix<f64>, EntryRangeStats), MatrixMarketError> {
    let file = std::fs::File::open(path)?;
    read_matrix_market_with_stats(file)
}

/// Write a matrix in Matrix Market `coordinate real general` format.
pub fn write_matrix_market<W: Write>(
    a: &CsrMatrix<f64>,
    mut writer: W,
) -> Result<(), MatrixMarketError> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "% written by f3r-sparse")?;
    writeln!(writer, "{} {} {}", a.n_rows(), a.n_cols(), a.nnz())?;
    for row in 0..a.n_rows() {
        let (cols, vals) = a.row_entries(row);
        for (&c, &v) in cols.iter().zip(vals.iter()) {
            writeln!(writer, "{} {} {:.17e}", row + 1, c as usize + 1, v)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const GENERAL: &str = "%%MatrixMarket matrix coordinate real general\n\
% a comment\n\
3 3 4\n\
1 1 2.0\n\
2 2 3.0\n\
3 3 4.0\n\
1 3 -1.5\n";

    const SYMMETRIC: &str = "%%MatrixMarket matrix coordinate real symmetric\n\
2 2 3\n\
1 1 2.0\n\
2 1 -1.0\n\
2 2 2.0\n";

    #[test]
    fn reads_general_matrix() {
        let a = read_matrix_market(GENERAL.as_bytes()).unwrap();
        assert_eq!(a.n_rows(), 3);
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(0, 0), Some(2.0));
        assert_eq!(a.get(0, 2), Some(-1.5));
    }

    #[test]
    fn reads_symmetric_matrix_and_mirrors() {
        let a = read_matrix_market(SYMMETRIC.as_bytes()).unwrap();
        assert_eq!(a.nnz(), 4);
        assert_eq!(a.get(0, 1), Some(-1.0));
        assert_eq!(a.get(1, 0), Some(-1.0));
        assert!(a.is_symmetric(1e-14));
    }

    #[test]
    fn roundtrip_write_read() {
        let a = read_matrix_market(GENERAL.as_bytes()).unwrap();
        let mut buf = Vec::new();
        write_matrix_market(&a, &mut buf).unwrap();
        let b = read_matrix_market(buf.as_slice()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_matrix_market("not a matrix\n1 1 0\n".as_bytes()).is_err());
    }

    #[test]
    fn rejects_wrong_entry_count() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_bounds_index() {
        let text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(text.as_bytes()).is_err());
    }

    #[test]
    fn pattern_matrices_get_unit_values() {
        let text = "%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2\n";
        let a = read_matrix_market(text.as_bytes()).unwrap();
        assert_eq!(a.get(0, 0), Some(1.0));
        assert_eq!(a.get(1, 1), Some(1.0));
    }

    #[test]
    fn range_stats_of_benign_matrix_are_fp16_clean() {
        let (a, stats) = read_matrix_market_with_stats(GENERAL.as_bytes()).unwrap();
        assert_eq!(a.nnz(), 4);
        assert_eq!(stats.max_abs, 4.0);
        assert_eq!(stats.min_abs_nonzero, 1.5);
        assert!((stats.dynamic_range - 4.0 / 1.5).abs() < 1e-15);
        assert_eq!(stats.fp16_overflow, 0);
        assert_eq!(stats.fp16_underflow, 0);
        assert!(stats.fp16_representable());
    }

    #[test]
    fn range_stats_flag_fp16_overflow_and_underflow() {
        let text = "%%MatrixMarket matrix coordinate real general\n\
3 3 3\n\
1 1 1.0e9\n\
2 2 1.0e-12\n\
3 3 1.0\n";
        let (_, stats) = read_matrix_market_with_stats(text.as_bytes()).unwrap();
        assert_eq!(stats.max_abs, 1.0e9);
        assert_eq!(stats.min_abs_nonzero, 1.0e-12);
        assert!((stats.dynamic_range - 1.0e21).abs() < 1e6);
        assert_eq!(stats.fp16_overflow, 1);
        assert_eq!(stats.fp16_underflow, 1);
        assert!(!stats.fp16_representable());
    }

    #[test]
    fn range_stats_of_empty_matrix_are_degenerate() {
        let stats = EntryRangeStats::compute(&CsrMatrix::<f64>::from_parts(
            1,
            1,
            vec![0, 0],
            vec![],
            vec![],
        ));
        assert_eq!(stats.max_abs, 0.0);
        assert_eq!(stats.min_abs_nonzero, 0.0);
        assert_eq!(stats.dynamic_range, 1.0);
        assert!(stats.fp16_representable());
    }
}
