//! Shared statistics and reporting utilities for the DataScalar
//! reproduction.
//!
//! Every experiment harness in this workspace reports its results through
//! the small set of tools here: running [`Mean`]s, [`Histogram`]s of
//! run lengths, and an ASCII [`Table`] renderer whose output mirrors the
//! rows and columns of the paper's tables.
//!
//! # Examples
//!
//! ```
//! use ds_stats::Table;
//!
//! let mut t = Table::new(&["benchmark", "ipc"]);
//! t.row(&["compress", "2.31"]);
//! let s = t.render();
//! assert!(s.contains("compress"));
//! ```

mod histogram;
mod mean;
mod table;

pub use histogram::Histogram;
pub use mean::{geometric_mean, Mean};
pub use table::Table;

/// Formats a fraction in `[0, 1]` as a percentage with one decimal,
/// e.g. `0.347` renders as `"34.7%"`.
///
/// # Examples
///
/// ```
/// assert_eq!(ds_stats::percent(0.5), "50.0%");
/// ```
pub fn percent(frac: f64) -> String {
    format!("{:.1}%", frac * 100.0)
}

/// Formats a ratio with two decimal places, e.g. for IPC values.
///
/// # Examples
///
/// ```
/// assert_eq!(ds_stats::ratio(1.2345), "1.23");
/// ```
pub fn ratio(x: f64) -> String {
    format!("{x:.2}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percent_formats_one_decimal() {
        assert_eq!(percent(0.347), "34.7%");
        assert_eq!(percent(0.0), "0.0%");
        assert_eq!(percent(1.0), "100.0%");
    }

    #[test]
    fn ratio_formats_two_decimals() {
        assert_eq!(ratio(0.5), "0.50");
        assert_eq!(ratio(1.23456), "1.23");
    }
}
