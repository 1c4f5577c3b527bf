//! Table 2 reproduction: the test-matrix suite and its statistics.

use crate::report::Table;
use crate::suite::{full_suite, SuiteScale};

/// Build the Table 2 style suite description: one row per test problem with
/// `n`, `nnz`, `nnz/n`, symmetry, the α stabilisation factor and the paper
/// matrix the problem stands in for.
#[must_use]
pub fn run(scale: SuiteScale) -> Table {
    let mut table = Table::new(
        "Table 2 — test matrices (synthetic analogues of the paper's set, see column \"paper analog\")",
        &["matrix", "n", "nnz", "nnz/n", "sym", "alpha", "paper analog"],
    );
    for p in full_suite(scale) {
        let s = p.stats();
        table.push_row(vec![
            p.name.clone(),
            s.n.to_string(),
            s.nnz.to_string(),
            format!("{:.2}", s.nnz_per_row),
            if s.symmetric { "yes" } else { "no" }.to_string(),
            format!("{:.1}", p.alpha),
            p.paper_analog.clone(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_one_row_per_problem() {
        let t = run(SuiteScale::Tiny);
        assert_eq!(t.n_rows(), 15);
        let text = t.to_text();
        assert!(text.contains("hpcg"));
        assert!(text.contains("hpgmp"));
        assert!(text.contains("audikw_1-like"));
    }
}
