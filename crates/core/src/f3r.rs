//! Preset solver configurations: F3R (Section 4.2, Table 1) and the
//! nesting-depth reference solvers F2 / fp16-F2 / F3 / fp16-F3 / F4
//! (Section 6.2, Table 4).
//!
//! Every preset returns a [`NestedSpec`]; prepare it for a given
//! [`ProblemMatrix`](crate::operator::ProblemMatrix) with
//! [`SolverBuilder::spec`](crate::session::SolverBuilder::spec).

use f3r_precision::Precision;
use f3r_precond::PrecondKind;

use crate::nested::{LevelSpec, NestedSpec};
use crate::operator::MatrixStorage;
use crate::richardson::WeightStrategy;

/// Iteration counts and weight-update cycle of F3R.
///
/// The paper's default is `(m1, m2, m3, m4) = (100, 8, 4, 2)` and `c = 64`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct F3rParams {
    /// Outermost FGMRES iterations per cycle (`m1`).
    pub m1: usize,
    /// Middle FGMRES iterations per invocation (`m2`).
    pub m2: usize,
    /// Inner FGMRES iterations per invocation (`m3`).
    pub m3: usize,
    /// Innermost Richardson sweeps per invocation (`m4`).
    pub m4: usize,
    /// Adaptive-weight update cycle (`c`).
    pub weight_cycle: usize,
}

impl Default for F3rParams {
    fn default() -> Self {
        Self {
            m1: 100,
            m2: 8,
            m3: 4,
            m4: 2,
            weight_cycle: 64,
        }
    }
}

impl F3rParams {
    /// Default parameters with a different `(m2, m3, m4)` triple — the format
    /// used for the `fp16-F3R-best` rows of Figures 1 and 2.
    #[must_use]
    pub fn with_inner(m2: usize, m3: usize, m4: usize) -> Self {
        Self {
            m2,
            m3,
            m4,
            ..Self::default()
        }
    }
}

/// Shared experiment-level settings (preconditioner, tolerance, restarts).
#[derive(Debug, Clone)]
pub struct SolverSettings {
    /// Primary preconditioner kind.
    pub precond: PrecondKind,
    /// Convergence tolerance (paper: 1e-8).
    pub tol: f64,
    /// Maximum outermost cycles for nested solvers (paper: 3 × m1 = 300).
    pub max_outer_cycles: usize,
}

impl Default for SolverSettings {
    fn default() -> Self {
        Self {
            precond: PrecondKind::Ilu0 { alpha: 1.0 },
            tol: 1e-8,
            max_outer_cycles: 3,
        }
    }
}

/// The three precision schemes of F3R evaluated in Section 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum F3rScheme {
    /// fp64-F3R: every level in double precision.
    Fp64,
    /// fp32-F3R: fp64 outermost, fp32 for all inner solvers and `M`.
    Fp32,
    /// fp16-F3R: the Table 1 mixed fp64/fp32/fp16 configuration.
    Fp16,
}

impl F3rScheme {
    /// Prefix used in solver names (`"fp64"`, `"fp32"`, `"fp16"`).
    #[must_use]
    pub fn prefix(self) -> &'static str {
        match self {
            F3rScheme::Fp64 => "fp64",
            F3rScheme::Fp32 => "fp32",
            F3rScheme::Fp16 => "fp16",
        }
    }
}

/// Build the `NestedSpec` of F3R for the given parameters, precision scheme
/// and experiment settings (Table 1 of the paper).
#[must_use]
pub fn f3r_spec(params: F3rParams, scheme: F3rScheme, settings: &SolverSettings) -> NestedSpec {
    let (l2_mat, l2_vec, l3_mat, l3_vec, l4_prec, m_prec) = match scheme {
        F3rScheme::Fp64 => (
            Precision::Fp64,
            Precision::Fp64,
            Precision::Fp64,
            Precision::Fp64,
            Precision::Fp64,
            Precision::Fp64,
        ),
        F3rScheme::Fp32 => (
            Precision::Fp32,
            Precision::Fp32,
            Precision::Fp32,
            Precision::Fp32,
            Precision::Fp32,
            Precision::Fp32,
        ),
        F3rScheme::Fp16 => (
            Precision::Fp32,
            Precision::Fp32,
            Precision::Fp16,
            Precision::Fp32,
            Precision::Fp16,
            Precision::Fp16,
        ),
    };
    NestedSpec {
        levels: vec![
            LevelSpec::fgmres(params.m1, Precision::Fp64, Precision::Fp64),
            LevelSpec::fgmres(params.m2, l2_mat, l2_vec),
            LevelSpec::fgmres(params.m3, l3_mat, l3_vec),
            LevelSpec::Richardson {
                m: params.m4,
                matrix: MatrixStorage::Plain(l4_prec),
                vector_prec: l4_prec,
                weight: WeightStrategy::Adaptive {
                    cycle: params.weight_cycle,
                },
            },
        ],
        precond: settings.precond,
        precond_prec: m_prec,
        tol: settings.tol,
        max_outer_cycles: settings.max_outer_cycles,
        name: format!("{}-F3R", scheme.prefix()),
    }
}

/// F3R with a fixed (non-adaptive) Richardson weight — the static comparison
/// of Figure 6.
#[must_use]
pub fn f3r_spec_fixed_weight(
    params: F3rParams,
    scheme: F3rScheme,
    settings: &SolverSettings,
    omega: f64,
) -> NestedSpec {
    let mut spec = f3r_spec(params, scheme, settings);
    let last = spec.levels.len() - 1;
    if let LevelSpec::Richardson { weight, .. } = &mut spec.levels[last] {
        *weight = WeightStrategy::Fixed(omega);
    }
    spec.name = format!("{}-F3R(ω={omega})", scheme.prefix());
    spec
}

/// Table 4: `F2 = (F100, F64, M)` — two-level nested FGMRES, inner level in
/// fp32 with an fp16 preconditioner.
#[must_use]
pub fn f2_spec(settings: &SolverSettings) -> NestedSpec {
    two_level_spec("F2", Precision::Fp32, Precision::Fp32, settings)
}

/// Table 4: `fp16-F2` — like [`f2_spec`] but with the inner level entirely in
/// fp16.
#[must_use]
pub fn fp16_f2_spec(settings: &SolverSettings) -> NestedSpec {
    two_level_spec("fp16-F2", Precision::Fp16, Precision::Fp16, settings)
}

fn two_level_spec(
    name: &str,
    inner_mat: Precision,
    inner_vec: Precision,
    settings: &SolverSettings,
) -> NestedSpec {
    NestedSpec {
        levels: vec![
            LevelSpec::fgmres(100, Precision::Fp64, Precision::Fp64),
            LevelSpec::fgmres(64, inner_mat, inner_vec),
        ],
        precond: settings.precond,
        precond_prec: Precision::Fp16,
        tol: settings.tol,
        max_outer_cycles: settings.max_outer_cycles,
        name: name.to_string(),
    }
}

/// Table 4: `F3 = (F100, F8, F8, M)` — three-level nested FGMRES; the inner
/// `F8` stores the matrix in fp16 but keeps fp32 vectors.
#[must_use]
pub fn f3_spec(settings: &SolverSettings) -> NestedSpec {
    three_level_spec("F3", Precision::Fp32, settings)
}

/// Table 4: `fp16-F3` — like [`f3_spec`] but the inner `F8` uses fp16 vectors
/// as well.
#[must_use]
pub fn fp16_f3_spec(settings: &SolverSettings) -> NestedSpec {
    three_level_spec("fp16-F3", Precision::Fp16, settings)
}

fn three_level_spec(name: &str, inner_vec: Precision, settings: &SolverSettings) -> NestedSpec {
    NestedSpec {
        levels: vec![
            LevelSpec::fgmres(100, Precision::Fp64, Precision::Fp64),
            LevelSpec::fgmres(8, Precision::Fp32, Precision::Fp32),
            LevelSpec::fgmres(8, Precision::Fp16, inner_vec),
        ],
        precond: settings.precond,
        precond_prec: Precision::Fp16,
        tol: settings.tol,
        max_outer_cycles: settings.max_outer_cycles,
        name: name.to_string(),
    }
}

/// Table 4: `F4 = (F100, F8, F4, F2, M)` — identical to fp16-F3R except that
/// the innermost Richardson is replaced by a two-iteration FGMRES.
#[must_use]
pub fn f4_spec(settings: &SolverSettings) -> NestedSpec {
    NestedSpec {
        levels: vec![
            LevelSpec::fgmres(100, Precision::Fp64, Precision::Fp64),
            LevelSpec::fgmres(8, Precision::Fp32, Precision::Fp32),
            LevelSpec::fgmres(4, Precision::Fp16, Precision::Fp32),
            LevelSpec::fgmres(2, Precision::Fp16, Precision::Fp16),
        ],
        precond: settings.precond,
        precond_prec: Precision::Fp16,
        tol: settings.tol,
        max_outer_cycles: settings.max_outer_cycles,
        name: "F4".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_match_paper() {
        let p = F3rParams::default();
        assert_eq!((p.m1, p.m2, p.m3, p.m4, p.weight_cycle), (100, 8, 4, 2, 64));
    }

    #[test]
    fn fp16_f3r_matches_table1() {
        let spec = f3r_spec(F3rParams::default(), F3rScheme::Fp16, &SolverSettings::default());
        assert_eq!(spec.name, "fp16-F3R");
        assert_eq!(spec.tuple_notation(), "(F100, F8, F4, R2, M)");
        assert_eq!(spec.depth(), 4);
        // Table 1 precisions
        assert_eq!(spec.levels[0].matrix_precision(), Precision::Fp64);
        assert_eq!(spec.levels[0].vector_precision(), Precision::Fp64);
        assert_eq!(spec.levels[1].matrix_precision(), Precision::Fp32);
        assert_eq!(spec.levels[1].vector_precision(), Precision::Fp32);
        assert_eq!(spec.levels[2].matrix_precision(), Precision::Fp16);
        assert_eq!(spec.levels[2].vector_precision(), Precision::Fp32);
        assert_eq!(spec.levels[3].matrix_precision(), Precision::Fp16);
        assert_eq!(spec.levels[3].vector_precision(), Precision::Fp16);
        assert_eq!(spec.precond_prec, Precision::Fp16);
        spec.validate();
    }

    #[test]
    fn fp64_and_fp32_schemes_are_uniform_below_the_top() {
        let s64 = f3r_spec(F3rParams::default(), F3rScheme::Fp64, &SolverSettings::default());
        assert!(s64
            .levels
            .iter()
            .all(|l| l.matrix_precision() == Precision::Fp64 && l.vector_precision() == Precision::Fp64));
        let s32 = f3r_spec(F3rParams::default(), F3rScheme::Fp32, &SolverSettings::default());
        assert_eq!(s32.levels[1].vector_precision(), Precision::Fp32);
        assert_eq!(s32.levels[3].vector_precision(), Precision::Fp32);
        assert_eq!(s32.precond_prec, Precision::Fp32);
        assert_eq!(s32.name, "fp32-F3R");
    }

    #[test]
    fn table4_variants_have_expected_shapes() {
        let st = SolverSettings::default();
        assert_eq!(f2_spec(&st).tuple_notation(), "(F100, F64, M)");
        assert_eq!(fp16_f2_spec(&st).levels[1].vector_precision(), Precision::Fp16);
        assert_eq!(f3_spec(&st).tuple_notation(), "(F100, F8, F8, M)");
        assert_eq!(fp16_f3_spec(&st).levels[2].vector_precision(), Precision::Fp16);
        let f4 = f4_spec(&st);
        assert_eq!(f4.tuple_notation(), "(F100, F8, F4, F2, M)");
        assert_eq!(f4.levels[3].vector_precision(), Precision::Fp16);
        for spec in [f2_spec(&st), fp16_f2_spec(&st), f3_spec(&st), fp16_f3_spec(&st), f4_spec(&st)] {
            spec.validate();
        }
    }

    #[test]
    fn fixed_weight_variant_replaces_strategy() {
        let spec = f3r_spec_fixed_weight(
            F3rParams::default(),
            F3rScheme::Fp16,
            &SolverSettings::default(),
            1.1,
        );
        if let LevelSpec::Richardson { weight, .. } = spec.levels[3] {
            assert_eq!(weight, crate::richardson::WeightStrategy::Fixed(1.1));
        } else {
            panic!("innermost level should be Richardson");
        }
        assert!(spec.name.contains("ω=1.1"));
    }

    #[test]
    fn best_params_constructor() {
        let p = F3rParams::with_inner(9, 4, 2);
        assert_eq!((p.m1, p.m2, p.m3, p.m4), (100, 9, 4, 2));
    }

    #[test]
    fn presets_default_to_uncompressed_basis_storage() {
        for spec in [
            f3r_spec(F3rParams::default(), F3rScheme::Fp16, &SolverSettings::default()),
            f2_spec(&SolverSettings::default()),
            f4_spec(&SolverSettings::default()),
        ] {
            for level in &spec.levels {
                if let Some(basis) = level.basis_precision() {
                    assert_eq!(basis, level.vector_precision(), "{}", spec.name);
                }
            }
        }
    }

    #[test]
    fn basis_storage_axis_composes_with_presets() {
        let spec = f3r_spec(F3rParams::default(), F3rScheme::Fp16, &SolverSettings::default())
            .with_basis_storage(Precision::Fp16);
        // Outermost stays uncompressed; fp32-vector inner levels compress to
        // fp16; the fp16-vector Richardson level has no basis.
        assert_eq!(spec.levels[0].basis_precision(), Some(Precision::Fp64));
        assert_eq!(spec.levels[1].basis_precision(), Some(Precision::Fp16));
        assert_eq!(spec.levels[2].basis_precision(), Some(Precision::Fp16));
        assert_eq!(spec.levels[3].basis_precision(), None);
        spec.validate();
    }
}
