//! Problem generators.
//!
//! The paper evaluates F3R on three families of matrices: the HPCG and HPGMP
//! benchmark stencils (fully specified in the paper and implemented exactly
//! here) and a set of SuiteSparse matrices.  SuiteSparse downloads are not
//! bundled; instead, each SuiteSparse matrix used by the paper is mapped to a
//! *synthetic analogue* with the same qualitative structure (symmetry,
//! nonzeros per row, conditioning character) so the relative-solver-behaviour
//! experiments can be regenerated at laptop scale.  The mapping itself — which
//! generator stands in for which paper matrix — is the `paper_analog` column
//! of `f3r-experiments`' `suite` module (Table 2).

pub mod convdiff;
pub mod elasticity;
pub mod hpcg;
pub mod hpgmp;
pub mod laplacian;
pub mod random;
pub mod rhs;

pub use convdiff::convection_diffusion_3d;
pub use elasticity::elasticity_like_3d;
pub use hpcg::hpcg_matrix;
pub use hpgmp::hpgmp_matrix;
pub use laplacian::{anisotropic_poisson_3d, poisson2d_5pt, poisson3d_7pt};
pub use random::{random_nonsymmetric, random_spd};
pub use rhs::random_rhs;
