"""bucklab: a numerical laboratory for Dirichlet, Neumann and buckling
spectra, boundary trace operators, and their exact counting identities.

The package computes the four spectra of a planar domain (Dirichlet and
Neumann Laplacian, clamped buckling, simply supported fourth-order),
builds the Dirichlet-to-Neumann and Neumann-to-Laplacian operators as
Schur complements, verifies the negative-count identities at integer
exactness, reproduces the divergence of the trace Rayleigh quotient
over the too-large trial space, and runs punctured-sphere experiments
where the comparison inequalities fail.
"""
from .assembly import (
    DofMap,
    OperatorPair,
    assemble_lagrange,
    assemble_morley,
    boundary_normal_mass,
    classify_dofs,
)
from .counterexample import (
    BoundedBelowReport,
    ClampedFields,
    DivergenceReport,
    QuotientSample,
    alpha_value,
    bounded_below_check,
    buckling_ground_state,
    clamped_fields,
    divergence_sweep,
    make_perturbation,
    rayleigh_quotient,
)
from .eigen import schur_complement, sym_gen_eigs
from .errors import (
    BucklabError,
    ConfigError,
    ConstraintViolationError,
    DofKindError,
    ExcludedSpectrumError,
    FactorCheckError,
    MeshError,
    SizeLimitError,
    SpectrumRangeError,
)
from .mesh import (
    Mesh,
    RadialGrid,
    load_mesh,
    make_disk_mesh,
    make_polygon_mesh,
    make_radial_grid,
    make_rectangle_mesh,
    refine_mesh,
    save_mesh,
)
from .runio import RunManifest, SweepResult, load_config, write_results
from .spectra import (
    Spectrum,
    disk_oracle,
    spectrum,
)
from .spherecap import (
    CapOperators,
    cap_buckling_lambda1,
    cap_operators,
    cap_scan,
    cap_spectrum,
)
from .traceops import (
    IdentityReport,
    TraceOperator,
    scan_beta1,
    scan_identities,
    trace_operator,
    trace_spectrum,
    verify_identity,
)

__version__ = "0.1.0"
