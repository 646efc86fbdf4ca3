"""Exception taxonomy.

Everything raised on bad input or an ill-posed request derives from
:class:`BucklabError`; the CLI maps these to exit code 1 (domain error)
while argparse/config problems exit with 2 (usage error).
"""


class BucklabError(Exception):
    """Base class for all domain errors raised by this package."""


class SizeLimitError(BucklabError):
    """A requested discretization exceeds the configured size guard."""


class MeshError(BucklabError):
    """Invalid mesh: degenerate triangles, broken incidence, empty free space."""


class DofKindError(BucklabError):
    """Operation called with an incompatible DOF map or boundary condition."""


class FactorCheckError(BucklabError):
    """A checked sparse LDL^T factorization, or a result certified by one,
    failed a check; the message names the check."""


class ExcludedSpectrumError(BucklabError):
    """The spectral parameter is too close to an excluded discrete eigenvalue."""

    def __init__(self, lam: float, nearest: float, margin: float, required: float):
        self.lam = lam
        self.nearest = nearest
        self.margin = margin
        self.required = required
        super().__init__(
            f"lambda={lam:.12g} is at relative distance {margin:.3e} from the "
            f"excluded eigenvalue {nearest:.12g} (required >= {required:.3e})"
        )


class ConstraintViolationError(BucklabError):
    """A trial vector violates an essential constraint it must satisfy."""


class SpectrumRangeError(BucklabError):
    """More eigenvalues requested than the discretization or oracle provides."""


class ConfigError(BucklabError):
    """Malformed run configuration (bad key, bad value, parse error)."""
