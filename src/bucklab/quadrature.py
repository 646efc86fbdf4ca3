"""Fixed quadrature rules used by the assembly routines.

Triangle rules are given in barycentric coordinates with weights that sum
to one (scale by the triangle area). The degree-2 rule integrates
quadratics exactly, the degree-4 rule quartics; both are classical
symmetric rules on affine triangles.
"""
import numpy as np

# degree-2: edge midpoints
TRI_D2_POINTS = np.array(
    [[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]
)
TRI_D2_WEIGHTS = np.array([1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0])

# degree-4: six-point symmetric rule
_A1, _B1 = 0.445948490915965, 0.108103018168070
_A2, _B2 = 0.091576213509771, 0.816847572980459
TRI_D4_POINTS = np.array(
    [
        [_A1, _A1, _B1],
        [_A1, _B1, _A1],
        [_B1, _A1, _A1],
        [_A2, _A2, _B2],
        [_A2, _B2, _A2],
        [_B2, _A2, _A2],
    ]
)
TRI_D4_WEIGHTS = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)

for _pts, _w in ((TRI_D2_POINTS, TRI_D2_WEIGHTS), (TRI_D4_POINTS, TRI_D4_WEIGHTS)):
    _pts.setflags(write=False)
    _w.setflags(write=False)


def gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1]."""
    return np.polynomial.legendre.leggauss(n)


def gauss_on_interval(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped to the interval [a, b]; arrays
    ``a``, ``b`` of shape (n, 1) give one row per interval."""
    x, w = gauss_legendre(n)
    half = 0.5 * (b - a)
    return 0.5 * (a + b) + half * x, half * w
