"""Inner-product vectors, inequality margins, and normalized Gram kernels.

The inner product is conjugate-linear in the second argument,
<u|v> = sum_i u_i * conj(v_i), which reduces to the ordinary dot product
over the reals.  Margins report rhs - lhs for three classical inequalities
on sampled vectors; normalized Gram tables feed the kernel analysis with
F(u, v) = 2 <u|v> / (|u| |v|).

Range policy, as for kernel norms: vector norms, Gram kernels and margins
are computed from rows scaled by exact powers of two (_rows), so each is
finite whenever its exact value is inside float64 range.  Gram entries and
Cauchy-Schwarz sides have degree 0; norms and Richard and Buzano sides are
scaled back by one ldexp, and a side that leaves float64 range raises
VectorError.
"""

from __future__ import annotations

import cmath
import numbers
from dataclasses import asdict, dataclass
from operator import attrgetter

import numpy as np

from .analysis import sincov_defect
from .kernel import COMPLEX, FiniteKernel, _finite_sides, _in_range, _is_number, _scaled

REAL_FIELD = "real"
COMPLEX_FIELD = "complex"
FIELDS = (REAL_FIELD, COMPLEX_FIELD)

# Sampled vectors with norm below this are redrawn; Gram construction
# rejects anything smaller to keep the normalization well conditioned.
MIN_NORM = 1e-6
# Margin checks pass when margin >= -MARGIN_TOL * (1 + rhs).
MARGIN_TOL = 1e-9
GRAM_DEFECT_BOUND = 2.0
GRAM_SIZE = 64


class VectorError(ValueError):
    """Invalid vector data or incompatible vector arguments."""


@dataclass(frozen=True)
class IPVector:
    """A finite coordinate vector over the real or complex field."""

    field: str
    coords: tuple

    def __post_init__(self):
        if self.field not in FIELDS:
            raise VectorError(f"unknown field {self.field!r}")
        if len(self.coords) == 0:
            raise VectorError("vector needs at least one coordinate")
        vals = []
        try:
            for c in self.coords:
                if not _is_number(c):  # the value rule of kernel values
                    raise TypeError(f"{type(c).__name__} {c!r}")
                vals.append(complex(c))
        except (TypeError, ValueError, OverflowError) as exc:
            raise VectorError(f"coordinate {len(vals)}: not a number: {exc}") from None
        if self.field == REAL_FIELD:
            if any(map(attrgetter("imag"), vals)):
                raise VectorError("real vector with non-real coordinate")
            vals = [z.real for z in vals]
        if not all(map(cmath.isfinite, vals)):
            raise VectorError("non-finite coordinate")
        object.__setattr__(self, "coords", tuple(vals))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.coords, np.float64 if self.field == REAL_FIELD else np.complex128)

    @property
    def norm(self) -> float:
        return float(_rows(self.as_array()[None])[-1][0])


@dataclass(frozen=True)
class InequalityMargin:
    """Both sides of one inequality instance; margin = rhs - lhs."""

    name: str
    lhs: float
    rhs: float
    margin: float


def _rowwise_inner(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """<u|v> per row: sum of u * conj(v)."""
    return np.einsum("ij,ij->i", U, V.conj())


@_in_range
def _rows(M: np.ndarray) -> tuple[np.ndarray, ...]:
    """(S, e, sq, r, norm) for the rows M_i of M: S_i = 2^-e_i M_i, scaled by the
    exact power of two that puts its largest component modulus in [0.5, 1)
    (e_i = 0 for a zero row), sq_i = <S_i|S_i>, r_i = sqrt(sq_i), and the norm
    ldexp(r_i, e_i) of M_i, infinite only where the exact norm is.  The scaling
    is exact wherever no scaled component falls below 2^-1022."""
    M = np.ascontiguousarray(M)
    S, e = _scaled(M.view(np.float64).reshape(len(M), -1))
    S = S.view(M.dtype)
    sq = _rowwise_inner(S, S).real
    r = np.sqrt(sq)
    return S, e, sq, r, np.ldexp(r, e)


def _check_compatible(*vectors: IPVector) -> None:
    first = vectors[0]
    for v in vectors[1:]:
        if v.field != first.field:
            raise VectorError(f"field mismatch: {first.field!r} vs {v.field!r}")
        if v.dim != first.dim:
            raise VectorError(f"dimension mismatch: {first.dim} vs {v.dim}")


@_in_range
def _sides(ra, rb, rx) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """{name: (lhs, rhs)} rows of Richard's and Buzano's inequality for the _rows
    ra, rb, rx of a, b, x and of Cauchy-Schwarz for those of a, b, sharing norms
    and inner products of the scaled rows.  The Richard and Buzano sides have
    degree 1 in a and b and 2 in x, and one ldexp scales them back."""
    (A, ea, _, na, _), (B, eb, _, nb, _), (X, ex, sx, _, _) = ra, rb, rx
    chain = _rowwise_inner(A, X) * _rowwise_inner(X, B)
    iab = _rowwise_inner(A, B)
    e = ea + eb + 2 * ex
    half = 0.5 * sx
    cs = 2.0 * np.abs(iab) / (na * nb)  # 0/0 for a zero a or b, which callers exclude
    return {
        "richard": (np.ldexp(np.abs(chain - iab * half), e), np.ldexp(na * nb * half, e)),
        "buzano": (np.ldexp(np.abs(chain), e), np.ldexp(0.5 * (na * nb + np.abs(iab)) * sx, e)),
        "cauchy_schwarz": (cs, np.full_like(cs, 2.0)),
    }


def _margin(name: str, a: IPVector, b: IPVector, x: IPVector) -> InequalityMargin:
    """The InequalityMargin of inequality `name` at one triple."""
    _check_compatible(a, b, x)
    lhs, rhs = _sides(*(_rows(v.as_array()[None]) for v in (a, b, x)))[name]
    _finite_sides(VectorError, lambda k: name, lhs, rhs)
    return InequalityMargin(name, float(lhs[0]), float(rhs[0]), float(rhs[0] - lhs[0]))


def richard_margin(a: IPVector, b: IPVector, x: IPVector) -> InequalityMargin:
    """|<a|x><x|b> - <a|b>|x|^2/2|  vs  |a||b||x|^2/2."""
    return _margin("richard", a, b, x)


def buzano_margin(a: IPVector, b: IPVector, x: IPVector) -> InequalityMargin:
    """|<a|x><x|b>|  vs  [|a||b| + |<a|b>|] |x|^2 / 2."""
    return _margin("buzano", a, b, x)


def cauchy_schwarz_margin(u: IPVector, v: IPVector) -> InequalityMargin:
    """|2 <u|v> / (|u| |v|)|  vs  2, for nonzero vectors."""
    _check_compatible(u, v)
    if not (any(u.coords) and any(v.coords)):
        raise VectorError("cauchy_schwarz_margin: zero vector")
    return _margin("cauchy_schwarz", u, v, u)  # x does not enter this inequality


def _gram_kernel(S: np.ndarray) -> FiniteKernel:
    """The normalized Gram kernel 2 G_ij / sqrt(G_ii G_jj) of the rows of S, with
    G = S conj(S)^T: a power-of-two scale of any row cancels in the quotient
    (S are the scaled rows of _rows), and the diagonal is exactly 2 for real S."""
    G = S @ S.conj().T
    s = np.real(np.diag(G)).copy()
    table = (2.0 * G) / np.sqrt(np.multiply.outer(s, s))
    return FiniteKernel._owning([f"v{i}" for i in range(len(S))], COMPLEX, table)


def normalized_gram(vectors: list[IPVector]) -> FiniteKernel:
    """Complex kernel of entries 2 <v_i|v_j> / (|v_i| |v_j|), labels v0..v(n-1).

    Every entry has magnitude at most 2 up to rounding, and the defect of
    the result is at most 2 up to rounding.
    """
    if not vectors:
        raise VectorError("normalized_gram: needs at least one vector")
    _check_compatible(*vectors)
    S, *_, norms = _rows(np.stack([v.as_array() for v in vectors]))
    if float(norms.min()) <= MIN_NORM:  # the norms before scaling
        raise VectorError(f"normalized_gram: vector norm below {MIN_NORM:g}")
    return _gram_kernel(S)


def _draw(rng: np.random.Generator, count: int, dim: int, field: str) -> tuple:
    """(M, _rows(M)) for `count` seeded standard-normal rows M; rows of norm
    below MIN_NORM are drawn again."""
    def fresh(k: int) -> np.ndarray:
        if field == REAL_FIELD:
            return rng.standard_normal((k, dim))
        return rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))

    M = fresh(count)
    while True:
        rows = _rows(M)
        mask = rows[-1] < MIN_NORM
        if not mask.any():
            return M, rows
        M[mask] = fresh(int(mask.sum()))


def _seeded_rng(dim: int, count: int, field: str, seed: int) -> np.random.Generator:
    """The generator for `count` seeded vectors of dimension `dim` over `field`."""
    if dim < 1 or count < 1:
        raise VectorError("dim and count must be positive")
    if field not in FIELDS:
        raise VectorError(f"unknown field {field!r}")
    if not isinstance(seed, numbers.Integral) or seed < 0:
        raise VectorError(f"seed must be an integer >= 0, got {seed!r}")
    return np.random.default_rng(seed)


def sample_vectors(dim: int, count: int, field: str, seed: int) -> list[IPVector]:
    """Seeded standard-normal vectors; near-zero draws are replaced.

    Identical (dim, count, field, seed) always yields the identical list.
    """
    rng = _seeded_rng(dim, count, field, seed)
    return [IPVector(field, tuple(row)) for row in _draw(rng, count, dim, field)[0].tolist()]


@dataclass(frozen=True)
class SweepResult:
    """Outcome of one seeded margin sweep plus a Gram defect probe."""

    field: str
    dim: int
    count: int
    seed: int
    min_margins: dict[str, float]
    margins_hold: bool
    gram_size: int
    gram_defect: float
    gram_defect_holds: bool

    def to_dict(self) -> dict:
        return asdict(self)


def margin_sweep(dim: int, count: int, field: str, seed: int) -> SweepResult:
    """Evaluate all three inequalities on `count` seeded random triples.

    Reports the minimum margin per inequality and whether every instance
    satisfied margin >= -MARGIN_TOL * (1 + rhs); also builds a normalized
    Gram kernel from the first GRAM_SIZE vectors of the first sampled family
    and checks its defect against the bound 2.
    """
    rng = _seeded_rng(dim, count, field, seed)
    ra, rb, rx = (_draw(rng, count, dim, field)[1] for _ in range(3))
    min_margins: dict[str, float] = {}
    margins_hold = True
    for name, (lhs, rhs) in _sides(ra, rb, rx).items():
        _finite_sides(VectorError, lambda k: name, lhs, rhs)
        margin = rhs - lhs
        min_margins[name] = float(margin.min())
        margins_hold = margins_hold and bool(np.all(margin >= -MARGIN_TOL * (1.0 + rhs)))

    g = min(count, GRAM_SIZE)
    gram_defect = sincov_defect(_gram_kernel(ra[0][:g])).defect  # the first g scaled rows
    return SweepResult(
        field=field, dim=dim, count=count, seed=seed, min_margins=min_margins,
        margins_hold=margins_hold, gram_size=g, gram_defect=gram_defect,
        gram_defect_holds=gram_defect <= GRAM_DEFECT_BOUND + MARGIN_TOL,
    )
