"""Inner-product vectors, inequality margins, and normalized Gram kernels.

The inner product is conjugate-linear in the second argument,
<u|v> = sum_i u_i * conj(v_i), which reduces to the ordinary dot product
over the reals.  Margins report rhs - lhs for three classical inequalities
on sampled vectors; normalized Gram tables feed the kernel analysis with
F(u, v) = 2 <u|v> / (|u| |v|).
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass

import numpy as np

from .analysis import sincov_defect
from .kernel import (
    COMPLEX,
    FiniteKernel,
    KernelFormatError,
    _gc_paused,
    _parse,
    _reals,
    _spread,
)

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
        if self.field == REAL_FIELD:
            vals = []
            for c in self.coords:
                z = complex(c)
                if z.imag != 0.0:
                    raise VectorError("real vector with non-real coordinate")
                vals.append(float(z.real))
            if not all(math.isfinite(v) for v in vals):
                raise VectorError("non-finite coordinate")
            object.__setattr__(self, "coords", tuple(vals))
        else:
            vals = [complex(c) for c in self.coords]
            if not all(math.isfinite(v.real) and math.isfinite(v.imag) for v in vals):
                raise VectorError("non-finite coordinate")
            object.__setattr__(self, "coords", tuple(vals))

    @property
    def dim(self) -> int:
        return len(self.coords)

    def as_array(self) -> np.ndarray:
        dtype = np.float64 if self.field == REAL_FIELD else np.complex128
        return np.asarray(self.coords, dtype=dtype)

    @property
    def norm(self) -> float:
        a = self.as_array()
        return float(np.sqrt(_rowwise_inner(a[None, :], a[None, :]).real[0]))


@dataclass(frozen=True)
class InequalityMargin:
    """Both sides of one inequality instance; margin = rhs - lhs."""

    name: str
    lhs: float
    rhs: float
    margin: float

    def to_dict(self) -> dict:
        return asdict(self)


def _rowwise_inner(U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """<u|v> per row: sum of u * conj(v)."""
    return np.einsum("ij,ij->i", U, V.conj())


def _check_compatible(*vectors: IPVector) -> None:
    first = vectors[0]
    for v in vectors[1:]:
        if v.field != first.field:
            raise VectorError(f"field mismatch: {first.field!r} vs {v.field!r}")
        if v.dim != first.dim:
            raise VectorError(f"dimension mismatch: {first.dim} vs {v.dim}")


def _richard_buzano_arrays(A, B, X) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(lhs, rhs) rows of Richard's and of Buzano's inequality, sharing the
    norms and inner products."""
    sx = _rowwise_inner(X, X).real
    na = np.sqrt(_rowwise_inner(A, A).real)
    nb = np.sqrt(_rowwise_inner(B, B).real)
    iax = _rowwise_inner(A, X)
    ixb = _rowwise_inner(X, B)
    iab = _rowwise_inner(A, B)
    chain = iax * ixb
    richard = np.abs(chain - iab * (0.5 * sx)), na * nb * (0.5 * sx)
    buzano = np.abs(chain), 0.5 * (na * nb + np.abs(iab)) * sx
    return richard, buzano


def _cs_arrays(U, V) -> tuple[np.ndarray, np.ndarray]:
    nu = np.sqrt(_rowwise_inner(U, U).real)
    nv = np.sqrt(_rowwise_inner(V, V).real)
    lhs = 2.0 * np.abs(_rowwise_inner(U, V)) / (nu * nv)
    return lhs, np.full_like(lhs, 2.0)


def richard_margin(a: IPVector, b: IPVector, x: IPVector) -> InequalityMargin:
    """|<a|x><x|b> - <a|b>|x|^2/2|  vs  |a||b||x|^2/2."""
    _check_compatible(a, b, x)
    (lhs, rhs), _ = _richard_buzano_arrays(*(v.as_array()[None] for v in (a, b, x)))
    return InequalityMargin("richard", float(lhs[0]), float(rhs[0]), float(rhs[0] - lhs[0]))


def buzano_margin(a: IPVector, b: IPVector, x: IPVector) -> InequalityMargin:
    """|<a|x><x|b>|  vs  [|a||b| + |<a|b>|] |x|^2 / 2."""
    _check_compatible(a, b, x)
    _, (lhs, rhs) = _richard_buzano_arrays(*(v.as_array()[None] for v in (a, b, x)))
    return InequalityMargin("buzano", float(lhs[0]), float(rhs[0]), float(rhs[0] - lhs[0]))


def cauchy_schwarz_margin(u: IPVector, v: IPVector) -> InequalityMargin:
    """|2 <u|v> / (|u| |v|)|  vs  2, for nonzero vectors."""
    _check_compatible(u, v)
    if u.norm == 0.0 or v.norm == 0.0:
        raise VectorError("cauchy_schwarz_margin: zero vector")
    lhs, rhs = _cs_arrays(u.as_array()[None], v.as_array()[None])
    return InequalityMargin(
        "cauchy_schwarz", float(lhs[0]), float(rhs[0]), float(rhs[0] - lhs[0])
    )


def _gram_table(V: np.ndarray) -> np.ndarray:
    """Normalized Gram table 2 G_ij / sqrt(G_ii G_jj) with G = V conj(V)^T.

    The denominator uses sqrt of the product of the diagonal entries, so the
    diagonal of the result is exactly 2 for real inputs.
    """
    G = V @ V.conj().T
    s = np.real(np.diag(G)).copy()
    if float(np.sqrt(s.min())) <= MIN_NORM:
        raise VectorError(f"normalized_gram: vector norm below {MIN_NORM:g}")
    return np.asarray((2.0 * G) / np.sqrt(np.multiply.outer(s, s)), dtype=np.complex128)


def normalized_gram(vectors: list[IPVector]) -> FiniteKernel:
    """Complex kernel of entries 2 <v_i|v_j> / (|v_i| |v_j|), labels v0..v(n-1).

    Every entry has magnitude at most 2 up to rounding, and the defect of
    the result is at most 2 up to rounding.
    """
    if not vectors:
        raise VectorError("normalized_gram: needs at least one vector")
    _check_compatible(*vectors)
    V = np.stack([v.as_array() for v in vectors])
    table = _gram_table(V)
    labels = tuple(f"v{i}" for i in range(len(vectors)))
    return FiniteKernel(labels, COMPLEX, table)


def _draw(rng: np.random.Generator, count: int, dim: int, field: str) -> np.ndarray:
    def fresh(k: int) -> np.ndarray:
        if field == REAL_FIELD:
            return rng.standard_normal((k, dim))
        return rng.standard_normal((k, dim)) + 1j * rng.standard_normal((k, dim))

    M = fresh(count)
    while True:
        norms = np.sqrt(_rowwise_inner(M, M).real)
        mask = norms < MIN_NORM
        k = int(mask.sum())
        if k == 0:
            return M
        M[mask] = fresh(k)


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
    return [IPVector(field, tuple(row)) for row in _draw(rng, count, dim, field).tolist()]


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
    A = _draw(rng, count, dim, field)
    B = _draw(rng, count, dim, field)
    X = _draw(rng, count, dim, field)

    richard, buzano = _richard_buzano_arrays(A, B, X)
    min_margins: dict[str, float] = {}
    margins_hold = True
    for name, (lhs, rhs) in (
        ("richard", richard),
        ("buzano", buzano),
        ("cauchy_schwarz", _cs_arrays(A, B)),
    ):
        margin = rhs - lhs
        min_margins[name] = float(margin.min())
        margins_hold = margins_hold and bool(
            np.all(margin >= -MARGIN_TOL * (1.0 + rhs))
        )

    g = min(count, GRAM_SIZE)
    gram = FiniteKernel(
        tuple(f"v{i}" for i in range(g)), COMPLEX, _gram_table(A[:g])
    )
    gram_defect = sincov_defect(gram).defect
    return SweepResult(
        field=field,
        dim=dim,
        count=count,
        seed=seed,
        min_margins=min_margins,
        margins_hold=margins_hold,
        gram_size=g,
        gram_defect=gram_defect,
        gram_defect_holds=gram_defect <= GRAM_DEFECT_BOUND + MARGIN_TOL,
    )


# Vector list file format: a UTF-8 JSON document
#   { "field": "real" | "complex", "dim": d, "vectors": [[...], ...] }
# with complex coordinates encoded as [re, im] pairs.


def save_vectors(vectors: list[IPVector]) -> bytes:
    if not vectors:
        raise VectorError("save_vectors: needs at least one vector")
    _check_compatible(*vectors)
    field, dim = vectors[0].field, vectors[0].dim
    if field == REAL_FIELD:
        rows = [[float(c) for c in v.coords] for v in vectors]
    else:
        rows = [[[c.real, c.imag] for c in v.coords] for v in vectors]
    doc = {"field": field, "dim": dim, "vectors": rows}
    text = json.dumps(doc, ensure_ascii=False, allow_nan=False, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


@_gc_paused
def load_vectors(data: bytes) -> list[IPVector]:
    """Parse and validate a vector document; inverse of save_vectors.  It is
    read like a kernel document, by the same helpers."""
    try:
        doc = _parse(data)
        if not isinstance(doc, dict) or set(doc.keys()) != {"field", "dim", "vectors"}:
            raise VectorError('vector document must have exactly keys "field", "dim", "vectors"')
        field = doc["field"]
        if field not in FIELDS:
            raise VectorError(f"unknown field {field!r}")
        dim = doc["dim"]
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
            raise VectorError(f"dim: must be an integer >= 1, got {dim!r}")
        rows = doc["vectors"]
        if not isinstance(rows, list) or not rows:
            raise VectorError("vectors must be a non-empty array")
        level = _spread(rows, dim, f"expected {dim} coordinates", lambda i: f"vectors[{i}]")
        if field == REAL_FIELD:
            coords = _reals(level, lambda k: "vectors[%d][%d]" % divmod(k, dim))
        else:
            level = _spread(
                level, 2, "complex coordinates must be [re, im]", lambda k: f"vectors[{k // dim}]"
            )
            coords = _reals(
                level, lambda k: "vectors[%d][%d][%d]" % (*divmod(k // 2, dim), k % 2)
            ).view(np.complex128)
    except KernelFormatError as exc:
        raise VectorError(str(exc)) from None
    return [IPVector(field, tuple(row)) for row in coords.reshape(len(rows), dim).tolist()]
