"""Value algebra, finite kernels, example generators, and kernel file I/O.

A kernel is a fully materialized square table F(u, v) over a finite labeled
point set.  Values live in one of two normed algebras: complex scalars
("complex") or real 2x2 matrices ("mat2", normed by the largest singular
value).  Everything here is immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import threading
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

import numpy as np

COMPLEX = "complex"
MAT2 = "mat2"
VALUE_KINDS = (COMPLEX, MAT2)

GENERATOR_VARIANTS = (
    "constant",
    "ratio",
    "e1",
    "e0",
    "mat2_ratio",
    "moszner",
    "perturbed_ratio",
)


class KernelError(ValueError):
    """Invalid kernel data, kernel file, or generator parameters."""


class KindMismatchError(KernelError):
    """Operation mixing values of different kinds."""


class KernelFormatError(KernelError):
    """Malformed kernel document; message carries the offending location."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{location}: {message}" if location else message)


class UnknownLabelError(KernelError):
    """Label not present in the kernel."""


# Each value kind is declared once, in _ALGEBRA: its product and its norm in
# component form, over the real component arrays that _components returns.
# The scalar value type, the defect scan and the diagonal checks all compute
# through that table, so they share one arithmetic.  Each function is built
# from single ufunc applications (multiply, add, subtract, sqrt, frexp,
# ldexp), which are correctly rounded per element, so scalar and array
# evaluations agree bit for bit; fused expressions such as numpy's SIMD
# complex multiply do not.
#
# Each function also takes out=, indexable buffer arrays: its steps write
# into out[0], out[1], ... and its results are the first of them.  The scan
# passes buffers that it reuses for every slab; without out= every step gets
# a fresh result, as for Python floats.  _mul2x2 uses the most, five.
_UNBUFFERED = (None,) * 5


def _cmul(ar, ai, br, bi, out=_UNBUFFERED):
    """Complex product in component form; out[2] is scratch."""
    re = np.subtract(np.multiply(ar, br, out=out[0]), np.multiply(ai, bi, out=out[2]), out=out[0])
    im = np.add(np.multiply(ar, bi, out=out[1]), np.multiply(ai, br, out=out[2]), out=out[1])
    return re, im


# Both norms are closed forms in squares of the components, which overflow
# or lose bits to underflow long before the norm itself leaves float64
# range.  _range_guarded keeps the fast form where its result r lies in a
# window [lo, hi] inside which no step can overflow, and every step that
# falls below the normal range (2^-1022) meets a term above 2^-962 in a sum
# or difference: under 2^-60 of that term, less than half its ulp, it
# rounds away whatever its own rounding was.  So inside the window the
# rounded result is unchanged, up to the scale, when every component is
# scaled by a power of two.  The elements outside it (also 0, inf and NaN)
# are recomputed from their components scaled by the power of two that
# puts the largest component modulus in [0.5, 1), where the result lies in
# [0.5, 2] and so inside the window, and ldexp scales that result back: it
# overflows or underflows only when the norm itself does.
#
#   complex, r^2 = re^2 + im^2:  r <= 2^480 keeps each square under 2^960,
#     and r >= 2^-480 puts the larger square above 2^-961.
#   mat2, q = sigma1^2 + sigma2^2 <= 2 r^2 and |det| = sigma1 sigma2 <= r^2:
#     r <= 2^240 keeps q^2 and 4 det^2 under 2^962, and r >= 2^-240 puts
#     q above 2^-480 and q^2 above 2^-960.

def _range_guarded(lo: float, hi: float):
    """Decorate a norm formula with the range guard for the window [lo, hi]."""

    def guard(formula):
        @functools.wraps(formula)
        def norm(*parts, out=_UNBUFFERED):
            with np.errstate(over="ignore", invalid="ignore"):
                r = np.asarray(formula(*parts, out=out))
                if not (r.min() >= lo and r.max() <= hi):  # false on NaN
                    outside = ~((r >= lo) & (r <= hi))
                    comps = np.array([np.broadcast_to(p, r.shape)[outside] for p in parts])
                    _, e = np.frexp(np.abs(comps).max(axis=0))
                    r[outside] = np.ldexp(formula(*np.ldexp(comps, -e)), e)
            return r

        return norm

    return guard


@_range_guarded(2.0**-480, 2.0**480)
def _cnorm(re, im, out=_UNBUFFERED):
    """Modulus of a complex value in component form; out[1] is scratch."""
    sq = np.multiply(re, re, out=out[0])
    sq = np.add(sq, np.multiply(im, im, out=out[1]), out=out[0])
    return np.sqrt(sq, out=out[0])


def _mul2x2(a00, a01, a10, a11, b00, b01, b10, b11, out=_UNBUFFERED):
    """2x2 matrix product in component form; out[4] is scratch."""

    def dot(k, x, y, z, w):  # x * y + z * w
        return np.add(np.multiply(x, y, out=out[k]), np.multiply(z, w, out=out[4]), out=out[k])

    return (
        dot(0, a00, b00, a01, b10),
        dot(1, a00, b01, a01, b11),
        dot(2, a10, b00, a11, b10),
        dot(3, a10, b01, a11, b11),
    )


@_range_guarded(2.0**-240, 2.0**240)
def _norm2x2(m00, m01, m10, m11, out=_UNBUFFERED):
    """Largest singular value of a real 2x2 matrix, in component form; out[1]
    and out[2] are scratch.

    Closed form from the two Frobenius invariants (squared Frobenius norm
    and determinant); no iterative factorization:
      q = m00^2 + m01^2 + m10^2 + m11^2,  det = m00 m11 - m01 m10,
      norm = sqrt(0.5 (q + sqrt(max(q^2 - 4 det^2, 0)))).
    """
    q = np.multiply(m00, m00, out=out[0])
    for m in (m01, m10, m11):
        q = np.add(q, np.multiply(m, m, out=out[1]), out=out[0])
    det = np.subtract(np.multiply(m00, m11, out=out[1]), np.multiply(m01, m10, out=out[2]), out=out[1])
    det4 = np.multiply(4.0, np.multiply(det, det, out=out[1]), out=out[1])
    disc = np.subtract(np.multiply(q, q, out=out[2]), det4, out=out[2])
    disc = np.sqrt(np.maximum(disc, 0.0, out=out[2]), out=out[2])
    return np.sqrt(np.multiply(0.5, np.add(q, disc, out=out[0]), out=out[0]), out=out[0])


# kind -> (product, norm), both taking components in storage order
_ALGEBRA = {COMPLEX: (_cmul, _cnorm), MAT2: (_mul2x2, _norm2x2)}


def _components(table, kind: str) -> tuple[np.ndarray, ...]:
    """Contiguous real component arrays of one value or a table of values, in
    storage order: (re, im) for complex, (m00, m01, m10, m11) for mat2."""
    t = np.asarray(table)
    if kind == COMPLEX:
        parts = (t.real, t.imag)
    else:
        parts = (t[..., 0, 0], t[..., 0, 1], t[..., 1, 0], t[..., 1, 1])
    return tuple(np.asarray(p, order="C") for p in parts)


def _finite(x: float) -> bool:
    return math.isfinite(x)


@dataclass(frozen=True)
class AlgebraValue:
    """One element of the value algebra: a complex scalar or a real 2x2 matrix.

    The payload is a Python complex for kind "complex" and a nested pair of
    row tuples for kind "mat2".  Values are immutable, compare exactly, and
    support +, -, *, scaling by a real, and the algebra norm.
    """

    kind: str
    payload: complex | tuple[tuple[float, float], tuple[float, float]]

    def __post_init__(self):
        if self.kind == COMPLEX:
            z = complex(self.payload)
            if not (_finite(z.real) and _finite(z.imag)):
                raise KernelError("non-finite complex value")
            object.__setattr__(self, "payload", z)
        elif self.kind == MAT2:
            m = np.asarray(self.payload, dtype=np.float64)
            if m.shape != (2, 2):
                raise KernelError(f"mat2 payload must be 2x2, got shape {m.shape}")
            if not np.all(np.isfinite(m)):
                raise KernelError("non-finite matrix entry")
            rows = ((float(m[0, 0]), float(m[0, 1])), (float(m[1, 0]), float(m[1, 1])))
            object.__setattr__(self, "payload", rows)
        else:
            raise KernelError(f"unknown value kind {self.kind!r}")

    @classmethod
    def of_complex(cls, z: complex) -> "AlgebraValue":
        return cls(COMPLEX, complex(z))

    @classmethod
    def of_mat2(cls, m) -> "AlgebraValue":
        return cls(MAT2, m)

    @classmethod
    def one(cls, kind: str) -> "AlgebraValue":
        if kind == COMPLEX:
            return cls(COMPLEX, 1.0 + 0.0j)
        if kind == MAT2:
            return cls(MAT2, ((1.0, 0.0), (0.0, 1.0)))
        raise KernelError(f"unknown value kind {kind!r}")

    def as_complex(self) -> complex:
        if self.kind != COMPLEX:
            raise KindMismatchError("not a complex value")
        return self.payload

    def as_mat2(self) -> np.ndarray:
        if self.kind != MAT2:
            raise KindMismatchError("not a mat2 value")
        return np.array(self.payload, dtype=np.float64)

    def _same_kind(self, other: "AlgebraValue") -> None:
        if self.kind != other.kind:
            raise KindMismatchError(f"mixed value kinds {self.kind!r} and {other.kind!r}")

    def _parts(self) -> tuple[float, ...]:
        return tuple(p.item() for p in _components(self.payload, self.kind))

    def _of_parts(self, parts) -> "AlgebraValue":
        """The value of this kind with the given components."""
        if self.kind == COMPLEX:
            return AlgebraValue(COMPLEX, complex(*parts))
        return AlgebraValue(MAT2, (parts[:2], parts[2:]))

    def _pairs(self, other: "AlgebraValue"):
        self._same_kind(other)
        return zip(self._parts(), other._parts())

    def __add__(self, other: "AlgebraValue") -> "AlgebraValue":
        return self._of_parts([a + b for a, b in self._pairs(other)])

    def __sub__(self, other: "AlgebraValue") -> "AlgebraValue":
        return self._of_parts([a - b for a, b in self._pairs(other)])

    def __mul__(self, other: "AlgebraValue") -> "AlgebraValue":
        self._same_kind(other)
        with np.errstate(over="ignore", invalid="ignore"):  # silent, like Python floats
            parts = _ALGEBRA[self.kind][0](*self._parts(), *other._parts())
        return self._of_parts(parts)

    def scale(self, factor: float) -> "AlgebraValue":
        lam = float(factor)
        return self._of_parts([lam * a for a in self._parts()])

    @property
    def norm(self) -> float:
        return float(_ALGEBRA[self.kind][1](*self._parts()))


def defect_term(ax: AlgebraValue, xb: AlgebraValue, ab: AlgebraValue) -> float:
    """Composition defect |ax * xb - ab| of one triple of kernel values."""
    if not (ax.kind == xb.kind == ab.kind):
        raise KindMismatchError(
            f"mixed value kinds {ax.kind!r}, {xb.kind!r}, {ab.kind!r}"
        )
    return (ax * xb - ab).norm


@dataclass(frozen=True, eq=False)
class FiniteKernel:
    """Square table of kernel values, entries[i][j] = F(labels[i], labels[j]).

    The table is stored as a read-only numpy array: complex128 of shape
    (n, n) for kind "complex", float64 of shape (n, n, 2, 2) for "mat2".
    """

    labels: tuple[str, ...]
    value_kind: str
    table: np.ndarray

    def __post_init__(self):
        labels = tuple(str(lab) for lab in self.labels)
        if not labels:
            raise KernelError("kernel needs at least one label")
        if len(set(labels)) != len(labels):
            raise KernelError("duplicate labels")
        if self.value_kind not in VALUE_KINDS:
            raise KernelError(f"unknown value kind {self.value_kind!r}")
        n = len(labels)
        if self.value_kind == COMPLEX:
            table = np.array(self.table, dtype=np.complex128)
            if table.shape != (n, n):
                raise KernelError(
                    f"table shape {table.shape} does not match {n} labels"
                )
            finite = np.isfinite(table.real) & np.isfinite(table.imag)
        else:
            table = np.array(self.table, dtype=np.float64)
            if table.shape != (n, n, 2, 2):
                raise KernelError(
                    f"table shape {table.shape} does not match {n} labels (need (n, n, 2, 2))"
                )
            finite = np.isfinite(table)
        if not finite.all():
            idx = np.argwhere(~finite)[0]
            raise KernelError(f"non-finite entry at index {tuple(int(i) for i in idx[:2])}")
        table.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "table", table)
        object.__setattr__(self, "_index", {lab: i for i, lab in enumerate(labels)})

    @property
    def n(self) -> int:
        return len(self.labels)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise UnknownLabelError(f"unknown label {label!r}") from None

    def entry(self, i: int, j: int) -> AlgebraValue:
        return AlgebraValue(self.value_kind, self.table[i, j])

    def value_at(self, a: str, b: str) -> AlgebraValue:
        return self.entry(self.index(a), self.index(b))

    def entry_norms(self) -> np.ndarray:
        """Norms of all entries as a read-only (n, n) float array, computed once."""
        return self._entry_norms

    @functools.cached_property
    def _entry_norms(self) -> np.ndarray:
        norms = _ALGEBRA[self.value_kind][1](*_components(self.table, self.value_kind))
        norms.setflags(write=False)
        return norms

    def max_norm(self) -> float:
        return float(self.entry_norms().max())

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteKernel):
            return NotImplemented
        return (
            self.labels == other.labels
            and self.value_kind == other.value_kind
            and np.array_equal(self.table, other.table)
        )


def point_label(x: float) -> str:
    """Shortest round-trip decimal label for a numeric sample point."""
    xf = float(x)
    if xf.is_integer():
        return str(int(xf))
    return repr(xf)


def _as_points(samples, variant: str) -> tuple[np.ndarray, tuple[str, ...]]:
    pts = np.asarray([float(s) for s in samples], dtype=np.float64)
    if pts.size == 0:
        raise KernelError(f"{variant}: needs at least one sample")
    if not np.all(np.isfinite(pts)):
        raise KernelError(f"{variant}: non-finite sample")
    labels = tuple(point_label(p) for p in pts)
    if len(set(labels)) != len(labels):
        raise KernelError(f"{variant}: duplicate sample points")
    return pts, labels


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters for one of the built-in example kernels.

    Variants and their parameters:
      constant        value, size        F identically equal to value
      ratio           samples[, f_values]  F(u, v) = f(u) / f(v)
      e1              n, c               X = {n, ..., n^2}, F(a, b) = a / (b + c)
      e0              samples            F(x, y) = x / y on points from [1, inf)
      mat2_ratio      c0, samples        F(u, v) = [[u/v, 0], [0, c0]]
      moszner         n, size            F identically equal to 1/n
      perturbed_ratio samples[, f_values], eps, seed
                                         F(u, v) = f(u)/f(v) * (1 + delta(u, v)),
                                         delta uniform on [-eps, eps], seeded
    """

    variant: str
    value: complex | None = None
    size: int | None = None
    n: int | None = None
    c: float | None = None
    c0: float | None = None
    samples: tuple[float, ...] | None = None
    f_values: tuple[complex, ...] | None = None
    eps: float | None = None
    seed: int | None = None

    def __post_init__(self):
        if self.variant not in GENERATOR_VARIANTS:
            raise KernelError(f"unknown generator variant {self.variant!r}")
        if self.samples is not None:
            object.__setattr__(self, "samples", tuple(float(s) for s in self.samples))
        if self.f_values is not None:
            object.__setattr__(self, "f_values", tuple(complex(v) for v in self.f_values))
        getattr(self, f"_validate_{self.variant}")()

    def _need(self, field: str):
        val = getattr(self, field)
        if val is None:
            raise KernelError(f"{self.variant}: parameter {field!r} is required")
        return val

    def _positive_int(self, field: str, minimum: int) -> int:
        raw = self._need(field)
        try:
            val = int(raw)
        except (TypeError, ValueError, OverflowError):  # not a number, NaN or infinite
            val = None
        if val is None or val != raw or val < minimum:
            raise KernelError(f"{self.variant}: {field} must be an integer >= {minimum}")
        return val

    def _validate_constant(self):
        v = complex(self._need("value"))
        if not (_finite(v.real) and _finite(v.imag)):
            raise KernelError("constant: value must be finite")
        self._positive_int("size", 1)

    def _ratio_values(self) -> tuple[complex, ...]:
        samples = self._need("samples")
        values = self.f_values if self.f_values is not None else tuple(complex(s) for s in samples)
        if len(values) != len(samples):
            raise KernelError(f"{self.variant}: f_values must match samples in length")
        for v in values:
            if not (_finite(v.real) and _finite(v.imag)):
                raise KernelError(f"{self.variant}: non-finite f value")
            if v == 0:
                raise KernelError(f"{self.variant}: f values must be nonzero")
        return values

    def _validate_ratio(self):
        _as_points(self._need("samples"), self.variant)
        self._ratio_values()

    def _validate_e1(self):
        self._positive_int("n", 2)
        c = float(self._need("c"))
        if not (_finite(c) and c > 0):
            raise KernelError("e1: c must be a positive finite real")

    def _validate_e0(self):
        pts, _ = _as_points(self._need("samples"), self.variant)
        if np.any(pts < 1.0):
            raise KernelError("e0: samples must lie in [1, inf)")

    def _validate_mat2_ratio(self):
        c0 = float(self._need("c0"))
        if not (_finite(c0) and c0 > 0):
            raise KernelError("mat2_ratio: c0 must be a positive finite real")
        pts, _ = _as_points(self._need("samples"), self.variant)
        if np.any(pts <= 0.0):
            raise KernelError("mat2_ratio: samples must be positive")

    def _validate_moszner(self):
        self._positive_int("n", 1)
        self._positive_int("size", 1)

    def _validate_perturbed_ratio(self):
        _as_points(self._need("samples"), self.variant)
        self._ratio_values()
        eps = float(self._need("eps"))
        if not (_finite(eps) and eps >= 0):
            raise KernelError("perturbed_ratio: eps must be a nonnegative finite real")
        if not _finite(2.0 * eps):  # the width of the range delta is drawn from
            raise KernelError("perturbed_ratio: 2*eps must be finite")
        if self.seed is not None:
            self._positive_int("seed", 0)


def _index_labels(count: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(count))


def generate(spec: GeneratorSpec) -> FiniteKernel:
    """Materialize the kernel described by a GeneratorSpec."""
    v = spec.variant
    if v == "constant":
        size = int(spec.size)
        table = np.full((size, size), complex(spec.value), dtype=np.complex128)
        return FiniteKernel(_index_labels(size), COMPLEX, table)
    if v == "moszner":
        size = int(spec.size)
        table = np.full((size, size), 1.0 / int(spec.n), dtype=np.complex128)
        return FiniteKernel(_index_labels(size), COMPLEX, table)
    if v == "e1":
        n, c = int(spec.n), float(spec.c)
        pts = np.arange(n, n * n + 1, dtype=np.float64)
        labels = tuple(point_label(p) for p in pts)
        table = (pts[:, None] / (pts[None, :] + c)).astype(np.complex128)
        return FiniteKernel(labels, COMPLEX, table)
    if v == "e0":
        pts, labels = _as_points(spec.samples, v)
        table = (pts[:, None] / pts[None, :]).astype(np.complex128)
        return FiniteKernel(labels, COMPLEX, table)
    if v == "mat2_ratio":
        pts, labels = _as_points(spec.samples, v)
        size = pts.size
        table = np.zeros((size, size, 2, 2), dtype=np.float64)
        table[..., 0, 0] = pts[:, None] / pts[None, :]
        table[..., 1, 1] = float(spec.c0)
        return FiniteKernel(labels, MAT2, table)
    if v in ("ratio", "perturbed_ratio"):
        _, labels = _as_points(spec.samples, v)
        f = np.asarray(spec._ratio_values(), dtype=np.complex128)
        table = f[:, None] / f[None, :]
        if v == "perturbed_ratio":
            rng = np.random.default_rng(0 if spec.seed is None else int(spec.seed))
            delta = rng.uniform(-float(spec.eps), float(spec.eps), table.shape)
            table = table * (1.0 + delta)
        return FiniteKernel(labels, COMPLEX, table)
    raise KernelError(f"unknown generator variant {v!r}")


# Kernel file format: a UTF-8 JSON document
#   { "labels": [...], "value_kind": "complex" | "mat2",
#     "entries": [[ {"re": r, "im": i} | {"m": [[a, b], [c, d]]}, ...], ...] }
# entries is row-major, entries[i][j] = F(labels[i], labels[j]).  Unknown
# top-level keys are rejected.  Every real is a finite JSON integer or decimal
# literal.  Both file formats are read the same way: _parse reads the
# document, each level of nesting is checked in full with one C-level pass
# (_spread, _fields), and every real is read in storage order with one call
# to _reals.  A pass that fails names the first bad item of its level, so a
# document with several defects is reported at its outermost bad level, in
# storage order, and a bad shape always before a bad real.

_TOP_KEYS = ("labels", "value_kind", "entries")


_gc_lock = threading.Lock()
_gc_pause = {"depth": 0, "resume": False}  # guarded by _gc_lock


def _gc_paused(fn):
    """Run fn with Python's cyclic garbage collector paused, and restore the
    caller's setting after.  A parsed JSON document holds no reference
    cycles, but the many lists and dicts it is made of would trigger full
    collections while it is built.

    The collector is process-wide, so concurrent calls share one pause: the
    first saves the setting and the last restores it.  A save per call would
    let a call that starts inside another's pause save "off", and leave the
    collector off after both."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        with _gc_lock:
            if _gc_pause["depth"] == 0:
                _gc_pause["resume"] = gc.isenabled()
                gc.disable()
            _gc_pause["depth"] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _gc_lock:
                _gc_pause["depth"] -= 1
                if _gc_pause["depth"] == 0 and _gc_pause["resume"]:
                    gc.enable()
    return run


def _spread(items: list, width: int, message: str, where) -> list:
    """The elements of the lists in items, in order.  Every item must be a
    list of exactly width elements; the first item k that is not is reported
    as a KernelFormatError(message) located by where(k)."""
    if set(map(type, items)) <= {list} and set(map(len, items)) <= {width}:
        return list(chain.from_iterable(items))
    k = next(k for k, item in enumerate(items) if type(item) is not list or len(item) != width)
    raise KernelFormatError(message, where(k))


def _fields(items: list, keys: tuple, message: str, where) -> list:
    """The values under keys of the objects in items, in order.  Every item
    must be an object with exactly these keys; the first item k that is not
    is reported as a KernelFormatError(message) located by where(k)."""
    get = itemgetter(*keys)
    if set(map(type, items)) <= {dict} and set(map(len, items)) <= {len(keys)}:
        try:  # with the right number of keys, the right keys are all there
            values = map(get, items)
            return list(values if len(keys) == 1 else chain.from_iterable(values))
        except KeyError:
            pass
    k = next(k for k, item in enumerate(items) if type(item) is not dict or item.keys() != set(keys))
    raise KernelFormatError(message, where(k))


def save_kernel(kernel: FiniteKernel) -> bytes:
    """Serialize deterministically: fixed key order, shortest round-trip reals."""
    if kernel.value_kind == COMPLEX:
        entries = [
            [{"re": re, "im": im} for re, im in zip(row_re, row_im)]
            for row_re, row_im in zip(kernel.table.real.tolist(), kernel.table.imag.tolist())
        ]
    else:
        entries = [[{"m": m} for m in row] for row in kernel.table.tolist()]
    doc = {"labels": list(kernel.labels), "value_kind": kernel.value_kind, "entries": entries}
    text = json.dumps(doc, ensure_ascii=False, allow_nan=False, separators=(",", ":"))
    return (text + "\n").encode("utf-8")


def _real_error(value) -> str | None:
    """Why one parsed JSON value is not a finite real, or None if it is one."""
    if type(value) not in (int, float):  # bool, str and None are not
        return "expected a real number"
    try:
        return None if math.isfinite(value) else "non-finite value"
    except OverflowError:  # an integer literal beyond float range
        return "non-finite value"


def _reals(values: list, where) -> np.ndarray:
    """One float64 array of parsed JSON reals, each an int or float literal
    that is finite as a float.  The first value k that is not is reported as
    a KernelFormatError located by where(k)."""
    try:
        if set(map(type, values)) <= {int, float}:
            reals = np.array(values, dtype=np.float64)
            if np.isfinite(reals).all():
                return reals
    except OverflowError:  # an integer literal beyond float range
        pass
    k, error = next((k, e) for k, v in enumerate(values) if (e := _real_error(v)))
    raise KernelFormatError(error, where(k))


def _reject_constant(token):
    raise KernelFormatError(f"non-finite literal {token!r} not allowed")


def _parse(data):
    """The JSON document in data, UTF-8 bytes or text.  NaN and Infinity are
    rejected, as is a document nested too deeply for the parser."""
    try:
        text = data.decode("utf-8") if isinstance(data, (bytes, bytearray)) else str(data)
    except UnicodeDecodeError as exc:
        raise KernelFormatError(f"not valid UTF-8: {exc}") from None
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise KernelFormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise KernelFormatError("invalid JSON: nesting too deep") from None


# kind -> (entry keys, entry form, location suffix of each real in storage order)
_ENTRY_FORMS = {
    COMPLEX: (("re", "im"), '{"re": ..., "im": ...}', (".re", ".im")),
    MAT2: (("m",), '{"m": [[a, b], [c, d]]}', (".m[0][0]", ".m[0][1]", ".m[1][0]", ".m[1][1]")),
}


@_gc_paused
def load_kernel(data: bytes) -> FiniteKernel:
    """Parse and validate a kernel document; inverse of save_kernel."""
    doc = _parse(data)
    if not isinstance(doc, dict):
        raise KernelFormatError("top level must be an object")
    unknown = set(doc.keys()) - set(_TOP_KEYS)
    if unknown:
        raise KernelFormatError(f"unknown top-level keys {sorted(unknown)}")
    for key in _TOP_KEYS:
        if key not in doc:
            raise KernelFormatError(f"missing top-level key {key!r}")

    labels = doc["labels"]
    if not isinstance(labels, list) or not labels or any(not isinstance(s, str) for s in labels):
        raise KernelFormatError("labels must be a non-empty array of strings", "labels")
    if len(set(labels)) != len(labels):
        raise KernelFormatError("duplicate labels", "labels")

    kind = doc["value_kind"]
    if kind not in VALUE_KINDS:
        raise KernelFormatError(f"unknown value_kind {kind!r}", "value_kind")

    entries = doc["entries"]
    n = len(labels)
    if not isinstance(entries, list) or len(entries) != n:
        raise KernelFormatError(f"entries must have {n} rows", "entries")
    keys, form, slots = _ENTRY_FORMS[kind]
    cell = lambda k: "entries[%d][%d]" % divmod(k, n)
    # each level's list replaces the one before, so only two are alive at once
    level = _spread(entries, n, f"row must have {n} entries", lambda i: f"entries[{i}]")
    del doc, entries
    level = _fields(level, keys, f"{kind} entry must be {form}", cell)
    if kind == MAT2:
        level = _spread(level, 2, "m must be a 2x2 array", lambda k: cell(k) + ".m")
        level = _spread(level, 2, "m must be a 2x2 array", lambda k: cell(k // 2) + ".m")
    width = len(slots)
    reals = _reals(level, lambda k: cell(k // width) + slots[k % width])
    del level
    if kind == COMPLEX:
        return FiniteKernel(tuple(labels), kind, reals.view(np.complex128).reshape(n, n))
    return FiniteKernel(tuple(labels), kind, reals.reshape(n, n, 2, 2))
