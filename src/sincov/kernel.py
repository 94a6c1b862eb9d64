"""Value algebra, finite kernels, example generators, and kernel file I/O.

A kernel is a fully materialized square table F(u, v) over a finite labeled
point set.  Values live in one of two normed algebras: complex scalars
("complex") or real 2x2 matrices ("mat2", normed by the largest singular
value).  Everything here is immutable after construction and safe to share
between threads.
"""

from __future__ import annotations

import functools
import json
import math
import re
from collections import namedtuple
from dataclasses import dataclass, fields
from itertools import chain
from numbers import Number
from operator import itemgetter

import numpy as np

COMPLEX = "complex"
MAT2 = "mat2"


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


# Each value kind is declared once, in _KINDS (below): its storage, its
# identity, its file entry, and its product and norm in component form, over
# real components: the arrays that _components returns, or the Python floats
# that a scalar AlgebraValue holds.  The scalar value type, the defect scan
# and the diagonal checks all compute through that table, so they share one
# arithmetic.  Each function is built from single ufunc applications
# (multiply, add, subtract, sqrt, frexp, ldexp), which are correctly rounded
# per element, so scalar and array evaluations agree bit for bit; fused
# expressions such as numpy's SIMD complex multiply do not.  The one
# exception is the scan's einsum (below), which a probe at import admits only
# where it rounds as those ufuncs do.
#
# Each function also takes out=, indexable buffer arrays: its steps write
# into out[0], out[1], ... and its results are the first of them.  The scan
# passes buffers that it reuses for every slab; without out= every step gets
# a fresh result, as for Python floats.  _mul2x2 uses the most, five.  _KINDS
# lists the indices that each kind's product and guarded norm write (outs),
# so that a caller can make exactly those buffers up front.
#
# The products form each component as a two-term product op(x y, z w), op
# np.add or np.subtract, through dot=, _dot by default: two multiplies and op,
# each rounded once.  The defect scan multiplies a column F(., x) by a row
# F(x, .), so each two-term product is an (n, n) table, which _SCAN_DOT forms
# in one einsum pass (_einsum_dot) or, where a probe at import finds einsum
# fusing a multiply into the sum (say, an FMA in numpy's SIMD loop), as two
# outer products and op (_outer_dot), with the same values and rounding.
_UNBUFFERED = (None,) * 5


def _dot(x, y, z, w, op=np.add, out=None, scratch=None):
    """op(x y, z w) elementwise, op np.add or np.subtract, with z w in scratch:
    each product and the result rounded once."""
    return op(np.multiply(x, y, out=out), np.multiply(z, w, out=scratch), out=out)


def _outer(col, row, out=None):
    """The outer product col[i] row[j] of two 1-d arrays, into out.  einsum
    adds each product to a zeroed output, so it equals np.multiply of the
    broadcast operands, value and rounding, except that a product of -0.0
    comes out as +0.0; a norm squares every component, so it cannot tell."""
    return np.einsum("i,j->ij", col, row, out=out)


def _outer_dot(x, y, z, w, op=np.add, out=None, scratch=None):
    """_dot of 1-d columns x, z and rows y, w: op(x[i] y[j], z[i] w[j]) for all
    (i, j), each product an _outer."""
    return op(_outer(x, y, out), _outer(z, w, scratch), out=out)


def _einsum_dot(x, y, z, w, op=np.add, out=None, scratch=None):
    """_outer_dot in one pass, without scratch: einsum sums the products of the
    column pair (x, z), z negated (exactly) for np.subtract, and the row pair
    (y, w) into a zeroed output.  Where it rounds each product and the sum
    once, as _rounds_once tests, that is _outer_dot's value up to the sign of
    a zero, which a norm cannot tell."""
    cols = np.array([x, z if op is np.add else np.negative(z)])
    return np.einsum("ki,kj->ij", cols, np.array([y, w]), out=out)


def _rounds_once(dot) -> bool:
    """Whether dot's tables equal _dot's on the products q q - r and -q + q r:
    rounded, they are 0 and 2^-26, and exact they exceed that by 2^-54 and
    2^-53, which a dot that fuses either multiply into the sum keeps.  The
    tables are 1 x 1, for each product, and 2 x k, for both, with k = 1 to 70,
    widths that reach einsum's SIMD loop and its tails."""
    q, r = 1.0 + 2.0**-27, 1.0 + 2.0**-26  # q q rounds to r, and q r to q + 2^-26
    x, z, y, w = np.array([q, -1.0]), np.array([-1.0, q]), np.full(70, q), np.full(70, r)
    want = _dot(x, q, z, r)[:, None]
    cases = [(slice(0, 1), 1), (slice(1, 2), 1)] + [(slice(0, 2), k) for k in range(1, 71)]
    return all((dot(x[i], y[:k], z[i], w[:k], out=np.empty((len(x[i]), k))) == want[i]).all()
               for i, k in cases)


_SCAN_DOT = _einsum_dot if _rounds_once(_einsum_dot) else _outer_dot  # the probe at import


def _cmul(ar, ai, br, bi, out=_UNBUFFERED, *, dot=_dot):
    """Complex product in component form; out[2] is scratch."""
    return (dot(ar, br, ai, bi, np.subtract, out[0], out[2]),
            dot(ar, bi, ai, br, np.add, out[1], out[2]))


def _in_range(fn):
    """Run fn with numpy's overflow warnings off: out-of-range results are
    caught by value.  The error state is per thread, so scan workers are
    wrapped too; a fresh errstate per call keeps nested calls safe."""
    @functools.wraps(fn)
    def run(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            return fn(*args, **kwargs)
    return run


def _finite_sides(error, name, lhs: np.ndarray, rhs: np.ndarray) -> None:
    """Raise error for the first k at which lhs[k] or rhs[k] is not finite,
    as a side of name(k): a value left float64 range."""
    bad = ~(np.isfinite(lhs) & np.isfinite(rhs))
    if bad.any():
        k = int(bad.argmax())
        raise error(f"non-finite side in {name(k)}: lhs {float(lhs[k])}, "
                    f"rhs {float(rhs[k])}; a value leaves float64 range")


def _scaled(comps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(comps 2^-e, e) for rows of real components along the last axis: e puts
    the row's largest component modulus in [0.5, 1), and is 0 for a zero row.
    The scaling is exact wherever no scaled component falls below 2^-1022."""
    _, e = np.frexp(np.abs(comps).max(axis=-1, initial=0.0))  # initial: 2x faster on short rows
    return np.ldexp(comps, -e[..., None]), e


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
# overflows or underflows only when the norm itself does.  A value whose
# components are all zero keeps r = 0, which is exact, without the rescale.
#
#   complex, r^2 = re^2 + im^2:  r <= 2^480 keeps each square under 2^960,
#     and r >= 2^-480 puts the larger square above 2^-961.
#   mat2, r = (r1 + r2) / 2 with r1, r2 the moduli of (m00 + m11, m10 - m01)
#     and (m00 - m11, m10 + m01), so r1, r2 <= 2r, and the larger of them is
#     at least r.  r <= 2^480 keeps each square under 2^962.  r >= 2^-420
#     puts the larger modulus's larger square above 2^-841.  The smaller
#     modulus loses bits to underflow only when both its squares are under
#     2^-962, so that it is under 2^-480.5, below 2^-60 of the larger
#     modulus: it rounds away in r1 + r2, at this scale and at any other.
#     The sums and differences of components are exact wherever they fall
#     below 2^-1022, so they lose nothing to underflow.
#
# The defect terms |F(a, x) F(x, b) - F(a, b)| of a kernel whose every
# component is 0 or has modulus in _COMPONENT_RANGE = [2^-150, 2^150] never
# leave the windows.  A float of modulus at least 2^-k is a multiple of
# 2^(-k-52); rounding is monotone, keeps every float, and keeps a multiple
# of 2^-j one.  So each component is a multiple of 2^-202, a product of two
# nonzero ones rounds into [2^-300, 2^300], a multiple of 2^-352, and each
# sum and difference the scan forms (the product's components, their
# differences with F, and mat2's p, q, s, t) is a multiple of 2^-352: 0 or of
# modulus at least 2^-352, and at most 2^301, 2^302 and 2^303 in turn.  A
# term whose differences are all 0 has formula r = 0.  Any other has a
# nonzero difference, or for mat2 a nonzero p, q, s or t (all four vanish
# only when the differences do), and its squares and their sums cannot
# overflow, so r lies in [2^-353, 2^305], inside both windows, where the
# guard keeps it: on such a kernel the bare formula is the norm, bit for bit.

def _range_guarded(lo: float, hi: float):
    """Decorate a norm formula with the range guard for the window [lo, hi];
    the guarded norm's __wrapped__ is the bare formula."""

    def guard(formula):
        @functools.wraps(formula)
        @_in_range
        def norm(*parts, out=_UNBUFFERED):
            r = np.asarray(formula(*parts, out=out))
            if not (r.min() >= lo and r.max() <= hi):  # false on NaN
                nonzero = functools.reduce(np.logical_or, [np.not_equal(p, 0.0) for p in parts])
                outside = ~((r >= lo) & (r <= hi)) & nonzero  # NaN is nonzero
                comps = np.stack([np.broadcast_to(p, r.shape)[outside] for p in parts], axis=-1)
                scaled, e = _scaled(comps)
                r[outside] = np.ldexp(formula(*scaled.T), e)
            return r

        return norm

    return guard


_COMPONENT_RANGE = (2.0**-150, 2.0**150)


def _components_in_range(table: np.ndarray) -> bool:
    """Whether every component of a table of values is 0 or has modulus in
    _COMPONENT_RANGE, so that its defect terms need no range guard (above)."""
    lo, hi = _COMPONENT_RANGE
    m = np.abs(table.view(np.float64))
    return bool(((m >= lo) & (m <= hi) | (m == 0.0)).all())


def _squared_modulus(re, im, out=_UNBUFFERED):
    """re^2 + im^2 for a complex value in component form; out[1] is scratch."""
    sq = np.multiply(re, re, out=out[0])
    return np.add(sq, np.multiply(im, im, out=out[1]), out=out[0])


def _modulus(re, im, out=_UNBUFFERED):
    """Modulus sqrt(re^2 + im^2) of a complex value in component form; out[1]
    is scratch."""
    return np.sqrt(_squared_modulus(re, im, out), out=out[0])


_cnorm = _range_guarded(2.0**-480, 2.0**480)(_modulus)  # _norm2x2 takes two bare moduli under its guard


def _mul2x2(a00, a01, a10, a11, b00, b01, b10, b11, out=_UNBUFFERED, *, dot=_dot):
    """2x2 matrix product in component form; out[4] is scratch."""
    return (
        dot(a00, b00, a01, b10, np.add, out[0], out[4]),
        dot(a00, b01, a01, b11, np.add, out[1], out[4]),
        dot(a10, b00, a11, b10, np.add, out[2], out[4]),
        dot(a10, b01, a11, b11, np.add, out[3], out[4]),
    )


@_range_guarded(2.0**-420, 2.0**480)
def _norm2x2(m00, m01, m10, m11, out=_UNBUFFERED):
    """Largest singular value of a real 2x2 matrix, in component form; out[3]
    and out[4] are scratch.

    M is the sum of a scaled rotation and a scaled reflection (J. Blinn,
    "Consider the lowly 2x2 matrix", IEEE CG&A 1996):
      M = 1/2 [[p, -q], [q, p]] + 1/2 [[s, t], [t, -s]],
      p = m00 + m11, q = m10 - m01, s = m00 - m11, t = m10 + m01,
    and its singular values are (r1 + r2) / 2 and |r1 - r2| / 2, with
    r1 = |(p, q)| and r2 = |(s, t)|.  Both moduli are sums of squares, so
    nothing cancels.  Each of p, q, s, t, their squares and the two sums of
    squares rounds once, which puts a squared modulus within a relative
    gamma_4 and its root, rounded once more, within gamma_3; the sum r1 + r2
    of nonnegative terms rounds once and the halving is exact.  So inside the
    guard's window the result is within a relative gamma_4 = 4u / (1 - 4u)
    (u = 2^-53) of the exact norm.
    """
    # p goes to out[4], s over m00 in out[0], q and then t over m11 in out[3]:
    # out may be the buffers that hold m00, m01, m10, m11 in out[0] to out[3]
    p = np.add(m00, m11, out=out[4])
    s = np.subtract(m00, m11, out=out[0])
    r1 = _modulus(p, np.subtract(m10, m01, out=out[3]), out=(out[4], out[3]))
    r2 = _modulus(s, np.add(m10, m01, out=out[3]), out=(out[0], out[3]))
    return np.multiply(0.5, np.add(r1, r2, out=out[0]), out=out[0])


# A value is stored as dtype with shape; its float64 view holds its components in
# storage order.  keys, form, slots: a file entry's keys, its form, where its reals are;
# entry: the bytes save_kernel writes for it, with a %r for each real in storage order.
# outs: the indices of out that mul and norm write.  Complex mul writes its scratch,
# out[2], only through _dot and the scan's outer-product fallback, _outer_dot, so
# "exactly those buffers" holds only there: with _einsum_dot, which takes no
# scratch, the scan makes out[2] and never writes it.
_Kind = namedtuple("_Kind", "dtype shape mul norm one keys form slots entry outs")
_KINDS = {
    COMPLEX: _Kind(np.complex128, (), _cmul, _cnorm, (1.0, 0.0),
                   ("re", "im"), '{"re": ..., "im": ...}', (".re", ".im"), '{"re":%r,"im":%r}',
                   ((0, 1, 2), (0, 1))),
    MAT2: _Kind(np.float64, (2, 2), _mul2x2, _norm2x2, (1.0, 0.0, 0.0, 1.0),
                ("m",), '{"m": [[a, b], [c, d]]}', (".m[0][0]", ".m[0][1]", ".m[1][0]", ".m[1][1]"),
                '{"m":[[%r,%r],[%r,%r]]}', ((0, 1, 2, 3, 4), (0, 3, 4))),
}


def _kind(kind: str) -> _Kind:
    try:
        return _KINDS[kind]
    except (KeyError, TypeError):  # TypeError: an unhashable kind
        raise KernelError(f"unknown value kind {kind!r}") from None


def _components(values, kind: str) -> tuple[np.ndarray, ...]:
    """Contiguous component arrays of one value or a table of values."""
    algebra = _KINDS[kind]
    v = np.asarray(values, algebra.dtype)
    flat = v.reshape(v.shape[: v.ndim - len(algebra.shape)] + (-1,)).view(np.float64)
    return tuple(np.asarray(flat[..., k], order="C") for k in range(flat.shape[-1]))


def _is_number(x) -> bool:
    """The value rule: only numbers are values; text and booleans are not."""
    return isinstance(x, Number) and not isinstance(x, bool)


def _numbers(data, dtype, what: str, copy: bool = True) -> np.ndarray:
    """data as a C-ordered array of dtype, under the value rule; a real dtype
    takes no complex number.  A fault raises KernelError(what must be ...).
    numpy data is judged by its one dtype, other data element by element:
    numpy would read a boolean among numbers as a number.  The array is new
    unless copy is false and data is already such an array."""
    try:
        a = np.asarray(data)
        if a.dtype == object or not isinstance(data, (np.ndarray, np.generic)):
            for x in np.asarray(data, dtype=object).flat:  # object: say, integers beyond int64
                if not _is_number(x):
                    raise TypeError(f"{type(x).__name__} {x!r}")
        if a.dtype.kind == "b" or not (a.dtype == object or np.can_cast(a.dtype, dtype, "same_kind")):
            raise TypeError(f"{a.dtype} data")
        return a.astype(dtype, order="C", copy=copy)
    except (TypeError, ValueError, OverflowError) as exc:
        raise KernelError(f"{what} must be {np.dtype(dtype)} numbers: {exc}") from None


def _values(kind: str, data, lead: tuple[int, ...], copy: bool = True) -> np.ndarray:
    """data as a C-ordered array of values of kind, of shape lead + the value
    shape, all finite, under the value rule, new as _numbers makes it.  Each
    fault raises KernelError."""
    algebra = _kind(kind)
    a = _numbers(data, algebra.dtype, f"{kind} values", copy)
    want = lead + algebra.shape
    if a.shape != want:
        raise KernelError(f"{kind} data has shape {a.shape}, need {want}")
    finite = np.isfinite(a)
    if not finite.all():
        idx = tuple(int(i) for i in np.argwhere(~finite)[0][: len(lead)])
        raise KernelError(f"non-finite entry at index {idx}" if lead else f"non-finite {kind} value")
    return a


@dataclass(frozen=True, init=False)
class AlgebraValue:
    """One element of the value algebra: a complex scalar or a real 2x2 matrix.

    AlgebraValue(kind, payload) takes a complex number for kind "complex" and
    a 2x2 nested sequence for kind "mat2", under the value rule.  A value holds
    its components once, as Python floats in storage order, and computes on
    them with the _KINDS functions.  Values are immutable, compare exactly,
    and support +, -, * and the algebra norm.
    """

    kind: str
    _comps: tuple[float, ...]

    def __init__(self, kind: str, payload):
        self._set(kind, _values(kind, payload, ()).reshape(-1).view(np.float64).tolist())

    def _set(self, kind: str, comps) -> "AlgebraValue":
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "_comps", tuple(comps))
        return self

    def _result(self, comps) -> "AlgebraValue":
        """The value of this kind with the computed components comps, which
        need only be finite."""
        if not all(map(math.isfinite, comps)):
            raise KernelError(f"non-finite {self.kind} value")
        return AlgebraValue.__new__(AlgebraValue)._set(self.kind, comps)

    @classmethod
    def one(cls, kind: str) -> "AlgebraValue":
        return cls.__new__(cls)._set(kind, _kind(kind).one)

    @property
    def payload(self) -> complex | tuple[tuple[float, float], tuple[float, float]]:
        """A Python complex for kind "complex", a pair of row tuples for "mat2"."""
        c = self._comps
        return complex(*c) if self.kind == COMPLEX else (c[:2], c[2:])

    def as_complex(self) -> complex:
        if self.kind != COMPLEX:
            raise KindMismatchError("not a complex value")
        return self.payload

    def as_mat2(self) -> np.ndarray:
        if self.kind != MAT2:
            raise KindMismatchError("not a mat2 value")
        return np.array(self.payload, dtype=np.float64)

    def _pairs(self, other: "AlgebraValue"):
        if self.kind != other.kind:
            raise KindMismatchError(f"mixed value kinds {self.kind!r} and {other.kind!r}")
        return zip(self._comps, other._comps)

    def __add__(self, other: "AlgebraValue") -> "AlgebraValue":
        return self._result([a + b for a, b in self._pairs(other)])

    def __sub__(self, other: "AlgebraValue") -> "AlgebraValue":
        return self._result([a - b for a, b in self._pairs(other)])

    @_in_range  # silent, like Python floats
    def __mul__(self, other: "AlgebraValue") -> "AlgebraValue":
        a, b = zip(*self._pairs(other))
        return self._result(list(map(float, _KINDS[self.kind].mul(*a, *b))))

    @property
    def norm(self) -> float:
        return float(_KINDS[self.kind].norm(*self._comps))


def defect_term(ax: AlgebraValue, xb: AlgebraValue, ab: AlgebraValue) -> float:
    """Composition defect |ax * xb - ab| of one triple of kernel values."""
    return (ax * xb - ab).norm


@dataclass(frozen=True, eq=False)
class FiniteKernel:
    """Square table of kernel values, entries[i][j] = F(labels[i], labels[j]).

    The table is stored as a read-only numpy array: complex128 of shape
    (n, n) for kind "complex", float64 of shape (n, n, 2, 2) for "mat2".
    The kernel owns its table: FiniteKernel(labels, kind, data) stores a
    copy of data, so a later write to data leaves the kernel unchanged.
    Only a table that sincov has just built for the kernel and holds
    nowhere else is kept without a copy: load_kernel's, generate's and
    normalized_gram's.
    """

    labels: tuple[str, ...]
    value_kind: str
    table: np.ndarray

    def __post_init__(self):
        self._hold(self.labels, self.value_kind, self.table, copy=True)

    @classmethod
    def _owning(cls, labels, kind: str, table: np.ndarray) -> "FiniteKernel":
        """The kernel of a table that the caller has just built and hands
        over: checked as the constructor checks its data, with the same
        errors, and made read-only, but not copied."""
        kernel = cls.__new__(cls)
        kernel._hold(labels, kind, table, copy=False)
        return kernel

    def _hold(self, labels, kind: str, data, copy: bool) -> None:
        labels = tuple(str(lab) for lab in labels)
        if not labels:
            raise KernelError("kernel needs at least one label")
        if len(set(labels)) != len(labels):
            raise KernelError("duplicate labels")
        table = _values(kind, data, (len(labels),) * 2, copy)
        table.setflags(write=False)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "value_kind", kind)
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
        norms = _KINDS[self.value_kind].norm(*_components(self.table, self.value_kind))
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


@_in_range
def _ratio_table(f: np.ndarray) -> np.ndarray:
    """f(u) / f(v) for a real or complex f with no zero; for real f each quotient
    is one real division, so it is correctly rounded.  A quotient that is not
    finite (complex division by a subnormal gives inf+nanj) is recomputed as
    m(u) / m(v) 2^(e_u - e_v), with m = f 2^-e of largest component modulus in
    [0.5, 1), and replaced where that is finite; finite quotients keep their bits."""
    q = f[:, None] / f[None, :]
    bad = ~np.isfinite(q)
    if bad.any():
        m, e = _scaled(f.reshape(-1, 1).view(np.float64))  # row v: the components of f(v)
        m = m.view(f.dtype)[:, 0]
        u, v = np.nonzero(bad)
        r = (m[u] / m[v]).reshape(-1, 1).view(np.float64)
        redo = np.ldexp(r, (e[u] - e[v])[:, None]).view(f.dtype)[:, 0]
        q[bad] = np.where(np.isfinite(redo), redo, q[bad])
    return q


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
        object.__setattr__(self, "_read", set())  # the parameters the variant reads
        for field, dtype in (("samples", np.float64), ("f_values", np.complex128)):
            if getattr(self, field) is not None:
                object.__setattr__(self, field, tuple(self._param(field, dtype, 1).tolist()))
        self._read.clear()
        _GENERATORS[self.variant](self)
        for field in fields(self)[1:]:
            if getattr(self, field.name) is not None and field.name not in self._read:
                raise KernelError(f"{self.variant}: unexpected parameter {field.name!r}")

    def _given(self, field: str):
        """The parameter, or None if it is not given; the variant reads it."""
        self._read.add(field)
        return getattr(self, field)

    def _need(self, field: str):
        val = self._given(field)
        if val is None:
            raise KernelError(f"{self.variant}: parameter {field!r} is required")
        return val

    def _param(self, field: str, dtype, ndim: int = 0) -> np.ndarray:
        """The parameter as an array of dtype with ndim axes, all finite, under the
        value rule."""
        val = _numbers(self._need(field), dtype, f"{self.variant}: {field}")
        if val.ndim != ndim:
            shape = ("one number", "a sequence of numbers")[ndim]
            raise KernelError(f"{self.variant}: {field} must be {shape}")
        if not np.isfinite(val).all():
            raise KernelError(f"{self.variant}: {field} must be finite")
        return val

    def _positive_int(self, field: str, minimum: int) -> int:
        raw = self._need(field)
        try:
            val = int(raw) if _is_number(raw) else None
        except (TypeError, ValueError, OverflowError):  # not a number, NaN or infinite
            val = None
        if val is None or val != raw or val < minimum:
            raise KernelError(f"{self.variant}: {field} must be an integer >= {minimum}")
        return val

    def _real(self, field: str, *, positive: bool) -> float:
        val = self._param(field, np.float64).item()
        if not (val > 0 if positive else val >= 0):
            sign = "positive" if positive else "nonnegative"
            raise KernelError(f"{self.variant}: {field} must be a {sign} finite real")
        return val

    def _points(self) -> np.ndarray:
        """At least one sample point, no two alike (nor their labels)."""
        pts = np.asarray(self._need("samples"), dtype=np.float64)
        if pts.size == 0:
            raise KernelError(f"{self.variant}: needs at least one sample")
        if len(set(pts.tolist())) != pts.size:
            raise KernelError(f"{self.variant}: duplicate sample points")
        return pts


# Each generator variant is one function of its GeneratorSpec: it checks that
# variant's parameters and returns make() -> (labels, value kind, table).

def _filled(size: int, value: complex):
    return tuple(f"x{i}" for i in range(size)), COMPLEX, np.full((size, size), value, np.complex128)


def _constant(spec: GeneratorSpec):
    value = spec._param("value", np.complex128).item()
    size = spec._positive_int("size", 1)
    return lambda: _filled(size, value)


def _ratio(spec: GeneratorSpec):
    pts = spec._points()  # real samples give real f, and so real division in _ratio_table
    f = pts if spec._given("f_values") is None else np.asarray(spec.f_values)
    if f.shape != pts.shape:
        raise KernelError(f"{spec.variant}: f_values must match samples in length")
    if not f.all():
        raise KernelError(f"{spec.variant}: f values must be nonzero")
    return lambda: (tuple(map(point_label, pts)), COMPLEX, _ratio_table(f))


def _e1(spec: GeneratorSpec):
    n, c = spec._positive_int("n", 2), spec._real("c", positive=True)

    def make():  # F(a, b) = a / (b + c)
        pts = np.arange(n, n * n + 1, dtype=np.float64)
        return tuple(map(point_label, pts)), COMPLEX, pts[:, None] / (pts[None, :] + c)

    return make


def _e0(spec: GeneratorSpec):
    pts = spec._points()
    if np.any(pts < 1.0):
        raise KernelError("e0: samples must lie in [1, inf)")
    return lambda: (tuple(map(point_label, pts)), COMPLEX, _ratio_table(pts))


def _mat2_ratio(spec: GeneratorSpec):
    c0, pts = spec._real("c0", positive=True), spec._points()
    if np.any(pts <= 0.0):
        raise KernelError("mat2_ratio: samples must be positive")

    def make():  # F(u, v) = [[u/v, 0], [0, c0]]
        r = _ratio_table(pts)
        table = np.stack(np.broadcast_arrays(r, 0.0, 0.0, c0), axis=-1).reshape(r.shape + (2, 2))
        return tuple(map(point_label, pts)), MAT2, table

    return make


def _moszner(spec: GeneratorSpec):
    n, size = spec._positive_int("n", 1), spec._positive_int("size", 1)
    return lambda: _filled(size, 1.0 / n)


def _perturbed_ratio(spec: GeneratorSpec):
    ratio = _ratio(spec)
    eps = spec._real("eps", positive=False)
    if not math.isfinite(2.0 * eps):  # the width of the range delta is drawn from
        raise KernelError("perturbed_ratio: 2*eps must be finite")
    seed = 0 if spec._given("seed") is None else spec._positive_int("seed", 0)

    def make():
        labels, kind, table = ratio()
        delta = np.random.default_rng(seed).uniform(-eps, eps, table.shape)
        return labels, kind, table * (1.0 + delta)

    return make


_GENERATORS = {
    "constant": _constant,
    "ratio": _ratio,
    "e1": _e1,
    "e0": _e0,
    "mat2_ratio": _mat2_ratio,
    "moszner": _moszner,
    "perturbed_ratio": _perturbed_ratio,
}
GENERATOR_VARIANTS = tuple(_GENERATORS)


@_in_range  # an entry beyond float64 range is caught by value, in FiniteKernel
def generate(spec: GeneratorSpec) -> FiniteKernel:
    """Materialize the kernel described by a GeneratorSpec."""
    return FiniteKernel._owning(*_GENERATORS[spec.variant](spec)())


# Kernel file format: a UTF-8 JSON document
#   { "labels": [...], "value_kind": "complex" | "mat2",
#     "entries": [[ {"re": r, "im": i} | {"m": [[a, b], [c, d]]}, ...], ...] }
# entries is row-major, entries[i][j] = F(labels[i], labels[j]).  Unknown
# top-level keys are rejected.  Every real is a finite JSON integer or decimal
# literal.  A document is read in one of two ways, to the same kernel or the
# same error.  The bytes save_kernel writes are read one row at a time by
# _by_rows, each row from one flat JSON array of its reals, into one
# preallocated array, so at most one row of Python objects is alive and the
# document is never held twice, as bytes and as text.  Every other document,
# and one with a defect, is decoded and parsed whole (_parse), each level of
# nesting is checked in full with one C-level pass (_spread, _fields), and
# every real is read in storage order with one call to _reals.  A pass that
# fails names the first bad item of its level, so a document with several
# defects is reported at its outermost bad level, in storage order, and a bad
# shape always before a bad real.

_TOP_KEYS = ("labels", "value_kind", "entries")


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


def _row(kind: str, n: int) -> str:
    """save_kernel's template of a row of n entries of kind, with a %r for each real."""
    return "[" + ",".join([_KINDS[kind].entry] * n) + "]"


def save_kernel(kernel: FiniteKernel) -> bytes:
    """Serialize deterministically: keys labels, value_kind, entries, no spaces,
    shortest round-trip reals, and a final newline.

    The bytes are those of json.dumps with separators (",", ":"), whose float
    encoder is float.__repr__, as %r is: each row is one format of the kind's
    entry template, repeated n times, with the row's reals as Python floats."""
    n = kernel.n
    head = json.dumps({"labels": list(kernel.labels), "value_kind": kernel.value_kind},
                      ensure_ascii=False, separators=(",", ":"))
    row = _row(kernel.value_kind, n)
    reals = kernel.table.reshape(n, -1).view(np.float64).tolist()  # C-ordered, see _values
    body = ",".join([row % tuple(r) for r in reals])
    return f'{head[:-1]},"entries":[{body}]}}\n'.encode("utf-8")


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


def _int_literal(literal: str):
    """A JSON integer literal as an int; past Python's int-string limit (640
    digits or more), as the infinite float it rounds to, as 1e999 reads."""
    try:
        return int(literal)
    except ValueError:
        return float(literal)


_DECODER = json.JSONDecoder(parse_int=_int_literal, parse_constant=_reject_constant)


def _parse(text: str):
    """The JSON document in text.  NaN and Infinity are rejected, as is a
    document nested too deeply for the parser, and a leading byte order mark,
    as json.loads rejects it."""
    try:
        if text.startswith("\ufeff"):
            raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
        return _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise KernelFormatError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise KernelFormatError("invalid JSON: nesting too deep") from None


def _check_head(labels, kind) -> None:
    """Check a kernel document's labels and value_kind."""
    if not isinstance(labels, list) or not labels or any(not isinstance(s, str) for s in labels):
        raise KernelFormatError("labels must be a non-empty array of strings", "labels")
    if len(set(labels)) != len(labels):
        raise KernelFormatError("duplicate labels", "labels")
    if not isinstance(kind, str) or kind not in _KINDS:  # a list or dict kind is unhashable
        raise KernelFormatError(f"unknown value_kind {kind!r}", "value_kind")


def _entry_reals(rows: list, n: int, kind: str) -> np.ndarray:
    """The reals of rows of entries of kind, n to a row, in storage order,
    each level checked in full before the next."""
    algebra = _KINDS[kind]
    cell = lambda k: "entries[%d][%d]" % divmod(k, n)
    # each level's list replaces the one before
    level = _spread(rows, n, f"row must have {n} entries", lambda i: f"entries[{i}]")
    level = _fields(level, algebra.keys, f"{kind} entry must be {algebra.form}", cell)
    if kind == MAT2:
        level = _spread(level, 2, "m must be a 2x2 array", lambda k: cell(k) + ".m")
        level = _spread(level, 2, "m must be a 2x2 array", lambda k: cell(k // 2) + ".m")
    width = len(algebra.slots)
    return _reals(level, lambda k: cell(k // width) + algebra.slots[k % width])


_NUMBER_CHARS = b"0123456789+-.eE"  # the characters of JSON numbers
_LONGEST_REAL = len(repr(-2.2250738585072014e-308))  # 24, the longest float repr
# The head save_kernel writes, up to its first row, with "S" for a JSON string
# of any bytes: the labels (group 1) and the value kind (group 2).  A quote
# ends a string only where no backslash escapes it, so the match ends where
# the JSON grammar puts the head's end, whatever the labels hold.
_HEAD = re.compile(rb'\{"labels":(\[S(?:,S)*\]),"value_kind":(S),"entries":\['
                   .replace(b"S", rb'"(?:[^"\\]|\\.)*"')).match


def _by_rows(data: bytes):
    """(labels, kind, reals) of the bytes save_kernel writes, with or without
    the final newline, read one row at a time; None for any other document,
    and for one with a defect, which the whole-document path then names.
    Only the head is decoded; every other byte is matched against ASCII text,
    so a document read here is valid UTF-8.

    The rows follow the head, joined by commas, then "]}".  A row is read as
    one flat JSON array of its reals: the row with the row template's head
    and tail cut off, each separator between entries replaced by a comma and
    every other character of the separator inside an entry deleted.  That
    array holds each real from its own slot when the row starts with the
    template's head, when deleting its number characters leaves the
    template's skeleton, and when it holds the separator inside an entry that
    is not a lone comma n times.  These groups then stand whole where the
    template puts them (the skeleton alone would also pass a real written
    inside a group, or the key "r5e" for "re"), and so does each separator
    between entries, with no count of its own: the first one that is not
    whole is not replaced, so its "}" stays in the flat text behind nothing
    but reals and commas, and json's decoder rejects a "}" in an array.  The
    skeleton is ASCII, so a row of that form is ASCII too.  The search for
    the row's end stops at the longest row of that form whose reals are
    float reprs."""
    head = _HEAD(data)
    if head is None:
        return None
    try:
        labels, kind = [_DECODER.decode(group.decode("utf-8")) for group in head.groups()]
        _check_head(labels, kind)
    except ValueError:  # KernelFormatError, JSONDecodeError, UnicodeDecodeError
        return None
    algebra, n = _KINDS[kind], len(labels)
    width = len(algebra.slots)
    if n * n * width > len(data):  # each real takes a byte at least
        return None
    parts = [part.encode() for part in algebra.entry.split("%r")]  # complex: '{"re":', ',"im":', '}'
    first, tail, sep = b"[" + parts[0], parts[-1] + b"]", parts[-1] + b"," + parts[0]
    (inner,) = set(parts[1:-1]) - {b","}
    cut = inner.replace(b",", b"")
    fixed = _row(kind, n).replace("%r", "").encode()
    skeleton, longest = fixed.translate(None, _NUMBER_CHARS), len(fixed) + _LONGEST_REAL * n * width
    reals, pos = np.empty((n, n * width)), head.end()
    for i in range(n):
        end = data.find(tail, pos, pos + longest) if data.startswith(first, pos) else -1
        row = data[pos:end + len(tail)]
        if not (end >= 0 and row.translate(None, _NUMBER_CHARS) == skeleton and row.count(inner) == n):
            return None
        flat = row[len(first):-len(tail)].replace(sep, b",").translate(None, cut)
        try:  # n * width number tokens, as the skeleton's commas fix, so ints and floats
            reals[i] = _DECODER.decode("[%s]" % flat.decode("ascii"))
        except (ValueError, OverflowError):  # JSONDecodeError; an integer beyond float range
            return None
        pos = end + len(tail) + 1
        if data[pos - 1:pos] != (b",", b"]")[i == n - 1]:
            return None
    return (labels, kind, reals) if data[pos:] in (b"}", b"}\n") and np.isfinite(reals).all() else None


def _document(doc) -> tuple:
    """(labels, kind, reals) of a parsed kernel document."""
    if not isinstance(doc, dict):
        raise KernelFormatError("top level must be an object")
    unknown = set(doc.keys()) - set(_TOP_KEYS)
    if unknown:
        raise KernelFormatError(f"unknown top-level keys {sorted(unknown)}")
    for key in _TOP_KEYS:
        if key not in doc:
            raise KernelFormatError(f"missing top-level key {key!r}")
    labels, kind, entries = map(doc.get, _TOP_KEYS)
    _check_head(labels, kind)
    n = len(labels)
    if not isinstance(entries, list) or len(entries) != n:
        raise KernelFormatError(f"entries must have {n} rows", "entries")
    return labels, kind, _entry_reals(entries, n, kind)


def load_kernel(data: bytes) -> FiniteKernel:
    """Parse and validate a kernel document; inverse of save_kernel.

    The bytes save_kernel writes are read one row at a time, each row from
    one flat JSON array of its reals, with at most one row of Python objects
    alive; any other document, and any text given as str, is decoded and
    parsed whole.  Both give the same kernel, and a defect the same error."""
    raw = isinstance(data, (bytes, bytearray))
    read = _by_rows(data) if raw else None
    if read is None:
        try:
            text = data.decode("utf-8") if raw else str(data)
        except UnicodeDecodeError as exc:
            raise KernelFormatError(f"not valid UTF-8: {exc}") from None
        read = _document(_parse(text))
    labels, kind, reals = read
    algebra, n = _KINDS[kind], len(labels)
    return FiniteKernel._owning(labels, kind, reals.view(algebra.dtype).reshape((n, n) + algebra.shape))
