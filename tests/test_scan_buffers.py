"""The defect scan evaluates every slab in per-worker buffers, all made in
the calling thread, with each two-term product of its values formed in one
einsum pass, or as two outer products where einsum fuses a multiply into the
sum; its reports must equal those of an unbuffered, broadcasting reference
scan bit for bit."""

import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    decreasing_slab_kernel,
    random_complex_kernel,
    random_mat2_kernel,
    unbuffered_defect_report,
    unbuffered_slabs,
    usable_cpus,
)
from sincov import (
    FiniteKernel, GeneratorSpec, diagonal_report, generate, save_kernel, slice_residual, sincov_defect,
)
from sincov import analysis
from sincov.cli import main
from sincov.kernel import (
    _COMPONENT_RANGE, _KINDS, _components, _components_in_range, _dot, _einsum_dot, _outer,
    _outer_dot, _rounds_once, _scaled, _scan_dot,
)

SIZES = (1, 2, 63, 64, 65, 130)  # around the smallest size scanned in parallel
RANDOM = {"complex": random_complex_kernel, "mat2": random_mat2_kernel}


def _kernels(kind: str, n: int):
    return {
        "random": RANDOM[kind](np.random.default_rng(n), n),
        "decreasing": decreasing_slab_kernel(kind, n, seed=n),
    }


@pytest.mark.parametrize("threads", ["1", "2", "3"])
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_buffered_scan_equals_unbuffered_reference(monkeypatch, kind, n, threads):
    usable_cpus(monkeypatch, 4)  # so the thread count is not capped
    monkeypatch.setenv("SINCOV_THREADS", threads)
    for name, kernel in _kernels(kind, n).items():
        expected = unbuffered_defect_report(kernel)
        got = sincov_defect(kernel)
        assert got == expected, name
        assert got.mean_defect.hex() == expected.mean_defect.hex(), name


@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_slab_maxima_fall_with_x(kind):
    kernel = decreasing_slab_kernel(kind, 65)
    c = sincov_defect(kernel).defect
    maxima = [slice_residual(kernel, lab, defect=c).lhs for lab in kernel.labels]
    assert maxima[0] == c
    assert all(later < earlier for earlier, later in zip(maxima, maxima[1:]))


@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_slice_residual_equals_the_reference_slab(kind):
    kernel = RANDOM[kind](np.random.default_rng(5), 7)
    for lab, D in zip(kernel.labels, unbuffered_slabs(kernel)):
        check = slice_residual(kernel, lab, defect=0.0)
        a, b = divmod(int(D.argmax()), kernel.n)
        assert check.lhs == D.max()
        assert check.witness == (kernel.labels[a], kernel.labels[b])


SPECIAL = np.array([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-200, -3.5, 1.0,
                    1e200, -1.7976931348623157e308, np.inf, -np.inf, np.nan])


def test_outer_products_equal_broadcast_multiplies():
    """Every product of zeros, subnormals, overflowing, infinite and NaN
    operands; only the sign of a zero product may differ."""
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        want = np.multiply(SPECIAL[:, None], SPECIAL[None, :])
        got = _outer(SPECIAL, SPECIAL, out=np.empty_like(want))
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    assert same.all()
    assert np.array_equal(np.signbit(got[got != 0]), np.signbit(want[want != 0]))


# the scan takes _einsum_dot where the probe finds it rounding as _dot does
WITH_EINSUM = pytest.mark.skipif(_scan_dot() is not _einsum_dot, reason="einsum fuses a multiply into a sum")
DOTS = [pytest.param(_outer_dot, id="outer"), pytest.param(_einsum_dot, id="einsum", marks=WITH_EINSUM)]


@pytest.mark.parametrize("dot", DOTS)
@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 80),
    st.integers(1, 80),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.2]),
    st.sampled_from([0.0, 0.05]),
    st.sampled_from([np.add, np.subtract]),
)
def test_two_term_products_equal_the_elementwise_form(dot, rows, cols, seed, zeros, specials, op):
    """op(x[i] y[j], z[i] w[j]) for operands +-m 2^e, e in [-540, 540], with
    signed zeros, infinities and NaN among them; products overflow and
    underflow.  Only the sign of a zero may differ."""
    rng = np.random.default_rng(seed)

    def draw(size):
        exponents = rng.integers(-540, 541, size)
        v = rng.choice([-1.0, 1.0], size) * np.ldexp(rng.uniform(1.0, 2.0, size), exponents)
        pick = rng.uniform(size=size)
        v[pick < zeros] = rng.choice([-0.0, 0.0], size)[pick < zeros]
        v[pick > 1.0 - specials] = rng.choice([np.inf, -np.inf, np.nan], size)[pick > 1.0 - specials]
        return v

    x, z, y, w = draw(rows), draw(rows), draw(cols), draw(cols)
    with np.errstate(all="ignore"):
        want = _dot(x[:, None], y, z[:, None], w, op)
        got = dot(x, y, z, w, op, out=np.empty((rows, cols)), scratch=np.empty((rows, cols)))
    assert ((got == want) | (np.isnan(got) & np.isnan(want))).all()


def _exact_einsum(fuse):
    """np.einsum of "ki,kj->ij" in exact fractions: each product rounded but
    product fuse (0, 1 or None), then the sum rounded once."""

    def einsum(subscripts, cols, rows, out):
        assert subscripts == "ki,kj->ij"
        for i, j in np.ndindex(out.shape):
            terms = [Fraction(cols[k, i]) * Fraction(rows[k, j]) for k in (0, 1)]
            out[i, j] = float(sum(t if k == fuse else Fraction(float(t)) for k, t in enumerate(terms)))
        return out

    return einsum


@pytest.mark.parametrize("fuse, rounds_once", [(None, True), (0, False), (1, False)])
def test_the_probe_tells_a_fused_einsum(monkeypatch, fuse, rounds_once):
    monkeypatch.setattr(np, "einsum", _exact_einsum(fuse))
    assert _rounds_once(_einsum_dot) is rounds_once


def _recorded_einsum(monkeypatch) -> list:
    """The subscripts of every np.einsum call from now on."""
    calls, einsum = [], np.einsum

    def recorded(subscripts, *operands, **kwargs):
        calls.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", recorded)
    return calls


@WITH_EINSUM
@pytest.mark.parametrize("kind, calls", [("complex", 2), ("mat2", 4)])
def test_a_slab_takes_one_einsum_per_product_component(monkeypatch, kind, calls):
    kernel = RANDOM[kind](np.random.default_rng(8), 9)
    monkeypatch.setenv("SINCOV_THREADS", "1")
    recorded = _recorded_einsum(monkeypatch)
    sincov_defect(kernel)
    assert recorded == ["ki,kj->ij"] * (calls * kernel.n)


def _tiny_component(kernel: FiniteKernel) -> FiniteKernel:
    table = kernel.table.copy()
    table.reshape(kernel.n, kernel.n, -1).view(np.float64)[3, 5, 1] = 1e-200
    return FiniteKernel(kernel.labels, kernel.value_kind, table)


@pytest.mark.parametrize("range_", ["in", "out"])
@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_a_fusing_einsum_leaves_the_scan_outer_products(monkeypatch, tmp_path, capsys, kind, range_):
    """With the probe's choice forced to "fused", the scan forms its products
    as outer products, and defect and check report the same bytes on one
    thread and on two as with einsum."""
    kernel = RANDOM[kind](np.random.default_rng(9), 70)  # scanned in parallel from 64 points
    kernel = kernel if range_ == "in" else _tiny_component(kernel)
    assert _components_in_range(kernel.table) == (range_ == "in")
    path = tmp_path / "kernel.json"
    path.write_bytes(save_kernel(kernel))
    usable_cpus(monkeypatch, 2)

    def reports():
        found = []
        for threads in ("1", "2"):
            monkeypatch.setenv("SINCOV_THREADS", threads)
            for command in ("defect", "check"):
                assert main([command, "-i", str(path)]) == 0
                found.append(capsys.readouterr().out)
        return found

    expected = reports()
    monkeypatch.setattr("sincov.analysis._scan_dot", lambda: _outer_dot)  # the probe's choice where einsum fuses
    recorded = _recorded_einsum(monkeypatch)
    assert reports() == expected
    assert expected[0::2] == [expected[0]] * 2 and expected[1::2] == [expected[1]] * 2
    assert recorded and set(recorded) == {"i,j->ij"}


def test_the_probe_runs_at_the_first_scan_and_once():
    """A process that imports sincov and never scans never runs the probe."""
    code = ("import sincov.cli, sincov.kernel as k; probe = k._scan_dot; print(probe.cache_info().misses); "
            "kernel = sincov.FiniteKernel(('a', 'b'), 'complex', [[1, 2], [3, 4]]); "
            "sincov.sincov_defect(kernel); sincov.sincov_defect(kernel); "
            "print(probe.cache_info().misses, probe.cache_info().hits)")
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "0\n1 1\n"), proc.stderr


@pytest.mark.parametrize("kind", ["complex", "mat2"])
def test_a_check_runs_the_range_test_once(monkeypatch, tmp_path, capsys, kind):
    """The defect pass and both in-place check families share one answer."""
    path = tmp_path / "kernel.json"
    path.write_bytes(save_kernel(RANDOM[kind](np.random.default_rng(3), 12)))
    tables = []
    in_range = _components_in_range
    monkeypatch.setattr("sincov.kernel._components_in_range", lambda t: tables.append(t) or in_range(t))
    assert main(["check", "-i", str(path)]) == 0
    capsys.readouterr()
    assert len(tables) == 1


# exact kernels: most terms are exactly zero, which the norms keep without
# rescaling; e0 has a few rounding-sized terms among them
EXACT_KERNELS = {
    "constant": GeneratorSpec("constant", value=1.0, size=70),
    "e0": GeneratorSpec("e0", samples=tuple(range(1, 71))),
    "mat2_ratio": GeneratorSpec("mat2_ratio", c0=1.0, samples=tuple(range(1, 71))),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("name", sorted(EXACT_KERNELS))
def test_exact_kernels_scan_to_the_unbuffered_report(monkeypatch, name, threads):
    usable_cpus(monkeypatch, 4)
    monkeypatch.setenv("SINCOV_THREADS", threads)
    kernel = generate(EXACT_KERNELS[name])
    expected = unbuffered_defect_report(kernel)
    got = sincov_defect(kernel)
    assert got == expected
    assert got.mean_defect.hex() == expected.mean_defect.hex()


# A kernel whose components are 0 or of modulus in _COMPONENT_RANGE is scanned
# with the norm's bare formula, in place; its reports must still equal the
# guarded reference's, and one component outside the range brings the guard back.
LO, HI = _COMPONENT_RANGE
TOP = 150  # the range is [2^-TOP, 2^TOP]
WIDTH = {"complex": 2, "mat2": 4}


def _draw(rng, shape, zeros: float, top: int = TOP, ends: float = 0.0) -> np.ndarray:
    """Components 0 (a share zeros), one of the range's ends (a share ends),
    or +-m 2^e with m in [1, 2) and e in [-top, top)."""
    sign = rng.choice([-1.0, 1.0], shape)
    v = sign * np.ldexp(rng.uniform(1.0, 2.0, shape), rng.integers(-top, top, shape))
    pick = rng.uniform(size=shape)
    v[pick < ends] = (sign * rng.choice([LO, HI], shape))[pick < ends]
    v[pick > 1.0 - zeros] = 0.0
    return v


def _range_kernel(kind: str, n: int, seed: int, zeros: float, near: int, outside: str | None):
    """Components drawn across the range.  near entries F(a, b) are then set
    within one ulp, per component, of F(a, x) F(x, b), whose factors are drawn
    again with exponents in [-74, 74) so that the product stays in range (a
    component of F(a, b) below it becomes 0).  outside puts one component just
    below or just above the range."""
    rng = np.random.default_rng(seed)
    k = WIDTH[kind]
    comps = _draw(rng, (n, n, k), zeros, ends=0.05)
    for a, x, b in rng.integers(0, n, (near, 3)):
        comps[a, x], comps[x, b] = _draw(rng, (2, k), zeros, top=74)
        product = np.array([float(v) for v in _KINDS[kind].mul(*comps[a, x], *comps[x, b])])
        step = rng.integers(-1, 2, k)
        ab = np.where(step == 0, product, np.nextafter(product, np.where(step > 0, np.inf, -np.inf)))
        comps[a, b] = np.where(np.abs(ab) >= LO, ab, 0.0)
    if outside is not None:
        edge = np.nextafter(LO, 0.0) if outside == "below" else np.nextafter(HI, np.inf)
        comps[tuple(rng.integers(0, d) for d in comps.shape)] = rng.choice([-1.0, 1.0]) * edge
    table = comps.view(np.complex128)[..., 0] if kind == "complex" else comps.reshape(n, n, 2, 2)
    return FiniteKernel(tuple(f"p{i}" for i in range(n)), kind, table)


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["complex", "mat2"]),
    st.integers(1, 70),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.1, 0.5]),
    st.integers(0, 40),
    st.sampled_from([None, None, "below", "above"]),
)
def test_scans_in_range_equal_the_guarded_reference(kind, n, seed, zeros, near, outside):
    kernel = _range_kernel(kind, n, seed, zeros, near, outside)
    assert _components_in_range(kernel.table) == (outside is None)
    expected = unbuffered_defect_report(kernel)
    for threads in ("1", "2"):
        with pytest.MonkeyPatch.context() as mp:
            usable_cpus(mp, 2)
            mp.setenv("SINCOV_THREADS", threads)
            got = sincov_defect(kernel)
            assert got == expected
            assert got.mean_defect.hex() == expected.mean_defect.hex()
            assert analysis._defect(kernel).hex() == expected.defect.hex()


def _working_set(monkeypatch, kernel, scan):
    """The number of (n, n) buffers in each buffer set that scan(kernel) made,
    and the number of rows that kernel._scaled rescaled, call by call.  Every
    (n, n) array that np.empty makes meanwhile must be made in the calling
    thread, before any worker starts."""
    made, rescaled, makers = [], [], []
    slab_buffers, empty = analysis._slab_buffers, np.empty

    def counted_buffers(*args):
        made.append(slab_buffers(*args))
        return made[-1]

    def counted_scaled(comps):
        rescaled.append(len(comps))
        return _scaled(comps)

    def recorded_empty(shape, *args, **kwargs):
        if shape == (kernel.n, kernel.n):
            makers.append((threading.current_thread(), threading.active_count()))
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr("sincov.analysis._slab_buffers", counted_buffers)
    monkeypatch.setattr("sincov.kernel._scaled", counted_scaled)
    monkeypatch.setattr(np, "empty", recorded_empty)
    threads = threading.active_count()
    scan(kernel)
    assert all(b.shape == (kernel.n, kernel.n) for out in made for d in out for b in d.values())
    assert makers == [(threading.main_thread(), threads)] * sum(sum(map(len, out)) for out in made)
    return [sum(map(len, out)) for out in made], rescaled


@pytest.mark.parametrize("scan", [sincov_defect, analysis._defect], ids=["report", "maximum"])
@pytest.mark.parametrize("kind, buffers", [("complex", 3), ("mat2", 5)])
def test_in_range_scan_workers_hold_the_product_buffers_alone(monkeypatch, kind, buffers, scan):
    usable_cpus(monkeypatch, 2)
    monkeypatch.setenv("SINCOV_THREADS", "2")
    kernel = RANDOM[kind](np.random.default_rng(6), 64)
    assert _working_set(monkeypatch, kernel, scan) == ([buffers, buffers], [])


@pytest.mark.parametrize("kind, buffers", [("complex", 3), ("mat2", 5)])
def test_diagonal_sides_take_one_set_of_product_buffers(monkeypatch, kind, buffers):
    kernel = RANDOM[kind](np.random.default_rng(7), 64)
    assert _working_set(monkeypatch, kernel, lambda k: diagonal_report(k, defect=0.0)) == ([buffers], [])


@pytest.mark.parametrize("kind, buffers", [("complex", 5), ("mat2", 8)])
def test_out_of_range_scan_workers_run_the_guard(monkeypatch, kind, buffers):
    # every term is about 1e-160, below both windows, so the guard rescales it
    usable_cpus(monkeypatch, 2)
    monkeypatch.setenv("SINCOV_THREADS", "2")
    shape = (64, 64) if kind == "complex" else (64, 64, 2, 2)
    kernel = FiniteKernel(tuple(f"p{i}" for i in range(64)), kind, np.full(shape, 1e-160))
    made, rescaled = _working_set(monkeypatch, kernel, sincov_defect)
    assert made == [buffers, buffers]
    assert sum(rescaled) == 64**3


def _unbuffered_diagonal(kernel):
    """diagonal_report's (lhs, witness) of diag_spread (complex only) and
    diag_product, from the guarded norm on fresh arrays."""
    mul, norm = _KINDS[kernel.value_kind].mul, _KINDS[kernel.value_kind].norm
    parts = _components(kernel.table, kernel.value_kind)
    diag = [np.diagonal(p) for p in parts]
    products = mul(*parts, *(p.T for p in parts))
    sides = {"diag_product": norm(*(q - d[:, None] for q, d in zip(products, diag)))}
    if kernel.value_kind == "complex":
        sides["diag_spread"] = norm(*(d[:, None] - d[None, :] for d in diag))
    found = {}
    for name, terms in sides.items():
        a, b = divmod(int(terms.argmax()), kernel.n)
        found[name] = (terms[a, b].hex(), (kernel.labels[a], kernel.labels[b]))
    return found


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["complex", "mat2"]),
    st.integers(1, 40),
    st.integers(0, 2**32 - 1),
    st.sampled_from([0.0, 0.1, 0.5]),
    st.sampled_from([None, "below", "above"]),
    st.sampled_from([0, -400]),
)
def test_diagonal_sides_in_one_buffer_set_equal_the_guarded_reference(kind, n, seed, zeros, outside, scale):
    """In range the terms are the bare formula's, in place; out of range,
    or scaled by 2^-400 so that products fall below the window, the guard's."""
    table = _range_kernel(kind, n, seed, zeros, 0, outside).table
    scaled = np.ldexp(table.view(np.float64), scale).view(table.dtype)
    kernel = FiniteKernel(tuple(f"p{i}" for i in range(n)), kind, scaled)
    got = {c.name: (c.lhs.hex(), c.witness) for c in diagonal_report(kernel, defect=0.0)
           if c.name != "diag_bound"}
    assert got == _unbuffered_diagonal(kernel)
