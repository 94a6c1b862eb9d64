import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sincov import GeneratorSpec, KernelError, generate, point_label


def test_constant_kernel():
    kernel = generate(GeneratorSpec("constant", value=-1.0, size=2))
    assert kernel.labels == ("x0", "x1")
    assert kernel.value_kind == "complex"
    assert np.all(kernel.table == -1.0)


def test_e1_grid_and_entries():
    kernel = generate(GeneratorSpec("e1", n=2, c=1.0))
    assert kernel.labels == ("2", "3", "4")
    assert kernel.value_at("2", "3").as_complex() == 0.5  # 2/(3+1)


@pytest.mark.parametrize("n,c", [(2, 1.0), (3, 0.5), (4, 2.0), (10, 1.0)])
def test_e1_sup_is_closed_form(n, c):
    kernel = generate(GeneratorSpec("e1", n=n, c=c))
    assert kernel.n == n * n - n + 1
    assert kernel.max_norm() == n * n / (n + c)


def test_ratio_identity_entries():
    kernel = generate(GeneratorSpec("ratio", samples=(1.0, 2.0, 4.0)))
    assert kernel.value_at("4", "2").as_complex() == 2.0
    assert kernel.value_at("1", "4").as_complex() == 0.25


def test_ratio_with_explicit_f_values():
    spec = GeneratorSpec("ratio", samples=(1.0, 2.0, 3.0), f_values=(1.0, 4.0, 9.0))
    kernel = generate(spec)
    assert kernel.value_at("2", "1").as_complex() == 4.0
    assert kernel.value_at("3", "2").as_complex() == 9.0 / 4.0


def test_e0_table():
    kernel = generate(GeneratorSpec("e0", samples=(1.0, 2.0, 10.0, 100.0)))
    pts = np.array([1.0, 2.0, 10.0, 100.0])
    np.testing.assert_array_equal(kernel.table.real, pts[:, None] / pts[None, :])
    assert np.all(kernel.table.imag == 0.0)


def test_mat2_ratio_entries():
    kernel = generate(GeneratorSpec("mat2_ratio", c0=2.0, samples=(1.0, 2.0)))
    m = kernel.value_at("1", "2").as_mat2()
    np.testing.assert_array_equal(m, [[0.5, 0.0], [0.0, 2.0]])


def test_moszner_constant_table():
    kernel = generate(GeneratorSpec("moszner", n=4, size=3))
    assert kernel.n == 3
    assert np.all(kernel.table == 0.25)


def test_perturbed_ratio_seed_determinism():
    spec = GeneratorSpec("perturbed_ratio", samples=tuple(range(1, 21)), eps=0.05, seed=3)
    k1, k2 = generate(spec), generate(spec)
    assert np.array_equal(k1.table, k2.table)
    k3 = generate(GeneratorSpec("perturbed_ratio", samples=tuple(range(1, 21)), eps=0.05, seed=4))
    assert not np.array_equal(k1.table, k3.table)


def test_perturbed_ratio_zero_eps_is_exact_ratio():
    base = generate(GeneratorSpec("ratio", samples=(1.0, 2.0, 5.0)))
    pert = generate(GeneratorSpec("perturbed_ratio", samples=(1.0, 2.0, 5.0), eps=0.0, seed=1))
    assert np.array_equal(base.table, pert.table)


def test_perturbation_stays_within_radius():
    spec = GeneratorSpec("perturbed_ratio", samples=tuple(range(1, 11)), eps=0.25, seed=5)
    base = generate(GeneratorSpec("ratio", samples=tuple(range(1, 11))))
    rel = np.abs(generate(spec).table / base.table - 1.0)
    assert float(rel.max()) <= 0.25


def test_ratio_with_subnormal_f_values():
    spec = GeneratorSpec("ratio", samples=(1, 2), f_values=(1e-310, 2e-310))
    assert generate(spec).table.tolist() == [[1.0, 0.5], [2.0, 1.0]]


def test_an_entry_beyond_float64_range_raises_without_a_warning():
    # u/v = 1e300/1e-300 overflows; the warning used to come before the error
    with pytest.raises(KernelError, match=r"non-finite entry at index \(1, 0\)"):
        generate(GeneratorSpec("mat2_ratio", c0=1.0, samples=(1e-300, 1e300)))


def test_specs_build_nothing_until_generated():
    # a check of every parameter, without the 10^12-point table it describes
    spec = GeneratorSpec("e1", n=10**6, c=1.0)
    assert (spec.n, spec.c) == (10**6, 1.0)


def test_point_label_rendering():
    assert point_label(2.0) == "2"
    assert point_label(2.5) == "2.5"
    assert point_label(0.1) == "0.1"
    assert float(point_label(1 / 3)) == 1 / 3  # round-trips


def test_scale_invariance_of_ratio_kernels():
    rng = np.random.default_rng(21)
    f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    pts = tuple(float(i) for i in range(1, 9))
    k1 = generate(GeneratorSpec("ratio", samples=pts, f_values=tuple(f)))
    k2 = generate(GeneratorSpec("ratio", samples=pts, f_values=tuple(3.7 * f)))
    np.testing.assert_allclose(k2.table, k1.table, rtol=1e-12)


@pytest.mark.parametrize(
    "spec_kwargs,match",
    [
        (dict(variant="constant", value=1.0), "size"),
        (dict(variant="constant", size=2), "value"),
        (dict(variant="ratio"), "samples"),
        (dict(variant="ratio", samples=(1.0, 0.0)), "nonzero"),
        (dict(variant="ratio", samples=(1.0, 1.0)), "duplicate"),
        (dict(variant="e1", n=1, c=1.0), "integer"),
        (dict(variant="e1", n=2, c=0.0), "positive"),
        (dict(variant="e0", samples=(0.5, 2.0)), r"\[1, inf\)"),
        (dict(variant="mat2_ratio", c0=-1.0, samples=(1.0,)), "positive"),
        (dict(variant="mat2_ratio", c0=1.0, samples=(0.0, 1.0)), "positive"),
        (dict(variant="moszner", n=0, size=2), "integer"),
        (dict(variant="perturbed_ratio", samples=(1.0, 2.0), eps=-0.1), "nonnegative"),
        (dict(variant="perturbed_ratio", samples=(1.0, 2.0), eps=1e308), r"2\*eps"),
        (dict(variant="perturbed_ratio", samples=(1.0, 2.0), eps=0.1, seed=-1), "seed"),
        (dict(variant="perturbed_ratio", samples=(1.0, 2.0), eps=0.1, seed=1.5), "seed"),
        (dict(variant="perturbed_ratio", samples=(1.0, 2.0), eps=0.1, seed="x"), "seed"),
        (dict(variant="e1", n=float("inf"), c=1.0), "integer"),
        (dict(variant="no_such_variant"), "variant"),
        (dict(variant="constant", value=float("inf"), size=2), "must be finite"),
        (dict(variant="ratio", samples=(float("nan"),)), "must be finite"),
        (dict(variant="ratio", samples=(1.0,), f_values=(float("inf"),)), "must be finite"),
        (dict(variant="mat2_ratio", c0=float("nan"), samples=(1.0,)), "must be finite"),
        (dict(variant="perturbed_ratio", samples=(1.0, 2.0), eps=float("inf")), "must be finite"),
    ],
)
def test_generator_validation(spec_kwargs, match):
    with pytest.raises(KernelError, match=match):
        GeneratorSpec(**spec_kwargs)


@pytest.mark.parametrize(
    "spec_kwargs",
    [
        dict(variant="ratio", samples=("1", "2")),
        dict(variant="ratio", samples=("a",)),
        dict(variant="ratio", samples=(1.0, 2.0), f_values=("1", "2")),
        dict(variant="ratio", samples=(1.0 + 0j, 2.0)),
        dict(variant="ratio", samples=(2.0, True)),
        dict(variant="ratio", samples=(1.0, 2.0), f_values=(1 + 0j, True)),
        dict(variant="ratio", samples=1.0),
        dict(variant="e1", n=2, c="1.5"),
        dict(variant="e1", n=2, c=(1.5,)),
        dict(variant="constant", value=True, size=2),
        dict(variant="constant", value="1+2j", size=2),
        dict(variant="moszner", n=True, size=2),
        dict(variant="moszner", n=2, size=True),
        dict(variant="mat2_ratio", c0=True, samples=(1.0,)),
        dict(variant="perturbed_ratio", samples=(1.0, 2.0), eps="0.1"),
        dict(variant="perturbed_ratio", samples=(1.0, 2.0), eps=0.1, seed=True),
    ],
    ids=repr,
)
def test_generator_parameters_follow_the_value_rule(spec_kwargs):
    """Only numbers are parameters: text, booleans and complex reals raise KernelError."""
    with pytest.raises(KernelError):
        GeneratorSpec(**spec_kwargs)


def test_e0_and_ratio_build_equal_tables():
    rng = np.random.default_rng(5)
    samples = tuple(float(p) for p in rng.uniform(1.0, 10.0, 60))
    e0, ratio = (generate(GeneratorSpec(variant, samples=samples)) for variant in ("e0", "ratio"))
    assert np.array_equal(e0.table, ratio.table)


@pytest.mark.parametrize("variant", ["ratio", "e0", "mat2_ratio"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_real_quotients_are_correctly_rounded(variant, data):
    """Every u/v of a real-sample generator is the exact quotient rounded once,
    wherever that is inside float64 range."""
    low = 1.0 if variant == "e0" else 5e-324
    samples = data.draw(st.lists(st.floats(min_value=low, max_value=sys.float_info.max),
                                 min_size=1, max_size=5, unique=True))
    try:
        exact = [[float(Fraction(u) / Fraction(v)) for v in samples] for u in samples]
    except OverflowError:  # a quotient beyond float64 range
        assume(False)
    if variant == "mat2_ratio":
        table = generate(GeneratorSpec(variant, c0=1.0, samples=tuple(samples))).table
        assert table[..., 0, 0].tolist() == exact
    else:
        table = generate(GeneratorSpec(variant, samples=tuple(samples))).table
        assert table.real.tolist() == exact and not table.imag.any()
