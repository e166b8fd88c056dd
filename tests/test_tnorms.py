import math
import random

import pytest

from bfre.tnorms import (
    _FAMILIES, _SS_SNAP, DomainError, Family, InvalidParameter, Kind, PreconditionViolated,
    _check_unit, _evaluator, evaluate, generator, pseudo_inverse, solve_u, validate,
)
from bfre.tolerance import EPS

TOL = 1e-9
GRID = [i / 10 for i in range(11)]

# Parameter test set intersected with each family's domain, plus the special
# branches (Hamacher alpha=0, negative Schweizer-Sklar, Sugeno-Weber at 0).
CASES = [
    ("product", None), ("einstein_product", None), ("lukasiewicz", None),
    ("frank", 0.5), ("frank", 2.0), ("frank", 5.0),
    ("yager", 0.5), ("yager", 1.0), ("yager", 2.0), ("yager", 5.0),
    ("hamacher", 0.0), ("hamacher", 0.5), ("hamacher", 1.0), ("hamacher", 2.0), ("hamacher", 5.0),
    ("dombi", 0.5), ("dombi", 1.0), ("dombi", 2.0), ("dombi", 5.0),
    ("schweizer_sklar", -2.0), ("schweizer_sklar", -0.5),
    ("schweizer_sklar", 0.5), ("schweizer_sklar", 1.0), ("schweizer_sklar", 2.0), ("schweizer_sklar", 5.0),
    ("sugeno_weber", -0.5), ("sugeno_weber", 0.0), ("sugeno_weber", 0.5),
    ("sugeno_weber", 1.0), ("sugeno_weber", 2.0), ("sugeno_weber", 5.0),
    ("aczel_alsina", 0.5), ("aczel_alsina", 1.0), ("aczel_alsina", 2.0), ("aczel_alsina", 5.0),
]


# Settings the closed forms cannot evaluate, which validate refuses.
EXTREME_PARAMS = [("frank", 1e-300), ("dombi", 1e61), ("schweizer_sklar", -933.0),
                  ("aczel_alsina", 1e300)]
# The outermost parameters of each bounded domain.
DOMAIN_EDGES = [("frank", 1e-9), ("frank", 1e12), ("yager", 0.01), ("yager", 100.0),
                ("hamacher", 1e-12), ("hamacher", 1e6), ("dombi", 0.01), ("dombi", 25.0),
                ("schweizer_sklar", -25.0), ("schweizer_sklar", 5.0),
                ("aczel_alsina", 0.01), ("aczel_alsina", 100.0)]


def all_tnorms():
    return [validate(f, p) for f, p in CASES]


class TestValidate:
    def test_yager_two_is_nilpotent(self):
        t = validate("yager", 2)
        assert t.family is Family.YAGER and t.param == 2 and t.kind is Kind.NILPOTENT

    def test_product_is_strict(self):
        assert validate("product").kind is Kind.STRICT

    def test_frank_one_rejected(self):
        with pytest.raises(InvalidParameter):
            validate("frank", 1)

    @pytest.mark.parametrize("family,param", [
        ("frank", 0.0), ("frank", -1.0), ("yager", 0.0), ("yager", -2.0),
        ("hamacher", -0.1), ("dombi", 0.0), ("schweizer_sklar", 0.0),
        ("sugeno_weber", -1.0), ("aczel_alsina", 0.0),
    ])
    def test_out_of_domain(self, family, param):
        with pytest.raises(InvalidParameter):
            validate(family, param)

    def test_missing_and_spurious_params(self):
        with pytest.raises(InvalidParameter):
            validate("yager")
        with pytest.raises(InvalidParameter):
            validate("product", 2.0)

    def test_unknown_family(self):
        with pytest.raises(InvalidParameter):
            validate("minimum")

    def test_enum_accepted(self):
        assert validate(Family.LUKASIEWICZ).kind is Kind.NILPOTENT

    @pytest.mark.parametrize("family,param", EXTREME_PARAMS)
    def test_extreme_parameters_refused(self, family, param):
        # the closed form of u raises on an ordinary cell at each of them
        with pytest.raises((ValueError, OverflowError)):
            _FAMILIES[Family(family)].u(param, 0.6, 0.25)
        with pytest.raises(InvalidParameter):
            validate(family, param)

    @pytest.mark.parametrize("family,param", DOMAIN_EDGES)
    def test_domain_edges_evaluate_and_solve_the_grid(self, family, param):
        t = validate(family, param)
        values = [k / 100 for k in range(101)] + [1.5 * EPS, 0.5 + 1.5 * EPS]
        for a in values:
            for b in values:
                assert 0.0 <= evaluate(t, a, b) <= 1.0, (a, b)
                if a >= b:
                    assert 0.0 <= solve_u(t, a, b) <= 1.0, (a, b)
        # u round-trips: the floats next to it bracket b (a > b > 0)
        for ka in range(2, 101):
            for kb in range(1, ka):
                a, b = ka / 100, kb / 100
                u = solve_u(t, a, b)
                below = max(0.0, math.nextafter(u, -1.0))
                above = min(1.0, math.nextafter(u, 2.0))
                assert evaluate(t, a, below) <= b + EPS, (a, b, u)
                assert evaluate(t, a, above) >= b - EPS, (a, b, u)

    @pytest.mark.parametrize("family,param", DOMAIN_EDGES)
    def test_just_past_domain_edges_refused(self, family, param):
        past = param * (0.99 if abs(param) < 1 else 1.01)   # 1% outward
        with pytest.raises(InvalidParameter):
            validate(family, past)

    def test_schweizer_sklar_kind_depends_on_sign(self):
        assert validate("schweizer_sklar", -1.0).kind is Kind.STRICT
        assert validate("schweizer_sklar", 1.0).kind is Kind.NILPOTENT

    @pytest.mark.parametrize("family,kind", [
        ("product", Kind.STRICT), ("einstein_product", Kind.STRICT),
        ("lukasiewicz", Kind.NILPOTENT),
    ])
    def test_fixed_kinds(self, family, kind):
        assert validate(family).kind is kind

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("family", ["frank", "yager", "hamacher", "dombi", "schweizer_sklar",
                                        "sugeno_weber", "aczel_alsina"])
    def test_non_finite_rejected(self, family, value):
        with pytest.raises(InvalidParameter, match=r"^" + family + r": parameter -?(inf|nan) not allowed \(finite "):
            validate(family, value)

    def test_one_record_per_family(self):
        assert set(_FAMILIES) == set(Family)


class TestEvaluate:
    def test_yager_identity(self):
        assert evaluate(validate("yager", 2), 1.0, 0.8) == pytest.approx(0.8, abs=TOL)

    def test_yager_closed_form(self):
        t = validate("yager", 2)
        assert evaluate(t, 0.8, 0.8) == pytest.approx(1 - math.sqrt(0.08), abs=TOL)

    def test_lukasiewicz_clamps(self):
        assert evaluate(validate("lukasiewicz"), 0.3, 0.4) == 0.0

    def test_domain_error(self):
        with pytest.raises(DomainError):
            evaluate(validate("product"), 1.2, 0.5)
        with pytest.raises(DomainError):
            evaluate(validate("product"), 0.5, -0.1)

    def test_nan_rejected(self):
        t = validate("yager", 2)
        with pytest.raises(DomainError, match=r"^x=nan outside \[0, 1\]$"):
            evaluate(t, math.nan, 0.5)
        with pytest.raises(DomainError, match=r"^y=nan outside \[0, 1\]$"):
            evaluate(t, 0.5, math.nan)


class TestGenerator:
    def test_product(self):
        t = validate("product")
        assert generator(t, 1.0) == 0.0
        assert generator(t, 0.0) == math.inf
        assert generator(t, 0.5) == pytest.approx(math.log(2), abs=TOL)

    def test_yager(self):
        assert generator(validate("yager", 2), 0.8) == pytest.approx(0.04, abs=TOL)

    def test_nan_rejected(self):
        with pytest.raises(DomainError, match=r"^x=nan outside \[0, 1\]$"):
            generator(validate("yager", 2), math.nan)

    @pytest.mark.parametrize("t", all_tnorms(), ids=str)
    def test_one_maps_to_zero(self, t):
        assert generator(t, 1.0) == pytest.approx(0.0, abs=TOL)

    @pytest.mark.parametrize("t", all_tnorms(), ids=str)
    def test_strictly_decreasing(self, t):
        vals = [generator(t, x) for x in GRID]
        for lo, hi in zip(vals[1:], vals):
            assert hi > lo or (hi == math.inf and lo == math.inf)

    @pytest.mark.parametrize("t", all_tnorms(), ids=str)
    def test_zero_divergence_matches_kind(self, t):
        if t.kind is Kind.STRICT:
            assert generator(t, 0.0) == math.inf
        else:
            assert math.isfinite(generator(t, 0.0))


class TestPseudoInverse:
    def test_lukasiewicz_clamped(self):
        assert pseudo_inverse(validate("lukasiewicz"), 1.5) == 0.0

    def test_yager_round_trip(self):
        assert pseudo_inverse(validate("yager", 2), 0.04) == pytest.approx(0.8, abs=TOL)

    @pytest.mark.parametrize("t", all_tnorms(), ids=str)
    def test_zero_maps_to_one(self, t):
        assert pseudo_inverse(t, 0.0) == pytest.approx(1.0, abs=TOL)

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            pseudo_inverse(validate("product"), -0.5)

    def test_nan_rejected(self):
        with pytest.raises(DomainError, match=r"^z=nan negative$"):
            pseudo_inverse(validate("yager", 2), math.nan)

    @pytest.mark.parametrize("t", all_tnorms(), ids=str)
    def test_inverts_generator(self, t):
        for x in GRID:
            assert pseudo_inverse(t, generator(t, x)) == pytest.approx(x, abs=1e-9)


class TestPastFloatRange:
    """Where a closed form leaves the float range, generator gives inf and
    pseudo_inverse gives 0, the limits the closed forms tend to."""

    @pytest.mark.parametrize("family, param, z", [
        ("einstein_product", None, 800.0), ("hamacher", 1.0, 1e300), ("hamacher", 0.5, 800.0),
    ])
    def test_pseudo_inverse_is_zero(self, family, param, z):
        assert pseudo_inverse(validate(family, param), z) == 0.0

    @pytest.mark.parametrize("family, param", [("dombi", 2.0), ("schweizer_sklar", -2.0)])
    def test_generator_is_inf(self, family, param):
        t = validate(family, param)
        assert generator(t, 1e-300) == math.inf
        assert pseudo_inverse(t, generator(t, 1e-300)) == 0.0


class TestSolveU:
    def test_yager_at_one(self):
        assert solve_u(validate("yager", 2), 1.0, 0.8) == pytest.approx(0.8, abs=TOL)

    def test_equal_arguments(self):
        assert solve_u(validate("yager", 2), 0.8, 0.8) == 1.0

    def test_product(self):
        assert solve_u(validate("product"), 0.5, 0.25) == pytest.approx(0.5, abs=TOL)

    def test_lukasiewicz_zero_rhs(self):
        assert solve_u(validate("lukasiewicz"), 0.7, 0.0) == pytest.approx(0.3, abs=TOL)

    def test_strict_zero_rhs(self):
        assert solve_u(validate("product"), 0.7, 0.0) == 0.0

    def test_precondition(self):
        with pytest.raises(PreconditionViolated):
            solve_u(validate("product"), 0.3, 0.5)


@pytest.mark.parametrize("t", all_tnorms(), ids=str)
class TestAxioms:
    def test_identity(self, t):
        for x in GRID:
            assert abs(evaluate(t, 1.0, x) - x) <= 1e-12

    def test_commutativity(self, t):
        for x in GRID:
            for y in GRID:
                assert abs(evaluate(t, x, y) - evaluate(t, y, x)) <= 1e-12

    def test_monotonicity(self, t):
        for x in GRID:
            prev = 0.0
            for y in GRID:
                cur = evaluate(t, x, y)
                assert cur >= prev - 1e-12
                prev = cur

    def test_associativity(self, t):
        pts = [0.0, 0.2, 0.5, 0.8, 1.0]
        for x in pts:
            for y in pts:
                for z in pts:
                    lhs = evaluate(t, x, evaluate(t, y, z))
                    rhs = evaluate(t, evaluate(t, x, y), z)
                    assert abs(lhs - rhs) <= 1e-9


@pytest.mark.parametrize("t", all_tnorms(), ids=str)
def test_generator_composition_matches_closed_form(t):
    for x in GRID:
        for y in GRID:
            composed = pseudo_inverse(t, generator(t, x) + generator(t, y))
            assert abs(evaluate(t, x, y) - composed) <= 1e-9


@pytest.mark.parametrize("t", all_tnorms(), ids=str)
def test_solve_u_solves_the_equation(t):
    for a in GRID:
        for b in GRID:
            if a < b:
                continue
            u = solve_u(t, a, b)
            if b > 0:
                assert abs(evaluate(t, a, u) - b) <= 1e-9
            else:
                # endpoint of the zero set: zero at u, positive just past it
                assert evaluate(t, a, u) <= 1e-12
                if u < 1.0:
                    assert evaluate(t, a, min(1.0, u + 1e-6)) > 0.0


@pytest.mark.parametrize("t", all_tnorms(), ids=str)
def test_solve_u_bound_properties(t):
    for a in GRID:
        for b in GRID:
            if a < b:
                continue
            u = solve_u(t, a, b)
            if a == b:
                assert u == 1.0
            elif b > 0 and a == 1.0:
                assert u == pytest.approx(b, abs=TOL)
            elif 0 < b < a < 1:
                assert b < u < 1


@pytest.mark.parametrize("t", all_tnorms(), ids=str)
def test_solve_u_matches_generator_route(t):
    # closed forms against the subtraction route through the generator
    for a in GRID:
        for b in GRID:
            if a <= b or b == 0.0:
                continue
            via_generator = pseudo_inverse(t, generator(t, b) - generator(t, a))
            assert abs(solve_u(t, a, b) - via_generator) <= 1e-9


# Settings where the closed forms, unclamped, round a few ulp above min(x, y).
EXTREME_CASES = [("yager", 30.0), ("aczel_alsina", 20.0), ("dombi", 20.0),
                 ("schweizer_sklar", -15.0)]
# The customary parameters the benchmark runs (one per family, both signs of
# Schweizer-Sklar).
BENCHMARK_CASES = [
    ("product", None), ("einstein_product", None), ("lukasiewicz", None),
    ("frank", 2.0), ("yager", 2.0), ("hamacher", 1.0), ("dombi", 2.0),
    ("schweizer_sklar", -1.0), ("schweizer_sklar", 2.0), ("sugeno_weber", 1.0),
    ("aczel_alsina", 2.0),
]


@pytest.mark.parametrize("family,param", BENCHMARK_CASES)
def test_benchmark_parameters_accepted(family, param):
    assert validate(family, param).param == param


@pytest.mark.parametrize("t", [validate(f, p) for f, p in CASES + EXTREME_CASES], ids=str)
def test_tiny_arguments_evaluate_below_min(t):
    # a closed form that overflows at a tiny argument reads T = 0 there
    grid = [k / 100 for k in range(101)]
    for tiny in (1e-160, 1e-300, 5e-324):
        for v in grid:
            for x, y in ((tiny, v), (v, tiny)):
                assert 0.0 <= evaluate(t, x, y) <= min(x, y), (x, y)


def _unit_pairs(tag):
    """The 0.05 grid squared plus 4,000 seeded uniform pairs."""
    grid = [i / 20 for i in range(21)]
    rng = random.Random(f"unit_pairs:{tag}")
    return ([(x, y) for x in grid for y in grid]
            + [(rng.random(), rng.random()) for _ in range(4000)])


def _chain_t(t, x, y):
    """The closed forms of T for 0 < x, y < 1 as the former if/elif chain
    over the family wrote them, before any clamp."""
    f, p = t.family, t.param
    if f is Family.PRODUCT:
        return x * y
    if f is Family.EINSTEIN_PRODUCT:
        return x * y / (2.0 - (x + y - x * y))
    if f is Family.LUKASIEWICZ:
        return max(0.0, x + y - 1.0)
    if f is Family.FRANK:
        return math.log1p(math.expm1(x * math.log(p)) * math.expm1(y * math.log(p)) / (p - 1.0)) / math.log(p)
    if f is Family.YAGER:
        return max(0.0, 1.0 - ((1.0 - x) ** p + (1.0 - y) ** p) ** (1.0 / p))
    if f is Family.HAMACHER:
        num = x * y
        return 0.0 if num == 0.0 else num / (p + (1.0 - p) * (x + y - num))
    if f is Family.DOMBI:
        s = ((1.0 - x) / x) ** p + ((1.0 - y) / y) ** p
        return 1.0 / (1.0 + s ** (1.0 / p))
    if f is Family.SCHWEIZER_SKLAR:
        if p < 0:
            return (x ** p + y ** p - 1.0) ** (1.0 / p)
        base = math.fsum((x ** p, y ** p, -1.0))
        if abs(base) <= _SS_SNAP:
            base = 0.0
        return 0.0 if base <= 0.0 else base ** (1.0 / p)
    if f is Family.SUGENO_WEBER:
        return max(0.0, (x + y - 1.0 + p * x * y) / (1.0 + p))
    if f is Family.ACZEL_ALSINA:
        return math.exp(-(((-math.log(x)) ** p + (-math.log(y)) ** p) ** (1.0 / p)))
    raise AssertionError(f)


def _unclamped_closed_form(t, x, y):
    """The kernel's formulas clamped into [0, 1] only, as before the
    min(x, y) clamp."""
    if x == 1.0:
        return y
    if y == 1.0:
        return x
    if x == 0.0 or y == 0.0:
        return 0.0
    return min(1.0, max(0.0, _chain_t(t, x, y)))


class TestKernelBelowMin:
    """T(x, y) <= min(x, y) holds exactly in floats; the verifier's skip
    rule relies on it."""

    @pytest.mark.parametrize("t", [validate(f, p) for f, p in CASES + EXTREME_CASES], ids=str)
    def test_never_above_min(self, t):
        for x, y in _unit_pairs(str(t)):
            assert _evaluator(t)(x, y) <= min(x, y), (x, y)

    @pytest.mark.parametrize("t", [validate(f, p) for f, p in EXTREME_CASES], ids=str)
    def test_extreme_settings_need_the_clamp(self, t):
        # the unclamped formulas do break the axiom here, so the clamp binds
        pairs = _unit_pairs(str(t))
        assert any(_unclamped_closed_form(t, x, y) > min(x, y) for x, y in pairs)

    @pytest.mark.parametrize("t", [validate(f, p) for f, p in BENCHMARK_CASES], ids=str)
    def test_benchmark_settings_bit_identical_to_unclamped(self, t):
        for x, y in _unit_pairs(str(t)):
            assert evaluate(t, x, y).hex() == _unclamped_closed_form(t, x, y).hex(), (x, y)


def _chain_closed_form_u(t, a, b):
    """The closed forms for a > b > 0 as the former if/elif chain over the
    family wrote them."""
    f, p = t.family, t.param
    if f is Family.PRODUCT:
        return b / a
    if f is Family.EINSTEIN_PRODUCT:
        return (2.0 - a) * b / (a + b - a * b)
    if f is Family.LUKASIEWICZ:
        return 1.0 + b - a
    if f is Family.FRANK:
        ls = math.log(p)
        return math.log1p(math.expm1(b * ls) * (p - 1.0) / math.expm1(a * ls)) / ls
    if f is Family.YAGER:
        d = max(0.0, (1.0 - b) ** p - (1.0 - a) ** p)
        return 1.0 - d ** (1.0 / p)
    if f is Family.SUGENO_WEBER:
        return ((1.0 + p) * b + 1.0 - a) / (1.0 + p * a)
    if f is Family.DOMBI:
        d = max(0.0, ((1.0 - b) / b) ** p - ((1.0 - a) / a) ** p)
        return 1.0 / (1.0 + d ** (1.0 / p))
    if f is Family.ACZEL_ALSINA:
        d = max(0.0, (-math.log(b)) ** p - (-math.log(a)) ** p)
        return math.exp(-(d ** (1.0 / p)))
    if f is Family.SCHWEIZER_SKLAR:
        base = math.fsum((1.0, b ** p, -(a ** p)))
        if p > 0:
            base = max(0.0, base)
        return base ** (1.0 / p)
    if f is Family.HAMACHER:
        return (p + (1.0 - p) * a) * b / (a - (1.0 - p) * (1.0 - a) * b)
    raise AssertionError(f)


def _chain_solve_u(t, a, b):
    """``solve_u`` as it was on the former chain: the same checks, branches
    and clamps."""
    a = _check_unit("a", a)
    b = _check_unit("b", b)
    if a < b - EPS:
        raise PreconditionViolated(f"a={a!r} < b={b!r}")
    if abs(a - b) <= EPS:
        return 1.0
    if b <= EPS:
        if t.kind is Kind.STRICT:
            return 0.0
        return pseudo_inverse(t, generator(t, 0.0) - generator(t, a))
    return min(1.0, max(0.0, _chain_closed_form_u(t, a, b)))


def _chain_generator(t, x):
    """``generator`` as the former if/elif chain over the family wrote it."""
    x = _check_unit("x", x)
    f, p = t.family, t.param
    if x == 0.0 and t.kind is Kind.STRICT:
        return math.inf
    if f is Family.PRODUCT:
        return -math.log(x)
    if f is Family.EINSTEIN_PRODUCT:
        return math.log((2.0 - x) / x)
    if f is Family.LUKASIEWICZ:
        return 1.0 - x
    if f is Family.FRANK:
        return math.log((p - 1.0) / math.expm1(x * math.log(p)))
    if f is Family.YAGER:
        return (1.0 - x) ** p
    if f is Family.HAMACHER:
        if p == 0.0:
            return (1.0 - x) / x
        return math.log((p + (1.0 - p) * x) / x)
    if f is Family.DOMBI:
        return ((1.0 - x) / x) ** p
    if f is Family.SCHWEIZER_SKLAR:
        return (1.0 - x ** p) / p
    if f is Family.SUGENO_WEBER:
        if p == 0.0:
            return 1.0 - x
        return 1.0 - math.log1p(p * x) / math.log1p(p)
    if f is Family.ACZEL_ALSINA:
        return (-math.log(x)) ** p
    raise AssertionError(f)


def _chain_inverse(t, z):
    """The true generator inverse as the former if/elif chain over the
    family wrote it, with its z == inf guards."""
    f, p = t.family, t.param
    if f is Family.PRODUCT:
        return math.exp(-z)
    if f is Family.EINSTEIN_PRODUCT:
        return 0.0 if z == math.inf else 2.0 / (1.0 + math.exp(z))
    if f is Family.LUKASIEWICZ:
        return 1.0 - z
    if f is Family.FRANK:
        return math.log1p((p - 1.0) * math.exp(-z)) / math.log(p)
    if f is Family.YAGER:
        return 1.0 - z ** (1.0 / p)
    if f is Family.HAMACHER:
        if p == 0.0:
            return 0.0 if z == math.inf else 1.0 / (1.0 + z)
        return 0.0 if z == math.inf else p / (p - 1.0 + math.exp(z))
    if f is Family.DOMBI:
        return 0.0 if z == math.inf else 1.0 / (1.0 + z ** (1.0 / p))
    if f is Family.SCHWEIZER_SKLAR:
        base = 1.0 - p * z
        if abs(base) <= _SS_SNAP:
            base = 0.0
        if p > 0:
            base = max(0.0, base)
        return base ** (1.0 / p)
    if f is Family.SUGENO_WEBER:
        if p == 0.0:
            return 1.0 - z
        return math.expm1((1.0 - z) * math.log1p(p)) / p
    if f is Family.ACZEL_ALSINA:
        return math.exp(-(z ** (1.0 / p)))
    raise AssertionError(f)


def _chain_pseudo_inverse(t, z):
    """``pseudo_inverse`` on the former chains: the same cut-off and clamp."""
    if not z >= -EPS:
        raise DomainError(f"z={z!r} negative")
    z = max(0.0, z)
    if z > _chain_generator(t, 0.0):
        return 0.0
    return min(1.0, max(0.0, _chain_inverse(t, z)))


def _chain_evaluate(t, x, y):
    """``evaluate`` on the former chain: the same checks, boundary axioms
    and min(x, y) clamp."""
    x = _check_unit("x", x)
    y = _check_unit("y", y)
    if x == 1.0:
        return y
    if y == 1.0:
        return x
    if x == 0.0 or y == 0.0:
        return 0.0
    return min(x, y, max(0.0, _chain_t(t, x, y)))


def _outcome(fn, *args):
    """A float result as hex, or the exception's type and text."""
    try:
        return fn(*args).hex()
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def _past_range(outcome, limit):
    """A chain's outcome, with its OverflowError read as the limit the
    closed form tends to there."""
    if isinstance(outcome, tuple) and outcome[0] == "OverflowError":
        return limit.hex()
    return outcome


class TestKernelMatchesChain:
    """The per-family table and the bound kernel give the former chain's
    u to the bit, and the same errors."""

    @pytest.mark.parametrize("t", [validate(f, p) for f, p in CASES + EXTREME_CASES], ids=str)
    def test_bit_identical(self, t):
        pairs = [(max(x, y), min(x, y)) for x, y in _unit_pairs(f"chain:{t}")]
        grid = [i / 20 for i in range(21)]
        rng = random.Random(f"chain_edges:{t}")
        pairs += [(x, x) for x in grid] + [(x, 0.0) for x in grid]
        pairs += [(v, v) for v in (rng.random() for _ in range(200))]
        pairs += [(rng.random(), 0.0) for _ in range(200)]
        # b within EPS of 0, a within EPS of b, and both sides of the EPS
        # bands around 0 and 1
        pairs += [(rng.random(), EPS * rng.random()) for _ in range(100)]
        pairs += [(rng.random(), EPS) for _ in range(50)]
        pairs += [(v + EPS * rng.uniform(-1.0, 1.0), v) for v in (rng.random() for _ in range(100))]
        pairs += [(1.0 + EPS / 2, 0.5), (0.5, -EPS / 2), (1.0 + EPS / 2, 1.0 + EPS / 2),
                  (-0.0, -0.0), (0.3, -0.0), (1.0, 1.0 - EPS), (EPS, 0.0)]
        for a, b in pairs:
            assert solve_u(t, a, b).hex() == _chain_solve_u(t, a, b).hex(), (a, b)

    @pytest.mark.parametrize("t", [validate(f, p) for f, p in CASES + EXTREME_CASES], ids=str)
    def test_same_errors(self, t):
        bad = [(1.5, 0.5), (-0.1, 0.0), (0.5, 1.2), (0.5, -0.5), (1.0 + 2 * EPS, 0.5),
               (0.3, 0.5), (0.5, 0.5 + 2 * EPS), (0.0, 0.5), (2.0, 3.0), (math.nan, 0.5)]
        for a, b in bad:
            got = _outcome(solve_u, t, a, b)
            assert got == _outcome(_chain_solve_u, t, a, b), (a, b)
        with pytest.raises(DomainError, match=r"^a=1\.5 outside \[0, 1\]$"):
            solve_u(t, 1.5, 0.5)
        with pytest.raises(DomainError, match=r"^b=-0\.5 outside \[0, 1\]$"):
            solve_u(t, 0.5, -0.5)
        with pytest.raises(PreconditionViolated, match=r"^a=0\.3 < b=0\.5$"):
            solve_u(t, 0.3, 0.5)


class TestRecordsMatchChains:
    """The per-family records give the former chains' T, generator and
    pseudoinverse to the bit, and the same errors."""

    EDGES = [0.0, 1.0, EPS / 2, -EPS / 2, 1.0 + EPS / 2, 1.0 - EPS / 2, -0.0, 1e-300, 5e-324]
    BAD = [1.5, -0.1, 1.0 + 2 * EPS, -2 * EPS, math.nan]

    @pytest.mark.parametrize("t", [validate(f, p) for f, p in CASES + EXTREME_CASES], ids=str)
    def test_evaluate(self, t):
        pairs = _unit_pairs(f"records:{t}")
        pairs += [(x, y) for x in self.EDGES + self.BAD for y in self.EDGES + [0.3, 0.7]]
        pairs += [(0.3, v) for v in self.BAD]
        for x, y in pairs:
            expected = _past_range(_outcome(_chain_evaluate, t, x, y), 0.0)
            assert _outcome(evaluate, t, x, y) == expected, (x, y)

    @pytest.mark.parametrize("t", [validate(f, p) for f, p in CASES + EXTREME_CASES], ids=str)
    def test_generator(self, t):
        rng = random.Random(f"records_g:{t}")
        xs = [i / 20 for i in range(21)] + self.EDGES + self.BAD
        xs += [rng.random() for _ in range(2000)]
        for x in xs:
            expected = _past_range(_outcome(_chain_generator, t, x), math.inf)
            assert _outcome(generator, t, x) == expected, x

    @pytest.mark.parametrize("t", [validate(f, p) for f, p in CASES + EXTREME_CASES], ids=str)
    def test_pseudo_inverse(self, t):
        rng = random.Random(f"records_z:{t}")
        zs = [0.0, -0.0, math.inf, 1e300, 1.0, 50.0, 800.0, -EPS / 2, -2 * EPS, -1.0, math.nan]
        zs += [rng.expovariate(0.5) for _ in range(2000)]
        zs += [_chain_generator(t, x) for x in [i / 20 for i in range(21)]]
        for z in zs:
            expected = _past_range(_outcome(_chain_pseudo_inverse, t, z), 0.0)
            assert _outcome(pseudo_inverse, t, z) == expected, z
        with pytest.raises(DomainError, match=r"^z=-1\.0 negative$"):
            pseudo_inverse(t, -1.0)
        with pytest.raises(DomainError, match=r"^x=1\.5 outside \[0, 1\]$"):
            generator(t, 1.5)
