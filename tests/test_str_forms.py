"""str() of a fixed list of elements, pinned: the printed forms feed the
witnesses and claims of the JSON reports, so they must not drift."""

from fractions import Fraction

import pytest

from orefields.fields import GF, QQ, Qsqrt, with_parameter
from orefields.pdo import PdoSeries
from orefields.ratfunc import Derivation, FunctionField2, scaling_derivation
from orefields.skewpoly import SkewPoly


def _elements():
    out = []
    F9 = GF(3, 2)
    w = F9.gen()
    out += [("GF9 0", F9.zero()), ("GF9 1", F9.one()), ("GF9 w", w),
            ("GF9 2w+1", w * 2 + 1), ("GF9 w+2", w + 2), ("GF9 2w", w * 2)]
    F = GF(13, 3)
    v = F.gen()
    out += [("GF13^3 a", v ** 2 + v * 5 + 12), ("GF13^3 b", v ** 2 * 12),
            ("GF13^3 c", v * 7 + 1), ("GF13^3 d", v ** 2 + 1)]
    Q2 = Qsqrt(2)
    s = Q2.gen()
    out += [("Q2 a", -s * Fraction(1, 3) - Fraction(3, 2)), ("Q2 b", -s),
            ("Q2 c", s + Fraction(1, 2)), ("Q2 d", s * Fraction(2, 3)),
            ("Q2 e", Q2.coerce(Fraction(-5, 7))), ("Q2 f", 1 - s * 4)]
    for label, base in (("QQ", QQ()), ("GF3", GF(3)), ("Q2", Q2)):
        K = with_parameter(base)
        a = K.gen()
        c = K.coerce(Fraction(1, 2)) if base.char == 0 else K.from_int(2)
        out += [(f"{label}(a) a", (a ** 2 - c) / (a + 3)),
                (f"{label}(a) b", -a / (a * 2 + 1)),
                (f"{label}(a) c", (a * 2 + 1) * c),
                (f"{label}(a) d", 1 / (a ** 2 - a))]
    K = with_parameter(Q2)
    a = K.gen()
    out.append(("Q2(a) e", (a * s + 1) / (a - s)))

    ctx = FunctionField2(QQ())
    y, z = ctx.gens()
    out += [("QQ(y,z) a", -(y ** 2) * z + y - 1),
            ("QQ(y,z) b", (y * z - z) / (y + 1)),
            ("QQ(y,z) c", -y / (z ** 2 * 2)),
            ("QQ(y,z) d", y * Fraction(-3, 4) + z * Fraction(1, 2))]
    ctx2 = FunctionField2(Q2)
    y2, z2 = ctx2.gens()
    out.append(("Q2(y,z)", y2 * z2 * (1 + s) - z2 * Fraction(1, 2) - 1))
    K3 = with_parameter(GF(3))
    a3 = K3.gen()
    ctx3 = FunctionField2(K3, ("y", "t"))
    y3, t3 = ctx3.gens()
    out.append(("GF3(a)(y,t)", (y3 * a3 + t3 * ((a3 + 1) / (a3 + 2))) / (y3 + t3)))
    ctx9 = FunctionField2(F9)
    y9, z9 = ctx9.gens()
    out.append(("GF9(y,z)", y9 ** 2 * w + z9 * (w + 1) - y9))

    D = scaling_derivation(ctx, 1, 2)
    out += [("skew a", SkewPoly(D, {3: -ctx.one(), 2: y, 1: (y + z) / z, 0: y + 1})),
            ("skew b", SkewPoly(D, {1: ctx.one(), 0: -z / y})),
            ("skew c", SkewPoly(D, {2: y * 2, 0: -ctx.one()}))]
    delta = Derivation(ctx, y, y + z).negate()
    out += [("pdo a", PdoSeries(delta, {-2: -ctx.one(), -1: y, 0: y + z, 1: -ctx.one(),
                                        3: ctx.const(Fraction(1, 2))}, 4)),
            ("pdo b", PdoSeries(delta, {-1: -y / z, 2: ctx.one()}, 2)),
            ("pdo c", PdoSeries(delta, {}, 0))]
    return out


EXPECTED = {
    'GF9 0': '0',
    'GF9 1': '1',
    'GF9 w': 'w',
    'GF9 2w+1': '2*w+1',
    'GF9 w+2': 'w+2',
    'GF9 2w': '2*w',
    'GF13^3 a': 'w^2+5*w+12',
    'GF13^3 b': '12*w^2',
    'GF13^3 c': '7*w+1',
    'GF13^3 d': 'w^2+1',
    'Q2 a': '-3/2+(-1/3)*sqrt(2)',
    'Q2 b': '-sqrt(2)',
    'Q2 c': '1/2+sqrt(2)',
    'Q2 d': '(2/3)*sqrt(2)',
    'Q2 e': '-5/7',
    'Q2 f': '1+(-4)*sqrt(2)',
    'QQ(a) a': '(a^2-1/2)/(a+3)',
    'QQ(a) b': '((-1/2)*a)/(a+1/2)',
    'QQ(a) c': 'a+1/2',
    'QQ(a) d': '1/(a^2-a)',
    'GF3(a) a': '(a^2+1)/a',
    'GF3(a) b': 'a/(a+2)',
    'GF3(a) c': 'a+2',
    'GF3(a) d': '1/(a^2+2*a)',
    'Q2(a) a': '(a^2-1/2)/(a+3)',
    'Q2(a) b': '((-1/2)*a)/(a+1/2)',
    'Q2(a) c': 'a+1/2',
    'Q2(a) d': '1/(a^2-a)',
    'Q2(a) e': '(sqrt(2)*a+1)/(a-sqrt(2))',
    'QQ(y,z) a': '-y^2*z+y-1',
    'QQ(y,z) b': '(y*z-z)/(y+1)',
    'QQ(y,z) c': '((-1/2)*y)/z^2',
    'QQ(y,z) d': '(-3/4)*y+(1/2)*z',
    'Q2(y,z)': '(1+sqrt(2))*y*z+(-1/2)*z-1',
    'GF3(a)(y,t)': '(a*y+((a+1)/(a+2))*t)/(y+t)',
    'GF9(y,z)': 'w*y^2+2*y+(w+1)*z',
    'skew a': '-x^3+y*x^2+((y+z)/z)*x+(y+1)',
    'skew b': 'x-z/y',
    'skew c': '2*y*x^2-1',
    'pdo a': '-1*u^-2+y*u^-1+(y+z)-1*u+(1/2)*u^3+O(u^5)',
    'pdo b': '(-y/z)*u^-1+u^2+O(u^3)',
    'pdo c': 'O(u^1)',
}


@pytest.fixture(scope="module")
def elements():
    """The elements by label, built when the first test runs and not while
    pytest collects: a kernel fault that never returns then leaves a stuck
    test, whose stack `faulthandler_timeout` dumps, not a stuck collection."""
    out = dict(_elements())
    assert out.keys() == EXPECTED.keys()
    return out


# the id "label-" is the one each test had when the elements were built at
# collection and parametrised as (label, element)
@pytest.mark.parametrize("label", [pytest.param(label, id=f"{label}-") for label in EXPECTED])
def test_str_is_pinned(label, elements):
    assert str(elements[label]) == EXPECTED[label]
