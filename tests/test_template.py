"""Template classes: one shared circuit per class, members as parameter vectors."""

import importlib
from itertools import product

import pytest

from szpit import avoid
from szpit.avoid import AvoidInstance, amplify, build_avoid_class, desk_schedule, normalize
from szpit.circuit import Gate, circuit, plug_params, representation_size
from szpit.classes import all_circuits_class, linear_class, monomial_class, multilinear_class
from szpit.errors import PreconditionError
from szpit.evaluator import eval_gates
from szpit.hitting import DefinableClass, HittingSet, search_hitting_set, verify_hitting_set
from szpit.rng import Rng

from helpers import count_degree_passes
from oracles import int_to_bits, naive_eval


def avoid_parts(a, seed=7):
    rng = Rng(seed, f"template:{a}")
    b = 2 * a + rng.randint(0, 8)
    inst = AvoidInstance(a, b, tuple(rng.randint(1, b) for _ in range(a)))
    g, _ = normalize(inst)
    sched = desk_schedule(g.in_bits)
    return amplify(g, sched.t_prime - g.in_bits), sched


def avoid_class(a):
    return build_avoid_class(*avoid_parts(a))


def high_degree_class():
    template = circuit([Gate.var(1), Gate.param(1), Gate.mul(0, 0), Gate.mul(2, 1)])
    return DefinableClass(
        decoder=None, template=template, params_of=lambda x: int(x), n=1, d=1, s=0, m=1,
    )


def wide_class():
    template = circuit([Gate.var(1), Gate.var(2), Gate.param(1), Gate.mul(0, 2)])
    return DefinableClass(
        decoder=None, template=template, params_of=lambda x: int(x), n=1, d=1, s=4096, m=1,
    )


CLASSES = {
    "avoid-m1": lambda: avoid_class(2),
    "avoid-m2": lambda: avoid_class(4),
    "avoid-m3": lambda: avoid_class(8),
    "multilinear": lambda: multilinear_class(2, d=2),
    "linear": lambda: linear_class(3),
    "monomial": lambda: monomial_class(3),
    "high-degree": high_degree_class,
    "wide": wide_class,
}


@pytest.mark.parametrize("name", sorted(CLASSES))
def test_template_members_match_plugged_members(name):
    cls = CLASSES[name]()
    rng = Rng(421, f"template-diff:{name}")
    zero_point = (0,) * cls.n
    fitting = 0
    for x in cls.descriptions():
        # Params come packed; plug their bits.
        params = cls.params_of(x)
        bits = int_to_bits(params, cls.template.n_params)
        member = plug_params(cls.template, dict(enumerate(bits, 1)))
        in_slice = cls._in_ckt(member)
        ckt, got = cls.decode(x)
        if in_slice:
            fitting += 1
            # Each param use writes one digit, as in the all-zero member,
            # whose size these classes take as s.
            assert representation_size(member) == cls.s
            assert ckt is cls.template and got == params
            assert cls.member(x) == member
        else:
            assert got == 0 and eval_gates(ckt, zero_point) == 0
        for _ in range(3):
            point = tuple(rng.randint(-20, 20) for _ in range(cls.n))
            want = naive_eval(member, point) if in_slice else 0
            assert eval_gates(ckt, point, got) == want
    if name in ("high-degree", "wide"):
        assert fitting == 0
    else:
        assert fitting == 2**cls.m


def test_a_template_larger_than_s_decodes_to_the_zero_member():
    fitting = multilinear_class(2, d=2)
    cls = DefinableClass(
        decoder=None, template=fitting.template, params_of=fitting.params_of,
        n=2, d=2, s=fitting.s - 8, m=fitting.m,
    )
    for x in cls.descriptions():
        ckt, params = cls.decode(x)
        assert params == 0 and ckt.n_params == 0
        assert eval_gates(ckt, (3, 5)) == 0


def test_a_class_compiles_its_template_only_when_members_use_it():
    fitting = multilinear_class(2, d=2)
    assert fitting.template._program.run is not None
    h, sched = avoid_parts(16)
    assert build_avoid_class(h, sched).template._program.run is not None
    # Past s every member is the zero member, so the template is never run.
    unfitting = DefinableClass(
        decoder=None, template=circuit(fitting.template.gates), params_of=fitting.params_of,
        n=2, d=2, s=fitting.s - 8, m=fitting.m,
    )
    assert unfitting.template._program is None


@pytest.mark.parametrize("params", [(1,), [1], (), True])
def test_params_other_than_an_int_are_refused(params):
    template = circuit([Gate.var(1), Gate.param(1), Gate.mul(0, 1)])
    cls = DefinableClass(
        decoder=None, template=template, params_of=lambda x: params, n=1, d=1, s=0, m=1,
    )
    with pytest.raises(PreconditionError, match="params_of\\('1'\\)"):
        cls.decode("1")


def test_verifying_an_avoid_class_analyses_its_template_once(monkeypatch):
    h, sched = avoid_parts(16)
    first = build_avoid_class(h, sched)
    h_set = search_hitting_set(first, sched.q, sched.r, seed=5)
    calls = count_degree_passes(monkeypatch)
    cls = build_avoid_class(h, sched)
    assert cls.m == 4
    assert verify_hitting_set(cls, h_set).hits  # all 16 members checked
    # The schedule's template, and the analysis kept on it, are cached.
    assert calls == []
    assert cls.template is first.template


def test_first_avoid_class_after_a_cache_clear_analyses_once(monkeypatch):
    h, sched = avoid_parts(16)
    avoid._member_gates.cache_clear()
    calls = count_degree_passes(monkeypatch)
    cls = build_avoid_class(h, sched)
    assert calls == [cls.template]
    assert build_avoid_class(h, sched).template is cls.template
    assert calls == [cls.template]


def test_avoid_classes_on_one_schedule_write_the_template_text_once(monkeypatch):
    h, sched = avoid_parts(16)
    avoid._member_gates.cache_clear()
    circuit_mod = importlib.import_module("szpit.circuit")
    writes = []
    real = circuit_mod._write_text

    def counting(c):
        writes.append(c)
        return real(c)

    monkeypatch.setattr(circuit_mod, "_write_text", counting)
    first = build_avoid_class(h, sched)
    second = build_avoid_class(h, sched)
    assert second.template is first.template
    assert writes == [first.template]
    assert first.s == second.s


def test_avoid_classes_on_one_schedule_count_the_param_digits_once(monkeypatch):
    # The digit total is kept on the shared template: a second class reads
    # it back, where a second scan of the gates would overwrite the mark
    # below.  Each class still measures the template by serialize_circuit.
    h, sched = avoid_parts(16)
    avoid._member_gates.cache_clear()
    circuit_mod = importlib.import_module("szpit.circuit")
    serialized = []
    real = circuit_mod.serialize_circuit
    monkeypatch.setattr(circuit_mod, "serialize_circuit", lambda c: serialized.append(c) or real(c))
    first = build_avoid_class(h, sched)
    t = first.template
    assert t._param_digits == sum(len(str(k)) for k in range(1, t.n_params + 1))
    object.__setattr__(t, "_param_digits", t._param_digits + 1)
    try:
        second = build_avoid_class(h, sched)
    finally:
        avoid._member_gates.cache_clear()  # drop the marked template
    assert second.template is t
    assert second.s == first.s - 8
    assert serialized == [t, t]


def test_avoid_class_size_matches_the_all_zero_member():
    cls = avoid_class(4)
    zero_member = plug_params(cls.template, {k: 0 for k in range(1, cls.template.n_params + 1)})
    assert cls.s == representation_size(zero_member)


def many_params_template():
    """x1 * (p1 + ... + p12 + p3 + p10 + p12): two-digit parameter names,
    and three params written twice."""
    names = list(range(1, 13)) + [3, 10, 12]
    gates = [Gate.var(1)] + [Gate.param(k) for k in names]
    total = 1
    for i in range(2, len(names) + 1):
        gates.append(Gate.add(total, i))
        total = len(gates) - 1
    gates.append(Gate.mul(0, total))
    return circuit(gates)


def many_params_class(s, R=0):
    return DefinableClass(
        decoder=None, template=many_params_template(), params_of=lambda x: R,
        n=1, d=1, s=s, m=1,
    )


def test_zero_member_size_is_read_from_the_template_text():
    cls = many_params_class(s=0)
    zero_member = plug_params(cls.template, dict.fromkeys(range(1, 13), 0))
    assert cls.s == representation_size(zero_member)
    free = circuit([Gate.var(1), Gate.mul(0, 0)])
    no_params = DefinableClass(
        decoder=None, template=free, params_of=lambda x: 0, n=1, d=2, s=0, m=1,
    )
    assert no_params.s == representation_size(free)
    assert no_params.member("1") is no_params.template


@pytest.mark.parametrize("edge", [0, 9, 10, -1, 10**20])
def test_member_size_at_the_one_digit_edges(edge):
    # Packed R = 9 and R = 10 differ in digits but not in member size:
    # each of the 15 param uses (p3, p10 and p12 twice) writes one digit.
    # An R that is no 12-bit vector gives the zero member.
    cls = many_params_class(s=0, R=edge)
    member = cls.member("1")
    if 0 <= edge < 1 << 12:
        bits = int_to_bits(edge, 12)
        assert member == plug_params(cls.template, dict(enumerate(bits, 1)))
        assert representation_size(member) == cls.s
    else:
        assert member.n_params == 0 and eval_gates(member, (7,)) == 0


def test_packed_params_outside_the_template_give_the_zero_member():
    # p1 * x1 with packed params: 0 and 1 are members; a negative R, or an
    # R with a bit past p1, is no parameter vector of the template.
    template = circuit([Gate.var(1), Gate.param(1), Gate.mul(0, 1)])
    packed = {"00": 0, "01": 1, "10": -1, "11": 2}
    cls = DefinableClass(
        decoder=None, template=template, params_of=packed.__getitem__,
        n=1, d=1, s=0, m=2,
    )
    assert representation_size(cls.member("01")) == representation_size(cls.member("00")) == cls.s
    for x, params in packed.items():
        ckt, got = cls.decode(x)
        if params in (0, 1):
            assert ckt is cls.template and got == params
            assert cls.member(x) == plug_params(template, {1: params})
        else:
            assert got == 0 and cls.member(x) == ckt
            assert eval_gates(ckt, (5,)) == 0


def test_decoder_classes_present_members_without_params():
    cls = all_circuits_class(n=2, d=2, s=2048, m=4)
    for x in cls.descriptions():
        ckt, params = cls.decode(x)
        assert params == 0 and cls.member(x) == ckt


def test_a_class_needs_exactly_one_presentation():
    template = circuit([Gate.var(1), Gate.param(1), Gate.mul(0, 1)])
    with pytest.raises(PreconditionError):
        DefinableClass(decoder=lambda x: template, template=template,
                       params_of=lambda x: 1, n=1, d=1, s=4096, m=1)
    with pytest.raises(PreconditionError):
        DefinableClass(decoder=None, n=1, d=1, s=4096, m=1)


def test_template_hitting_set_verdicts_match_plugged_members():
    # The same class as a template and as a decoder of plugged members
    # gives the same verdict and miss on every single-point H.
    tmpl = multilinear_class(2, d=2)
    plain = DefinableClass(decoder=tmpl.member, n=2, d=2, s=tmpl.s, m=tmpl.m)
    for point in product(range(8), repeat=2):
        h = HittingSet((point,), 2, 8)
        assert verify_hitting_set(tmpl, h, seed=3) == verify_hitting_set(plain, h, seed=3)
