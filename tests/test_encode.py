"""Tests for table encoding: BDD relations vs explicit row semantics."""

import itertools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.bdd import BDD
from repro.bdd.mdd import MddManager, MvVar, bits_for
from repro.blifmv import BlifMvError, flatten, parse
from repro.blifmv.ast import ANY, Any_, Eq, Model, Row, Table, ValueSet
from repro.models import GALLERY, TABLE1, get_spec
from repro.network import SymbolicFsm, encode, is_deterministic_table, variable_order
from repro.network.encode import encode_table


def _model(text):
    return flatten(parse(text))


# -- reference encoder ---------------------------------------------------
#
# The row-reduction table encoder that ``encode_table`` replaced: one
# literal cube per row entry, AND-reduced per row and OR-reduced across
# rows (batched through ``apply_many``), then conjoined with every
# column's domain constraint.  BDDs are canonical, so the column-split
# builder must return the very same handle in the same manager.


def _reduce_each(bdd, op, lists):
    identity = bdd.true if op == "and" else bdd.false
    pending = [list(l) for l in lists]
    while True:
        pairs, slots, nxt = [], [], []
        for i, l in enumerate(pending):
            nl = []
            j = 0
            while j + 1 < len(l):
                slots.append((i, len(nl)))
                pairs.append((l[j], l[j + 1]))
                nl.append(-1)
                j += 2
            if j < len(l):
                nl.append(l[j])
            nxt.append(nl)
        if not pairs:
            return [l[0] if l else identity for l in pending]
        for (i, p), r in zip(slots, bdd.apply_many(op, pairs)):
            nxt[i][p] = r
        pending = nxt


def _entry_bdd(variables, name, entry):
    var = variables[name]
    if isinstance(entry, Any_):
        return var.bdd.true
    if isinstance(entry, Eq):
        return var.eq_var(variables[entry.name])
    if isinstance(entry, ValueSet):
        return var.literal(entry.values)
    return var.literal(entry)


def reference_encode_table(mdd, variables, table):
    bdd = mdd.bdd
    in_lists = [
        [_entry_bdd(variables, name, e) for e, name in zip(row.inputs, table.inputs)]
        for row in table.rows
    ]
    out_lists = [
        [_entry_bdd(variables, name, e) for e, name in zip(row.outputs, table.outputs)]
        for row in table.rows
    ]
    if table.rows:
        in_parts = _reduce_each(bdd, "and", in_lists)
        out_parts = _reduce_each(bdd, "and", out_lists)
        row_nodes = bdd.apply_many("and", list(zip(in_parts, out_parts)))
        rows, input_cover = _reduce_each(bdd, "or", [row_nodes, in_parts])
    else:
        rows = bdd.false
        input_cover = bdd.false
    if table.default is not None:
        default_part = bdd.true
        for e, name in zip(table.default, table.outputs):
            default_part = bdd.and_(default_part, _entry_bdd(variables, name, e))
        rows = bdd.or_(rows, bdd.and_(bdd.not_(input_cover), default_part))
    for name in table.variables:
        rows = bdd.and_(rows, variables[name].domain_constraint)
    return rows


def _assert_tables_match_reference(net):
    for index, table in enumerate(net.model.tables):
        expected = reference_encode_table(net.mdd, net.vars, table)
        assert net.conjuncts[index].node == expected, (index, table.outputs)


def _relation_pairs(net, table_index=0):
    """Enumerate (input values, output values) allowed by the encoded table."""
    model = net.model
    table = model.tables[table_index]
    bdd = net.bdd
    relation = net.conjuncts[table_index].node
    in_vars = [net.mdd[n] for n in table.inputs]
    out_vars = [net.mdd[n] for n in table.outputs]
    pairs = set()
    for ins in itertools.product(*(v.values for v in in_vars)):
        for outs in itertools.product(*(v.values for v in out_vars)):
            cube = bdd.true
            for var, value in zip(in_vars + out_vars, list(ins) + list(outs)):
                cube = bdd.and_(cube, var.literal(value))
            if bdd.and_(relation, cube) != bdd.false:
                pairs.add((ins, outs))
    return pairs


class TestTableEncoding:
    def test_function_table(self):
        net = encode(_model("""
.model m
.mv a 3
.mv o 3
.table a -> o
0 1
1 2
2 0
.end
"""))
        assert _relation_pairs(net) == {(("0",), ("1",)), (("1",), ("2",)),
                                        (("2",), ("0",))}

    def test_nondeterministic_rows(self):
        net = encode(_model("""
.model m
.table a -> o
0 (0,1)
1 1
.end
"""))
        assert _relation_pairs(net) == {(("0",), ("0",)), (("0",), ("1",)),
                                        (("1",), ("1",))}

    def test_any_input(self):
        net = encode(_model("""
.model m
.table a -> o
- 1
.end
"""))
        assert _relation_pairs(net) == {(("0",), ("1",)), (("1",), ("1",))}

    def test_default_applies_to_unmatched(self):
        net = encode(_model("""
.model m
.mv a 3
.table a -> o
.default 0
2 1
.end
"""))
        assert _relation_pairs(net) == {(("0",), ("0",)), (("1",), ("0",)),
                                        (("2",), ("1",))}

    def test_default_not_shadowing_explicit_nondeterminism(self):
        # An input matched by a row does NOT take the default.
        net = encode(_model("""
.model m
.table a -> o
.default 1
0 0
.end
"""))
        assert _relation_pairs(net) == {(("0",), ("0",)), (("1",), ("1",))}

    def test_equality_output(self):
        net = encode(_model("""
.model m
.mv a,o 3
.table a -> o
- =a
.end
"""))
        assert _relation_pairs(net) == {(("0",), ("0",)), (("1",), ("1",)),
                                        (("2",), ("2",))}

    def test_no_input_constant(self):
        net = encode(_model("""
.model m
.mv o 3
.table -> o
2
.end
"""))
        assert _relation_pairs(net) == {((), ("2",))}

    def test_invalid_codes_excluded(self):
        net = encode(_model("""
.model m
.mv a 3
.table a -> o
- 1
.end
"""))
        relation = net.conjuncts[0].node
        a = net.mdd["a"]
        # code 3 (the unused encoding) must not satisfy the relation
        bad = net.bdd.conj([net.bdd.var(a.bits[0]), net.bdd.var(a.bits[1])])
        assert net.bdd.and_(relation, bad) == net.bdd.false


class TestLatchEncoding:
    def test_latch_equality_conjunct(self):
        net = encode(_model("""
.model m
.mv s,n 3
.table s -> n
0 1
1 2
2 0
.latch n s
.reset s
0
.end
"""))
        labels = [c.label for c in net.conjuncts]
        assert any(label == "latch:s" for label in labels)

    def test_latch_domain_mismatch_rejected(self):
        with pytest.raises(BlifMvError):
            encode(_model("""
.model m
.mv s 3
.table s -> n
- 1
.latch n s
.reset s
0
.end
"""))

    def test_init_from_reset(self):
        net = encode(_model("""
.model m
.mv s,n 4
.table s -> n
- =s
.latch n s
.reset s
1 2
.end
"""))
        s = net.mdd["s"]
        assert net.bdd.sat_count(net.init, s.bits) == 2

    def test_empty_reset_means_any_value(self):
        net = encode(_model("""
.model m
.mv s,n 3
.table s -> n
- =s
.latch n s
.end
"""))
        s = net.mdd["s"]
        assert net.bdd.sat_count(net.init, s.bits) == 3


class TestDeterminism:
    def test_deterministic_table(self):
        model = _model("""
.model m
.table a -> o
0 1
1 0
.end
""")
        net = encode(model)
        assert is_deterministic_table(net.mdd, net.vars, model, model.tables[0])

    def test_nondeterministic_table(self):
        model = _model("""
.model m
.table a -> o
0 (0,1)
1 0
.end
""")
        net = encode(model)
        assert not is_deterministic_table(net.mdd, net.vars, model, model.tables[0])


class TestOrdering:
    def test_variable_order_covers_everything(self):
        model = _model("""
.model m
.mv s,n 3
.table s x -> n
- - =s
.latch n s
.reset s
0
.end
""")
        order = variable_order(model)
        assert set(order) == set(model.declared_variables())

    def test_declared_method(self):
        model = _model("""
.model m
.table a -> o
0 1
1 0
.end
""")
        net = encode(model, order_method="declared")
        assert net.order_method == "declared"
        with pytest.raises(ValueError):
            encode(model, order_method="bogus")

    def test_encode_rejects_hierarchy(self):
        design = parse("""
.model top
.subckt leaf u1
.end
.model leaf
.table a -> o
0 1
1 0
.end
""")
        with pytest.raises(BlifMvError):
            encode(design.root_model())


# -- column-split builder vs the reference --------------------------------


class TestReferenceIdentity:
    """``encode_table`` returns the reference encoder's exact handles."""

    @pytest.mark.parametrize("name", sorted(GALLERY) + TABLE1)
    def test_flat_designs(self, name):
        _assert_tables_match_reference(encode(get_spec(name).flat()))

    @pytest.mark.parametrize("name", ["philos_hier", "scheduler_hier", "gigamax_hier"])
    def test_hier_designs(self, name):
        _assert_tables_match_reference(encode(get_spec(name, n=4).flat()))


POOL = ["a", "b", "c", "d"]


def _entry(draw, domain, eq_names):
    kind = draw(st.sampled_from(["any", "value", "set", "eq"] if eq_names else
                                ["any", "value", "set"]))
    if kind == "any":
        return ANY
    if kind == "value":
        return draw(st.sampled_from(domain))
    if kind == "set":
        values = draw(st.lists(st.sampled_from(domain), min_size=1, unique=True))
        return ValueSet(tuple(values))
    return Eq(draw(st.sampled_from(eq_names)))


@st.composite
def tables(draw):
    """A random table plus the model holding its domains.

    Domains range over 1..5 values (non-powers of two leave unused
    codes), input columns may repeat, an output may also be an input,
    outputs may copy a same-domain input with ``=x`` (in rows and in
    ``.default``), and zero-row tables occur.
    """
    sizes = {name: draw(st.integers(1, 5)) for name in POOL}
    domains = {name: tuple(str(v) for v in range(sizes[name])) for name in POOL}
    inputs = draw(st.lists(st.sampled_from(POOL), max_size=3))
    outputs = draw(st.lists(st.sampled_from(POOL), min_size=1, max_size=2, unique=True))

    def eq_names(out):
        return sorted({i for i in inputs if sizes[i] == sizes[out]})

    rows = []
    for _ in range(draw(st.integers(0, 6))):
        ins = tuple(_entry(draw, domains[n], []) for n in inputs)
        outs = tuple(_entry(draw, domains[n], eq_names(n)) for n in outputs)
        rows.append(Row(inputs=ins, outputs=outs))
    default = None
    if draw(st.booleans()):
        default = tuple(_entry(draw, domains[n], eq_names(n)) for n in outputs)
    table = Table(inputs=inputs, outputs=outputs, rows=rows, default=default)
    model = Model(name="m", domains=domains, tables=[table])
    return model, table


def _manager(model, draw_order):
    """MV variables of ``model`` under a drawn permutation of all bits.

    The permutation freely interleaves the bits of different variables,
    which sends the case-node fold through its ``ite`` fallback.
    """
    bdd = BDD()
    bit_lists = {
        name: [bdd.add_var(f"{name}.{i}") for i in range(bits_for(len(model.domain(name))))]
        for name in POOL
    }
    bdd.set_order(draw_order(st.permutations(range(bdd.var_count))))
    variables = {
        name: MvVar(bdd, name, model.domain(name), bit_lists[name]) for name in POOL
    }
    return MddManager(bdd), variables


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=tables(), data=st.data())
def test_random_tables_match_reference(case, data):
    model, table = case
    mdd, variables = _manager(model, data.draw)
    expected = reference_encode_table(mdd, variables, table)
    assert encode_table(mdd, variables, model, table) == expected


def test_interleaved_bits_take_the_ite_fallback(monkeypatch):
    model = _model("""
.model m
.mv a,b 4
.table a -> b
0 (1,2)
1 =a
- 3
.default 0
.end
""")
    table = model.tables[0]
    bdd = BDD()
    a_bits = [bdd.add_var("a.0"), bdd.add_var("a.1")]
    b_bits = [bdd.add_var("b.0"), bdd.add_var("b.1")]
    bdd.set_order([a_bits[0], b_bits[0], a_bits[1], b_bits[1]])
    variables = {
        "a": MvVar(bdd, "a", model.domain("a"), a_bits),
        "b": MvVar(bdd, "b", model.domain("b"), b_bits),
    }
    mdd = MddManager(bdd)
    calls = []
    ite = BDD.ite
    monkeypatch.setattr(BDD, "ite", lambda self, f, g, h: calls.append(f) or ite(self, f, g, h))
    got = encode_table(mdd, variables, model, table)
    assert calls, "interleaved bits must route through ite"
    monkeypatch.undo()
    assert got == reference_encode_table(mdd, variables, table)
