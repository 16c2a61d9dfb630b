"""Suite mechanics: record shapes, hypothesis skipping, disagreement
accounting, and spot checks of suite verdicts."""

import random

import pytest

from modlab.catalog import GenerationPolicy, enumerate_modules
from modlab.config import Limits
from modlab import suites
from modlab.rings import builtin_ring
from modlab.lattice import submodules
from modlab.modules import end_ring, regular_module, span
from modlab.suites import SUITES, _values_record, endo_image_witness, verify_theorem
from modlab.structure import Interval, whole_interval


@pytest.fixture(scope="module")
def z8_catalog():
    return enumerate_modules(builtin_ring("Z8"), GenerationPolicy(2, 256), ring_id="Z8")


@pytest.fixture(scope="module")
def f2xz4_catalog():
    return enumerate_modules(builtin_ring("F2xZ4"), GenerationPolicy(2, 256),
                             ring_id="F2xZ4")


def test_registry_covers_all_suites():
    expected = {"P2.2", "L2.5", "P2.6", "C2.7", "C2.8", "T2.11", "P2.13",
                "T3.2", "C3.3", "C3.4", "P3.5", "T3.6", "P3.8", "T3.9",
                "C3.10", "T3.12"}
    assert set(SUITES) == expected


def test_values_record_detects_disagreement():
    rec = _values_record("x", {"a": True, "b": False}, witness={"w": 1})
    assert rec["agree"] is False
    assert rec["witness"] == {"w": 1}
    rec2 = _values_record("x", {"a": True, "b": True})
    assert rec2["agree"] is True


@pytest.mark.parametrize("suite_id", sorted(SUITES))
def test_all_suites_zero_disagreements_on_z8(z8_catalog, suite_id):
    rep = verify_theorem(suite_id, z8_catalog)
    assert rep.summary["disagreements"] == 0
    assert rep.summary["instances"] >= 1
    assert rep.ring_id == "Z8"
    data = rep.to_json()
    assert "runtime_seconds" not in data
    assert data["suite"] == suite_id


def test_t211_vector_shape(f2xz4_catalog):
    rep = verify_theorem("T2.11", f2xz4_catalog)
    for record in rep.instances:
        assert len(record["values"]) == 7
        assert record["agree"] is True


def test_t39_vector_shape(f2xz4_catalog):
    rep = verify_theorem("T3.9", f2xz4_catalog)
    for record in rep.instances:
        assert set(record["values"]) == {
            "t_lifting",
            "t_dual_baer_and_t_k",
            "t_dual_baer_and_trace_recovers",
            "t_dual_baer_and_trivial_t_set_forces_zero",
        }


def test_t312_statement_names(f2xz4_catalog):
    rep = verify_theorem("T3.12", f2xz4_catalog)
    values = rep.instances[0]["values"]
    assert len(values) == 7
    assert all(values.values())
    assert "bounded" in rep.scope


def test_suite_loop_counts_each_kind_of_skip(z8_catalog):
    """A failed hypothesis (``SKIPPED`` first), a refusal before the first
    record (a raise first), a raise after one and each later ``SKIPPED``
    count one skip; a raise keeps the records yielded before it."""
    from modlab.errors import SizeLimitExceeded
    from modlab.suites import SKIPPED, _per_module

    def each(m, label):
        if m.size == 64:
            raise SizeLimitExceeded("planted")
        if m.size == 8:
            yield SKIPPED
            return
        yield {"instance": f"{label} first", "holds": True}
        if m.size == 2:
            yield SKIPPED
            yield SKIPPED
        if m.size == 4:
            raise SizeLimitExceeded("planted")
        yield {"instance": f"{label} second", "holds": m.size != 16}

    rep = _per_module("X", "planted", each)(z8_catalog)
    sizes = [m.size for m in z8_catalog.modules]
    assert (sizes.count(2), sizes.count(4), sizes.count(8), sizes.count(64)) == (1, 2, 2, 1)
    assert rep.summary == {
        "instances": 7 + 5,  # a first record per module run, a second unless raised
        "disagreements": 2,  # the second records of size 16
        "skipped": 2 + 1 + 2 + 2,  # hypothesis fails, raise first, raise later, SKIPPED
    }
    assert rep.suite == "X" and rep.scope == "planted"


def test_p213_skips_a_module_that_is_not_t_lifting(Q):
    """P2.13's hypothesis: over Q, with N = e1 Q, M = E(N) + N is not
    t-lifting, so P2.13 yields one ``SKIPPED`` and no record for it."""
    from modlab.modules import direct_sum, submodule_as_module
    from modlab.structure import injective_hull
    from modlab.suites import SKIPPED

    n = submodule_as_module(span(regular_module(Q), [(1, 0, 0, 0, 0)])).module
    m = direct_sum(injective_hull(n)[0], n)
    assert list(suites.p213(m, "E(N)+N")) == [SKIPPED]


def test_t312_counts_a_refused_predicate_as_a_skip(z4_catalog, monkeypatch):
    """A refusal from any of T3.12's predicates, not only the dual-Baer
    ones, skips the module it refused: with is_t_lifting planted to raise
    on the regular module, T3.12 counts one more skip and still reports
    its one instance."""
    from modlab.errors import SizeLimitExceeded

    before = verify_theorem("T3.12", z4_catalog).summary
    target = regular_module(z4_catalog.ring)
    assert target in z4_catalog.modules
    is_t_lifting = suites.is_t_lifting

    def refusing(m):
        if m == target:
            raise SizeLimitExceeded("planted")
        return is_t_lifting(m)

    monkeypatch.setattr(suites, "is_t_lifting", refusing)
    after = verify_theorem("T3.12", z4_catalog).summary
    assert after == {**before, "skipped": before["skipped"] + 1}


def test_suites_skip_when_end_ring_over_limit(z8_catalog, limits):
    limits(Limits(max_end=16))
    rep = verify_theorem("T3.2", z8_catalog)
    assert rep.summary["skipped"] > 0
    assert rep.summary["disagreements"] == 0


def per_endomorphism_image_witness(module, end, nodes):
    """C2.7's definitional scan: the image of every node of the index set
    ``nodes``, in lattice order, under every endomorphism, built as a set
    of codes and tested against the nodes' element sets one by one."""
    ws = module.workspace()
    homs = list(map(end.hom, range(end.size)))
    lat = submodules(module)
    keys = {lat.nodes[i].key for i in nodes}
    for c in lat.nodes:
        if c.key not in keys:
            continue
        for i, h in enumerate(homs):
            img = frozenset(ws.additive_closure(h.restrict_codes(c.elements)))
            if img not in keys:
                return {"C": {"size": c.size, "elements": sorted(c.elements)}, "endo": i}
    return None


@pytest.mark.parametrize("rid", ["Z4", "Z8", "Z6", "F2xZ4", "T2F2"])
def test_c27_image_dedupe_matches_per_endomorphism_scan(rid):
    """Same verdict and witness as the scan, on the t-coclosed nodes and on
    random node sets, where images do leave the set."""
    rng = random.Random(rid)
    catalog = enumerate_modules(builtin_ring(rid), GenerationPolicy(2, 64), ring_id=rid)
    failures = 0
    for m in catalog.modules:
        end = end_ring(m)
        count = len(submodules(m))
        node_sets = [whole_interval(m).t_coclosed] + [
            frozenset(i for i in range(count) if rng.random() < 0.7) for _ in range(4)
        ]
        for nodes in node_sets:
            want = per_endomorphism_image_witness(m, end, nodes)
            assert endo_image_witness(m, end, nodes) == want
            failures += want is not None
    assert failures


@pytest.fixture
def z4_catalog():
    """The Z4 catalog, enumerated under the default limits."""
    return enumerate_modules(builtin_ring("Z4"), GenerationPolicy(2, 256), ring_id="Z4")


def test_t312_skips_modules_over_limits(z4_catalog, limits):
    """Lattices over ``max_module`` are refused; T3.12 counts those modules
    as skipped instead of failing."""
    limits(Limits(max_module=4))
    # the lattices of Z4+Z2 and Z4^2 have 8 and 16 elements
    assert verify_theorem("T3.12", z4_catalog).summary == {
        "instances": 1, "disagreements": 0, "skipped": 2}


def test_t312_skips_modules_over_limits_after_a_default_run(z4_catalog, limits):
    """The same count after a default-limits T3.12 run in this process has
    filled the lattice, radical and summand memos."""
    assert verify_theorem("T3.12", z4_catalog).summary["skipped"] == 0
    limits(Limits(max_module=4))
    assert verify_theorem("T3.12", z4_catalog).summary == {
        "instances": 1, "disagreements": 0, "skipped": 2}


def test_t312_skips_modules_over_the_ring_limit(z4_catalog, limits):
    """A refusal at the ring level skips every module, the zero module
    too: under ``max_module=2`` the regular module of Z4, whose lattice
    gives J(R) and S = Soc(_R R) and the right ideals of the injectivity
    test, is over the limit."""
    limits(Limits(max_module=2))
    assert verify_theorem("T3.12", z4_catalog).summary == {
        "instances": 1, "disagreements": 0, "skipped": 6}


def test_primitive_blocks_checks_the_ring_limit_before_its_memo(Z4, limits):
    from modlab.errors import SizeLimitExceeded
    from modlab.structure import primitive_blocks

    assert primitive_blocks(Z4)
    limits(Limits(max_ring=2))
    with pytest.raises(SizeLimitExceeded):
        primitive_blocks(Z4)


def test_suite_reports_are_json_stable(z8_catalog):
    from modlab.serialize import stable_dumps

    rep1 = verify_theorem("P2.6", z8_catalog)
    rep2 = verify_theorem("P2.6", z8_catalog)
    assert stable_dumps(rep1.to_json()) == stable_dumps(rep2.to_json())


def test_witnesses_present_on_planted_disagreement():
    """Feed a record with differing values through the accounting used by
    run_all and make sure it is counted and carries its witness."""
    from modlab.reports import TheoremReport

    rec = _values_record("planted", {"a": True, "b": False},
                         witness={"elements": [0, 1]})
    rep = TheoremReport(
        suite="P2.2", ring_id="Z8", scope="test", instances=[rec],
        summary={"instances": 1,
                 "disagreements": 0 if rec["agree"] else 1,
                 "skipped": 0},
    )
    assert rep.summary["disagreements"] == 1
    assert rep.instances[0]["witness"] == {"elements": [0, 1]}


def _witness(c, a):
    return {"C": {"size": c.size, "elements": sorted(c.elements)},
            "A": {"size": a.size, "elements": sorted(a.elements)}}


def test_l25_scans_each_statement_to_its_first_failure(monkeypatch, z4_reg, z2_plus_z4):
    """Planted failures of L2.5 (4) and (5).  With is_t_coclosed_in
    planted to answer True (so every C/A in M/A and every A in C counts,
    each on its interval of M's lattice), Z4's
    t-coclosed set is still {0}: (4) fails first, at C = 2Z4, and (5) only
    at the later C = Z4.  With every proper node of Z2 + Z4 planted as
    t-coclosed too, (4) fails at the top node against every proper A,
    first against A = 0.  Each statement reports its own first failure in
    node order."""
    monkeypatch.setattr(suites, "is_t_coclosed_in", lambda iv, node: True)
    two = span(z4_reg, [2])
    *_, four, five = suites.l25(z4_reg, "Z4")
    assert four["witness"] == _witness(two, z4_reg.zero_submodule())
    assert five["holds"] is False
    assert five["witness"] == _witness(z4_reg.full_submodule(), two)

    monkeypatch.setattr(Interval, "t_coclosed", property(
        lambda iv: frozenset(iv.members[:-1])))
    m = z2_plus_z4
    *_, four, five = suites.l25(m, "Z2+Z4")
    assert four["holds"] is False
    assert four["witness"] == _witness(m.full_submodule(), m.zero_submodule())
    assert five["holds"] is True


def test_t312_reads_the_injectivity_of_a_split_square_radical(Q):
    """T3.12's ``square_radicals_split_and_are_injective`` decides on its
    injectivity conjunct over Q: 10 of the 20 one-generator catalog
    modules have a Zbar2 that is a direct summand but not injective, and
    on each the statement is false."""
    from modlab.cosingular import zbar2
    from modlab.structure import is_injective, summand_keys
    from modlab.suites import SKIPPED
    from modlab.tpredicates import square_radical_has

    catalog = enumerate_modules(Q, GenerationPolicy(1, 256), ring_id="Q")
    split = [m for m in catalog.modules if zbar2(m).key in summand_keys(m)
             and not square_radical_has(m, is_injective)]
    assert (len(catalog.modules), len(split)) == (20, 10)
    for m in split:
        facts = [f for f in suites.t312_facts(m, "Q") if f is not SKIPPED]
        assert facts[0]["square_radicals_split_and_are_injective"] is False
