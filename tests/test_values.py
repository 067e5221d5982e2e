"""Value semantics of the public types: frozen fields, equality and hash
over the fields, keyword construction with defaults, the repr text and
pickling."""

import pickle

import pytest

import mbs.minors
import mbs.model
import mbs.moves
import mbs.search
from mbs import (
    ANNULUS,
    BranchLocus,
    ContractRegion,
    ExhaustedWithinBudget,
    Found,
    InvariantMismatch,
    IntegerMatrix,
    IXSite,
    MoebiusSplit,
    MoveStep,
    MultibranchedSurface,
    NormalSplit,
    QuasiSplit,
    RegionClass,
    RegionTopology,
    RemoveRegion,
    SearchBudget,
    SymmetryMode,
    ValidityMode,
    are_isomorphic,
    build_chain_complex,
    canonical_form,
    decomposition_summary,
    homology_profile,
    is_minor,
    locus_profile,
    obstruction_screen,
    random_walk,
    smith_normal_form,
    theta,
    validate,
)
from mbs.isomorphism import _Labeling, _search_canonical

def one_locus_theta():
    """theta(3) without its second locus, which ``validate`` refuses."""
    return MultibranchedSurface(theta(3).regions, theta(3).loci[:1])


# each builds an equal value, not the same object, every time it is called;
# together they cover every public value type of every layer
VALUES = {
    "RegionTopology": lambda: RegionTopology(True, 0, 2),
    "Region": lambda: theta(3).regions[0],
    "BranchLocus": lambda: theta(3).loci[0],
    "LocusProfile": lambda: locus_profile(theta(3), "b1"),
    "MultibranchedSurface": lambda: theta(3),
    "ValidationIssue": lambda: validate(one_locus_theta())[0],
    "IXSite": lambda: IXSite("r1", RegionClass.NORMAL_ANNULUS),
    "NormalSplit": lambda: NormalSplit("b1", 0, 2),
    "QuasiSplit": lambda: QuasiSplit("b1", 0, 2),
    "MoebiusSplit": lambda: MoebiusSplit("b1", 1),
    "MoveStep": lambda: random_walk(theta(3), 1, 1)[1].steps[0],
    "MoveRecord": lambda: random_walk(theta(3), 1, 2)[1],
    "CanonicalForm": lambda: canonical_form(theta(3), SymmetryMode.MIRROR),
    "SearchBudget": lambda: SearchBudget(max_depth=2),
    "Found": lambda: Found(random_walk(theta(3), 1, 2)[1]),
    "ExhaustedWithinBudget": lambda: ExhaustedWithinBudget("depth"),
    "InvariantMismatch": lambda: InvariantMismatch("homology"),
    "RemoveRegion": lambda: RemoveRegion("r1"),
    "ContractRegion": lambda: ContractRegion("r1"),
    "ObstructionFlags": lambda: obstruction_screen(theta(3)),
    "MinorOutcome": lambda: is_minor(theta(3, ValidityMode.MINOR),
                                     theta(4, ValidityMode.MINOR)),
    "IntegerMatrix": lambda: IntegerMatrix(((1, 2), (3, 4))),
    "SmithDecomposition": lambda: smith_normal_form(IntegerMatrix(((2, 4), (6, 8)))),
    "ChainComplex": lambda: build_chain_complex(theta(3)),
    "HomologyProfile": lambda: homology_profile(theta(3)),
    "DecompositionSummary": lambda: decomposition_summary(theta(3)),
}
# these hold dicts, so they compare but do not hash
UNHASHABLE = {
    "IsoCertificate": lambda: are_isomorphic(theta(3), theta(3), SymmetryMode.MIRROR),
    "_Labeling": lambda: _search_canonical(theta(3), (1,)),
}


@pytest.mark.parametrize("make", [*VALUES.values(), *UNHASHABLE.values()],
                         ids=[*VALUES, *UNHASHABLE])
def test_fields_are_frozen_and_compared(request, make):
    value, twin = make(), make()
    assert type(value).__name__ == request.node.callspec.id
    assert value is not twin and value == twin and not value != twin
    fields = type(value).__match_args__
    assert fields and all(hasattr(value, name) for name in fields)
    # keyword construction from the fields gives an equal value
    assert type(value)(**{name: getattr(value, name) for name in fields}) == value
    for name in (*fields, "not_a_field"):
        with pytest.raises(AttributeError, match="cannot assign"):
            setattr(value, name, None)
    for name in fields:
        with pytest.raises(AttributeError, match="cannot delete"):
            delattr(value, name)
    assert value == twin


@pytest.mark.parametrize("make", VALUES.values(), ids=VALUES)
def test_equal_values_hash_equal(make):
    value, twin = make(), make()
    assert hash(value) == hash(twin)
    assert {value: "hit"}[twin] == "hit"


@pytest.mark.parametrize("make", UNHASHABLE.values(), ids=UNHASHABLE)
def test_values_holding_dicts_do_not_hash(make):
    with pytest.raises(TypeError, match="unhashable"):
        hash(make())


def test_equality_needs_the_same_type():
    assert NormalSplit("b1", 0, 2) != QuasiSplit("b1", 0, 2)
    assert QuasiSplit("b1", 0, 2) != NormalSplit("b1", 0, 2)
    assert NormalSplit("b1", 0, 2) != ("b1", 0, 2)
    assert RemoveRegion("r1") != ContractRegion("r1")
    assert NormalSplit("b1", 0, 2) != NormalSplit("b1", 0, 3)


def test_repr_text():
    assert repr(NormalSplit("b1", 0, 2)) == "NormalSplit(locus_id='b1', gap_a=0, gap_b=2)"
    assert repr(IXSite("r1", RegionClass.NORMAL_ANNULUS)) == \
        "IXSite(region_id='r1', kind=<RegionClass.NORMAL_ANNULUS: 'normal_annulus'>)"
    assert repr(MoveStep(QuasiSplit("b1", 0, 2), 1, 2)) == \
        "MoveStep(move=QuasiSplit(locus_id='b1', start=0, length=2), " \
        "hash_before=1, hash_after=2)"
    assert repr(SearchBudget()) == \
        "SearchBudget(max_depth=4, max_states=5000, max_cell_count=80, time_limit=10.0)"
    assert repr(BranchLocus("b", 1, ("x", "y", "z"))) == \
        "BranchLocus(id='b', wrapping=1, slots=('x', 'y', 'z'), signs=(1, 1, 1))"
    assert repr(ANNULUS) == \
        "RegionTopology(orientable=True, genus=0, boundary_count=2)"


def test_keywords_and_defaults():
    locus = BranchLocus(id="b", wrapping=2, slots=("x", "y"))
    assert locus.signs == (1, 1)  # __post_init__ fills the default signs
    assert locus == BranchLocus("b", 2, ("x", "y"), (1, 1))
    assert SearchBudget(max_states=7) == SearchBudget(4, 7, 80, 10.0)
    assert ExhaustedWithinBudget().reason == "budget"
    surface = theta(3)
    assert MultibranchedSurface(regions=surface.regions, loci=surface.loci) == surface
    assert surface.mode is ValidityMode.STRICT
    with pytest.raises(ValueError, match="positive"):
        SearchBudget(max_depth=0)  # __post_init__ still runs
    with pytest.raises(TypeError):
        NormalSplit("b1", 0)
    with pytest.raises(TypeError):
        NormalSplit("b1", 0, 2, gap_a=1)
    with pytest.raises(TypeError):
        NormalSplit("b1", 0, 2, gap_c=1)


def test_labeling_equality_ignores_automorphisms():
    labeling = _search_canonical(theta(3), (1,))
    assert labeling.automorphisms  # theta(3) has symmetries
    bare = _Labeling(labeling.code, labeling.locus_seq, labeling.region_number,
                     labeling.p_region)
    assert bare.automorphisms == ()
    assert bare == labeling
    assert "automorphisms=()" in repr(bare)
    other = _Labeling(labeling.code[:-1], labeling.locus_seq, labeling.region_number,
                      labeling.p_region, labeling.automorphisms)
    assert other != labeling


def test_move_record_survives_pickle():
    record = random_walk(theta(4), 3, 4)[1]
    assert len(record) == 4
    loaded = pickle.loads(pickle.dumps(record))
    assert loaded == record and hash(loaded) == hash(record)
    assert loaded.steps[0].move == record.steps[0].move
    with pytest.raises(AttributeError):
        loaded.steps = ()


def test_moved_types_keep_their_old_import_paths():
    assert mbs.minors.obstruction_screen is mbs.model.obstruction_screen
    assert mbs.minors.ObstructionFlags is mbs.model.ObstructionFlags
    assert mbs.search.SearchBudget is mbs.moves.SearchBudget


def test_search_budget_and_flags_survive_pickle():
    budget = SearchBudget(max_depth=2, time_limit=0.5)
    loaded = pickle.loads(pickle.dumps(budget))
    assert type(loaded) is SearchBudget and loaded == budget
    assert repr(loaded) == "SearchBudget(max_depth=2, max_states=5000, " \
        "max_cell_count=80, time_limit=0.5)"
    # pickled when SearchBudget was defined in mbs.search and the flags in
    # mbs.minors: both still load
    old_budget = (
        b"\x80\x02cmbs.search\nSearchBudget\nq\x00)\x81q\x01}q\x02(X\t\x00\x00\x00"
        b"max_depthq\x03K\x02X\n\x00\x00\x00max_statesq\x04M\x88\x13X\x0e\x00\x00\x00"
        b"max_cell_countq\x05KPX\n\x00\x00\x00time_limitq\x06G?\xe0\x00\x00\x00\x00"
        b"\x00\x00ub.")
    assert pickle.loads(old_budget) == budget
    old_flags = (
        b"\x80\x02cmbs.minors\nObstructionFlags\nq\x00)\x81q\x01}q\x02(X\x1f\x00\x00"
        b"\x00has_nonorientable_closed_regionq\x03\x89X\x12\x00\x00\x00"
        b"locus_wrapping_gcdq\x04K\x01ub.")
    assert pickle.loads(old_flags) == obstruction_screen(theta(4))
