import pytest
from hypothesis import given, strategies as st

from gauss_hodge.calculus import PForm, wirtinger_dzbar
from gauss_hodge.errors import DomainError
from gauss_hodge.fields import ScalarField
from gauss_hodge.multiindex import check_index, enumerate_indices, insert_axis, remove_axis

from conftest import bubble_sort_parity


def test_enumerate_3_2():
    assert list(enumerate_indices(3, 2)) == [(1, 2), (1, 3), (2, 3)]


def test_enumerate_empty_and_full():
    assert enumerate_indices(2, 0) == ((),)
    assert enumerate_indices(2, 2) == ((1, 2),)


def test_enumerate_counts_and_order():
    for n in range(1, 6):
        for p in range(n + 1):
            axes = list(enumerate_indices(n, p))
            assert axes == sorted(axes)
            assert len(set(axes)) == len(axes)
            import math
            assert len(axes) == math.comb(n, p)


def test_enumerate_domain_errors():
    with pytest.raises(DomainError):
        enumerate_indices(3, 4)
    with pytest.raises(DomainError):
        enumerate_indices(3, -1)


def test_insert_axis_examples():
    assert insert_axis(2, (1, 3)) == (-1, (1, 2, 3))
    assert insert_axis(1, (2, 3)) == (1, (1, 2, 3))
    assert insert_axis(2, (1, 2)) is None


def test_remove_axis_examples():
    assert remove_axis(2, (1, 2, 3)) == (-1, (1, 3))
    assert remove_axis(1, (1, 2, 3)) == (1, (2, 3))
    with pytest.raises(DomainError):
        remove_axis(4, (1, 2, 3))


def test_axis_range_validation():
    f = PForm(3, 2, 2, components={(1, 2): ScalarField.constant(1, 3, 2)})
    for axis in (0, 4):
        with pytest.raises(DomainError, match="outside range"):
            f.signed_component(axis, (1,))
    for bad in ((2, 2), (2, 1), (0, 1), (-1, 2)):
        with pytest.raises(DomainError, match="strictly increasing"):
            check_index(bad, 3, 2)
    with pytest.raises(DomainError, match="outside range"):
        check_index((1, 4), 3, 2)
    with pytest.raises(DomainError, match="does not match"):
        check_index((1,), 3, 2)
    for bad in ((1.0, 2), ("1", 2), (True, 2)):
        with pytest.raises(DomainError, match="must be integers"):
            check_index(bad, 3, 2)
    assert check_index([1, 3], 3, 2) == (1, 3)
    # constructors, component lookups and coefficient lookups all validate
    with pytest.raises(DomainError):
        PForm(3, 2, 2, components={(2, 1): ScalarField.constant(1, 3, 2)})
    with pytest.raises(DomainError):
        f.component((1, 4))


PLANE = ScalarField(2, 4, "real", {(1, 1): 3})
AXIS_TAKERS = {
    "coordinate": lambda axis: ScalarField.coordinate(axis, 2, 4),
    "partial_derivative": PLANE.partial_derivative,
    "apply_delta": PLANE.apply_delta,
    "multiply_by_coordinate": PLANE.multiply_by_coordinate,
    "wirtinger_dzbar": lambda axis: wirtinger_dzbar(
        ScalarField(4, 4, "complex", {(1, 0, 0, 1): 1}), axis),
    "signed_component": lambda axis: PForm(
        2, 1, 4, components={(1,): PLANE}).signed_component(axis, ()),
}


@pytest.mark.parametrize("bad", [1.5, 2.0, True, "1", None])
@pytest.mark.parametrize("taker", sorted(AXIS_TAKERS))
def test_every_axis_argument_is_checked_once(taker, bad):
    """Every ladder and lookup that takes one axis accepts only an int (not a
    bool) in 1..n, on R^2 and on C^2 alike."""
    with pytest.raises(DomainError, match=f"axis {bad!r} outside range 1..2"):
        AXIS_TAKERS[taker](bad)
    assert AXIS_TAKERS[taker](1) != AXIS_TAKERS[taker](2)


def test_signatures_match_bubble_sort_parity_exhaustive():
    # all (j, I) pairs for n <= 6
    for n in range(1, 7):
        for p in range(n):
            for idx in enumerate_indices(n, p):
                for j in range(1, n + 1):
                    if j in idx:
                        continue
                    sign, sorted_idx = insert_axis(j, idx)
                    assert sign == bubble_sort_parity((j,) + idx)
                    back_sign, back = remove_axis(j, sorted_idx)
                    assert back == idx and back_sign == sign


def test_insert_remove_roundtrip_other_direction():
    for n in range(1, 6):
        for p in range(1, n + 1):
            for idx in enumerate_indices(n, p):
                for j in idx:
                    sign, smaller = remove_axis(j, idx)
                    assert insert_axis(j, smaller) == (sign, idx)


def test_four_signature_product_is_minus_one():
    # eps^{kI} eps^{jI} eps^{j(kI)'} eps^{k(jI)'} = -1 for distinct j, k not in I
    for n in range(2, 6):
        for p in range(n - 1):
            for idx in enumerate_indices(n, p):
                for j in range(1, n + 1):
                    for k in range(1, n + 1):
                        if j == k or j in idx or k in idx:
                            continue
                        s_k, kI = insert_axis(k, idx)
                        s_j, jI = insert_axis(j, idx)
                        s_jk, _ = insert_axis(j, kI)
                        s_kj, _ = insert_axis(k, jI)
                        assert s_k * s_j * s_jk * s_kj == -1


def test_lexicographic_ordering():
    # a form writes its components in the lexicographic order of their indices
    one = ScalarField.constant(1, 4, 2)
    f = PForm(4, 2, 2, components={(2, 3): one, (1, 3): one, (1, 4): one, (1, 2): one})
    assert [c["index"] for c in f.to_json()["components"]] == [[1, 2], [1, 3], [1, 4], [2, 3]]


def test_json_roundtrip():
    f = PForm(4, 2, 2, components={(1, 3): ScalarField.constant(1, 4, 2)})
    data = f.to_json()
    assert data["components"][0]["index"] == [1, 3]
    back = PForm.from_json(data)
    assert back == f and list(back.components) == [(1, 3)]


@given(st.integers(1, 6), st.data())
def test_insert_position_sign_property(n, data):
    p = data.draw(st.integers(0, n - 1))
    choices = enumerate_indices(n, p)
    idx = data.draw(st.sampled_from(choices))
    j = data.draw(st.integers(1, n))
    result = insert_axis(j, idx)
    if j in idx:
        assert result is None
    else:
        sign, bigger = result
        pos = bigger.index(j)
        assert sign == (-1) ** pos
        assert bigger == tuple(sorted(idx + (j,)))
