import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from z4rm.errors import DimensionError
from z4rm.z4core import (
    BitWord,
    Z4Word,
    add,
    alpha,
    beta,
    gamma,
    gray,
    gray_inverse,
    hamming_distance,
    lee_distance,
    lee_weight,
    negate,
)

W = Z4Word
B = BitWord

LEE = {0: 0, 1: 1, 2: 2, 3: 1}
ALPHA = {0: 0, 1: 1, 2: 0, 3: 1}
BETA = {0: 0, 1: 0, 2: 1, 3: 1}
GAMMA = {0: 0, 1: 1, 2: 1, 3: 0}


def all_words(n):
    return [W(t) for t in itertools.product(range(4), repeat=n)]


def test_add_examples():
    assert add(W([1, 3]), W([3, 1])) == W([0, 0])
    assert add(W([1, 1]), W([0, 2])) == W([1, 3])
    assert add(W([2, 2]), W([2, 2])) == W([0, 0])


def test_add_matches_symbolwise_reference():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randrange(1, 40)
        xs = [rng.randrange(4) for _ in range(n)]
        ys = [rng.randrange(4) for _ in range(n)]
        assert add(W(xs), W(ys)) == W([(a + b) % 4 for a, b in zip(xs, ys)])


def test_add_length_mismatch():
    with pytest.raises(DimensionError):
        add(W([1]), W([1, 2]))


def test_negate_examples():
    assert negate(W([0])) == W([0])
    assert negate(W([1, 2, 3])) == W([3, 2, 1])
    for x in all_words(2):
        assert negate(negate(x)) == x
        assert add(x, negate(x)) == W.zero(2)


def test_lee_weight_examples():
    assert lee_weight(W([0, 0])) == 0
    assert lee_weight(W([2, 2])) == 4
    assert lee_weight(W([1, 2, 3])) == 4


def test_lee_weight_matches_table():
    rng = random.Random(11)
    for _ in range(200):
        xs = [rng.randrange(4) for _ in range(rng.randrange(1, 50))]
        assert lee_weight(W(xs)) == sum(LEE[s] for s in xs)


def test_lee_distance_examples():
    assert lee_distance(W([1]), W([3])) == 2
    assert lee_distance(W([1, 1]), W([0, 2])) == 2
    for x in all_words(2):
        assert lee_distance(x, x) == 0


def test_lee_distance_metric_axioms_exhaustive():
    for n in (1, 2):
        words = all_words(n)
        for x in words:
            for y in words:
                d = lee_distance(x, y)
                assert d == lee_distance(y, x)
                assert (d == 0) == (x == y)
        for x, y, z in itertools.product(words, repeat=3):
            assert lee_distance(x, z) <= lee_distance(x, y) + lee_distance(y, z)


def test_component_maps_examples():
    assert alpha(W([1, 2, 3])) == B([1, 0, 1])
    assert beta(W([0, 2])) == B([0, 1])
    assert gamma(W([3, 3])) == B([0, 0])


def test_component_maps_match_table():
    for xs in itertools.product(range(4), repeat=3):
        x = W(xs)
        assert alpha(x) == B([ALPHA[s] for s in xs])
        assert beta(x) == B([BETA[s] for s in xs])
        assert gamma(x) == B([GAMMA[s] for s in xs])


def test_gray_examples():
    assert gray(W([2, 2])) == B([1, 1, 1, 1])
    assert gray(W([0, 0])) == B([0, 0, 0, 0])
    assert gray(W([1, 3])) == B([0, 1, 1, 0])


def test_gray_is_beta_block_then_gamma_block():
    rng = random.Random(3)
    for _ in range(100):
        xs = [rng.randrange(4) for _ in range(rng.randrange(1, 33))]
        x = W(xs)
        assert gray(x) == B([BETA[s] for s in xs] + [GAMMA[s] for s in xs])


def test_gray_inverse_examples():
    assert gray_inverse(B([0, 0, 1, 1])) == W([1, 1])
    assert gray_inverse(B([1, 1, 1, 1])) == W([2, 2])
    assert gray_inverse(B([0, 1, 1, 0])) == W([1, 3])
    with pytest.raises(DimensionError):
        gray_inverse(B([0, 1, 0]))


def test_gray_bijection():
    for xs in itertools.product(range(4), repeat=3):
        x = W(xs)
        assert gray_inverse(gray(x)) == x
    for bits in itertools.product(range(2), repeat=4):
        b = B(bits)
        assert gray(gray_inverse(b)) == b


def test_hamming_distance_examples():
    assert hamming_distance(B([0, 0, 0, 0]), B([1, 1, 1, 1])) == 4
    assert hamming_distance(B([0, 1, 1, 0]), B([0, 1, 1, 0])) == 0
    assert hamming_distance(B([0, 1, 1, 0]), B([0, 0, 1, 1])) == 2
    with pytest.raises(DimensionError):
        hamming_distance(B([0]), B([0, 1]))


def test_isometry_exhaustive_n1():
    for x in all_words(1):
        for y in all_words(1):
            assert lee_distance(x, y) == hamming_distance(gray(x), gray(y))


def test_table_consistency_per_symbol():
    for s in range(4):
        x = W([s])
        assert gray(x) == B([BETA[s], GAMMA[s]])
        assert lee_weight(x) == gray(x).weight()


def test_word_validation_and_immutability():
    with pytest.raises(ValueError):
        W([4])
    with pytest.raises(ValueError):
        W([])
    with pytest.raises(ValueError):
        B([2])
    x = W([1, 2])
    with pytest.raises(AttributeError):
        x.n = 5
    assert W.from_string("1023").digits() == "1023"
    assert B.from_string("0110").digits() == "0110"
    with pytest.raises(ValueError):
        W.from_string("104")
    with pytest.raises(ValueError):
        B.from_string("012")


def test_indexing_and_iteration():
    x = W([1, 0, 2, 3])
    assert list(x) == [1, 0, 2, 3]
    assert x[2] == 2
    assert len(x) == 4
    b = B([1, 0, 1])
    assert list(b) == [1, 0, 1]
    assert b[0] == 1 and b.weight() == 2
    assert (b ^ B([1, 1, 1])) == B([0, 1, 0])


@st.composite
def _same_length_pairs(draw):
    n = draw(st.integers(1, 100))
    digits = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    return W(draw(digits)), W(draw(digits))


@settings(max_examples=300, deadline=None)
@given(pair=_same_length_pairs())
def test_lee_weight_of_sum_is_hamming_weight_of_gray_xor(pair):
    # wt_L(x + c) = d_L(x, -c) = w_H(gray(x) ^ gray(-c))
    x, c = pair
    assert lee_weight(add(x, c)) == (gray(x)._packed ^ gray(negate(c))._packed).bit_count()
    assert lee_weight(add(x, c)) == hamming_distance(gray(x), gray(negate(c)))


# The word contract: these messages reach CLI stderr through gray, ungray,
# member and code files, so they stay byte-identical.
_WORD_ERRORS = [
    (lambda: W([4]), ValueError, "symbol 4 at position 0 is not in 0..3"),
    (lambda: W([1, -1]), ValueError, "symbol -1 at position 1 is not in 0..3"),
    (lambda: W([]), ValueError, "a Z4Word needs at least one coordinate"),
    (lambda: W.zero(0), ValueError, "length must be positive"),
    (lambda: W.from_string("104"), ValueError, "bad symbol character '4' at position 2"),
    (lambda: W.from_string("1 2"), ValueError, "bad symbol character ' ' at position 1"),
    (lambda: W.from_string(""), ValueError, "a Z4Word needs at least one coordinate"),
    (lambda: B([2]), ValueError, "bit 2 at position 0 is not 0 or 1"),
    (lambda: B([0, 1, -1]), ValueError, "bit -1 at position 2 is not 0 or 1"),
    (lambda: B([]), ValueError, "a BitWord needs at least one coordinate"),
    (lambda: B.zero(0), ValueError, "length must be positive"),
    (lambda: B.from_string("012"), ValueError, "bad bit character '2' at position 2"),
    (lambda: B.from_string("x"), ValueError, "bad bit character 'x' at position 0"),
    (lambda: B.from_string(""), ValueError, "a BitWord needs at least one coordinate"),
    (lambda: W([1, 2])[2], IndexError, "2"),
    (lambda: W([1, 2])[-1], IndexError, "-1"),
    (lambda: B([1])[1], IndexError, "1"),
    (lambda: B([1])[-1], IndexError, "-1"),
]


@pytest.mark.parametrize("make, exc, message", _WORD_ERRORS)
def test_word_error_messages_are_pinned(make, exc, message):
    with pytest.raises(exc) as e:
        make()
    assert type(e.value) is exc
    assert str(e.value) == message


@pytest.mark.parametrize(
    "cls, lanes, message",
    [(W, [1, 2], "Z4Word is immutable"), (B, [1, 0], "BitWord is immutable")],
)
@pytest.mark.parametrize("attr", ["n", "_packed", "extra"])
def test_word_setattr_is_refused(cls, lanes, message, attr):
    word = cls(lanes)
    with pytest.raises(AttributeError) as e:
        setattr(word, attr, 1)
    assert str(e.value) == message
    assert not hasattr(word, "__dict__")
    assert list(word) == lanes


@pytest.mark.parametrize(
    "cls, lanes, message",
    [(W, [1, 2], "Z4Word is immutable"), (B, [1, 0], "BitWord is immutable")],
)
@pytest.mark.parametrize("attr", ["n", "_packed", "extra"])
def test_word_delattr_is_refused(cls, lanes, message, attr):
    word = cls(lanes)
    with pytest.raises(AttributeError) as e:
        delattr(word, attr)
    assert str(e.value) == message
    assert list(word) == lanes
    assert repr(word) == f"{cls.__name__}({''.join(map(str, lanes))!r})"


def test_word_repr_is_pinned():
    assert repr(W([1, 0, 2, 3])) == "Z4Word('1023')"
    assert repr(B([0, 1, 1, 0])) == "BitWord('0110')"
    assert repr(W.zero(3)) == "Z4Word('000')"


_z4_lanes = st.lists(st.integers(0, 3), min_size=1, max_size=70)
_bit_lanes = st.lists(st.integers(0, 1), min_size=1, max_size=140)
_classes_and_lanes = st.one_of(
    st.tuples(st.just(W), _z4_lanes), st.tuples(st.just(B), _bit_lanes)
)


@settings(max_examples=200, deadline=None)
@given(case=_classes_and_lanes)
def test_word_round_trips(case):
    cls, lanes = case
    x = cls(lanes)
    text = "".join(map(str, lanes))
    assert len(x) == x.n == len(lanes)
    assert list(x) == lanes
    assert [x[i] for i in range(len(x))] == lanes
    assert x.digits() == text
    assert cls.from_string(text) == x
    assert cls.from_string(x.digits()).digits() == text
    assert cls._raw(x.n, x._packed) == x


@settings(max_examples=200, deadline=None)
@given(a=_classes_and_lanes, b=_classes_and_lanes)
def test_word_eq_and_hash_agree(a, b):
    x, y = a[0](a[1]), b[0](b[1])
    same = a[0] is b[0] and a[1] == b[1]
    assert (x == y) is same
    assert (x != y) is not same
    if same:
        assert hash(x) == hash(y)
    assert x == a[0](a[1]) and hash(x) == hash(a[0](a[1]))


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 80), data=st.data())
def test_z4word_never_equals_bitword(n, data):
    packed = data.draw(st.integers(0, (1 << n) - 1))
    z, b = W._raw(n, packed), B._raw(n, packed)
    assert z != b and b != z
    assert len({z, b}) == 2


@settings(max_examples=300, deadline=None)
@given(cls=st.sampled_from([W, B]), n=st.integers(1, 300), data=st.data())
def test_text_equals_the_lane_by_lane_oracle(cls, n, data):
    # odd n leaves half of a Z4Word's last hex digit unused
    lanes = data.draw(st.lists(st.integers(0, (1 << cls._WIDTH) - 1), min_size=n, max_size=n))
    x = cls(lanes)
    text = oracles.digits(x)
    assert x.digits() == text
    assert cls.from_string(text) == oracles.from_string(cls, text) == x


@settings(max_examples=300, deadline=None)
@given(cls=st.sampled_from([W, B]), text=st.text(st.sampled_from("0123_ +-x٢²"), max_size=12))
def test_from_string_equals_the_oracle_on_any_text(cls, text):
    try:
        want = oracles.from_string(cls, text)
    except ValueError as e:
        with pytest.raises(ValueError) as got:
            cls.from_string(text)
        assert str(got.value) == str(e)
    else:
        assert cls.from_string(text) == want


# int() reads each of these in base 2 or 4, or refuses it with another message
_TEXT_INT_TAKES = ["", " 1", "1 ", "0_1", "+1", "-1", "٢", "²", "4"]


@pytest.mark.parametrize(
    "cls, text", [(W, t) for t in _TEXT_INT_TAKES] + [(B, t) for t in _TEXT_INT_TAKES + ["2"]]
)
def test_from_string_refuses_what_int_takes(cls, text):
    with pytest.raises(ValueError) as want:
        oracles.from_string(cls, text)
    with pytest.raises(ValueError) as got:
        cls.from_string(text)
    assert str(got.value) == str(want.value)
