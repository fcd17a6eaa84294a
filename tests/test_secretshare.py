import itertools
import json

import pytest
from hypothesis import given, strategies as st

from doc_mutations import mutated

from dpnego.contracts import MEMO_LIMIT

from dpnego.secretshare import (
    FIELD_PRIME,
    AlreadyAuthorized,
    DuplicateIndex,
    InsufficientShares,
    InvalidThreshold,
    MixedScheme,
    ReleaseAuthority,
    SecretOutOfField,
    UnknownContract,
    reconstruct,
    shares_from_json,
    shares_to_json,
    split,
)


def test_single_share_scheme_is_the_secret():
    (share,) = split(12345, k=1, n=1, seed=1)
    assert share.value == 12345
    assert reconstruct([share]) == 12345


def test_three_of_five_reconstruct():
    shares = split(42, k=3, n=5, seed=7)
    assert len(shares) == 5
    for combo in itertools.combinations(shares, 3):
        assert reconstruct(list(combo)) == 42


@pytest.mark.parametrize("k,n", [(3, 5), (4, 7)])
def test_every_subset_and_order_reconstructs_under_two_moduli(k, n):
    # the Lagrange weights are memoized by (modulus, indices in the order
    # given): two fields share every index set, and each order is its own key
    secret = 2**120 + 12345
    schemes = [split(secret, k, n, seed=5, prime=prime) for prime in (FIELD_PRIME, 2**127 - 1)]
    for combo in itertools.combinations(range(n), k):
        for order in itertools.permutations(combo):
            for shares in schemes:
                assert reconstruct([shares[i] for i in order]) == secret
    for combo in itertools.combinations(range(n), k + 1):
        for order in (combo, combo[::-1], combo[1:] + combo[:1]):
            for shares in schemes:
                assert reconstruct([shares[i] for i in order]) == secret


def test_lagrange_memo_stays_bounded():
    from dpnego import secretshare

    secretshare._WEIGHTS.clear()
    shares = split(77, k=5, n=8, seed=2, prime=2**61 - 1)
    largest = 0
    for order in itertools.islice(itertools.permutations(shares, 5), MEMO_LIMIT + 100):
        assert reconstruct(list(order)) == 77
        largest = max(largest, len(secretshare._WEIGHTS))
        assert len(secretshare._WEIGHTS) <= MEMO_LIMIT
    assert largest == MEMO_LIMIT


def test_threshold_guard():
    with pytest.raises(InvalidThreshold):
        split(1, k=6, n=5, seed=1)
    with pytest.raises(InvalidThreshold):
        split(1, k=0, n=5, seed=1)


def test_secret_out_of_field():
    with pytest.raises(SecretOutOfField):
        split(FIELD_PRIME, k=2, n=3, seed=1)
    with pytest.raises(SecretOutOfField):
        split(-1, k=2, n=3, seed=1)


def test_insufficient_shares():
    shares = split(42, k=3, n=5, seed=7)
    with pytest.raises(InsufficientShares):
        reconstruct(list(shares[:2]))


def test_mixed_scheme_rejected():
    a = split(1, k=2, n=3, seed=1)
    b = split(1, k=2, n=3, seed=2)
    with pytest.raises(MixedScheme):
        reconstruct([a[0], b[1]])


def test_duplicate_index_rejected():
    shares = split(9, k=2, n=4, seed=3)
    with pytest.raises(DuplicateIndex):
        reconstruct([shares[0], shares[0]])


def test_large_secret_round_trip():
    secret = FIELD_PRIME - 12345
    shares = split(secret, k=4, n=7, seed=11)
    assert reconstruct(list(shares[1:5])) == secret


def test_share_json_round_trip():
    shares = split(777, k=3, n=5, seed=5)
    parsed = shares_from_json(shares_to_json(shares))
    assert tuple(parsed) == shares
    assert reconstruct(parsed[:3]) == 777


def test_split_deterministic_per_seed():
    assert split(42, 3, 5, seed=9) == split(42, 3, 5, seed=9)
    assert split(42, 3, 5, seed=9) != split(42, 3, 5, seed=10)


def test_authority_single_use():
    authority = ReleaseAuthority()
    shares = authority.enroll("contract-1", secret=4242, k=3, n=5, seed=13)
    token = authority.authorize_release("contract-1", list(shares[:3]))
    assert token.contract_id == "contract-1"
    assert not token.consumed
    token.consume()
    assert token.consumed
    with pytest.raises(AlreadyAuthorized):
        token.consume()
    with pytest.raises(AlreadyAuthorized):
        authority.authorize_release("contract-1", list(shares[:3]))


def test_authority_insufficient_shares():
    authority = ReleaseAuthority()
    shares = authority.enroll("contract-2", secret=1, k=3, n=5, seed=13)
    with pytest.raises(InsufficientShares):
        authority.authorize_release("contract-2", list(shares[:2]))


def test_authority_unknown_contract():
    authority = ReleaseAuthority()
    shares = split(1, 3, 5, seed=1)
    with pytest.raises(UnknownContract):
        authority.authorize_release("no-such", list(shares[:3]))


def test_authority_rejects_foreign_shares():
    authority = ReleaseAuthority()
    authority.enroll("contract-3", secret=5, k=2, n=3, seed=21)
    foreign = split(5, k=2, n=3, seed=22)
    with pytest.raises(MixedScheme):
        authority.authorize_release("contract-3", list(foreign[:2]))


def _share_doc(**changes):
    doc = split(777, k=3, n=5, seed=5)[0].to_dict()
    for key, value in changes.items():
        target = doc["scheme"] if key in ("k", "n", "modulus", "tag") else doc
        if value is None:
            del target[key]
        else:
            target[key] = value
    return doc


@pytest.mark.parametrize("changes", [
    {"index": "1"}, {"index": 1.0}, {"index": True}, {"index": None},
    {"value": 5}, {"value": "xyz"}, {"value": None},
    {"k": "3"}, {"n": False}, {"modulus": 7}, {"modulus": ""}, {"tag": 5},
    {"scheme": [3, 5]}, {"scheme": None},
    # hex that int(x, 16) would take but to_dict never writes
    {"value": "-1f"}, {"value": "+1f"}, {"value": "0x1f"}, {"value": " 1f"}, {"value": "1f "},
    {"value": "1_f"}, {"value": "1F"}, {"value": "01f"}, {"value": "-0"},
    {"modulus": "0x" + f"{FIELD_PRIME:x}"}, {"modulus": f"{FIELD_PRIME:X}"},
    # out of range
    {"value": f"{FIELD_PRIME:x}"}, {"modulus": "0"}, {"modulus": "-" + f"{FIELD_PRIME:x}"},
    {"index": -1}, {"index": 0}, {"index": 6}, {"k": 0}, {"k": -3}, {"k": 6}, {"n": 2},
], ids=repr)
def test_malformed_share_raises_value_error(changes):
    with pytest.raises(ValueError):
        shares_from_json(json.dumps([_share_doc(**changes)]))


@pytest.mark.parametrize("changes", [
    {"value": "0"}, {"value": f"{FIELD_PRIME - 1:x}"}, {"index": 5}, {"k": 1}, {"k": 5},
], ids=repr)
def test_share_at_the_edge_of_each_range_parses(changes):
    doc = _share_doc(**changes)
    (share,) = shares_from_json(json.dumps([doc]))
    assert share.to_dict() == doc


@pytest.mark.parametrize("text", ["5", "[5]", "null", '"shares"', '{"index": 1}', "[[]]", "{"])
def test_malformed_share_file_raises_value_error(text):
    with pytest.raises(ValueError):
        shares_from_json(text)


@given(st.data(), st.integers(min_value=0, max_value=2**64), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=3))
def test_any_one_mutation_of_a_share_file_is_refused_with_its_key_path(data, secret, k, extra):
    shares = json.loads(shares_to_json(split(secret, k, k + extra, seed=1)))
    required = [("*", key) for key in ("index", "value", "scheme")]
    required += [("*", "scheme", key) for key in ("k", "n", "modulus", "tag")]
    bad, path = data.draw(mutated(shares, required))
    with pytest.raises(ValueError) as info:
        shares_from_json(json.dumps(bad))
    assert str(info.value).startswith(f"{path} "), (bad, str(info.value))
