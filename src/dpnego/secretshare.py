"""Shamir threshold secret sharing over a fixed prime field, plus the
one-time release-authorization registry."""

from __future__ import annotations

import hashlib
import json
import random
import re
import secrets as _secrets
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .contracts import MEMO_LIMIT, ValidationError, canonical_json, reader

# The secp256k1 base-field prime: a fixed, well-known 256-bit prime.
FIELD_PRIME = 2**256 - 2**32 - 977


class InvalidThreshold(ValueError):
    pass


class SecretOutOfField(ValueError):
    pass


class InsufficientShares(ValueError):
    pass


class MixedScheme(ValueError):
    pass


class DuplicateIndex(ValueError):
    pass


class AlreadyAuthorized(ValueError):
    pass


class UnknownContract(ValueError):
    pass


@dataclass(frozen=True)
class SchemeId:
    """Identifies one concrete sharing instance."""

    k: int
    n: int
    modulus: int
    tag: str


@dataclass(frozen=True)
class KeyShare:
    """One Shamir share of a secret: its x-coordinate, value and scheme."""

    index: int
    value: int
    scheme: SchemeId

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "value": f"{self.value:x}",
            "scheme": {
                "k": self.scheme.k,
                "n": self.scheme.n,
                "modulus": f"{self.scheme.modulus:x}",
                "tag": self.scheme.tag,
            },
        }


SHARE_SCHEMA = {
    "index": int,
    "value": str,
    "scheme": {"k": int, "n": int, "modulus": str, "tag": str},
}
_read_shares = reader([SHARE_SCHEMA])


def _share(doc: dict, where: str = "") -> KeyShare:
    """The share of a document ``SHARE_SCHEMA`` has read, at key path
    ``where``: ``value`` and ``modulus`` must pass ``_hex``, and the named
    predicates below must hold; else ValidationError."""
    at = f"{where}." if where else ""
    s = doc["scheme"]
    index, k, n = doc["index"], s["k"], s["n"]
    value, modulus = _hex(doc["value"], f"{at}value"), _hex(s["modulus"], f"{at}scheme.modulus")
    for rule, holds in (("value < modulus", value < modulus), ("1 <= k <= n", 1 <= k <= n),
                        ("1 <= index <= n", 1 <= index <= n)):
        if not holds:
            raise ValidationError(f"{where or 'the share'} must satisfy {rule}")
    return KeyShare(index=index, value=value, scheme=SchemeId(k, n, modulus, s["tag"]))


# What ``f"{x:x}"`` writes for an int x >= 0: no sign, prefix, whitespace,
# underscore, capital or leading zero.
_HEX = re.compile("0|[1-9a-f][0-9a-f]*")


def _hex(text: str, where: str) -> int:
    if _HEX.fullmatch(text):
        return int(text, 16)
    raise ValidationError(f"{where} must be lowercase hex digits, got {text!r}")


def shares_to_json(shares: Iterable[KeyShare]) -> str:
    return canonical_json([s.to_dict() for s in shares])


def shares_from_json(text: str) -> list[KeyShare]:
    """The shares ``shares_to_json`` writes, an array of ``SHARE_SCHEMA``; a
    malformed file raises ValueError."""
    return [_share(doc, f"[{i}]") for i, doc in enumerate(_read_shares(json.loads(text)))]


def split(
    secret: int,
    k: int,
    n: int,
    seed: int | None = None,
    prime: int = FIELD_PRIME,
) -> tuple[KeyShare, ...]:
    """Split a field element into n shares with reconstruction threshold k.

    Samples a uniform degree-(k-1) polynomial with constant term equal to the
    secret; share i is its evaluation at i. A seed gives a deterministic
    scheme for tests; without one, system entropy is used.
    """
    if k < 1 or k > n:
        raise InvalidThreshold(f"need 1 <= k <= n, got k={k} n={n}")
    if not 0 <= secret < prime:
        raise SecretOutOfField("secret must lie in the field")
    if seed is None:
        draw = lambda: _secrets.randbelow(prime)
        tag = _secrets.token_hex(16)
    else:
        rng = random.Random(seed)
        draw = lambda: rng.randrange(prime)
        tag = f"{rng.getrandbits(128):032x}"
    coeffs = [secret] + [draw() for _ in range(k - 1)]
    scheme = SchemeId(k=k, n=n, modulus=prime, tag=tag)
    shares = []
    for i in range(1, n + 1):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * i + c) % prime
        shares.append(KeyShare(index=i, value=acc, scheme=scheme))
    return tuple(shares)


def reconstruct(shares: Sequence[KeyShare]) -> int:
    """Lagrange-interpolate the polynomial at zero from at least k shares."""
    if not shares:
        raise InsufficientShares("no shares given")
    scheme = shares[0].scheme
    if any(s.scheme != scheme for s in shares):
        raise MixedScheme("shares belong to different schemes")
    indices = tuple(s.index for s in shares)
    if len(set(indices)) != len(indices):
        raise DuplicateIndex("duplicate share indices")
    if len(shares) < scheme.k:
        raise InsufficientShares(
            f"{len(shares)} shares cannot reach threshold {scheme.k}"
        )
    p = scheme.modulus
    weights = _lagrange_weights(p, indices)
    return sum(share.value * w for share, w in zip(shares, weights)) % p


# The Lagrange weights at zero by (modulus, share indices in the order
# given). They are public values, fixed by the share indices alone.
_WEIGHTS: dict[tuple[int, tuple[int, ...]], tuple[int, ...]] = {}


def _lagrange_weights(p: int, indices: tuple[int, ...]) -> tuple[int, ...]:
    """Each index i's weight prod over j != i of x_j / (x_j - x_i) mod p."""
    key = (p, indices)
    weights = _WEIGHTS.get(key)
    if weights is None:
        out = []
        for i in indices:
            num = den = 1
            for j in indices:
                if j != i:
                    num = num * j % p
                    den = den * (j - i) % p
            out.append(num * pow(den, -1, p) % p)
        if len(_WEIGHTS) >= MEMO_LIMIT:
            _WEIGHTS.clear()
        weights = _WEIGHTS[key] = tuple(out)
    return weights


@dataclass
class ReleaseToken:
    """Single-use authorization bound to one settled contract."""

    contract_id: str
    secret_digest: str
    token_id: str
    _consumed: bool = False

    @property
    def consumed(self) -> bool:
        return self._consumed

    def consume(self) -> "ReleaseToken":
        if self._consumed:
            raise AlreadyAuthorized(f"token for {self.contract_id} already consumed")
        self._consumed = True
        return self


@dataclass
class ReleaseAuthority:
    """Registry mapping settled contracts to their sharing schemes.

    Authorization reconstructs the enrolled secret from the presented shares,
    emits exactly one token per contract, and wipes the reconstruction buffer
    immediately after the digest is taken.
    """

    _enrolled: dict[str, tuple[SchemeId, str]] = field(default_factory=dict)
    _authorized: set[str] = field(default_factory=set)

    def enroll(
        self,
        contract_id: str,
        secret: int,
        k: int,
        n: int,
        seed: int | None = None,
        prime: int = FIELD_PRIME,
    ) -> tuple[KeyShare, ...]:
        shares = split(secret, k, n, seed=seed, prime=prime)
        digest = _secret_digest(secret)
        self._enrolled[contract_id] = (shares[0].scheme, digest)
        return shares

    def authorize_release(
        self, contract_id: str, shares: Sequence[KeyShare]
    ) -> ReleaseToken:
        if contract_id not in self._enrolled:
            raise UnknownContract(f"no settled contract {contract_id!r}")
        if contract_id in self._authorized:
            raise AlreadyAuthorized(f"contract {contract_id!r} already authorized")
        scheme, expected_digest = self._enrolled[contract_id]
        if any(s.scheme != scheme for s in shares):
            raise MixedScheme("shares do not match the enrolled scheme")
        secret = reconstruct(shares)
        buf = bytearray(secret.to_bytes(32, "big"))
        digest = hashlib.sha256(buf).hexdigest()
        buf[:] = bytes(len(buf))  # zeroize the reconstruction buffer
        del secret
        if digest != expected_digest:
            raise MixedScheme("reconstructed secret does not match enrollment")
        # record consumption of the authorization before any release can use it
        self._authorized.add(contract_id)
        token_id = hashlib.sha256(f"{contract_id}|{digest}".encode()).hexdigest()[:16]
        return ReleaseToken(
            contract_id=contract_id, secret_digest=digest, token_id=token_id
        )


def _secret_digest(secret: int) -> str:
    return hashlib.sha256(secret.to_bytes(32, "big")).hexdigest()
