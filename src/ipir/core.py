"""Exact probability primitives, message storage, and shared configuration.

Every probability is exact: a `fractions.Fraction`, or an integer numerator
over a common denominator, as a ``JointDistribution`` holds its law. The
privacy requirements checked elsewhere in the package are exact equalities
(zero mutual information), so probability-critical paths never touch
floating point; floats appear only in human-readable reporting.
"""

from __future__ import annotations

import hashlib
import json
import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from math import gcd, lcm

from .errors import (
    DistributionError,
    InvalidParams,
    NegativeEntry,
    SumNotOne,
)

ZERO = Fraction(0)


def parse_rational(text: str | int) -> Fraction:
    """Parse "a/b", "a", or an int into an exact Fraction. Anything else
    that does not read as a number, a bool included, and a zero
    denominator raise DistributionError."""
    if type(text) is int:
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError):
        raise DistributionError(f"{text!r} is not a rational number") from None


def as_fraction(value) -> Fraction:
    """``Fraction(value)``; a value it cannot read raises DistributionError."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ArithmeticError):
        raise DistributionError(f"{value!r} is not a rational number") from None


def format_rational(value: Fraction) -> str:
    """Render a Fraction as "a/b" (or "a" when the denominator is 1)."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def approx(value: Fraction) -> str:
    """Human-readable "a/b (≈x.xxxx)" rendering used in reports."""
    return f"{format_rational(value)} (≈{float(value):.4f})"


def scale_to_integers(values) -> tuple[list[int], int]:
    """``values`` times D, the lcm of their denominators, and D. Int and
    Fraction values are read as they are, anything else through Fraction."""
    ratios = [
        (v if isinstance(v, (int, Fraction)) else Fraction(v)).as_integer_ratio()
        for v in values
    ]
    scale = lcm(*[d for _, d in ratios])
    return [n * (scale // d) for n, d in ratios], scale


@dataclass(frozen=True)
class JointDistribution:
    """Joint law p(S, X) over [K] x [K]: p(S=s, X=x) = weights[s][x] / scale.

    The weights are integers over one common denominator in lowest terms,
    so ``scale`` is the lcm of the entries' denominators and equal laws are
    equal values; ``table[s][x]`` is the entry as a Fraction. A law from
    outside the package enters through ``validate_joint``; one derived
    exactly from another is built with ``over`` and not validated again.
    Indices are 0-based throughout the package.
    """

    weights: tuple[tuple[int, ...], ...]
    scale: int

    @classmethod
    def over(cls, weights, scale: int) -> "JointDistribution":
        """The law ``weights`` / ``scale`` in lowest terms. A negative
        weight raises NegativeEntry; the caller vouches that the weights
        sum to ``scale``. Weights or a scale that are not ints raise
        DistributionError."""
        try:
            least = min(chain.from_iterable(weights), default=0)
            divisor = gcd(scale, *(w for row in weights for w in row))
        except TypeError as exc:
            raise DistributionError(f"a law needs int weights and scale: {exc}") from None
        if least < 0:
            raise NegativeEntry(f"weight {least}/{scale} is negative")
        return cls(
            tuple(tuple(w // divisor for w in row) for row in weights), scale // divisor
        )

    @property
    def K(self) -> int:
        return len(self.weights)

    @cached_property
    def table(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(tuple(Fraction(w, self.scale) for w in row) for row in self.weights)

    def transposed(self) -> "JointDistribution":
        """The law of (X, S)."""
        return JointDistribution(tuple(zip(*self.weights)), self.scale)

    def support(self) -> tuple[int, ...]:
        """Indices s with p(S=s) > 0."""
        return tuple(s for s, row in enumerate(self.weights) if any(row))

    def to_json_dict(self) -> dict:
        return {"K": self.K, "p": [[format_rational(v) for v in row] for row in self.table]}

    @classmethod
    def from_json_dict(cls, data: dict) -> "JointDistribution":
        rows = [[parse_rational(v) for v in row] for row in data["p"]]
        return validate_joint(rows)


@dataclass(frozen=True)
class ConditionalMatrix:
    """Rows of p(X=x | S=s); ``rows[s][x]``. Unsupported s are flagged, not fatal.

    ``support`` lists the s values whose rows are meaningful (p(S=s) > 0 in
    the joint the matrix came from, or all rows when built directly).
    """

    K: int
    rows: tuple[tuple[Fraction, ...], ...]
    support: tuple[int, ...]

    def full_support(self) -> bool:
        return len(self.support) == self.K

    @classmethod
    def from_rows(cls, rows) -> "ConditionalMatrix":
        """Build from explicit row-stochastic rows (all rows supported)."""
        K = len(rows)
        if K == 0:
            raise DistributionError("a conditional matrix needs at least one row")
        frozen = []
        for s, row in enumerate(rows):
            row = tuple(map(as_fraction, row))
            if len(row) != K:
                raise DistributionError(f"row {s} has {len(row)} entries, expected {K}")
            if any(v < 0 for v in row):
                raise NegativeEntry(f"row {s} has a negative entry")
            total = sum(row, ZERO)
            if total != 1:
                raise SumNotOne(total, 1 - total)
            frozen.append(row)
        return cls(K=K, rows=tuple(frozen), support=tuple(range(K)))


def validate_joint(raw) -> JointDistribution:
    """Validate a square matrix of rationals as a joint distribution.

    Raises NegativeEntry or SumNotOne (with the exact deficit); degenerate
    but consistent inputs (rows of zeros) are accepted.
    """
    K = len(raw)
    entries = []
    for s, row in enumerate(raw):
        if len(row) != K:
            raise DistributionError(f"matrix not square: row {s} has {len(row)} entries, expected {K}")
        for x, v in enumerate(row):
            v = as_fraction(v)
            if v < 0:
                raise NegativeEntry(f"entry ({s}, {x}) = {v} is negative")
            entries.append(v)
    weights, scale = scale_to_integers(entries)
    total = Fraction(sum(weights), scale)
    if total != 1:
        raise SumNotOne(total, 1 - total)
    return JointDistribution(tuple(tuple(weights[i : i + K]) for i in range(0, K * K, K)), scale)


def conditional_from_joint(joint: JointDistribution) -> ConditionalMatrix:
    """Divide each supported row of the joint by its mass p(S=s).

    Rows with p(S=s) = 0 are excluded from ``support`` and left as zeros.
    """
    rows = []
    support = []
    for s, row in enumerate(joint.weights):
        mass = sum(row)
        if mass > 0:
            rows.append(tuple(Fraction(w, mass) for w in row))
            support.append(s)
        else:
            rows.append((ZERO,) * joint.K)
    return ConditionalMatrix(K=joint.K, rows=tuple(rows), support=tuple(support))


def capacity_cost(n_servers: int, k: int) -> Fraction:
    """Optimal normalized download cost for retrieving one of k messages
    from n_servers replicas: 1 + 1/N + ... + 1/N^(k-1), exactly; N, k ints."""
    if type(n_servers) is not int or type(k) is not int:
        raise InvalidParams(f"N and k must be ints, got {n_servers!r}, {k!r}")
    if n_servers < 2:
        raise InvalidParams(f"need at least 2 servers, got {n_servers}")
    if k < 1:
        raise InvalidParams(f"need at least 1 message, got {k}")
    return sum((Fraction(1, n_servers**j) for j in range(k)), ZERO)


@dataclass(frozen=True)
class MessageStore:
    """K messages of exactly L bits each, replicated at every server. K and
    L are ints, not bools or floats; each bit is an int 0 or 1, or a bool."""

    K: int
    L: int
    data: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if type(self.K) is not int or type(self.L) is not int:
            raise InvalidParams(f"K and L must be ints, got {self.K!r}, {self.L!r}")
        if self.K < 1:
            raise InvalidParams(f"need at least 1 message, got {self.K}")
        if self.L < 1:
            raise InvalidParams(f"need at least 1 bit per message, got {self.L}")
        if len(self.data) != self.K:
            raise InvalidParams(f"expected {self.K} messages, got {len(self.data)}")
        for m, bits in enumerate(self.data):
            if len(bits) != self.L:
                raise InvalidParams(f"message {m} has {len(bits)} bits, expected {self.L}")
            # a bool is a bit; a float such as 1.0 is not
            if not {*map(type, bits)} <= {int, bool} or not {*bits} <= {0, 1}:
                raise InvalidParams(f"message {m} contains non-bit values")

    @classmethod
    def random(cls, K: int, L: int, rng: random.Random) -> "MessageStore":
        if type(K) is not int or type(L) is not int:  # before any draw
            raise InvalidParams(f"K and L must be ints, got {K!r}, {L!r}")
        data = tuple(tuple(rng.randrange(2) for _ in range(L)) for _ in range(K))
        return cls(K=K, L=L, data=data)


@dataclass(frozen=True)
class SystemConfig:
    """System-wide parameters: server count, message count and length, seed.

    N, K, L and the seed are ints, not bools or floats, and L must be a
    multiple of N^K so the retrieval sub-scheme works for every subset size
    without per-retrieval padding.
    """

    N: int
    K: int
    L: int
    seed: int = 0

    def __post_init__(self):
        if any(type(v) is not int for v in (self.N, self.K, self.L)):
            raise InvalidParams(
                f"N, K and L must be ints, got {self.N!r}, {self.K!r}, {self.L!r}"
            )
        if type(self.seed) is not int:
            raise InvalidParams(f"seed must be an int, got {self.seed!r}")
        if self.N < 2:
            raise InvalidParams(f"need at least 2 servers, got {self.N}")
        if self.K < 1:
            raise InvalidParams(f"need at least 1 message, got {self.K}")
        if self.L < 1 or self.L % (self.N**self.K) != 0:
            raise InvalidParams(
                f"L={self.L} must be a positive multiple of N^K={self.N ** self.K}"
            )

    def check_store(self, store: MessageStore) -> None:
        """Raise InvalidParams unless ``store`` holds K messages of L bits,
        as this config does."""
        if (store.K, store.L) != (self.K, self.L):
            raise InvalidParams(
                f"store has K={store.K}, L={store.L}; config has K={self.K}, L={self.L}"
            )


def default_length(n_servers: int, k_messages: int) -> int:
    """Smallest valid message length for (N, K): N^K bits."""
    return n_servers**k_messages


def fork_rng(seed: int, *labels) -> random.Random:
    """Derive an independent named random stream from a master seed.

    Streams are identified by their label path, so components can draw
    randomness concurrently without changing each other's results.
    """
    tag = ":".join([str(seed), *map(str, labels)]).encode()
    digest = hashlib.blake2b(tag, digest_size=8).digest()
    return random.Random(int.from_bytes(digest, "big"))


class WeightedSampler:
    """Exact sampler over (value, count) pairs: each value is drawn with
    its count's share of their sum, over the counts reduced by their gcd.

    The pick, a uniform integer below the reduced sum drawn with the
    ``getrandbits`` calls of ``randrange`` on a ``random.Random``, is
    compared against the cumulative counts: no float bias enters, and a
    count of 0 is never drawn. No items, or counts all 0, raise
    InvalidParams, a count that is not an int (a bool included)
    DistributionError, and a negative count NegativeEntry."""

    def __init__(self, items):
        items = list(items)
        if not items:
            raise InvalidParams("nothing to sample from")
        self.values, counts = zip(*items)
        if any(type(c) is not int for c in counts):
            raise DistributionError(f"counts must be ints, got {counts!r}")
        if min(counts) < 0:
            raise NegativeEntry(f"count {min(counts)} is negative")
        g = gcd(*counts)
        if not g:
            raise InvalidParams("every count is 0")
        self.thresholds = list(accumulate(c // g for c in counts))
        self.denominator = self.thresholds[-1]
        self.width = self.denominator.bit_length()

    def draw(self, rng: random.Random):
        # the first value whose cumulative numerator exceeds the pick
        getrandbits, n, width = rng.getrandbits, self.denominator, self.width
        pick = getrandbits(width)
        while pick >= n:
            pick = getrandbits(width)
        return self.values[bisect_right(self.thresholds, pick)]


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(data, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
