"""Capacity-achieving multi-server retrieval over a subset of messages.

Implements the iterative one-singleton-per-message, side-information-reusing
query construction: in round i, each server is asked (N-1)^(i-1) XOR-sums
for every i-subset of the retrieval subset. Sums containing the desired
message pair one fresh desired bit with an (i-1)-sum of other messages that
some *other* server already answered verbatim, so the desired bit is
recovered with a single XOR. Sums without the desired message consume fresh
bits. Every bit position of every message is used at most once globally,
per-message positions are scrambled by private uniform permutations drawn
fresh per retrieval, and emitted combos are in canonical (sorted) order, so
the per-server query distribution is the same whichever subset member is
desired.

Messages longer than one block run the construction independently per block
of N^k bits with independent permutations.

A key draw consumes the rng exactly as ``random.Random.shuffle`` does, one
shuffle per (subset member, block), so seeded streams reproduce. Within one
server's query every (message, position) atom appears at most once, so the
first atoms of its combos are distinct and the lexicographic order of the
combos is the order of their first atoms, (subset position, bit position):
a session places each combo by its first atom instead of sorting, and
decode finds a combo's answer bit by its first atom.

The empirical privacy audit keeps only each query's ``query_pattern``.
``sample_orders`` draws the key rows with ``_shuffled_rows``, as
``PirKey.random`` does, lays them end to end in one flat list, and places
each combo of the template by its first atom, as a session does, as a small
id of the cells its atoms fall in, so neither a key nor a session is built.
A server's ``query_pattern`` is a function of its order of ids alone
(``order_pattern``), and the orders take few distinct values, so the audit
counts orders and maps each one once.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations, product
from operator import itemgetter

from .errors import (
    BlockMismatch,
    ConstructionFailed,
    DesiredNotInSubset,
    InconsistentAnswers,
    InvalidParams,
    OutOfRange,
)
from .core import MessageStore


@dataclass(frozen=True)
class SchemeParams:
    n_servers: int
    subset: tuple[int, ...]  # absolute message indices, ascending
    k: int
    block: int  # N^k bits
    blocks: int
    L: int


def pir_setup(n_servers: int, subset, L: int) -> SchemeParams:
    """The scheme over ``subset`` (any order, repeats ignored). Equal
    arguments share one SchemeParams, so the records that keep
    ``params.subset`` share one tuple per subset."""
    return _scheme_params(n_servers, tuple(sorted(set(subset))), L)


@lru_cache(maxsize=4096)
def _scheme_params(n_servers: int, subset: tuple[int, ...], L: int) -> SchemeParams:
    if n_servers < 2:
        raise InvalidParams(f"need at least 2 servers, got {n_servers}")
    if not subset:
        raise InvalidParams("retrieval subset is empty")
    if any(m < 0 for m in subset):
        raise InvalidParams(f"negative message index in {subset}")
    k = len(subset)
    block = n_servers**k
    if L < 1 or L % block != 0:
        raise BlockMismatch(f"L={L} is not a positive multiple of N^k={block}")
    return SchemeParams(
        n_servers=n_servers, subset=subset, k=k, block=block, blocks=L // block, L=L
    )


@dataclass(frozen=True)
class PirKey:
    """Per (subset position, block): a private permutation of bit positions."""

    perms: tuple[tuple[tuple[int, ...], ...], ...]

    @classmethod
    def random(cls, params: SchemeParams, rng: random.Random) -> "PirKey":
        """One uniform permutation per (subset member, block), drawn with
        the same ``getrandbits`` calls as ``rng.shuffle`` on the identity:
        the rows of ``_shuffled_rows``, ``blocks`` to a subset member."""
        rows = map(tuple, _shuffled_rows(params, rng))
        return cls(perms=tuple(zip(*[rows] * params.blocks)))


def _shuffled_rows(params: SchemeParams, rng: random.Random):
    """The key's k * blocks rows as lists, row c = j * blocks + b the
    permutation of subset member j in block b: each the identity shuffled
    in place with the ``getrandbits`` calls of ``rng.shuffle``."""
    getrandbits, steps = rng.getrandbits, _shuffle_steps(params.block)
    identity = range(params.block)
    for _ in range(params.k * params.blocks):
        row = list(identity)
        for i, width in steps:
            j = getrandbits(width)
            while j > i:
                j = getrandbits(width)
            row[i], row[j] = row[j], row[i]
        yield row


@lru_cache(maxsize=None)
def _shuffle_steps(size: int) -> tuple[tuple[int, int], ...]:
    """The Fisher-Yates steps of ``random.Random.shuffle`` on ``size`` items:
    for i from size-1 down to 1, swap item i with a uniform j <= i, drawn as
    ``getrandbits((i+1).bit_length())`` until it is at most i."""
    return tuple((i, (i + 1).bit_length()) for i in reversed(range(1, size)))


def enumerate_keys(params: SchemeParams):
    """All keys of the scheme; (block!)^(k * blocks) of them."""
    pools = [
        list(permutations(range(params.block)))
        for _ in range(params.k * params.blocks)
    ]
    for combo in product(*pools):
        perms = tuple(
            tuple(combo[j * params.blocks + b] for b in range(params.blocks))
            for j in range(params.k)
        )
        yield PirKey(perms=perms)


def key_count(params: SchemeParams) -> int:
    return math.factorial(params.block) ** (params.k * params.blocks)


@dataclass(frozen=True, slots=True)
class PirQuery:
    """Canonical query for one server: sorted XOR-combos of (msg, bit) pairs."""

    server: int
    combos: tuple[tuple[tuple[int, int], ...], ...]


@dataclass(frozen=True, slots=True)
class PirAnswer:
    server: int
    bits: tuple[int, ...]


@lru_cache(maxsize=None)
def _template(n_servers: int, k: int, desired_pos: int):
    """Key-free shape of one block, built once per (N, k, desired position).

    A key only fills in bit positions, and every block has the same shape.
    Atom j * N^k + t stands for message subset[j] at the t-th position drawn
    from its block's permutation, key.perms[j][b][t] + b * N^k. Each combo is
    a tuple of atom indices in ascending order, which is ascending message
    order, so its first atom has the smallest subset position.

    Returns ``(singles, getters, plan, shapes)``. A block's pool is its atom
    list followed by the shared 1-tuple of each atom j * N^k + t, listed as
    (j, t) in ``singles``. ``getters[n]`` holds one ``(getter, j)`` pair per
    combo of server n, in generation order: the getter reads the combo off
    the pool, and j is the subset position of its first atom. Plan entries
    are (atom, server, first, side server, side first), where first is the
    pool index of the first atom of the combo that carries the desired
    atom, and side first that of the side combo it is XORed with;
    singletons have no side. ``shapes[n]`` lists the same combos as
    ``getters[n]``, each as its atoms' (j, t) pairs.

    Raises ``ConstructionFailed`` if two combos of one server share a first
    atom: the canonical order and the decode lookup both key on it.
    """
    block = n_servers**k
    drawn = [0] * k

    def atom(j):
        t = drawn[j]
        drawn[j] = t + 1
        return j * block + t

    per_server: list[list] = [[] for _ in range(n_servers)]
    decode = []
    side_pool: dict[tuple, list[list]] = {}
    for n in range(n_servers):
        for j in range(k):
            a = atom(j)
            if j == desired_pos:
                decode.append((a, n, a, None, None))
            else:
                side_pool.setdefault((j,), [[] for _ in range(n_servers)])[n].append(
                    len(per_server[n])
                )
            per_server[n].append((a,))

    others = [j for j in range(k) if j != desired_pos]
    for size in range(2, k + 1):
        new_pool: dict[tuple, list[list]] = {}
        for n in range(n_servers):
            for side_type in sorted(side_pool):
                for m in range(n_servers):
                    if m == n:
                        continue
                    for side in side_pool[side_type][m]:
                        a = atom(desired_pos)
                        combo = tuple(sorted(per_server[m][side] + (a,)))
                        decode.append((a, n, combo[0], m, per_server[m][side][0]))
                        per_server[n].append(combo)
            for group in combinations(others, size):
                for _ in range((n_servers - 1) ** (size - 1)):
                    new_pool.setdefault(group, [[] for _ in range(n_servers)])[n].append(
                        len(per_server[n])
                    )
                    per_server[n].append(tuple(atom(j) for j in group))
        side_pool = new_pool

    for n, combos in enumerate(per_server):
        if len({c[0] for c in combos}) != len(combos):
            raise ConstructionFailed(
                f"server {n} repeats a first atom at N={n_servers}, k={k}, "
                f"desired position {desired_pos}"
            )
    singles = [c[0] for combos in per_server for c in combos if len(c) == 1]
    slot = {a: k * block + i for i, a in enumerate(singles)}
    getters = tuple(
        tuple(
            (itemgetter(slot[c[0]]) if len(c) == 1 else itemgetter(*c), c[0] // block)
            for c in combos
        )
        for combos in per_server
    )
    shapes = tuple(
        tuple(tuple(divmod(a, block) for a in c) for c in combos) for combos in per_server
    )
    return tuple(divmod(a, block) for a in singles), getters, tuple(decode), shapes


@lru_cache(maxsize=None)
def _cells(subset: tuple[int, ...], L: int):
    """Per subset member, its (message, position) atoms and their 1-tuple
    combos. Sessions share them, so the queries a caller keeps hold no
    per-session copies of either."""
    return tuple(_atoms(msg, L) for msg in subset), tuple(_units(msg, L) for msg in subset)


@lru_cache(maxsize=None)
def _atoms(msg: int, L: int) -> tuple[tuple[int, int], ...]:
    return tuple((msg, pos) for pos in range(L))


@lru_cache(maxsize=None)
def _units(msg: int, L: int) -> tuple[tuple[tuple[int, int]], ...]:
    return tuple((atom,) for atom in _atoms(msg, L))


def query_pattern(params: SchemeParams, query: PirQuery):
    """Positional-equivalence class of a query.

    Each position is replaced by its first-appearance rank within its
    (message, block) cell, which shrinks the support enough for sampled
    comparisons to resolve. The pattern is a function of the query, so a
    query law that does not depend on the desired message gives a pattern
    law that does not either: equal pattern laws are necessary for query
    privacy. They are not shown to be sufficient: the key permutes each
    cell uniformly, but the pattern is not constant on an orbit of those
    permutations (relabelling a cell's positions can change it), so the
    query law need not be the pattern law times a uniform assignment of
    positions.

    This is the reference for ``order_pattern`` over ``sample_orders``,
    which the audit uses instead: on the same rng, those patterns equal
    this function over ``open_session(...).queries``.
    """
    ranks: dict[tuple[int, int], dict[int, int]] = {}
    pattern = []
    for combo in query.combos:
        out = []
        for msg, pos in combo:
            cell = (msg, pos // params.block)
            seen = ranks.setdefault(cell, {})
            if pos not in seen:
                seen[pos] = len(seen)
            out.append((msg, cell[1], seen[pos]))
        pattern.append(tuple(out))
    return tuple(pattern)


def sample_orders(params: SchemeParams, desired: int, rng: random.Random):
    """The N servers' canonical combo orders of one fresh session, without
    the session.

    Draws the key rows with ``_shuffled_rows``, as ``PirKey.random`` does,
    so the stream moves exactly as in ``open_session``, but lays them end to
    end in one flat list instead of building a ``PirKey``. Each combo of
    server n goes to the slot of its first atom, as in
    ``PirSession.from_key``, and stands there as the id of the cells its
    atoms fall in (see ``_pattern_plan``); server n's order is its ids in
    slot order. ``order_pattern`` turns an order into that server's
    ``query_pattern``.
    """
    if desired not in params.subset:
        raise DesiredNotInSubset(f"desired {desired} not in subset {params.subset}")
    empty, servers = _pattern_plan(
        params.n_servers, params.k, params.blocks, params.subset.index(desired)
    )
    flat = []
    for row in _shuffled_rows(params, rng):
        flat += row
    orders = []
    for placed in servers:
        slots = [*empty]
        for base, r, cid in placed:
            slots[base + flat[r]] = cid
        orders.append(tuple(filter(None, slots)))
    return orders


def order_pattern(params: SchemeParams, order: tuple[int, ...]):
    """The ``query_pattern`` of the query whose combos ``sample_orders``
    gave as ``order``.

    Within one server's query every atom appears at most once, so an
    atom's first-appearance rank in its (message, block) cell is the
    number of that cell's atoms met before it in canonical order.
    """
    k, subset = params.k, params.subset
    seen = [0] * (k * params.blocks)
    pattern = []
    for cid in order:
        b = cid >> k
        out = []
        for j in range(k):
            if cid >> j & 1:
                c = j * params.blocks + b
                out.append((subset[j], b, seen[c]))
                seen[c] += 1
        pattern.append(tuple(out))
    return tuple(pattern)


@lru_cache(maxsize=None)
def _pattern_plan(n_servers: int, k: int, blocks: int, desired_pos: int):
    """Key-free placement for ``sample_orders``, built once per scheme
    shape and desired position.

    Cell c = j * blocks + b is subset member j in block b, and key row c is
    ``key.perms[j][b]``, items c * N^k to c * N^k + N^k - 1 of the flat key
    rows. A combo's atoms in block b fall in the cells of the subset
    positions j set in a mask m, so ``b << k | m`` (positive, as m is)
    names them: the id does not depend on the server or the desired
    position.

    Returns ``(empty, servers)``: the k * L empty slots, and ``servers[n]``
    with one ``(base, r, id)`` entry per combo of server n and block: its
    first atom (j, t) lands at slot base plus item r = c * N^k + t of the
    ``_shuffled_rows`` laid end to end, base = j * L + b * N^k.
    """
    block = n_servers**k
    L = blocks * block
    *_, shapes = _template(n_servers, k, desired_pos)
    servers = tuple(
        tuple(
            (
                combo[0][0] * L + b * block,
                (combo[0][0] * blocks + b) * block + combo[0][1],
                b << k | sum(1 << j for j, _ in combo),
            )
            for b in range(blocks)
            for combo in combos
        )
        for combos in shapes
    )
    return (0,) * (k * L), servers


def pir_answer(query: PirQuery, store: MessageStore) -> PirAnswer:
    """XOR-evaluate each combo against the store; deterministic."""
    data = store.data
    K, L = store.K, store.L
    bits = []
    for combo in query.combos:
        acc = 0
        for msg, pos in combo:
            if not (0 <= msg < K) or not (0 <= pos < L):
                raise OutOfRange(f"combo references ({msg}, {pos})")
            acc ^= data[msg][pos]
        bits.append(acc)
    return PirAnswer(server=query.server, bits=tuple(bits))


def answer_length(query: PirQuery) -> int:
    return len(query.combos)


@dataclass
class PirSession:
    """One retrieval's state: key, canonical queries, and the decode plan.

    Each decode entry is (position, server, first atom, side server, side
    first atom): the desired bit at that position is the answer to the
    server's combo with that first atom, XORed with the side server's
    answer to its combo with the side first atom, if there is one.
    """

    params: SchemeParams
    desired: int
    key: PirKey
    queries: list[PirQuery]
    _decode: list

    @classmethod
    def from_key(cls, params: SchemeParams, desired: int, key: PirKey) -> "PirSession":
        """Deterministic canonical queries and decode plan for (params, desired, key)."""
        if desired not in params.subset:
            raise DesiredNotInSubset(f"desired {desired} not in subset {params.subset}")
        singles, getters, plan, _ = _template(
            params.n_servers, params.k, params.subset.index(desired)
        )
        cells, units = _cells(params.subset, params.L)
        pools = []
        for offset, rows in zip(range(0, params.L, params.block), zip(*key.perms)):
            pool = [atoms[p + offset] for atoms, row in zip(cells, rows) for p in row]
            pool += [units[j][rows[j][t] + offset] for j, t in singles]
            pools.append(pool)
        # a combo's first atom (subset[j], p) is unique within its server's
        # query, so slot j * L + p puts the combos in canonical order
        L = params.L
        queries = []
        for n, combos in enumerate(getters):
            slots = [None] * (params.k * L)
            placed = [(get, j * L) for get, j in combos]
            for pool in pools:
                for get, base in placed:
                    combo = get(pool)
                    slots[base + combo[0][1]] = combo
            queries.append(PirQuery(n, tuple(filter(None, slots))))
        decode = [
            (pool[a][1], n, pool[first], m, None if m is None else pool[side])
            for pool in pools
            for a, n, first, m, side in plan
        ]
        return cls(params=params, desired=desired, key=key, queries=queries, _decode=decode)

    def decode(self, answers: list[PirAnswer]) -> tuple[int, ...]:
        """Recover all L bits of the desired message; zero error by construction."""
        if len(answers) != len(self.queries):
            raise InconsistentAnswers(
                f"{len(answers)} answers for {len(self.queries)} queries"
            )
        lookup = []
        for query, answer in zip(self.queries, answers):
            if len(answer.bits) != len(query.combos):
                raise InconsistentAnswers(
                    f"server {query.server} answered {len(answer.bits)} bits "
                    f"for {len(query.combos)} combos"
                )
            lookup.append(dict(zip([c[0] for c in query.combos], answer.bits)))
        bits = [0] * self.params.L
        for pos, n, first, side_server, side_first in self._decode:
            value = lookup[n][first]
            if side_first is not None:
                value ^= lookup[side_server][side_first]
            bits[pos] = value
        return tuple(bits)


def open_session(params: SchemeParams, desired: int, rng: random.Random) -> PirSession:
    """Draw a fresh key and build the N queries for the desired message."""
    return PirSession.from_key(params, desired, PirKey.random(params, rng))
