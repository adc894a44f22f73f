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
each server's query is uniform on an orbit the block template alone fixes
(``query_orbits``), the same whichever subset member is desired.

Messages longer than one block run the construction independently per block
of N^k bits with independent permutations.

A key is only its flat list of k * L slots: it sends atom j * L + b * N^k + t,
the t-th position the construction draws for subset member j in block b,
to slot j * L + b * N^k + p, bit b * N^k + p of message subset[j]. Its
draw shuffles each row of N^k slots in place with the ``getrandbits``
calls of ``random.Random.shuffle``, so seeded streams reproduce.

Within one server's query every (message, position) atom appears at most
once, so the lexicographic order of its combos is the order of their
first atoms' slots. Each (N, k, blocks, desired position) compiles once
into ``itemgetter`` tables over the atoms: a session gathers every combo
through the key's slots and places it by its first atom's slot instead of
sorting, and decode reads the desired bits through the same tables. The
empirical audit keeps only each query's ``query_pattern``, a function
(``order_pattern``) of the server's order of small cell ids
(``slot_orders``). Rows of slots never interleave, so every order is fixed
by a few ``<`` between first-atom slots in one row: ``sample_order_key``
draws the flat key and returns them, and the audit scatters once per key.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, combinations, groupby
from operator import itemgetter, lt, xor

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
    ``params.subset`` share one tuple per subset, so N, L and each member
    must be ints (InvalidParams): a float 2.0 == 2 would be shared too."""
    members = set(subset)
    if {type(n_servers), type(L), *map(type, members)} != {int}:
        raise InvalidParams(
            f"N, L and the subset must be ints, got {n_servers!r}, {L!r}, {subset!r}"
        )
    return _scheme_params(n_servers, tuple(sorted(members)), L)


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
    """Per (subset member, block): a private permutation of bit positions,
    held as one flat list of slots (see the module docstring)."""

    slots: list[int]
    __hash__ = None  # the slots are a list

    @classmethod
    def random(cls, params: SchemeParams, rng: random.Random) -> "PirKey":
        """One uniform permutation per (subset member, block), drawn with
        the same ``getrandbits`` calls as ``rng.shuffle`` on the identity."""
        return cls(_shuffled_slots(params, rng))


def _shuffled_slots(params: SchemeParams, rng: random.Random) -> list[int]:
    """A key's flat slot list: the identity on k * L slots with each row of
    N^k slots shuffled in place, rows in order, with the ``getrandbits``
    calls of ``rng.shuffle`` on that row."""
    getrandbits = rng.getrandbits
    slots = [*_identity(params.k * params.L)]
    for i, width, at, base in _shuffle_steps(params.k * params.L, params.block):
        j = getrandbits(width)
        while j > i:
            j = getrandbits(width)
        j += base
        slots[at], slots[j] = slots[j], slots[at]
    return slots


@lru_cache(maxsize=64)
def _identity(size: int) -> tuple[int, ...]:
    """range(size) as one shared tuple, so keys and tables share its ints;
    it is cut from a pool of ``_ints``, so identities of every size share
    them too."""
    return _ints((size - 1).bit_length())[:size]


@lru_cache(maxsize=None)
def _ints(bits: int) -> tuple[int, ...]:
    """range(2**bits): the pool of bits - 1 and the ints it lacks."""
    return _ints(bits - 1) + tuple(range(1 << (bits - 1), 1 << bits)) if bits else (0,)


@lru_cache(maxsize=64)
def _shuffle_steps(size: int, block: int) -> tuple[tuple[int, int, int, int], ...]:
    """The Fisher-Yates steps of ``random.Random.shuffle`` on each row of
    ``block`` slots of ``size``: for i from block-1 down to 1, swap slot
    base + i with base + j for a uniform j <= i, drawn as
    ``getrandbits((i+1).bit_length())`` until it is at most i. Entries are
    (i, width, base + i, base)."""
    ids = _identity(size)
    steps = [(i, (i + 1).bit_length()) for i in reversed(range(1, block))]
    return tuple(
        (i, width, ids[base + i], ids[base])
        for base in range(0, size, block)
        for i, width in steps
    )


@lru_cache(maxsize=256)
def query_orbits(params: SchemeParams, desired: int) -> tuple[tuple[int, ...], ...]:
    """Each server's query orbit label for ``desired``.

    A server's atoms in one block are distinct, so a uniform key makes its
    query uniform over the queries with the same combo masks (bits over
    subset positions) in every block: the label is their sorted multiset.
    """
    if desired not in params.subset:
        raise DesiredNotInSubset(f"desired {desired} not in subset {params.subset}")
    shapes, _ = _block_template(params.n_servers, params.k, params.subset.index(desired))
    return tuple(
        tuple(sorted(sum(1 << j for j, _ in combo) for combo in combos)) for combos in shapes
    )


@dataclass(frozen=True, slots=True)
class PirQuery:
    """Canonical query for one server: sorted XOR-combos of (msg, bit)
    pairs. Its server is its position in ``PirSession.queries``; the
    server's answer is a tuple of one bit per combo."""

    combos: tuple[tuple[tuple[int, int], ...], ...]


@lru_cache(maxsize=None)
def _block_template(n_servers: int, k: int, desired_pos: int):
    """Key-free shape of one block, built once per (N, k, desired position).

    Returns ``(shapes, plan)``. ``shapes[n]`` lists server n's combos in
    generation order, each as its atoms' (j, t) pairs, atom (j, t) the t-th
    position drawn for subset member j. A combo's atoms are in ascending j,
    which is ascending message order, so its first atom has the smallest
    subset position. ``plan`` has one entry (t, n, i, m, side) per desired
    atom (desired_pos, t), ascending in t: the desired bit is server n's
    answer to its combo i, XORed with server m's answer to its combo side;
    singletons have neither m nor side.

    Raises ``ConstructionFailed`` if a server repeats an atom: the
    canonical order keys on first atoms, and ``query_orbits`` needs them
    all distinct.
    """
    drawn = [0] * k

    def atom(j):
        t = drawn[j]
        drawn[j] = t + 1
        return j, t

    per_server: list[list] = [[] for _ in range(n_servers)]
    plan = []
    side_pool: dict[tuple, list[list]] = {}
    for n in range(n_servers):
        for j in range(k):
            a = atom(j)
            if j == desired_pos:
                plan.append((a[1], n, len(per_server[n]), None, None))
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
                        plan.append((a[1], n, len(per_server[n]), m, side))
                        per_server[n].append(tuple(sorted(per_server[m][side] + (a,))))
            for group in combinations(others, size):
                for _ in range((n_servers - 1) ** (size - 1)):
                    new_pool.setdefault(group, [[] for _ in range(n_servers)])[n].append(
                        len(per_server[n])
                    )
                    per_server[n].append(tuple(atom(j) for j in group))
        side_pool = new_pool

    for n, combos in enumerate(per_server):
        atoms = [*chain(*combos)]
        if len(set(atoms)) != len(atoms):
            raise ConstructionFailed(
                f"server {n} repeats an atom at N={n_servers}, k={k}, "
                f"desired position {desired_pos}"
            )
    return tuple(map(tuple, per_server)), tuple(sorted(plan))


@lru_cache(maxsize=256)
def _tables(n_servers: int, k: int, blocks: int, desired_pos: int):
    """Compiled gathers of one (N, k, blocks, desired position):
    ``(servers, first, side, size)``.

    Every combo of every server has a template index, from 1 to size - 1;
    index 0 stands for a zero bit. ``servers[n]`` is ``(firsts, ids,
    singles, groups, indices)`` for server n's combos in template index
    order: singletons first, then by size, block and generation order.
    ``firsts`` reads the key slots of their first atoms off the slot list,
    the first ``singles`` of them singletons, and ``ids`` are their cell
    ids (see ``slot_orders``); ``groups`` holds one ``(size, getter)`` per
    larger combo size, the getter reading all their atoms, combo after
    combo, off the atoms placed by the key; ``indices`` is the range of
    their template indices. ``first`` and ``side`` read, off the answer
    bits in template order, the two bits that XOR to each desired bit, for
    the desired atoms in ascending order.
    """
    shapes, plan = _block_template(n_servers, k, desired_pos)
    block = n_servers**k
    L = blocks * block
    # atom ids, cell ids and template indices, as ints shared with keys
    ids = _identity(max(k * L, blocks * sum(map(len, shapes)) + 1))

    def at(atom, b):
        j, t = atom
        return ids[j * L + b * block + t]

    index: dict[tuple[int, int, int], int] = {}
    servers = []
    for n, combos in enumerate(shapes):
        order = sorted((len(c), b, i) for b in range(blocks) for i, c in enumerate(combos))
        start = len(index) + 1
        for position, (_, b, i) in enumerate(order, start):
            index[n, b, i] = ids[position]
        singles = sum(size == 1 for size, _, _ in order)
        groups = tuple(
            (size, itemgetter(*[at(a, b) for _, b, i in run for a in combos[i]]))
            for size, run in groupby(order[singles:], key=itemgetter(0))
        )
        servers.append(
            (
                _getter([at(combos[i][0], b) for _, b, i in order]),
                tuple(ids[b << k | sum(1 << j for j, _ in combos[i])] for _, b, i in order),
                singles,
                groups,
                range(start, len(index) + 1),
            )
        )
    entries = [(b, entry) for b in range(blocks) for entry in plan]
    first = _getter([index[n, b, i] for b, (_, n, i, _, _) in entries])
    side = _getter([0 if m is None else index[m, b, s] for b, (_, _, _, m, s) in entries])
    return tuple(servers), first, side, len(index) + 1


def _getter(indices):
    """``itemgetter(*indices)``, returning a tuple for one index too."""
    if len(indices) == 1:
        return lambda items, i=indices[0]: (items[i],)
    return itemgetter(*indices)


@lru_cache(maxsize=256)
def _atom_table(subset: tuple[int, ...], L: int):
    """The (message, position) atoms and their 1-tuple combos at every
    slot j * L + p, p < L, of a key over ``subset``. Tables of different
    subsets share the atoms and 1-tuples of each message, so the queries a
    caller keeps hold no per-session copies of either."""
    tables = [_message_atoms(msg, L) for msg in subset]
    return tuple(chain(*(a for a, _ in tables))), tuple(chain(*(u for _, u in tables)))


@lru_cache(maxsize=256)
def _message_atoms(msg: int, L: int):
    atoms = tuple((msg, pos) for pos in range(L))
    return atoms, tuple((atom,) for atom in atoms)


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

    This is the reference for ``order_pattern`` over ``slot_orders``,
    which the audit uses instead: on the same key, those patterns equal
    this function over ``PirSession.from_key(...).queries``.
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


def sample_order_key(params: SchemeParams, desired: int, rng: random.Random):
    """``(key, slots)``: a fresh key's slots, drawn as ``PirKey.random``
    draws them, and a bytes key that fixes every server's ``slot_orders``.
    A server's order is its rows' pieces in row order, and a row whose
    combos share one cell id gives a fixed piece, so the key is the ``<``
    of each pair of first-atom slots in one row with different ids."""
    if desired not in params.subset:
        raise DesiredNotInSubset(f"desired {desired} not in subset {params.subset}")
    left, right = _order_key(params.n_servers, params.k, params.blocks, params.subset.index(desired))
    slots = _shuffled_slots(params, rng)
    return bytes(map(lt, left(slots), right(slots))), slots


@lru_cache(maxsize=256)
def _order_key(n_servers: int, k: int, blocks: int, desired_pos: int):
    """The gathers ``(left, right)`` of the first-atom slots of each pair
    of one server's combos that share a key row but not a cell id."""
    block = n_servers**k
    pairs = []
    for firsts, ids, _, _, _ in _tables(n_servers, k, blocks, desired_pos)[0]:
        rows: dict = {}
        # firsts over the identity gives the first atoms, row atom // block
        for atom, cid in zip(firsts(range(k * blocks * block)), ids):
            rows.setdefault(atom // block, []).append((atom, cid))
        for row in rows.values():
            pairs += [(a, c) for (a, i), (c, m) in combinations(row, 2) if i != m]
    return tuple(map(_getter, zip(*pairs))) or (lambda slots: (),) * 2


def slot_orders(params: SchemeParams, desired: int, slots: list[int]):
    """The N servers' combo orders under the key of ``slots``: server n's
    cell ids ``b << k | m`` (block b, subset positions in the mask m) by
    their first atoms' slots, as ``PirSession.from_key`` places combos."""
    servers = _tables(params.n_servers, params.k, params.blocks, params.subset.index(desired))[0]
    orders = []
    for firsts, ids, _, _, _ in servers:
        placed = [0] * len(slots)
        for slot, cid in zip(firsts(slots), ids):
            placed[slot] = cid
        orders.append(tuple(filter(None, placed)))
    return orders


def order_pattern(params: SchemeParams, order: tuple[int, ...]):
    """The ``query_pattern`` of the query whose combos ``slot_orders``
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


def pir_answer(query: PirQuery, store: MessageStore) -> tuple[int, ...]:
    """XOR-evaluate each combo against the store: one bit per combo,
    deterministic.

    An atom must pass one sign test, ``(msg | pos) >= 0``, and index the
    store; any failure reruns the evaluation with every atom checked,
    which raises what the checked loop raises at the first bad atom."""
    data = store.data
    bits = []
    append = bits.append
    try:
        for combo in query.combos:
            if len(combo) == 1:
                ((msg, pos),) = combo
                if (msg | pos) < 0:
                    raise IndexError
                append(data[msg][pos])
                continue
            acc = 0
            for msg, pos in combo:
                if (msg | pos) < 0:
                    raise IndexError
                acc ^= data[msg][pos]
            append(acc)
    except (IndexError, TypeError):
        return _checked_answer(query, store)
    return tuple(bits)


def _checked_answer(query: PirQuery, store: MessageStore) -> tuple[int, ...]:
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
    return tuple(bits)


@dataclass
class PirSession:
    """One retrieval's state: key, canonical queries, and the decode plan.

    ``_orders[n]`` lists the template index of each combo of server n's
    query, in query order; decode places the answer bits by it and reads
    the desired bits through the compiled tables.
    """

    params: SchemeParams
    desired: int
    key: PirKey
    queries: list[PirQuery]
    _orders: list[tuple[int, ...]]
    _tables: tuple

    @classmethod
    def from_key(cls, params: SchemeParams, desired: int, key: PirKey) -> "PirSession":
        """Deterministic canonical queries and decode plan for (params, desired, key)."""
        if desired not in params.subset:
            raise DesiredNotInSubset(f"desired {desired} not in subset {params.subset}")
        if len(key.slots) != params.k * params.L:  # a key of another scheme
            raise InvalidParams(f"a key of {len(key.slots)} slots for k·L = {params.k * params.L}")
        tables = _tables(params.n_servers, params.k, params.blocks, params.subset.index(desired))
        atoms, units = _atom_table(params.subset, params.L)
        slots = key.slots
        placed = itemgetter(*slots)(atoms)
        combos = [None]
        orders = []
        for firsts, _, singles, groups, indices in tables[0]:
            heads = firsts(slots)
            combos += _getter(heads[:singles])(units)
            for size, get in groups:
                combos += zip(*[iter(get(placed))] * size)
            # a combo's first atom is unique within its server's query, so
            # its slot puts the combos in canonical order
            order = [0] * len(slots)
            for slot, i in zip(heads, indices):
                order[slot] = i
            orders.append(tuple(filter(None, order)))
        queries = [PirQuery(_getter(order)(combos)) for order in orders]
        return cls(params, desired, key, queries, orders, tables)

    def decode(self, answers: list[tuple[int, ...]]) -> tuple[int, ...]:
        """Recover all L bits of the desired message from each server's
        answer bits, in server order; zero error by construction."""
        if len(answers) != len(self.queries):
            raise InconsistentAnswers(
                f"{len(answers)} answers for {len(self.queries)} queries"
            )
        _, first, side, size = self._tables
        bits = [0] * size
        for n, (order, answer) in enumerate(zip(self._orders, answers)):
            if len(answer) != len(order):
                raise InconsistentAnswers(
                    f"server {n} answered {len(answer)} bits for {len(order)} combos"
                )
            for i, bit in zip(order, answer):
                bits[i] = bit
        # the desired atoms land, in ascending order, at the desired
        # member's slots j * L + p, p their bit positions
        L = self.params.L
        start = self.params.subset.index(self.desired) * L
        out = [0] * (start + L)
        for slot, bit in zip(
            self.key.slots[start : start + L], map(xor, first(bits), side(bits))
        ):
            out[slot] = bit
        return tuple(out[start:])


def open_session(params: SchemeParams, desired: int, rng: random.Random) -> PirSession:
    """Draw a fresh key and build the N queries for the desired message,
    which must be an int (a bool included: InvalidParams)."""
    if type(desired) is not int:
        raise InvalidParams(f"the desired message must be an int, got {desired!r}")
    return PirSession.from_key(params, desired, PirKey.random(params, rng))
