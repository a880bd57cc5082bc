"""Set partitions and the refinement order.

The paper (Sec. III) explores multiple-kernel configurations as points
of the partition lattice ``Pi(S)`` of the feature set ``S``: each block
of a partition yields one kernel, and lattice moves ("smushing" block
boundaries) navigate between configurations.  This module implements the
value type for partitions: canonical form, restricted-growth strings,
the refinement partial order, meet and join (which make ``Pi(S)`` a
complete lattice), covering moves, rank, and exact uniform sampling.

Elements of the ground set may be any mutually orderable hashables
(feature names, column indices, ...).
"""

from __future__ import annotations

import itertools
from collections.abc import Hashable, Iterable, Iterator, Sequence
from typing import Any

from repro.combinatorics.stirling import bell_number, stirling2

__all__ = [
    "SetPartition",
    "all_partitions",
    "partitions_with_blocks",
    "random_partition",
    "restricted_growth_strings",
]

Element = Hashable


class SetPartition:
    """An immutable partition of a finite ground set into disjoint blocks.

    Blocks are canonicalised: elements sorted within each block, blocks
    ordered by their minimum element.  Instances are hashable and compare
    equal iff they have the same blocks, so they can serve as dict keys
    during lattice searches.

    >>> pi = SetPartition([("a", "b"), ("c",)])
    >>> pi.n_blocks
    2
    >>> pi.block_of("b")
    ('a', 'b')
    """

    __slots__ = ("_blocks", "_ground_set", "_index_map", "_hash")

    def __init__(self, blocks: Iterable[Iterable[Element]]):
        cleaned: list[tuple[Element, ...]] = []
        seen: set[Element] = set()
        for raw_block in blocks:
            block = tuple(sorted(raw_block))
            if not block:
                raise ValueError("blocks must be non-empty")
            for element in block:
                if element in seen:
                    raise ValueError(f"element {element!r} appears in two blocks")
                seen.add(element)
            cleaned.append(block)
        if not cleaned:
            raise ValueError("a partition needs at least one block")
        cleaned.sort(key=lambda block: block[0])
        self._blocks: tuple[tuple[Element, ...], ...] = tuple(cleaned)
        self._ground_set: frozenset[Element] | None = frozenset(seen)
        self._index_map: dict[Element, int] | None = None
        self._hash = hash(self._blocks)

    @classmethod
    def _from_canonical(
        cls, blocks: tuple[tuple[Element, ...], ...]
    ) -> "SetPartition":
        """Trusted constructor for generators that already emit the
        canonical form: non-empty, pairwise-disjoint blocks, each
        sorted, ordered by their first element.  Skips the validation
        and sorting of ``__init__``; callers own the invariant.  The
        ground set and element index are built on first use."""
        partition = cls.__new__(cls)
        partition._blocks = blocks
        partition._ground_set = None
        partition._index_map = None
        partition._hash = hash(blocks)
        return partition

    @property
    def _index(self) -> dict[Element, int]:
        """Element -> block index, built on first use."""
        index = self._index_map
        if index is None:
            index = self._index_map = {
                element: i
                for i, block in enumerate(self._blocks)
                for element in block
            }
        return index

    @property
    def _ground(self) -> frozenset[Element]:
        ground = self._ground_set
        if ground is None:
            ground = self._ground_set = frozenset(self._index)
        return ground

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def singletons(cls, elements: Iterable[Element]) -> "SetPartition":
        """Return the finest partition: every element in its own block."""
        return cls([(element,) for element in elements])

    @classmethod
    def coarsest(cls, elements: Iterable[Element]) -> "SetPartition":
        """Return the one-block partition of the given elements."""
        return cls([tuple(elements)])

    @classmethod
    def from_rgs(
        cls, rgs: Sequence[int], elements: Sequence[Element] | None = None
    ) -> "SetPartition":
        """Build a partition from a restricted-growth string.

        ``rgs[i]`` is the block label of ``elements[i]``; labels must
        satisfy ``rgs[0] == 0`` and ``rgs[i] <= max(rgs[:i]) + 1``.
        """
        if elements is None:
            elements = list(range(len(rgs)))
        if len(elements) != len(rgs):
            raise ValueError("rgs and elements must have equal length")
        if not rgs:
            raise ValueError("rgs must be non-empty")
        if rgs[0] != 0:
            raise ValueError("a restricted-growth string starts with 0")
        highest = 0
        blocks: dict[int, list[Element]] = {}
        for position, label in enumerate(rgs):
            if label > highest + 1 or label < 0:
                raise ValueError(f"label {label} at position {position} breaks growth")
            highest = max(highest, label)
            blocks.setdefault(label, []).append(elements[position])
        return cls(blocks.values())

    @classmethod
    def from_labels(cls, labels: dict[Element, Any]) -> "SetPartition":
        """Group elements that share a label value into blocks."""
        blocks: dict[Any, list[Element]] = {}
        for element, label in labels.items():
            blocks.setdefault(label, []).append(element)
        return cls(blocks.values())

    # ------------------------------------------------------------------
    # Basic structure
    # ------------------------------------------------------------------

    @property
    def blocks(self) -> tuple[tuple[Element, ...], ...]:
        """The blocks, min-ordered, each internally sorted."""
        return self._blocks

    @property
    def ground_set(self) -> frozenset[Element]:
        """The set being partitioned."""
        return self._ground

    @property
    def n_blocks(self) -> int:
        """The number of blocks."""
        return len(self._blocks)

    @property
    def size(self) -> int:
        """The number of ground-set elements."""
        return len(self._ground)

    @property
    def rank(self) -> int:
        """Rank in the partition lattice: ``|S| - #blocks``.

        The finest partition has rank 0; the one-block partition has the
        maximum rank ``|S| - 1``.  Matches the paper's convention that
        rank-``i`` partitions have ``n - i`` blocks.
        """
        return self.size - self.n_blocks

    @property
    def type_composition(self) -> tuple[int, ...]:
        """Block sizes in min-of-block order (the partition's *type*).

        This is the composition used by the Loeb--Damiani--D'Antona
        construction: e.g. ``12/3/4`` has type ``(2, 1, 1)``.
        """
        return tuple(len(block) for block in self._blocks)

    def block_of(self, element: Element) -> tuple[Element, ...]:
        """Return the block containing ``element``."""
        try:
            return self._blocks[self._index[element]]
        except KeyError:
            raise KeyError(f"{element!r} is not in the ground set") from None

    def block_index_of(self, element: Element) -> int:
        """Return the min-ordered index of the block containing ``element``."""
        try:
            return self._index[element]
        except KeyError:
            raise KeyError(f"{element!r} is not in the ground set") from None

    def same_block(self, first: Element, second: Element) -> bool:
        """Return True if the two elements share a block."""
        return self.block_index_of(first) == self.block_index_of(second)

    def to_rgs(self, elements: Sequence[Element] | None = None) -> tuple[int, ...]:
        """Return the restricted-growth string over ``elements`` order.

        With the default element order (sorted ground set) the result is
        a canonical RGS; round-trips with :meth:`from_rgs`.
        """
        if elements is None:
            elements = sorted(self._ground)
        relabel: dict[int, int] = {}
        rgs: list[int] = []
        for element in elements:
            raw = self.block_index_of(element)
            if raw not in relabel:
                relabel[raw] = len(relabel)
            rgs.append(relabel[raw])
        return tuple(rgs)

    # ------------------------------------------------------------------
    # Order structure
    # ------------------------------------------------------------------

    def is_refinement_of(self, other: "SetPartition") -> bool:
        """Return True if ``self <= other``: every block of ``self`` lies
        inside a block of ``other`` (``self`` is finer)."""
        self._check_same_ground(other)
        for block in self._blocks:
            target = other.block_index_of(block[0])
            if any(other.block_index_of(element) != target for element in block[1:]):
                return False
        return True

    def is_coarsening_of(self, other: "SetPartition") -> bool:
        """Return True if ``self >= other`` in refinement order."""
        return other.is_refinement_of(self)

    def __le__(self, other: "SetPartition") -> bool:
        return self.is_refinement_of(other)

    def __lt__(self, other: "SetPartition") -> bool:
        return self != other and self.is_refinement_of(other)

    def __ge__(self, other: "SetPartition") -> bool:
        return other.is_refinement_of(self)

    def __gt__(self, other: "SetPartition") -> bool:
        return self != other and other.is_refinement_of(self)

    def meet(self, other: "SetPartition") -> "SetPartition":
        """Return the common refinement (greatest lower bound).

        Blocks of the meet are the non-empty pairwise intersections of
        blocks of the two operands.
        """
        self._check_same_ground(other)
        groups: dict[tuple[int, int], list[Element]] = {}
        for element in self._ground:
            key = (self.block_index_of(element), other.block_index_of(element))
            groups.setdefault(key, []).append(element)
        return SetPartition(groups.values())

    def join(self, other: "SetPartition") -> "SetPartition":
        """Return the finest common coarsening (least upper bound).

        Computed by union-find over the union of both block structures.
        """
        self._check_same_ground(other)
        parent: dict[Element, Element] = {element: element for element in self._ground}

        def find(x: Element) -> Element:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def union(x: Element, y: Element) -> None:
            root_x, root_y = find(x), find(y)
            if root_x != root_y:
                parent[root_x] = root_y

        for partition in (self, other):
            for block in partition.blocks:
                for element in block[1:]:
                    union(block[0], element)
        groups: dict[Element, list[Element]] = {}
        for element in self._ground:
            groups.setdefault(find(element), []).append(element)
        return SetPartition(groups.values())

    def covers(self, other: "SetPartition") -> bool:
        """Return True if ``self`` covers ``other`` in refinement order.

        In the partition lattice, ``pi'`` covers ``pi`` exactly when
        ``pi'`` is obtained from ``pi`` by merging two blocks.
        """
        if self.n_blocks != other.n_blocks - 1:
            return False
        return other.is_refinement_of(self)

    # ------------------------------------------------------------------
    # Lattice moves ("smushing")
    # ------------------------------------------------------------------

    def merge_blocks(self, first_index: int, second_index: int) -> "SetPartition":
        """Return the coarsening that merges the two indexed blocks.

        This is the paper's "smushing" move: selectively dissolving a
        block boundary to climb one level in the lattice.
        """
        if first_index == second_index:
            raise ValueError("cannot merge a block with itself")
        blocks = list(self._blocks)
        try:
            merged = blocks[first_index] + blocks[second_index]
        except IndexError:
            raise IndexError("block index out of range") from None
        remaining = [
            block
            for i, block in enumerate(blocks)
            if i not in (first_index, second_index)
        ]
        return SetPartition(remaining + [merged])

    def merge_elements(self, first: Element, second: Element) -> "SetPartition":
        """Return the coarsening placing the two elements in one block."""
        i, j = self.block_index_of(first), self.block_index_of(second)
        if i == j:
            return self
        return self.merge_blocks(i, j)

    def split_block(
        self, index: int, left: Iterable[Element], right: Iterable[Element]
    ) -> "SetPartition":
        """Return the refinement splitting block ``index`` into two parts."""
        left_t, right_t = tuple(left), tuple(right)
        try:
            block = self._blocks[index]
        except IndexError:
            raise IndexError("block index out of range") from None
        if set(left_t) | set(right_t) != set(block) or set(left_t) & set(right_t):
            raise ValueError("split parts must disjointly cover the block")
        if not left_t or not right_t:
            raise ValueError("split parts must be non-empty")
        others = [b for i, b in enumerate(self._blocks) if i != index]
        return SetPartition(others + [left_t, right_t])

    def upper_covers(self) -> Iterator["SetPartition"]:
        """Yield every partition covering ``self`` (merge one block pair)."""
        for i, j in itertools.combinations(range(self.n_blocks), 2):
            yield self.merge_blocks(i, j)

    def lower_covers(self) -> Iterator["SetPartition"]:
        """Yield every partition covered by ``self`` (split one block)."""
        for index, block in enumerate(self._blocks):
            if len(block) < 2:
                continue
            anchor, rest = block[0], block[1:]
            # Enumerate proper two-part splits once by always keeping the
            # anchor element in the left part.
            for mask in range(0, 2 ** len(rest) - 1):
                left = [anchor]
                right = []
                for bit, element in enumerate(rest):
                    if mask >> bit & 1:
                        left.append(element)
                    else:
                        right.append(element)
                yield self.split_block(index, left, right)

    def restrict(self, elements: Iterable[Element]) -> "SetPartition":
        """Return the induced partition on a subset of the ground set."""
        wanted = set(elements)
        missing = wanted - self._ground
        if missing:
            raise ValueError(f"elements not in ground set: {sorted(missing)!r}")
        if not wanted:
            raise ValueError("cannot restrict to an empty set")
        blocks = []
        for block in self._blocks:
            kept = tuple(element for element in block if element in wanted)
            if kept:
                blocks.append(kept)
        return SetPartition(blocks)

    # ------------------------------------------------------------------
    # Dunders
    # ------------------------------------------------------------------

    def _check_same_ground(self, other: "SetPartition") -> None:
        if self._ground != other._ground:
            raise ValueError("partitions are over different ground sets")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetPartition):
            return NotImplemented
        return self._blocks == other._blocks

    def __hash__(self) -> int:
        return self._hash

    def __iter__(self) -> Iterator[tuple[Element, ...]]:
        return iter(self._blocks)

    def __len__(self) -> int:
        return len(self._blocks)

    def __repr__(self) -> str:
        inner = ", ".join("{" + ", ".join(map(repr, b)) + "}" for b in self._blocks)
        return f"SetPartition({inner})"

    def compact_str(self) -> str:
        """Render like the paper's Table I, e.g. ``'1/23/4'``."""
        return "/".join("".join(str(e) for e in block) for block in self._blocks)


def restricted_growth_strings(n: int) -> Iterator[tuple[int, ...]]:
    """Yield all restricted-growth strings of length ``n`` in lex order.

    RGS of length ``n`` are in bijection with partitions of an ``n``-set,
    so ``sum(1 for _ in restricted_growth_strings(n)) == bell_number(n)``.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return
    labels = [0] * n
    maxima = [0] * n

    while True:
        yield tuple(labels)
        position = n - 1
        while position > 0 and labels[position] == maxima[position - 1] + 1:
            position -= 1
        if position == 0:
            return
        labels[position] += 1
        maxima[position] = max(maxima[position - 1], labels[position])
        for i in range(position + 1, n):
            labels[i] = 0
            maxima[i] = maxima[position]


def all_partitions(elements: Sequence[Element]) -> Iterator[SetPartition]:
    """Yield every partition of ``elements`` (``bell_number(n)`` of them)."""
    ordered = sorted(elements)
    for rgs in restricted_growth_strings(len(ordered)):
        yield SetPartition.from_rgs(rgs, ordered)


def partitions_with_blocks(
    elements: Sequence[Element], k: int
) -> Iterator[SetPartition]:
    """Yield partitions of ``elements`` with exactly ``k`` blocks."""
    ordered = sorted(elements)
    n = len(ordered)
    if k < 1 or k > n:
        return
    for rgs in restricted_growth_strings(n):
        if max(rgs) == k - 1:
            yield SetPartition.from_rgs(rgs, ordered)


def random_partition(elements: Sequence[Element], rng) -> SetPartition:
    """Draw a uniformly random partition of ``elements``.

    First samples the block count ``k`` with probability proportional to
    ``S(n, k)``, then samples uniformly among ``k``-block partitions via
    the Stirling recurrence, so the overall draw is exactly uniform over
    all ``bell_number(n)`` partitions.  ``rng`` is a
    ``numpy.random.Generator``.
    """
    ordered = sorted(elements)
    n = len(ordered)
    if n == 0:
        raise ValueError("cannot partition an empty set")

    total = bell_number(n)
    threshold = rng.integers(0, total)
    k = 1
    cumulative = 0
    for candidate in range(1, n + 1):
        cumulative += stirling2(n, candidate)
        if threshold < cumulative:
            k = candidate
            break

    labels = [0] * n

    def assign(m: int, blocks: int) -> None:
        """Label elements 0..m-1 with a uniform (m, blocks)-partition."""
        if m == 0:
            return
        if blocks == m:
            for i in range(m):
                labels[i] = i
            return
        if blocks == 1:
            for i in range(m):
                labels[i] = 0
            return
        # Element m-1 is a singleton block with weight S(m-1, blocks-1),
        # otherwise it joins one of `blocks` blocks: weight blocks*S(m-1, blocks).
        singleton_weight = stirling2(m - 1, blocks - 1)
        join_weight = blocks * stirling2(m - 1, blocks)
        pick = rng.integers(0, singleton_weight + join_weight)
        if pick < singleton_weight:
            assign(m - 1, blocks - 1)
            labels[m - 1] = blocks - 1
        else:
            assign(m - 1, blocks)
            labels[m - 1] = int(rng.integers(0, blocks))

    assign(n, k)
    blocks_by_label: dict[int, list[Element]] = {}
    for element, label in zip(ordered, labels):
        blocks_by_label.setdefault(label, []).append(element)
    return SetPartition(blocks_by_label.values())
