"""The Loeb–Damiani–D'Antona partial symmetric chain decomposition of
the partition lattice (paper Sec. III, reference [11], Table I).

The construction transfers de Bruijn's symmetric chain decomposition of
the Boolean lattice ``B_n`` to the partition lattice ``Pi_{n+1}``:

1. **Encoding** ``c(S)``: a subset ``S ⊆ {1..n}`` is read as a set of
   "connectors" joining ``i`` and ``i+1`` on the path ``1 — 2 — ... —
   n+1``.  The connected components are intervals; digit ``d_j`` of
   ``c(S)`` is the size of the component whose right endpoint is ``j``
   (0 when ``j`` is interior to a component).  E.g. for ``n = 3``,
   ``c({2}) = 1021``.
2. **Type**: the non-zero digits of ``c(S)`` read right-to-left form a
   composition of ``n+1`` — the *partition type*.  A partition of
   ``[n+1]`` has type ``(λ_1, ..., λ_m)`` when its blocks, ordered by
   minimum element, have those sizes.  E.g. ``1021 → (1, 2, 1)`` whose
   partitions are ``1/23/4`` and ``1/24/3``.
3. **Chains**: walking up a de Bruijn chain adds one element ``i`` to
   ``S`` at a time, which merges the component ending at ``i`` into its
   right neighbour; on the partition side this merges two *adjacent*
   min-ordered blocks.  A type-``τ(S)`` partition has rank ``|S|`` in
   ``Pi_{n+1}``, so chains inherit rank symmetry from ``B_n``.
4. **Nesting**: the type classes grow towards the middle rank, so (as in
   de Bruijn's own construction) each level spawns *new, shorter*
   symmetric chains at the partitions not reached from below, while a
   chain started at rank ``j`` is cut off at rank ``n - j`` to stay
   symmetric.  Chains are threaded level-to-level by an injective map
   into the next type class — the canonical adjacent-block merge when it
   is injective, a bipartite cover matching otherwise.

The resulting chains are pairwise disjoint saturated symmetric chains
covering every partition of rank ``≤ ⌊(n-1)/2⌋``, and the collection is
maximal.  For ``n = 3`` the construction reproduces the paper's Table I
exactly, leaving the single partition ``134/2`` uncovered.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

from repro.combinatorics.boolean import Subset, format_subset
from repro.combinatorics.debruijn import debruijn_scd
from repro.combinatorics.partitions import SetPartition, all_partitions
from repro.combinatorics.posets import (
    ChainDecompositionReport,
    validate_chain_decomposition,
)
from repro.combinatorics.stirling import bell_number, stirling2

__all__ = [
    "ldd_encoding",
    "ldd_type",
    "partitions_of_type",
    "merge_position",
    "ldd_chains",
    "ldd_table",
    "LddTableRow",
    "ldd_coverage_report",
    "LddCoverage",
    "symmetric_chain_cover_upper_bound",
    "validate_partition_scd",
]


def ldd_encoding(subset: Subset, n: int) -> tuple[int, ...]:
    """Return the digits ``c(S)`` of the LDD encoding, length ``n + 1``.

    >>> ldd_encoding(frozenset({2}), 3)
    (1, 0, 2, 1)
    >>> ldd_encoding(frozenset(), 3)
    (1, 1, 1, 1)
    """
    if any(element < 1 or element > n for element in subset):
        raise ValueError("subset is not within {1, ..., n}")
    digits = [0] * (n + 1)
    run_length = 0
    for position in range(1, n + 2):
        run_length += 1
        # Position `position` is a right endpoint unless the connector
        # `position` (an element of S) joins it to `position + 1`.
        if position not in subset:
            digits[position - 1] = run_length
            run_length = 0
    return tuple(digits)


def ldd_type(subset: Subset, n: int) -> tuple[int, ...]:
    """Return the composition type: non-zero digits of ``c(S)``, reversed.

    >>> ldd_type(frozenset({1}), 3)
    (1, 1, 2)
    >>> ldd_type(frozenset({3}), 3)
    (2, 1, 1)
    """
    digits = ldd_encoding(subset, n)
    return tuple(digit for digit in reversed(digits) if digit)


def partitions_of_type(
    composition: Sequence[int], elements: Sequence | None = None
) -> Iterator[SetPartition]:
    """Yield partitions whose min-ordered block sizes equal ``composition``.

    ``elements`` defaults to ``1..sum(composition)`` to match the
    paper's notation.  Blocks are constructed left to right; each block
    must contain the smallest element not yet placed, so the number of
    results is ``count_partitions_of_type(composition)``.

    >>> [p.compact_str() for p in partitions_of_type((2, 1, 1))]
    ['12/3/4', '13/2/4', '14/2/3']
    """
    composition = tuple(composition)
    if any(part <= 0 for part in composition):
        raise ValueError("composition parts must be positive")
    if elements is None:
        elements = list(range(1, sum(composition) + 1))
    else:
        elements = sorted(elements)
    if len(elements) != sum(composition):
        raise ValueError("element count must equal the composition total")

    import itertools

    def build(
        remaining: tuple, parts: tuple[int, ...], blocks: tuple
    ) -> Iterator[SetPartition]:
        # Heads ascend and each block is its head plus a sorted
        # combination of larger elements, so every partition built here
        # is already canonical and skips SetPartition's validation.
        head, tail = remaining[0], remaining[1:]
        last = len(parts) == 2
        for chosen in itertools.combinations(tail, parts[0] - 1):
            rest = tuple(e for e in tail if e not in chosen)
            grown = blocks + ((head,) + chosen,)
            if last:
                # The final block is everything left.
                yield SetPartition._from_canonical(grown + (rest,))
            else:
                yield from build(rest, parts[1:], grown)

    if len(composition) < 2:
        yield SetPartition([elements])
        return
    yield from build(tuple(elements), composition, ())


def merge_position(subset: Subset, added: int, n: int) -> int:
    """Return the 0-based min-ordered block index ``p`` such that adding
    ``added`` to ``subset`` merges blocks ``p`` and ``p + 1``.

    ``added`` must not already be in ``subset``.  In the digit string
    ``c(S)``, position ``added`` holds the ``t``-th non-zero digit (its
    component's right endpoint) and merges into the next component; in
    the reversed (type) order this merges min-ordered blocks ``m - t``
    and ``m - t + 1`` (1-based), i.e. index ``m - t - 1`` (0-based).
    """
    if added in subset:
        raise ValueError(f"{added} is already in the subset")
    digits = ldd_encoding(subset, n)
    if digits[added - 1] == 0:
        raise AssertionError("an absent connector must end its component")
    nonzero_index = sum(1 for digit in digits[:added] if digit)  # t, 1-based
    n_parts = sum(1 for digit in digits if digit)  # m
    return n_parts - nonzero_index - 1


def _thread_level(
    tops: Sequence[SetPartition],
    target_pool: Sequence[SetPartition],
    merge_hint: int,
) -> list[SetPartition]:
    """Assign to each chain top a distinct cover inside ``target_pool``.

    Tries the canonical adjacent-block merge first (which reproduces the
    paper's Table I); when that map collides, falls back to a maximum
    bipartite matching over all covers of the right type.  Raises if the
    tops cannot all be threaded — by the LDD theorem this does not
    happen for the pools produced by :func:`ldd_chains`.
    """
    images = [top.merge_blocks(merge_hint, merge_hint + 1) for top in tops]
    if len(set(images)) == len(images):
        return images

    import networkx as nx

    target_set = set(target_pool)
    graph = nx.Graph()
    left = [("top", i) for i in range(len(tops))]
    graph.add_nodes_from(left, bipartite=0)
    for i, top in enumerate(tops):
        for a in range(top.n_blocks):
            for b in range(a + 1, top.n_blocks):
                cover = top.merge_blocks(a, b)
                if cover in target_set:
                    graph.add_node(("pool", cover), bipartite=1)
                    graph.add_edge(("top", i), ("pool", cover))
    matching = nx.bipartite.maximum_matching(graph, top_nodes=left)
    chosen: list[SetPartition] = []
    for i in range(len(tops)):
        key = ("top", i)
        if key not in matching:
            raise AssertionError(
                "LDD threading failed: no saturating cover matching"
            )
        chosen.append(matching[key][1])
    return chosen


def ldd_chains(n: int) -> list[tuple[SetPartition, ...]]:
    """Return the LDD collection of disjoint symmetric chains of ``Pi_{n+1}``.

    Each chain is a bottom-up tuple of :class:`SetPartition` over the
    ground set ``{1, ..., n+1}``.  Chains are nested per de Bruijn group:
    a chain entering rank ``j`` from below is continued while it can
    still reach its symmetric endpoint ``n - j``; partitions of the
    current type class not reached from below start new shorter chains
    (only while ``rank <= n/2``, otherwise they stay uncovered).  For
    ``n = 3`` this returns the six chains implicit in the paper's
    Table I.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    chains: list[tuple[SetPartition, ...]] = []
    for boolean_chain in debruijn_scd(n):
        bottom_level = len(boolean_chain[0])
        pools = [
            tuple(partitions_of_type(ldd_type(subset, n)))
            for subset in boolean_chain
        ]
        merge_hints: list[int] = []
        for current, upper in zip(boolean_chain, boolean_chain[1:]):
            (added,) = tuple(upper - current)
            merge_hints.append(merge_position(current, added, n))

        # Live chains carry their start level so they can be cut off at
        # the symmetric endpoint n - start.
        live: list[tuple[list[SetPartition], int]] = [
            ([partition], bottom_level) for partition in pools[0]
        ]
        finished: list[list[SetPartition]] = []
        for step, hint in enumerate(merge_hints):
            level = bottom_level + step
            continuing: list[tuple[list[SetPartition], int]] = []
            for chain, start in live:
                if n - start >= level + 1:
                    continuing.append((chain, start))
                else:
                    finished.append(chain)
            images = _thread_level(
                [chain[-1] for chain, _ in continuing], pools[step + 1], hint
            )
            used = set(images)
            for (chain, _), image in zip(continuing, images):
                chain.append(image)
            live = continuing
            next_level = level + 1
            if next_level <= n - next_level:
                for partition in pools[step + 1]:
                    if partition not in used:
                        live.append(([partition], next_level))
        finished.extend(chain for chain, _ in live)
        chains.extend(tuple(chain) for chain in finished)
    return chains


@dataclass(frozen=True)
class LddTableRow:
    """One row of the paper's Table I."""

    subset: Subset
    encoding: tuple[int, ...]
    type_composition: tuple[int, ...]
    partitions: tuple[SetPartition, ...]

    def format(self) -> str:
        """Render the row in the paper's style."""
        digits = "".join(str(d) for d in self.encoding)
        type_str = "".join(str(part) for part in self.type_composition)
        parts = ", ".join(p.compact_str() for p in self.partitions)
        return f"{format_subset(self.subset)} | {digits} -> {type_str} | {parts}"


def ldd_table(n: int) -> list[list[LddTableRow]]:
    """Reproduce Table I: rows grouped by de Bruijn chain of ``B_n``.

    Each row shows a subset ``S``, its encoding ``c(S)``, the resulting
    type, and *all* partitions of that type (the candidate pool listed
    by the paper; the chains of :func:`ldd_chains` thread through these
    pools).
    """
    groups: list[list[LddTableRow]] = []
    for boolean_chain in debruijn_scd(n):
        rows = [
            LddTableRow(
                subset=subset,
                encoding=ldd_encoding(subset, n),
                type_composition=ldd_type(subset, n),
                partitions=tuple(partitions_of_type(ldd_type(subset, n))),
            )
            for subset in boolean_chain
        ]
        groups.append(rows)
    return groups


@dataclass(frozen=True)
class LddCoverage:
    """Coverage statistics of the LDD chain collection over ``Pi_{n+1}``."""

    n: int
    n_chains: int
    n_partitions_total: int
    n_partitions_covered: int
    uncovered_by_rank: dict[int, int]
    guaranteed_rank: int
    low_ranks_fully_covered: bool
    counting_upper_bound: int

    @property
    def maximal_by_counting(self) -> bool:
        """True when coverage meets the rank-profile counting bound."""
        return self.n_partitions_covered >= self.counting_upper_bound


def symmetric_chain_cover_upper_bound(profile: Sequence[int]) -> int:
    """Counting upper bound on elements coverable by disjoint symmetric
    chains in a ranked poset with the given rank profile.

    A symmetric chain spanning ranks ``[i, r - i]`` consumes one element
    at every rank in between, so with ``k_i`` chains of span ``i`` the
    rank-``j`` budget forces ``sum(k_i for i <= min(j, r - j)) <=
    profile[j]``.  The nesting of these constraints makes the greedy
    allocation (longest chains first) optimal.
    """
    profile = list(profile)
    r = len(profile) - 1
    allocated = 0
    covered = 0
    for i in range(r // 2 + 1):
        if i > r - i:
            break
        budget = min(profile[j] for j in range(i, r - i + 1))
        k_i = max(0, budget - allocated)
        covered += k_i * (r - 2 * i + 1)
        allocated += k_i
    return covered


def ldd_coverage_report(n: int) -> LddCoverage:
    """Measure the LDD collection against the paper's claims for ``Pi_{n+1}``.

    Verifies (by exhaustive enumeration, so intended for small ``n``)
    that the chains cover every partition of rank ``≤ ⌊(n-1)/2⌋`` and
    reports the counting-bound maximality statistic.
    """
    chains = ldd_chains(n)
    covered: set[SetPartition] = set()
    for chain in chains:
        covered.update(chain)
    elements = list(range(1, n + 2))
    total = bell_number(n + 1)
    uncovered_by_rank: dict[int, int] = {}
    for partition in all_partitions(elements):
        if partition not in covered:
            rank = partition.rank
            uncovered_by_rank[rank] = uncovered_by_rank.get(rank, 0) + 1
    guaranteed = (n - 1) // 2
    low_ok = all(rank > guaranteed for rank in uncovered_by_rank)
    profile = [stirling2(n + 1, n + 1 - i) for i in range(n + 1)]
    return LddCoverage(
        n=n,
        n_chains=len(chains),
        n_partitions_total=total,
        n_partitions_covered=len(covered),
        uncovered_by_rank=uncovered_by_rank,
        guaranteed_rank=guaranteed,
        low_ranks_fully_covered=low_ok,
        counting_upper_bound=symmetric_chain_cover_upper_bound(profile),
    )


def validate_partition_scd(
    chains: Sequence[Sequence[SetPartition]], n: int
) -> ChainDecompositionReport:
    """Validate chains of ``Pi_{n+1}``: saturated, symmetric, disjoint."""
    return validate_chain_decomposition(
        chains,
        rank_of=lambda partition: partition.rank,
        covers=lambda upper, lower: upper.covers(lower),
        poset_rank=n,
    )
