"""Reference search nodes for the differential search tests.

These are the node, root, ``extend``, frontier and backtrack test of
``sqlsynth.search`` as they stood before a frontier entry became the
plain tuple ``(cost, -depth, tokens, text)``: a frozen ``SearchNode``
that carries its log-probability, and a ``Frontier`` heap whose entries
copy three of its fields.  ``tests/test_search.py`` runs its reference
loop on them.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from sqlsynth.lm import TokenCandidate


@dataclass(frozen=True)
class SearchNode:
    text: str
    tokens: tuple[str, ...] = ()
    log_prob: float = 0.0

    @property
    def depth(self) -> int:
        return len(self.tokens)

    @property
    def cum_prob(self) -> float:
        return math.exp(self.log_prob)


ROOT = SearchNode(text="")


def extend(node: SearchNode, candidate: TokenCandidate) -> SearchNode:
    """Fold one continuation into a node, accumulating in log space.

    Long generations underflow a plain probability product, so the node
    carries ``log_prob`` and ``cum_prob`` is recovered on demand.
    """
    if candidate.prob <= 0.0:
        raise ValueError("cannot extend with a zero-probability candidate")
    return SearchNode(
        text=node.text + candidate.surface,
        tokens=node.tokens + (candidate.token_id,),
        log_prob=node.log_prob + math.log(candidate.prob),
    )


class Frontier:
    """Max-probability heap with ties broken toward deeper prefixes.

    Token sequences must be distinct; the search pushes each at most once.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, tuple[str, ...], SearchNode]] = []

    def push(self, node: SearchNode) -> None:
        heapq.heappush(
            self._heap, (-node.log_prob, -node.depth, node.tokens, node)
        )

    def pop_best(self) -> SearchNode | None:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[3]


def is_direct_child(parent: SearchNode | None, node: SearchNode) -> bool:
    if parent is None:
        return True
    return (
        node.depth == parent.depth + 1 and node.tokens[: parent.depth] == parent.tokens
    )
