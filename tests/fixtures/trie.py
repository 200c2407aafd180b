"""Reference scripted model for the differential model tests.

``TrieModel`` is ``sqlsynth.lm.ScriptedModel`` as it stood when it kept
one trie node, with its own children dict, per token of every path:
each node's weight is its end weight plus its children's weights, and
the candidates at a prefix are the children of the prefix's node.
"""

from __future__ import annotations

from typing import Sequence

from sqlsynth.lm import (
    EOS_TOKEN_ID,
    DistractorSpec,
    GenerationSession,
    ProtocolError,
    TokenCandidate,
    lexeme_tokens,
)

_PROB_SUM_SLACK = 1e-9




class _TrieNode:
    __slots__ = ("children", "end_weight", "weight")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        self.end_weight = 0.0
        self.weight = 0.0


class TrieModel:
    """Deterministic model over a weighted set of token paths.

    At each step the candidates are the trie children of the current
    prefix, with probability proportional to the weight of the paths
    below each child; a path ending at the current node contributes an
    EOS candidate.  Optional distractor noise reserves a fixed mass for
    one off-path token per step.
    """

    def __init__(
        self,
        paths: Sequence[tuple[Sequence[str], float]],
        distractor: DistractorSpec | None = None,
    ) -> None:
        if not paths:
            raise ValueError("a scripted model needs at least one path")
        self._root = _TrieNode()
        self._vocabulary: set[str] = {EOS_TOKEN_ID}
        for tokens, weight in paths:
            if weight <= 0:
                raise ValueError("path weights must be positive")
            self._insert(tuple(tokens), weight)
        self._accumulate()
        if self._root.weight > 1 + _PROB_SUM_SLACK:
            raise ValueError("path weights must sum to at most 1")
        self._distractor = distractor
        if distractor is not None:
            if not 0 < distractor.mass < 1:
                raise ValueError("distractor mass must be in (0, 1)")
            if distractor.surface in self._vocabulary:
                raise ValueError("distractor surface collides with a path token")
            self._vocabulary.add(distractor.surface)

    @classmethod
    def from_queries(
        cls,
        queries: Sequence[tuple[str, float]],
        distractor: DistractorSpec | None = None,
    ) -> "TrieModel":
        return cls(
            [(lexeme_tokens(text), weight) for text, weight in queries], distractor
        )

    def _insert(self, tokens: tuple[str, ...], weight: float) -> None:
        node = self._root
        for token in tokens:
            self._vocabulary.add(token)
            node = node.children.setdefault(token, _TrieNode())
        node.end_weight += weight

    def _accumulate(self) -> None:
        """Set each node's weight to its end weight plus its children's
        weights, children first, without recursion: a path may be longer
        than the interpreter's recursion limit."""
        nodes = [self._root]
        for node in nodes:  # breadth first: each parent before its children
            nodes.extend(node.children.values())
        for node in reversed(nodes):
            node.weight = node.end_weight + sum(
                child.weight for child in node.children.values()
            )

    # -- adapter protocol ---------------------------------------------------

    def start_session(self, task_text: str) -> GenerationSession:
        return GenerationSession(task_text)

    def top_candidates(
        self, session: GenerationSession, k: int
    ) -> list[TokenCandidate]:
        if EOS_TOKEN_ID in session.prefix:
            raise ProtocolError("session already ended with EOS")
        node: _TrieNode | None = self._root
        for token in session.prefix:
            node = node.children.get(token) if node is not None else None
        if node is None:
            return []  # off the scripted paths: dead end
        step = len(session.prefix)
        noise = 0.0
        if self._distractor is not None and self._distractor.applies_at(step):
            noise = self._distractor.mass
        scale = (1 - noise) / node.weight
        candidates = [
            TokenCandidate(token, token, child.weight * scale)
            for token, child in node.children.items()
        ]
        if node.end_weight > 0:
            candidates.append(
                TokenCandidate(EOS_TOKEN_ID, "", node.end_weight * scale)
            )
        if noise > 0:
            assert self._distractor is not None
            candidates.append(
                TokenCandidate(
                    self._distractor.surface, self._distractor.surface, noise
                )
            )
        candidates.sort(key=lambda c: (-c.prob, c.token_id))
        return candidates[:k]
