"""Best-first decoding of canonical queries guided by token probabilities.

The frontier holds partial generations ordered by cumulative probability
(tracked in log space); the most probable prefix is extended with the
model's top-k continuations.  Static checks veto children at push time,
finished candidates go to the tester, and a failed candidate simply
falls out of the frontier so search resumes from the next best prefix.
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
import itertools
import math
import sqlite3
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Protocol, Sequence

from .checker import CheckVerdict, make_checker
from .lm import AdapterError, EOS_TOKEN_ID, GenerationSession, TokenCandidate
from .nsql.errors import ParseError, StructureError
from .nsql.grammar import ClauseMemo, parse_complete
from .nsql.partial import parse_partial
from .nsql.query import NormalizedQuery
from .repair import ExecutionResult, RepairOutcome, test_and_repair
from .tasks import DatabaseSchema, TaskDatabase, TaskInstance, serialize_task


class CompletionModel(Protocol):
    def start_session(self, task_text: str) -> GenerationSession: ...

    def top_candidates(
        self, session: GenerationSession, k: int
    ) -> Sequence[TokenCandidate]: ...


class AttemptMode(enum.Enum):
    SINGLE = "single"
    MULTIPLE = "multiple"


class SearchStatus(enum.Enum):
    SOLVED = "solved"
    EXHAUSTED = "exhausted"
    TIMED_OUT = "timed_out"
    ADAPTER_FAILURE = "adapter_failure"


@dataclass(frozen=True)
class SearchConfig:
    k: int = 5
    time_limit: float = 60.0
    max_tokens: int = 128
    attempt_mode: AttemptMode = AttemptMode.MULTIPLE
    pqc_enabled: bool = True
    repair_enabled: bool = True
    include_examples: bool = True
    per_variant_timeout: float = 1.0


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    candidates_generated: int = 0
    pruned_by_checker: int = 0
    complete_queries_tested: int = 0
    backtracks: int = 0
    repair_variants_tried: int = 0
    elapsed_seconds: float = 0.0
    adapter_error: str | None = None
    failed_queries: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "nodes_expanded": self.nodes_expanded,
            "candidates_generated": self.candidates_generated,
            "pruned_by_checker": self.pruned_by_checker,
            "complete_queries_tested": self.complete_queries_tested,
            "backtracks": self.backtracks,
            "repair_variants_tried": self.repair_variants_tried,
            "elapsed_seconds": self.elapsed_seconds,
            "adapter_error": self.adapter_error,
            "failed_queries": list(self.failed_queries),
        }


@dataclass(frozen=True)
class SearchNode:
    text: str
    tokens: tuple[str, ...] = ()
    log_prob: float = 0.0
    depth: int = 0

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
        depth=node.depth + 1,
    )


class Frontier:
    """Max-probability heap with ties broken toward deeper prefixes."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, tuple[str, ...], SearchNode]] = []
        self._seen: set[tuple[str, ...]] = set()

    def push(self, node: SearchNode) -> bool:
        if node.tokens in self._seen:
            return False
        self._seen.add(node.tokens)
        heapq.heappush(
            self._heap, (-node.log_prob, -node.depth, node.tokens, node)
        )
        return True

    def pop_best(self) -> SearchNode | None:
        if not self._heap:
            return None
        return heapq.heappop(self._heap)[3]

    def __len__(self) -> int:
        return len(self._heap)


def is_complete(node: SearchNode) -> bool:
    """An end-of-sequence marker was produced and all 7 lines closed."""
    if not node.tokens or node.tokens[-1] != EOS_TOKEN_ID:
        return False
    return parse_partial(node.text, eos_seen=True).is_complete


@dataclass(frozen=True)
class SearchResult:
    status: SearchStatus
    query: NormalizedQuery | None
    execution: ExecutionResult | None
    repaired: bool
    stats: SearchStats

    @property
    def query_text(self) -> str | None:
        return self.query.render() if self.query is not None else None


Checker = Callable[[str, bool], CheckVerdict]
Tester = Callable[[NormalizedQuery, float | None], RepairOutcome]


def _is_direct_child(parent: SearchNode | None, node: SearchNode) -> bool:
    if parent is None:
        return True
    return (
        node.depth == parent.depth + 1 and node.tokens[: parent.depth] == parent.tokens
    )


class _DeadlinePassed(Exception):
    """The time budget ran out before the frontier did."""


def _best_first(
    session: GenerationSession,
    model: CompletionModel,
    stats: SearchStats,
    config: SearchConfig,
    checker: Checker | None,
    deadline: float,
) -> Iterator[SearchNode]:
    """Pop nodes best first; yield each end-of-sequence node and expand
    the rest with the model's top-k continuations that pass ``checker``.
    Ends when the frontier is empty and raises ``_DeadlinePassed`` when
    time runs out first."""
    frontier = Frontier()
    frontier.push(ROOT)
    previous: SearchNode | None = None
    while True:
        if time.monotonic() > deadline:
            raise _DeadlinePassed
        node = frontier.pop_best()
        if node is None:
            return
        if not _is_direct_child(previous, node):
            stats.backtracks += 1
        previous = node
        if node.tokens and node.tokens[-1] == EOS_TOKEN_ID:
            yield node
            continue
        candidates = model.top_candidates(
            dataclasses.replace(session, prefix=node.tokens), config.k
        )
        stats.nodes_expanded += 1
        stats.candidates_generated += len(candidates)
        for candidate in candidates:
            if candidate.prob <= 0.0:
                continue
            eos = candidate.is_eos
            child = extend(node, candidate)
            if not eos and child.depth >= config.max_tokens:
                continue
            if checker is not None:
                verdict = checker(child.text, eos)
                if not verdict.ok:
                    stats.pruned_by_checker += 1
                    continue
            frontier.push(child)


def search_task_text(
    task: TaskInstance, schema: DatabaseSchema, config: SearchConfig
) -> str:
    """The task description the model sees, without examples when the
    config hides them."""
    if not config.include_examples:
        task = dataclasses.replace(task, examples=frozenset())
    return serialize_task(task, schema)


def run_search(
    task: TaskInstance,
    schema: DatabaseSchema,
    db: TaskDatabase | sqlite3.Connection | None,
    model: CompletionModel,
    *,
    checker: Checker | None = None,
    tester: Tester | None = None,
    config: SearchConfig | None = None,
) -> SearchResult:
    """Drive the search for one task until solved or out of budget.

    ``checker`` and ``tester`` default to the schema-bound static checks
    and the execute-then-repair tester over ``db``; tests may inject
    either.  ``db`` may be omitted only when ``tester`` is given.  One
    clause memo serves the search: the default checker, the parse of
    each end-of-sequence text and the repair variants each parse a
    distinct clause body at most once between them.
    """
    config = config or SearchConfig()
    stats = SearchStats()
    started = time.monotonic()
    deadline = started + config.time_limit

    examples = tuple(task.sorted_examples()) if config.include_examples else ()
    example = examples[0] if examples else None
    memo = ClauseMemo()
    if checker is None:
        checker = make_checker(schema, example, memo)
    prune: Checker | None = checker if config.pqc_enabled else None

    conn: sqlite3.Connection | None = None
    close_conn = False
    if tester is None:
        if isinstance(db, TaskDatabase):
            conn = db.connect()
            close_conn = True
        elif isinstance(db, sqlite3.Connection):
            conn = db
        else:
            raise ValueError("run_search needs a database or an injected tester")

        def tester(query: NormalizedQuery, until: float | None) -> RepairOutcome:
            assert conn is not None
            return test_and_repair(
                query,
                conn,
                schema,
                examples,
                attempt_repair=config.repair_enabled,
                prefilter=prune,
                per_variant_timeout=config.per_variant_timeout,
                deadline=until,
                memo=memo,
            )

    def finish(
        status: SearchStatus,
        query: NormalizedQuery | None = None,
        execution: ExecutionResult | None = None,
        repaired: bool = False,
    ) -> SearchResult:
        stats.elapsed_seconds = time.monotonic() - started
        return SearchResult(status, query, execution, repaired, stats)

    try:
        try:
            session = model.start_session(search_task_text(task, schema, config))
            for node in _best_first(session, model, stats, config, prune, deadline):
                try:
                    query = parse_complete(node.text, memo)
                except StructureError:
                    continue  # ended mid-query; only reachable with checks off
                except ParseError:
                    query = None
                stats.complete_queries_tested += 1
                if query is None:
                    stats.failed_queries.append(node.text)
                    if config.attempt_mode is AttemptMode.SINGLE:
                        break
                    continue
                outcome = tester(query, deadline)
                stats.repair_variants_tried += outcome.variants_tried
                if outcome.satisfied:
                    return finish(
                        SearchStatus.SOLVED,
                        outcome.query,
                        outcome.result,
                        outcome.repaired,
                    )
                stats.failed_queries.append(query.render())
                if config.attempt_mode is AttemptMode.SINGLE:
                    break
        except AdapterError as exc:
            stats.adapter_error = str(exc)
            return finish(SearchStatus.ADAPTER_FAILURE)
        except _DeadlinePassed:
            return finish(SearchStatus.TIMED_OUT)
        return finish(SearchStatus.EXHAUSTED)
    finally:
        if close_conn and conn is not None:
            conn.close()


def collect_complete(
    task_text: str,
    model: CompletionModel,
    n: int,
    config: SearchConfig | None = None,
) -> list[str]:
    """Gather the ``n`` most probable end-of-sequence texts, checks off.

    Used by the checker-comparison experiment, which wants finished
    generations exactly as the model produced them, malformed or not.
    """
    config = config or SearchConfig()
    deadline = time.monotonic() + config.time_limit
    session = model.start_session(task_text)
    nodes = _best_first(session, model, SearchStats(), config, None, deadline)
    collected: list[str] = []
    try:
        for node in itertools.islice(nodes, n):
            collected.append(node.text)
    except _DeadlinePassed:
        pass
    return collected
