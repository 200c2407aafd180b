"""Best-first decoding of canonical queries guided by token probabilities.

The frontier is a heap of ``(cost, -depth, tokens, text)`` tuples, where
``cost`` is the negated cumulative log-probability: the most probable
prefix pops first, then the deeper one, then the token sequence.  The
popped prefix is extended with the model's top-k continuations.  Static
checks veto children at push time, and a child's tokens and entry are
built only after it passes its check.  Every end-of-sequence text is
one attempt, whether or not it parses: one that parses goes to the
tester, and one that does not parse or does not satisfy is recorded as
generated.  A SINGLE-mode search ends after its first attempt; a
MULTIPLE-mode search resumes from the next best prefix.
"""

from __future__ import annotations

import dataclasses
import enum
import heapq
import itertools
import math
import operator
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator, Protocol, Sequence

from .checker import CheckVerdict, make_checker
from .lm import AdapterError, EOS_TOKEN_ID, GenerationSession, TokenCandidate
from .nsql.errors import ParseError
# parse_partial is unused here: perfbench/tracer.py looks it up in this module.
from .nsql.grammar import parse_complete, parse_partial  # noqa: F401
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

    def __post_init__(self) -> None:
        # A negative k would slice off the least likely candidates, zero
        # would end every search exhausted without saying why, and a
        # fraction would fail the first model call's slice.
        for name in ("k", "max_tokens"):
            try:
                valid = operator.index(getattr(self, name)) >= 1
            except TypeError:
                valid = False
            if not valid:
                raise ValueError(
                    f"SearchConfig.{name} must be an integer of at least 1"
                )
        # A NaN deadline compares false, so the search would never time out.
        if math.isnan(self.time_limit):
            raise ValueError("SearchConfig.time_limit must not be NaN")


@dataclass
class SearchStats:
    nodes_expanded: int = 0
    candidates_generated: int = 0
    pruned_by_checker: int = 0
    complete_queries_tested: int = 0  # end-of-sequence texts, parsed or not
    backtracks: int = 0
    repair_variants_tried: int = 0
    repair_statements: int = 0
    repair_probes: int = 0
    elapsed_seconds: float = 0.0
    adapter_error: str | None = None
    # Every attempt that did not solve the task, as generated.
    failed_queries: list[str] = field(default_factory=list)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


# A frontier entry: (cost, -depth, tokens, text), cost the negated
# log-probability, so heapq pops the most probable, then deepest, first.
Node = tuple[float, int, tuple[str, ...], str]

ROOT: Node = (0.0, 0, (), "")


def extend(node: Node, candidate: TokenCandidate) -> Node:
    """Fold one continuation into a node, accumulating in log space.

    Long generations underflow a plain probability product, so the node
    carries its negated log-probability; ``math.log`` raises
    ``ValueError`` for a probability of zero or less, and passes a NaN
    through, so the search offers only probabilities above zero.
    """
    cost, neg_depth, tokens, text = node
    token_id, surface, prob = candidate
    return (cost - math.log(prob), neg_depth - 1, tokens + (token_id,), text + surface)


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


class _DeadlinePassed(Exception):
    """The time budget ran out before the frontier did."""


def _best_first(
    session: GenerationSession,
    model: CompletionModel,
    stats: SearchStats,
    config: SearchConfig,
    checker: Checker | None,
    deadline: float,
) -> Iterator[str]:
    """Pop nodes best first; yield each end-of-sequence text and expand
    the rest with the model's top-k continuations that pass ``checker``.
    Ends when the frontier is empty and raises ``_DeadlinePassed`` when
    time runs out first.  A pop backtracks when it does not extend the
    previous pop."""
    # Per-search invariants, read once.  The tracer wraps
    # ``top_candidates`` on the model before any search starts.
    top_candidates, k, max_tokens = model.top_candidates, config.k, config.max_tokens
    push, pop, task_text = heapq.heappush, heapq.heappop, session.task_text
    frontier = [ROOT]
    previous: tuple[str, ...] = ()
    while True:
        if time.monotonic() > deadline:
            raise _DeadlinePassed
        if not frontier:
            return
        node = pop(frontier)
        _, _, tokens, text = node
        if tokens[:-1] != previous:
            stats.backtracks += 1
        previous = tokens
        if tokens and tokens[-1] == EOS_TOKEN_ID:
            yield text
            continue
        candidates = top_candidates(GenerationSession(task_text, tokens), k)
        stats.nodes_expanded += 1
        stats.candidates_generated += len(candidates)
        # Each node is popped once, so a token sequence repeats only when
        # one reply names a token id twice: its first passing child wins.
        # A child is checked before its entry is built, so a rejected one
        # costs its check and nothing more.
        at_limit = len(tokens) + 1 >= max_tokens
        pushed: set[str] = set()
        for candidate in candidates:
            token_id, surface, prob = candidate
            eos = token_id == EOS_TOKEN_ID
            if not prob > 0.0 or not (eos or surface):
                continue  # NaN, impossible, or no text and so no new verdict
            if at_limit and not eos:
                continue
            if checker is not None and not checker(text + surface, eos).ok:
                stats.pruned_by_checker += 1
                continue
            if token_id in pushed:
                continue
            pushed.add(token_id)
            push(frontier, extend(node, candidate))


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
    db: TaskDatabase | None,
    model: CompletionModel,
    *,
    checker: Checker | None = None,
    tester: Tester | None = None,
    config: SearchConfig | None = None,
) -> SearchResult:
    """Drive the search for one task until solved or out of budget.

    ``checker`` and ``tester`` default to the schema-bound static checks
    and the execute-then-repair tester over ``db``; tests may inject
    either.  ``checker`` vets prefixes only: the default tester checks
    repair variants from their clause bodies.  ``db`` may be omitted only
    when ``tester`` is given; it lends this thread's connection, which is
    not closed here.  Checks, end-of-sequence parses and repair variants
    parse clause bodies through one process-wide cache.
    """
    config = config or SearchConfig()
    stats = SearchStats()
    started = time.monotonic()
    deadline = started + config.time_limit

    examples = tuple(task.sorted_examples()) if config.include_examples else ()
    example = examples[0] if examples else None
    if checker is None:
        checker = make_checker(schema, example)
    prune: Checker | None = checker if config.pqc_enabled else None

    if tester is None:
        if db is None:
            raise ValueError("run_search needs a database or an injected tester")
        conn = db.connection()

        def tester(query: NormalizedQuery, until: float | None) -> RepairOutcome:
            return test_and_repair(
                query,
                conn,
                schema,
                examples,
                attempt_repair=config.repair_enabled,
                prefilter=config.pqc_enabled,
                deadline=until,
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
        session = model.start_session(search_task_text(task, schema, config))
        for text in _best_first(session, model, stats, config, prune, deadline):
            stats.complete_queries_tested += 1
            try:
                query = parse_complete(text)
            except ParseError:
                query = None
            if query is not None:
                outcome = tester(query, deadline)
                stats.repair_variants_tried += outcome.variants_tried
                stats.repair_statements += outcome.statements
                stats.repair_probes += outcome.probes
                if outcome.satisfied:
                    return finish(
                        SearchStatus.SOLVED,
                        outcome.query,
                        outcome.result,
                        outcome.repaired,
                    )
            stats.failed_queries.append(text)
            if config.attempt_mode is AttemptMode.SINGLE:
                break
    except AdapterError as exc:
        stats.adapter_error = str(exc)
        return finish(SearchStatus.ADAPTER_FAILURE)
    except _DeadlinePassed:
        return finish(SearchStatus.TIMED_OUT)
    return finish(SearchStatus.EXHAUSTED)


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
    texts = _best_first(session, model, SearchStats(), config, None, deadline)
    collected: list[str] = []
    try:
        for text in itertools.islice(texts, n):
            collected.append(text)
    except _DeadlinePassed:
        pass
    return collected
