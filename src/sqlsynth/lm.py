"""Language-model adapters: top-k next-token probability sources.

The search engine only ever sees ``TokenCandidate`` lists, so anything
that can produce them can drive generation.  Two adapters live here: a
deterministic scripted model used by tests and demos, and an HTTP client
for completion servers.  Tokenization is adapter-owned; the scripted
model's lexeme tokens, unlike sub-word tokens, never end a prefix inside
a lexeme, so they never reach the checker's fragment path.

The HTTP client is built on ``http.client`` alone.  It keeps idle
keep-alive connections in a pool, so a serial search uses one TCP
connection and each worker thread holds at most one at a time.  It reads
no proxy variables and no ``~/.netrc``, and HTTPS verifies against the
system CA store through ``ssl``'s default context.
"""

from __future__ import annotations

import http.client
import json
import math
import ssl
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence
from urllib.parse import urlsplit

from .nsql.lexemes import split_line

EOS_TOKEN_ID = "<eos>"

_PROB_SUM_SLACK = 1e-9


class AdapterError(Exception):
    """Base class for model-adapter failures."""


class AdapterUnavailable(AdapterError):
    """The model backend cannot be reached."""


class ProtocolError(AdapterError):
    """The model backend replied with something unusable."""


@dataclass(frozen=True)
class TokenCandidate:
    token_id: str
    surface: str
    prob: float

    @property
    def is_eos(self) -> bool:
        return self.token_id == EOS_TOKEN_ID


@dataclass(frozen=True)
class GenerationSession:
    """Immutable (task text, prefix) pair; nodes reconstruct these."""

    task_text: str
    prefix: tuple[str, ...] = ()


def lexeme_tokens(text: str) -> tuple[str, ...]:
    """Split canonical query text into lexeme tokens.

    Each token carries its trailing separator (space or newline), so the
    concatenation of tokens reproduces the text exactly.  Lexemes are
    the ones ``split_line`` finds on each line, so string constants stay
    single tokens even when they contain spaces.
    """
    tokens: list[str] = []
    for line in text.split("\n"):
        lexemes, fragment = split_line(line, terminated=False)
        tokens += [lexeme + " " for lexeme in lexemes]
        tokens.append((fragment or "") + "\n")
    last = tokens.pop()[:-1]  # the text's last line has no newline
    if last:
        tokens.append(last)
    return tuple(tokens)


# -- Scripted model ---------------------------------------------------------


@dataclass(frozen=True)
class DistractorSpec:
    """Per-step noise: one extra candidate with fixed probability mass.

    ``steps`` limits noise to those depths; None means every step.  A
    distractor token is always a dead end: a prefix ending in it gets no
    further candidates.
    """

    surface: str
    mass: float
    steps: frozenset[int] | None = None

    def applies_at(self, step: int) -> bool:
        return self.steps is None or step in self.steps


class _TrieNode:
    __slots__ = ("children", "end_weight", "weight")

    def __init__(self) -> None:
        self.children: dict[str, _TrieNode] = {}
        self.end_weight = 0.0
        self.weight = 0.0


class ScriptedModel:
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
        self._accumulate(self._root)
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
    ) -> "ScriptedModel":
        return cls(
            [(lexeme_tokens(text), weight) for text, weight in queries], distractor
        )

    def _insert(self, tokens: tuple[str, ...], weight: float) -> None:
        node = self._root
        for token in tokens:
            self._vocabulary.add(token)
            node = node.children.setdefault(token, _TrieNode())
        node.end_weight += weight

    def _accumulate(self, node: _TrieNode) -> float:
        node.weight = node.end_weight + sum(
            self._accumulate(child) for child in node.children.values()
        )
        return node.weight

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


class ScriptedRouter:
    """Routes task texts to scripted models by substring match."""

    def __init__(
        self,
        routes: Sequence[tuple[str, ScriptedModel]],
        default: ScriptedModel | None = None,
    ) -> None:
        self._routes = list(routes)
        self._default = default

    def _model_for(self, task_text: str) -> ScriptedModel:
        for key, model in self._routes:
            if key in task_text:
                return model
        if self._default is not None:
            return self._default
        raise AdapterUnavailable("no scripted route matches the task text")

    def start_session(self, task_text: str) -> GenerationSession:
        return self._model_for(task_text).start_session(task_text)

    def top_candidates(
        self, session: GenerationSession, k: int
    ) -> list[TokenCandidate]:
        return self._model_for(session.task_text).top_candidates(session, k)


def _model_from_mapping(data: Mapping) -> ScriptedModel:
    paths: list[tuple[tuple[str, ...], float]] = []
    for entry in data.get("paths", []):
        weight = float(entry.get("weight", 1.0))
        if "tokens" in entry:
            paths.append((tuple(entry["tokens"]), weight))
        elif "query" in entry:
            paths.append((lexeme_tokens(entry["query"]), weight))
        else:
            raise ProtocolError("scripted path needs a 'query' or 'tokens' field")
    distractor = None
    if "distractor" in data:
        spec = data["distractor"]
        steps = spec.get("steps")
        distractor = DistractorSpec(
            surface=spec["surface"],
            mass=float(spec["mass"]),
            steps=frozenset(steps) if steps is not None else None,
        )
    return ScriptedModel(paths, distractor)


def load_scripted_model(path: Path | str) -> ScriptedModel | ScriptedRouter:
    """Load a scripted model spec file.

    The file holds either a single model (``{"paths": [...]}``) or a
    router (``{"routes": [{"match": ..., "paths": [...]}, ...]}``).
    """
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ProtocolError(f"cannot read scripted model spec: {exc}") from exc
    try:
        if "routes" in data:
            routes = [
                (entry.get("match", ""), _model_from_mapping(entry))
                for entry in data["routes"]
            ]
            default = (
                _model_from_mapping(data["default"]) if "default" in data else None
            )
            return ScriptedRouter(routes, default)
        return _model_from_mapping(data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed scripted model spec: {exc!r}") from exc


# -- HTTP completion client -------------------------------------------------


def _probability(logprob: object) -> float:
    """``exp(logprob)`` when it is a probability in (0, 1]."""
    try:
        prob = math.exp(float(logprob))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ProtocolError(f"malformed logprob {logprob!r}: {exc}") from exc
    if not 0 < prob <= 1:
        raise ProtocolError(f"logprob {logprob!r} out of range")
    return prob


class HttpCompletionModel:
    """Client for a JSON-over-HTTP completion server.

    Request: ``{"task": str, "prefix": str, "k": int}``.  Response:
    ``{"candidates": [{"text": str, "logprob": float}], "eos_logprob":
    float|null}``.  Probabilities are exp(logprob), used raw.

    Idle connections wait in a pool.  A call takes one (or opens one) and
    returns it only after reading a whole reply, so no connection is ever
    shared by two threads.  A reused connection that the server dropped
    while idle is reopened once; a timeout is never retried.  ``close()``
    closes the idle connections.
    """

    def __init__(
        self,
        endpoint: str,
        timeout: float = 10.0,
        auth_token: str | None = None,
    ) -> None:
        url = urlsplit(endpoint)
        try:
            port = url.port
        except ValueError as exc:
            raise ValueError(f"bad model endpoint {endpoint!r}: {exc}") from None
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError(f"bad model endpoint {endpoint!r}: need http(s)://host")
        self._address = (url.hostname, port)
        self._context = ssl.create_default_context() if url.scheme == "https" else None
        self._path = (url.path or "/") + (f"?{url.query}" if url.query else "")
        self._timeout = timeout
        self._headers = {"Content-Type": "application/json"}
        if auth_token:
            self._headers["Authorization"] = f"Bearer {auth_token}"
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()
        self._reachable = False

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def _connection(self) -> http.client.HTTPConnection:
        with self._lock:
            if self._idle:
                return self._idle.pop()
        host, port = self._address
        if self._context is not None:
            return http.client.HTTPSConnection(
                host, port, timeout=self._timeout, context=self._context
            )
        return http.client.HTTPConnection(host, port, timeout=self._timeout)

    def _exchange(self, method: str, body: bytes | None = None) -> tuple[int, bytes]:
        """Send one request and read its whole reply: ``(status, body)``."""
        conn = self._connection()
        reused = conn.sock is not None
        try:
            while True:
                try:
                    # http.client sets TCP_NODELAY on connect, so its two
                    # sends (headers, then body) do not wait on Nagle's
                    # algorithm against the server's delayed ACK.
                    conn.request(method, self._path, body, self._headers)
                    response = conn.getresponse()
                    break
                except (ConnectionResetError, BrokenPipeError):
                    # The server closed the idle connection; the request
                    # is a pure function of its payload, so resend once.
                    if not reused:
                        raise
                    conn.close()
                    reused = False
            data = response.read()
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            raise AdapterUnavailable(str(exc)) from exc
        with self._lock:
            self._idle.append(conn)
        return response.status, data

    def start_session(self, task_text: str) -> GenerationSession:
        if not self._reachable:
            self._exchange("HEAD")
            self._reachable = True
        return GenerationSession(task_text)

    def top_candidates(
        self, session: GenerationSession, k: int
    ) -> list[TokenCandidate]:
        payload = {
            "task": session.task_text,
            "prefix": "".join(t for t in session.prefix if t != EOS_TOKEN_ID),
            "k": k,
        }
        status, data = self._exchange("POST", json.dumps(payload).encode())
        if status != 200:
            raise ProtocolError(f"server returned HTTP {status}")
        try:
            body = json.loads(data)
            entries = [(c["text"], c["logprob"]) for c in body["candidates"]]
            eos = body.get("eos_logprob")
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed server reply: {exc}") from exc
        candidates = []
        for text, logprob in entries:
            if not isinstance(text, str):
                raise ProtocolError(f"candidate text is not a string: {text!r}")
            candidates.append(TokenCandidate(text, text, _probability(logprob)))
        if eos is not None:
            candidates.append(TokenCandidate(EOS_TOKEN_ID, "", _probability(eos)))
        candidates.sort(key=lambda c: (-c.prob, c.token_id))
        return candidates[:k]
