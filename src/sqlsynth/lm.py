"""Language-model adapters: top-k next-token probability sources.

The search engine only ever sees ``TokenCandidate`` lists, so anything
that can produce them can drive generation.  A candidate is a named
tuple ``(token_id, surface, prob)``; both adapters rank and cut their
``(-prob, token_id)`` pairs through ``_top_k``, and ``EOS_TOKEN_ID`` is
never a token's text.  Two adapters live here: a deterministic scripted
model used by tests and demos, and an HTTP client for completion servers.
Tokenization is adapter-owned; the scripted model's lexeme tokens,
unlike sub-word tokens, never end a prefix inside a lexeme, so they
never reach the checker's fragment path.

The scripted model keeps each distinct path once, as a tuple of interned
tokens in one sorted list with its weight beside it.  Its candidates at
a prefix come from the paths that extend the prefix, which sort into one
contiguous run; their next tokens and the path that ends there share
the prefix's probability mass by weight.  Each next token's paths form
a sub-run of their own, skipped by bisection, so a call reads a few
paths per next token, not every path under the prefix.  Interning makes
every model in a process share one string per distinct token.

The HTTP client speaks a small HTTP/1.1 exchange over a plain socket:
one ``sendall`` of the request line, the headers and the JSON body, then
a direct read of the status line, the headers and a body sized by
``Content-Length``, sent chunked, or read up to EOF.  It keeps idle
keep-alive connections in a pool, so a serial search uses one TCP
connection and each worker thread holds at most one at a time.  It reads
no proxy variables and no ``~/.netrc``, and loads neither ``http.client``
nor ``email``.  HTTPS verifies against the system CA store through
``ssl``'s default context; ``ssl`` is imported only when an https
endpoint is built.
"""

from __future__ import annotations

import json
import math
import socket
import sys
import threading
from bisect import bisect_left
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Mapping, NamedTuple, Sequence
from urllib.parse import urlsplit

from .nsql.lexemes import lexeme_tokens

EOS_TOKEN_ID = "<eos>"

_PROB_SUM_SLACK = 1e-9


class AdapterError(Exception):
    """Base class for model-adapter failures."""


class AdapterUnavailable(AdapterError):
    """The model backend cannot be reached."""


class ProtocolError(AdapterError):
    """The model backend replied with something unusable."""


class TokenCandidate(NamedTuple):
    """One next-token option: its id, the text it appends, and its
    probability.  An immutable, hashable tuple without a per-instance
    ``__dict__``, so it is cheap to build and a search unpacks it as
    ``(token_id, surface, prob)``.  Only ``EOS_TOKEN_ID`` is EOS."""

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


def _top_k(ranked: list[tuple[float, str]], k: int) -> list[TokenCandidate]:
    """The k most probable ``(-prob, token_id)`` pairs as candidates, ties
    by token id.  Only ``EOS_TOKEN_ID`` gets the empty surface."""
    ranked.sort()
    return [
        TokenCandidate(token, "" if token == EOS_TOKEN_ID else token, -cost)
        for cost, token in ranked[:k]
    ]


# -- Scripted model ---------------------------------------------------------


@dataclass(frozen=True)
class DistractorSpec:
    """Per-step noise: one extra candidate with fixed probability mass.

    ``steps`` limits noise to those depths, integers from 0; None means
    every step.  A distractor token is always a dead end: a prefix ending
    in it gets no further candidates.
    """

    surface: str
    mass: float
    steps: frozenset[int] | None = None

    def applies_at(self, step: int) -> bool:
        return self.steps is None or step in self.steps


def _interned(tokens: Sequence[str]) -> tuple[str, ...]:
    """A path's tokens, interned, in one pass of ``map``; only a path
    that fails it is read token by token, for the first bad one."""
    try:
        key = tuple(map(sys.intern, tokens))
    except TypeError:
        key = None
    if key is None or EOS_TOKEN_ID in key:
        for token in tokens:
            if not isinstance(token, str):
                raise ValueError(f"path token is not a string: {token!r}")
            if token == EOS_TOKEN_ID:
                raise ValueError(f"path token {token!r} is the end-of-sequence id")
        key = tuple(map(sys.intern, tokens))  # a str subclass: intern's TypeError
    return key


class ScriptedModel:
    """Deterministic model over a weighted set of token paths.

    At each step the candidates are the next tokens of the paths that
    extend the current prefix, each with probability proportional to the
    weight of the paths it continues; the path that ends at the prefix
    contributes an EOS candidate.  Each distinct path is kept once, with
    its tokens interned and its weights summed, in a sorted list, so the
    paths that extend a prefix are one contiguous run found by bisection,
    and each next token's share of it ends where bisection says.
    Optional distractor noise reserves a fixed mass for one off-path
    token per step.
    """

    def __init__(
        self,
        paths: Sequence[tuple[Sequence[str], float]],
        distractor: DistractorSpec | None = None,
    ) -> None:
        if not paths:
            raise ValueError("a scripted model needs at least one path")
        merged: dict[tuple[str, ...], float] = {}
        for tokens, weight in paths:
            if not weight > 0:  # NaN fails this test too
                raise ValueError("path weights must be positive")
            key = _interned(tokens)
            merged[key] = merged.get(key, 0.0) + weight
        self._paths = sorted(merged)
        self._weights = [merged[path] for path in self._paths]
        if sum(self._weights) > 1 + _PROB_SUM_SLACK:
            raise ValueError("path weights must sum to at most 1")
        self._distractor = distractor
        if distractor is not None:
            if not 0 < distractor.mass < 1:
                raise ValueError("distractor mass must be in (0, 1)")
            if distractor.steps is not None and not all(
                type(step) is int and step >= 0 for step in distractor.steps
            ):
                raise ValueError("distractor steps must be integers >= 0")
            surface = distractor.surface
            if surface == EOS_TOKEN_ID or any(surface in path for path in self._paths):
                raise ValueError("distractor surface collides with a path token")

    @classmethod
    def from_queries(
        cls,
        queries: Sequence[tuple[str, float]],
        distractor: DistractorSpec | None = None,
    ) -> "ScriptedModel":
        return cls(
            [(lexeme_tokens(text), weight) for text, weight in queries], distractor
        )

    # -- adapter protocol ---------------------------------------------------

    def start_session(self, task_text: str) -> GenerationSession:
        return GenerationSession(task_text)

    def top_candidates(
        self, session: GenerationSession, k: int
    ) -> list[TokenCandidate]:
        prefix = session.prefix
        paths, weights, n = self._paths, self._weights, len(prefix)
        end = len(paths)
        # A prefix sorts before its extensions, and they sort together,
        # each next token's paths in one sub-run.
        index = bisect_left(paths, prefix)
        eos = total = 0.0
        if index < end and paths[index] == prefix:
            eos = weights[index]
            index += 1
        nexts: list[tuple[str, float]] = []
        while index < end and paths[index][:n] == prefix:
            token = paths[index][n]
            stop = index + 1
            if stop < end and len(paths[stop]) > n and paths[stop][n] == token:
                # token + "\0" is the least string after token.
                stop = bisect_left(paths, prefix + (token + "\0",), stop)
                weight = sum(weights[index:stop])
            else:
                weight = weights[index]
            nexts.append((token, weight))
            total += weight
            index = stop
        if not nexts and not eos:
            # No path holds EOS, so no path extends a prefix that does.
            if EOS_TOKEN_ID in prefix:
                raise ProtocolError("session already ended with EOS")
            return []  # off the scripted paths: dead end
        noise = 0.0
        distractor = self._distractor
        if distractor is not None and distractor.applies_at(n):
            noise = distractor.mass
        scale = (1 - noise) / (eos + total)
        ranked = [(-weight * scale, token) for token, weight in nexts]
        if eos > 0:
            ranked.append((-eos * scale, EOS_TOKEN_ID))
        if noise > 0:
            ranked.append((-noise, distractor.surface))
        return _top_k(ranked, k)


class ScriptedRouter:
    """Routes task texts to scripted models by substring match: the first
    route whose key the text holds, else the default."""

    def __init__(
        self,
        routes: Sequence[tuple[str, ScriptedModel]],
        default: ScriptedModel | None = None,
    ) -> None:
        self._routes = list(routes)
        self._default = default

    def _model_for(self, task_text: str) -> ScriptedModel:
        model = next(
            (model for key, model in self._routes if key in task_text), self._default
        )
        if model is None:
            raise AdapterUnavailable("no scripted route matches the task text")
        return model

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
            tokens = entry["tokens"]
            if not isinstance(tokens, list):
                raise ProtocolError("scripted path 'tokens' is not a list")
            paths.append((tuple(tokens), weight))
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
            # Every route spells its key: a missing one would match any text.
            routes = [
                (entry["match"], _model_from_mapping(entry))
                for entry in data["routes"]
            ]
            if not all(isinstance(key, str) for key, _ in routes):
                raise TypeError("a route's match is not a string")
            default = (
                _model_from_mapping(data["default"]) if "default" in data else None
            )
            return ScriptedRouter(routes, default)
        return _model_from_mapping(data)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"malformed scripted model spec: {exc!r}") from exc


# -- HTTP completion client -------------------------------------------------

# http.client's bounds on the head of a reply.
_MAX_LINE = 65536
_MAX_HEADERS = 100


def _probability(logprob: object) -> float:
    """``exp(logprob)`` when it is a number giving a probability in (0, 1]."""
    if not isinstance(logprob, (int, float)) or isinstance(logprob, bool):
        raise ProtocolError(f"logprob {logprob!r} is not a number")
    try:
        prob = math.exp(logprob)
    except OverflowError as exc:
        raise ProtocolError(f"malformed logprob {logprob!r}: {exc}") from exc
    if not 0 < prob <= 1:
        raise ProtocolError(f"logprob {logprob!r} out of range")
    return prob


def _line(reader: BinaryIO) -> bytes:
    line = reader.readline(_MAX_LINE + 1)
    if len(line) > _MAX_LINE:
        raise ValueError("reply line longer than 64 KiB")
    return line


def _headers(reader: BinaryIO) -> dict[bytes, bytes]:
    """Read header lines up to a blank one: lower-cased name -> value."""
    headers = {}
    for _ in range(_MAX_HEADERS + 1):
        line = _line(reader)
        if line in (b"\r\n", b"\n", b""):
            return headers
        name, _, value = line.partition(b":")
        headers[name.strip().lower()] = value.strip()
    raise ValueError(f"reply has more than {_MAX_HEADERS} headers")


def _exact(reader: BinaryIO, size: int) -> bytes:
    if size < 0:
        raise ValueError(f"negative body length {size}")
    data = reader.read(size)
    if len(data) != size:
        raise ValueError(f"reply ended {size - len(data)} bytes short")
    return data


def _chunked(reader: BinaryIO) -> bytes:
    chunks = []
    while size := int(_line(reader).split(b";", 1)[0], 16):
        chunks.append(_exact(reader, size))
        _exact(reader, 2)  # the CRLF that ends the chunk
    _headers(reader)  # the trailer
    return b"".join(chunks)


def _read_reply(reader: BinaryIO) -> tuple[int, bool, bytes]:
    """Read one reply: ``(status, keep_alive, body)``.

    1xx replies are skipped.  The body is read by ``Content-Length``, by
    chunked transfer coding, or up to EOF.  A malformed reply is a
    ``ValueError``.
    """
    status = 100
    while status < 200:
        line = _line(reader)
        parts = line.split(None, 2)
        if len(parts) < 2 or not parts[0].startswith(b"HTTP/"):
            raise ValueError(f"malformed status line {line[:80]!r}")
        status = int(parts[1])
        if not 100 <= status <= 999:
            raise ValueError(f"malformed status line {line[:80]!r}")
        headers = _headers(reader)
    keep = parts[0] == b"HTTP/1.1" and b"close" not in headers.get(
        b"connection", b""
    ).lower()
    if status in (204, 304):
        return status, keep, b""
    if b"chunked" in headers.get(b"transfer-encoding", b"").lower():
        return status, keep, _chunked(reader)
    length = headers.get(b"content-length")
    if length is None:
        return status, False, reader.read()
    return status, keep, _exact(reader, int(length))


_Connection = tuple[socket.socket, BinaryIO]


def _close(conn: _Connection) -> None:
    conn[1].close()
    conn[0].close()


class HttpCompletionModel:
    """Client for a JSON-over-HTTP completion server.

    Request: ``{"task": str, "prefix": str, "k": int}``.  Response:
    ``{"candidates": [{"text": str, "logprob": float}], "eos_logprob":
    float|null}``.  Probabilities are exp(logprob), used raw.  A candidate
    text ``EOS_TOKEN_ID``, or a prefix holding it, is a ``ProtocolError``.

    One exchange sends the request line, the headers (encoded once, when
    the model is built) and the JSON body in one ``sendall``.  It reads
    the reply's status line (skipping 1xx replies), at most 100 headers
    of at most 64 KiB a line, and a body sized by ``Content-Length``,
    sent chunked, or read up to EOF.  An ``OSError`` or a malformed reply
    is ``AdapterUnavailable``; a status other than 200 is
    ``ProtocolError``.  A session sends nothing: an unreachable server
    is reported by the first ``top_candidates``.

    Idle connections wait in a pool.  A call takes one (or opens one) and
    returns it only after reading a whole HTTP/1.1 reply without
    ``Connection: close``, so no connection is ever shared by two
    threads.  A reused connection that the server dropped before any
    byte of the reply arrived is replaced once; a timeout is never
    retried.  ``close()`` closes the idle connections.
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
        target = (url.path or "/") + (f"?{url.query}" if url.query else "")
        if not (target.isascii() and target.isprintable()) or " " in target:
            raise ValueError(f"bad model endpoint {endpoint!r}: unsafe path")
        if auth_token and ("\r" in auth_token or "\n" in auth_token):
            raise ValueError("auth token holds a line break")
        host = url.hostname
        default_port = 443 if url.scheme == "https" else 80
        self._address = (host, port or default_port)
        self._tls = None
        if url.scheme == "https":
            import ssl  # loaded only for an https endpoint

            self._tls = ssl.create_default_context()
        netloc = (f"[{host}]" if ":" in host else host).encode("idna")
        if port not in (None, default_port):
            netloc += b":%d" % port
        lines = [
            b"POST " + target.encode() + b" HTTP/1.1",
            b"Host: " + netloc,
            b"Accept-Encoding: identity",
            b"Content-Type: application/json",
        ]
        if auth_token:
            lines.append(b"Authorization: Bearer " + auth_token.encode("latin-1"))
        self._post_prefix = b"\r\n".join(lines) + b"\r\nContent-Length: "
        self._timeout = timeout
        self._idle: list[_Connection] = []
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            _close(conn)

    def _connect(self) -> _Connection:
        sock = socket.create_connection(self._address, self._timeout)
        try:
            # Without TCP_NODELAY, a request larger than one segment would
            # wait on Nagle's algorithm against the server's delayed ACK.
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._tls is not None:
                sock = self._tls.wrap_socket(sock, server_hostname=self._address[0])
        except OSError:
            sock.close()
            raise
        return sock, sock.makefile("rb")

    def _exchange(self, request: bytes) -> tuple[int, bytes]:
        """Send one request and read its whole reply: ``(status, body)``."""
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        reused = conn is not None
        try:
            if conn is None:
                conn = self._connect()
            while True:
                try:
                    conn[0].sendall(request)
                    if conn[1].peek(1):
                        break
                    raise ConnectionResetError("connection closed without a reply")
                except (ConnectionResetError, BrokenPipeError):
                    # The server closed the idle connection; the request
                    # is a pure function of its payload, so resend once.
                    if not reused:
                        raise
                    _close(conn)
                    conn = self._connect()
                    reused = False
            status, keep, data = _read_reply(conn[1])
        except (OSError, ValueError) as exc:
            if conn is not None:
                _close(conn)
            raise AdapterUnavailable(str(exc)) from exc
        if keep:
            with self._lock:
                self._idle.append(conn)
        else:
            _close(conn)
        return status, data

    def start_session(self, task_text: str) -> GenerationSession:
        return GenerationSession(task_text)

    def top_candidates(
        self, session: GenerationSession, k: int
    ) -> list[TokenCandidate]:
        if EOS_TOKEN_ID in session.prefix:
            raise ProtocolError("session already ended with EOS")
        payload = {"task": session.task_text, "prefix": "".join(session.prefix), "k": k}
        request = json.dumps(payload).encode()
        status, data = self._exchange(
            self._post_prefix + b"%d\r\n\r\n" % len(request) + request
        )
        if status != 200:
            raise ProtocolError(f"server returned HTTP {status}")
        try:
            body = json.loads(data)
            entries = [(c["text"], c["logprob"]) for c in body["candidates"]]
            eos = body.get("eos_logprob")
        except (ValueError, KeyError, TypeError) as exc:
            raise ProtocolError(f"malformed server reply: {exc}") from exc
        ranked = []
        for text, logprob in entries:
            if not isinstance(text, str) or text == EOS_TOKEN_ID:
                raise ProtocolError(f"candidate text is not a token's text: {text!r}")
            ranked.append((-_probability(logprob), text))
        if eos is not None:
            ranked.append((-_probability(eos), EOS_TOKEN_ID))
        return _top_k(ranked, k)
