from __future__ import annotations

import io
import json
import math
import random
import socket
import ssl
import sys
import threading
import time
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest
from hypothesis import given
from hypothesis import strategies as st

from sqlsynth.lm import (
    EOS_TOKEN_ID,
    AdapterUnavailable,
    DistractorSpec,
    GenerationSession,
    HttpCompletionModel,
    ProtocolError,
    ScriptedModel,
    ScriptedRouter,
    TokenCandidate,
    _read_reply,
    lexeme_tokens,
    load_scripted_model,
)
from sqlsynth.nsql.lexemes import split_line
from tests.fixtures.randqueries import distinct_queries
from tests.fixtures.trie import TrieModel

QUERY_A = "SELECT t.a\nFROM t\nWHERE\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n"
QUERY_B = "SELECT t.b\nFROM t\nWHERE\nGROUP BY\nHAVING\nORDER BY\nLIMIT\n"


# -- tokenization -----------------------------------------------------------


def test_lexeme_tokens_reassemble_exactly():
    tokens = lexeme_tokens(QUERY_A)
    assert "".join(tokens) == QUERY_A
    assert tokens[0] == "SELECT "
    assert tokens[1] == "t.a\n"


def test_lexeme_tokens_keep_spaced_strings_whole():
    text = "WHERE t.a = 'two words'\n"
    tokens = lexeme_tokens(text)
    assert "'two words'\n" in tokens
    assert "".join(tokens) == text


@given(st.text())
def test_lexeme_tokens_roundtrip(text):
    assert "".join(lexeme_tokens(text)) == text


def _lexeme_tokens_by_line(text: str) -> tuple[str, ...]:
    """``lexeme_tokens`` as ``split_line`` reads each open line."""
    tokens: list[str] = []
    for line in text.split("\n"):
        lexemes, fragment = split_line(line, terminated=False)
        tokens += [lexeme + " " for lexeme in lexemes]
        tokens.append((fragment or "") + "\n")
    last = tokens.pop()[:-1]
    return tuple(tokens + [last] if last else tokens)


def test_lexeme_tokens_match_split_line_on_random_texts():
    """One scan of the whole text splits it as ``split_line`` splits each
    line, open and closed strings, doubled quotes and empty lines
    included."""
    rng = random.Random(41)
    pieces = ("a", " ", "\n", "'", "''", "b c")
    for _ in range(50_000):
        text = "".join(rng.choices(pieces, k=rng.randrange(12)))
        assert lexeme_tokens(text) == _lexeme_tokens_by_line(text), text


def test_lexeme_tokens_are_split_line_lexemes(normalized_tasks, schemas):
    rng = random.Random(5)
    texts = [task.gold_query for task in normalized_tasks]
    for schema in schemas.values():
        texts.extend(query.render() for query in distinct_queries(schema, rng, 40))
    for text in texts:
        lines: list[list[str]] = [[]]
        for token in lexeme_tokens(text):
            assert token[-1] in " \n"
            lines[-1].append(token[:-1])
            if token.endswith("\n"):
                lines.append([])
        expected = [split_line(line, terminated=True)[0] for line in text.split("\n")]
        assert lines == expected, text


# -- scripted model ---------------------------------------------------------


def _session(model, prefix=()):
    return GenerationSession("task", tuple(prefix))


def test_scripted_probabilities_follow_subtree_weights():
    model = ScriptedModel.from_queries([(QUERY_A, 0.6), (QUERY_B, 0.3)])
    first = model.top_candidates(_session(model), 10)
    assert [c.token_id for c in first] == ["SELECT "]
    assert first[0].prob == pytest.approx(1.0)

    second = model.top_candidates(_session(model, ("SELECT ",)), 10)
    by_token = {c.token_id: c.prob for c in second}
    assert by_token["t.a\n"] == pytest.approx(0.6 / 0.9)
    assert by_token["t.b\n"] == pytest.approx(0.3 / 0.9)


def test_scripted_path_product_is_leaf_share():
    model = ScriptedModel.from_queries([(QUERY_A, 0.6), (QUERY_B, 0.3)])
    prefix: tuple[str, ...] = ()
    product = 1.0
    for token in lexeme_tokens(QUERY_A):
        cands = {c.token_id: c for c in model.top_candidates(_session(model, prefix), 10)}
        product *= cands[token].prob
        prefix += (token,)
    eos = {c.token_id: c for c in model.top_candidates(_session(model, prefix), 10)}
    product *= eos[EOS_TOKEN_ID].prob
    assert product == pytest.approx(0.6 / 0.9)


def test_scripted_eos_only_at_path_end():
    model = ScriptedModel.from_queries([(QUERY_A, 1.0)])
    mid = model.top_candidates(_session(model, ("SELECT ",)), 10)
    assert all(not c.is_eos for c in mid)
    end = model.top_candidates(_session(model, lexeme_tokens(QUERY_A)), 10)
    assert [c.token_id for c in end] == [EOS_TOKEN_ID]
    assert end[0].surface == ""


def test_scripted_off_path_prefix_is_dead_end():
    model = ScriptedModel.from_queries([(QUERY_A, 1.0)])
    assert model.top_candidates(_session(model, ("nonsense ",)), 10) == []


def test_scripted_rejects_continuing_after_eos():
    model = ScriptedModel.from_queries([(QUERY_A, 1.0)])
    with pytest.raises(ProtocolError):
        model.top_candidates(_session(model, ("SELECT ", EOS_TOKEN_ID)), 10)


def test_scripted_weight_validation():
    with pytest.raises(ValueError):
        ScriptedModel([])
    with pytest.raises(ValueError):
        ScriptedModel.from_queries([(QUERY_A, 0.0)])
    with pytest.raises(ValueError):
        ScriptedModel.from_queries([(QUERY_A, 0.7), (QUERY_B, 0.7)])


def test_scripted_model_refuses_a_nan_weight():
    # NaN passes both "weight <= 0" and "sum > 1"; its candidates would
    # leave the frontier's order undefined.
    with pytest.raises(ValueError, match="positive"):
        ScriptedModel([(("SELECT ", "a "), math.nan), (("SELECT ", "b "), 0.5)])


def _built(cls, paths, distractor):
    try:
        return cls(paths, distractor)
    except ValueError as exc:
        return ValueError, str(exc)


def _outcome(model, prefix, k):
    try:
        candidates = model.top_candidates(_session(model, prefix), k)
    except ProtocolError as exc:
        return ProtocolError, str(exc)
    return [(c.token_id, c.surface, c.prob) for c in candidates]


def _differential_path_sets(rng):
    """Seeded ``(paths, distractor, single)`` sets: shared prefixes, a
    path that extends another, a duplicate, sometimes the empty path, and
    distractors with and without steps, some colliding with a token."""
    tokens = [f"t{i} " for i in range(5)]

    def path(low, high):
        return tuple(rng.choice(tokens) for _ in range(rng.randint(low, high)))

    distractors = [
        None,
        DistractorSpec("zz ", 0.2),
        DistractorSpec("zz ", 0.35, frozenset({0, 2, 3})),
        DistractorSpec("t4 ", 0.1),
    ]
    for case in range(120):
        distractor = distractors[case % len(distractors)]
        yield [(path(1, 30), rng.uniform(0.01, 1.0))], distractor, True
        paths = [path(0, 8) for _ in range(rng.randint(1, 10))]
        paths.append(paths[0] + path(1, 3))
        paths.append(rng.choice(paths))
        if case % 3 == 0:
            paths.append(())
        weights = [rng.random() + 1e-3 for _ in paths]
        total = sum(weights) / rng.uniform(0.5, 1.0)
        yield [(p, w / total) for p, w in zip(paths, weights)], distractor, False


def test_scripted_model_matches_the_frozen_trie():
    """Over every prefix of every path, off-path prefixes, prefixes that
    end in the distractor or hold EOS, the path model gives the frozen
    trie's candidates in the same order, with the same exceptions, and
    probabilities equal for one path and within 1e-12 relative
    otherwise: the flat sums associate differently from the trie's
    nested ones."""
    rng = random.Random(11)
    cases = list(_differential_path_sets(rng))
    cases += [
        ([], None, True),
        ([(("a ",), 0.0)], None, True),
        ([(("a ",), -0.5)], None, True),
        ([(("a ",), 0.7), (("b ",), 0.7)], None, False),
        ([(("a ",), 0.5)], DistractorSpec("zz ", 0.0), True),
        ([(("a ",), 0.5)], DistractorSpec("zz ", 1.0), True),
        ([(("a ",), 0.5)], DistractorSpec("a ", 0.2), True),
        ([(("a ",), 0.5)], DistractorSpec(EOS_TOKEN_ID, 0.2), True),
    ]
    compared = multi = rejected = 0
    for paths, distractor, single in cases:
        model = _built(ScriptedModel, paths, distractor)
        reference = _built(TrieModel, paths, distractor)
        assert isinstance(model, tuple) == isinstance(reference, tuple)
        if isinstance(reference, tuple):
            assert model == reference
            rejected += 1
            continue
        prefixes = {()}
        for tokens, _ in paths:
            for end in range(len(tokens) + 1):
                head = tuple(tokens[:end])
                prefixes |= {head, head + ("nowhere ",), head + (EOS_TOKEN_ID,)}
                if distractor is not None:
                    prefixes.add(head + (distractor.surface,))
        prefixes |= {tuple(rng.choice(["t0 ", "t1 ", "t9 "]) for _ in range(4))}
        for prefix in sorted(prefixes):
            for k in (2, 100):
                got = _outcome(model, prefix, k)
                want = _outcome(reference, prefix, k)
                compared += 1
                if isinstance(want, tuple):
                    assert got == want
                    continue
                assert [c[:2] for c in got] == [c[:2] for c in want], prefix
                multi += sum(c[0] != EOS_TOKEN_ID for c in want) > 1
                for (_, _, prob), (_, _, expected) in zip(got, want):
                    if single:
                        assert prob == expected, prefix
                    else:
                        assert math.isclose(prob, expected, rel_tol=1e-12), prefix
    assert rejected > 50 and compared > 20_000 and multi > 2_000


class _CountingList(list):
    """A list that counts its item reads, ``bisect``'s included."""

    reads = 0

    def __getitem__(self, index):
        self.reads += 1
        return super().__getitem__(index)


def test_a_root_call_reads_a_few_paths_per_next_token():
    """On 10,000 paths of 12 tokens over 50, a root call bisects past
    each next token's paths instead of reading them all, and gives the
    same candidates."""
    rng = random.Random(11)
    tokens = [f"t{i} " for i in range(50)]
    paths = {tuple(rng.choice(tokens) for _ in range(12)) for _ in range(10_000)}
    model = ScriptedModel([(path, 1 / len(paths)) for path in paths])
    want = model.top_candidates(_session(model), 100)
    model._paths = _CountingList(model._paths)
    got = model.top_candidates(_session(model), 100)
    assert got == want and len(got) == len(tokens)
    # Each next token costs a few reads plus one bisection.
    assert model._paths.reads <= len(tokens) * (len(paths).bit_length() + 8)


def test_token_candidate_is_an_immutable_hashable_triple():
    candidate = TokenCandidate("a ", "a", 0.5)
    with pytest.raises(AttributeError):
        candidate.prob = 0.9
    assert not hasattr(candidate, "__dict__")
    assert hash(candidate) == hash(TokenCandidate("a ", "a", 0.5))
    assert len({candidate, TokenCandidate("a ", "a", 0.5)}) == 1
    token_id, surface, prob = candidate
    assert (token_id, surface, prob) == ("a ", "a", 0.5)
    assert TokenCandidate(EOS_TOKEN_ID, "", 0.1).is_eos
    for token_id in ("", "a ", "<EOS>", EOS_TOKEN_ID + " "):
        assert not TokenCandidate(token_id, EOS_TOKEN_ID, 0.1).is_eos


def test_a_scripted_path_deeper_than_the_recursion_limit(tmp_path):
    tokens = [f"t{i % 7} " for i in range(2000)]
    assert len(tokens) > sys.getrecursionlimit()
    spec = {
        "paths": [
            {"tokens": tokens, "weight": 0.75},
            {"query": QUERY_A, "weight": 0.25},
        ]
    }
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(spec))
    built = ScriptedModel([(tokens, 0.75), (lexeme_tokens(QUERY_A), 0.25)])
    for model in (built, load_scripted_model(path)):
        candidates = model.top_candidates(_session(model), 10)
        first = {c.token_id: c.prob for c in candidates}
        assert first == {"t0 ": 0.75, "SELECT ": 0.25}
        last = model.top_candidates(_session(model, tokens), 10)
        assert [(c.token_id, c.prob) for c in last] == [(EOS_TOKEN_ID, 1.0)]


def test_scripted_rejects_a_non_string_token():
    with pytest.raises(ValueError, match="path token is not a string: 5"):
        ScriptedModel([(("SELECT ", 5, "x"), 0.5)])


def test_scripted_rejects_the_eos_id_as_a_path_token():
    """The search would take such a candidate for end of sequence while
    appending the text ``<eos>``."""
    with pytest.raises(ValueError, match="path token '<eos>' is the end-of-sequence"):
        ScriptedModel([(("SELECT ", EOS_TOKEN_ID), 0.5)])


@pytest.mark.parametrize(
    "tokens, message",
    [
        ((5, EOS_TOKEN_ID), "path token is not a string: 5"),
        ((EOS_TOKEN_ID, 5), "path token '<eos>' is the end-of-sequence id"),
        (("a ", None), "path token is not a string: None"),
    ],
)
def test_scripted_names_the_first_bad_path_token(tokens, message):
    with pytest.raises(ValueError) as raised:
        ScriptedModel([(tokens, 0.5)])
    assert str(raised.value) == message


def test_scripted_models_take_a_third_of_the_tries_memory(normalized_tasks, schemas):
    """200 single-path models with the benchmark's distractor, built from
    the fixture corpus's gold queries and then seeded random ones over
    its schemas, as the benchmark's fixture workload mixes them."""
    rng = random.Random(3)
    texts = [task.gold_query for task in normalized_tasks]
    for schema in schemas.values():
        texts.extend(query.render() for query in distinct_queries(schema, rng, 100))
    texts = texts[:200]
    assert len(texts) == 200
    distractor = DistractorSpec("frobnicate ", 0.2)

    def traced_bytes(cls) -> int:
        tracemalloc.start()
        try:
            models = [cls.from_queries([(text, 0.7)], distractor) for text in texts]
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(models) == len(texts)
        return size

    trie_bytes = traced_bytes(TrieModel)
    assert traced_bytes(ScriptedModel) * 3 <= trie_bytes


def test_scripted_models_of_one_query_share_their_tokens(normalized_tasks):
    text = normalized_tasks[0].gold_query
    first, second = (ScriptedModel.from_queries([(text, 1.0)]) for _ in range(2))
    prefix: tuple[str, ...] = ()
    while True:
        [one] = first.top_candidates(_session(first, prefix), 1)
        [other] = second.top_candidates(_session(second, prefix), 1)
        assert one.token_id is other.token_id
        if one.is_eos:
            break
        prefix += (one.token_id,)
    assert "".join(prefix) == text


def test_scripted_top_k_truncates():
    model = ScriptedModel.from_queries([(QUERY_A, 0.6), (QUERY_B, 0.3)])
    second = model.top_candidates(_session(model, ("SELECT ",)), 1)
    assert [c.token_id for c in second] == ["t.a\n"]


def test_distractor_takes_fixed_mass_and_dead_ends():
    spec = DistractorSpec(surface="zzz ", mass=0.2)
    model = ScriptedModel.from_queries([(QUERY_A, 1.0)], spec)
    cands = {c.token_id: c.prob for c in model.top_candidates(_session(model), 10)}
    assert cands["zzz "] == pytest.approx(0.2)
    assert cands["SELECT "] == pytest.approx(0.8)
    assert model.top_candidates(_session(model, ("zzz ",)), 10) == []


def test_distractor_step_restriction():
    spec = DistractorSpec(surface="zzz ", mass=0.5, steps=frozenset({1}))
    model = ScriptedModel.from_queries([(QUERY_A, 1.0)], spec)
    step0 = model.top_candidates(_session(model), 10)
    assert [c.token_id for c in step0] == ["SELECT "]
    step1 = {c.token_id for c in model.top_candidates(_session(model, ("SELECT ",)), 10)}
    assert "zzz " in step1


def test_distractor_surface_collision_rejected():
    with pytest.raises(ValueError):
        ScriptedModel.from_queries(
            [(QUERY_A, 1.0)], DistractorSpec(surface="SELECT ", mass=0.1)
        )


def test_router_matches_and_falls_back():
    model_a = ScriptedModel.from_queries([(QUERY_A, 1.0)])
    model_b = ScriptedModel.from_queries([(QUERY_B, 1.0)])
    router = ScriptedRouter([("alpha", model_a)], default=model_b)
    assert (
        router.top_candidates(GenerationSession("alpha question", ("SELECT ",)), 5)[0]
        .token_id
        == "t.a\n"
    )
    assert (
        router.top_candidates(GenerationSession("other", ("SELECT ",)), 5)[0].token_id
        == "t.b\n"
    )


def test_router_without_default_raises():
    router = ScriptedRouter([("alpha", ScriptedModel.from_queries([(QUERY_A, 1.0)]))])
    with pytest.raises(AdapterUnavailable):
        router.start_session("no match here")


# -- spec files -------------------------------------------------------------


def test_load_scripted_model_single(tmp_path):
    spec = {
        "paths": [
            {"query": QUERY_A, "weight": 0.6},
            {"tokens": list(lexeme_tokens(QUERY_B)), "weight": 0.3},
        ],
        "distractor": {"surface": "zzz ", "mass": 0.05, "steps": [0]},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    model = load_scripted_model(path)
    assert isinstance(model, ScriptedModel)
    cands = {c.token_id: c.prob for c in model.top_candidates(_session(model), 10)}
    assert cands["zzz "] == pytest.approx(0.05)


def _distractor_spec(tmp_path, steps):
    spec = {
        "paths": [{"query": QUERY_A}],
        "distractor": {"surface": "zzz ", "mass": 0.2, "steps": steps},
    }
    path = tmp_path / "model.json"
    path.write_text(json.dumps(spec))
    return path


@pytest.mark.parametrize(
    "steps", ["01", [0.5], [-1], [True]], ids=["string", "fraction", "negative", "bool"]
)
def test_load_scripted_model_refuses_distractor_steps_that_are_not_depths(
    tmp_path, steps
):
    """A string would load as a set of characters, and a fraction or a
    negative number as a depth no step reaches; ``true`` would read as 1."""
    with pytest.raises(ProtocolError, match="distractor steps"):
        load_scripted_model(_distractor_spec(tmp_path, steps))


@pytest.mark.parametrize("tokens", ["SELECT ", {"SELECT ": 1}], ids=["string", "object"])
def test_load_scripted_model_refuses_tokens_that_are_not_a_list(tmp_path, tokens):
    """A string would load as a path of its characters, and an object as
    a path of its keys."""
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"paths": [{"tokens": tokens}]}))
    with pytest.raises(ProtocolError, match="'tokens' is not a list"):
        load_scripted_model(path)


def test_load_scripted_model_applies_distractor_steps_at_their_depths(tmp_path):
    model = load_scripted_model(_distractor_spec(tmp_path, [0, 2]))
    prefix = lexeme_tokens(QUERY_A)
    noisy = [
        "zzz " in {c.token_id for c in model.top_candidates(_session(model, prefix[:n]), 5)}
        for n in range(3)
    ]
    assert noisy == [True, False, True]


def test_load_scripted_model_router(tmp_path):
    spec = {
        "routes": [{"match": "alpha", "paths": [{"query": QUERY_A}]}],
        "default": {"paths": [{"query": QUERY_B}]},
    }
    path = tmp_path / "router.json"
    path.write_text(json.dumps(spec))
    model = load_scripted_model(path)
    assert isinstance(model, ScriptedRouter)


@pytest.mark.parametrize(
    "text",
    [
        "{not json",
        json.dumps({"paths": [{"weight": 1.0}]}),
        json.dumps({"paths": []}),
        json.dumps(
            {"paths": [{"query": "SELECT\n"}], "distractor": {"mass": 0.2}}
        ),
        json.dumps([{"paths": [{"query": "SELECT\n"}]}]),
        json.dumps({"paths": [{"tokens": ["SELECT ", 5, "x"], "weight": 0.5}]}),
        json.dumps({"paths": [{"tokens": ["SELECT ", EOS_TOKEN_ID], "weight": 0.5}]}),
        json.dumps(
            {
                "routes": [
                    {"matches": "alpha", "paths": [{"query": "SELECT\n"}]},
                    {"match": "beta", "paths": [{"query": "FROM\n"}]},
                ]
            }
        ),
        json.dumps({"routes": [{"match": 1, "paths": [{"query": "SELECT\n"}]}]}),
        json.dumps({"paths": [{"query": "SELECT\n", "weight": math.nan}]}),
    ],
    ids=[
        "not-json",
        "path-without-tokens",
        "no-paths",
        "distractor-without-surface",
        "top-level-list",
        "non-string-token",
        "eos-token",
        "route-without-match",
        "non-string-match",
        "nan-weight",
    ],
)
def test_load_scripted_model_bad_file(tmp_path, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ProtocolError):
        load_scripted_model(path)


# -- HTTP client ------------------------------------------------------------


class _CannedHandler(BaseHTTPRequestHandler):
    payload: dict = {}
    requests_seen: list[dict] = []
    status = 200

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length))
        type(self).requests_seen.append(
            {"body": body, "auth": self.headers.get("Authorization")}
        )
        payload = type(self).payload
        if callable(payload):  # a reply that depends on the request
            payload = payload(body)
        self.send_response(type(self).status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(json.dumps(payload).encode())

    def log_message(self, *args):
        pass


@pytest.fixture()
def canned_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _CannedHandler)
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
    )
    thread.start()
    _CannedHandler.requests_seen = []
    _CannedHandler.status = 200
    yield f"http://127.0.0.1:{server.server_port}/complete"
    server.shutdown()
    thread.join()
    server.server_close()


# A keep-alive server: HTTP/1.1 with Content-Length, so a client may send
# many requests over one connection.  ``reply(request)`` decides each POST:
# a JSON value is a 200 reply, ``(status, body)`` sets the status (a bytes
# body is sent as is), DROP closes the connection without a reply, and
# STALL holds the request until the server stops, then drops it.
DROP = "drop"
STALL = "stall"


class _KeepAliveHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 10  # a connection a test forgot to close cannot hang teardown

    def _send(self, status, body):
        # One write for headers and body, or Nagle's algorithm against the
        # client's delayed ACK stalls each reply by about 40 ms.
        head = (
            f"HTTP/1.1 {status} {self.responses[status][0]}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        )
        self.wfile.write(head.encode() + body)
        if self.server.close_after_reply:
            self.close_connection = True  # without saying Connection: close

    def do_POST(self):
        request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        self.server.posted.append(request)  # one call, safe across handler threads
        reply = self.server.reply(request)
        if reply == STALL:
            self.server.stopped.wait()
            reply = DROP
        if reply == DROP:
            self.close_connection = True
            return
        status, body = reply if isinstance(reply, tuple) else (200, reply)
        self._send(status, body if isinstance(body, bytes) else json.dumps(body).encode())

    def log_message(self, *args):
        pass


class _KeepAliveServer(ThreadingHTTPServer):
    def __init__(self, reply, close_after_reply):
        super().__init__(("127.0.0.1", 0), _KeepAliveHandler)
        self.reply = reply
        self.close_after_reply = close_after_reply
        self.accepted = 0  # counted by the one thread that accepts
        self.posted: list[dict] = []
        self.stopped = threading.Event()
        self.url = f"http://127.0.0.1:{self.server_port}/complete"

    def get_request(self):
        self.accepted += 1
        return super().get_request()


@pytest.fixture()
def keepalive_server():
    """Start a keep-alive server: ``keepalive_server(reply, close_after_reply=False)``."""
    started = []

    def start(reply, close_after_reply=False):
        server = _KeepAliveServer(reply, close_after_reply)
        thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.05}, daemon=True
        )
        thread.start()
        started.append((server, thread))
        return server

    yield start
    for server, thread in started:
        server.stopped.set()
        server.shutdown()
        thread.join()
        server.server_close()


def test_http_model_round_trip(canned_server):
    _CannedHandler.payload = {
        "candidates": [
            {"text": "SELECT ", "logprob": math.log(0.7)},
            {"text": "WITH ", "logprob": math.log(0.1)},
        ],
        "eos_logprob": math.log(0.2),
    }
    model = HttpCompletionModel(canned_server, auth_token="sesame")
    session = model.start_session("the task")
    cands = model.top_candidates(
        GenerationSession(session.task_text, ("SELECT ",)), 3
    )
    model.close()
    assert [c.token_id for c in cands] == ["SELECT ", EOS_TOKEN_ID, "WITH "]
    assert cands[0].prob == pytest.approx(0.7)
    assert cands[1].surface == ""
    seen = _CannedHandler.requests_seen[-1]
    assert seen["body"] == {"task": "the task", "prefix": "SELECT ", "k": 3}
    assert seen["auth"] == "Bearer sesame"


def test_http_model_ranks_by_probability_then_token_id(canned_server):
    """The candidates a reply gives, in the order the old sort of built
    candidates gave them: ties by token id, with EOS's empty surface
    among them."""
    quarter, tenth = math.log(0.25), math.log(0.1)
    texts = [("b ", quarter), ("c ", tenth), ("a ", quarter)]
    _CannedHandler.payload = {
        "candidates": [{"text": text, "logprob": lp} for text, lp in texts],
        "eos_logprob": quarter,
    }
    built = [TokenCandidate(text, text, math.exp(lp)) for text, lp in texts]
    built.append(TokenCandidate(EOS_TOKEN_ID, "", math.exp(quarter)))
    want = sorted(built, key=lambda c: (-c.prob, c.token_id))
    model = HttpCompletionModel(canned_server)
    session = model.start_session("t")
    try:
        for k in (1, 3, 5, 10):
            assert model.top_candidates(session, k) == want[:k]
    finally:
        model.close()
    assert [c.surface for c in want[:3]] == ["", "a ", "b "]


def test_http_model_refuses_the_eos_id_as_a_token_text(canned_server):
    """A reply candidate spelled like the EOS id and a prefix holding EOS
    are both protocol errors; the prefix is refused before any request."""
    _CannedHandler.payload = {
        "candidates": [{"text": EOS_TOKEN_ID, "logprob": -0.1}],
        "eos_logprob": None,
    }
    model = HttpCompletionModel(canned_server)
    try:
        with pytest.raises(ProtocolError, match="not a token's text: '<eos>'"):
            model.top_candidates(model.start_session("t"), 5)
        assert len(_CannedHandler.requests_seen) == 1
        with pytest.raises(ProtocolError, match="ended with EOS"):
            model.top_candidates(GenerationSession("t", ("SELECT ", EOS_TOKEN_ID)), 5)
        assert len(_CannedHandler.requests_seen) == 1
    finally:
        model.close()


def test_http_model_rejects_bad_payloads(canned_server):
    model = HttpCompletionModel(canned_server)
    session = model.start_session("t")
    for payload in (
        {"no_candidates": []},
        {"candidates": [{"text": "a"}]},
        {"candidates": [{"text": "a", "logprob": 1.0}]},  # prob > 1
        {"candidates": [{"text": 7, "logprob": -1.0}]},
        {"candidates": 5},
        {"candidates": [], "eos_logprob": "x"},
        {"candidates": [{"text": "a", "logprob": 1000}]},  # exp overflows
        {"candidates": [], "eos_logprob": 1000},
        {"candidates": [], "eos_logprob": 0.5},
        {"candidates": [{"text": "a", "logprob": False}]},  # a bool, not a number
        {"candidates": [{"text": "a", "logprob": "0"}]},
        {"candidates": [], "eos_logprob": "-0.5"},
        [],
    ):
        _CannedHandler.payload = payload
        with pytest.raises(ProtocolError):
            model.top_candidates(session, 2)
    _CannedHandler.payload = {"candidates": []}
    _CannedHandler.status = 500
    with pytest.raises(ProtocolError):
        model.top_candidates(session, 2)
    model.close()


def test_http_model_unreachable_host():
    model = HttpCompletionModel("http://127.0.0.1:1/nothing", timeout=0.2)
    session = model.start_session("t")
    with pytest.raises(AdapterUnavailable):
        model.top_candidates(session, 2)


def _echo(request):
    """A reply that names its request, so crossed replies would show."""
    return {"candidates": [{"text": request["prefix"] + "x ", "logprob": 0.0}]}


def test_http_model_reopens_a_connection_the_server_closed(keepalive_server):
    server = keepalive_server(_echo, close_after_reply=True)
    model = HttpCompletionModel(server.url)
    try:
        model.start_session("t")
        for prefix in ("a ", "b ", "c "):
            cands = model.top_candidates(GenerationSession("t", (prefix,)), 2)
            assert [c.token_id for c in cands] == [prefix + "x "]
    finally:
        model.close()
    # One fresh connection for each call; nothing is sent twice.
    assert (server.accepted, len(server.posted)) == (3, 3)


def test_http_model_timeout_is_not_retried(keepalive_server):
    server = keepalive_server(lambda request: STALL)
    timeout = 0.5
    model = HttpCompletionModel(server.url, timeout=timeout)
    try:
        session = model.start_session("t")
        start = time.monotonic()
        with pytest.raises(AdapterUnavailable):
            model.top_candidates(session, 2)
        elapsed = time.monotonic() - start
    finally:
        model.close()
    assert timeout <= elapsed < 1.5 * timeout
    assert (server.accepted, len(server.posted)) == (1, 1)


def test_http_model_close_drops_the_idle_connection(keepalive_server):
    server = keepalive_server(_echo)
    model = HttpCompletionModel(server.url)
    try:
        session = model.start_session("t")
        model.top_candidates(session, 2)
        model.top_candidates(session, 2)
        assert server.accepted == 1
        model.close()
        model.top_candidates(session, 2)
        assert server.accepted == 2
    finally:
        model.close()


def test_http_model_threads_never_share_a_connection(keepalive_server):
    """More threads than cores, each checking that every reply answers its
    own request; a connection shared by two threads would cross replies."""
    server = keepalive_server(_echo)
    model = HttpCompletionModel(server.url)
    mismatches: list[str] = []

    def worker(name):
        for step in range(15):
            prefix = f"{name}{step} "
            cands = model.top_candidates(GenerationSession("t", (prefix,)), 2)
            if [c.token_id for c in cands] != [prefix + "x "]:
                mismatches.append(prefix)

    threads = [threading.Thread(target=worker, args=(name,)) for name in "abcd"]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # interleave the threads' calls
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
        model.close()
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []
    assert len(server.posted) == 60
    assert 1 <= server.accepted <= 4


@pytest.mark.parametrize(
    "endpoint", ["http://", "ftp://host/complete", "http://host:port/complete"]
)
def test_http_model_rejects_a_bad_endpoint(endpoint):
    with pytest.raises(ValueError):
        HttpCompletionModel(endpoint)


@pytest.mark.parametrize(
    "endpoint, token",
    [("http://host/a b", None), ("http://host/\u00e9", None), ("http://host/", "a\nX: 1")],
    ids=["space-in-path", "non-ascii-path", "line-break-in-token"],
)
def test_http_model_rejects_what_would_break_the_request_head(endpoint, token):
    with pytest.raises(ValueError):
        HttpCompletionModel(endpoint, auth_token=token)


def test_http_model_builds_a_tls_context_only_for_https(monkeypatch):
    def no_socket(*args, **kwargs):
        raise AssertionError("building a model opened a socket")

    monkeypatch.setattr(socket, "create_connection", no_socket)
    monkeypatch.setattr(socket, "socket", no_socket)
    https = HttpCompletionModel("https://models.invalid/complete")
    assert isinstance(https._tls, ssl.SSLContext)
    assert https._tls.verify_mode == ssl.CERT_REQUIRED and https._tls.check_hostname
    assert HttpCompletionModel("http://models.invalid:8080/complete")._tls is None


def test_an_https_model_closes_its_socket_when_tls_setup_fails():
    """A plain-TCP listener answers the TLS hello with HTTP bytes: the
    handshake fails, the client closes its socket, and the call is
    ``AdapterUnavailable``."""
    closed = threading.Event()

    def serve(listener):
        conn, _ = listener.accept()
        with conn:
            conn.settimeout(5)
            conn.recv(4096)  # the client hello
            conn.sendall(b"HTTP/1.1 400 Bad Request\r\nContent-Length: 0\r\n\r\n")
            try:
                while conn.recv(4096):
                    pass
            except ConnectionResetError:
                pass
            closed.set()

    with socket.create_server(("127.0.0.1", 0)) as listener:
        listener.settimeout(5)
        thread = threading.Thread(target=serve, args=(listener,), daemon=True)
        thread.start()
        port = listener.getsockname()[1]
        model = HttpCompletionModel(f"https://127.0.0.1:{port}/complete", timeout=5)
        with pytest.raises(AdapterUnavailable):
            model.top_candidates(model.start_session("task"), 3)
        thread.join(5)
    assert closed.is_set()


# A raw server for the exchange's edge cases: ``reply(method, count)`` gives
# the bytes sent back for the ``count``-th request (from 1), sent as they are
# over a connection the server leaves open.  One connection at a time.
class _RawServer:
    def __init__(self, reply):
        self.reply = reply
        self.accepted = 0
        self.requests: list[bytes] = []  # each request's line
        self._listener = socket.create_server(("127.0.0.1", 0))
        self._listener.settimeout(0.05)
        self._stopped = threading.Event()
        self.url = f"http://127.0.0.1:{self._listener.getsockname()[1]}/complete"
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self):
        while not self._stopped.is_set():
            try:
                conn, _ = self._listener.accept()
            except TimeoutError:
                continue
            self.accepted += 1
            conn.settimeout(10)  # a connection a test forgot to close cannot hang
            with conn, conn.makefile("rb") as reader:
                while request := reader.readline():
                    length = 0
                    while (line := reader.readline()) not in (b"\r\n", b""):
                        name, _, value = line.partition(b":")
                        if name.lower() == b"content-length":
                            length = int(value)
                    reader.read(length)
                    self.requests.append(request)
                    conn.sendall(self.reply(request.split()[0], len(self.requests)))

    def stop(self):
        self._stopped.set()
        self._thread.join()
        self._listener.close()


@pytest.fixture()
def raw_server():
    started = []

    def start(reply):
        started.append(_RawServer(reply))
        return started[-1]

    yield start
    for server in started:
        server.stop()


_REPLY_BODY = json.dumps({"candidates": [{"text": "SELECT ", "logprob": 0.0}]}).encode()
_OK = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (
    len(_REPLY_BODY),
    _REPLY_BODY,
)


def _call(model):
    return [c.token_id for c in model.top_candidates(GenerationSession("t"), 2)]


@pytest.mark.parametrize(
    "reply, message",
    [
        (b"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", "negative body length -1"),
        (
            b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
            "reply ended 7 bytes short",
        ),
        (b"SMTP 200 OK\r\n\r\n", "malformed status line b'SMTP 200 OK\\r\\n'"),
        (b"HTTP/1.1 1000 OK\r\n\r\n", "malformed status line b'HTTP/1.1 1000 OK"),
    ],
    ids=["negative-length", "short-body", "not-http", "status-out-of-range"],
)
def test_read_reply_rejects_a_malformed_reply(reply, message):
    with pytest.raises(ValueError) as raised:
        _read_reply(io.BytesIO(reply))
    assert str(raised.value).startswith(message)


def test_read_reply_reads_no_body_after_a_204():
    reply = b"HTTP/1.1 204 No Content\r\nContent-Length: 3\r\n\r\nabc"
    assert _read_reply(io.BytesIO(reply)) == (204, True, b"")


def test_http_model_reads_a_chunked_reply_after_100_continue(raw_server):
    chunks = b"".join(
        b"%x;ext=1\r\n%s\r\n" % (len(part), part)
        for part in (_REPLY_BODY[:7], _REPLY_BODY[7:])
    )
    reply = (
        b"HTTP/1.1 100 Continue\r\n\r\n"
        b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
        + chunks
        + b"0\r\nX-Trailer: 1\r\n\r\n"
    )
    server = raw_server(lambda method, count: reply)
    model = HttpCompletionModel(server.url, timeout=2)
    try:
        assert _call(model) == ["SELECT "]
        assert _call(model) == ["SELECT "]
    finally:
        model.close()
    assert (server.accepted, len(server.requests)) == (1, 2)


def test_http_model_session_sends_nothing_before_its_first_completion(raw_server):
    server = raw_server(lambda method, count: _OK)
    model = HttpCompletionModel(server.url, timeout=2)
    try:
        session = model.start_session("t")
        time.sleep(0.2)  # the server's accept loop polls every 0.05 s
        assert server.accepted == 0
        assert [c.token_id for c in model.top_candidates(session, 2)] == ["SELECT "]
    finally:
        model.close()
    assert server.accepted == 1
    assert [line.split()[:2] for line in server.requests] == [[b"POST", b"/complete"]]


def test_http_model_does_not_reuse_a_connection_the_reply_closes(raw_server):
    closing = _OK.replace(b"\r\n\r\n", b"\r\nConnection: close\r\n\r\n", 1)
    server = raw_server(lambda method, count: closing)
    model = HttpCompletionModel(server.url, timeout=2)
    try:
        assert _call(model) == ["SELECT "]
        assert _call(model) == ["SELECT "]
    finally:
        model.close()
    # A new connection for the second call; nothing is sent twice.
    assert (server.accepted, len(server.requests)) == (2, 2)


def test_http_model_drops_a_connection_with_a_malformed_status_line(raw_server):
    server = raw_server(lambda method, count: b"HTTP/1.1 OK\r\n\r\n" if count == 1 else _OK)
    model = HttpCompletionModel(server.url, timeout=2)
    try:
        with pytest.raises(AdapterUnavailable):
            _call(model)
        assert _call(model) == ["SELECT "]
    finally:
        model.close()
    assert (server.accepted, len(server.requests)) == (2, 2)


@pytest.mark.parametrize(
    "headers, accepted",
    [
        (b"X-Long: %s\r\n" % (b"a" * 65526), True),  # a 64 KiB line
        (b"X-Long: %s\r\n" % (b"a" * 65527), False),
        (b"".join(b"X-%d: 1\r\n" % i for i in range(99)), True),  # 100 headers
        (b"".join(b"X-%d: 1\r\n" % i for i in range(100)), False),
    ],
    ids=["line-of-64k", "line-over-64k", "100-headers", "101-headers"],
)
def test_http_model_bounds_the_reply_head(raw_server, headers, accepted):
    reply = _OK.replace(b"\r\n", b"\r\n" + headers, 1)
    server = raw_server(lambda method, count: reply)
    model = HttpCompletionModel(server.url, timeout=2)
    try:
        if accepted:
            assert _call(model) == ["SELECT "]
        else:
            with pytest.raises(AdapterUnavailable):
                _call(model)
    finally:
        model.close()
