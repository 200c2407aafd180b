"""Local completion server that serves the benchmark's scripted models.

    python3 perfbench/stub.py MODELS_JSON

binds 127.0.0.1 on a free port, prints ``PORT <n>`` on one line, then
answers the JSON protocol of ``HttpCompletionModel``: a POST of
``{"task", "prefix", "k"}`` gets the top-k continuations of the scripted
model routed by the task's first line (its question).  It serves one
keep-alive connection at a time and exits when stdin closes.

Each reply, headers and body, goes out in a single send.  Headers and
body written separately hit Nagle's algorithm against the client's
delayed ACK and stall every call by about 40 ms, which would make the
benchmark measure the kernel instead of the program.
"""

from __future__ import annotations

import dataclasses
import json
import math
import socketserver
import sys
import threading
from http.server import BaseHTTPRequestHandler

from common import use_checkout

use_checkout()

from sqlsynth import ScriptedModel  # noqa: E402
from sqlsynth.lm import DistractorSpec  # noqa: E402


def lexemes(text: str) -> tuple[str, ...]:
    """Split canonical text into tokens that keep their trailing space or
    newline; a quoted string stays one token.  The server tokenizes on
    its own, as a real one would, rather than through the client
    library it serves."""
    tokens: list[str] = []
    start = 0
    in_string = False
    for i, ch in enumerate(text):
        if ch == "'":
            in_string = not in_string  # a doubled quote toggles twice
        elif ch in " \n" and not in_string:
            tokens.append(text[start : i + 1])
            start = i + 1
    if start < len(text):
        tokens.append(text[start:])
    return tuple(tokens)


def build_models(spec: dict) -> dict[str, ScriptedModel]:
    models = {}
    for question, entry in spec.items():
        noise = entry["distractor"]
        distractor = DistractorSpec(noise["surface"], noise["mass"]) if noise else None
        paths = [(lexemes(text), weight) for text, weight in entry["queries"]]
        models[question] = ScriptedModel(paths, distractor)
    return models


class Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    models: dict[str, ScriptedModel] = {}

    def _reply(self, status: int, body: bytes) -> None:
        head = (
            f"HTTP/1.1 {status} {'OK' if status == 200 else 'Error'}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        self.wfile.write(head + body)

    def do_HEAD(self) -> None:  # noqa: N802
        self._reply(200, b"")

    def do_POST(self) -> None:  # noqa: N802
        try:
            request = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
            question = request["task"].split("\n", 1)[0]
            model = self.models[question]
            session = dataclasses.replace(
                model.start_session(request["task"]), prefix=lexemes(request["prefix"])
            )
            top = model.top_candidates(session, int(request["k"]))
        except (ValueError, KeyError, TypeError) as exc:
            self._reply(400, json.dumps({"error": str(exc)}).encode())
            return
        candidates = [
            {"text": c.surface, "logprob": math.log(c.prob)} for c in top if not c.is_eos
        ]
        eos = [math.log(c.prob) for c in top if c.is_eos]
        body = {"candidates": candidates, "eos_logprob": eos[0] if eos else None}
        self._reply(200, json.dumps(body).encode())

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        pass


def main(argv: list[str]) -> int:
    with open(argv[1]) as handle:
        Handler.models = build_models(json.load(handle))
    with socketserver.TCPServer(("127.0.0.1", 0), Handler) as server:
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        print(f"PORT {server.server_address[1]}", flush=True)
        sys.stdin.read()  # the parent closes stdin to stop the server
        server.shutdown()
        thread.join()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
