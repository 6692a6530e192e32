"""Stub generation endpoint for the HTTP workload.

A single-threaded asyncio HTTP/1.1 server.  It binds a loopback port itself
(no name lookup, so the event loop starts no executor thread) and prints the
port as the first line of its standard output.  Endpoints:

* ``POST /load``  body ``{"gamma": g, "instances": [{"query", "context",
  "gold", "evidence_spans"}, ...]}``: the instances to answer for, looked
  up by query.
* ``POST /solve`` body ``{"prompt": ...}`` rendered with hilite's ``qa``
  template: replies ``{"text": "<answer>...</answer>"}`` a fixed service
  time after the request was read.  The answer is the gold answer when at
  least 0.8 of the evidence bytes lie inside marker pairs, computed with
  :mod:`checks`, which imports nothing from hilite.
* ``GET /stats``: request, connection and violation counts.

A violation is a solve request whose markers are unbalanced, that holds
more than k = floor(gamma * tokens) marker pairs, or whose markers do not
strip back to the instance's context byte for byte.  A request with no
markers whose text is not the context (the pruned ablation) is counted as
destructive, not as a violation.  Unknown queries and prompts that do not
follow the template are violations too.

Usage: python3 stub_solver.py
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import time

import checks

# hilite's "qa" template around its two placeholders, copied so that the stub
# parses prompts without importing the program.
PROMPT_HEAD = (
    "You are a helpful, precise QA assistant.\n"
    "Follow the format EXACTLY:\n"
    "You MUST output ONLY the short answer phrase inside <answer>...</answer>.\n"
    "No explanation, no extra words.\n"
    "Some parts of the EVIDENCE are wrapped in <start_important> ... <end_important>.\n"
    "\n"
    "QUESTION:\n"
)
PROMPT_MIDDLE = "\n\nEVIDENCE:\n"
PROMPT_TAIL = "\n\nOUTPUT:\n"

# Fixed time from reading a solve request to sending its reply.
SERVICE_S = 0.010

VIOLATION_KINDS = (
    "malformed_prompt", "unknown_query", "unbalanced", "too_many_pairs",
    "not_round_trip",
)


class Stub:
    def __init__(self, service_s: float):
        self.service_s = service_s
        self.instances: dict[str, dict] = {}
        self.requests = 0
        self.connections = 0
        self.destructive = 0
        self.in_flight = 0
        self.max_in_flight = 0
        self.violations = dict.fromkeys(VIOLATION_KINDS, 0)

    def load(self, body: dict) -> dict:
        gamma = float(body["gamma"])
        for rec in body["instances"]:
            if rec["query"] in self.instances:
                raise ValueError(f"duplicate query for instance {rec['id']}")
            context = rec["context"]
            self.instances[rec["query"]] = {
                "context": context.encode("utf-8"),
                "gold": str(rec["gold"]),
                "spans": [tuple(s) for s in rec["evidence_spans"]],
                "k": checks.budget(gamma, context),
            }
        return {"loaded": len(self.instances)}

    def stats(self) -> dict:
        return {
            "requests": self.requests,
            "connections": self.connections,
            "destructive": self.destructive,
            "max_in_flight": self.max_in_flight,
            "violations": dict(self.violations),
            "violation_total": sum(self.violations.values()),
        }

    def answer(self, prompt: str) -> str:
        """Answer one prompt, counting any contract violation it shows."""
        if not (prompt.startswith(PROMPT_HEAD) and prompt.endswith(PROMPT_TAIL)):
            self.violations["malformed_prompt"] += 1
            return checks.DISTRACTOR
        body = prompt[len(PROMPT_HEAD):len(prompt) - len(PROMPT_TAIL)]
        query, sep, emphasized = body.partition(PROMPT_MIDDLE)
        inst = self.instances.get(query)
        if not sep or inst is None:
            self.violations["unknown_query" if sep else "malformed_prompt"] += 1
            return checks.DISTRACTOR
        data = emphasized.encode("utf-8")
        try:
            stripped, regions = checks.remove_markers(data)
        except checks.MarkerError:
            self.violations["unbalanced"] += 1
            return checks.DISTRACTOR
        if len(regions) > inst["k"]:
            self.violations["too_many_pairs"] += 1
        if stripped != inst["context"]:
            if regions:
                self.violations["not_round_trip"] += 1
            else:
                self.destructive += 1
            return checks.DISTRACTOR
        if checks.covered_fraction(regions, inst["spans"]) >= checks.COVERAGE_THRESHOLD:
            return inst["gold"]
        return checks.DISTRACTOR

    async def solve(self, body: dict) -> dict:
        deadline = time.monotonic() + self.service_s
        self.in_flight += 1
        self.max_in_flight = max(self.max_in_flight, self.in_flight)
        try:
            text = f"<answer>{self.answer(body['prompt'])}</answer>"
            await asyncio.sleep(max(0.0, deadline - time.monotonic()))
        finally:
            self.in_flight -= 1
        return {"text": text}

    async def handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        counted = False
        try:
            while True:
                try:
                    head = await reader.readuntil(b"\r\n\r\n")
                except (asyncio.IncompleteReadError, ConnectionError):
                    return
                lines = head.decode("latin-1").split("\r\n")
                method, path, _ = lines[0].split(" ", 2)
                headers = {}
                for line in lines[1:]:
                    name, _, value = line.partition(":")
                    headers[name.strip().lower()] = value.strip()
                length = int(headers.get("content-length", "0"))
                raw = await reader.readexactly(length) if length else b""
                status = "200 OK"
                if method == "POST" and path == "/solve":
                    self.requests += 1
                    if not counted:
                        self.connections += 1
                        counted = True
                    reply = await self.solve(json.loads(raw))
                elif method == "POST" and path == "/load":
                    try:
                        reply = self.load(json.loads(raw))
                    except (KeyError, TypeError, ValueError) as exc:
                        status, reply = "400 Bad Request", {"error": str(exc)}
                elif method == "GET" and path == "/stats":
                    reply = self.stats()
                else:
                    status, reply = "404 Not Found", {"error": path}
                payload = json.dumps(reply).encode("utf-8")
                writer.write(
                    f"HTTP/1.1 {status}\r\nContent-Type: application/json\r\n"
                    f"Content-Length: {len(payload)}\r\n\r\n".encode("latin-1") + payload
                )
                await writer.drain()
                if headers.get("connection", "").lower() == "close":
                    return
        finally:
            writer.close()


async def serve() -> None:
    stub = Stub(SERVICE_S)
    sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    sock.bind(("127.0.0.1", 0))
    sock.listen(128)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(sig, stop.set)
    server = await asyncio.start_server(stub.handle, sock=sock)
    print(sock.getsockname()[1], flush=True)
    async with server:
        await stop.wait()


def main() -> None:
    asyncio.run(serve())


if __name__ == "__main__":
    main()
