"""Generation clients with a deterministic offline fallback.

The remote client speaks an OpenAI-compatible chat protocol; its offline
twin is a pure function of its input, so an offline run is bit-for-bit
reproducible. Selection happens in make_clients: an explicit request, the
SEMRAG_OFFLINE=1 environment variable, or no SEMRAG_LLM_ENDPOINT all pick
the offline client. Retrieval embeds text itself (vector_align.embed_text)
and needs no client.

The offline generator understands the evidence prompt layout that
query_engine.build_prompt writes: it answers by echoing the first evidence
statement's object with its clause citation, which keeps end-to-end
answering testable without a model. The offline summarizer is extractive:
the first sentence of the first line that has sentence punctuation, under
a whitespace token budget.

A TokenLedger records token counts and wall time per generation call of
the clients given one. Clients made without a ledger record nothing, so
answering questions holds no memory per call.
"""

from __future__ import annotations

import csv
import logging
import os
import re
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Protocol

import requests

from .errors import HttpError, MissingEndpoint

logger = logging.getLogger(__name__)

ENV_LLM_ENDPOINT = "SEMRAG_LLM_ENDPOINT"
ENV_API_KEY_VAR = "SEMRAG_API_KEY_VAR"
ENV_OFFLINE = "SEMRAG_OFFLINE"
DEFAULT_API_KEY_VAR = "SEMRAG_API_KEY"
HTTP_TIMEOUT_SECONDS = 30.0


def count_tokens(text: str) -> int:
    """Whitespace token count, the unit every budget in this package uses."""
    return len(text.split())


# --- ledger -----------------------------------------------------------------

@dataclass
class LedgerEntry:
    op: str
    tokens_in: int
    tokens_out: int
    wall_ms: float


class TokenLedger:
    """Accumulates per-call token usage."""

    def __init__(self) -> None:
        self.entries: list[LedgerEntry] = []

    def record(self, op: str, tokens_in: int, tokens_out: int, wall_ms: float) -> None:
        self.entries.append(LedgerEntry(op, tokens_in, tokens_out, wall_ms))

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["op", "tokens_in", "tokens_out", "wall_ms"])
            for e in self.entries:
                writer.writerow([e.op, e.tokens_in, e.tokens_out, f"{e.wall_ms:.3f}"])


# --- protocols --------------------------------------------------------------

class LlmClient(Protocol):
    def generate(self, prompt: str, max_tokens: int = 256) -> str: ...


# --- offline clients --------------------------------------------------------

_EVIDENCE_LINE = re.compile(r"^\[\d+\]\s+(.*)\s+\(clause\s+([^,)]+),[^)]*\)$")

NO_EVIDENCE_ANSWER = "no supporting evidence found"

# The relation phrases build_prompt can emit; the offline generator splits
# an evidence line at the first of these to recover the statement's object.
RELATION_MARKERS = (
    " has value under ",
    " is computed as ",
    " summarizes ",
    " states ",
)


def _statement_object(statement: str) -> str:
    """Text after the earliest relation phrase, or the whole statement."""
    earliest = None
    for marker in RELATION_MARKERS:
        pos = statement.find(marker)
        if pos != -1 and (earliest is None or pos < earliest[0]):
            earliest = (pos, marker)
    if earliest is None:
        return statement
    pos, marker = earliest
    return statement[pos + len(marker):]


class OfflineLlmClient:
    """Template-aware generator: answers with the top evidence line's object
    and its clause citation."""

    model = "offline-extractive"

    def __init__(self, ledger: Optional[TokenLedger] = None):
        self.ledger = ledger

    def generate(self, prompt: str, max_tokens: int = 256) -> str:
        start = time.perf_counter()
        answer = NO_EVIDENCE_ANSWER
        for line in prompt.splitlines():
            matched = _EVIDENCE_LINE.match(line.strip())
            if matched:
                answer = (
                    f"{_statement_object(matched.group(1))} "
                    f"(clause {matched.group(2)})"
                )
                break
        tokens = count_tokens(answer)
        if tokens > max_tokens:
            answer = " ".join(answer.split()[:max_tokens])
        if self.ledger is not None:
            self.ledger.record(
                "generate",
                count_tokens(prompt),
                count_tokens(answer),
                (time.perf_counter() - start) * 1000.0,
            )
        return answer


@dataclass
class Summary:
    text: str
    tokens_used: int


_SENTENCE_END = re.compile(r"[.!?]")


def offline_summarize(text: str, budget_tokens: int) -> Summary:
    """First sentence of the first line with sentence punctuation.

    The input is truncated to the token budget first; tokens_used counts
    the tokens actually read, not the summary length.
    """
    tokens = text.split()
    if len(tokens) > budget_tokens:
        text = " ".join(tokens[:budget_tokens])
    used = min(len(tokens), budget_tokens)
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return Summary("", 0)
    for line in lines:
        matched = _SENTENCE_END.search(line)
        if matched:
            return Summary(line[: matched.end()].strip(), used)
    return Summary(lines[0].strip(), used)


def summarize_with(
    client: Optional[LlmClient], text: str, budget_tokens: int
) -> Summary:
    """Summarize through a client when given one, extractively otherwise."""
    if client is None or isinstance(client, OfflineLlmClient):
        return offline_summarize(text, budget_tokens)
    tokens = text.split()
    if len(tokens) > budget_tokens:
        text = " ".join(tokens[:budget_tokens])
    prompt = f"Summarize the following in one sentence.\n\n{text}"
    return Summary(client.generate(prompt, max_tokens=64), min(len(tokens), budget_tokens))


# --- remote clients ---------------------------------------------------------

def _api_key() -> Optional[str]:
    var = os.environ.get(ENV_API_KEY_VAR, DEFAULT_API_KEY_VAR)
    return os.environ.get(var)


def _post(url: str, payload: dict) -> dict:
    headers = {"Content-Type": "application/json"}
    key = _api_key()
    if key:
        headers["Authorization"] = f"Bearer {key}"
    try:
        response = requests.post(
            url, json=payload, headers=headers, timeout=HTTP_TIMEOUT_SECONDS
        )
    except requests.Timeout as exc:
        raise TimeoutError(f"no response from {url} within {HTTP_TIMEOUT_SECONDS}s") from exc
    except requests.RequestException as exc:
        raise HttpError(None, f"request to {url} failed: {exc}") from exc
    if response.status_code != 200:
        raise HttpError(response.status_code, response.text)
    try:
        return response.json()
    except requests.JSONDecodeError as exc:
        raise HttpError(response.status_code, f"undecodable body: {response.text}") from exc


class HttpLlmClient:
    def __init__(
        self,
        endpoint: str,
        model: str = "chat",
        ledger: Optional[TokenLedger] = None,
    ):
        self.endpoint = endpoint.rstrip("/")
        self.model = model
        self.ledger = ledger

    def generate(self, prompt: str, max_tokens: int = 256) -> str:
        start = time.perf_counter()
        body = _post(
            f"{self.endpoint}/v1/chat/completions",
            {
                "model": self.model,
                "messages": [{"role": "user", "content": prompt}],
                "max_tokens": max_tokens,
            },
        )
        try:
            text = body["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise HttpError(200, f"no completion in response: {body!r}") from exc
        if self.ledger is not None:
            self.ledger.record(
                "generate",
                count_tokens(prompt),
                count_tokens(text),
                (time.perf_counter() - start) * 1000.0,
            )
        return text


# --- selection --------------------------------------------------------------

@dataclass
class Clients:
    llm: LlmClient
    ledger: Optional[TokenLedger] = None


def make_clients(
    offline: Optional[bool] = None, ledger: Optional[TokenLedger] = None
) -> Clients:
    """Pick the remote client when SEMRAG_LLM_ENDPOINT is set, offline otherwise.

    SEMRAG_OFFLINE=1 forces the offline client regardless of the endpoint;
    an explicit `offline` argument overrides everything. Asking for the
    remote client with no endpoint set raises MissingEndpoint. The client
    records its generation calls in `ledger` when one is given.
    """
    llm_endpoint = os.environ.get(ENV_LLM_ENDPOINT)
    if offline is None:
        offline = os.environ.get(ENV_OFFLINE) == "1" or not llm_endpoint
    if offline:
        return Clients(llm=OfflineLlmClient(ledger=ledger), ledger=ledger)
    if not llm_endpoint:
        raise MissingEndpoint(ENV_LLM_ENDPOINT)
    return Clients(llm=HttpLlmClient(llm_endpoint, ledger=ledger), ledger=ledger)
