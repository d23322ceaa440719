"""Per-layer spans recorded from outside the package.

`Tracer.install` replaces each listed function (a module attribute, or a
method on its class) with a wrapper that records a span: name, start, end
and parent span.  Self time is a span's duration minus the time covered by
its child spans; since everything runs on one thread, children nest and
never overlap, so that time is the sum of the children's durations.
Aggregates are kept on the fly; the span records themselves are kept up to
`MAX_SPANS`, because the exact oracles make hundreds of thousands of calls.
"""
from __future__ import annotations

import functools
import importlib
from time import perf_counter

# (module, attribute path, also report total time)
FUNCTIONS = [
    ("cli", "cmd_construct", True),
    ("cli", "cmd_verify", True),
    ("cli", "cmd_eta", True),
    ("embeddings", "trace_faces", False),
    ("embeddings", "MultiEmbedding.validate", False),
    ("embeddings", "euler_genus", False),
    ("embeddings", "find_facial_cycle", False),
    ("embeddings", "multiply_edges", False),
    ("embeddings", "split_at_faces", False),
    ("constructions", "with_apex", True),
    ("constructions", "construct_vortex_graph", True),
    ("constructions", "grid_model", False),
    ("constructions", "verify_certificate", True),
    ("vortex", "validate_circular", False),
    ("vortex", "vortex_width", False),
    ("vortex", "validate_almost_embeddable", True),
    ("vortex", "flatten", False),
    ("minors", "verify_model", False),
    ("minors", "compose_models", False),
    ("minors", "hadwiger_model", True),
    ("minors", "max_clique", False),
    ("minors", "treewidth_oracle", False),
    ("graphs", "from_edges", False),
    ("graphs", "lex_product", False),
    ("graphs", "union_by_labels", False),
    ("graphs", "is_connected_subset", False),
    ("serialize", "certificate_to_json", False),
    ("serialize", "dumps", False),
    ("serialize", "model_to_json", False),
    ("serialize", "certificate_from_json", True),
    ("serialize", "structure_from_json", False),
    ("serialize", "graph_from_json", False),
    ("bounds", "sandwich_check", False),
    ("bounds", "lower_guarantee", False),
]

# Invocations whose wall time the non-cli spans must cover, and the share
# of it they should cover.
COVERED_COMMANDS = ("cli.cmd_construct", "cli.cmd_verify", "cli.cmd_eta")
COVER_TARGET = 0.9
MAX_SPANS = 100_000


def span_name(module: str, path: str) -> str:
    return f"{module}.{path}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self.dropped = 0
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.coverage: list[tuple[str, float, float]] = []  # (name, wall, covered)
        self._stack: list[list] = []  # [id, name, start, child time]
        self._next_id = 0
        self._restore: list = []

    def _wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            frame = [span_id, name, perf_counter(), 0.0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self._close(frame, end)

        return traced

    def _close(self, frame, end):
        span_id, name, start, child = frame
        wall = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += wall
        self.calls[name] = self.calls.get(name, 0) + 1
        self.self_s[name] = self.self_s.get(name, 0.0) + wall - child
        # a name already open further up would count this span twice
        if not any(f[1] == name for f in self._stack):
            self.total_s[name] = self.total_s.get(name, 0.0) + wall
        if name in COVERED_COMMANDS:
            self.coverage.append((name, wall, child))
        if len(self.spans) < MAX_SPANS:
            self.spans.append((span_id, name, start, end, parent[0] if parent else None))
        else:
            self.dropped += 1

    def install(self):
        for module, path, _ in FUNCTIONS:
            mod = importlib.import_module(f"hadwiger.{module}")
            owner = mod
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part)
            original = getattr(owner, parts[-1])
            setattr(owner, parts[-1], self._wrap(span_name(module, path), original))
            self._restore.append((owner, parts[-1], original))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def cover_shares(self) -> list[float]:
        """Share of each command invocation's wall time covered by child spans."""
        return [cov / wall for _, wall, cov in self.coverage]
