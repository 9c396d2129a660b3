"""RNG-provenance pass: Generators flow by argument from the seed.

Replayability (DESIGN.md §1) requires that every random draw inside a
registered runner's call tree comes from an ``np.random.Generator``
*born from the runner's seed parameter and threaded through function
arguments*.  Two ways to break that contract survive the file-local
``seed-discipline`` rule (which only bans ``np.random.*`` module-level
draws):

* drawing from a **module-global Generator** (``_RNG =
  default_rng(...)`` at import time) — the global's state is shared
  and order-dependent across runners, so results depend on what ran
  before;
* drawing from an **unseeded Generator** (``default_rng()`` with no
  arguments) — fresh OS entropy on every call.

The extractor types RNG values per function: parameters named
``rng``/``gen``/``generator``/``random_state`` (or annotated
``Generator``), locals assigned from ``default_rng(...)`` (classified
by whether a parameter feeds the constructor), and module-level
Generator bindings; ``g = rng if isinstance(rng, Generator) else
default_rng(...)`` takes the worse of its two branches.  This pass
walks the call graph from every registered runner (timing benches
included — a hidden global draw is never acceptable) and flags draws
whose provenance is ``global``, ``global-arg`` (a module-global
Generator passed as an argument), ``unseeded``, or ``unseeded-arg``
(an unseeded Generator passed as an argument: the callee's parameter
looks seeded, so the draw itself cannot tell).
"""

from __future__ import annotations

from typing import Iterable

from ..callgraph import CallGraph
from ..dataflow import Reachability
from ..engine import Finding
from ..index import ModuleIndex

__all__ = ["run"]

_BAD_KINDS = {
    "global": ("draw on module-global Generator '{name}'",
               "thread a Generator born from the seed parameter through "
               "function arguments instead of sharing import-time state"),
    "global-arg": ("module-global Generator '{name}' passed as an "
                   "argument",
                   "construct the Generator from the seed parameter at "
                   "the entrypoint and pass it down"),
    "unseeded": ("draw on Generator '{name}' built by default_rng() "
                 "without a seed",
                 "derive it from the runner's seed parameter so results "
                 "are replayable"),
    "unseeded-arg": ("Generator '{name}' built by default_rng() without "
                     "a seed passed as an argument",
                     "derive it from the runner's seed parameter so "
                     "results are replayable"),
}


def run(index: ModuleIndex, graph: CallGraph) -> Iterable[Finding]:
    roots = {node: f"runner '{name}'"
             for node, name, _tags in graph.runner_entrypoints()}
    if not roots:
        return
    reach = Reachability(graph.edges, roots)
    seen: set[tuple] = set()
    for node in reach:
        owner = graph.owner[node]
        qual = node.partition(":")[2]
        for line, kind, name in owner.rng_draws.get(qual, ()):
            if kind not in _BAD_KINDS:
                continue
            key = (owner.path, int(line), kind, name)
            if key in seen:
                continue
            seen.add(key)
            what, fix = _BAD_KINDS[kind]
            yield Finding(
                path=owner.path, line=int(line), rule="rng-provenance",
                message=f"{what.format(name=name)} is reachable from "
                        f"{reach.label(node)}; {fix} (chain: "
                        f"{reach.chain_text(node)})")
