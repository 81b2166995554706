"""repro — executable reproduction of *Linear-in-Delta Lower Bounds in the
LOCAL Model* (Goos, Hirvonen, Suomela; PODC 2014 / arXiv:1304.1007).

The package turns the paper's lower-bound proof into running code:

* :mod:`repro.graphs` — edge-coloured multigraphs with loops, PO digraphs,
  lifts, universal covers, factor graphs, neighbourhoods (Section 3);
* :mod:`repro.local` — a synchronous LOCAL-model simulator for the EC, PO
  and ID models (Section 1.4);
* :mod:`repro.matching` — fractional matchings, verifiers, LP baselines and
  the ``O(Delta)``-round upper-bound algorithms (Sections 1.1-1.2);
* :mod:`repro.coloring` — Cole-Vishkin, Linial and forest-decomposition
  substrates for the classical baselines;
* :mod:`repro.core` — the unfold-and-mix adversary (Section 4), the
  EC <= PO <= OI <= ID simulation chain (Section 5), the homogeneous tree
  order (Appendix A) and derandomisation (Appendix B);
* :mod:`repro.lint` — the model-contract static analyzer (locality,
  determinism, exact arithmetic, frozen views), paired with the runtime
  locality sanitizer in :mod:`repro.local.sanitize`;
* :mod:`repro.engine` — the batched, process-parallel experiment engine
  (sharded sweeps, canonical-form caching, resumable result stores);
* :mod:`repro.api` — the stable keyword-first facade (``run`` / ``refute``
  / ``sweep``) new code should import.

Quickstart::

    from repro.graphs.families import caterpillar
    from repro.matching import greedy_color_algorithm, fm_from_node_outputs
    from repro.core import run_adversary

    g = caterpillar(spine=4, legs=3)
    alg = greedy_color_algorithm()
    fm = fm_from_node_outputs(g, alg.run_on(g))
    assert fm.is_maximal()

    witness = run_adversary(alg, delta=5)   # Theorem 1, executably
    assert witness.achieved_depth == 3      # = Delta - 2
"""

from . import analysis, api, coloring, core, engine, graphs, lint, local, matching, problems
from .api import Refutation, RunResult, SweepReport, refute, run, sweep

__version__ = "1.0.0"

__all__ = [
    # the stable facade (repro.api), re-exported at the top level
    "Refutation",
    "RunResult",
    "SweepReport",
    "refute",
    "run",
    "sweep",
    # subsystem modules
    "analysis",
    "api",
    "coloring",
    "core",
    "engine",
    "graphs",
    "lint",
    "local",
    "matching",
    "problems",
    "__version__",
]
