"""Theorem 1, end to end (paper, Section 5.5).

Reasoning backwards from a claimed ``t``-time ID-algorithm for maximal FM on
graphs of maximum degree ``Delta``:

* **OI <= ID** — Corollary 9 turns it into an OI-algorithm correct on
  canonically ordered covers of loopy PO-graphs (:class:`OIFromID`);
* **PO <= OI** — the Section 5.3 simulation turns that into a PO-algorithm
  on loopy PO-graphs (:class:`POFromOI`);
* **EC <= PO** — the Section 5.1 doubling turns that into an EC-algorithm
  on loopy EC-graphs of maximum degree ``Delta / 2`` (:class:`ECFromPO`);
* **Section 4** — the unfold-and-mix adversary then certifies run-time
  ``> Delta/2 - 2`` for the EC-algorithm, hence ``Omega(Delta)`` for the
  original.

:func:`refute` runs the pipeline against a *concrete* algorithm and returns
a machine-checked refutation: either the algorithm's outputs are not maximal
FMs somewhere (with a certificate), or its outputs at two nodes with
isomorphic radius-``t`` views differ (with the witnessing graph pair) —
contradicting the claimed run-time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence

from ..local.algorithm import DistributedAlgorithm, ECWeightAlgorithm, POWeightAlgorithm
from ..obs.tracer import current_tracer
from .adversary import run_adversary
from .sim_ec_po import ECFromPO
from .sim_oi_id import OIFromID
from .sim_po_oi import OIAlgorithm, POFromOI
from .witness import AlgorithmFailure, LowerBoundWitness, StepWitness

__all__ = [
    "Refutation",
    "chain_from_name",
    "chain_id_to_ec",
    "chain_oi_to_ec",
    "chain_po_to_ec",
    "refute",
]


@dataclass
class Refutation:
    """Outcome of testing a claimed fast maximal-FM algorithm.

    ``kind`` is ``"incorrect-output"`` when the algorithm failed to produce a
    maximal FM on some constructed graph (``failure`` holds the certificate),
    or ``"locality-violation"`` when the algorithm is correct but its outputs
    distinguish isomorphic radius-``t`` views (``step`` holds the witness
    pair), or ``"consistent"`` when the claimed run-time exceeds what the
    construction can refute (``Delta - 2``).
    """

    algorithm: str
    claimed_rounds: int
    delta: int
    kind: str
    witness: Optional[LowerBoundWitness] = None
    step: Optional[StepWitness] = None
    failure: Optional[AlgorithmFailure] = None

    def summary(self) -> str:
        """One-line account of the refutation."""
        if self.kind == "incorrect-output":
            return (
                f"{self.algorithm} claimed {self.claimed_rounds} rounds but is not "
                f"a correct maximal-FM algorithm: {self.failure}"
            )
        if self.kind == "locality-violation":
            assert self.step is not None
            return (
                f"{self.algorithm} claimed {self.claimed_rounds} rounds but its "
                f"outputs differ on isomorphic radius-{self.step.index} views "
                f"(weights {self.step.weight_g} vs {self.step.weight_h} on loop "
                f"colour {self.step.color!r})"
            )
        return (
            f"{self.algorithm}: claim of {self.claimed_rounds} rounds is beyond the "
            f"construction's reach on degree-{self.delta} graphs (> {self.delta - 2})"
        )


def chain_po_to_ec(po_algorithm: POWeightAlgorithm) -> ECWeightAlgorithm:
    """EC <= PO: one link of the Section 5.5 chain."""
    return ECFromPO(po_algorithm)


def chain_oi_to_ec(oi_algorithm: OIAlgorithm) -> ECWeightAlgorithm:
    """EC <= PO <= OI: two links of the chain."""
    return ECFromPO(POFromOI(oi_algorithm))


def chain_id_to_ec(
    id_algorithm: DistributedAlgorithm,
    t: int,
    id_pool: Sequence[int],
    globals_factory: Optional[Callable[..., Dict[str, Any]]] = None,
) -> ECWeightAlgorithm:
    """EC <= PO <= OI <= ID: the full chain of Section 5.5.

    ``id_pool`` plays the role of the sparse identifier set ``J`` from
    Lemma 7 (obtain it from :func:`repro.core.sim_oi_id.
    extract_order_invariant_ids` + :func:`repro.local.identifiers.
    sparse_subset` for genuinely identifier-sensitive algorithms, or pass
    any large pool for algorithms that are order-invariant by construction).
    """
    oi = OIFromID(id_algorithm, t, id_pool, globals_factory=globals_factory)
    return ECFromPO(POFromOI(oi))


def chain_from_name(
    chain: str,
    *,
    t: int,
    base: Optional[DistributedAlgorithm] = None,
    id_pool=None,
) -> ECWeightAlgorithm:
    """Build the chain named ``chain`` in front of a base machine.

    The shared vocabulary of the CLI (``--chain``), :func:`repro.api.refute`
    and the sweep engine: ``"ec"`` runs the machine directly, ``"po"`` /
    ``"oi"`` / ``"id"`` stack one, two or all three Section 5 simulations in
    front of it.  ``base`` defaults to the proposal dynamics in the model
    the chain starts from (the one shipped machine with EC, PO and ID
    presentations); ``t`` bounds the OI/ID simulations' view radius and
    ``id_pool`` overrides Lemma 7's identifier pool for the full chain.
    """
    from ..local.algorithm import SimulatedECWeights, SimulatedPOWeights
    from ..matching.proposal import ProposalFM
    from .sim_po_oi import SymmetricOIAdapter

    if chain == "ec":
        return SimulatedECWeights(base if base is not None else ProposalFM("EC"))
    if chain == "po":
        return chain_po_to_ec(
            SimulatedPOWeights(base if base is not None else ProposalFM("PO"))
        )
    if chain == "oi":
        return chain_oi_to_ec(
            SymmetricOIAdapter(base if base is not None else ProposalFM("PO"), t=t)
        )
    if chain == "id":
        if id_pool is None:
            id_pool = lambda n: [1000 + 7 * i for i in range(n)]  # noqa: E731
        return chain_id_to_ec(
            base if base is not None else ProposalFM("ID"), t=t, id_pool=id_pool
        )
    raise ValueError(f"unknown chain {chain!r}; choose from ('ec', 'po', 'oi', 'id')")


def refute(
    algorithm: ECWeightAlgorithm,
    claimed_rounds: int,
    delta: int,
    deep_verify: bool = False,
    tracer=None,
) -> Refutation:
    """Test the claim "``algorithm`` computes maximal FM in ``claimed_rounds``
    rounds on EC-graphs of maximum degree ``delta``".

    Runs the Section 4 adversary.  If the algorithm's output is ever not a
    maximal FM, returns an ``incorrect-output`` refutation with the
    certificate.  Otherwise the adversary reaches depth ``delta - 2``; if
    ``claimed_rounds <= delta - 2`` the step witness at index
    ``claimed_rounds`` — isomorphic radius-``claimed_rounds`` views with
    different outputs — refutes the run-time claim.

    ``tracer`` wraps the whole pipeline in one ``theorem.refute`` span; the
    adversary and any ``sim.*`` chain layers the algorithm is built from
    nest inside it, making the per-layer overhead of EC ⇐ PO ⇐ OI ⇐ ID
    directly measurable.  A negative ``claimed_rounds`` claims nothing and
    raises ``ValueError`` before the adversary runs.
    """
    if claimed_rounds < 0:
        raise ValueError(f"claimed_rounds must be >= 0, got {claimed_rounds}")
    tracer = tracer if tracer is not None else current_tracer()
    with tracer.span(
        "theorem.refute",
        algorithm=algorithm.name,
        claimed_rounds=claimed_rounds,
        delta=delta,
    ) as span:
        try:
            witness = run_adversary(algorithm, delta, deep_verify=deep_verify, tracer=tracer)
        except AlgorithmFailure as failure:
            span.set(kind="incorrect-output")
            return Refutation(
                algorithm=algorithm.name,
                claimed_rounds=claimed_rounds,
                delta=delta,
                kind="incorrect-output",
                failure=failure,
            )
        if claimed_rounds <= witness.achieved_depth:
            step = next(s for s in witness.steps if s.index == claimed_rounds)
            span.set(kind="locality-violation")
            return Refutation(
                algorithm=algorithm.name,
                claimed_rounds=claimed_rounds,
                delta=delta,
                kind="locality-violation",
                witness=witness,
                step=step,
            )
        span.set(kind="consistent")
        return Refutation(
            algorithm=algorithm.name,
            claimed_rounds=claimed_rounds,
            delta=delta,
            kind="consistent",
            witness=witness,
        )
