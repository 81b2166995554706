"""Content-addressed memoization of canonical rooted forms.

The hot path of every adversary run is canonicalising witness balls
(:func:`repro.graphs.soa.canonical_form_fast`): each inductive
step canonicalises two rooted trees-with-loops that double in size as the
ladder climbs.  Many of those balls recur — the two radius-0 balls of every
base case are the same labelled single-node graph, the G- and H-side balls
of a step frequently coincide as labelled graphs, and a resumed or repeated
sweep re-canonicalises everything it already saw.

:class:`CanonicalFormCache` memoizes the *top-level* canonical form keyed by
:func:`graph_digest` — the rooted digest of the graph's frozen
:class:`~repro.graphs.kernel.GraphKernel`, maintained incrementally by the
builders so a lookup no longer re-walks the graph.  The digest is a pure
function of the labelled rooted graph (node labels, ``(u, v, colour)`` edge
multiset, root), so a hit can only ever return the form a fresh computation
would have produced; edge ids (which vary across copies) are deliberately
excluded.

Lookups fall through three tiers, process memory → tenant disk → shared
disk:

* one process-wide memory tier, the memo :data:`repro.graphs.memo.FORMS`
  (least-recently-used eviction), keyed by *(read scope, digest)*.  The
  read scope is the shared directory when a shared tier is configured,
  else the cache's own directory, else the cache instance itself.  A
  memory hit is an entry some cache with the same scope computed or
  loaded, so tenants without a shared tier never read each other's forms.
  A form is a pure function of its digest, so an entry never goes stale
  and lives as long as the process;
* an optional on-disk JSON store (one tagged file per key) shared between
  worker processes and across sweep invocations, optionally namespaced per
  tenant and backed by a read-through shared directory.  The directory
  defaults to ``$REPRO_CACHE_DIR`` when set.  Corrupt or alien files are
  treated as misses: the form is recomputed and the entry rewritten.

Hits and misses are counted both in :class:`CacheStats` and on the ambient
:mod:`repro.obs` tracer (``engine.canonical_cache`` counter, ``outcome``
label), so a merged sweep trace reports the realised hit-rate.
"""

from __future__ import annotations

import itertools
import json
import os
import re
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Any, Hashable, Optional, Tuple

from ..graphs.kernel import GraphKernel
from ..graphs.memo import FORMS
from ..graphs.multigraph import ECGraph
from ..graphs.serialize import decode_label, encode_label
from ..graphs.soa import canonical_form_fast, plan_hit_count
from ..obs.tracer import current_tracer
from .faults import active_injector

Node = Hashable

__all__ = [
    "CACHE_FORMAT",
    "ENV_CACHE_DIR",
    "CacheStats",
    "CanonicalFormCache",
    "graph_digest",
    "encode_form",
    "decode_form",
    "validate_tenant",
]

CACHE_FORMAT = "repro-canonical-cache-v1"
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: tenant names become directory components; keep them boring on purpose
_TENANT_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")


def validate_tenant(name: str) -> str:
    """Return ``name`` if it is a safe tenant identifier, else raise.

    Tenant names become cache directory components, so the alphabet is a
    conservative filename subset (no separators, no leading dot).
    """
    if not _TENANT_RE.match(name):
        raise ValueError(
            f"invalid cache tenant {name!r}: want {_TENANT_RE.pattern}"
        )
    return name

#: process-local id sequence making concurrent temp-file names unique even
#: when a watchdog-abandoned thread and its retry write the same key
_TMP_IDS = itertools.count()

#: read scopes of memory-only caches: each instance sees only its own entries
_SCOPE_IDS = itertools.count()


def graph_digest(g: ECGraph, root: Optional[Node] = None) -> str:
    """Stable content digest of a (rooted) EC-graph.

    Delegates to the graph's frozen :class:`~repro.graphs.kernel.GraphKernel`
    snapshot, whose digest is maintained *incrementally* as edges are added —
    after the first freeze each lookup is O(1) instead of re-walking the
    whole graph.  Two graphs share a digest iff they have identical labelled
    structure (node labels, ``(u, v, colour)`` edge multiset, root) — exactly
    the condition under which their canonical rooted forms agree.  Edge ids
    are excluded: they differ between otherwise identical copies.
    """
    kernel = g if isinstance(g, GraphKernel) else g.kernel
    return kernel.rooted_digest(root)


# Canonical forms are nested tuples of int/str leaves — the exact shape the
# graph serializer's tagged label codec handles, so the two layers share one
# implementation (repro.graphs.serialize).
encode_form = encode_label
decode_form = decode_label


@dataclass
class CacheStats:
    """Counters describing one cache's life so far.

    ``plan_hits`` counts *interned-plan reuse*: misses of the digest-keyed
    tiers whose form was nonetheless answered by the SoA canonicaliser's
    shape-plan cache (:mod:`repro.graphs.soa`) instead of a fresh tuple
    construction.  It is reported separately from ``hits``/``disk_hits``
    and never enters ``hit_rate`` — a plan hit is a cheap *compute*, not a
    cache lookup that succeeded.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_corrupt: int = 0
    disk_errors: int = 0
    plan_hits: int = 0
    shared_hits: int = 0
    disk_evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        payload = {f.name: getattr(self, f.name) for f in fields(self)}
        payload["lookups"] = self.lookups
        payload["hit_rate"] = self.hit_rate
        return payload

    @classmethod
    def merged(cls, dicts) -> "CacheStats":
        """Aggregate several ``as_dict`` payloads (one per worker).

        The merge iterates the dataclass's *declared* fields rather than a
        hand-maintained key list: adding a counter can no longer silently
        drop it from merged totals (``plan_hits`` once was).  Counters a
        payload lacks — snapshots written by older workers — default to 0,
        so the merge is total-preserving and associative: merging partial
        merges equals merging the underlying payloads in one pass.
        """
        total = cls()
        for d in dicts:
            if isinstance(d, CacheStats):
                d = d.as_dict()
            for f in fields(cls):
                setattr(total, f.name, getattr(total, f.name) + d.get(f.name, 0))
        return total


@dataclass
class CanonicalFormCache:
    """Memo table for canonical rooted forms: process memory, then disk.

    The memory tier is process-wide (:data:`repro.graphs.memo.FORMS`);
    this cache reads and writes it under its *read scope* — the shared
    directory when one is configured, else its own (tenant) directory,
    else the instance itself.  A memory hit is an entry some cache with
    the same scope computed or loaded: tenants without a shared tier stay
    isolated, and a memory-only cache sees nothing but its own entries.
    ``stats.evictions`` counts the entries the tier evicted to make room
    for this cache's writes.

    Parameters
    ----------
    directory:
        On-disk store location; ``None`` consults ``$REPRO_CACHE_DIR`` and
        disables the disk tier when that is unset too.
    use_disk:
        Set to ``False`` to force a memory-only cache even when a directory
        (or ``$REPRO_CACHE_DIR``) is available.
    tenant:
        Namespaces the disk tier: with a tenant name the entries live under
        ``directory/tenants/<tenant>/`` so co-hosted clients cannot read or
        evict each other's private entries.  Names are restricted to a safe
        directory-component alphabet.
    shared_dir:
        Optional read-through shared tier.  Lookups that miss the tenant
        tier consult it (counted as ``shared_hits``) and promote the entry
        into the tenant tier; every write also populates it, so concurrent
        tenants dedupe canonicalisation globally while eviction pressure
        stays per-tenant.
    disk_budget:
        Per-directory byte budget for the disk tiers.  After every write
        the oldest-used entries (disk hits refresh recency) are evicted
        until the directory fits, counted in ``disk_evictions``.  ``None``
        keeps the historical never-evict behaviour.
    """

    directory: Optional[Path] = None
    use_disk: bool = True
    stats: CacheStats = field(default_factory=CacheStats)
    tenant: Optional[str] = None
    shared_dir: Optional[Path] = None
    disk_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.directory is None:
            env = os.environ.get(ENV_CACHE_DIR)
            self.directory = Path(env) if env else None
        else:
            self.directory = Path(self.directory)
        if self.tenant is not None:
            validate_tenant(self.tenant)
        if self.disk_budget is not None and self.disk_budget <= 0:
            raise ValueError(f"disk_budget must be positive, got {self.disk_budget}")
        if self.directory and self.tenant:
            self.directory = self.directory / "tenants" / self.tenant
        self.shared_dir = Path(self.shared_dir) if self.shared_dir else None
        if not self.use_disk:
            self.directory = None
            self.shared_dir = None
        if self.directory:
            self.directory.mkdir(parents=True, exist_ok=True)
        if self.shared_dir:
            self.shared_dir.mkdir(parents=True, exist_ok=True)
        # the memory tier's read scope: the widest disk tier this cache reads
        if self.shared_dir:
            self._scope: Hashable = str(self.shared_dir)
        elif self.directory:
            self._scope = str(self.directory)
        else:
            self._scope = next(_SCOPE_IDS)

    # ------------------------------------------------------------------
    # the public entry point installed into repro.graphs.isomorphism
    # ------------------------------------------------------------------
    def canonical_form(self, g: ECGraph, root: Node) -> Tuple:
        """The canonical rooted form of ``(g, root)``, memoized.

        A miss computes the form with
        :func:`repro.graphs.soa.canonical_form_fast`.
        """
        key = graph_digest(g, root)
        hit, form = self._get(key)
        metrics = current_tracer().metrics
        if hit:
            self.stats.hits += 1
            metrics.counter("engine.canonical_cache", outcome="hit").inc()
            return form
        self.stats.misses += 1
        metrics.counter("engine.canonical_cache", outcome="miss").inc()
        # when the SoA canonicaliser's shape-plan cache answers the root
        # shape, credit the reuse separately from the digest-keyed tiers
        before_plan = plan_hit_count()
        form = canonical_form_fast(g, root)
        gained = plan_hit_count() - before_plan
        if gained:
            self.stats.plan_hits += gained
            metrics.counter("engine.canonical_cache", outcome="plan_hit").inc(gained)
        self._put(key, form)
        return form

    # ------------------------------------------------------------------
    # tiers
    # ------------------------------------------------------------------
    def _get(self, key: str) -> Tuple[bool, Any]:
        form = FORMS.get((self._scope, key))
        if form is not None:
            return True, form
        form = self._disk_get(self.directory, key)
        if form is not None:
            self.stats.disk_hits += 1
            self._remember(key, form)
            return True, form
        if self.shared_dir is not None:
            form = self._disk_get(self.shared_dir, key)
            if form is not None:
                # read-through: a hit on the shared tier is promoted into
                # the tenant tier (and memory) so this tenant's next
                # process answers locally
                self.stats.shared_hits += 1
                current_tracer().metrics.counter(
                    "engine.canonical_cache", outcome="shared_hit"
                ).inc()
                self._remember(key, form)
                self._disk_put(self.directory, key, form)
                return True, form
        return False, None

    def _put(self, key: str, form: Any) -> None:
        self._remember(key, form)
        self._disk_put(self.directory, key, form)
        self._disk_put(self.shared_dir, key, form)

    def _remember(self, key: str, form: Any) -> None:
        self.stats.evictions += FORMS.put((self._scope, key), form)

    def _disk_get(self, directory: Optional[Path], key: str) -> Optional[Any]:
        if not directory:
            return None
        path = directory / f"{key}.json"
        try:
            injector = active_injector()
            if injector is not None:
                injector.check_cache_io("read", key)
            # read bytes + lossy decode: a corrupt entry need not be UTF-8
            payload = json.loads(path.read_bytes().decode("utf-8", errors="replace"))
            if not isinstance(payload, dict):
                raise ValueError("malformed cache entry")
            if payload.get("format") != CACHE_FORMAT or payload.get("key") != key:
                raise ValueError("foreign or stale cache entry")
            form = decode_form(payload["form"])
            if self.disk_budget is not None:
                # budgeted tiers evict by recency of *use*, not of write:
                # refresh the entry's timestamp so a hot key survives
                try:
                    os.utime(path)
                except OSError:
                    pass
            return form
        except FileNotFoundError:
            return None
        except OSError:
            # transient I/O failure: a miss, never an abort; the recompute
            # path rewrites the entry on its next healthy write
            self.stats.disk_errors += 1
            current_tracer().metrics.counter("engine.cache_fault", outcome="io_error").inc()
            return None
        except (ValueError, KeyError, TypeError):
            # corrupt entry: fall back to recomputation (the fresh _put
            # below atomically overwrites the bad file)
            self.stats.disk_corrupt += 1
            current_tracer().metrics.counter("engine.cache_fault", outcome="corrupt").inc()
            return None

    def _disk_put(self, directory: Optional[Path], key: str, form: Any) -> None:
        if not directory:
            return
        path = directory / f"{key}.json"
        # a per-writer temp name: two processes (or a watchdog-abandoned
        # thread) rewriting the same entry must never share a temp file, or
        # their writes interleave before the replace
        tmp = path.with_name(f".{key}.{os.getpid()}.{next(_TMP_IDS)}.tmp")
        try:
            injector = active_injector()
            if injector is not None:
                injector.check_cache_io("write", key)
            tmp.write_text(
                json.dumps(
                    {"format": CACHE_FORMAT, "key": key, "form": encode_form(form)},
                    sort_keys=True,
                ),
                encoding="utf-8",
            )
            os.replace(tmp, path)  # atomic: concurrent workers never see partial writes
            if injector is not None:
                injector.on_cache_write(key, path)
        except OSError:  # a full or read-only disk never fails the computation
            self.stats.disk_errors += 1
            current_tracer().metrics.counter("engine.cache_fault", outcome="io_error").inc()
            tmp.unlink(missing_ok=True)
            return
        self._enforce_budget(directory, keep=path.name)

    def _enforce_budget(self, directory: Path, keep: str) -> None:
        """Evict oldest-used entries until ``directory`` fits the budget.

        The entry named ``keep`` (the one just written) is never evicted:
        a budget smaller than a single form must not make the cache churn
        its own write.  Eviction races between concurrent writers are
        benign — losing a file mid-scan is just an already-evicted entry.
        """
        if self.disk_budget is None:
            return
        try:
            entries = []
            for path in directory.glob("*.json"):
                try:
                    status = path.stat()
                except OSError:
                    continue
                entries.append((status.st_mtime, path.name, path, status.st_size))
        except OSError:
            return
        total = sum(size for _, _, _, size in entries)
        entries.sort()
        for _, name, path, size in entries:
            if total <= self.disk_budget:
                break
            if name == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            self.stats.disk_evictions += 1
            current_tracer().metrics.counter(
                "engine.canonical_cache", outcome="disk_evict"
            ).inc()

    def __len__(self) -> int:
        """Memory-tier entries under this cache's read scope."""
        return sum(1 for scope, _ in FORMS.keys() if scope == self._scope)
