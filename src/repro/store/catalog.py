"""SQLite experiment catalog — cross-run reuse of populations and outcomes.

Every sweep cell the drivers evaluate is a pure function of a few small
inputs: the population recipe (generator/injection configs + seed), the
replication config, the distance selector and the strategy panel. The
catalog persists that mapping, so a cell whose key is already scored is
served back **bitwise-identically** instead of recomputed — the storage-side
half of "re-run the paper after any change in seconds".

Three tables (see :data:`_SCHEMA`): ``populations`` (recipe- or
content-keyed population identities), ``shards`` (the spilled shard
inventory of a population — fingerprints, paths, sizes) and ``outcomes``
(scored experiment cells; the result payload is a pickle, which round-trips
``float64`` exactly). The connection applies the WAL-mode pragma set for
concurrent readers (``journal_mode=WAL``, ``synchronous=NORMAL``,
``busy_timeout``, ``foreign_keys=ON``).

Keys deliberately cover **only** outcome-determining inputs. Execution
choices — backend, worker count, streaming engine, shard layout, spill
location — are excluded, because the repo's determinism contracts make them
bitwise-invisible: a cell computed by the in-memory block path is a valid
cache hit for the same cell requested through the streaming engine, and vice
versa. Strategy panels are keyed by ``(class, name, cost_fraction)``;
callers running custom-parameterised strategy instances under a registry
name should use a dedicated catalog file. Explicit
:class:`~repro.distance.base.Distance` *instances* are keyed by their
registry name when they are structurally equal to the registry default
(:func:`distance_key_name`); custom-parameterised instances have no
canonical identity and bypass the catalog.

Every outcome key is additionally salted with the **code version**
(:func:`code_salt`): scoring-relevant code changes bump
:data:`CODE_VERSION`, which atomically invalidates every cached cell —
the catalog-side half of the sweep planner's invalidation diff
(:mod:`repro.experiments.sweep`). The default salt also carries the
Python, numpy and scipy versions, so a dependency upgrade invalidates the
same way. Set ``REPRO_CODE_SALT`` to override the salt without touching
code (e.g. to force a full recompute).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import platform
import sqlite3
import warnings
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np
import scipy

from repro.core.resilience import RetryPolicy
from repro.errors import StoreError, StoreWarning, ValidationError
from repro.testing.faults import inject_fault

__all__ = [
    "CATALOG_ENV_VAR",
    "CATALOG_BUDGET_ENV_VAR",
    "CODE_SALT_ENV_VAR",
    "CODE_VERSION",
    "Catalog",
    "resolve_catalog",
    "population_recipe_key",
    "experiment_key",
    "code_salt",
    "distance_key_name",
]

#: Environment variable naming a catalog file every driver should reuse.
CATALOG_ENV_VAR = "REPRO_CATALOG"

#: Payload budget in bytes applied at every catalog open: when set, stored
#: outcome payloads over budget are pruned oldest-first (populations,
#: shards and sweep manifests are tiny and always survive). Empty or
#: unset disables; negative or non-integer values raise.
CATALOG_BUDGET_ENV_VAR = "REPRO_CATALOG_BUDGET"

#: Environment variable overriding the code-version salt (any non-empty
#: value); bumping it invalidates every cached outcome without code changes.
CODE_SALT_ENV_VAR = "REPRO_CODE_SALT"

#: The scoring-code version folded into every outcome key. Bump it whenever
#: a change alters any outcome float (a distance formula, a strategy's
#: arithmetic, the glitch-index weights): old catalog rows then stop
#: matching and every cell recomputes, instead of silently serving stale
#: numbers. Pure performance work that preserves the bitwise-identity
#: contract does **not** bump it — that is the whole point of keying by
#: outcome-determining inputs only.
CODE_VERSION = "2026.08-1"


def code_salt() -> str:
    """The salt folded into outcome keys: ``REPRO_CODE_SALT`` when set
    (non-empty), else :data:`CODE_VERSION` plus the Python, numpy and scipy
    versions — outcome bits come from those libraries too (EMD flows
    straight from scipy's HiGHS build), so upgrading any of them recomputes
    instead of serving numbers the new stack might not reproduce."""
    return os.environ.get(CODE_SALT_ENV_VAR, "").strip() or (
        f"{CODE_VERSION}|python={platform.python_version()}"
        f"|numpy={np.__version__}|scipy={scipy.__version__}"
    )

_SCHEMA = """
CREATE TABLE IF NOT EXISTS populations (
    key        TEXT PRIMARY KEY,
    kind       TEXT NOT NULL,          -- 'recipe' (seed-keyed) or 'content'
    scale      TEXT,
    seed       TEXT,
    generator  TEXT,
    injection  TEXT,
    n_series   INTEGER,
    created    TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS shards (
    population_key TEXT    NOT NULL,
    shard_index    INTEGER NOT NULL,
    fingerprint    TEXT    NOT NULL,
    store_path     TEXT,
    n_series       INTEGER,
    nbytes         INTEGER,
    created        TEXT    NOT NULL,
    PRIMARY KEY (population_key, shard_index)
);
CREATE TABLE IF NOT EXISTS outcomes (
    key            TEXT PRIMARY KEY,
    population_key TEXT NOT NULL,
    distance       TEXT NOT NULL,
    config         TEXT NOT NULL,      -- canonical JSON of the keyed fields
    strategies     TEXT NOT NULL,
    engine         TEXT,
    wall_s         REAL,
    payload        BLOB NOT NULL,      -- pickled ExperimentResult
    created        TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS sweeps (
    id       INTEGER PRIMARY KEY AUTOINCREMENT,
    name     TEXT NOT NULL,
    manifest TEXT NOT NULL,            -- JSON {cell name -> key components}
    created  TEXT NOT NULL
);
"""


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode())
        h.update(b"\x00")
    return h.hexdigest()


def _seed_token(seed) -> str:
    """Canonical text of a replayable seed (int / SeedSequence / None)."""
    if seed is None or isinstance(seed, (int, np.integer)):
        return repr(int(seed) if seed is not None else None)
    if isinstance(seed, np.random.SeedSequence):
        return repr((seed.entropy, seed.spawn_key, seed.pool_size))
    raise ValidationError(
        "catalog keys need a replayable seed (int or SeedSequence); a live "
        f"Generator cannot be keyed: {seed!r}"
    )


def population_recipe_key(
    generator_config, injection_config, seed
) -> str:
    """Seed-keyed identity of a population that has not been built yet.

    Hashes the stage configs (frozen dataclasses with deterministic
    ``repr``) and the root seed — exactly the inputs
    :func:`~repro.experiments.config.build_population` and the slab feed
    derive every per-series stream from, so equal keys mean bitwise-equal
    populations without materialising either.
    """
    return "recipe:" + _digest(
        repr(generator_config), repr(injection_config), _seed_token(seed)
    )


def config_token(config) -> dict:
    """The outcome-determining fields of an :class:`ExperimentConfig`.

    Backend, worker count and the streaming selector are excluded — they are
    execution choices the determinism contracts make bitwise-invisible.
    """
    return {
        "n_replications": int(config.n_replications),
        "sample_size": int(config.sample_size),
        "log_transform": bool(config.log_transform),
        "sigma_k": repr(float(config.sigma_k)),
        "seed": _seed_token(config.seed),
        "distance": config.distance or "emd",
    }


def strategies_token(strategies: Sequence) -> list[dict]:
    """Canonical identity of a strategy panel, in evaluation order."""
    return [
        {
            "type": f"{type(s).__module__}.{type(s).__qualname__}",
            "name": s.name,
            "cost_fraction": repr(float(s.cost_fraction)),
        }
        for s in strategies
    ]


def experiment_key(
    population_key: str,
    config,
    strategies: Sequence,
    distance_name: Optional[str] = None,
) -> str:
    """The catalog key of one scored sweep cell.

    ``(population, seed, config, distance, strategy panel, code salt)`` —
    everything that determines the outcome floats, and nothing that does
    not. *distance_name* overrides the config's ``distance`` selector in
    the key — for callers scoring with an explicit instance that
    :func:`distance_key_name` resolved to its registry default.
    """
    token = config_token(config)
    if distance_name is not None:
        token["distance"] = distance_name
    return "outcome:" + _digest(
        population_key,
        json.dumps(token, sort_keys=True),
        json.dumps(strategies_token(strategies), sort_keys=True),
        code_salt(),
    )


def _state_equal(a, b) -> bool:
    """Structural equality of two (nested) plain-state objects.

    Recurses through ``__dict__`` of non-builtin instances (a distance's
    binner, say), compares arrays by shape and content, and falls back to
    ``==`` for primitives — conservative enough that a ``True`` means the
    two objects compute identical numbers.
    """
    if a is b:
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.shape == b.shape and bool(np.array_equal(a, b, equal_nan=True))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_state_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_state_equal(a[k], b[k]) for k in a)
    state = getattr(a, "__dict__", None)
    if state is not None and type(a).__module__ != "builtins":
        return _state_equal(state, getattr(b, "__dict__", {}))
    try:
        return bool(a == b)
    except Exception:  # pragma: no cover - exotic state defeats comparison
        return False


def distance_key_name(distance) -> Optional[str]:
    """The registry name keying an explicit distance instance, or ``None``.

    A :class:`~repro.distance.base.Distance` *instance* equal (structurally,
    member by member) to its registry class's default construction scores
    exactly what the name selector would — so it is keyed by that name
    instead of bypassing the catalog. A custom-parameterised instance (or
    one whose class is not the registered one for its name) returns
    ``None``: it has no canonical identity and the caller must bypass.
    """
    if distance is None:
        return None
    from repro.distance import DISTANCES

    cls = type(distance)
    name = getattr(cls, "name", None)
    if not name or DISTANCES.get(name) is not cls:
        return None
    try:
        default = cls()
    except Exception:
        return None
    return name if _state_equal(distance, default) else None


def _is_locked_error(exc: BaseException) -> bool:
    """A transient write-contention error worth retrying (not corruption)."""
    return isinstance(exc, sqlite3.OperationalError) and (
        "locked" in str(exc).lower() or "busy" in str(exc).lower()
    )


#: Bounded retry on ``database is locked``: ``busy_timeout`` alone still
#: surfaces intermittent ``OperationalError`` under process-parallel sweeps
#: (the timeout does not cover every lock acquisition inside a statement),
#: so every catalog read/write gets a short deterministic backoff on top.
_LOCKED_RETRY = RetryPolicy(max_attempts=5, base_delay=0.02, max_delay=0.5)


class Catalog:
    """One catalog file: WAL-mode SQLite with put/get of scored cells.

    A ``Catalog`` wraps a single connection (use one instance per thread;
    WAL mode makes concurrent *processes* against the same file safe —
    readers never block the writer). ``hits``/``misses`` count
    :meth:`get_outcome` results for this instance, which is what the
    cold-vs-warm benchmark and the reuse tests assert on.

    Degradation rules: every statement retries briefly on ``database is
    locked``; a file that is not a SQLite database at all (torn disk,
    foreign file) is quarantine-renamed to ``{path}.corrupt[.k]`` at open
    and a fresh catalog is started in its place, so a damaged cache can
    never abort — or poison — a run.
    """

    def __init__(self, path: Union[str, Path], busy_timeout_ms: int = 30_000):
        self.path = str(path)
        self.busy_timeout_ms = int(busy_timeout_ms)
        self.hits = 0
        self.misses = 0
        parent = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(parent, exist_ok=True)
        try:
            self._conn = self._open()
        except sqlite3.OperationalError as exc:
            # Locked/permission-style trouble — the file may be fine;
            # never quarantine on it.
            raise StoreError(f"cannot open catalog {self.path}: {exc}") from exc
        except sqlite3.DatabaseError as exc:
            quarantined = self._quarantine()
            warnings.warn(
                f"catalog {self.path} is unreadable ({exc}); quarantined the "
                f"damaged file to {quarantined} and starting a fresh catalog",
                StoreWarning,
                stacklevel=2,
            )
            try:
                self._conn = self._open()
            except sqlite3.Error as exc2:
                raise StoreError(
                    f"cannot open catalog {self.path}: {exc2}"
                ) from exc2
        except sqlite3.Error as exc:
            raise StoreError(f"cannot open catalog {self.path}: {exc}") from exc
        budget = _resolve_budget()
        if budget is not None:
            removed = self.prune(budget)
            if removed:
                warnings.warn(
                    f"catalog {self.path} exceeded {CATALOG_BUDGET_ENV_VAR}="
                    f"{budget} bytes; pruned {removed} oldest outcome row(s)",
                    StoreWarning,
                    stacklevel=2,
                )

    def _open(self) -> sqlite3.Connection:
        conn = sqlite3.connect(self.path, timeout=self.busy_timeout_ms / 1000.0)
        try:
            inject_fault(
                "catalog.corrupt",
                lambda: sqlite3.DatabaseError("file is not a database"),
            )
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute(f"PRAGMA busy_timeout={self.busy_timeout_ms}")
            conn.execute("PRAGMA foreign_keys=ON")
            conn.executescript(_SCHEMA)
            conn.commit()
        except BaseException:
            conn.close()
            raise
        return conn

    def _quarantine(self) -> str:
        """Rename the damaged database (and WAL/SHM sidecars) out of the way."""
        target = f"{self.path}.corrupt"
        k = 0
        while os.path.exists(target):
            k += 1
            target = f"{self.path}.corrupt.{k}"
        os.replace(self.path, target)
        for suffix in ("-wal", "-shm"):
            sidecar = self.path + suffix
            if os.path.exists(sidecar):
                try:
                    os.replace(sidecar, target + suffix)
                except OSError:  # pragma: no cover - best-effort cleanup
                    pass
        return target

    def _execute(self, sql: str, params: Sequence = ()) -> sqlite3.Cursor:
        """``conn.execute`` with bounded retry on lock contention."""

        def attempt() -> sqlite3.Cursor:
            inject_fault(
                "catalog.locked",
                lambda: sqlite3.OperationalError("database is locked"),
            )
            return self._conn.execute(sql, params)

        return _LOCKED_RETRY.call(attempt, retryable=_is_locked_error)

    def _commit(self) -> None:
        """``conn.commit`` with bounded retry on lock contention."""

        def attempt() -> None:
            inject_fault(
                "catalog.locked",
                lambda: sqlite3.OperationalError("database is locked"),
            )
            self._conn.commit()

        _LOCKED_RETRY.call(attempt, retryable=_is_locked_error)

    # -- populations and shards -------------------------------------------------

    def record_population(
        self,
        key: str,
        kind: str,
        scale: Optional[str] = None,
        seed: Optional[str] = None,
        generator: Optional[str] = None,
        injection: Optional[str] = None,
        n_series: Optional[int] = None,
    ) -> None:
        """Insert one population identity row (idempotent)."""
        self._execute(
            "INSERT OR IGNORE INTO populations "
            "(key, kind, scale, seed, generator, injection, n_series, created) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (key, kind, scale, seed, generator, injection, n_series, _now()),
        )
        self._commit()

    def record_shard(
        self,
        population_key: str,
        shard_index: int,
        fingerprint: str,
        store_path: Optional[str] = None,
        n_series: Optional[int] = None,
        nbytes: Optional[int] = None,
    ) -> None:
        """Upsert one spilled-shard inventory row for a population."""
        self._execute(
            "INSERT OR REPLACE INTO shards "
            "(population_key, shard_index, fingerprint, store_path, n_series, "
            "nbytes, created) VALUES (?, ?, ?, ?, ?, ?, ?)",
            (
                population_key,
                int(shard_index),
                fingerprint,
                store_path,
                n_series,
                nbytes,
                _now(),
            ),
        )
        self._commit()

    def shards(self, population_key: str) -> list[sqlite3.Row]:
        """The shard inventory of one population, in shard order."""
        cur = self._execute(
            "SELECT * FROM shards WHERE population_key = ? ORDER BY shard_index",
            (population_key,),
        )
        cur.row_factory = sqlite3.Row
        return list(cur)

    # -- outcomes ---------------------------------------------------------------

    def get_outcome(self, key: str):
        """The stored :class:`ExperimentResult` for *key*, or ``None``.

        A hit unpickles the stored payload — the exact object graph of the
        run that produced it, outcome floats bitwise-identical.
        """
        row = self._execute(
            "SELECT payload FROM outcomes WHERE key = ?", (key,)
        ).fetchone()
        if row is None:
            self.misses += 1
            return None
        try:
            result = pickle.loads(row[0])
        except Exception as exc:
            # A damaged payload is a miss, not an abort: recompute the cell
            # (the INSERT OR REPLACE on put will repair the row).
            warnings.warn(
                f"catalog {self.path} holds an unreadable payload for "
                f"{key!r} ({exc}); treating it as a miss and recomputing",
                StoreWarning,
                stacklevel=2,
            )
            self.misses += 1
            return None
        self.hits += 1
        return result

    def put_outcome(
        self,
        key: str,
        result,
        population_key: str,
        config,
        strategies: Sequence,
        engine: Optional[str] = None,
        wall_s: Optional[float] = None,
        distance_name: Optional[str] = None,
    ) -> None:
        """Store one scored cell (idempotent — last write wins).

        *distance_name* mirrors :func:`experiment_key`'s override — pass the
        same value used to derive *key* so the introspection columns agree
        with what the cell was actually scored with.
        """
        token = config_token(config)
        if distance_name is not None:
            token["distance"] = distance_name
        self._execute(
            "INSERT OR REPLACE INTO outcomes "
            "(key, population_key, distance, config, strategies, engine, "
            "wall_s, payload, created) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                key,
                population_key,
                token["distance"],
                json.dumps(token, sort_keys=True),
                json.dumps(strategies_token(strategies), sort_keys=True),
                engine,
                wall_s,
                pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL),
                _now(),
            ),
        )
        self._commit()

    # -- sweep manifests --------------------------------------------------------

    def record_sweep(self, name: str, manifest: dict) -> None:
        """Append one named sweep's key manifest (``{cell -> components}``).

        The planner diffs the latest manifest against the next run's plan to
        report exactly which cells a config/code change invalidated.
        """
        self._execute(
            "INSERT INTO sweeps (name, manifest, created) VALUES (?, ?, ?)",
            (name, json.dumps(manifest, sort_keys=True), _now()),
        )
        self._commit()

    def last_sweep(self, name: str) -> Optional[dict]:
        """The most recent manifest recorded under *name*, or ``None``."""
        row = self._execute(
            "SELECT manifest FROM sweeps WHERE name = ? ORDER BY id DESC LIMIT 1",
            (name,),
        ).fetchone()
        return None if row is None else json.loads(row[0])

    # -- introspection and maintenance ------------------------------------------

    def stats(self) -> dict:
        """Row counts per table, stored payload bytes, and this instance's
        hit/miss counters."""
        counts = {
            table: self._execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in ("populations", "shards", "outcomes", "sweeps")
        }
        payload_bytes = self._execute(
            "SELECT COALESCE(SUM(LENGTH(payload)), 0) FROM outcomes"
        ).fetchone()[0]
        return {
            **counts,
            "payload_bytes": int(payload_bytes),
            "hits": self.hits,
            "misses": self.misses,
        }

    def prune(self, max_bytes: int) -> int:
        """Delete oldest outcomes until stored payloads fit *max_bytes*.

        Oldest-first by ``created`` (insertion time), so the rows most
        likely to be re-requested — the most recently scored — survive.
        Returns the number of outcome rows removed. Populations, shards and
        sweep manifests are tiny and never pruned.
        """
        if max_bytes < 0:
            raise ValidationError("max_bytes must be non-negative")
        rows = self._execute(
            "SELECT key, LENGTH(payload) FROM outcomes ORDER BY created ASC, key ASC"
        ).fetchall()
        total = sum(nbytes for _, nbytes in rows)
        removed = 0
        for key, nbytes in rows:
            if total <= max_bytes:
                break
            self._execute("DELETE FROM outcomes WHERE key = ?", (key,))
            total -= nbytes
            removed += 1
        if removed:
            self._commit()
        return removed

    # -- lifecycle --------------------------------------------------------------

    def close(self) -> None:
        """Close the underlying connection."""
        self._conn.close()

    def __enter__(self) -> "Catalog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Catalog({self.path!r})"


def _resolve_budget() -> Optional[int]:
    """The ``REPRO_CATALOG_BUDGET`` byte budget, or ``None`` when unset.

    A malformed value raises :class:`~repro.errors.ValidationError` — a
    budget knob that silently failed to apply would defeat its purpose.
    """
    raw = os.environ.get(CATALOG_BUDGET_ENV_VAR, "").strip()
    if not raw:
        return None
    try:
        budget = int(raw)
    except ValueError:
        raise ValidationError(
            f"{CATALOG_BUDGET_ENV_VAR} must be an integer byte count, got {raw!r}"
        ) from None
    if budget < 0:
        raise ValidationError(
            f"{CATALOG_BUDGET_ENV_VAR} must be non-negative, got {budget}"
        )
    return budget


def resolve_catalog(
    catalog: Union[None, str, Path, "Catalog"],
) -> tuple[Optional["Catalog"], bool]:
    """Resolve a driver's ``catalog=`` argument to ``(catalog, owned)``.

    A :class:`Catalog` instance passes through (caller keeps ownership); a
    path opens a catalog the resolver owns (the caller must close it —
    ``owned`` is ``True``); ``None`` defers to the ``REPRO_CATALOG``
    environment variable, and finally to no catalog at all.

    A path that cannot be opened at all (even after the corrupt-file
    quarantine inside :class:`Catalog`) degrades to *no catalog*: the run
    proceeds uncached — slower, never aborted — with a warning naming the
    path.
    """
    if isinstance(catalog, Catalog):
        return catalog, False
    if catalog is None:
        env = os.environ.get(CATALOG_ENV_VAR, "").strip()
        if not env:
            return None, False
        catalog = env
    try:
        return Catalog(catalog), True
    except StoreError as exc:
        warnings.warn(
            f"cannot open catalog {catalog!s} ({exc}); continuing without a "
            "catalog — every cell will be recomputed",
            StoreWarning,
            stacklevel=2,
        )
        return None, False
