"""Versioned, content-addressed artifact store for benchmark results.

Layout (default root ``benchmarks/artifacts/``)::

    objects/<aa>/<artifact_id>.json   # canonical result payloads
    runs/<created_ns>-<experiment>-<id8>.json   # run metadata records
    refs/<name>                       # named pointer -> artifact id

Artifact IDs are a SHA-256 prefix over the *canonical* JSON encoding of
the payload (sorted keys, no whitespace), so identical results — any
machine, any time — share one object and IDs are stable across re-puts.
Run records carry provenance: git SHA, host, platform, scale (and the
``REPRO_SCALE`` env echo), seed, params, and the checks (sanitize level,
fault plan, racesan) the run executed under.  Named refs (``baseline/exp16``,
``current/exp16``) are what CI's single gate command resolves.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import socket
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path

from repro.analysis.checks import current

DEFAULT_ROOT = "benchmarks/artifacts"

_ID_HEX = 20  # 80 bits: collision-safe for any plausible artifact count


class ArtifactError(Exception):
    """Store access failed (unknown id/ref, malformed record)."""


def canonical_json(payload: dict) -> str:
    """The byte-stable encoding artifact IDs are computed over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=True)


def content_id(payload: dict) -> str:
    digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
    return digest[:_ID_HEX]


def run_metadata(
    experiment: str,
    scale: float | None = None,
    seed: int | None = None,
    params: dict | None = None,
    **extra,
) -> dict:
    """Provenance captured alongside every stored result."""
    checks = current().checks
    meta = {
        "experiment": experiment,
        "created": time.time(),
        "git_sha": _git_sha(),
        "host": socket.gethostname(),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "scale": scale,
        "repro_scale_env": os.environ.get("REPRO_SCALE"),
        "seed": seed,
        "params": dict(params or {}),
        # Flat keys, None when off, as artifacts have always stored them.
        "sanitize": None if checks.sanitize == "off" else checks.sanitize,
        "faults": checks.faults or None,
        "racesan": checks.racesan,
    }
    meta.update(extra)
    return meta


def _git_sha() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=10, check=False,
        )
        sha = out.stdout.strip()
        return sha if out.returncode == 0 and sha else "unknown"
    except OSError:
        return "unknown"


@dataclass(frozen=True)
class ArtifactRecord:
    artifact_id: str
    run_id: str
    meta: dict
    path: Path


class ArtifactStore:
    def __init__(self, root: str | Path = DEFAULT_ROOT) -> None:
        self.root = Path(root)
        self.objects = self.root / "objects"
        self.runs_dir = self.root / "runs"
        self.refs_dir = self.root / "refs"

    # -- objects -------------------------------------------------------------

    def _object_path(self, artifact_id: str) -> Path:
        return self.objects / artifact_id[:2] / f"{artifact_id}.json"

    def put(self, payload: dict, meta: dict) -> ArtifactRecord:
        """Store a result payload plus its run record; dedups by content."""
        artifact_id = content_id(payload)
        obj_path = self._object_path(artifact_id)
        if not obj_path.exists():
            obj_path.parent.mkdir(parents=True, exist_ok=True)
            obj_path.write_text(canonical_json(payload) + "\n")
        meta = dict(meta)
        meta["artifact"] = artifact_id
        created_ns = int(meta.get("created", time.time()) * 1e9)
        run_id = f"{created_ns}-{meta.get('experiment', 'unknown')}-{artifact_id[:8]}"
        self.runs_dir.mkdir(parents=True, exist_ok=True)
        run_path = self.runs_dir / f"{run_id}.json"
        run_path.write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
        return ArtifactRecord(artifact_id, run_id, meta, obj_path)

    def has(self, artifact_id: str) -> bool:
        return self._object_path(artifact_id).exists()

    def get(self, artifact_id: str) -> dict:
        path = self._object_path(artifact_id)
        if not path.exists():
            raise ArtifactError(f"unknown artifact id {artifact_id!r} "
                                f"in store {self.root}")
        return json.loads(path.read_text())

    # -- refs ----------------------------------------------------------------

    def set_ref(self, name: str, artifact_id: str) -> None:
        if not self.has(artifact_id):
            raise ArtifactError(
                f"refusing to point ref {name!r} at missing artifact "
                f"{artifact_id!r}")
        path = self.refs_dir / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(artifact_id + "\n")

    def get_ref(self, name: str) -> str | None:
        path = self.refs_dir / name
        if not path.exists():
            return None
        return path.read_text().strip()

    def refs(self) -> dict[str, str]:
        if not self.refs_dir.exists():
            return {}
        return {
            str(path.relative_to(self.refs_dir)): path.read_text().strip()
            for path in sorted(self.refs_dir.rglob("*")) if path.is_file()
        }

    # -- run history ---------------------------------------------------------

    def runs(self, experiment: str | None = None) -> list[dict]:
        """Run records, oldest first (the trend report's history axis)."""
        if not self.runs_dir.exists():
            return []
        records = []
        for path in sorted(self.runs_dir.glob("*.json")):
            try:
                meta = json.loads(path.read_text())
            except (OSError, json.JSONDecodeError):
                continue
            if experiment is None or meta.get("experiment") == experiment:
                records.append(meta)
        records.sort(key=lambda m: m.get("created", 0.0))
        return records

    # -- source resolution ---------------------------------------------------

    def resolve(self, source: str) -> dict:
        """Load a payload from ``ref:<name>``, an artifact id, or a file path."""
        if source.startswith("ref:"):
            name = source[4:]
            artifact_id = self.get_ref(name)
            if artifact_id is None:
                raise ArtifactError(
                    f"unknown ref {name!r} in store {self.root}; "
                    f"known refs: {', '.join(sorted(self.refs())) or '<none>'}")
            return self.get(artifact_id)
        if len(source) == _ID_HEX and self.has(source):
            return self.get(source)
        path = Path(source)
        if path.exists():
            with path.open() as handle:
                return json.load(handle)
        raise ArtifactError(
            f"cannot resolve {source!r}: not a ref, artifact id, or file")

