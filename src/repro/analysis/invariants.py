"""The unified invariant catalog for every cracking structure.

Each entry states a physical property the paper's correctness story rests
on, checks it, and reports failures as structured
:class:`~repro.errors.InvariantViolation` records.  The catalog is consumed
three ways: the structures' own ``check_invariants(deep=...)`` methods, the
CrackSan runtime sanitizer (:mod:`repro.analysis.sanitizer`), and the fuzz
suite.

Shallow invariants (cheap, run at ``post-crack``/``post-query``):

``index-*``
    The cracker index's boundaries are in strict ``(value, side)`` key
    order, and boundary positions are monotone and inside ``[0, n]``.
``piece-bounds``
    Every piece's values satisfy its lower/upper boundary predicates.
``head-tail-alignment``
    Head and tail arrays of a two-column structure are equally long.
``cursor-bounds``
    No map/chunk cursor is past its tape's end.
``replay-boundaries``
    Sibling maps aligned to the same tape position agree on their piece
    boundary sets.
``area-contiguity`` / ``area-positions`` / ``area-bounds`` /
``area-edges-mirror-index``
    A chunk map's areas tile the value domain contiguously, their positions
    are ordered, their contents respect the edges, and every area edge is an
    ``H_A`` index boundary.  Boundaries that are *not* edges must lie
    strictly inside an unfetched area — they are auxiliary cuts awaiting
    lazy promotion; fetched areas never contain interior boundaries.
``storage-accounting`` / ``storage-victim``
    The chunk storage manager's running cell count equals a recount over
    its registered maps, and the chunk its victim queue would evict next is
    the one a scan of every chunk picks (least accessed, unpinned, first in
    map-registration then chunk-dict order).
``pending-cracks``
    Every in-flight progressive crack has ordered markers
    ``lo <= left <= right <= hi`` inside the structure, its classified
    prefix/suffix really are below/not-below the bound, the bound is not yet
    an index boundary, and the recorded piece is the bound's enclosing piece.

Deep invariants (expensive, run at level ``deep``):

``duplicate-keys``
    Key arrays carry no duplicate tuple keys.
``base-permutation`` / ``tail-base-permutation``
    A structure's payload is a permutation of the base BAT: values looked
    up by key in the base column equal the values the structure stores.
``aligned-head-equality``
    Sibling maps/chunks at the same tape cursor hold bit-identical head
    arrays.
``tape-replay-consistency``
    Rebuilding a fully aligned map/chunk from its start snapshot by
    replaying the whole tape reproduces the identical head, tail, and
    boundary signature.

Adding an invariant: write a checker that appends
:class:`InvariantViolation` records to the output list, wire it into the
``_check_<kind>`` function for the structures it applies to, and (if its
cost is superlinear) gate it behind ``deep``.  See ``docs/sanitizer.md``.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Iterable

import numpy as np

from repro.errors import CrackError, InvariantError, InvariantViolation

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cracking.index import CrackerIndex


def _violation(
    structure: str, invariant: str, detail: str, seed: int | None, **context: object
) -> InvariantViolation:
    return InvariantViolation(
        structure=structure, invariant=invariant, detail=detail,
        context=tuple(context.items()), seed=seed,
    )


def boundary_signature(index: "CrackerIndex") -> tuple:
    """The (value, side, position) triple of every boundary, in order."""
    return tuple((bound.value, int(bound.side), pos) for bound, pos in index.inorder())


def format_boundaries(sig: Iterable[tuple]) -> str:
    """Compact rendering of a boundary signature for diagnostics."""
    parts = [
        f"{'<=' if side else '<'}{value:g}@{pos}" for value, side, pos in sig
    ]
    return "[" + ", ".join(parts) + "]"


def pending_signature(pending) -> tuple:
    """Order-independent fingerprint of a structure's in-flight cracks."""
    return tuple(sorted(
        (p.bound.value, int(p.bound.side), p.lo, p.hi, p.left, p.right)
        for p in (pending or {}).values()
    ))


# -- shared building blocks -----------------------------------------------------


def _index_violations(
    structure: str, index: "CrackerIndex", n: int | None, seed: int | None
) -> list[InvariantViolation]:
    try:
        index.validate(n)
    except InvariantError as err:
        return [dataclasses.replace(v, structure=structure, seed=seed)
                for v in err.violations]
    return []


def _piece_violations(
    structure: str,
    index: "CrackerIndex",
    head: np.ndarray,
    seed: int | None,
) -> list[InvariantViolation]:
    """Index health plus per-piece boundary-predicate conformance."""
    n = len(head)
    out = _index_violations(structure, index, n, seed)
    if out:
        return out  # piece iteration is meaningless over a corrupt index
    for piece in index.pieces(n):
        seg = head[piece.lo_pos:piece.hi_pos]
        if len(seg) == 0:
            continue
        if piece.lo_bound is not None:
            bad = piece.lo_bound.below_mask(seg)
            if bad.any():
                at = piece.lo_pos + int(np.flatnonzero(bad)[0])
                out.append(_violation(
                    structure, "piece-bounds",
                    f"value {head[at]!r} at position {at} is below the "
                    f"piece's lower bound {piece.lo_bound}",
                    seed, piece_lo=piece.lo_pos, piece_hi=piece.hi_pos,
                    bound=str(piece.lo_bound),
                ))
        if piece.hi_bound is not None:
            bad = ~piece.hi_bound.below_mask(seg)
            if bad.any():
                at = piece.lo_pos + int(np.flatnonzero(bad)[0])
                out.append(_violation(
                    structure, "piece-bounds",
                    f"value {head[at]!r} at position {at} is not below the "
                    f"piece's upper bound {piece.hi_bound}",
                    seed, piece_lo=piece.lo_pos, piece_hi=piece.hi_pos,
                    bound=str(piece.hi_bound),
                ))
    return out


def _pending_violations(
    structure: str,
    index: "CrackerIndex",
    head: np.ndarray | None,
    n: int,
    pending,
    seed: int | None,
) -> list[InvariantViolation]:
    """Validate every in-flight progressive crack of one structure.

    ``head`` may be ``None`` (a head-dropped chunk): marker ordering and
    index checks still run, value classification checks are skipped.
    """
    out: list[InvariantViolation] = []
    for key, p in (pending or {}).items():
        bound = p.bound
        if key != bound:
            out.append(_violation(
                structure, "pending-cracks",
                f"pending crack keyed {key} records bound {bound}",
                seed, key=str(key), bound=str(bound),
            ))
            continue
        if not (0 <= p.lo <= p.left <= p.right <= p.hi <= n):
            out.append(_violation(
                structure, "pending-cracks",
                f"pending crack of {bound} has disordered markers "
                f"lo={p.lo} left={p.left} right={p.right} hi={p.hi} (n={n})",
                seed, bound=str(bound), lo=p.lo, left=p.left,
                right=p.right, hi=p.hi, n=n,
            ))
            continue
        if index.position_of(bound) is not None:
            out.append(_violation(
                structure, "pending-cracks",
                f"in-flight bound {bound} is already an index boundary",
                seed, bound=str(bound),
            ))
            continue
        enclosing = index.enclosing(bound, n)
        if enclosing != (p.lo, p.hi):
            out.append(_violation(
                structure, "pending-cracks",
                f"pending crack of {bound} records piece [{p.lo}, {p.hi}) "
                f"but the enclosing piece is [{enclosing[0]}, {enclosing[1]})",
                seed, bound=str(bound), recorded=(p.lo, p.hi),
                enclosing=enclosing,
            ))
            continue
        if head is None:
            continue
        below = head[p.lo:p.left]
        if len(below) and not bound.below_mask(below).all():
            at = p.lo + int(np.flatnonzero(~bound.below_mask(below))[0])
            out.append(_violation(
                structure, "pending-cracks",
                f"value {head[at]!r} at position {at} sits in the "
                f"classified-below prefix of {bound} but is not below it",
                seed, bound=str(bound), position=at,
            ))
        above = head[p.right:p.hi]
        if len(above) and bound.below_mask(above).any():
            at = p.right + int(np.flatnonzero(bound.below_mask(above))[0])
            out.append(_violation(
                structure, "pending-cracks",
                f"value {head[at]!r} at position {at} sits in the "
                f"classified-not-below suffix of {bound} but is below it",
                seed, bound=str(bound), position=at,
            ))
    return out


def _length_violation(
    structure: str, seed: int | None, head_len: int, tail_len: int
) -> list[InvariantViolation]:
    if head_len == tail_len:
        return []
    return [_violation(
        structure, "head-tail-alignment",
        f"head has {head_len} elements but tail has {tail_len}",
        seed, head_len=head_len, tail_len=tail_len,
    )]


def _duplicate_key_violations(
    structure: str, keys: np.ndarray, seed: int | None
) -> list[InvariantViolation]:
    # A sort and a neighbour compare: several times cheaper than the
    # hash-based np.unique on every deep sweep of a clean column.
    ordered = np.sort(keys)
    repeated = ordered[1:][ordered[1:] == ordered[:-1]]
    if not len(repeated):
        return []
    dupes = np.unique(repeated)
    return [_violation(
        structure, "duplicate-keys",
        f"{len(dupes)} tuple key(s) appear more than once "
        f"(first: {int(dupes[0])})",
        seed, first_key=int(dupes[0]), duplicate_count=int(len(dupes)),
    )]


def _base_permutation_violations(
    structure: str,
    invariant: str,
    stored: np.ndarray,
    base_values: np.ndarray,
    keys: np.ndarray,
    seed: int | None,
    base_keys: np.ndarray | None = None,
) -> list[InvariantViolation]:
    """``stored[i]`` must equal ``base_values[keys[i]]`` wherever keys resolve.

    ``base_keys`` handles bases with *materialized* keys (e.g. the gathered
    BAT backing a partition shard): stored keys are then matched against the
    base's key column instead of being treated as dense positions.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if len(stored) != len(keys):
        return [_violation(
            structure, invariant,
            f"stored array has {len(stored)} elements but {len(keys)} keys",
            seed, stored_len=len(stored), key_len=len(keys),
        )]
    if base_keys is not None:
        order = np.argsort(base_keys, kind="stable")
        sorted_keys = base_keys[order]
        idx = np.searchsorted(sorted_keys, keys)
        # Keys absent from the base snapshot (merged insertions on a base
        # that is never refreshed): check only the resolvable rest.
        resolvable = idx < len(sorted_keys)
        idx = np.where(resolvable, idx, 0)
        resolvable &= sorted_keys[idx] == keys
        stored = stored[resolvable]
        keys = keys[resolvable]
        expected = base_values[order[idx[np.flatnonzero(resolvable)]]]
        mismatch = stored != expected
        if not mismatch.any():
            return []
        at = int(np.flatnonzero(mismatch)[0])
        return [_violation(
            structure, invariant,
            f"stored value {stored[at]!r} at position {at} "
            f"(key {int(keys[at])}) does not match base value "
            f"{expected[at]!r}",
            seed, position=at, key=int(keys[at]),
            mismatches=int(mismatch.sum()),
        )]
    in_range = keys < len(base_values)
    if not in_range.all():
        # Keys past the base snapshot (stale base reference): check the rest.
        stored = stored[in_range]
        keys = keys[in_range]
    expected = base_values[keys]
    mismatch = stored != expected
    if not mismatch.any():
        return []
    at = int(np.flatnonzero(mismatch)[0])
    return [_violation(
        structure, invariant,
        f"stored value {stored[at]!r} at position {at} (key {int(keys[at])}) "
        f"does not match base value {expected[at]!r}",
        seed, position=at, key=int(keys[at]),
        mismatches=int(mismatch.sum()),
    )]


# -- per-kind checks ---------------------------------------------------------------


def _check_index(obj, deep: bool, seed, label, budget) -> list[InvariantViolation]:
    return _index_violations(label or "cracker_index", obj, None, seed)


def _check_column(obj, deep: bool, seed, label, budget) -> list[InvariantViolation]:
    structure = label or getattr(obj, "label", None) or "cracker_column"
    out = _piece_violations(structure, obj.index, obj.head, seed)
    out += _length_violation(structure, seed, len(obj.head), len(obj.keys))
    out += _pending_violations(
        structure, obj.index, obj.head, len(obj.head),
        getattr(obj, "pending_cracks", None), seed,
    )
    if deep and not out:
        out += _duplicate_key_violations(structure, obj.keys, seed)
        base = getattr(obj, "_base", None)
        if base is not None:
            out += _base_permutation_violations(
                structure, "base-permutation", obj.head, base.values,
                obj.keys, seed, base_keys=getattr(base, "keys", None),
            )
    return out


def _map_structure(cmap) -> str:
    return f"M_{cmap.head_attr},{cmap.tail_attr}"


def _check_pair(obj, deep: bool, seed, label, budget) -> list[InvariantViolation]:
    """One cracked (head, tail) pair: the ``"map"`` and ``"chunk"`` kinds."""
    structure = label or (
        _map_structure(obj) if obj.kind == "map" else f"chunk[area {obj.area_id}]"
    )
    pending = getattr(obj, "pending_cracks", None)
    if obj.head is None:
        # Head-dropped: only marker ordering of in-flight cracks is checkable.
        return _pending_violations(
            structure, obj.index, None, len(obj.tail), pending, seed
        )
    out = _piece_violations(structure, obj.index, obj.head, seed)
    out += _length_violation(structure, seed, len(obj.head), len(obj.tail))
    out += _pending_violations(
        structure, obj.index, obj.head, len(obj.head), pending, seed
    )
    return out


def _check_mapset(obj, deep: bool, seed, label, budget) -> list[InvariantViolation]:
    from repro.core.map import KEY_TAIL

    structure = label or f"S_{obj.head_attr}"
    out: list[InvariantViolation] = []
    tape_len = len(obj.tape)
    by_cursor: dict[int, list] = {}
    for tail_attr, cmap in obj.maps.items():
        if cmap.cursor > tape_len:
            out.append(_violation(
                structure, "cursor-bounds",
                f"map {tail_attr!r} cursor {cmap.cursor} is past the tape "
                f"end {tape_len}", seed, map=tail_attr, cursor=cmap.cursor,
                tape_length=tape_len,
            ))
            continue
        out += _check_pair(cmap, False, seed, None, budget)
        by_cursor.setdefault(cmap.cursor, []).append(cmap)

    for cursor, group in by_cursor.items():
        if len(group) < 2:
            continue
        reference = group[0]
        ref_sig = boundary_signature(reference.index)
        ref_pending = pending_signature(reference.pending_cracks)
        for cmap in group[1:]:
            sig = boundary_signature(cmap.index)
            if pending_signature(cmap.pending_cracks) != ref_pending:
                out.append(_violation(
                    structure, "replay-boundaries",
                    f"maps {reference.tail_attr!r} and {cmap.tail_attr!r} at "
                    f"tape position {cursor} disagree on in-flight crack "
                    f"markers", seed, tape_position=cursor,
                    map_a=reference.tail_attr, map_b=cmap.tail_attr,
                ))
            elif sig != ref_sig:
                out.append(_violation(
                    structure, "replay-boundaries",
                    f"maps {reference.tail_attr!r} and {cmap.tail_attr!r} at "
                    f"tape position {cursor} disagree on piece boundaries: "
                    f"{format_boundaries(ref_sig)} vs {format_boundaries(sig)}",
                    seed, tape_position=cursor, map_a=reference.tail_attr,
                    map_b=cmap.tail_attr, expected=ref_sig, actual=sig,
                ))
            elif deep and not np.array_equal(reference.head, cmap.head):
                out.append(_violation(
                    structure, "aligned-head-equality",
                    f"maps {reference.tail_attr!r} and {cmap.tail_attr!r} at "
                    f"tape position {cursor} hold different head arrays",
                    seed, tape_position=cursor, map_a=reference.tail_attr,
                    map_b=cmap.tail_attr,
                ))

    if deep and not out:
        key_map = obj.maps.get(KEY_TAIL)
        if key_map is not None:
            for tail_attr, cmap in obj.maps.items():
                if (
                    tail_attr == KEY_TAIL
                    or cmap.cursor != key_map.cursor
                    or tail_attr not in obj.relation
                ):
                    continue
                out += _base_permutation_violations(
                    _map_structure(cmap), "tail-base-permutation",
                    cmap.tail, obj.relation.values(tail_attr),
                    key_map.tail, seed,
                )
        out += _mapset_replay_violations(obj, structure, seed, budget)
    return out


def _replay_mismatch(tape, live, budget, make_ghost) -> str | None:
    """Replay the whole ``tape`` on a fresh pair; how it differs from ``live``.

    ``live`` must be fully aligned.  ``None`` when the states match — or
    when the comparison cannot run: a delete entry's victims are not located
    yet (no pair can have replayed it), or the replay exceeds ``budget``.
    """
    from repro.core.tape import DeleteEntry

    if any(isinstance(e, DeleteEntry) and e.positions is None for e in tape.entries):
        return None
    if budget is not None and len(tape) * max(1, len(live)) > budget:
        return None
    ghost = make_ghost()
    for entry in tape.entries:
        ghost.replay_entry(entry)
    if len(ghost) != len(live):
        return (
            f"replay yields {len(ghost)} tuples, live {live.kind} has {len(live)}"
        )
    if not np.array_equal(ghost.head, live.head):
        return "replay reproduces a different head permutation"
    if not np.array_equal(ghost.tail, live.tail):
        return "replay reproduces a different tail permutation"
    if pending_signature(ghost.pending_cracks) != pending_signature(
        live.pending_cracks
    ):
        return "replay reproduces different in-flight crack markers"
    ghost_sig = boundary_signature(ghost.index)
    live_sig = boundary_signature(live.index)
    if ghost_sig != live_sig:
        return (
            f"replay reproduces different boundaries: "
            f"{format_boundaries(ghost_sig)} vs {format_boundaries(live_sig)}"
        )
    return None


def _mapset_replay_violations(
    mapset, structure: str, seed, budget
) -> list[InvariantViolation]:
    """Rebuild one fully aligned map from the snapshot; states must match."""
    from repro.core.map import KEY_TAIL, CrackerMap, tail_fetcher
    from repro.stats.counters import StatsRecorder

    tape = mapset.tape
    candidates = [m for m in mapset.maps.values() if m.cursor == len(tape)]
    if not candidates:
        return []
    cmap = next(
        (m for m in candidates if m.tail_attr == KEY_TAIL), candidates[0]
    )

    def ghost():
        recorder = StatsRecorder()
        return CrackerMap(
            mapset.head_attr, cmap.tail_attr,
            *mapset._snapshot_arrays(cmap.tail_attr),
            tail_fetcher(mapset.relation, cmap.tail_attr, recorder), recorder,
        )

    detail = _replay_mismatch(tape, cmap, budget, ghost)
    if detail is None:
        return []
    return [_violation(
        structure, "tape-replay-consistency",
        f"map {cmap.tail_attr!r}: {detail}", seed,
        map=cmap.tail_attr, tape_length=len(tape),
    )]


def _check_chunkmap(obj, deep: bool, seed, label, budget) -> list[InvariantViolation]:
    structure = label or f"H_{obj.head_attr}"
    out = _index_violations(structure, obj.index, len(obj.head), seed)
    out += _length_violation(structure, seed, len(obj.head), len(obj.keys))
    if out:
        return out

    prev_hi = None
    interior_edges = set()
    for i, area in enumerate(obj.areas):
        if i == 0:
            if area.lo_bound is not None:
                out.append(_violation(
                    structure, "area-contiguity",
                    f"first area {area.area_id} is bounded below by "
                    f"{area.lo_bound}", seed, area=area.area_id,
                ))
        elif area.lo_bound != prev_hi:
            out.append(_violation(
                structure, "area-contiguity",
                f"area {area.area_id} starts at {area.lo_bound} but the "
                f"previous area ends at {prev_hi}", seed, area=area.area_id,
                lo_bound=str(area.lo_bound), prev_hi=str(prev_hi),
            ))
        prev_hi = area.hi_bound
        if area.hi_bound is not None:
            interior_edges.add(area.hi_bound)
        try:
            lo, hi = obj.area_positions(area)
        except CrackError as err:
            out.append(_violation(
                structure, "area-edges-mirror-index",
                f"area {area.area_id}: {err}", seed, area=area.area_id,
            ))
            continue
        if lo > hi:
            out.append(_violation(
                structure, "area-positions",
                f"area {area.area_id} has inverted positions [{lo}, {hi})",
                seed, area=area.area_id, lo=lo, hi=hi,
            ))
            continue
        seg = obj.head[lo:hi]
        if len(seg):
            if area.lo_bound is not None and area.lo_bound.below_mask(seg).any():
                out.append(_violation(
                    structure, "area-bounds",
                    f"area {area.area_id} contains values below its lower "
                    f"edge {area.lo_bound}", seed, area=area.area_id,
                    edge=str(area.lo_bound),
                ))
            if area.hi_bound is not None and not area.hi_bound.below_mask(seg).all():
                out.append(_violation(
                    structure, "area-bounds",
                    f"area {area.area_id} contains values above its upper "
                    f"edge {area.hi_bound}", seed, area=area.area_id,
                    edge=str(area.hi_bound),
                ))
    if prev_hi is not None:
        out.append(_violation(
            structure, "area-contiguity",
            f"last area is bounded above by {prev_hi}", seed,
        ))
    index_bounds = set(obj.index.bounds())
    if index_bounds != interior_edges:
        # Boundaries that are not edges are tolerated only as auxiliary cuts
        # strictly inside an unfetched area, awaiting lazy promotion.
        extra = {
            b for b in index_bounds - interior_edges
            if not any(
                not area.fetched and area.contains_strictly(b)
                for area in obj.areas
            )
        }
        missing = interior_edges - index_bounds
        if extra or missing:
            out.append(_violation(
                structure, "area-edges-mirror-index",
                f"H_A boundaries and area edges diverge: "
                f"{len(extra)} boundary(ies) are not area edges or interior "
                f"to an unfetched area, "
                f"{len(missing)} edge(s) are not boundaries", seed,
                extra=tuple(str(b) for b in sorted(extra)),
                missing=tuple(str(b) for b in sorted(missing)),
            ))
    if deep and not out:
        out += _duplicate_key_violations(structure, obj.keys, seed)
        out += _base_permutation_violations(
            structure, "base-permutation", obj.head,
            obj.relation.values(obj.head_attr), obj.keys, seed,
        )
    return out


def _check_partial_set(obj, deep: bool, seed, label, budget) -> list[InvariantViolation]:
    from repro.core.map import KEY_TAIL

    structure = label or f"P_{obj.head_attr}"
    if obj.chunkmap is None:
        return []
    cm = obj.chunkmap
    out = _check_chunkmap(cm, deep, seed, None, budget)

    areas_by_id = {area.area_id: area for area in cm.areas}
    chunks_by_area: dict[int, list[tuple[str, object]]] = {}
    for tail_attr, pmap in obj.maps.items():
        for area_id, chunk in pmap.chunks.items():
            area = areas_by_id.get(area_id)
            if area is None:
                out.append(_violation(
                    structure, "chunk-orphaned",
                    f"map {pmap.name} holds a chunk for unknown area "
                    f"{area_id}", seed, map=pmap.name, area=area_id,
                ))
                continue
            if not area.fetched:
                out.append(_violation(
                    structure, "chunk-without-fetched-area",
                    f"map {pmap.name} holds a chunk for area {area_id}, "
                    f"which is not fetched", seed, map=pmap.name, area=area_id,
                ))
                continue
            if chunk.cursor > len(area.tape):
                out.append(_violation(
                    structure, "cursor-bounds",
                    f"chunk of {pmap.name} in area {area_id} has cursor "
                    f"{chunk.cursor} past the tape end {len(area.tape)}",
                    seed, map=pmap.name, area=area_id, cursor=chunk.cursor,
                    tape_length=len(area.tape),
                ))
                continue
            out += _check_pair(
                chunk, False, seed, f"{pmap.name}[area {area_id}]", budget
            )
            chunks_by_area.setdefault(area_id, []).append((tail_attr, chunk))
    out += _storage_violations(obj.storage, structure, seed)

    if not deep or out:
        return out

    for area_id, members in chunks_by_area.items():
        area = areas_by_id[area_id]
        by_cursor: dict[int, list[tuple[str, object]]] = {}
        for tail_attr, chunk in members:
            by_cursor.setdefault(chunk.cursor, []).append((tail_attr, chunk))
        for cursor, group in by_cursor.items():
            with_head = [(a, c) for a, c in group if not c.head_dropped]
            for (attr_a, chunk_a), (attr_b, chunk_b) in zip(
                with_head, with_head[1:]
            ):
                if not np.array_equal(chunk_a.head, chunk_b.head):
                    out.append(_violation(
                        structure, "aligned-head-equality",
                        f"chunks of {attr_a!r} and {attr_b!r} in area "
                        f"{area_id} at tape position {cursor} hold different "
                        f"head arrays", seed, area=area_id,
                        tape_position=cursor,
                    ))
            key_chunk = next((c for a, c in group if a == KEY_TAIL), None)
            if key_chunk is not None:
                for tail_attr, chunk in group:
                    if tail_attr == KEY_TAIL or tail_attr not in obj.relation:
                        continue
                    out += _base_permutation_violations(
                        f"{obj.head_attr}->{tail_attr}[area {area_id}]",
                        "tail-base-permutation", chunk.tail,
                        obj.relation.values(tail_attr), key_chunk.tail, seed,
                    )
        out += _area_replay_violations(
            obj, structure, area, members, seed, budget
        )
    return out


def _storage_violations(storage, structure: str, seed) -> list[InvariantViolation]:
    """The chunk storage manager's running state against a fresh scan."""
    out: list[InvariantViolation] = []
    recount = 0
    expected = None
    least = None
    for pmap in storage.maps:
        for area_id, chunk in pmap.chunks.items():
            recount += chunk.storage_cells
            if storage.is_pinned(pmap, area_id):
                continue
            if least is None or chunk.accesses < least:
                least = chunk.accesses
                expected = (pmap, area_id)
    if storage.used_cells != recount:
        out.append(_violation(
            structure, "storage-accounting",
            f"the storage manager counts {storage.used_cells} cells but its "
            f"registered maps hold {recount}", seed,
            counted=storage.used_cells, recount=recount,
        ))
    queued = storage.peek_victim()
    if queued != expected:
        def show(victim):
            return None if victim is None else f"{victim[0].name}[area {victim[1]}]"

        out.append(_violation(
            structure, "storage-victim",
            f"the victim queue would evict {show(queued)} but the "
            f"least-frequently-accessed unpinned chunk is {show(expected)}",
            seed, queued=show(queued), expected=show(expected),
        ))
    return out


def _area_replay_violations(
    pset, structure: str, area, members, seed, budget
) -> list[InvariantViolation]:
    """Rebuild one fully aligned chunk from the frozen area slice."""
    from repro.core.map import KEY_TAIL, tail_fetcher
    from repro.core.partial.chunk import Chunk
    from repro.stats.counters import StatsRecorder

    tape = area.tape
    candidates = [
        (attr, chunk) for attr, chunk in members
        if chunk.cursor == len(tape) and not chunk.head_dropped
    ]
    if not candidates:
        return []
    tail_attr, chunk = next(
        ((a, c) for a, c in candidates if a == KEY_TAIL), candidates[0]
    )

    def ghost():
        cm = pset.chunkmap
        lo, hi = cm.area_positions(area)
        recorder = StatsRecorder()
        fetch = tail_fetcher(pset.relation, tail_attr, recorder)
        return Chunk(
            area.area_id, cm.head[lo:hi].copy(), fetch(cm.keys[lo:hi].copy()),
            fetch, recorder,
        )

    detail = _replay_mismatch(tape, chunk, budget, ghost)
    if detail is None:
        return []
    name = f"{pset.head_attr}->{tail_attr}[area {area.area_id}]"
    return [_violation(
        structure, "tape-replay-consistency", f"{name}: {detail}", seed,
        map=name, area=area.area_id, tape_length=len(tape),
    )]


def _check_rowstore(obj, deep: bool, seed, label, budget) -> list[InvariantViolation]:
    structure = label or f"rowstore[{obj.crack_attr}]"
    values = obj.rows[obj.crack_attr]
    return _piece_violations(structure, obj.index, values, seed)


_CHECKS: dict[str, Callable] = {
    "index": _check_index,
    "column": _check_column,
    "map": _check_pair,
    "mapset": _check_mapset,
    "chunk": _check_pair,
    "chunkmap": _check_chunkmap,
    "partial_set": _check_partial_set,
    "rowstore": _check_rowstore,
}

KINDS = tuple(_CHECKS)


def check(
    obj: object,
    kind: str,
    deep: bool = False,
    seed: int | None = None,
    label: str | None = None,
    replay_budget: int | None = None,
) -> list[InvariantViolation]:
    """Run the catalog for one structure; returns violations (possibly empty)."""
    from repro.analysis.sanitizer import suspended

    checker = _CHECKS.get(kind)
    if checker is None:
        raise InvariantError(f"unknown structure kind {kind!r}; one of {KINDS}")
    with suspended():  # scratch replay structures must not re-register
        return checker(obj, deep, seed, label, replay_budget)


def check_or_raise(
    obj: object,
    kind: str,
    deep: bool = False,
    seed: int | None = None,
    label: str | None = None,
) -> None:
    """The ``check_invariants`` backend: raise on any violation."""
    found = check(obj, kind, deep=deep, seed=seed, label=label)
    if found:
        raise InvariantError.from_violations(found)


# -- change signatures (skip-cache keys for the sanitizer) ------------------------


def content_checksum(arr) -> int:
    """A cheap order-sensitive checksum of a strided sample of ``arr``.

    Samples at most ~64 elements (every ``len//64``-th), reinterprets their
    raw bytes as ``uint64`` words, and xor-folds them together with the
    length.  Not cryptographic — it exists to catch *accidental* in-place
    corruption (a buggy kernel scrambling a payload without changing any
    length or cursor), closing the skip-cache blind spot documented in
    ``docs/sanitizer.md``.  Cost is O(64) per array regardless of size.
    """
    n = len(arr)
    if n == 0:
        return 0
    step = max(1, n // 64)
    raw = np.ascontiguousarray(arr[::step]).tobytes()
    if len(raw) % 8:
        raw += b"\0" * (8 - len(raw) % 8)
    words = np.frombuffer(raw, dtype=np.uint64)
    return int(np.bitwise_xor.reduce(words)) ^ n


def _sig_column(obj, content=False):
    sig = (len(obj.head), len(obj.index),
           obj.pending.insertion_count, obj.pending.deletion_count,
           pending_signature(getattr(obj, "pending_cracks", None)))
    if content:
        sig += (content_checksum(obj.head), content_checksum(obj.keys))
    return sig


def _sig_pair(obj, content=False):
    sig = (len(obj.tail), len(obj.index), obj.cursor, obj.head is None,
           pending_signature(getattr(obj, "pending_cracks", None)))
    if content:
        sig += (
            content_checksum(obj.tail),
            content_checksum(obj.head) if obj.head is not None else 0,
        )
    return sig


def _sig_mapset(obj, content=False):
    return (
        len(obj.tape),
        obj.pending.insertion_count, obj.pending.deletion_count,
        tuple(sorted(
            (attr, _sig_pair(cmap, content)) for attr, cmap in obj.maps.items()
        )),
    )


def _sig_chunkmap(obj, content=False):
    sig = (
        len(obj.head), len(obj.index),
        tuple(
            (a.area_id, a.fetched, len(a.tape) if a.tape is not None else -1,
             len(a.open_pendings))
            for a in obj.areas
        ),
    )
    if content:
        sig += (content_checksum(obj.head), content_checksum(obj.keys))
    return sig


def _sig_partial_set(obj, content=False):
    return (
        _sig_chunkmap(obj.chunkmap, content) if obj.chunkmap is not None else None,
        obj.pending.insertion_count, obj.pending.deletion_count,
        obj.storage.used_cells,
        tuple(sorted(
            (attr, area_id, _sig_pair(chunk, content))
            for attr, pmap in obj.maps.items()
            for area_id, chunk in pmap.chunks.items()
        )),
    )


def _sig_rowstore(obj, content=False):
    sig = (len(obj.rows), len(obj.index))
    if content:
        sig += (content_checksum(obj.rows[obj.crack_attr]),)
    return sig


_SIGNATURES: dict[str, Callable] = {
    "column": _sig_column,
    "map": _sig_pair,
    "mapset": _sig_mapset,
    "chunk": _sig_pair,
    "chunkmap": _sig_chunkmap,
    "partial_set": _sig_partial_set,
    "rowstore": _sig_rowstore,
}


def signature(obj: object, kind: str, content: bool = False) -> object | None:
    """A cheap state fingerprint; ``None`` means "always re-validate".

    With ``content=True`` the fingerprint additionally folds in
    :func:`content_checksum` of each payload array, so purely in-place
    corruption (same lengths, same cursors) no longer hides from the
    sanitizer's skip cache until the next legitimate change.
    """
    fn = _SIGNATURES.get(kind)
    if fn is None:
        return None
    try:
        return fn(obj, content)
    except (AttributeError, TypeError, IndexError, KeyError, ValueError):
        # A half-built or deliberately damaged structure may not expose the
        # fields the fingerprint reads; "no signature" just disables the
        # skip cache so the sanitizer re-validates every sweep.
        return None
