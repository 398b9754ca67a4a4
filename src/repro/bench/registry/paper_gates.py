"""Self-judging gates for the paper's figures: exp01–13, ablations, extensions.

Each gate is named after the figure it reproduces and encodes that figure's
shape — who wins, where the curves cross — with the thresholds the
reproduction has always been held to; ``ci/gates.toml`` runs them over the
scale-1.0 runs of ``ci/exp01.toml`` … ``ci/extensions.toml``.  Shapes are
judged on the counter-model series (``model_ms``): wall-clock peaks and
totals are OS-noise prone at these sizes, and stay in the payloads and
``describe()`` tables for reading.

Payloads arrive as stored in the artifact store, so integer keys
(reconstruction counts, change rates, batch lengths, TPC-H query ids) are
JSON strings here.
"""

from __future__ import annotations

from repro.bench.exp07_storage import batch_stats
from repro.bench.partial_common import FULL, PARTIAL
from repro.bench.registry.core import GATES
from repro.bench.registry.gates import GateCheck


def _below(name: str, low: float, high: float, what: str) -> GateCheck:
    return GateCheck(name, low < high, f"{what}: {low:.4g} < {high:.4g}")


def _batch_peak(series: list[float], batch: int) -> float:
    """Tallest per-batch maximum after the first batch (the paper's peaks)."""
    return max(mx for mx, _ in batch_stats(series, batch)[1:])


def _steady(series: list[float], third: int) -> float:
    """Cost of the last ``third`` queries: the converged state."""
    return sum(series[-third:])


@GATES.register("fig4a")
def gate_fig4a(current, baseline, options) -> list[GateCheck]:
    """Presorted and sideways far cheaper than selection cracking and plain
    MonetDB at 8 reconstructions (model cost)."""
    model = {system: costs["8"] for system, costs in current["model_ms"].items()}
    return [
        _below("presorted_below_monetdb", model["presorted"], model["monetdb"],
               "presorted vs monetdb model ms at k=8"),
        _below("sideways_below_monetdb", model["sideways"], model["monetdb"],
               "sideways vs monetdb model ms at k=8"),
        _below("monetdb_below_selection_cracking", model["monetdb"],
               model["selection_cracking"],
               "monetdb vs selection cracking model ms at k=8"),
    ]


@GATES.register("fig4b")
def gate_fig4b(current, baseline, options) -> list[GateCheck]:
    """After convergence sideways runs below MonetDB (model), per selectivity."""
    checks = []
    for label, series in current["relative_model"].items():
        tail = series[-20:]
        checks.append(_below(
            f"converged_below_monetdb[{label}]", sum(tail) / len(tail), 1.0,
            "mean sideways/monetdb model cost over the last 20 queries"))
    return checks


@GATES.register("exp3_reordering")
def gate_exp3_reordering(current, baseline, options) -> list[GateCheck]:
    """The reordering investment pays off only with enough projections;
    ordered (plain MonetDB) reconstruction is the floor."""
    model = current["model_ms"]
    return [
        _below("sort_costs_more_at_1", model["unordered"]["1"],
               model["sort"]["1"], "unordered vs sort model ms at 1 projection"),
        _below("radix_costs_more_at_1", model["unordered"]["1"],
               model["radix"]["1"], "unordered vs radix model ms at 1 projection"),
        _below("radix_pays_off_at_8", model["radix"]["8"],
               model["unordered"]["8"],
               "radix vs unordered model ms at 8 projections"),
        _below("ordered_is_the_floor", model["ordered"]["8"],
               model["unordered"]["8"],
               "ordered vs unordered model ms at 8 projections"),
    ]


@GATES.register("fig5")
def gate_fig5(current, baseline, options) -> list[GateCheck]:
    """Sideways converges toward presorted, well under the non-clustering
    systems (steady state = last third of the sequence)."""
    model = current["model_total_ms"]
    third = len(model["monetdb"]) // 3
    steady = {system: _steady(series, third) for system, series in model.items()}
    return [
        _below("sideways_below_monetdb", steady["sideways"], steady["monetdb"],
               "steady-state model ms, sideways vs monetdb"),
        _below("presorted_below_monetdb", steady["presorted"], steady["monetdb"],
               "steady-state model ms, presorted vs monetdb"),
    ]


@GATES.register("fig6")
def gate_fig6(current, baseline, options) -> list[GateCheck]:
    """Under a 9:1 skewed workload sideways still converges below MonetDB."""
    model = current["model_ms"]
    third = len(model["monetdb"]) // 3
    return [_below(
        "sideways_below_monetdb", _steady(model["sideways"], third),
        _steady(model["monetdb"], third),
        "steady-state model ms, sideways vs monetdb")]


@GATES.register("fig7")
def gate_fig7(current, baseline, options) -> list[GateCheck]:
    """Self-organization survives updates: every system completes the whole
    sequence in both scenarios (answers are checked in tests/)."""
    from repro.bench.exp06_updates import SYSTEMS

    checks = []
    for scenario in ("HFLV", "LFHV"):
        lengths = {system: len(current["series_us"][scenario][system])
                   for system in SYSTEMS}
        checks.append(GateCheck(
            f"sequence_completes[{scenario}]",
            all(n == current["queries"] for n in lengths.values()),
            f"queries per system {lengths} (want {current['queries']})"))
    return checks


@GATES.register("fig9")
def gate_fig9(current, baseline, options) -> list[GateCheck]:
    """Under the tightest threshold full maps' per-batch peaks dwarf partial
    maps' (drop + recreate vs chunk-wise adaptation), and partial maps stay
    within the threshold."""
    batch = current["batch"]
    tight = current["per_query_model_ms"]["T=2R"]
    full_peak = _batch_peak(tight[FULL], batch)
    partial_peak = _batch_peak(tight[PARTIAL], batch)
    rows = current["rows"]
    partial_storage = max(current["storage_tuples"]["T=2R"][PARTIAL])
    return [
        _below("full_peaks_dwarf_partial", 2 * partial_peak, full_peak,
               "T=2R batch peak model ms, 2 x partial vs full"),
        GateCheck("partial_within_threshold", partial_storage <= 2.05 * rows,
                  f"T=2R partial storage peak {partial_storage:,.0f} tuples "
                  f"<= 2.05 x {rows:,} rows"),
    ]


@GATES.register("fig10")
def gate_fig10(current, baseline, options) -> list[GateCheck]:
    """Partial maps materialize a fraction of what full maps allocate when
    queries are selective or skewed."""
    from repro.bench.exp08_adaptation import VARIANTS

    storage = current["storage_tuples"]
    return [
        _below(f"partial_stores_less[{case}]", max(storage[case][PARTIAL]),
               max(storage[case][FULL]),
               "peak storage tuples, partial vs full")
        for case in VARIANTS
    ]


@GATES.register("fig11")
def gate_fig11(current, baseline, options) -> list[GateCheck]:
    """Selective queries favor partial maps outright; at 30% selectivity the
    two are comparable (within 2x either way).  Judged on model totals."""
    totals = current["totals_model_ms"]
    selective = totals["S=0.001 noT"]
    broad = totals["S=0.3 noT"]
    ratio = broad[PARTIAL] / broad[FULL]
    return [
        _below("selective_favors_partial", selective[PARTIAL], selective[FULL],
               "S=0.001 noT total model ms, partial vs full"),
        GateCheck("broad_comparable", 0.4 < ratio < 2.5,
                  f"S=0.3 noT partial/full model total {ratio:.3f} "
                  "in (0.4, 2.5)"),
    ]


@GATES.register("fig12")
def gate_fig12(current, baseline, options) -> list[GateCheck]:
    """Full maps degrade with change frequency; partial maps stay stable
    enough that the full/partial ratio grows.  Judged on model totals."""
    totals = current["totals_model_ms"]
    rates = sorted(totals, key=int)
    slow = totals[rates[0]][FULL] / totals[rates[0]][PARTIAL]
    fast = totals[rates[-1]][FULL] / totals[rates[-1]][PARTIAL]
    return [_below(
        "full_degrades_with_change_rate", 2 * slow, fast,
        f"full/partial model total, 2 x at {rates[0]} changes vs at "
        f"{rates[-1]} changes")]


@GATES.register("fig13")
def gate_fig13(current, baseline, options) -> list[GateCheck]:
    """The longer the batch, the taller full maps' alignment peak at the
    workload change; partial maps avoid those peaks."""
    checks = []
    for change_every, systems in current["per_query_model_ms"].items():
        batch = int(change_every)
        if len(batch_stats(systems[FULL], batch)) < 2:
            continue
        checks.append(_below(
            f"partial_avoids_alignment_peaks[{change_every}]",
            _batch_peak(systems[PARTIAL], batch),
            _batch_peak(systems[FULL], batch),
            "batch peak model ms, partial vs full"))
    return checks


@GATES.register("fig14")
def gate_fig14(current, baseline, options) -> list[GateCheck]:
    """Sideways cracking beats plain MonetDB in steady state on the selective
    multi-reconstruction TPC-H queries once maps are cracked in."""
    wins = []
    for query_id, systems in current["model_ms"].items():
        third = max(1, len(systems["monetdb"]) // 3)
        if _steady(systems["sideways"], third) < _steady(systems["monetdb"], third):
            wins.append(query_id)
    return [GateCheck(
        "sideways_steady_state_wins", len(wins) >= 8,
        f"sideways wins on {len(wins)}/{len(current['model_ms'])} queries "
        f"{sorted(wins, key=int)} (want >= 8)")]


@GATES.register("sec5_tpch_mixed")
def gate_sec5_tpch_mixed(current, baseline, options) -> list[GateCheck]:
    """Cross-query reuse: the last batch runs cheaper relative to MonetDB
    than the first batch (model cost)."""
    rel = current["relative_model"]
    return [_below("last_batch_cheaper", sum(rel[-12:]), sum(rel[:12]),
                   "sum of sideways/monetdb model cost, last vs first batch")]


@GATES.register("ablations")
def gate_ablations(current, baseline, options) -> list[GateCheck]:
    """Each design choice DESIGN.md calls out beats its ablated variant."""
    alignment = current["partial_alignment"]["totals"]
    dropping = current["head_dropping"]["totals"]
    mapset = current["mapset_choice"]["totals"]
    kernels = current["crack_kernels"]["totals"]
    chunks = current["chunk_size_enforcement"]["totals"]
    replays = (alignment["partial_alignment"]["replays"],
               alignment["full_alignment"]["replays"])
    storage = (dropping["cold"]["peak_storage"], dropping["off"]["peak_storage"])
    pieces = (kernels["crack_in_three"]["pieces"],
              kernels["two_crack_in_two"]["pieces"])
    creations = (chunks["enforced"]["chunks"], chunks["unbounded"]["chunks"])
    return [
        # Partial alignment replays strictly fewer tape entries.
        GateCheck("partial_alignment_replays_less", replays[0] <= replays[1],
                  "tape replays, partial vs full alignment: "
                  f"{replays[0]} <= {replays[1]}"),
        # Dropping heads halves chunk footprints: fewer storage-pressure drops.
        GateCheck("head_dropping_saves_storage", storage[0] <= storage[1] + 1,
                  "peak storage, cold head dropping vs off: "
                  f"{storage[0]:,.0f} <= {storage[1]:,.0f} + 1"),
        # The self-organizing histogram beats blindly taking the first
        # predicate.
        _below("histogram_beats_first_predicate",
               mapset["histogram"]["model_ms"],
               mapset["first_predicate"]["model_ms"],
               "map-set choice model ms, histogram vs first predicate"),
        # One three-way pass touches fewer elements than two two-way passes...
        _below("crack_in_three_touches_less",
               kernels["crack_in_three"]["touches"],
               kernels["two_crack_in_two"]["touches"],
               "touched elements, crack-in-three vs two crack-in-two"),
        # ...and both end with the same partitioning knowledge.
        GateCheck("crack_kernels_same_pieces", pieces[0] == pieces[1],
                  f"pieces, crack-in-three vs two crack-in-two: {pieces}"),
        # Bounded chunks cut the per-query peak (no giant chunk creations)...
        _below("bounded_chunks_cut_peak", chunks["enforced"]["peak_query_ms"],
               chunks["unbounded"]["peak_query_ms"],
               "per-query peak model ms, enforced vs unbounded chunks"),
        # ...at the price of more chunk creations.
        GateCheck("bounded_chunks_create_more", creations[0] >= creations[1],
                  "chunk creations, enforced vs unbounded: "
                  f"{creations[0]} >= {creations[1]}"),
    ]


@GATES.register("extensions")
def gate_extensions(current, baseline, options) -> list[GateCheck]:
    """The future-work extensions answer like their baselines, cheaper."""
    piece_max = current["piece_max"]["totals"]
    join = current["join_strategies"]["totals"]
    row_col = current["row_vs_column"]["totals"]
    checksums = (piece_max["piece_exploiting"]["answers_checksum"],
                 piece_max["area_scan"]["answers_checksum"])
    matches = (join["cracker_join"]["matches"], join["hash_join"]["matches"])
    # Row cracking's cost is projection-independent; sideways pays per map.
    row_growth = (row_col["row_cracking k=6"]["model_ms"]
                  / row_col["row_cracking k=1"]["model_ms"])
    col_growth = (row_col["sideways k=6"]["model_ms"]
                  / row_col["sideways k=1"]["model_ms"])
    return [
        GateCheck("piece_max_same_answers", checksums[0] == checksums[1],
                  f"answer checksums, piece-exploiting vs area scan: {checksums}"),
        _below("piece_max_cheaper", piece_max["piece_exploiting"]["model_ms"],
               piece_max["area_scan"]["model_ms"],
               "max() model ms, piece-exploiting vs area scan"),
        GateCheck("cracker_join_same_matches", matches[0] == matches[1],
                  f"join matches, cracker vs hash join: {matches}"),
        _below("cracker_join_cheaper", join["cracker_join"]["model_ms"],
               join["hash_join"]["model_ms"],
               "join model ms, cracker vs hash join"),
        _below("sideways_grows_with_projections", row_growth, col_growth,
               "k=6 / k=1 model cost growth, row cracking vs sideways"),
    ]
