"""The twelve TPC-H queries the paper evaluates (Q1, 3, 4, 6, 7, 8, 10, 12,
14, 15, 19, 20 — every query with a selection on a non-string attribute).

Each query is a function ``(executor, params) -> canonical result``.  The
mode-specific work (selections + tuple reconstruction on the cracked
tables) goes through :class:`~repro.workloads.tpch.executor.ModeExecutor`,
that is, through the system's engine; joins on dense primary keys are
positional lookups (the standard column-store key join), group-bys and
aggregations use the shared operators.  Results are canonicalized (sorted rows, money rounded to
cents) so the four systems can be cross-checked for equality.

``ParamGen`` produces the per-variation parameters following the
benchmark's qgen substitution rules.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from repro.engine.operators import group_by, segmented_aggregate
from repro.engine.query import Predicate
from repro.workloads.tpch.dates import CURRENT_DATE, add_months, add_years, d
from repro.workloads.tpch.datagen import (
    BRANDS,
    COLORS,
    NATIONS,
    REGIONS,
    SEGMENTS,
    SHIPMODES,
    TYPES,
)

if TYPE_CHECKING:
    from repro.workloads.tpch.executor import ModeExecutor

#: Minor sort keys of the presorted system's copies, per ``table.attr``: the
#: paper sub-sorts its TPC-H copies on group-by columns (Q1's here).
PRESORT_THEN_BY = {"lineitem.l_shipdate": ("l_returnflag", "l_linestatus")}


def _money(values: np.ndarray) -> np.ndarray:
    return np.round(np.asarray(values, dtype=np.float64), 2)


def _rows(*columns: np.ndarray) -> list[tuple]:
    return sorted(zip(*(c.tolist() for c in columns)))


def _grouped_sums(
    keys: list[np.ndarray], values: list[tuple[str, np.ndarray]]
) -> tuple[list[np.ndarray], dict[str, np.ndarray]]:
    """Group by ``keys`` and aggregate each ``(func, values)`` column."""
    group_ids, order, group_keys = group_by(keys)
    out = {}
    for i, (func, column) in enumerate(values):
        out[str(i)] = segmented_aggregate(group_ids, column[order], func)
    return group_keys, out


# ---------------------------------------------------------------------------
# parameter generation
# ---------------------------------------------------------------------------


class ParamGen:
    """qgen-style random parameter substitution for the twelve queries."""

    def __init__(self, seed: int = 97) -> None:
        self.rng = np.random.default_rng(seed)

    def _choice(self, values) -> object:
        return values[int(self.rng.integers(0, len(values)))]

    def q1(self) -> dict:
        return {"delta": int(self.rng.integers(60, 121))}

    def q3(self) -> dict:
        return {
            "segment": self._choice(SEGMENTS),
            "date": d(1995, 3, 1) + int(self.rng.integers(0, 31)),
        }

    def q4(self) -> dict:
        months = int(self.rng.integers(0, 58))
        return {"date": add_months(d(1993, 1, 1), months)}

    def q6(self) -> dict:
        return {
            "date": d(int(self.rng.integers(1993, 1998))),
            "discount": int(self.rng.integers(2, 10)) / 100.0,
            "quantity": int(self.rng.integers(24, 26)),
        }

    def q7(self) -> dict:
        n1 = int(self.rng.integers(0, len(NATIONS)))
        n2 = int(self.rng.integers(0, len(NATIONS) - 1))
        if n2 >= n1:
            n2 += 1
        return {"nation1": n1, "nation2": n2}

    def q8(self) -> dict:
        nation = int(self.rng.integers(0, len(NATIONS)))
        region = NATIONS[nation][1]
        return {
            "nation": nation,
            "region": REGIONS[region],
            "type": self._choice(TYPES),
        }

    def q10(self) -> dict:
        months = int(self.rng.integers(0, 24))
        return {"date": add_months(d(1993, 2, 1), months)}

    def q12(self) -> dict:
        modes = list(SHIPMODES)
        first = modes.pop(int(self.rng.integers(0, len(modes))))
        second = modes.pop(int(self.rng.integers(0, len(modes))))
        return {
            "mode1": first,
            "mode2": second,
            "date": d(int(self.rng.integers(1993, 1998))),
        }

    def q14(self) -> dict:
        months = int(self.rng.integers(0, 60))
        return {"date": add_months(d(1993, 1, 1), months)}

    def q15(self) -> dict:
        months = int(self.rng.integers(0, 58))
        return {"date": add_months(d(1993, 1, 1), months)}

    def q19(self) -> dict:
        return {
            "brand1": self._choice(BRANDS),
            "brand2": self._choice(BRANDS),
            "brand3": self._choice(BRANDS),
            "quantity1": int(self.rng.integers(1, 11)),
            "quantity2": int(self.rng.integers(10, 21)),
            "quantity3": int(self.rng.integers(20, 31)),
        }

    def q20(self) -> dict:
        return {
            "color": self._choice(COLORS),
            "date": d(int(self.rng.integers(1993, 1998))),
            "nation": int(self.rng.integers(0, len(NATIONS))),
        }


# ---------------------------------------------------------------------------
# query plans
# ---------------------------------------------------------------------------


def q1(ex: ModeExecutor, params: dict) -> list[tuple]:
    """Pricing summary report."""
    cutoff = CURRENT_DATE - params["delta"]
    cols = ex.select(
        "lineitem",
        [Predicate("l_shipdate", _at_most(cutoff))],
        [
            "l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice",
            "l_discount", "l_tax",
        ],
    )
    disc_price = cols["l_extendedprice"] * (1 - cols["l_discount"])
    charge = disc_price * (1 + cols["l_tax"])
    keys, aggs = _grouped_sums(
        [cols["l_returnflag"], cols["l_linestatus"]],
        [
            ("sum", cols["l_quantity"].astype(np.float64)),
            ("sum", cols["l_extendedprice"]),
            ("sum", disc_price),
            ("sum", charge),
            ("avg", cols["l_quantity"].astype(np.float64)),
            ("avg", cols["l_extendedprice"]),
            ("avg", cols["l_discount"]),
            ("count", cols["l_discount"]),
        ],
    )
    return _rows(
        keys[0], keys[1],
        _money(aggs["0"]), _money(aggs["1"]), _money(aggs["2"]), _money(aggs["3"]),
        _money(aggs["4"]), _money(aggs["5"]), _money(aggs["6"]), aggs["7"],
    )


def q3(ex: ModeExecutor, params: dict) -> list[tuple]:
    """Shipping priority: top unshipped orders of one market segment."""
    date = params["date"]
    customers = ex.select(
        "customer", [Predicate("c_mktsegment", ex.eq("customer", "c_mktsegment", params["segment"]))],
        ["c_custkey"],
    )
    orders = ex.select(
        "orders", [Predicate("o_orderdate", _below(date))],
        ["o_orderkey", "o_custkey", "o_orderdate", "o_shippriority"],
    )
    keep = np.isin(orders["o_custkey"], customers["c_custkey"])
    ex.recorder.random(len(orders["o_custkey"]), len(customers["c_custkey"]) or 1)
    orders = {attr: v[keep] for attr, v in orders.items()}
    line = ex.select(
        "lineitem", [Predicate("l_shipdate", _above(date))],
        ["l_orderkey", "l_extendedprice", "l_discount"],
    )
    # Join through a dense map from orderkey to its index in the filtered set.
    orderdate_of, shipprio_of, valid = _key_lookup(
        orders["o_orderkey"], orders["o_orderdate"], orders["o_shippriority"]
    )
    ex.recorder.random(len(line["l_orderkey"]), max(1, len(orders["o_orderkey"])))
    mask = valid(line["l_orderkey"])
    okeys = line["l_orderkey"][mask]
    revenue = (line["l_extendedprice"] * (1 - line["l_discount"]))[mask]
    keys, aggs = _grouped_sums([okeys], [("sum", revenue)])
    odate = orderdate_of(keys[0])
    oprio = shipprio_of(keys[0])
    rows = sorted(
        zip((-_money(aggs["0"])).tolist(), odate.tolist(), keys[0].tolist(), oprio.tolist())
    )[:10]
    return [(k, -neg_rev, date_, prio) for neg_rev, date_, k, prio in rows]


def q4(ex: ModeExecutor, params: dict) -> list[tuple]:
    """Order priority checking."""
    date = params["date"]
    orders = ex.select(
        "orders",
        [Predicate("o_orderdate", _half_open(date, add_months(date, 3)))],
        ["o_orderkey", "o_orderpriority"],
    )
    late = ex.select(
        "lineitem", [], ["l_orderkey", "l_commitdate", "l_receiptdate"],
        residual=lambda c: c["l_commitdate"] < c["l_receiptdate"],
    )
    ex.recorder.random(len(orders["o_orderkey"]), max(1, len(late["l_orderkey"])))
    has_late = np.isin(orders["o_orderkey"], late["l_orderkey"])
    prio = orders["o_orderpriority"][has_late]
    keys, aggs = _grouped_sums([prio], [("count", prio.astype(np.float64))])
    return _rows(keys[0], aggs["0"].astype(np.int64))


def q6(ex: ModeExecutor, params: dict) -> list[tuple]:
    """Forecasting revenue change: the showcase multi-selection query."""
    date = params["date"]
    disc = params["discount"]
    cols = ex.select(
        "lineitem",
        [
            Predicate("l_shipdate", _half_open(date, add_years(date, 1))),
            Predicate("l_discount", _closed(disc - 0.011, disc + 0.011)),
            Predicate("l_quantity", _below(params["quantity"])),
        ],
        ["l_extendedprice", "l_discount"],
    )
    revenue = float((cols["l_extendedprice"] * cols["l_discount"]).sum())
    return [(round(revenue, 2),)]


def q7(ex: ModeExecutor, params: dict) -> list[tuple]:
    """Volume shipping between two nations."""
    n1, n2 = params["nation1"], params["nation2"]
    line = ex.select(
        "lineitem",
        [Predicate("l_shipdate", _closed(d(1995, 1, 1), d(1996, 12, 31)))],
        ["l_suppkey", "l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )
    db = ex.db
    s_nation = db.table("supplier").values("s_nationkey")
    o_custkey = db.table("orders").values("o_custkey")
    c_nation = db.table("customer").values("c_nationkey")
    ex.recorder.random(3 * len(line["l_suppkey"]), len(o_custkey))
    supp_nat = s_nation[line["l_suppkey"] - 1]
    cust_nat = c_nation[o_custkey[line["l_orderkey"] - 1] - 1]
    pair = ((supp_nat == n1) & (cust_nat == n2)) | ((supp_nat == n2) & (cust_nat == n1))
    volume = (line["l_extendedprice"] * (1 - line["l_discount"]))[pair]
    year = _year_array(line["l_shipdate"][pair])
    keys, aggs = _grouped_sums(
        [supp_nat[pair], cust_nat[pair], year], [("sum", volume)]
    )
    return _rows(keys[0], keys[1], keys[2], _money(aggs["0"]))


def q8(ex: ModeExecutor, params: dict) -> list[tuple]:
    """National market share for one part type in one region."""
    db = ex.db
    parts = ex.select(
        "part", [Predicate("p_type", ex.eq("part", "p_type", params["type"]))],
        ["p_partkey"],
    )
    orders = ex.select(
        "orders",
        [Predicate("o_orderdate", _closed(d(1995, 1, 1), d(1996, 12, 31)))],
        ["o_orderkey", "o_custkey", "o_orderdate"],
    )
    region_codes = db.table("region").column("r_name").dictionary
    region_key = region_codes.code_of(params["region"])
    region_key = int(
        db.table("region").values("r_regionkey")[
            db.table("region").values("r_name") == region_key
        ][0]
    )
    c_nation = db.table("customer").values("c_nationkey")
    n_region = db.table("nation").values("n_regionkey")
    ex.recorder.random(2 * len(orders["o_custkey"]), len(c_nation))
    cust_region = n_region[c_nation[orders["o_custkey"] - 1]]
    orders = {a: v[cust_region == region_key] for a, v in orders.items()}

    line = ex.select(
        "lineitem", [],
        ["l_orderkey", "l_partkey", "l_suppkey", "l_extendedprice", "l_discount"],
    )
    ex.recorder.random(2 * len(line["l_partkey"]), len(db.table("part")))
    in_part = np.isin(line["l_partkey"], parts["p_partkey"])
    orderdate_of, _, valid = _key_lookup(
        orders["o_orderkey"], orders["o_orderdate"], orders["o_orderdate"]
    )
    in_orders = valid(line["l_orderkey"])
    mask = in_part & in_orders
    volume = (line["l_extendedprice"] * (1 - line["l_discount"]))[mask]
    year = _year_array(orderdate_of(line["l_orderkey"][mask]))
    s_nation = db.table("supplier").values("s_nationkey")
    supp_nat = s_nation[line["l_suppkey"][mask] - 1]
    nation_volume = np.where(supp_nat == params["nation"], volume, 0.0)
    keys, aggs = _grouped_sums(
        [year], [("sum", nation_volume), ("sum", volume)]
    )
    share = np.round(aggs["0"] / np.maximum(aggs["1"], 1e-9), 4)
    return _rows(keys[0], share)


def q10(ex: ModeExecutor, params: dict) -> list[tuple]:
    """Returned-item reporting: top 20 customers by lost revenue."""
    date = params["date"]
    orders = ex.select(
        "orders",
        [Predicate("o_orderdate", _half_open(date, add_months(date, 3)))],
        ["o_orderkey", "o_custkey"],
    )
    line = ex.select(
        "lineitem",
        [Predicate("l_returnflag", ex.eq("lineitem", "l_returnflag", "R"))],
        ["l_orderkey", "l_extendedprice", "l_discount"],
    )
    custkey_of, _, valid = _key_lookup(
        orders["o_orderkey"], orders["o_custkey"], orders["o_custkey"]
    )
    ex.recorder.random(len(line["l_orderkey"]), max(1, len(orders["o_orderkey"])))
    mask = valid(line["l_orderkey"])
    cust = custkey_of(line["l_orderkey"][mask])
    revenue = (line["l_extendedprice"] * (1 - line["l_discount"]))[mask]
    keys, aggs = _grouped_sums([cust], [("sum", revenue)])
    rows = sorted(zip((-_money(aggs["0"])).tolist(), keys[0].tolist()))[:20]
    return [(custkey, -neg) for neg, custkey in rows]


def q12(ex: ModeExecutor, params: dict) -> list[tuple]:
    """Shipping modes and order priority."""
    date = params["date"]
    mode_codes = ex.codes("lineitem", "l_shipmode", [params["mode1"], params["mode2"]])
    cols = ex.select(
        "lineitem",
        [Predicate("l_receiptdate", _half_open(date, add_years(date, 1)))],
        ["l_orderkey", "l_shipmode", "l_shipdate", "l_commitdate", "l_receiptdate"],
        residual=lambda c: (
            np.isin(c["l_shipmode"], mode_codes)
            & (c["l_commitdate"] < c["l_receiptdate"])
            & (c["l_shipdate"] < c["l_commitdate"])
        ),
    )
    db = ex.db
    o_priority = db.table("orders").values("o_orderpriority")
    ex.recorder.random(len(cols["l_orderkey"]), len(o_priority))
    prio = o_priority[cols["l_orderkey"] - 1]
    urgent = ex.codes("orders", "o_orderpriority", ["1-URGENT", "2-HIGH"])
    high = np.isin(prio, urgent).astype(np.float64)
    keys, aggs = _grouped_sums(
        [cols["l_shipmode"]], [("sum", high), ("sum", 1.0 - high)]
    )
    return _rows(keys[0], aggs["0"].astype(np.int64), aggs["1"].astype(np.int64))


def q14(ex: ModeExecutor, params: dict) -> list[tuple]:
    """Promotion effect."""
    date = params["date"]
    cols = ex.select(
        "lineitem",
        [Predicate("l_shipdate", _half_open(date, add_months(date, 1)))],
        ["l_partkey", "l_extendedprice", "l_discount"],
    )
    db = ex.db
    p_type = db.table("part").values("p_type")
    ex.recorder.random(len(cols["l_partkey"]), len(p_type))
    type_codes = p_type[cols["l_partkey"] - 1]
    promo_iv = ex.prefix("part", "p_type", "PROMO")
    promo = promo_iv.mask(type_codes)
    volume = cols["l_extendedprice"] * (1 - cols["l_discount"])
    total = float(volume.sum())
    promo_total = float(volume[promo].sum())
    share = 100.0 * promo_total / total if total else 0.0
    return [(round(share, 4),)]


def q15(ex: ModeExecutor, params: dict) -> list[tuple]:
    """Top supplier by quarterly revenue."""
    date = params["date"]
    cols = ex.select(
        "lineitem",
        [Predicate("l_shipdate", _half_open(date, add_months(date, 3)))],
        ["l_suppkey", "l_extendedprice", "l_discount"],
    )
    revenue = cols["l_extendedprice"] * (1 - cols["l_discount"])
    n_supp = len(ex.db.table("supplier")) + 1
    per_supplier = np.bincount(cols["l_suppkey"], weights=revenue, minlength=n_supp)
    ex.recorder.random(len(cols["l_suppkey"]), n_supp)
    best = _money(np.array([per_supplier.max()]))[0]
    winners = np.flatnonzero(_money(per_supplier) == best)
    return [(int(k), best) for k in sorted(winners.tolist())]


def q19(ex: ModeExecutor, params: dict) -> list[tuple]:
    """Discounted revenue, three disjunctive brand/container/quantity branches."""
    db = ex.db
    air = ex.codes("lineitem", "l_shipmode", ["AIR", "REG AIR"])
    in_person = ex.eq("lineitem", "l_shipinstruct", "DELIVER IN PERSON")
    branches = (
        (params["brand1"], ("SM CASE", "SM BOX", "SM PACK", "SM PKG"),
         params["quantity1"], 5),
        (params["brand2"], ("MED BAG", "MED BOX", "MED PKG", "MED PACK"),
         params["quantity2"], 10),
        (params["brand3"], ("LG CASE", "LG BOX", "LG PACK", "LG PKG"),
         params["quantity3"], 15),
    )
    p_brand = db.table("part").values("p_brand")
    p_container = db.table("part").values("p_container")
    p_size = db.table("part").values("p_size")
    revenue = 0.0
    for brand, containers, quantity, size_max in branches:
        cols = ex.select(
            "lineitem",
            [Predicate("l_quantity", _closed(quantity, quantity + 10))],
            [
                "l_partkey", "l_extendedprice", "l_discount",
                "l_shipmode", "l_shipinstruct",
            ],
            residual=lambda c: (
                np.isin(c["l_shipmode"], air) & in_person.mask(c["l_shipinstruct"])
            ),
        )
        ex.recorder.random(3 * len(cols["l_partkey"]), len(p_brand))
        brand_code = db.table("part").column("p_brand").dictionary.code_of(brand)
        container_codes = ex.codes("part", "p_container", list(containers))
        pk = cols["l_partkey"] - 1
        part_ok = (
            (p_brand[pk] == brand_code)
            & np.isin(p_container[pk], container_codes)
            & (p_size[pk] >= 1)
            & (p_size[pk] <= size_max)
        )
        revenue += float(
            (cols["l_extendedprice"] * (1 - cols["l_discount"]))[part_ok].sum()
        )
    return [(round(revenue, 2),)]


def q20(ex: ModeExecutor, params: dict) -> list[tuple]:
    """Potential part promotion: suppliers with excess stock of one color."""
    db = ex.db
    parts = ex.select(
        "part",
        [Predicate("p_name", ex.prefix("part", "p_name", params["color"]))],
        ["p_partkey"],
    )
    date = params["date"]
    line = ex.select(
        "lineitem",
        [Predicate("l_shipdate", _half_open(date, add_years(date, 1)))],
        ["l_partkey", "l_suppkey", "l_quantity"],
    )
    ex.recorder.random(len(line["l_partkey"]), max(1, len(parts["p_partkey"])))
    keep = np.isin(line["l_partkey"], parts["p_partkey"])
    keys, aggs = _grouped_sums(
        [line["l_partkey"][keep], line["l_suppkey"][keep]],
        [("sum", line["l_quantity"][keep].astype(np.float64))],
    )
    half_qty = {
        (int(p), int(s)): 0.5 * q
        for p, s, q in zip(keys[0], keys[1], aggs["0"])
    }
    ps = db.table("partsupp")
    ps_part = ps.values("ps_partkey")
    ps_supp = ps.values("ps_suppkey")
    ps_avail = ps.values("ps_availqty")
    ex.recorder.sequential(3 * len(ps_part))
    suppliers: set[int] = set()
    candidate = np.isin(ps_part, parts["p_partkey"])
    for p, s, avail in zip(
        ps_part[candidate], ps_supp[candidate], ps_avail[candidate]
    ):
        threshold = half_qty.get((int(p), int(s)))
        if threshold is not None and avail > threshold:
            suppliers.add(int(s))
    s_nation = db.table("supplier").values("s_nationkey")
    result = sorted(
        s for s in suppliers if s_nation[s - 1] == params["nation"]
    )
    return [(s,) for s in result]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _below(value: float):
    from repro.cracking.bounds import Interval

    return Interval.at_most(value, inclusive=False)


def _above(value: float):
    from repro.cracking.bounds import Interval

    return Interval.at_least(value, inclusive=False)


def _at_most(value: float):
    from repro.cracking.bounds import Interval

    return Interval.at_most(value, inclusive=True)


def _half_open(lo: float, hi: float):
    from repro.cracking.bounds import Interval

    return Interval.half_open(lo, hi)


def _closed(lo: float, hi: float):
    from repro.cracking.bounds import Interval

    return Interval.closed(lo, hi)


def _year_array(day_ordinals: np.ndarray) -> np.ndarray:
    """Vectorized calendar year of day ordinals (since 1992-01-01)."""
    from repro.workloads.tpch.dates import EPOCH
    import datetime

    years = np.empty(len(day_ordinals), dtype=np.int64)
    # Bucket by year boundaries; 7 years max in the data.
    boundaries = [
        (datetime.date(year, 1, 1).toordinal() - EPOCH, year)
        for year in range(1992, 2000)
    ]
    edges = np.array([b for b, _ in boundaries])
    idx = np.searchsorted(edges, day_ordinals, side="right") - 1
    year_values = np.array([y for _, y in boundaries])
    return year_values[idx]


def _key_lookup(keys: np.ndarray, payload1: np.ndarray, payload2: np.ndarray):
    """Dense-key lookup helpers for ``key -> payload`` joins.

    Returns ``(lookup1, lookup2, valid)`` where ``valid(probe)`` is a mask of
    probes present among ``keys`` and ``lookupX(probe)`` maps present probes
    to their payloads.
    """
    if len(keys) == 0:
        def lookup_empty(probe: np.ndarray) -> np.ndarray:
            return probe[:0]

        def valid_empty(probe: np.ndarray) -> np.ndarray:
            return np.zeros(len(probe), dtype=bool)

        return lookup_empty, lookup_empty, valid_empty
    size = int(keys.max()) + 1
    table1 = np.zeros(size, dtype=payload1.dtype)
    table2 = np.zeros(size, dtype=payload2.dtype)
    present = np.zeros(size, dtype=bool)
    table1[keys] = payload1
    table2[keys] = payload2
    present[keys] = True

    def valid(probe: np.ndarray) -> np.ndarray:
        inside = probe < size
        out = np.zeros(len(probe), dtype=bool)
        out[inside] = present[probe[inside]]
        return out

    def lookup1(probe: np.ndarray) -> np.ndarray:
        return table1[probe]

    def lookup2(probe: np.ndarray) -> np.ndarray:
        return table2[probe]

    return lookup1, lookup2, valid


def results_equal(a: list[tuple], b: list[tuple], tolerance: float = 0.05) -> bool:
    """Compare canonical results, tolerating float-summation-order noise.

    Different systems accumulate revenue sums in different row orders, so
    totals can differ in the last cents; everything else must match exactly.
    """
    if len(a) != len(b):
        return False
    for row_a, row_b in zip(a, b):
        if len(row_a) != len(row_b):
            return False
        for x, y in zip(row_a, row_b):
            if isinstance(x, float) or isinstance(y, float):
                scale = max(1.0, abs(x), abs(y))
                if abs(x - y) > tolerance * max(1.0, scale * 1e-6) + tolerance:
                    return False
            elif x != y:
                return False
    return True


QUERIES = {
    1: q1, 3: q3, 4: q4, 6: q6, 7: q7, 8: q8,
    10: q10, 12: q12, 14: q14, 15: q15, 19: q19, 20: q20,
}
