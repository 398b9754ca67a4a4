"""TPC-H on four physical designs.

Generates a small TPC-H instance and runs three representative queries —
Q6 (pure multi-selection), Q3 (join + group-by + top-k), Q14 (join +
promo-share) — with 8 parameter variations each on all four systems,
printing per-variation latencies.  Watch sideways cracking start near the
scan cost and converge toward the presorted system without ever paying the
presorting step.

Run:  python examples/tpch_demo.py
"""

import time

from repro.engine.database import Database
from repro.workloads.tpch import MODES, ModeExecutor, ParamGen, QUERIES, generate
from repro.workloads.tpch.queries import results_equal


def main() -> None:
    data = generate(scale_factor=0.02, seed=42)
    counts = data.row_counts()
    print("TPC-H instance:", ", ".join(f"{t}={n:,}" for t, n in counts.items()))

    executors = {}
    for mode in MODES:
        db = Database()
        data.load_into(db)
        executors[mode] = ModeExecutor(db, mode)

    for query_id in (6, 3, 14):
        print(f"\n=== Q{query_id} — per-variation latency (ms) ===")
        header = f"{'variation':>9}  " + "  ".join(f"{m:>18}" for m in MODES)
        print(header)
        params_gen = ParamGen(seed=100 + query_id)
        fn = QUERIES[query_id]
        for variation in range(1, 9):
            params = getattr(params_gen, f"q{query_id}")()
            cells = []
            results = {}
            for mode in MODES:
                start = time.perf_counter()
                results[mode] = fn(executors[mode], params)
                cells.append(f"{(time.perf_counter() - start) * 1e3:>18.2f}")
            for mode in MODES[1:]:
                assert results_equal(results[mode], results[MODES[0]]), mode
            print(f"{variation:>9}  " + "  ".join(cells))
        presort = executors["presorted"].engine.presort_seconds
        print(f"(presorted system paid {presort * 1e3:.0f} ms of up-front sorting)")


if __name__ == "__main__":
    main()
