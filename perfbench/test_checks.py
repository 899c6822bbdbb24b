"""Each output check passes on consistent outputs and fails on a corrupted
one: a swapped grid cell, a retirement counter off by one, a warm cache
entry that differs, and the other corruptions below.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import copy
import unittest

import checks

P = checks.GRID_PROGRAMS
MT = ["MolDyn", "MonteCarlo", "RayTracer", "PseudoJBB"]


def grid_rows():
    rows = []
    for i, a in enumerate(P):
        for j, b in enumerate(P):
            sa, sb = 0.4 + 0.1 * i + 0.02 * j, 0.4 + 0.1 * j + 0.02 * i
            rows.append({"a": a, "b": b, "speedup_a": f"{sa:.4f}", "speedup_b": f"{sb:.4f}",
                         "combined": f"{sa + sb:.4f}", "pair_tc_mpki": "20.000"})
    return rows


def cell(label, kind, cycles=1000, **extra):
    # 600 idle, 100 one-wide, 100 two-wide and 200 three-wide cycles.
    retire = [cycles - 400, 100, 100, 200]
    return dict(label=label, kind=kind, cycles=cycles, instructions=900, uops=900,
                retire=retire, **extra)


def grid_outputs():
    grid = grid_rows()
    diag = {r["a"]: r["combined"] for r in grid if r["a"] == r["b"]}
    fig11 = [{"benchmark": b, "combined": diag[b]} for b in P]
    pick = grid[2 * 9 + 5]
    redrive = [cell("solo/db", "single"), cell("pair/db+jack", "corun", check="pair",
                    a=pick["a"], b=pick["b"], speedup_a=pick["speedup_a"],
                    speedup_b=pick["speedup_b"], combined=pick["combined"])]
    text = "Figure 8 ...\nFigure 9 ...\nExtension: predict pairing from solo profiles\n"
    return {"grid.csv": grid, "fig11.csv": fig11, "pairing-suite.txt": text}, redrive


def swap_cells(grid, x, y):
    """Exchange the measured values of two grid cells, keeping labels."""
    cols = ("speedup_a", "speedup_b", "combined", "pair_tc_mpki")
    for c in cols:
        grid[x][c], grid[y][c] = grid[y][c], grid[x][c]


class GridChecks(unittest.TestCase):
    def test_consistent_grid_passes(self):
        out, redrive = grid_outputs()
        self.assertEqual(checks.check_paper_grid(out, redrive), [])

    def test_swapped_grid_cell_fails(self):
        out, redrive = grid_outputs()
        swap_cells(out["grid.csv"], 0 * 9 + 8, 8 * 9 + 8)  # compress+RayTracer <-> diagonal
        self.assertTrue(checks.check_symmetry(out["grid.csv"]))
        self.assertTrue(checks.check_fig11_diagonal(out["grid.csv"], out["fig11.csv"]))
        self.assertTrue(checks.check_paper_grid(out, redrive))

    def test_swapped_recomputed_cell_fails(self):
        out, redrive = grid_outputs()
        swap_cells(out["grid.csv"], 2 * 9 + 5, 5 * 9 + 2)  # db+jack <-> jack+db
        self.assertTrue(checks.check_recomputed_pairs(out["grid.csv"], redrive))

    def test_recomputed_value_off_by_one_digit_fails(self):
        out, redrive = grid_outputs()
        redrive[1]["combined"] = f"{float(redrive[1]['combined']) + 0.0001:.4f}"
        self.assertTrue(checks.check_recomputed_pairs(out["grid.csv"], redrive))

    def test_missing_cell_fails(self):
        out, redrive = grid_outputs()
        del out["grid.csv"][40]
        self.assertTrue(checks.check_grid_shape(out["grid.csv"]))

    def test_unbounded_speedups_fail(self):
        for col, value in (("speedup_a", "-0.5000"), ("combined", "20.000"),
                           ("speedup_b", "0.0000")):
            out, _ = grid_outputs()
            out["grid.csv"][3][col] = value
            self.assertTrue(checks.check_speedups(out["grid.csv"]), col)

    def test_figure11_off_diagonal_fails(self):
        out, _ = grid_outputs()
        out["fig11.csv"][4]["combined"] = out["grid.csv"][4 * 9 + 3]["combined"]
        self.assertTrue(checks.check_fig11_diagonal(out["grid.csv"], out["fig11.csv"]))

    def test_missing_rendering_fails(self):
        out, redrive = grid_outputs()
        out["pairing-suite.txt"] = "Figure 8 ...\n"
        self.assertTrue(checks.check_paper_grid(out, redrive))


class RetirementCounters(unittest.TestCase):
    def test_consistent_counters_pass(self):
        self.assertEqual(checks.check_retirement_counters([cell("x", "single")]), [])

    def test_counter_off_by_one_fails(self):
        for k in range(4):
            c = cell("x", "single")
            c["retire"][k] += 1
            self.assertTrue(checks.check_retirement_counters([c]), k)

    def test_uops_off_by_one_fails(self):
        c = cell("x", "single")
        c["uops"] += 1
        self.assertTrue(checks.check_retirement_counters([c]))

    def test_nothing_redriven_fails(self):
        self.assertTrue(checks.check_retirement_counters([]))


def mt_row(b, threads, ht, k):
    return {"benchmark": b, "threads": str(threads), "ht": ht, "cycles": str(1000 + k),
            "instructions": str(900 + k), "ipc": f"{0.9 + k / 100:.4f}", "cpi": "1.1000",
            "os_pct": "0.0400", "dt_pct": "0.9900" if ht == "true" else "0.0000",
            "tc_mpki": "3.000", "l1d_mpki": f"{20 + k:.3f}", "l2_mpki": f"{2 + k:.3f}",
            "itlb_mpki": "0.0100", "btb_miss_ratio": "0.0500", "retire0": "0.5000",
            "retire1": "0.1000", "retire2": "0.0100", "retire3": "0.3900"}


def characterize_outputs():
    fig1, table2, fig12, l1, prefetch = [], [], [], [], []
    for k, b in enumerate(MT):
        off, on, eight = mt_row(b, 2, "false", k), mt_row(b, 2, "true", 10 + k), mt_row(b, 8, "true", 20 + k)
        fig1 += [off, on]
        table2 += [dict(on), eight]
        for t in (1, 2, 4, 8, 16):
            src = {2: on, 8: eight}.get(t, mt_row(b, t, "true", 30 + t))
            fig12.append({"benchmark": b, "threads": str(t), "ipc": src["ipc"], "l1d_mpki": src["l1d_mpki"]})
        for kib in (8, 16, 32, 64):
            src = on if kib == 8 else mt_row(b, 2, "true", 40 + kib)
            l1.append({"benchmark": b, "l1d_kib": str(kib), "ipc": src["ipc"], "l1d_mpki": src["l1d_mpki"]})
        prefetch.append({"benchmark": b, "ipc_off": on["ipc"], "ipc_on": "1.5000",
                         "l2_mpki_off": on["l2_mpki"], "l2_mpki_on": "1.000"})
    fig10, partition, jit = [], [], []
    for k, b in enumerate(P):
        off, on = str(2000 + k), str(2500 + k)
        fig10.append({"benchmark": b, "cycles_ht_off": off, "cycles_ht_on": on, "slowdown_pct": "25.000"})
        partition.append({"benchmark": b, "cycles_ht_off": off, "cycles_static": on, "cycles_dynamic": off})
        jit.append({"benchmark": b, "cycles_instant": on, "cycles_background": str(2400 + k), "compiles": "26"})
    out = {"table2.csv": table2, "fig1.csv": fig1, "fig10.csv": fig10, "fig12.csv": fig12,
           "ablation-partition.csv": partition, "ablation-l1.csv": l1,
           "ablation-prefetch.csv": prefetch, "ablation-jit.csv": jit}
    redrive = [cell("fig10/compress/ht=false", "single", cycles=2000, check="fig10",
                    benchmark="compress", ht=False),
               cell("mt/MolDyn/2/ht=true", "mt", cycles=1010, check="mt", benchmark="MolDyn",
                    threads=2, ht=True)]
    redrive[1]["instructions"] = 910
    return out, redrive


class CharacterizeChecks(unittest.TestCase):
    def test_consistent_artifacts_pass(self):
        out, redrive = characterize_outputs()
        self.assertEqual(checks.check_paper_characterize(out, redrive), [])

    def corrupt(self, name, index, col, value):
        out, redrive = characterize_outputs()
        out[name][index][col] = value
        return checks.check_paper_characterize(out, redrive)

    def test_table2_differs_from_figure1_fails(self):
        self.assertTrue(self.corrupt("table2.csv", 0, "l2_mpki", "9.999"))

    def test_figure12_differs_from_table2_fails(self):
        self.assertTrue(self.corrupt("fig12.csv", 3, "ipc", "0.1234"))  # MolDyn, 8 threads

    def test_partition_differs_from_figure10_fails(self):
        self.assertTrue(self.corrupt("ablation-partition.csv", 2, "cycles_static", "1"))

    def test_jit_differs_from_figure10_fails(self):
        self.assertTrue(self.corrupt("ablation-jit.csv", 5, "cycles_instant", "1"))

    def test_l1_8k_differs_from_figure1_fails(self):
        self.assertTrue(self.corrupt("ablation-l1.csv", 4, "l1d_mpki", "0.001"))

    def test_prefetch_off_differs_from_figure1_fails(self):
        self.assertTrue(self.corrupt("ablation-prefetch.csv", 1, "ipc_off", "0.0001"))

    def test_dual_thread_cycles_with_ht_off_fail(self):
        self.assertTrue(self.corrupt("fig1.csv", 0, "dt_pct", "0.0100"))

    def test_missing_row_fails(self):
        out, redrive = characterize_outputs()
        del out["fig12.csv"][7]
        self.assertTrue(checks.check_paper_characterize(out, redrive))

    def test_redriven_cell_differs_from_artifact_fails(self):
        out, redrive = characterize_outputs()
        redrive[0]["cycles"] += 1
        redrive[0]["retire"][0] += 1
        self.assertTrue(checks.check_redriven_rows(out, redrive))
        out, redrive = characterize_outputs()
        redrive[1]["instructions"] += 1
        self.assertTrue(checks.check_redriven_rows(out, redrive))

    def test_redriven_counter_off_by_one_fails(self):
        out, redrive = characterize_outputs()
        redrive[1]["retire"][3] += 1
        self.assertTrue(checks.check_paper_characterize(out, redrive))


def cache_snapshot():
    return {f"{i:016x}.cell": (120, 1_000_000 + i, f"digest{i}") for i in range(90)}


class WarmPassChecks(unittest.TestCase):
    csv = "a,b,speedup_a,speedup_b,combined,pair_tc_mpki\ncompress,compress,0.8,0.8,1.6,15.0\n"

    def test_identical_warm_pass_passes(self):
        snap = cache_snapshot()
        self.assertEqual(checks.check_warm_pass(self.csv, self.csv, snap, dict(snap)), [])

    def test_warm_entry_that_differs_fails(self):
        before = cache_snapshot()
        after = copy.deepcopy(before)
        name = sorted(after)[7]
        after[name] = (120, after[name][1], "other digest")
        self.assertTrue(checks.check_warm_pass(self.csv, self.csv, before, after))

    def test_rewritten_entry_fails(self):
        before = cache_snapshot()
        after = dict(before)
        name = sorted(after)[3]
        after[name] = (120, after[name][1] + 1, after[name][2])
        self.assertTrue(checks.check_warm_pass(self.csv, self.csv, before, after))

    def test_added_or_quarantined_entry_fails(self):
        before = cache_snapshot()
        self.assertTrue(checks.check_warm_pass(self.csv, self.csv, before,
                                               dict(before, **{"ffff.cell": (1, 1, "x")})))
        name = sorted(before)[0]
        after = dict(before)
        after[name + ".quarantine-0"] = after.pop(name)
        self.assertTrue(checks.check_warm_pass(self.csv, self.csv, before, after))

    def test_warm_csv_that_differs_fails(self):
        snap = cache_snapshot()
        warm = self.csv.replace("1.6", "1.7")
        self.assertTrue(checks.check_warm_pass(self.csv, warm, snap, dict(snap)))

    def test_missing_cold_entries_fail(self):
        snap = dict(list(cache_snapshot().items())[:80])
        self.assertTrue(checks.check_warm_pass(self.csv, self.csv, snap, dict(snap)))


if __name__ == "__main__":
    unittest.main()
