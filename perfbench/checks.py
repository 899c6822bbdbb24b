"""Output checks of the paper-regeneration benchmark.

Every check is a pure function over parsed outputs that returns a list of
failure messages (empty when the check passes). They test properties of
the method and compare paths that are independent of the one being
measured; none of them compares against stored numbers, so they hold at
any seed.

Inputs:
- CSV artifacts as lists of dicts (``read_csv``), in the column layout
  ``repro --csv`` prints;
- re-driven cells: one dict per cell from ``perfbench-e2e redrive``, with
  the raw cycle, µop and retirement-width counters of a ``System`` run and,
  for check cells, the values recomputed with the paper's formula;
- cache directory snapshots from ``snapshot_dir``.
"""

import csv
import hashlib
import io
import os

# Single-threaded programs of the pairing grid, in grid order.
GRID_PROGRAMS = ["compress", "jess", "db", "javac", "mpegaudio", "jack",
                 "MolDyn", "MonteCarlo", "RayTracer"]

# |C_ij - C_ji| of two independent co-runs. At --quick the mean is 0.029
# and the maximum 0.11; with one repeat at the default seed the maximum was
# 0.12 at scale 0.02 and 0.27 at 0.01. The tolerance catches a swapped or
# mislabelled cell between programs of different speed.
SYMMETRY_TOL = 0.5
# Each program's share A_S/A_H and the combined speedup C_AB must be
# positive and finite. With one repeat the HT-off baseline averages a
# single execution, and shares above 1 occur (see README.md), so the upper
# bounds only catch values in the wrong column or unit.
SHARE_MAX = 4.0
COMBINED_MAX = 5.0


def read_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def _grid_index(grid):
    return {(r["a"], r["b"]): r for r in grid}


def check_grid_shape(grid):
    cells = _grid_index(grid)
    want = {(a, b) for a in GRID_PROGRAMS for b in GRID_PROGRAMS}
    fails = []
    if len(grid) != len(want) or set(cells) != want:
        fails.append(f"grid has {len(grid)} rows, not the 81 cells of the 9x9 product")
    return fails


def check_symmetry(grid, tol=SYMMETRY_TOL):
    cells = _grid_index(grid)
    fails = []
    for i, a in enumerate(GRID_PROGRAMS):
        for b in GRID_PROGRAMS[i + 1:]:
            if (a, b) not in cells or (b, a) not in cells:
                continue
            gap = abs(float(cells[(a, b)]["combined"]) - float(cells[(b, a)]["combined"]))
            if gap > tol:
                fails.append(f"|C({a},{b}) - C({b},{a})| = {gap:.4f} exceeds {tol}")
    return fails


def check_speedups(grid):
    fails = []
    for r in grid:
        sa, sb, c = float(r["speedup_a"]), float(r["speedup_b"]), float(r["combined"])
        label = f"{r['a']}+{r['b']}"
        if not (0 < sa <= SHARE_MAX and 0 < sb <= SHARE_MAX):
            fails.append(f"{label}: shares {sa}, {sb} outside (0, {SHARE_MAX}]")
        if not 0 < c <= COMBINED_MAX:
            fails.append(f"{label}: combined speedup {c} outside (0, {COMBINED_MAX}]")
        if abs(sa + sb - c) > 2e-4:
            fails.append(f"{label}: combined {c} is not the sum of its shares {sa} + {sb}")
    return fails


def check_fig11_diagonal(grid, fig11):
    """Figure 11's self-pairs are the grid's diagonal cells."""
    cells = _grid_index(grid)
    fails = []
    if sorted(r["benchmark"] for r in fig11) != sorted(GRID_PROGRAMS):
        fails.append(f"Figure 11 has rows {[r['benchmark'] for r in fig11]}")
    for r in fig11:
        diag = cells.get((r["benchmark"], r["benchmark"]))
        if diag is None or diag["combined"] != r["combined"]:
            got = diag and diag["combined"]
            fails.append(f"Figure 11 {r['benchmark']} = {r['combined']} but the grid's diagonal has {got}")
    return fails


def check_recomputed_pairs(grid, redrive):
    """Cells recomputed from System runs with the paper's formula match."""
    cells = _grid_index(grid)
    checked = [c for c in redrive if c.get("check") == "pair"]
    fails = [] if checked else ["no grid cell was recomputed"]
    for c in checked:
        row = cells.get((c["a"], c["b"]))
        if row is None:
            fails.append(f"recomputed cell {c['a']}+{c['b']} is missing from the grid")
            continue
        for col in ("speedup_a", "speedup_b", "combined"):
            if row[col] != c[col]:
                fails.append(f"{c['a']}+{c['b']} {col}: grid {row[col]}, recomputed {c[col]}")
    return fails


def check_retirement_counters(redrive):
    """The four retirement-width cycle counters partition the machine
    cycles, and their µop-weighted sum is the µops retired."""
    fails = [] if redrive else ["no cell was re-driven"]
    for c in redrive:
        r = c["retire"]
        if sum(r) != c["cycles"]:
            fails.append(f"{c['label']}: retirement cycles sum to {sum(r)}, machine ran {c['cycles']}")
        weighted = r[1] + 2 * r[2] + 3 * r[3]
        if weighted != c["uops"]:
            fails.append(f"{c['label']}: weighted retirement {weighted} != µops retired {c['uops']}")
    return fails


def check_paper_grid(out, redrive):
    grid, fig11 = out["grid.csv"], out["fig11.csv"]
    fails = check_grid_shape(grid) + check_symmetry(grid) + check_speedups(grid)
    fails += check_fig11_diagonal(grid, fig11)
    fails += check_recomputed_pairs(grid, redrive)
    fails += check_retirement_counters(redrive)
    text = out["pairing-suite.txt"]
    for title in ("Figure 8", "Figure 9", "predict pairing"):
        if title not in text:
            fails.append(f"pairing-suite rendering lacks {title!r}")
    return fails


ROWS = {"table2.csv": 8, "fig1.csv": 8, "fig10.csv": 9, "fig12.csv": 20,
        "ablation-partition.csv": 9, "ablation-l1.csv": 16,
        "ablation-prefetch.csv": 4, "ablation-jit.csv": 9}


def _by(rows, *cols):
    return {tuple(r[c] for c in cols): r for r in rows}


def _same(fails, what, a, b, cols_a, cols_b=None):
    for ca, cb in zip(cols_a, cols_b or cols_a):
        if a[ca] != b[cb]:
            fails.append(f"{what}: {ca} {a[ca]} != {cb} {b[cb]}")


def check_shared_rows(out):
    """Rows that several artifacts compute must agree."""
    fails = []
    fig1 = _by(out["fig1.csv"], "benchmark", "threads", "ht")
    table2 = _by(out["table2.csv"], "benchmark", "threads", "ht")
    fig10 = _by(out["fig10.csv"], "benchmark")
    cols = list(out["fig1.csv"][0].keys()) if out["fig1.csv"] else []
    ht_on = {k[0]: r for k, r in fig1.items() if k[2] == "true"}
    for (b, t, ht), r in table2.items():
        if t == "2":
            if b not in ht_on:
                fails.append(f"Table 2 {b}/2 has no Figure 1 HT-on row")
            else:
                _same(fails, f"Table 2 {b}/2 vs Figure 1", r, ht_on[b], cols)
    for r in out["fig12.csv"]:
        if r["threads"] in ("2", "8"):
            t2 = table2.get((r["benchmark"], r["threads"], "true"))
            if t2 is None:
                fails.append(f"Figure 12 {r['benchmark']}/{r['threads']} has no Table 2 row")
            else:
                _same(fails, f"Figure 12 {r['benchmark']}/{r['threads']} vs Table 2", r, t2,
                      ["ipc", "l1d_mpki"])
    for r in out["ablation-partition.csv"]:
        f = fig10.get((r["benchmark"],))
        if f is None:
            fails.append(f"partition ablation {r['benchmark']} has no Figure 10 row")
        else:
            _same(fails, f"partition ablation {r['benchmark']} vs Figure 10", r, f,
                  ["cycles_ht_off", "cycles_static"], ["cycles_ht_off", "cycles_ht_on"])
    for r in out["ablation-jit.csv"]:
        f = fig10.get((r["benchmark"],))
        if f is None:
            fails.append(f"JIT ablation {r['benchmark']} has no Figure 10 row")
        else:
            _same(fails, f"JIT ablation {r['benchmark']} vs Figure 10", r, f,
                  ["cycles_instant"], ["cycles_ht_on"])
    for r in out["ablation-l1.csv"]:
        if r["l1d_kib"] == "8":
            _same(fails, f"L1 ablation {r['benchmark']}/8K vs Figure 1", r,
                  ht_on.get(r["benchmark"], {"ipc": None, "l1d_mpki": None}), ["ipc", "l1d_mpki"])
    for r in out["ablation-prefetch.csv"]:
        _same(fails, f"prefetch ablation {r['benchmark']}/off vs Figure 1", r,
              ht_on.get(r["benchmark"], {"ipc": None, "l2_mpki": None}),
              ["ipc_off", "l2_mpki_off"], ["ipc", "l2_mpki"])
    return fails


def check_ht_off_single_context(out):
    """With Hyper-Threading off there is one logical CPU, so no cycle runs
    two threads."""
    fails = []
    for name in ("fig1.csv", "table2.csv"):
        for r in out[name]:
            if r["ht"] == "false" and float(r["dt_pct"]) != 0.0:
                fails.append(f"{name} {r['benchmark']}/{r['threads']} HT off reports dt_pct {r['dt_pct']}")
    return fails


def check_redriven_rows(out, redrive):
    """Cells re-driven through System reproduce the artifacts' rows."""
    fails = []
    fig10 = _by(out["fig10.csv"], "benchmark")
    mt = _by(out["fig1.csv"] + out["table2.csv"], "benchmark", "threads", "ht")
    checked = [c for c in redrive if c.get("check") in ("fig10", "mt")]
    if not checked:
        fails.append("no characterization cell was re-driven")
    for c in checked:
        ht = "true" if c["ht"] else "false"
        if c["check"] == "fig10":
            row = fig10.get((c["benchmark"],))
            col = "cycles_ht_on" if c["ht"] else "cycles_ht_off"
            if row is None or row[col] != str(c["cycles"]):
                fails.append(f"re-driven {c['label']} ran {c['cycles']} cycles, Figure 10 has {row and row[col]}")
        else:
            row = mt.get((c["benchmark"], str(c["threads"]), ht))
            if row is None or (row["cycles"], row["instructions"]) != (str(c["cycles"]), str(c["instructions"])):
                got = row and (row["cycles"], row["instructions"])
                fails.append(f"re-driven {c['label']} ran {c['cycles']} cycles / {c['instructions']} "
                             f"instructions, the artifact has {got}")
    return fails


def check_paper_characterize(out, redrive):
    fails = []
    for name, n in ROWS.items():
        if len(out[name]) != n:
            fails.append(f"{name} has {len(out[name])} rows, expected {n}")
    if fails:
        return fails
    fails += check_shared_rows(out) + check_ht_off_single_context(out)
    fails += check_redriven_rows(out, redrive) + check_retirement_counters(redrive)
    return fails


def snapshot_dir(path):
    """Name -> (size, mtime_ns, sha256) of every file in a cache directory."""
    snap = {}
    for name in sorted(os.listdir(path)):
        full = os.path.join(path, name)
        if os.path.isfile(full):
            st = os.stat(full)
            with open(full, "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            snap[name] = (st.st_size, st.st_mtime_ns, digest)
    return snap


def check_warm_pass(cold_csv, warm_csv, before, after):
    """A warm pass serves every cell from the cache: the same bytes out,
    and no entry added, rewritten or quarantined."""
    fails = []
    if cold_csv != warm_csv:
        fails.append("warm-pass CSV differs from the cold pass")
    added = sorted(set(after) - set(before))
    gone = sorted(set(before) - set(after))
    changed = sorted(n for n in set(before) & set(after) if before[n] != after[n])
    if added:
        fails.append(f"warm pass added {added[:3]}")
    if gone:
        fails.append(f"warm pass removed {gone[:3]}")
    if changed:
        fails.append(f"warm pass rewrote {changed[:3]}")
    quarantined = [n for n in after if "quarantine" in n]
    if quarantined:
        fails.append(f"cache holds quarantined entries {quarantined[:3]}")
    cells = [n for n in before if n.endswith(".cell")]
    if len(cells) != 90:
        fails.append(f"cold pass left {len(cells)} cache entries, not the 90 grid cells")
    return fails


def check_grid_workers_cache(cold_csv, warm_csv, before, after, redrive):
    grid = read_csv(cold_csv)
    fails = check_warm_pass(cold_csv, warm_csv, before, after)
    fails += check_grid_shape(grid) + check_symmetry(grid) + check_speedups(grid)
    fails += check_recomputed_pairs(grid, redrive) + check_recomputed_pairs(read_csv(warm_csv), redrive)
    fails += check_retirement_counters(redrive)
    return fails
