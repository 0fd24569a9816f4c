"""Golden tables: the shipped outputs, regenerated and compared value by value.

``tests/golden/`` holds what these commands write or print: the shipped
experiments, and ``simulate``, ``infer`` and ``estimate`` on the README's
network at ``--seed 3``.  Run from ``tests/golden/``, they rewrite every file::

    netprobe experiment fig1a --out fig1a.json
    netprobe experiment fig1b --out fig1b.json
    netprobe experiment fig1c --out fig1c.json
    netprobe generate --n 20 --p 0.08 --seed 102 --weights-out w.txt
    netprobe simulate --weights w.txt --steps 12 --seed 3 --excite-node 1 --excite-time 6 --excite-magnitude 17 --out simulate.csv
    netprobe infer --weights w.txt --excite-node 1 --seed 3 --out infer_onehop.json
    netprobe infer --weights w.txt --excite-node 1 --max-hop 3 --seed 3 --out infer_multihop.json
    netprobe infer --weights w.txt --excite-node 1 --rounds 8 --seed 3 --out infer_multi.json
    netprobe estimate ols --weights w.txt --pairs 25 --seed 3 > estimate_ols.json
    netprobe estimate constrained --weights w.txt --pairs 25 --seed 3 --excite-node 1 --constraints-out constraints.txt > estimate_constrained.json
    rm w.txt

Integers, strings and booleans must match exactly.  Floats agree to 1e-12
relative, so that NumPy versions and BLAS thread counts that round the last
bits differently still pass; a golden 0.0 must come out exactly 0.0.  A
change that moves a shipped value commits the rewritten files, so that the
diff shows each moved value.
"""

import json
import math
from pathlib import Path

from netprobe import cli

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12

EXPERIMENTS = ("fig1a", "fig1b", "fig1c")
INFER = {
    "infer_onehop.json": (),
    "infer_multihop.json": ("--max-hop", "3"),
    "infer_multi.json": ("--rounds", "8"),
}
SIMULATE = ("--steps", "12", "--excite-node", "1", "--excite-time", "6", "--excite-magnitude", "17")
ESTIMATE = {
    "estimate_ols.json": ("ols",),
    "estimate_constrained.json": ("constrained", "--excite-node", "1", "--constraints-out", "{d}/constraints.txt"),
}


def first_difference(got, want, path="$"):
    """The path of the first value where ``got`` leaves ``want``, or None."""
    if type(got) is not type(want):
        return f"{path}: {got!r} is not {want!r}"
    if isinstance(want, dict):
        if list(got) != list(want):
            return f"{path}: keys {list(got)} are not {list(want)}"
        return next(
            (d for key in want if (d := first_difference(got[key], want[key], f"{path}[{key!r}]"))),
            None,
        )
    if isinstance(want, list):
        if len(got) != len(want):
            return f"{path}: {len(got)} items, not {len(want)}"
        return next(
            (d for k, pair in enumerate(zip(got, want)) if (d := first_difference(*pair, f"{path}[{k}]"))),
            None,
        )
    if isinstance(want, float):
        both_nan = math.isnan(got) and math.isnan(want)
        if both_nan or got == want or (want != 0.0 and abs(got - want) <= REL_TOL * abs(want)):
            return None
    elif got == want:
        return None
    return f"{path}: {got!r} is not {want!r}"


def csv_line(line: str):
    """A trajectory CSV line: the header and ``# excite`` lines as strings, value rows parsed."""
    if line.startswith(("t,", "#")):
        return line
    t, node, state, observation = line.split(",")
    return [int(t), int(node), float(state), float(observation)]


def read(name: str, directory: Path):
    text = (directory / name).read_text()
    if name.endswith(".csv"):
        return [csv_line(line) for line in text.splitlines()]
    if name.endswith(".txt"):
        # constraint lines ``i j kind``
        return [[int(i), int(j), kind] for i, j, kind in (line.split() for line in text.splitlines())]
    return json.loads(text)


def test_outputs_match_golden_files(tmp_path, capsys):
    weights = str(tmp_path / "w.txt")
    for figure in EXPERIMENTS:
        assert cli.main(["experiment", figure, "--out", str(tmp_path / f"{figure}.json")]) == 0
    assert cli.main(["generate", "--n", "20", "--p", "0.08", "--seed", "102", "--weights-out", weights]) == 0
    trial = ("--weights", weights, "--seed", "3")
    assert cli.main(["simulate", *SIMULATE, *trial, "--out", str(tmp_path / "simulate.csv")]) == 0
    for name, options in INFER.items():
        argv = ["infer", *options, *trial, "--excite-node", "1", "--out", str(tmp_path / name)]
        assert cli.main(argv) == 0
    capsys.readouterr()
    for name, mode in ESTIMATE.items():
        argv = ["estimate", *(a.format(d=tmp_path) for a in mode), *trial, "--pairs", "25"]
        assert cli.main(argv) == 0
        (tmp_path / name).write_text(capsys.readouterr().out)

    names = sorted(path.name for path in GOLDEN.iterdir())
    assert names == sorted([f"{f}.json" for f in EXPERIMENTS] + [*INFER, *ESTIMATE, "constraints.txt", "simulate.csv"])
    mismatches = [
        f"{name}: {diff}"
        for name in names
        if (diff := first_difference(read(name, tmp_path), read(name, GOLDEN)))
    ]
    assert not mismatches, "\n".join(mismatches)
