"""Record the CLI outputs that the cli_cold and sweep_dense checks compare to.

    python3 perfbench/record.py

Run from the repository root at the commit whose outputs are the reference.
It writes ``perfbench/expected/<workload>.json`` (argv, exit code and family
of every command) and one CSV per command.
"""

import contextlib
import io
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.abspath("src"))

import rspho.cli  # noqa: E402

SPIN = "--symmetry spin --C 0.005 --M 5"
PSEUDO = "--symmetry pseudospin --C 0.005 --M 3"

# The README commands; the tables print 12 decimals (see workloads.CliCold).
CLI_COLD = {
    "solve": "solve --symmetry spin --n 1 --m 0 --A 6 --B -0.05 --C 0.005 --K 5 --M 5",
    "table_spin1": "table --which spin1 --precision 12",
    "table_pseudospin2": "table --which pseudospin2 --precision 12",
    "sweep": "sweep --vary A --from 6 --to 7.5 --steps 16 --series n --series-values 1,2,3 "
             "--symmetry spin --B -0.05 --C 0.005 --K 5 --M 5",
    "wavefunction": "wavefunction --symmetry spin --n 2 --m 0 --A 6 --B -0.05 --C 0.005 "
                    "--K 5 --M 5",
    "potential": "potential --A 6 --B -0.05 --C 0.005 --K 5 --r-min 0.5 --r-max 3",
    "thermo": "thermo --A 6 --B -0.05 --C 0.005 --K 5 --mu 5 --T-min 0.1 --T-max 5",
    "verify": "verify --suite all",
}

# sweep_dense: family -> variants.  Every sweep has 24 steps and 3 series.
SWEEP = "sweep --steps 24 --precision 12"
SWEEP_DENSE = {
    "table": {
        "spin1": "table --which spin1 --precision 12",
        "pseudospin2": "table --which pseudospin2 --precision 12",
    },
    "spin_vs_A": {
        f"k{k}": f"{SWEEP} --vary A --from {a0} --to {a1} --series n --series-values 0,1,2 "
                 f"{SPIN} --B -0.05 --K {k}"
        for a0, a1, k in ((5, 9, 5), (4, 8, 3), (6, 10, 8))
    },
    "pseudospin_vs_K": {
        f"a{a}": f"{SWEEP} --vary K --from {k0} --to {k1} --series n --series-values 1,2,3 "
                 f"{PSEUDO} --A {a} --B 0.5"
        for k0, k1, a in ((-8, -2, -4), (-10, -3, -3), (-6, -1, -5))
    },
    "series_m": {
        f"n{n}": f"{SWEEP} --vary A --from {a0} --to {a1} --series m --series-values 0,1,2 "
                 f"--n {n} {PSEUDO} --B 0.5 --K -5"
        for a0, a1, n in ((-5, -2.5, 1), (-5, -2.5, 2), (-4, -1, 3))
    },
    "no_bound_state": {
        f"n{n}": f"{SWEEP} --vary B --from {b0} --to {b1} --series m --series-values 0,1,2 "
                 f"--n {n} {SPIN} --A 6 --K 5"
        for b0, b1, n in ((-0.1, 0.3, 1), (-0.2, 0.2, 2), (-0.15, 0.25, 0))
    },
    "equation_convention": {
        f"k{k}": f"{SWEEP} --vary A --from 5 --to 9 --series n --series-values 1,2,3 "
                 f"{SPIN} --B -0.05 --K {k} --convention equation"
        for k in (5, 3, 8)
    },
    "pseudospin_vs_A": {
        f"b{b}": f"{SWEEP} --vary A --from -6 --to -2 --series n --series-values 1,2,3 "
                 f"{PSEUDO} --B {b} --K -5"
        for b in (0.5, 0.3, 0.8)
    },
}


def record(workload: str, commands: dict[str, tuple[str, str]]) -> None:
    out_dir = os.path.join(HERE, "expected", workload)
    os.makedirs(out_dir, exist_ok=True)
    catalogue = {}
    for key, (family, command) in commands.items():
        argv = command.split()
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = rspho.cli.main(argv)
        path = os.path.join(workload, key + ".csv")
        with open(os.path.join(HERE, "expected", path), "w", encoding="utf-8",
                  newline="") as fh:
            fh.write(buf.getvalue())
        catalogue[key] = {"argv": argv, "exit": code, "family": family, "file": path}
    with open(os.path.join(HERE, "expected", workload + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(catalogue, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    record("cli_cold", {key: ("readme", cmd) for key, cmd in CLI_COLD.items()})
    record("sweep_dense", {f"{family}-{variant}": (family, cmd)
                           for family, variants in SWEEP_DENSE.items()
                           for variant, cmd in variants.items()})
