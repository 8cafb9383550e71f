"""Golden table of RF-averaged storage-experiment outputs.

RF-averaged points have no closed form, so the benchmark checks them against
this table: every point of the shipped theta x storage grid on the formate
system, in both modes, under the calibrated Lorentzian RF model with 32x32
quadrature and with 512-shot Monte-Carlo integration at a fixed seed.  It was
recorded once and is stored next to the benchmark; regenerate it with

    PYTHONPATH=src python3 perfbench/golden.py

which takes about two minutes on one core.
"""

import json
import os
import sys

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "golden_rf.json")
ATTENUATIONS = (0.96, 0.92)
NODES = 32
MC_SHOTS = 512
MC_SEED = 11
MODES = ("coded", "control")
# RF-averaged outputs must match the table to this absolute tolerance; the
# components are O(1), and a reordered ensemble sum moves them by ~1e-15.
TOL = 1e-9


def rf_models(nm):
    """(quadrature, monte-carlo) RfModel pair the table was recorded with."""
    quad = nm.RfModel.lorentzian(ATTENUATIONS, nodes=NODES)
    mc = nm.RfModel.lorentzian(ATTENUATIONS, nodes=NODES,
                               integration="monte-carlo", shots=MC_SHOTS,
                               seed=MC_SEED)
    return quad, mc


def key(theta_index, td_index, mode, integration):
    return f"{theta_index}/{td_index}/{mode}/{integration}"


def load(path=GOLDEN_PATH):
    """Map key(...) -> (x_acc, z_acc, x_rej, z_rej)."""
    with open(path) as fh:
        data = json.load(fh)
    return {k: tuple(v) for k, v in data["points"].items()}


def record(nm):
    system = nm.formate_system()
    tds = nm.storage_grid(system)
    quad, mc = rf_models(nm)
    points = {}
    for integration, rf in (("quadrature", quad), ("monte-carlo", mc)):
        for ti, theta in enumerate(nm.THETA_GRID):
            for di, td in enumerate(tds):
                for mode in MODES:
                    out = nm.two_bit_experiment(theta, td, mode=mode, rf=rf,
                                                system=system)
                    points[key(ti, di, mode, integration)] = [
                        *out["accepted"], *out["rejected"]]
    return {
        "system": "formate",
        "thetas": list(nm.THETA_GRID),
        "storage_multiples": list(nm.STORAGE_MULTIPLES),
        "attenuations": list(ATTENUATIONS),
        "nodes": NODES,
        "mc_shots": MC_SHOTS,
        "mc_seed": MC_SEED,
        "points": points,
    }


if __name__ == "__main__":
    from qwork import nmr_sim

    table = record(nmr_sim)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(table['points'])} points to {GOLDEN_PATH}",
          file=sys.stderr)
