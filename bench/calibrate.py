"""Fixed reference work that measures how fast the host runs right now.

    python3 bench/calibrate.py

It does the kinds of work the simnet commands do, on fixed inputs and
without importing simnet: a cold interpreter and numpy import, JSON parsing
and writing, Python loops over small dicts and lists, and small dense
eigen-decompositions, products and solves.  bench/run.py times it as a
subprocess after every pass, the way it times the commands, so a code
change to simnet never moves it while a slow spell of a shared host does.
"""

import json

import numpy as np

ROUNDS = 6


def main():
    rng = np.random.default_rng(0)
    mats = [rng.standard_normal((n, n)) for n in (1, 2, 3, 4) for _ in range(100)]
    doc = json.dumps({"rows": [{"id": i, "m": m.tolist()} for i, m in enumerate(mats)] * 8})
    total = 0.0
    for _ in range(ROUNDS):
        rows = json.loads(doc)["rows"]
        index = {}
        for row in rows:
            index.setdefault(len(row["m"]), []).append(row["id"])
        for m in mats:
            s = m @ m.T + np.eye(len(m))
            w, v = np.linalg.eigh(s)
            total += float(np.abs(np.linalg.eigvals(m)).max())
            total += float(np.linalg.solve(s, v[:, -1]) @ v[:, 0]) + float(w.min())
        total += sum(len(ids) for ids in index.values())
    print(repr(total))


if __name__ == "__main__":
    main()
