"""Regenerate bench/data/homogeneity.json, the fixed input of `homogeneity`.

    python3 bench/make_fixture.py

The tower is the one `fraisse homogeneity --depth 3 --seed 0` builds. Pair
j is the pair of perturbed signed coordinate injections linf^2 -> top that
the same command draws from rng(j + 7), with the noise halved until the
distortion is under 0.9 delta. Both are written in the library's canonical
JSON, so loading them back reproduces every float bit for bit.
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fraisse import certify, chains, spaces  # noqa: E402

OUT = Path(__file__).resolve().parent / "data" / "homogeneity.json"
DEPTH, SEED, PAIRS, DELTA = 3, 0, 40, 0.05


def draw_pair(top, j):
    rng = np.random.default_rng(j + 7)
    src = spaces.LinfSpace(2)
    mats = []
    for _ in range(2):
        cols = rng.choice(top.dim, size=2, replace=False)
        base = np.zeros((top.dim, 2))
        for c, i in enumerate(cols):
            base[i, c] = rng.choice([-1.0, 1.0])
        noise = rng.normal(size=base.shape)
        scale = DELTA / 4.0
        while True:
            m = base + scale * noise
            nrm = max(spaces.LinearMap(src, top, m).op_norm(), 1.0)
            f = spaces.LinearMap(src, top, m / nrm)
            if scale == 0.0 or f.distortion() <= 0.9 * DELTA:
                break
            scale /= 2.0
        mats.append(certify.fmt_matrix(f.matrix))
    return mats


def main():
    chain = chains.build_gurarij_chain(depth=DEPTH, seed=SEED)
    data = {
        "tower": chain.to_json(),
        "tower_hash": chain.content_hash(),
        "pairs": [draw_pair(chain.top, j) for j in range(PAIRS)],
        "recipe": f"fraisse homogeneity --depth {DEPTH} --seed {SEED}; pair j from rng(j + 7)",
    }
    OUT.parent.mkdir(exist_ok=True)
    OUT.write_text(certify.canonical_dumps(data) + "\n")
    print(f"wrote {OUT.relative_to(ROOT)}: tower {data['tower_hash'][:12]}, {PAIRS} pairs")


if __name__ == "__main__":
    main()
