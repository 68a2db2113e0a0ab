"""Render the toy corpus for one seed into a dataset container.

    python3 perfbench/prepare.py OUT.occt SEED OBJECT_NOISE RESOLUTION POINTS

The pretrain-toy and embed-desk workloads run this in a child process, so
that making their inputs does not count toward their own peak memory.
"""

import sys
from pathlib import Path


def main(out: str, seed: str, object_noise: str, resolution: str, points: str) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    from occpoint.dataset import generate_triplets, save_dataset
    from occpoint.synthetic import toy_object_set

    data = generate_triplets(
        toy_object_set(int(seed)), feature_dim=64, resolution=int(resolution),
        n_points=int(points), seed=int(seed), object_noise=float(object_noise),
    )
    save_dataset(out, data)


if __name__ == "__main__":
    main(*sys.argv[1:])
