#!/usr/bin/env python3
"""Writes a seeded NDJSON request corpus for `mempart batch`.

    python3 make_corpus.py [--lines N] [--seed S] > requests.ndjson

Random 2-D and 3-D patterns on random arrays, half of them capped, mixed
with translated duplicates of earlier lines (some on another array, a few
also with their dimensions permuted) and two malformed lines. Patterns
whose leading extent is the longer one canonicalize with a permutation,
which often fails the mapping precondition on a capped array, so about a
quarter of the answers come from the solver's identity-order retry.
"""
import argparse
import json
import random


def random_request(rng):
    rank = 3 if rng.random() < 0.3 else 2
    box = [rng.randint(1, 6) for _ in range(rank)]
    # A longer leading extent canonicalizes with a permutation; a shorter
    # one keeps the caller's dimension order.
    box.sort(reverse=rng.random() < 0.3)
    taps = rng.randint(2, 10)
    offsets = []
    for _ in range(4 * taps):
        offset = [rng.randrange(e) for e in box]
        if offset not in offsets:
            offsets.append(offset)
        if len(offsets) == taps:
            break
    if len(offsets) < 2:
        offsets = [[0] * rank, box]
    return {
        "offsets": offsets,
        "shape": [e + rng.randint(2, 32) for e in box],
        "max_banks": 0 if rng.random() < 0.5 else rng.randint(2, 8),
        "bank_bandwidth": 2 if rng.random() < 0.1 else 1,
        "strategy": rng.choice(["fast_fold", "same_size"]),
        "tail": "compact" if rng.random() < 0.3 else "padded",
    }


def duplicate(rng, base):
    rank = len(base["shape"])
    shift = [rng.randint(-20, 20) for _ in range(rank)]
    twin = dict(base)
    twin["offsets"] = [[c + s for c, s in zip(o, shift)] for o in base["offsets"]]
    if rng.random() < 0.5:
        twin["shape"] = [e + rng.randint(-1, 12) for e in base["shape"]]
    if rng.random() < 0.1:
        perm = list(range(rank))
        rng.shuffle(perm)
        twin["offsets"] = [[o[p] for p in perm] for o in twin["offsets"]]
        twin["shape"] = [twin["shape"][p] for p in perm]
    return twin


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--lines", type=int, default=300)
    parser.add_argument("--seed", type=int, default=23)
    args = parser.parse_args()
    rng = random.Random(args.seed)
    lines = []
    while len(lines) < args.lines - 2:
        if lines and rng.random() < 0.35:
            lines.append(duplicate(rng, rng.choice(lines)))
        else:
            lines.append(random_request(rng))
    lines.insert(len(lines) // 3, {"offsets": [[0, 0], [0, 0]], "shape": [8, 8]})
    lines.insert(2 * len(lines) // 3, {"offsets": [[0, 0], [1, 2]], "shape": [8]})
    for line in lines:
        print(json.dumps(line))


if __name__ == "__main__":
    main()
