#!/usr/bin/env python3
"""Print the parameter-count and compression-ratio table for the four
reference model configurations."""

import numpy as np

from fdht.complexity import compression_ratio, dense_lstm_params
from fdht.ht import param_count_config

CONFIGS = [
    # name, m_shape, n_shape, leaf_rank, internal_rank, n_x
    ("UCF11 direct", (4, 4, 4, 4), (16, 16, 16, 15), 14, 12, 57600),
    ("Youtube direct", (4, 4, 4, 4), (16, 16, 16, 15), 14, 11, 57600),
    ("UCF11 CNN front-end", (4, 8, 8, 8), (8, 8, 8, 8), 9, 6, 2048),
    ("HMDB51 CNN front-end", (4, 8, 8, 8), (8, 8, 8, 8), 14, 12, 2048),
]


def main():
    header = f"{'config':<22} {'ht params':>10} {'dense weights':>14} {'dense total':>13} {'ratio':>8}"
    print(header)
    print("-" * len(header))
    for name, m, n, leaf, internal, n_x in CONFIGS:
        ht = param_count_config(m, n, leaf, internal, 4)
        dense_w, dense_total = dense_lstm_params(n_x, int(np.prod(m)))
        ratio = compression_ratio(dense_w, ht)
        print(f"{name:<22} {ht:>10,} {dense_w:>14,} {dense_total:>13,} {ratio:>7,}x")


if __name__ == "__main__":
    main()
