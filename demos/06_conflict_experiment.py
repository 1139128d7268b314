"""Vertex congestion bounds crossing counts of random drawings.

Route every pair of a complete graph along a path sampled from the optimal
unit flow through a string graph.  Two drawn edges can only cross if their
paths share or neighbor a vertex; counting such related pairs per trial
gives a number X with E[X] <= 8 m vcong^2, yet X can never drop below the
pair-crossing bound C(n,5)/(n-4) of the complete graph.  Squeezing X from
both sides is what forces string graphs to have large vertex congestion.
"""

import math

from stringsep import (
    drawing_conflict_experiment,
    intersection_graph,
    pcr_lower_bound,
    random_segment_instance,
)

for n, seed in ((7, 2), (8, 2), (9, 2), (10, 2)):
    rep = random_segment_instance(n, seed=seed)
    g, _ = intersection_graph(rep)
    stats = drawing_conflict_experiment(g, trials=500, seed=1)
    guard = 4 * stats.stddev / math.sqrt(stats.trials)
    print(
        f"n={g.n} m={g.m}: vcong={stats.vcong:.3f}  "
        f"{float(pcr_lower_bound(g.n)):7.1f} <= X  "
        f"(min {min(stats.counts)}, mean {stats.mean:.1f})  "
        f"<= {stats.upper_bound:8.1f} + {guard:.1f}"
    )

print("\nthe even-subword device behind the crossing-reduction bound:")
from stringsep import even_subword

for word in ("abba", "abcacb", "aa", "ab"):
    span = even_subword(word)
    shown = "none" if span is None else f"{span} -> {word[span[0]:span[1]]!r}"
    print(f"  {word!r}: {shown}")
