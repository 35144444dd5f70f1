"""Built-in benchmark datasets.

The karate club network (34 members, 78 friendship ties, two factions after
the club split) is embedded as edge-list and label-file text, so `detect
--input builtin:karate` works without any files on disk and parses as a file
would.  Larger benchmarks such as the political web blogs network must be
supplied by the user as edge-list files.
"""

_KARATE_PAIRS = [
    (1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (1, 7), (1, 8), (1, 9), (1, 11),
    (1, 12), (1, 13), (1, 14), (1, 18), (1, 20), (1, 22), (1, 32), (2, 3), (2, 4),
    (2, 8), (2, 14), (2, 18), (2, 20), (2, 22), (2, 31), (3, 4), (3, 8), (3, 9),
    (3, 10), (3, 14), (3, 28), (3, 29), (3, 33), (4, 8), (4, 13), (4, 14), (5, 7),
    (5, 11), (6, 7), (6, 11), (6, 17), (7, 17), (9, 31), (9, 33), (9, 34), (10, 34),
    (14, 34), (15, 33), (15, 34), (16, 33), (16, 34), (19, 33), (19, 34), (20, 34), (21, 33),
    (21, 34), (23, 33), (23, 34), (24, 26), (24, 28), (24, 30), (24, 33), (24, 34), (25, 26),
    (25, 28), (25, 32), (26, 32), (27, 30), (27, 34), (28, 34), (29, 32), (29, 34), (30, 33),
    (30, 34), (31, 33), (31, 34), (32, 33), (32, 34), (33, 34),
]

# Faction membership after the split: Mr. Hi's group vs. the officers' group.
_MRHI_MEMBERS = {1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 14, 17, 18, 20, 22}

KARATE_EDGES = "".join(f"{u} {v}\n" for u, v in _KARATE_PAIRS)
KARATE_LABELS = "".join(f"{i} {'mrhi' if i in _MRHI_MEMBERS else 'officer'}\n"
                        for i in range(1, 35))

# name -> (edge-list text, label-file text)
BUILTIN = {"karate": (KARATE_EDGES, KARATE_LABELS)}
