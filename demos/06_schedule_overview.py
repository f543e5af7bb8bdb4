"""The complete base-case schedule behind the two inductions.

Verifying the order-K(t) statements for every t up to 82 on both
branches is all the computation the nondefectivity proofs need; the rest
is exact arithmetic.  The schedule lists each statement's plan: its
points, shape and expected rank.  The final entries live in a
98770-dimensional space, which is why the full run wants big hardware
while everything through t = 33 fits on a desk.
"""

from chowdefect import base_case_schedule, config_for

for config in (config_for("quaternary"), config_for("cubics")):
    schedule = base_case_schedule(config)
    print(f"{config.family}: {len(schedule)} statements, t = {schedule[0]['t']} .. {schedule[-1]['t']}")
    for p in (schedule[0], schedule[len(schedule) // 2], schedule[-1]):
        print(f"  t={p['t']:<3} {p['branch']}  K={p['i']}  points={p['points']:<4} "
              f"matrix {p['rows']} x {p['cols']}  expected rank {p['expected']} ({p['abundance']})")
    print()
