"""A fixed pure-Python kernel that measures how fast the host runs right now.

On a shared machine, other tenants' load slows every operation, in phases of
seconds to minutes. The benchmark times this kernel between operations, about
one part in seven of the run, and scales its timings by how much slower the
kernel's fastest run was than on a quiet host. The kernel does the same kind
of work as arglog, a well-founded model over a few thousand atoms with dict
indexes and frozensets, so that load slows both alike; it does not use arglog,
so that a change to arglog does not move it.
"""

from __future__ import annotations

# the fastest calibrate() on a quiet 2-vCPU Intel Xeon virtual machine,
# Python 3.11: the reference to which the benchmark's timings are scaled
REFERENCE_S = 0.015

_N = 1500
# per i: a chain p_i through p_{i-1} guarded by an even loop (q_i, r_i), and a
# second support for p_i through one of 50 facts e_j, of which a third hold
_RULES = [(("p", 0), (), ())]
for _i in range(1, _N):
    _RULES += [
        (("p", _i), (("p", _i - 1),), (("q", _i),)),
        (("q", _i), (), (("r", _i),)),
        (("r", _i), (), (("q", _i),)),
        (("p", _i), (("e", _i % 50),), ()),
    ]
_FACTS = frozenset(("e", j) for j in range(0, 50, 3))
_ATOMS = frozenset(head for head, _, _ in _RULES) | _FACTS


def _least_model(false: frozenset) -> frozenset:
    """Least model of the rules whose negative body lies in `false`."""
    waiting, by_atom, todo = {}, {}, list(_FACTS)
    for k, (head, pos, neg) in enumerate(_RULES):
        if not all(a in false for a in neg):
            continue
        waiting[k] = len(pos)
        if not pos:
            todo.append(head)
        for a in pos:
            by_atom.setdefault(a, []).append(k)
    model = set()
    while todo:
        atom = todo.pop()
        if atom in model:
            continue
        model.add(atom)
        for k in by_atom.get(atom, ()):
            waiting[k] -= 1
            if waiting[k] == 0:
                todo.append(_RULES[k][0])
    return frozenset(model)


def calibrate() -> tuple[int, int]:
    """The well-founded model by alternating fixpoint: (true, possible) sizes."""
    true = frozenset()
    while True:
        possible = _least_model(_ATOMS - true)
        new_true = _least_model(_ATOMS - possible)
        if new_true == true:
            return len(true), len(possible)
        true = new_true
