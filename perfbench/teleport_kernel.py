"""Teleportation of |-> (mid-circuit measurement and classically
conditioned corrections); measured in the pm basis it always reads 1.

``serve-noisy`` sends this file's text as a request's ``source``, so it
defines exactly one ``@qpu`` kernel.
"""

from repro import bit, qpu


@qpu
def teleport_minus() -> bit:
    alice, bob = 'p0' | '1' & std.flip  # noqa: F821
    m_pm, m_std = 'm' + alice | '1' & std.flip | (pm + std).measure  # noqa: F821
    out = bob | (std.flip if m_std else id) | (pm.flip if m_pm else id)  # noqa: F821
    return out | pm.measure  # noqa: F821
