"""How a report was decided before the analysis had one rule.

A copy of ``_find_conflicts`` as ``uecsm.cli`` defined it, verbatim but
for its type annotations, and of the step of ``analyze_stack`` that set
``report.uecsm`` to the trace verdict when no conflict was found.  The
tests compare the rule of ``uecsm.analysis`` with these on every
combination of deciding verdicts.
"""


def _find_conflicts(report):
    conflicts = []
    verdicts = report.verdicts
    trace = verdicts.get("uecsm")
    if trace is None:
        return conflicts
    sat_v = verdicts.get("sat")
    if sat_v is not None and sat_v.passed != trace.passed:
        conflicts.append(("uecsm", "sat"))
    wat_v = verdicts.get("wat")
    if wat_v is not None and trace.passed and not wat_v.passed:
        conflicts.append(("uecsm", "wat"))
    # a witness or a refutation decides; an inconclusive oracle does not
    oracle = report.oracle
    if oracle is not None and oracle.status != "inconclusive" and oracle.found != trace.passed:
        conflicts.append(("uecsm", "oracle"))
    return conflicts


def decide(report):
    """The ``(conflicts, uecsm)`` that the report was given."""
    conflicts = _find_conflicts(report)
    uecsm = None
    if not conflicts:
        uecsm = report.verdicts["uecsm"].passed
    return conflicts, uecsm
