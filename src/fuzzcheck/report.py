"""Uniform check reports with a line-oriented machine format.

Machine output is `KEY=VALUE`, one per line, keys stable across versions;
every fail carries its witness.  Exit codes: 0 pass, 1 property violated,
2 input/usage error, 3 resource cap exceeded.
"""

from __future__ import annotations

from .record import Record

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_CAP = 3


def fmt_value(v) -> str:
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return "(" + ",".join(fmt_value(x) for x in v) + ")"
    return str(v)


class Report(Record):
    def __init__(self, command: str, verdict: str, provenance: str, witness: dict = None,
                 metrics: dict = None, notes: list = None):  # verdict: "pass" | "fail" | "error"
        self._set(command=command, verdict=verdict, provenance=provenance,
                  witness={} if witness is None else witness,
                  metrics={} if metrics is None else metrics,
                  notes=[] if notes is None else notes)

    @property
    def exit_code(self) -> int:
        return {"pass": EXIT_PASS, "fail": EXIT_FAIL}.get(self.verdict, EXIT_USAGE)

    def render_machine(self) -> str:
        lines = [
            f"COMMAND={self.command}",
            f"VERDICT={self.verdict}",
            f"PROVENANCE={self.provenance}",
        ]
        for key, value in self.witness.items():
            lines.append(f"WITNESS_{key.upper()}={fmt_value(value)}")
        for key, value in self.metrics.items():
            lines.append(f"{key.upper()}={fmt_value(value)}")
        return "\n".join(lines) + "\n"

    def render_human(self) -> str:
        lines = [f"{self.command}: {self.verdict.upper()}  [{self.provenance}]"]
        for key, value in self.witness.items():
            lines.append(f"  witness {key} = {fmt_value(value)}")
        for key, value in self.metrics.items():
            lines.append(f"  {key} = {fmt_value(value)}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines) + "\n"

    def render(self, fmt: str) -> str:
        return self.render_machine() if fmt == "machine" else self.render_human()
