"""Correctness gate: report status, check outcomes, byte-identity of repeated
reports, and the closest any check came to its tolerance."""

import json
import math

# An observation at or below CAP * tolerance (zero, or a negative bound
# violation, which means the value lies inside its bound) counts as
# CAP * tolerance, so a check's margin is at most -log10(CAP) = 12 decades.
CAP = 1e-12


def margin_pairs(report: dict) -> list:
    """The (label, observed, tolerance) pairs of one parsed CLI report; a check
    passes when observed <= tolerance."""
    tols = report["tolerances"]
    pairs = []
    for check in report["checks"]:
        name, det = check["name"], check["details"]
        if name.startswith("gradient-fd/"):
            pairs.append((name, det["max_rel_err"], det["tolerance"]))
        elif name.startswith("bijection/"):
            pairs.append((name + ":roundtrip", det["max_roundtrip_rel_err"],
                          tols["roundtrip_rtol"]))
            pairs.append((name + ":bounds", det["max_bound_violation"],
                          tols["bound_slack"]))
        elif name.startswith("sandwich/"):
            pairs.append((name + ":identity", det["identity_max_rel_err"],
                          det["identity_tol"]))
            pairs.append((name + ":fosp", det["grad_norm"], det["fosp_threshold"]))
            # verify_sandwich accepts index k when both margins are at least
            # -sandwich_margin * scale, scale being the largest |eigenvalue| or 1
            scale = max([1.0] + [abs(v) for v in det["eig_embedded"] + det["eig_quotient"]])
            tol = tols["sandwich_margin"] * scale
            worst = max(-min(row["margin_lo"], row["margin_hi"]) for row in det["per_index"])
            pairs.append((name + ":sandwich", worst, tol))
        elif name.startswith("flow-identical/"):
            pairs.append((name, det["max_deviation"], det["tolerance"]))
        elif name.startswith("flow-difference/"):
            pairs.append((name, det["max_rel_residual"], det["tolerance"]))
    return pairs


def margin_dec(observed: float, tolerance: float) -> float:
    """log10(tolerance / observed), with the observation capped below."""
    return math.log10(tolerance / max(observed, CAP * tolerance))


def check_margin_dec(reports: list) -> float:
    """Minimum margin over every numeric check pair of the parsed reports."""
    return min((margin_dec(obs, tol) for rep in reports for _, obs, tol in margin_pairs(rep)),
               default=math.nan)


class Gate:
    """Accounts every report of a run: status, checks and byte-identity."""

    def __init__(self):
        self.reports_attempted = 0
        self.reports_failed = 0
        self.checks_attempted = 0
        self.checks_failed = 0
        self.problems = []
        self.parsed = []
        self._first_text = {}

    def record(self, key, text, status, error):
        """Account one report. `key` identifies (command, config, seed);
        `text` is the report the CLI printed, `error` an exception it raised."""
        self.reports_attempted += 1
        ok = error is None and status == 0
        if error is not None:
            self.problems.append(f"{key}: raised {error}")
        else:
            report = json.loads(text)
            self.parsed.append(report)
            n_failed = sum(not c["passed"] for c in report["checks"])
            self.checks_attempted += len(report["checks"])
            self.checks_failed += n_failed
            if n_failed or status != 0 or not report["passed"]:
                ok = False
                self.problems.append(f"{key}: status {status}, {n_failed} failed checks")
            first = self._first_text.setdefault(key, text)
            if text != first:
                ok = False
                self.problems.append(f"{key}: report differs from its first run")
        if not ok:
            self.reports_failed += 1

    @property
    def correct(self) -> bool:
        return not self.problems and self.reports_attempted > 0

    def margin(self) -> float:
        return check_margin_dec(self.parsed)
