"""Independent reference model for the benchmark's output checks.

A scalar re-implementation of the hivbrn life-course integrand, written from
the model equations with only ``math`` and ``scipy``; it shares no code with
``src/hivbrn``.  The plateau crossing uses the Lambert W closed form, the
integral nested ``scipy.integrate.quad`` at ``EPSREL``.  References are
cached by a hash of the parameters they depend on (``profile_key``), so the
contact rates and quadrature settings of a scenario never enter the key.

Run as a script to rebuild ``references.json`` for the committed designs:

    python3 bench/model.py
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

EPSREL = 1e-11
# processes that compute missing references (at about 0.4 s per integral)
WORKERS = 2
REFERENCES = Path(__file__).with_name("references.json")

# Per-sex scenario keys that enter the integral (delta does not).
SHAPE_KEYS = (
    "ia1", "M1", "m", "tau1", "M2", "alpha1", "alpha2", "alpha3",
    "ptr_hi", "ptr_lo", "phi", "median", "beta",
)


def profile_key(values: dict, omega: float, anchor_scale: float = 1.0) -> str:
    """Cache key of one sex integral: its shape parameters, horizon and the
    factor applied to both anchor probabilities (``scale_endpoints``)."""
    payload = {k: float(values[k]) for k in SHAPE_KEYS}
    payload["omega"] = float(omega)
    payload["anchor_scale"] = float(anchor_scale)
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:20]


def link(values: dict, anchor_scale: float = 1.0):
    """Per-act transmission probability as a function of the log10 viral load."""
    peak, plateau = values["M1"], values["m"]
    hi = math.log(-math.log1p(-anchor_scale * values["ptr_hi"]))
    lo = math.log(-math.log1p(-anchor_scale * values["ptr_lo"]))
    slope = (hi - lo) / (10.0**peak - 10.0**plateau)
    intercept = lo - slope * 10.0**plateau
    return lambda log_vl: -math.expm1(-math.exp(intercept + slope * 10.0**log_vl))


def integrand(values: dict, anchor_scale: float = 1.0) -> SimpleNamespace:
    """Scalar model functions of one sex: ``log_viral_load(x, y)``,
    ``ptr(x, y)``, ``activity(x, y)``, the integrand
    ``f(x, y) = activity * ptr`` and the Weibull density ``s(y)``."""
    # imported here so that a process which only draws inputs stays free of scipy
    from scipy import special

    ia1, peak, plateau = values["ia1"], values["M1"], values["m"]
    tau, terminal = values["tau1"], values["M2"]
    a1, a2, a3 = values["alpha1"], values["alpha2"], values["alpha3"]
    phi, beta = values["phi"], values["beta"]
    # largest root of M1 r^(a1-1) e^((1-a1)(r-1)) = m, r = x / ia1
    c = (plateau / peak) ** (1.0 / (a1 - 1.0))
    x_plateau = -ia1 * special.lambertw(-c / math.e, k=-1).real
    to_prob = link(values, anchor_scale)
    e2 = math.exp(a2)
    gain = x_plateau * (1.0 + 1.0 / e2)
    offset = 1.0 / (1.0 + e2)
    rate = (1.0 + e2) / x_plateau
    scale = values["median"] * math.log(2.0) ** (-1.0 / beta)

    def log_viral_load(x, y):
        r = gain * (1.0 / (1.0 + math.exp(a2 - x * rate)) - offset) / ia1
        base = peak * r ** (a1 - 1.0) * math.exp((1.0 - a1) * (r - 1.0)) if r > 0 else 0.0
        bump = math.exp(-a3 * (x - y + tau) ** 2)
        return base + (terminal - base) * bump

    def ptr(x, y):
        return to_prob(log_viral_load(x, y))

    def activity(x, y):
        if y <= tau:
            return 0.0
        return (1.0 - x / y) / (1.0 + x * (tau - phi * y) / (y * phi * (y - tau)))

    def f(x, y):
        return activity(x, y) * ptr(x, y)

    def s(y):
        return y ** (beta - 1.0) * beta / scale**beta * math.exp(-((y / scale) ** beta))

    return SimpleNamespace(
        log_viral_load=log_viral_load, ptr=ptr, activity=activity, f=f, s=s
    )


def sex_integral(values: dict, omega: float, anchor_scale: float = 1.0) -> float:
    """Nested adaptive quadrature of ``s(y) * int_0^y f(x, y) dx`` over ``[tau1, omega]``."""
    from scipy import integrate

    model = integrand(values, anchor_scale)
    f, s = model.f, model.s

    def inner(y):
        return integrate.quad(f, 0.0, y, args=(y,), epsabs=0.0, epsrel=EPSREL, limit=400)[0]

    with warnings.catch_warnings():
        warnings.simplefilter("error", integrate.IntegrationWarning)
        return integrate.quad(
            lambda y: s(y) * inner(y), values["tau1"], omega,
            epsabs=0.0, epsrel=EPSREL, limit=400,
        )[0]


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.exists() else {}


def needed(jobs: list[tuple[dict, float, float]], known: dict) -> list:
    """The (values, omega, anchor_scale) jobs whose key is not in ``known``."""
    out, seen = [], set(known)
    for values, omega, scale in jobs:
        key = profile_key(values, omega, scale)
        if key not in seen:
            seen.add(key)
            out.append((values, omega, scale))
    return out


def _compute(job):
    values, omega, scale = job
    return profile_key(values, omega, scale), sex_integral(values, omega, scale)


def compute(jobs: list) -> dict:
    """Reference values for ``jobs`` (see :func:`needed`), keyed by profile key."""
    if len(jobs) > 1:
        import multiprocessing

        with multiprocessing.get_context("spawn").Pool(WORKERS) as pool:
            return dict(pool.map(_compute, jobs))
    return dict(map(_compute, jobs))


def main() -> int:
    import workloads

    jobs = workloads.reference_jobs()
    known = load_references()
    missing = needed(jobs, known)
    print(f"{len(jobs)} reference integrals, {len(missing)} to compute", file=sys.stderr)
    known.update(compute(missing))
    wanted = {profile_key(*job) for job in jobs}
    REFERENCES.write_text(
        json.dumps({k: known[k] for k in sorted(wanted)}, indent=1) + "\n"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
