"""Campaign specs: the one spec expander, submission validation and the
seeded audit sampler.

``repro sweep``, ``repro audit`` and the campaign daemon all turn a spec
into points here, so a local sweep and a served campaign of one spec run
the same ``RunConfig`` list in the same order.
"""

import hashlib
from typing import Dict, List, Tuple

from repro.harness.simulator import RunConfig

__all__ = ["ValidationError", "MAX_POINTS_PER_CAMPAIGN", "MAX_INSTRUCTIONS",
           "validate_spec", "configs_from_spec", "should_audit"]

# Hard ceiling on points per submission: a cross product past this is a
# spec mistake, not a workload (the queue bound handles real volume).
MAX_POINTS_PER_CAMPAIGN = 4096
MAX_INSTRUCTIONS = 50_000_000


class ValidationError(ValueError):
    """A submission spec is malformed (HTTP 400)."""


# Submission fields; a spec is a cross product or a point list.
_CROSS_FIELDS = ("workloads", "engines", "instructions")
_SUBMIT_FIELDS = {*_CROSS_FIELDS, "points", "priority"}


def validate_spec(doc: Dict, known_workloads) -> Tuple[Dict, List[RunConfig]]:
    """``(normalized spec, configs)`` of one submission, or
    :class:`ValidationError` (HTTP 400): unknown field, workload or
    engine, an instruction budget outside ``[1, MAX_INSTRUCTIONS]``,
    over ``MAX_POINTS_PER_CAMPAIGN`` points, both forms at once, or a
    host path (``snapshot_dir``/``checkpoint_dir``) in a point."""
    if not isinstance(doc, dict):
        raise ValidationError("submission body must be a JSON object")
    unknown = sorted(set(doc) - _SUBMIT_FIELDS)
    if unknown:
        raise ValidationError(f"unknown fields: {unknown}")
    if "points" in doc:
        if any(f in doc for f in _CROSS_FIELDS):
            raise ValidationError("give 'points' or a cross product, "
                                  "not both")
        spec = {"points": doc["points"]}
        if (not isinstance(spec["points"], list) or not spec["points"]
                or not all(isinstance(p, dict) for p in spec["points"])):
            raise ValidationError("'points' must be a non-empty list of "
                                  "RunConfig objects")
        if any(p.get(f) is not None for p in spec["points"]
               for f in ("snapshot_dir", "checkpoint_dir")):
            raise ValidationError("host paths (snapshot_dir, "
                                  "checkpoint_dir) are not accepted")
        count = len(spec["points"])
    else:
        spec = {"instructions": doc.get("instructions", 100_000)}
        for f in ("workloads", "engines"):
            names = doc.get(f)
            if (not isinstance(names, list) or not names
                    or not all(isinstance(n, str) for n in names)):
                raise ValidationError(f"{f!r} must be a non-empty list "
                                      "of names")
            spec[f] = list(dict.fromkeys(names))
        count = len(spec["workloads"]) * len(spec["engines"])
    if count > MAX_POINTS_PER_CAMPAIGN:
        raise ValidationError(f"{count} points exceeds the per-campaign "
                              f"cap of {MAX_POINTS_PER_CAMPAIGN}")
    try:
        configs = configs_from_spec(spec)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"invalid point: {exc}") from None
    for c in configs:
        n = c.max_instructions
        if (not isinstance(n, int) or isinstance(n, bool)
                or not 1 <= n <= MAX_INSTRUCTIONS):
            raise ValidationError("instruction budgets must be ints in "
                                  f"[1, {MAX_INSTRUCTIONS}]")
    unknown = sorted({str(c.workload) for c in configs}
                     - set(known_workloads))
    if unknown:
        raise ValidationError(f"unknown workloads: {unknown}")
    if "points" in spec:
        spec = {"points": [c.to_dict() for c in configs]}
    return spec, configs


def configs_from_spec(spec: Dict) -> List[RunConfig]:
    """The one spec expander (daemon, ``sweep``, ``audit``): the cross
    product of ``{"workloads", "engines", "instructions"}``, or
    ``{"points": [RunConfig.to_dict(), ...]}``, deduplicated by
    ``cache_key()`` in first-seen order."""
    if "points" not in spec:
        # Distinct (workload, engine) names mint distinct keys.
        return [RunConfig(workload=w, engine=e,
                          max_instructions=spec["instructions"])
                for w in dict.fromkeys(spec["workloads"])
                for e in dict.fromkeys(spec["engines"])]
    unique: Dict[str, RunConfig] = {}
    for point in spec["points"]:
        config = RunConfig.from_dict(point)
        unique.setdefault(config.cache_key(), config)
    return list(unique.values())


def should_audit(key: str, rate: float, seed: int = 0) -> bool:
    """Deterministically sample ``key`` at ``rate`` under ``seed``.

    The decision is a pure function of (seed, key): the same campaign
    audited twice samples the same points, and changing the seed redraws
    the sample without touching any journal state.
    """
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    digest = hashlib.sha256(f"{seed}:{key}".encode()).digest()
    draw = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return draw < rate
