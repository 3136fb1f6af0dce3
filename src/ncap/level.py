"""Autonomy-level classification from layered capability profiles.

A platform's autonomy stack has four layers: perception, modeling,
planning, execution. Each layer builds on the one below it, so the level
is the length of the unbroken run of capabilities above perception:
0 = sensors only, 1 = builds a model, 2 = also plans, 3 = also executes
plans without a human in the loop.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import DomainError, InadmissibleProfileError

LAYERS_ABOVE_PERCEPTION = ("modeling", "planning", "execution")


class CapabilityProfile(NamedTuple):
    """Per-platform capability booleans, with optional free-text evidence notes."""

    platform: str
    modeling: bool
    planning: bool
    execution: bool
    perception: bool = True
    evidence: Mapping[str, str] = MappingProxyType({})


class AutonomyLevel(NamedTuple):
    """Classified level in 0..3 plus notes about skipped (non-cumulative) layers."""

    value: int
    warnings: tuple[str, ...] = ()


def classify(profile: CapabilityProfile) -> AutonomyLevel:
    """Classify a capability profile into an autonomy level 0..3.

    The level counts consecutive capabilities starting at modeling. A
    capability declared above a gap (say, execution without planning)
    cannot raise the level, because each layer feeds the next; it is
    reported as a warning instead.

    Raises InadmissibleProfileError if the profile lacks perception: a
    platform with no sensors cannot be assessed at all; DomainError for no profile.
    """
    try:
        if not profile.perception:
            raise InadmissibleProfileError(
                f"platform {profile.platform!r} declares no perception layer"
            )
        flags = (profile.modeling, profile.planning, profile.execution)
    except AttributeError:  # None, a mapping, or another record
        raise DomainError(f"not a capability profile: {profile!r}") from None
    value = 0
    for flag in flags:
        if not flag:
            break
        value += 1
    warnings = tuple(
        f"{profile.platform}: {name} capability ignored; "
        f"lower layer {LAYERS_ABOVE_PERCEPTION[i - 1]} is absent"
        for i, (name, flag) in enumerate(zip(LAYERS_ABOVE_PERCEPTION, flags))
        if flag and i > value
    )
    return AutonomyLevel(value=value, warnings=warnings)
