import itertools

import pytest

from ncap import CapabilityProfile, DomainError, InadmissibleProfileError, classify

from golden import CAPABILITIES, LEVELS


def profile(platform, modeling, planning, execution, perception=True):
    return CapabilityProfile(
        platform=platform,
        modeling=modeling,
        planning=planning,
        execution=execution,
        perception=perception,
    )


def test_no_capabilities_is_level_zero():
    assert classify(profile("C", False, False, False)).value == 0


def test_modeling_only_is_level_one():
    assert classify(profile("B", True, False, False)).value == 1


def test_full_stack_is_level_three():
    result = classify(profile("E", True, True, True))
    assert result.value == 3
    assert result.warnings == ()


def test_skipped_layer_is_ignored_with_warning():
    result = classify(profile("X", False, True, False))
    assert result.value == 0
    assert len(result.warnings) == 1
    assert "planning" in result.warnings[0]


def test_execution_without_planning_warns():
    result = classify(profile("X", True, False, True))
    assert result.value == 1
    assert len(result.warnings) == 1
    assert "execution" in result.warnings[0]


def test_perception_is_required():
    with pytest.raises(InadmissibleProfileError):
        classify(profile("X", True, True, True, perception=False))


@pytest.mark.parametrize("value", [None, {"modeling": True}, ("X", True, True, True)])
def test_a_value_that_is_no_profile_is_named(value):
    with pytest.raises(DomainError) as raised:
        classify(value)
    assert str(raised.value) == f"not a capability profile: {value!r}"


def test_benchmark_levels():
    got = {
        platform: classify(profile(platform, *flags)).value
        for platform, flags in CAPABILITIES.items()
    }
    assert got == LEVELS


def test_classify_is_monotone():
    for flags in itertools.product([False, True], repeat=3):
        base = classify(profile("X", *flags)).value
        for i in range(3):
            if flags[i]:
                continue
            raised = list(flags)
            raised[i] = True
            assert classify(profile("X", *raised)).value >= base
