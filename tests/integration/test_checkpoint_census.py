"""Every class a real checkpoint pickles is inside RL103's proof.

RL103 proves snapshot safety for the classes its reachability closure
(rooted at ``System``) reaches, so a class a checkpoint contains but the
closure misses is a class no rule checks.  This census builds each
scheme with every optional subsystem armed (sanitizer ``full``, fault
profile ``storm``), runs it briefly, pickles it exactly as a checkpoint
does (``codec.SnapshotPickler`` inside ``checkpoint.quiesced``), and
asserts that every ``repro.*`` class the pickler meets is reachable.

Enum members are exempt: they pickle by name (class plus member value),
so no instance state of theirs enters a checkpoint.
"""

import enum
import io
from pathlib import Path

import pytest

from repro import SCHEMES, build_system, workload_by_name
from repro.common.config import CheckConfig
from repro.faults.profiles import resolve_profile
from repro.lint.program.model import build_program_model
from repro.snapshot import codec
from repro.snapshot.checkpoint import quiesced

REPO_ROOT = Path(__file__).resolve().parents[2]


class _CensusPickler(codec.SnapshotPickler):
    """The checkpoint pickler, recording each project class it meets."""

    def __init__(self, buffer):
        super().__init__(buffer, protocol=codec.PICKLE_PROTOCOL)
        self.classes = set()

    def reducer_override(self, obj):
        cls = type(obj)
        if cls.__module__.startswith("repro.") and not issubclass(cls, enum.Enum):
            self.classes.add(f"{cls.__module__}:{cls.__qualname__}")
        return super().reducer_override(obj)


@pytest.fixture(scope="module")
def reachable():
    return set(build_program_model(REPO_ROOT, []).reachable)


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_every_checkpointed_class_is_checkpoint_reachable(scheme, reachable):
    system = build_system(
        scheme,
        workload_by_name("lbmx4"),
        scale=1024,
        check=CheckConfig(level="full"),
        faults=resolve_profile("storm"),
    )
    system.run(200, 200)
    pickler = _CensusPickler(io.BytesIO())
    with quiesced(system):
        pickler.dump(system)
    # The scheme's controller, the sanitizer's checkers and the fault
    # machinery all made it into the pickle.
    assert len(pickler.classes) > 30
    missing = sorted(pickler.classes - reachable)
    assert missing == [], (
        f"{scheme} checkpoints contain {len(missing)} class(es) RL103 "
        f"cannot reach from System: {missing}"
    )
