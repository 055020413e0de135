import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bridgetwin import fem
from bridgetwin.dataio import read_layout_entries
from bridgetwin.loading import RandomLoadSpec, load_scenario_config
from bridgetwin.model import (
    MaterialSpec,
    SectionSpec,
    cantilever_template,
    load_model_config,
    simply_supported_beam_template,
)
from bridgetwin.pipeline import TwinContext

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

BRIDGE_YAML = str(CONFIGS / "bridge.yaml")
TRAIN_YAML = str(CONFIGS / "train.yaml")
SENSORS_EAST = str(CONFIGS / "sensors_east.csv")
SENSORS_WEST = str(CONFIGS / "sensors_west.csv")

_capture_manager = None


def cropped_recording(path, out, t0: float):
    """A copy of the recording at ``path`` without its rows before ``t0`` s."""
    header, *rows = Path(path).read_bytes().split(b"\r\n")
    Path(out).write_bytes(b"\r\n".join([header, *(row for row in rows if not row or float(row.split(b",")[0]) >= t0)]))
    return out


def pytest_configure(config):
    global _capture_manager
    _capture_manager = config.pluginmanager.getplugin("capturemanager")


def emit(line: str) -> None:
    """Print past pytest's fd-level capture, so the line reaches the terminal."""
    if _capture_manager is not None:
        with _capture_manager.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


@pytest.fixture(scope="session")
def bundled_ctx():
    """The shipped bridge, train and east-girder gauges."""
    return TwinContext.from_files(BRIDGE_YAML, TRAIN_YAML, SENSORS_EAST)


@pytest.fixture(scope="session")
def study_ctx():
    """Same bridge and train with a light ambient load prior.

    Synthetic recovery studies keep the prior strain spread well below the
    mismatch amplitude so the recovered hyperparameters are attributable to
    the sampler, not to prior misfit.
    """
    scenario, _ = load_scenario_config(TRAIN_YAML)
    return TwinContext(load_model_config(BRIDGE_YAML), scenario,
                       RandomLoadSpec(sigma=150.0, length_scale=1.0),
                       read_layout_entries(SENSORS_EAST))


@pytest.fixture()
def assemble_calls(monkeypatch):
    """The models handed to ``fem.assemble`` while the test runs. Every
    package module that holds the function gets a counting one, so a call
    through a name imported from ``fem`` is counted too."""
    calls = []
    assemble = fem.assemble

    def counted(model):
        calls.append(model)
        return assemble(model)

    for name, module in list(sys.modules.items()):
        if name.startswith("bridgetwin"):
            for attr, value in list(vars(module).items()):
                if value is assemble:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.fixture()
def steel():
    return MaterialSpec(210e9, 0.3)


@pytest.fixture()
def plain_section():
    # round numbers so closed forms stay readable
    return SectionSpec(bending_stiffness=2.0e6, torsion_stiffness=5.0e5, fiber_distance=0.1)


@pytest.fixture()
def ss_beam(plain_section):
    return simply_supported_beam_template(4.0, 4, plain_section)


@pytest.fixture()
def cantilever(plain_section):
    return cantilever_template(2.0, 2, plain_section)
