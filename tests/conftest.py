import pytest
from hypothesis import Phase, settings

from pathshap.graph import load_graph

# tests/mutants.py runs its tests under this profile: any failure kills a
# mutant, so a failing example is neither shrunk nor explained, nor saved
settings.register_profile("mutants", phases=(Phase.explicit, Phase.reuse, Phase.generate), database=None)
# CI runs the tests under this profile: a failing property reports its first
# failing example without shrinking or explaining it, which took one failure
# minutes, and prints the blob that replays it under the default profile
settings.register_profile("ci", phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
                          print_blob=True)

RUNNING_EXAMPLE = """\
# running example graph
v1 a v2 n
v1 a v3 n
v3 a v2 n
v4 a v3 n
v2 b v4 n
v4 b v6 n
v3 b v5 n
v2 b v6 n
v5 c v6 n
"""


@pytest.fixture
def fig_graph():
    return load_graph(RUNNING_EXAMPLE)


@pytest.fixture
def fig_graph_text(tmp_path):
    path = tmp_path / "running.graph"
    path.write_text(RUNNING_EXAMPLE)
    return path
