"""The demo scripts run against the public API and leave no files behind."""

import os
import pathlib
import subprocess
import sys

from ontomap import cli

ROOT = pathlib.Path(__file__).parent.parent
DEMOS = ROOT / "demos"


def test_demos_run_and_leave_demos_dir_unchanged(tmp_path):
    scripts = sorted(p.name for p in DEMOS.iterdir())
    src = str(pathlib.Path(cli.__file__).parents[1])
    env = dict(os.environ, TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    for script in scripts:
        proc = subprocess.run([sys.executable, str(DEMOS / script)],
                              capture_output=True, cwd=ROOT, env=env)
        assert proc.returncode == 0, (script, proc.stderr.decode())
    assert scripts == ["01_ontology_and_reasoning.py",
                       "02_concept_graph_clusters.py",
                       "03_constrained_topics.py"]
    assert sorted(p.name for p in DEMOS.iterdir()) == scripts
    # the concept-graph demo wrote its exports under the temporary directory
    assert sorted(p.name for p in tmp_path.glob("*/concepts.*")) == [
        "concepts.dot", "concepts.graphml", "concepts.json"]
