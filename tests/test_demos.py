import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_demos_run():
    # each demo is a plain script against the source tree
    demos = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
                   if name.endswith(".py"))
    assert len(demos) == 4
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [os.path.join(ROOT, "src"), env.get("PYTHONPATH")])
    )
    for name in demos:
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "demos", name)],
            capture_output=True, text=True, env=env, cwd=ROOT, timeout=120,
        )
        assert proc.returncode == 0, f"{name}: {proc.stderr}"
        assert proc.stdout, name
