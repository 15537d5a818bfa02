"""What `import resoplus` loads: no more than the library uses."""
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_import_leaves_openssl_out():
    # the trial seeds' blake2b comes from `_blake2`; `hashlib` would load
    # OpenSSL's `_hashlib`, about 3.7 MiB of RSS that every CLI run paid
    code = "import sys, resoplus, resoplus.cli; print(sorted(m for m in sys.modules if 'hashlib' in m))"
    env = dict(os.environ, PYTHONPATH="src")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
