import subprocess
import sys


def test_import_leaves_scipy_unloaded():
    code = "import sys, caralab; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"


def test_every_exported_name_resolves():
    import caralab

    assert [name for name in caralab.__all__ if not hasattr(caralab, name)] == []
