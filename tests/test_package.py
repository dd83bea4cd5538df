import inspect
import re
import subprocess
import sys
from pathlib import Path

import edgecolor
from edgecolor import errors


def test_all_names_resolve_once():
    names = edgecolor.__all__
    assert len(names) == len(set(names)), "a name is exported twice"
    missing = [name for name in names if not hasattr(edgecolor, name)]
    assert not missing, f"exported but undefined: {missing}"


def test_every_error_is_exported_and_raised():
    # An error class nothing raises is dead API; so is one left out of __all__.
    source = "\n".join(path.read_text(encoding="utf-8")
                       for path in Path(edgecolor.__file__).parent.glob("*.py"))
    for name, cls in inspect.getmembers(errors, inspect.isclass):
        if not issubclass(cls, errors.EdgeColorError) or cls is errors.EdgeColorError:
            continue
        assert name in edgecolor.__all__, f"{name} is not exported"
        assert re.search(rf"\braise\s+{name}\b", source), f"nothing raises {name}"


_HEAVY = ("edgecolor.engine", "edgecolor.chains", "edgecolor.bench", "edgecolor.oracle")


def loaded_after(argv, cwd):
    """The edgecolor modules loaded by a fresh interpreter that runs
    ``cli_main(argv)``, after checking that the command succeeded."""
    code = ("import sys\nfrom edgecolor.cli import cli_main\n"
            f"assert cli_main({argv!r}) == 0\n"
            "print(' '.join(m for m in sys.modules if m.startswith('edgecolor')))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True,
                          check=True)
    return set(proc.stdout.splitlines()[-1].split())


def test_verify_and_gen_load_only_what_they_run(tmp_path):
    (tmp_path / "g.txt").write_text("0 1\n1 2\n0 2\n", encoding="utf-8")
    (tmp_path / "c.txt").write_text("0 1 1\n1 2 2\n0 2 3\n", encoding="utf-8")
    verify = loaded_after(["verify", "--input", "g.txt", "--coloring", "c.txt"], tmp_path)
    assert verify == {"edgecolor", "edgecolor.cli", "edgecolor.errors", "edgecolor.fileio",
                      "edgecolor.graph", "edgecolor.state"}
    gen = loaded_after(["gen", "--model", "complete", "--n", "4", "--out", "k4.txt"], tmp_path)
    assert "edgecolor.generators" in gen and not gen.intersection(_HEAVY)


def test_importing_the_cli_loads_no_numpy():
    # main() caps OpenBLAS's threads before numpy loads, so the import that
    # precedes it must not load numpy.
    code = "import sys, edgecolor.cli\nprint('numpy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout.split() == ["False"]


def compiled_after(argv, cwd):
    """How many patterns each of fileio's pattern builders has compiled in a
    fresh interpreter that runs ``cli_main(argv)``."""
    code = ("from edgecolor import fileio\nfrom edgecolor.cli import cli_main\n"
            f"assert cli_main({argv!r}) == 0\n"
            "print(*(f.cache_info().currsize for f in "
            "(fileio._lines_re, fileio._int_lines_re)))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=cwd, capture_output=True, text=True,
                          check=True)
    return tuple(map(int, proc.stdout.split()[-2:]))


def test_fileio_compiles_only_the_patterns_a_command_reads_with(tmp_path):
    # gen writes a file and reads none; verify on the files gen and color
    # write takes the byte shape check and needs no pattern.  A hand-made
    # integer file needs the integer pattern of its width only.
    assert compiled_after(["gen", "--model", "complete", "--n", "4", "--out", "k4.txt"],
                          tmp_path) == (0, 0)
    (tmp_path / "c.txt").write_text("0 1 1\n0 2 2\n0 3 3\n1 2 3\n1 3 2\n2 3 1\n",
                                    encoding="utf-8")
    assert compiled_after(["verify", "--input", "k4.txt", "--coloring", "c.txt"],
                          tmp_path) == (0, 0)
    (tmp_path / "hand.txt").write_text("# by hand\n0 1 1\n0 2 2\n0 3 3\n1 2 3\n1 3 2\n2 3 1\n",
                                       encoding="utf-8")
    assert compiled_after(["verify", "--input", "k4.txt", "--coloring", "hand.txt"],
                          tmp_path) == (0, 1)


def test_star_import_and_submodules_resolve():
    code = ("from edgecolor import *\nimport edgecolor\n"
            "assert all(globals()[name] is getattr(edgecolor, name) for name in edgecolor.__all__)\n"
            "assert edgecolor.engine.run_full is run_full and edgecolor.bench.bench_sweep\n"
            "from edgecolor import engine, fileio, generators\n"
            "assert generators.generate is generate and fileio.read_edge_list")
    subprocess.run([sys.executable, "-c", code], check=True)
