"""The result records callers rely on, what importing the CLI loads, that
every annotation in the package resolves, and that only the CLI entry point
changes the cyclic collector's settings."""

import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
import typing

import pytest

import ttone
from ttone.blocks import BLOCK_TABLES
from ttone.bounds import Certificate
from ttone.coloring import Coloring, Violation
from ttone.exact import DecideResult, SearchBudget, TauResult
from ttone.graphs import Density

SRC = os.path.dirname(os.path.dirname(os.path.abspath(ttone.__file__)))


def printed_after(code: str, report: str) -> list:
    """The words a fresh interpreter prints for report after running code.
    It runs with -S: the site hooks of an installation import modules of
    their own (random among them, on some), and these tests are about
    ttone's.  A fresh process also leaves the test process alone."""
    probe = f"{code}\nimport sys\nprint({report})"
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.split()


def loaded_after(code: str) -> set:
    """The modules a fresh interpreter holds after running code."""
    return set(printed_after(code, "' '.join(sys.modules)"))


def test_cli_import_loads_no_dataclasses_or_inspect():
    # both cost every CLI child process ~20 ms of import time
    assert not loaded_after("import ttone.cli") & {"dataclasses", "inspect"}


def test_import_ttone_loads_no_fractions_json_or_random():
    loaded = loaded_after("import ttone")
    assert {"ttone.graphs", "ttone.constructions"} <= loaded
    assert not loaded & {"fractions", "decimal", "json", "random",
                         "ttone.instances"}


def test_cli_import_loads_no_fractions_random_or_instances():
    loaded = loaded_after("import ttone.cli")
    assert {"ttone.cli", "argparse"} <= loaded
    assert not loaded & {"fractions", "decimal", "json", "random",
                         "ttone.instances"}


def test_gen_loads_no_json():
    # gen writes an edge list only; json loads with the first JSON line read
    # or written
    loaded = loaded_after(
        "import contextlib, io, ttone.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert ttone.cli.run(['gen', '--path', '5']) == 0")
    assert "ttone.cli" in loaded and "json" not in loaded


def test_serializing_and_gen_random_load_what_they_use():
    loaded = loaded_after(
        "import ttone\n"
        "ttone.color_path(4, 2).to_json()\n"
        "assert ttone.mad(ttone.gen_cycle(5)).fraction == 2")
    assert {"json", "fractions"} <= loaded
    assert "ttone.instances" not in loaded
    loaded = loaded_after(
        "import contextlib, io, ttone.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert ttone.cli.run(['gen', '--random', 'apollonian']) == 0")
    assert {"random", "ttone.instances"} <= loaded


def defined_callables():
    """(qualified name, object) for each function, class and method, property
    accessors included, that a module of the package defines at its top
    level or in a class there."""
    for info in pkgutil.iter_modules(ttone.__path__):
        module = importlib.import_module(f"ttone.{info.name}")
        for name, obj in vars(module).items():
            obj = inspect.unwrap(obj)
            if getattr(obj, "__module__", None) != module.__name__ or \
                    not (inspect.isfunction(obj) or inspect.isclass(obj)):
                continue
            yield f"{info.name}.{name}", obj
            for attr, member in vars(obj).items() if inspect.isclass(obj) \
                    else ():
                if isinstance(member, property):
                    member = member.fget
                member = getattr(member, "__func__", member)
                if inspect.isfunction(member):
                    yield f"{info.name}.{name}.{attr}", member


def test_every_annotation_in_the_package_resolves():
    # get_type_hints evaluates each annotation in its module's globals, so
    # an annotation naming what the module never imports raises NameError
    checked = []
    for name, obj in defined_callables():
        typing.get_type_hints(obj)
        checked.append(name)
    assert {"graphs.Density.fraction", "graphs._core", "exact.tau",
            "instances.random_subdivided", "cli.main"} <= set(checked)


def gc_state_after(code: str) -> tuple:
    """(gc.isenabled(), gc.get_freeze_count()) after running code."""
    enabled, frozen = printed_after(
        f"{code}\nimport gc", "gc.isenabled(), gc.get_freeze_count()")
    return enabled == "True", int(frozen)


def test_only_the_cli_entry_point_touches_the_collector():
    # the library leaves collector settings to its caller
    assert gc_state_after(
        "import ttone\n"
        "ttone.color_sparse(ttone.gen_cycle(20))\n"
        "ttone.tau(ttone.gen_cycle(5), 2)\n"
        "ttone.mad(ttone.gen_star(4))") == (True, 0)
    # main() freezes what start-up built and keeps collecting the rest
    enabled, frozen = gc_state_after(
        "import contextlib, io, sys, ttone.cli\n"
        "sys.argv = ['ttone', 'gen', '--star', '2']\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        ttone.cli.main()\n"
        "    except SystemExit as exc:\n"
        "        assert exc.code == 0, exc.code")
    assert enabled and frozen > 0


@pytest.mark.parametrize("record, field", [
    (Violation(0, 1, 1, 1), "shared"),
    (Certificate("Star", {"max_degree": 3}, 7), "bound"),
    (Density(8, 5), "numerator"),
    (TauResult("timeout", lower_bound=4), "value"),
    (BLOCK_TABLES[3], "k"),
    (Certificate("Exhaustion", {"colors": 7, "nodes": 84}, 8), "parameters"),
    (SearchBudget(), "max_nodes"),
    (DecideResult("infeasible"), "status"),
])
def test_records_are_frozen(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    with pytest.raises(AttributeError):
        record.extra = 0


def test_record_fields_defaults_and_repr():
    assert Violation(0, 2, 2, 3) == Violation(u=0, v=2, distance=2, shared=3)
    assert repr(Violation(0, 2, 2, 3)) == \
        "Violation(u=0, v=2, distance=2, shared=3)"
    assert DecideResult("infeasible") == DecideResult("infeasible", None, 0)
    res = TauResult("timeout", lower_bound=4, nodes=9)
    assert (res.status, res.value, res.coloring, res.lower_certificate,
            res.lower_bound, res.nodes) == ("timeout", None, None, None, 4, 9)


def test_coloring_equality_and_unhashable():
    a = Coloring(2, 5, {0: (1, 2)})
    assert a == Coloring(t=2, k=5, labels={0: (1, 2)})
    assert a != Coloring(2, 6, {0: (1, 2)})
    assert a != Coloring(2, 5)
    assert a != (2, 5, {0: (1, 2)})
    assert Coloring(2, 5).labels == {}
    assert Coloring(2, 5).labels is not Coloring(2, 5).labels
    labels = {}
    assert Coloring(2, 5, labels).labels is labels
    assert repr(a) == "Coloring(t=2, k=5, labels={0: (1, 2)})"
    with pytest.raises(TypeError):
        hash(a)
    a.k = 6                       # a coloring is built up in place
    a.assign(1, (4, 3))
    assert a == Coloring(2, 6, {0: (1, 2), 1: (3, 4)})


def test_search_budget_construction_and_errors():
    assert SearchBudget() == SearchBudget(200_000_000, None)
    budget = SearchBudget(max_nodes=50, wall_limit=1.5)
    assert (budget.max_nodes, budget.wall_limit) == (50, 1.5)
    assert SearchBudget(wall_limit=2).max_nodes == 200_000_000
    assert SearchBudget(7).wall_limit is None
    with pytest.raises(ValueError, match="max_nodes must be positive"):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError, match="max_nodes must be positive"):
        SearchBudget(-1, 1.0)
    with pytest.raises(ValueError, match="wall_limit must be positive"):
        SearchBudget(max_nodes=5, wall_limit=float("nan"))
    with pytest.raises(TypeError):
        SearchBudget(max_node=5)
    # no coercion: a bool is no count of nodes or seconds, 2.5 no count
    for bad in (True, False, 2.5, 10.0, "5"):
        with pytest.raises(ValueError, match="max_nodes must be an int"):
            SearchBudget(max_nodes=bad)
    for bad in (True, False):
        with pytest.raises(ValueError, match="wall_limit must be a number"):
            SearchBudget(wall_limit=bad)
