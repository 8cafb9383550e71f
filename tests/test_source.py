"""Rules that hold for every module of the qwork package."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import math

import numpy as np
import pytest

import qwork
from qwork import bosonic_codes as bc
from qwork import nmr_sim as nm
from qwork import qec_engine as qe
from qwork import qop_core as qc
from qwork import recoupler as rc
from qwork import stabilizer as st


def test_no_assert_statements():
    # python -O strips assert, so runtime invariants must be explicit checks
    found = []
    for path in sorted(Path(qwork.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


def test_no_unused_imports():
    # no linter runs on this package, so an import that nothing reads
    # would go unnoticed
    found = []
    for path in sorted(Path(qwork.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        found += [f"{path.name}:{line} {name}" for name, line in imported.items()
                  if name not in used]
    assert found == []


def _unread_locals(func):
    # names the function body itself binds (nested scopes are checked on
    # their own) that nothing in the function, nested scopes included, reads
    stored, declared, todo = set(), set(), list(func.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stored.add(node.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            declared.update(node.names)
        todo.extend(ast.iter_child_nodes(node))
    read = {node.id for node in ast.walk(func)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(name for name in stored - read - declared
                  if not name.startswith("_"))


def _functions(node, prefix=""):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _functions(child, prefix + child.name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix)


def test_no_unread_locals():
    # an assigned name that is never read is dead code or a lost result
    found = []
    for path in sorted(Path(qwork.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name} {name}: {local}"
                  for name, func in _functions(tree)
                  for local in _unread_locals(func)]
    assert found == []


def _module_level(node):
    # statements that run on import: everything outside function bodies
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
            yield from _module_level(child)


def test_no_scipy_import_in_package():
    # scipy is a test dependency only: no import of it anywhere in the
    # package, at module level or inside a function
    found = []
    for path in sorted(Path(qwork.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {name}" for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []


def test_no_stabilizer_group_call_in_package():
    # stabilizer_group() builds all 2^(n-k) elements; the package decides
    # every verdict by GF(2) elimination and keeps the group only as the
    # tests' reference
    found = []
    for path in sorted(Path(qwork.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and "stabilizer_group" in (
                      getattr(node.func, "attr", None),
                      getattr(node.func, "id", None))]
    assert found == []


def _modules_after(package, *lines):
    # runs lines in a fresh process that ends by printing the modules of
    # package it loaded and rc to stderr; returns that last stderr line and
    # stderr
    script = "\n".join(["import sys", *lines,
                        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}),"
                        " rc, file=sys.stderr)"])
    src = str(Path(qwork.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)
    return proc.stderr.splitlines()[-1], proc.stderr


@pytest.mark.parametrize("argv", [None, ["qec", "four-bit", "--gamma", "0.01"],
                                  ["nmr", "thermal"],
                                  ["nmr", "two-bit", "--theta", "0.5", "--td", "0",
                                   "--mode", "coded", "--rf", "lorentzian",
                                   "--nodes", "4"]],
                         ids=["import", "qec four-bit", "nmr thermal",
                              "nmr two-bit rf"])
def test_cli_runs_without_importing_scipy(argv):
    last, stderr = _modules_after(
        "scipy", "import qwork.cli", f"rc = qwork.cli.main({argv!r})" if argv else "rc = 0")
    assert last == "[] 0", stderr


def test_rf_storage_analysis_runs_without_importing_scipy():
    last, stderr = _modules_after(
        "scipy", "from qwork import nmr_sim as nm",
        "rf = nm.RfModel.lorentzian((0.96, 0.92), nodes=4)",
        "pts = [(th, *nm.two_bit_experiment(th, 0.0, rf=rf)['accepted'])"
        " for th in nm.THETA_GRID]",
        "rc = round(nm.ellipse_analysis(pts)['ellipticity'], 2)")
    assert last == "[] 1.05", stderr


def test_worst_overlap_above_a_qubit_runs_with_scipy_blocked():
    # a None entry makes every scipy import raise ImportError
    last, stderr = _modules_after(
        "scipy", 'sys.modules["scipy"] = None',
        "import numpy as np", "from qwork import qec_engine as qe, qop_core as qc",
        "ch = qc.random_channel(4, rng=np.random.default_rng(0))",
        "rc = round(qe.min_overlap_fidelity(ch), 7)", 'del sys.modules["scipy"]')
    assert last == "[] 0.0918877", stderr


def test_cli_imports_no_library_module_at_module_level():
    # without cached bytecode a fresh process compiles every module it
    # imports, so each command imports only the library modules it runs
    path = Path(qwork.__file__).parent / "cli.py"
    found = []
    for node in _module_level(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = ["qwork" if node.level else node.module or ""]
        else:
            continue
        found += [f"cli.py:{node.lineno} {name}" for name in names
                  if name.split(".")[0] == "qwork"]
    assert found == []


def _replay_config(tmp_path):
    path = tmp_path / "two-bit.json"
    path.write_text(json.dumps({"command": ["nmr", "two-bit"],
                                "params": {"theta": 0.5, "mode": "coded"}}))
    return ["run", "--config", str(path)]


@pytest.mark.parametrize("argv, loaded", [
    (None, []),
    (["--help"], []),
    (["channel", "show", "--kind", "depolarizing", "--p", "0.1"],
     ["qop_core"]),
    (["qec", "four-bit"], ["qec_engine", "qop_core"]),
    (["bosonic", "verify", "--fixture", "ex1"],
     ["bosonic_codes", "qec_engine", "qop_core"]),
    (["stab", "check", "--code", "ad4"], ["qop_core", "stabilizer"]),
    (["recouple", "plan", "--n", "6", "--verify"], ["qop_core", "recoupler"]),
    (["nmr", "thermal"], ["nmr_sim", "qop_core"]),
    (_replay_config, ["nmr_sim", "qop_core"]),
], ids=["import", "help", "channel show", "qec four-bit", "bosonic verify",
        "stab check", "recouple plan", "nmr thermal", "run config"])
def test_cli_command_loads_only_its_library_modules(argv, loaded, tmp_path):
    if callable(argv):
        argv = argv(tmp_path)
    last, stderr = _modules_after(
        "qwork", "import qwork.cli",
        f"rc = qwork.cli.main({argv!r})" if argv else "rc = 0")
    want = sorted(["qwork", "qwork.cli"] + [f"qwork.{m}" for m in loaded])
    assert last == f"{want} 0", stderr


def test_spin_system_fixture_dir_serves_nmr_without_stabilizer(tmp_path):
    (tmp_path / "sys.json").write_text(json.dumps({
        "kind": "spin_system", "name": "toy",
        "payload": {"omega_hz": [10.0, 5.0], "J_hz": [[0.0, 2.0], [2.0, 0.0]],
                    "t2_star_s": [1.0, 1.0]}}))
    argv = ["--fixture-dir", str(tmp_path), "nmr", "thermal", "--system", "toy"]
    last, stderr = _modules_after("qwork", "import qwork.cli",
                                  f"rc = qwork.cli.main({argv!r})")
    assert last == "['qwork', 'qwork.cli', 'qwork.nmr_sim', 'qwork.qop_core'] 0", \
        stderr


def test_no_unread_private_names():
    # a private module-level helper, class or constant, or a private method
    # or class attribute, that no module of the package reads is dead code;
    # reads inside its own definition (recursion) do not count
    trees = {path.name: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(Path(qwork.__file__).parent.glob("*.py"))}
    everywhere = [name for tree in trees.values() for name in _reads(tree)]
    found = []
    for module, tree in trees.items():
        scopes = [tree] + [node for node in tree.body if isinstance(node, ast.ClassDef)]
        for node in (node for scope in scopes for node in scope.body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                names, inside = [node.name], _reads(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
                inside = []
            else:
                continue
            found += [f"{module}:{node.lineno} {name}" for name in names
                      if name.startswith("_") and not name.startswith("__")
                      and everywhere.count(name) == inside.count(name)]
    assert found == []


def test_no_unread_parameters():
    # a parameter the body never reads is silently ignored by every caller
    # that passes it; lambdas are exempt (a constant oracle ignores its input)
    found = []
    for path in sorted(Path(qwork.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for name, func in _functions(tree):
            args = func.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs
                      + [a for a in (args.vararg, args.kwarg) if a]]
            read = {node.id for node in ast.walk(func)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            found += [f"{path.name} {name}: {p}" for p in params if p not in read]
    assert found == []


def _reads(node):
    return [n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
            or isinstance(n, ast.Attribute)]


def _called_by_click(node):
    # a @group.command(...) or @click.group(...) function, or a class with a
    # click base such as click.ParamType, whose methods click calls
    if isinstance(node, ast.ClassDef):
        return any(isinstance(b, ast.Attribute) and isinstance(b.value, ast.Name)
                   and b.value.id == "click" for b in node.bases)
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def _attribute_reads(node):
    return [n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute)]


def test_no_unread_public_names():
    # a public function, method or property of the package that nothing in
    # src, tests or perfbench reads is dead code; reads inside its own
    # definition (recursion) do not count.  A method or property is read
    # only as an attribute (.name): a bare name that matches it, such as a
    # local variable, does not count
    root = Path(qwork.__file__).resolve().parents[2]
    trees = [ast.parse(path.read_text(), filename=str(path))
             for top in ("src", "tests", "perfbench")
             for path in sorted((root / top).rglob("*.py"))]
    everywhere = {reads: [name for tree in trees for name in reads(tree)]
                  for reads in (_reads, _attribute_reads)}
    found = []
    for path in sorted(Path(qwork.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [("", tree, _reads)] + [
            (node.name + ".", node, _attribute_reads) for node in tree.body
            if isinstance(node, ast.ClassDef) and not _called_by_click(node)]
        found += [f"{path.name}:{node.lineno} {prefix}{node.name}"
                  for prefix, scope, reads in scopes for node in scope.body
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not node.name.startswith("_") and not _called_by_click(node)
                  and everywhere[reads].count(node.name) == reads(node).count(node.name)]
    assert found == []


def _is_math_inf(node):
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return (isinstance(node, ast.Attribute) and node.attr == "inf"
            and isinstance(node.value, ast.Name) and node.value.id == "math")


def test_max_order_keeps_the_float32_gram_exact():
    # recoupler checks +/-1 rows with a float32 Gram product: exact while
    # every partial sum, an integer of size at most MAX_ORDER, fits the
    # 24-bit significand
    assert rc.MAX_ORDER <= 2 ** 24


def test_finiteness_is_checked_only_in_qop_core():
    # a scalar entry check is one call to qop_core's check_int, check_real
    # or check_positive, so a hand-written NaN or infinity test elsewhere
    # is a second wording of the same check
    found = []
    for path in sorted(Path(qwork.__file__).parent.glob("*.py")):
        if path.name == "qop_core.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Compare):
                hit = any(map(_is_math_inf, [node.left, *node.comparators]))
            elif isinstance(node, ast.Call):
                func = node.func
                hit = (isinstance(func, ast.Attribute) and func.attr == "isfinite"
                       and isinstance(func.value, ast.Name) and func.value.id == "math")
            else:
                continue
            found += [f"{path.name}:{node.lineno}"] if hit else []
    assert found == []


_DEPOL = qc.standard_channel("depolarizing", p=0.1)
_REP3 = qe.CodeSpace(8, [np.eye(8)[0], np.eye(8)[7]])
_FLIPS = [np.eye(8)] + [np.eye(8)[np.arange(8) ^ (1 << k)] for k in range(3)]

# one call per public tolerance parameter, each refused at a valid
# tolerance where it can be: a NaN tolerance let these through
TOLERANCES = {
    "qop_core.unitaries_equal_up_to_phase.tol":
        lambda v: qc.unitaries_equal_up_to_phase(qc.SX, qc.SX, tol=v),
    "qop_core.QuantumChannel.__init__.tol":
        lambda v: qc.QuantumChannel([2 * qc.I2], tol=v),
    "qop_core.kraus_from_choi.tol": lambda v: qc.kraus_from_choi(qc.choi_of(_DEPOL), tol=v),
    "qop_core.channels_equal.tol": lambda v: qc.channels_equal(_DEPOL, _DEPOL, tol=v),
    "qop_core.tomography_method1.tol": lambda v: qc.tomography_method1(_DEPOL, 2, tol=v),
    "qop_core.tomography_method2.tol": lambda v: qc.tomography_method2(_DEPOL, 2, tol=v),
    "qop_core.is_cp.tol": lambda v: qc.is_cp(qc.bloch_inversion(), tol=v),
    "qop_core.unital_qubit_decompose.tol":
        lambda v: qc.unital_qubit_decompose(qc.bloch_inversion(), tol=v),
    "qec_engine.CodeSpace.validate.tol": lambda v: _REP3.validate(tol=v),
    "qec_engine.check_exact.tol": lambda v: qe.check_exact(_REP3, _FLIPS, tol=v),
    "qec_engine.canonicalize_errors.tol":
        lambda v: qe.canonicalize_errors(_REP3, _FLIPS, tol=v),
    "qec_engine.build_recovery.tol":
        lambda v: qe.build_recovery(_REP3, [np.diag([1.0] * 7 + [0.5])], tol=v),
    "qec_engine.build_recovery.prune":
        lambda v: qe.build_recovery(_REP3, _FLIPS, prune=v),
    "qec_engine.check_approximate.tol":
        lambda v: qe.check_approximate(_REP3, _FLIPS, tol=v),
    "qec_engine.check_approximate.ortho_tol":
        lambda v: qe.check_approximate(_REP3, _FLIPS[:2], ortho_tol=v),
    "bosonic_codes.BosonicCode.validate.tol":
        lambda v: bc.BosonicCode(2, 1, [[((2, 2), 0.6)]]).validate(tol=v),
    "bosonic_codes.check_nondeformation.tol":
        lambda v: bc.check_nondeformation(bc.construct_t1(2, 2), tol=v),
    "bosonic_codes.balance_weights.tol":
        lambda v: bc.balance_weights([[(4, 0)], [(2, 2)]], 1, tol=v),
    "nmr_sim.state_tomography.tol":
        lambda v: nm.state_tomography(lambda: np.triu(np.ones((4, 4))), tol=v),
    "recoupler.verify_schedule.tol": lambda v: rc.verify_schedule(
        rc.emit_pulses(rc.plan_decouple(3), 0.1), rc.CouplingSystem(np.ones((3, 3))),
        tol=v),
    "stabilizer.codewords.tol": lambda v: st.codewords(st.ad4(), tol=v),
    "stabilizer.verify_parity_measurement.tol":
        lambda v: st.verify_parity_measurement([0, 1], 2, tol=v),
    "stabilizer.verify_teleport_identity.tol":
        lambda v: st.verify_teleport_identity("z", states=1, tol=v),
    "stabilizer.verify_c3_construction.tol":
        lambda v: st.verify_c3_construction("T", states=1, tol=v),
}


def test_every_public_tolerance_has_a_case():
    # the click commands' --tol is checked in test_cli
    found = []
    for path in sorted(Path(qwork.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        scopes = [("", tree)] + [(node.name + ".", node) for node in tree.body
                                 if isinstance(node, ast.ClassDef)]
        found += [f"{path.stem}.{prefix}{node.name}.{arg.arg}"
                  for prefix, scope in scopes for node in scope.body
                  if isinstance(node, ast.FunctionDef) and not _called_by_click(node)
                  and (node.name == "__init__" or not node.name.startswith("_"))
                  for arg in node.args.args + node.args.kwonlyargs
                  if arg.arg in ("tol", "ortho_tol", "prune")]
    assert sorted(found) == sorted(TOLERANCES)


@pytest.mark.parametrize("name", sorted(TOLERANCES))
@pytest.mark.parametrize("v", [math.nan, math.inf, 0.0, -1.0])
def test_tolerances_refuse_what_they_cannot_mean(name, v):
    # a NaN tolerance switched its check off: build_recovery built a
    # recovery for any error set, and QuantumChannel accepted 2·I2
    param = name.rsplit(".", 1)[1]
    with pytest.raises(ValueError, match=rf"\b{param}="):
        TOLERANCES[name](v)


# each fast path of the package with the reference its tests compare it
# against: the test module that defines the reference, and its name there
REFERENCES = {
    "bosonic_codes.verify_by_channel": ("test_bosonic_codes", "_dense_channel_reference"),
    "qec_engine._approx_quantities": ("test_qec_engine", "_loop_approx_quantities"),
    "qec_engine.build_recovery": ("test_qec_engine", "_pairwise_overlap"),
    "qop_core._choi_matrix": ("test_qop_core", "_loop_choi"),
    "qop_core.kraus_from_choi": ("test_qop_core", "_loop_kraus"),
    "qop_core.apply_local": ("test_qop_core", "full_operator"),
    "qop_core.tomography_method1": ("test_qop_core", "chi_equations_by_loops"),
    "nmr_sim._run_pure": ("test_nmr_sim", "reference_run_pure"),
    "nmr_sim._delay_pair": ("test_nmr_sim", "reference_run_pure"),
    "nmr_sim._gap_factor": ("test_nmr_sim", "reference_run_pure"),
    "nmr_sim._settle": ("test_nmr_sim", "reference_run_pure"),
    "nmr_sim._then": ("test_nmr_sim", "reference_run_pure"),
    "nmr_sim._split": ("test_nmr_sim", "reference_run_pure"),
    "nmr_sim._blocks": ("test_nmr_sim", "reference_run_pure"),
    "nmr_sim.two_bit_sweep": ("test_nmr_sim", "_pointwise_sweep"),
    "nmr_sim.dj_thermal": ("test_nmr_sim", "_convolution_dj_reference"),
    "nmr_sim.peak_integrals": ("test_nmr_sim", "_looped_peak_integrals"),
    "nmr_sim.state_tomography": ("test_nmr_sim", "_hand_expanded_tomography"),
    "recoupler.verify_schedule": ("test_recoupler", "_dense_deviation"),
    "recoupler._planned": ("test_recoupler", "_full_gram_check"),
    "qec_engine._worst_overlap": ("test_qec_engine", "nelder_mead_reference"),
    "stabilizer._ad_codes": ("test_stabilizer", "_reference_ad_codes"),
    "stabilizer._ad_blocks": ("test_stabilizer", "_letter_matrix_blocks"),
    "stabilizer._quotient_kinds": ("test_stabilizer", "_reference_kinds"),
    "stabilizer.ad_correctable": ("test_stabilizer", "_reference_ad"),
    "stabilizer.verify_parity_measurement": ("test_stabilizer", "_reference_parity"),
    "stabilizer._teleport": ("test_stabilizer", "_reference_teleport"),
    "stabilizer.verify_teleport_identity": ("test_stabilizer", "_reference_swap"),
}


@pytest.mark.parametrize("fast", sorted(REFERENCES))
def test_every_fast_path_keeps_its_reference(fast):
    # a reference that is deleted, or that no test reaches any more, stops
    # checking its fast path and fails nothing itself; a test reaches it by
    # reading it, directly or through the module's other functions
    module, name = fast.split(".")
    assert hasattr(importlib.import_module(f"qwork.{module}"), name)
    test_module, ref = REFERENCES[fast]
    path = Path(__file__).parent / f"{test_module}.py"
    funcs = {node.name: node for node in ast.parse(path.read_text(), filename=str(path)).body
             if isinstance(node, ast.FunctionDef)}
    assert ref in funcs, f"{test_module} no longer defines {ref}"
    todo = [f for f in funcs if f.startswith("test_")]
    reached = set(todo)
    while todo:
        for read in set(_reads(funcs[todo.pop()])) & funcs.keys() - reached:
            reached.add(read)
            todo.append(read)
    assert ref in reached, f"no test in {test_module} reaches {ref}"
