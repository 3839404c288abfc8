"""The names the package exports, the parameters of its functions, and
the names each module imports."""
import ast
import inspect
import pathlib
import types

import pytest

import correlab

PUBLIC_NAMES = [
    "BUILTIN_MODELS", "ContourDecomposition", "ContourGrid", "DIM_CAP",
    "DecayFit", "EmbeddedOperator", "EvolutionContext", "Interaction",
    "KMSFunction", "LRMeasurement", "LRScanResult", "Lattice",
    "LocalOperator", "LocalityCertificate", "LocalityMeasurement",
    "LocalityScanResult", "PAULI", "PAULI_I", "PAULI_X", "PAULI_Y",
    "PAULI_Z", "ResidueCheck", "SpectralDecomposition", "TheoremCheckResult",
    "TheoremRow", "ThermalState", "ball", "build_hamiltonian", "build_model",
    "canonical_correlator", "certify_locality", "chain_lattice",
    "commutator", "conditional_expectation", "contour_decomposition",
    "contour_grid", "derivation_delta", "eig_hermitian", "embed",
    "evolution_context", "evolve", "fit_decay", "gauss_legendre",
    "gibbs_state", "grid_lattice", "haar_unitaries", "heisenberg_xxz",
    "kms_function", "locality_scan", "lr_commutator_scan",
    "nearest_neighbor_pairs", "ordinary_correlator", "partial_trace",
    "random_bond_ising", "residue_identity", "sampled_twirl",
    "single_site", "spectral_norm", "theorem_check",
    "transverse_field_ising", "weight",
]


def test_public_names_are_pinned():
    # submodules are attributes of the package only once imported, so they
    # are left out; any other addition or removal shows up here as a diff
    exported = sorted(name for name, value in vars(correlab).items()
                      if not name.startswith("_")
                      and not isinstance(value, types.ModuleType))
    assert exported == sorted(PUBLIC_NAMES)


# parameter names (self left out) of every exported function and public
# method, so an added or removed setting shows up here as a diff
PARAMETERS = {
    "ball": ["lattice", "xs", "radius"],
    "build_hamiltonian": ["interaction"],
    "build_model": ["name", "lattice", "params"],
    "canonical_correlator": ["fn", "method"],
    "certify_locality": ["interaction", "mu"],
    "chain_lattice": ["n", "spacing"],
    "commutator": ["a", "b"],
    "conditional_expectation": ["op", "region", "lattice"],
    "contour_decomposition": ["grid", "height"],
    "contour_grid": ["state", "a", "b", "nodes", "half_width"],
    "derivation_delta": ["a", "interaction"],
    "eig_hermitian": ["matrix"],
    "embed": ["op", "lattice"],
    "evolution_context": ["interaction"],
    "evolve": ["context", "op", "time"],
    "fit_decay": ["xs", "ys"],
    "gauss_legendre": ["n"],
    "gibbs_state": ["hamiltonian", "beta"],
    "grid_lattice": ["nx", "ny"],
    "haar_unitaries": ["rng", "dim", "count"],
    "heisenberg_xxz": ["lattice", "J", "delta", "h"],
    "kms_function": ["state", "a", "b"],
    "locality_scan": ["interaction", "a", "radii", "times", "mu", "velocity",
                      "exponent_multiplier"],
    "lr_commutator_scan": ["interaction", "a", "b", "times", "mu",
                           "velocity"],
    "nearest_neighbor_pairs": ["lattice"],
    "ordinary_correlator": ["fn"],
    "partial_trace": ["matrix", "dims", "keep"],
    "random_bond_ising": ["lattice", "J", "h", "seed"],
    "residue_identity": ["beta", "height", "half_width"],
    "sampled_twirl": ["op", "region", "lattice", "samples", "seed"],
    "single_site": ["site", "matrix_or_name"],
    "spectral_norm": ["op"],
    "theorem_check": ["interaction", "beta", "mu", "distances", "base_site",
                      "op_name"],
    "transverse_field_ising": ["lattice", "J", "h"],
    "weight": ["z", "height"],
    "KMSFunction.boundary_gap": ["ts"],
    "KMSFunction.conjugate_eval": ["z"],
    "KMSFunction.conjugate_eval_grid": ["ts", "imag"],
    "KMSFunction.eval": ["z"],
    "KMSFunction.eval_grid": ["ts", "imag"],
    "Lattice.diameter": ["xs"],
    "Lattice.distance": ["x", "y"],
    "Lattice.index": ["site"],
    "Lattice.set_distance": ["xs", "ys"],
    "Lattice.sort_sites": ["xs"],
    "Lattice.window_dim": ["xs"],
    "LocalityScanResult.max_error_by_radius": [],
    "SpectralDecomposition.reconstruct": [],
    "SpectralDecomposition.transform": ["matrix"],
}


def test_parameter_names_are_pinned():
    found = {}
    for name, value in vars(correlab).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(value):
            found[name] = list(inspect.signature(value).parameters)
        elif inspect.isclass(value):
            for attr, fn in vars(value).items():
                if not attr.startswith("_") and inspect.isfunction(fn):
                    found[f"{name}.{attr}"] = \
                        list(inspect.signature(fn).parameters)[1:]
    assert found == PARAMETERS


SRC = pathlib.Path(correlab.__file__).parent


# a lint for settings no caller uses, in the standard library alone: each
# optional parameter of an exported function is passed, by keyword or by
# position, by some call in the package.  The builtin model builders' are
# passed by build_model(**params).  A parameter that library code only
# forwards from another one that no library caller sets counts as passed:
# this lint cannot tell such a chain from a real caller.
def _library_arguments():
    """({callee name: keywords passed}, {callee name: most positional
    arguments passed}) over every call in the package, a starred argument
    counting as all."""
    keywords, positions = {}, {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else \
                func.id if isinstance(func, ast.Name) else None
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
            count = float("inf") if any(isinstance(a, ast.Starred)
                                        for a in node.args) else len(node.args)
            positions[name] = max(positions.get(name, 0), count)
    return keywords, positions


def test_every_optional_parameter_has_a_library_caller():
    keywords, positions = _library_arguments()
    builders = set(correlab.BUILTIN_MODELS.values())
    unused = []
    for name, value in sorted(vars(correlab).items()):
        if (name.startswith("_") or not inspect.isfunction(value)
                or value in builders):
            continue
        for i, param in enumerate(inspect.signature(value).parameters.values()):
            if (param.default is not param.empty
                    and param.name not in keywords.get(name, set())
                    and i >= positions.get(name, 0)):
                unused.append(f"{name}.{param.name}")
    assert unused == []


# a lint for imports, in the standard library alone: every name a module
# imports is used in it, or re-exported from it by the package
def _imported_names(tree: ast.AST) -> set:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name for a in node.names}
    return names


def _reexported_from(module: str) -> set:
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    return {a.asname or a.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module == module for a in node.names}


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_modules_use_every_name_they_import(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = _imported_names(tree) - used - _reexported_from(path.stem)
    assert sorted(unused) == []


# a lint for dead code, in the standard library alone: every private
# function, class or constant a module defines at its top level is
# referenced somewhere in the package outside its own definition
def _defined_names(stmt: ast.stmt) -> set:
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else []
    return {node.id for t in targets for node in ast.walk(t)
            if isinstance(node, ast.Name)}


def _referenced_names(node: ast.AST) -> set:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names |= {a.name for a in sub.names}
    return names


def test_private_definitions_are_referenced():
    defined, referenced = [], set()
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            own = _defined_names(stmt)
            defined += [f"{path.name}:{name}" for name in sorted(own)
                        if name.startswith("_") and not name.startswith("__")]
            referenced |= _referenced_names(stmt) - own
    assert len(defined) > 50  # the walk found the package's helpers
    assert [d for d in defined if d.split(":")[1] not in referenced] == []


# one door to LAPACK's eigensolver: eig_hermitian picks the route (half
# blocks for a reversal-symmetric H), so nothing else may call eigh itself
def test_only_eig_hermitian_calls_eigh():
    callers = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(stmt):
                name = node.attr if isinstance(node, ast.Attribute) else \
                    node.id if isinstance(node, ast.Name) else None
                if name == "eigh":
                    callers.append(f"{path.name}:{getattr(stmt, 'name', '')}")
                elif isinstance(node, ast.ImportFrom):
                    assert "eigh" not in {a.name for a in node.names}, path.name
    assert callers and set(callers) == {"spectral.py:eig_hermitian"}


# one home and one cache for every Gauss-Legendre rule: the other modules
# ask gauss_legendre, none builds a rule of its own
def test_only_quadrature_builds_gauss_legendre_rules():
    builders = {"leggauss", "_legendre_pair"}
    callers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            name = node.attr if isinstance(node, ast.Attribute) else \
                node.id if isinstance(node, ast.Name) else None
            if name in builders:
                callers.add(path.name)
            elif isinstance(node, ast.ImportFrom):
                assert not builders & {a.name for a in node.names}, path.name
    assert callers == {"quadrature.py"}


def _reverses(node) -> bool:
    """node is the slice ::-1."""
    return (isinstance(node, ast.Slice) and node.lower is None
            and node.upper is None and node.step is not None
            and ast.unparse(node.step) == "-1")


# one owner for the reversal symmetry: spectral decides it for H and A
# alike, so no other module mirrors a matrix through both axes
def test_only_spectral_reverses_both_axes():
    mirrors = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Subscript)
                    and isinstance(node.slice, ast.Tuple)
                    and sum(map(_reverses, node.slice.elts)) >= 2):
                mirrors.append(path.name)
    assert mirrors and set(mirrors) == {"spectral.py"}


def _attribute_readers(attr: str) -> set:
    """The modules under src/ that read attribute attr of anything."""
    readers = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr == attr:
                readers.add(path.name)
    return readers


# one owner for the sector layout: spectral turns a decomposition's sector
# into the bases W+- of its blocks, so no other module reads it
def test_only_spectral_reads_the_sector():
    assert _attribute_readers("sector") == {"spectral.py"}


# one owner for the eigenvectors: on the block route reading them forms a
# D x D array, so every other module takes its bases through _read_blocks
# or _read_pair
def test_only_spectral_reads_the_eigenvectors():
    assert _attribute_readers("eigenvectors") == {"spectral.py"}
    assert _attribute_readers("_vectors") == {"spectral.py"}


# one owner for the parity decision: spectral._block_parity tells every
# route how an operator is read, so no other module asks whether a
# decomposition has sectors (test_only_spectral_reads_the_sector) or tests
# an operator's parity itself
def test_only_spectral_decides_the_block_parity():
    users = {path.name for path in SRC.glob("*.py")
             if "_reversal_parity" in _referenced_names(
                 ast.parse(path.read_text(encoding="utf-8")))}
    assert users == {"spectral.py"}


def _column_reversed_top_right(node) -> bool:
    """node is the slice m[:half, half:][:, ::-1] of any array m."""
    return (isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Subscript)
            and ast.unparse(node).endswith("[:half, half:][:, ::-1]"))


# one half-block builder: m_TL +- m_TR J is formed by _half_block alone,
# for the solver's blocks and every operator's
def test_only_half_block_forms_the_half_blocks():
    places = []
    for path in sorted(SRC.glob("*.py")):
        for func in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(func, ast.FunctionDef):
                places += [f"{path.name}:{func.name}"
                           for node in ast.walk(func)
                           if _column_reversed_top_right(node)]
    assert places == ["spectral.py:_half_block"]


def _referrers(name: str) -> list:
    """module:function, module:Class.method or module: (a statement outside
    any function) for each place under src/ that names `name`."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.ClassDef):
                places = [(f"{stmt.name}.{f.name}", f) for f in stmt.body
                          if isinstance(f, ast.FunctionDef)]
            elif isinstance(stmt, ast.FunctionDef):
                places = [(stmt.name, stmt)]
            else:
                places = [("", stmt)]
            found += [f"{path.name}:{place}" for place, node in places
                      if name in _referenced_names(node)]
    return found


def _function(module: str, name: str) -> ast.FunctionDef:
    return next(stmt for stmt in ast.parse(
        (SRC / module).read_text(encoding="utf-8")).body
        if isinstance(stmt, ast.FunctionDef) and stmt.name == name)


# one owner for the sector bases: every other module gets its bases with
# its blocks, through _read_blocks or _read_pair
def test_only_spectral_names_the_sector_bases():
    places = _referrers("_sector_bases")
    assert places and {p.split(":")[0] for p in places} == {"spectral.py"}


# one block read, routed by the parity alone: _read_blocks reads the blocks
# of the parity it is given and never gathers them into a dense matrix;
# only transform does, and no caller picks a parity by Hermiticity
def test_only_transform_gathers_the_sector_blocks():
    assert _referrers("_from_sector_blocks") == [
        "spectral.py:SpectralDecomposition.transform"]
    read = _referenced_names(_function("spectral.py", "_read_blocks"))
    assert not {"_block_parity", "_from_sector_blocks"} & read
    guarded = [f"{path.name}:{ast.unparse(node)}"
               for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.IfExp)
               and isinstance(node.body, ast.Call)
               and ast.unparse(node.body.func) == "_block_parity"]
    assert guarded == []


# one home for each run rule: the CLI passes the library's reason on
# (cli._checked) instead of testing the library's private constants itself
def test_cli_imports_no_private_constant():
    tree = ast.parse((SRC / "cli.py").read_text(encoding="utf-8"))
    private = [a.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1
               for a in node.names
               if a.name.startswith("_") and a.name.lstrip("_").isupper()]
    assert private == []


# one home for each bound check's verdict: the CLI runners of the scans and
# of theorem_check pass on the library's result.passed and judge nothing
@pytest.mark.parametrize("runner", ["_run_lr_scan", "_run_locality_scan",
                                    "_run_theorem_check"])
def test_cli_runners_return_the_library_verdict(runner):
    func = _function("cli.py", runner)
    verdicts = [node.value.elts[0] for node in ast.walk(func)
                if isinstance(node, ast.Return)]
    assert verdicts and all(isinstance(v, ast.Attribute) and v.attr == "passed"
                            and isinstance(v.value, ast.Name) for v in verdicts)
    assert "passed" not in {node.id for node in ast.walk(func)
                            if isinstance(node, ast.Name)}
    assert "_MONO_SLACK" not in _referenced_names(
        ast.parse((SRC / "cli.py").read_text(encoding="utf-8")))


# one prefactor rule: dynamics._prefactor is the smallest c with
# row <= c * envelope for both scans and for theorem_check's judgement
def test_one_prefactor_rule():
    assert _referrers("_prefactor") == [
        "dynamics.py:lr_commutator_scan",
        "dynamics.py:locality_scan", "verify.py:", "verify.py:_judge_upgrade"]
