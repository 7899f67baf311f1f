"""The public surface: which parameters take a default, and what `src/` reaches.

The only values a user sets are the flags of one CLI request; every other
cap and tolerance is a module constant of the layer that owns it.  This
test lists every defaulted parameter of a public function or method, so a
new knob needs a deliberate entry here, with its reason.  It also holds
`src/` to what the pipelines run: a public function or method that no code
in `src/` names needs an entry in UNREFERENCED, with its reason.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import lrn_detect

ALLOWED = {
    # Flags of the CLI request.
    "cli.main(argv)": "the command line; None reads sys.argv",
    "criteria.lrn_entropy_check(tau_int)": "fed by --tol-int",
    "criteria.srn_ratio_check(q_max)": "fed by --qmax",
    # Values the source itself passes in more than one way.
    "exact.best_rational(q_max)": "callers pass PHASE_Q_MAX and --qmax",
    "exact.best_rational(tau)": "callers pass PHASE_TAU and RATIO_TAU",
    # Geometry and data, not tolerances.
    "circuits.random_brickwork(local_dim)": "site dimension of the state it acts on",
    "tensor.MpsTensor.gauged(x_inv)": "a known inverse of the gauge; None inverts it",
    "io.tensor_to_json(exact_weights)": "optional annotation of the file",
    "io.save_tensor(exact_weights)": "optional annotation of the file",
    # Fields of result records.
    "criteria.Verdict.__init__(evidence)": "record field",
    "criteria.Verdict.__init__(residue_class)": "record field",
    "exact.ExactWeight.__init__(float_value)": "record field",
    "exact.ExactWeight.__init__(rational)": "record field",
    "exact.ExactWeight.__init__(coeff)": "record field",
    "exact.ExactWeight.__init__(base)": "record field",
    "exact.ExactWeight.__init__(index)": "record field",
    "spectral.NormalityWitness.__init__(right_fixed_point)": "record field",
    "spectral.NormalityWitness.__init__(left_fixed_point)": "record field",
    "weights.WeightSpectrum.__init__(labels)": "record field",
}

# Public functions and methods that no code in src/ names, each with the
# reason it stays in src/.
UNREFERENCED = {
    "io.save_tensor": "writes the input format that load_tensor reads",
    "families.alternating_tensor": "fixture family",
    "families.counterexample_tensor": "fixture family",
    "families.random_normal_tensor": "fixture family",
    "families.counterexample_exact_weights": "fixture family",
    "stabilizer.StabilizerTableau.apply_gate": "the benchmark's tracer wraps it by name",
}


def _public_callables(mod):
    """``(qualified name, function)`` for the public functions and methods of ``mod``."""
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def _defaulted_parameters():
    found = set()
    for info in pkgutil.iter_modules(lrn_detect.__path__):
        mod = importlib.import_module(f"lrn_detect.{info.name}")
        for qualname, func in _public_callables(mod):
            for p in inspect.signature(func).parameters.values():
                if p.default is not inspect.Parameter.empty:
                    found.add(f"{info.name}.{qualname}({p.name})")
    return found


def test_defaulted_parameters_are_the_allowlist():
    found = _defaulted_parameters()
    assert sorted(found - ALLOWED.keys()) == [], "defaulted, but not in ALLOWED"
    assert sorted(ALLOWED.keys() - found) == [], "in ALLOWED, but gone"


def _public_definitions(src: Path):
    """``(qualified name, name)`` of each public function and method defined in ``src``.

    A method that overrides one of a base class, such as ``_Parser.error``,
    is left out: the base class's caller reaches it.
    """
    for path in sorted(src.glob("*.py")):
        mod = importlib.import_module(
            "lrn_detect" if path.stem == "__init__" else f"lrn_detect.{path.stem}"
        )
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                yield f"{path.stem}.{node.name}", node.name
            elif isinstance(node, ast.ClassDef):
                bases = getattr(mod, node.name).__mro__[1:]
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
                            and not any(hasattr(b, item.name) for b in bases)):
                        yield f"{path.stem}.{node.name}.{item.name}", item.name


def _names_used(src: Path) -> set[str]:
    """Every name and attribute name that code in ``src`` reads or calls."""
    names = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_function_is_named_in_src():
    # Names only: a method counts as reached when any attribute of that
    # name is read, so WeightSpectrum.from_json, say, would hide behind
    # ExactWeight.from_json.
    src = Path(lrn_detect.__file__).parent
    used = _names_used(src)
    unreached = {qualname for qualname, name in _public_definitions(src) if name not in used}
    assert sorted(unreached - UNREFERENCED.keys()) == [], "named nowhere in src/"
    assert sorted(UNREFERENCED.keys() - unreached) == [], "in UNREFERENCED, but named"
