"""The settable surface: which public parameters take a default.

The only values a user sets are the flags of one CLI request; every other
cap and tolerance is a module constant of the layer that owns it.  This
test lists every defaulted parameter of a public function or method, so a
new knob needs a deliberate entry here, with its reason.
"""

import importlib
import inspect
import pkgutil

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
    "circuits.random_brickwork(first_offset)": "brick alignment; None draws it from the seed",
    "partition.build_partition(start)": "where the regions start on the ring",
    "partition.build_partition(ab_size)": "size of A∪B; None takes the least, 4 * depth + 4",
    "tensor.MpsTensor.gauged(x_inv)": "a known inverse of the gauge; None inverts it",
    "families.counterexample_exact_weights(t)": "family parameter; None takes t*",
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
