"""Fair division of conflicting items: split a subset of items among k
agents so that no two items sharing a conflict edge go to the same agent,
maximizing the profit of the worst-off agent.

Exact solvers cover cocomparability graphs, chordal graphs, biconvex
bipartite graphs, and anything with a small tree decomposition; a rounding
layer turns any of them into a (1+eps)-approximation with polynomially many
states. Small instances can always fall back to brute force.

The package namespace is lazy (PEP 562): `import fkdiv` loads no
submodule, and each name in `__all__` imports its home module the first
time it is read. A command line solve thus loads only the modules its
route runs: `chordal_peo`, which the planner runs on every graph, lives
in `graphs`, so a solve that is not a tree-decomposition route never
loads `decomposition`.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "biconvex": ("solve_biconvex",),
    "cocomp": ("solve_cocomparability",),
    "decomposition": (
        "TreeDecomposition",
        "clique_tree",
        "is_chordal",
        "make_nice",
        "minfill_decomposition",
        "verify_decomposition",
    ),
    "errors": (
        "BudgetExceededError",
        "DecompositionError",
        "EmptySetError",
        "FkdivError",
        "NoApplicableAlgorithmError",
        "NotChordalError",
        "NotCocomparabilityError",
        "OrderingNotBiconvexError",
        "ParseError",
    ),
    "fptas": ("FptasResult", "paired_rounding_check", "parse_epsilon", "solve_approx"),
    "graphs": ("Graph", "Instance", "chordal_peo"),
    "instance_io": (
        "ParsedInstance",
        "build_report",
        "parse_instance",
        "serialize_instance",
        "validate_report",
    ),
    "oracle": ("brute_force", "decide_satisfaction_at_least", "max_weight_independent_set"),
    "orientation": ("is_cocomparability", "transitive_orientation"),
    "profiles": ("ProfileSet", "ProfileSpace", "profile_of", "satisfaction"),
    "treedp": ("solve_chordal", "solve_on_decomposition", "solve_treewidth"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*sorted(_HOME), "__version__"]


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
