"""slopelab: Newton-polygon deformation calculus for F-crystals at desk scale.

The package names load on first use: `import slopelab` imports none of
the submodules, and `slopelab.np_make` imports `slopelab.polygon` when it
is first read (PEP 562).  `slopelab.arith` and `slopelab.monodromy`
export their names the same way, and each `slopelab` command imports
only the modules it runs, so a run compiles and executes only the code
on its path.
"""

import importlib

__version__ = "0.1.0"


def _lazy_exports(namespace: dict, table: dict):
    """`__all__`, `__getattr__` and `__dir__` for a package whose public
    names are `table`, {submodule: names}.  A name's submodule is imported
    on first use and the name is then bound in `namespace`."""
    home = {name: module for module, names in table.items() for name in names}
    package = namespace["__name__"]

    def __getattr__(name):
        if name not in home:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{home[name]}")
        value = namespace[name] = getattr(module, name)
        return value

    def __dir__():
        return sorted(set(namespace) | set(home))

    return list(home), __getattr__, __dir__


__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "display": ("DeformationSpec", "Display", "charpoly", "charpoly_polygon",
                "deformation", "split_display"),
    "errors": ("CliParseError", "GuardExceeded", "PreconditionError",
               "SlopelabError"),
    "polygon": ("NewtonPolygon", "Stratification", "adjoin", "attainable",
                "compare", "np_make", "np_merge", "strata", "stratify",
                "symmetric_adjoin"),
    "serialize": ("canonical_dumps", "np_from_json"),
})
__all__.append("__version__")
