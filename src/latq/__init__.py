"""latq: exact integral-lattice arithmetic, theta q-series, Siegel local
densities, polarisation-orbit counts and Kodaira-type verdicts.

The namespace is lazy (PEP 562): ``import latq`` loads no submodule, and
``latq.verdict`` imports ``latq.kodaira`` on first access.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    **dict.fromkeys(
        (
            "E7SearchResult",
            "Verdict",
            "WITNESS_TABLE",
            "inequality_check",
            "orthogonal_root_count",
            "search",
            "verdict",
            "weight",
        ),
        "kodaira",
    ),
    **dict.fromkeys(
        (
            "A",
            "D",
            "E7",
            "E8",
            "DiscriminantGroup",
            "GramLattice",
            "LatticeVector",
            "U",
            "direct_sum",
            "discriminant_group",
            "divisor",
            "enumerate_norm",
            "hyperkahler_lattice",
            "inner",
            "is_isometric",
            "norm",
            "orthogonal_complement",
            "reflection",
            "reflection_orbits",
            "rep_count",
            "rescale",
            "roots",
            "span",
            "standard_lattice",
            "theta_counts",
            "theta_e7",
            "theta_e8",
        ),
        "lattices",
    ),
    **dict.fromkeys(
        (
            "HypothesisViolation",
            "OrbitReport",
            "PolarisationQuery",
            "disc_auto_order",
            "orbit_count_formula",
            "orbit_count_oracle",
            "perp_gram",
            "stable_index_formula",
            "stable_index_oracle",
        ),
        "polarisation",
    ),
    **dict.fromkeys(
        (
            "QSeries",
            "scale_tau",
            "shift_tau_by_one",
            "theta3",
            "theta3_shifted",
            "theta_A",
            "theta_D",
        ),
        "qseries",
    ),
    **dict.fromkeys(
        (
            "DensityReport",
            "FORMS",
            "OddForm",
            "ZagierDiscriminant",
            "alpha2_A1D4",
            "alpha2_A5",
            "alpha2_S5",
            "alpha3_A5",
            "alpha_infinity",
            "alpha_regular",
            "cohen_H",
            "decompose_t",
            "discriminant_of",
            "kronecker",
            "local_density_oracle",
            "local_factor",
            "nd6",
            "oracle_alpha",
            "siegel_r",
            "zagier_L_numeric",
        ),
        "siegel",
    ),
    **dict.fromkeys(("a1a1_sublattices", "a2_sublattices", "four_a1_sublattices", "orbit_summary"), "weyl"),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # not cached in the package: the attribute is read from its submodule on
    # every access, so it stays the submodule's object even when that changes
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
