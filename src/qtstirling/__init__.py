"""Exact arithmetic for multiple qt-Stirling numbers and their building blocks.

The library computes, over the field of rational functions in q, t and a
generic exponential X = q^x:

* finite and partition-indexed q-Pochhammer symbols,
* the limiting well-poised Macdonald functions w and w-hat,
* qt-binomial coefficients and qt-brackets,
* multiple qt-Stirling numbers of both kinds, built as entries of V-algebra
  products (sums over the inclusion interval mu <= nu <= lam),
* an identity-verification suite checking every claimed relation by exact
  rational-function equality.

`import qtstirling` loads the rational-function kernel, `qtstirling.algebra`,
and nothing else of the package.  Every other public name, and each formula
submodule, loads on first access (PEP 562): `qtstirling.s1` imports
`stirling` and the layers it builds on, `qtstirling.run_suite` imports
`verify`.  A program that only does arithmetic so starts without compiling
and running the formula layers, and without the standard modules only the
suite needs (`dataclasses`, `json`, `csv`).  `from qtstirling import *`,
`dir(qtstirling)` and `qtstirling.verify.run_suite` see the same names as an
eager import would.
"""

from .algebra import (
    ONE,
    PoleError,
    Q,
    RationalFn,
    T,
    X,
    ZERO,
    canonical_str,
    const,
    evaluate,
    flip_qt,
    limit_q_to_1,
    monomial_rf,
    parse_rational,
    q_pow,
    subs_rational,
    substitute_t_eq_q_pow,
    t_pow,
    x_pow,
)

#: Each public name the kernel does not supply, and each submodule, by the
#: submodule that defines it.
_LAZY = {
    name: module
    for module, names in {
        "algebra": (),
        "partitions": (
            "Partition",
            "contains",
            "horizontal_strip_predecessors",
            "is_horizontal_strip",
            "n_stat",
            "n_stat_conj",
            "partitions_between",
            "partitions_in_box",
            "rectangle",
            "subpartitions",
            "weight",
            "zeros",
        ),
        "pochhammer": ("poch", "poch_partition", "poch_partition_flipped"),
        "qtnumbers": (
            "XBAR",
            "bracket_rect",
            "g_product",
            "gaussian_binomial",
            "h_product",
            "qt_binomial",
            "qt_binomial_rect",
            "qt_bracket",
            "qt_number",
        ),
        "reports": ("IdentityReport",),
        "stirling": (
            "f_factor",
            "ordinary_alpha_stirling",
            "s1",
            "s2",
            "u_limit",
            "u_limit_direct",
            "u_matrix",
            "v_limit",
            "v_limit_direct",
            "v_matrix",
        ),
        "verify": (
            "MANIFEST",
            "SuiteConfig",
            "check_identity",
            "classical_stirling1",
            "classical_stirling2",
            "emit_table",
            "eval_point",
            "run_suite",
        ),
        "wfunctions": (
            "NotAStripError",
            "generic_staircase_args",
            "h_factor",
            "staircase_args",
            "w_bar",
            "w_hat_multi",
            "w_hat_skew_single",
            "w_multi",
            "w_skew_single",
            "w_staircase",
        ),
    }.items()
    for name in (module, *names)
}

__all__ = sorted({*_LAZY, *(name for name in globals() if not name.startswith("_"))})

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule behind a lazy name and keep the value here."""
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
