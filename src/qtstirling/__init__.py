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
from .partitions import (
    Partition,
    contains,
    horizontal_strip_predecessors,
    is_horizontal_strip,
    n_stat,
    n_stat_conj,
    partitions_between,
    partitions_in_box,
    rectangle,
    subpartitions,
    weight,
    zeros,
)
from .pochhammer import (
    poch,
    poch_partition,
    poch_partition_flipped,
)
from .qtnumbers import (
    XBAR,
    bracket_rect,
    g_product,
    gaussian_binomial,
    h_product,
    qt_binomial,
    qt_binomial_rect,
    qt_bracket,
    qt_number,
)
from .reports import IdentityReport
from .stirling import (
    f_factor,
    ordinary_alpha_stirling,
    s1,
    s2,
    u_limit,
    u_limit_direct,
    u_matrix,
    v_limit,
    v_limit_direct,
    v_matrix,
)
from .verify import (
    MANIFEST,
    SuiteConfig,
    check_identity,
    classical_stirling1,
    classical_stirling2,
    emit_table,
    eval_point,
    run_suite,
)
from .wfunctions import (
    NotAStripError,
    generic_staircase_args,
    h_factor,
    staircase_args,
    w_bar,
    w_hat_multi,
    w_hat_skew_single,
    w_multi,
    w_skew_single,
    w_staircase,
)

__version__ = "0.1.0"
