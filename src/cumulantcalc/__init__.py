"""Exact combinatorics of classical, free, Boolean and monotone cumulants.

The package computes, over exact rationals, the combinatorial apparatus
relating the four cumulant families of noncommutative probability: set
partition lattices with their Moebius functions, nesting forests and tree
factorials, labelling polynomials, crossing and anti-interval graphs with
Tutte evaluations, heap/pyramid enumeration, permutation statistics, and
the beta coefficients of the monotone-to-classical expansion.  Every
identity in the catalog is machine-verified as an exact polynomial or
series equality (see `cumulantcalc.identities`).
"""

from .algebra import (
    MomentPolynomial,
    Polynomial,
    TruncatedSeries,
    bernoulli_number,
    faulhaber_polynomial,
    linear_combination,
    moment_monomial,
    rational_from_str,
    rational_to_str,
)
from .cumulants import (
    CumulantKind,
    beta_formula,
    boolean_poisson_kappa,
    build_beta_table,
    convert_sequence,
    cumulant_poly,
    cumulants_from_moments,
    determinant_cumulants,
    moments_from_cumulants,
    monotone_dilate,
    nested_pair_partition,
    partitioned_cumulant,
    tilde_transform,
)
from .forests import (
    alpha,
    depth,
    labelling_polynomial,
)
from .graphs import (
    HeapOrder,
    MixedGraph,
    anti_interval_digraph,
    anti_interval_graph,
    count_pyramids,
    crossing_graph,
    enumerate_pyramids,
    tutte_eval,
)
from .identities import (
    IDENTITY_CATALOG,
    Report,
    identity_names,
    run_catalog,
    verify_identity,
)
from .limits import ResourceLimitError
from .partitions import (
    OrderedPartition,
    SetPartition,
    enumerate_monotone,
    enumerate_partitions,
    kreweras_complement,
    lattice_leq,
    lower_interval,
)
from .permutations import (
    Permutation,
    cycle_runs,
    cycles,
    cyclic_permutations,
    eulerian,
    eulerian_polynomial,
    phi,
    psi,
    psi_inverse,
    runs,
)

__version__ = "0.1.0"
