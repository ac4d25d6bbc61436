"""Exact classification of module categories over pointed fusion categories.

The combinatorial shadow of a pointed fusion category is a finite group with
a normalized 3-cocycle valued in Q/Z.  This package enumerates the algebra
pairs (H, psi) labeling its indecomposable module categories and decides
which pairs are equivalent, by exact integer and Q/Z arithmetic (sparse
echelon and Smith normal forms of coboundary matrices; no floating point
anywhere).
"""

from .qz import QZ, ZERO, qz, root_of_unity_str
from .errors import (BadDimensions, CategoryMismatch, DegreeMismatch,
                     GroupMismatch, InternalInvariantBroken, ModcatError,
                     NotAGroup, NotAnAction, NotASubgroup, NotCompatible,
                     ParseError, SizeLimitExceeded)
from .groups import (Group, Subgroup, builtin_group, conjugate_subgroup,
                     cyclic_group, dihedral_group, direct_product, from_table,
                     generators, group_from_json, group_to_json, semidirect_product,
                     subgroup_conjugacy_classes, subgroups)
from .cochains import (Cochain, coboundary, cochain_from_json, cochain_to_json,
                       combine, conjugate_cochain, cyclic_3cocycle, is_cocycle,
                       nonidentity_tuples, restrict, zero_cochain)
from .cohomology import (Echelon, SNF, echelon_form, h2_order, h2_representatives,
                         image_obstruction, is_cohomologous, smith_normal_form,
                         solve_coboundary)
from .pointed import (AlgebraPair, PointedCategory, alpha_g, big_omega,
                      gamma_cochain, validate_pair)
from .kac_paljutkin import KPData, kp_category, kp_group, kp_omega, kp_sigma, kp_tau
from .classify import (ClassificationReport, EquivalenceWitness,
                       admissible_subgroups, classify, criterion_cochain,
                       enumerate_pairs, equivalent_pairs, omega_fingerprint,
                       report_from_json, report_to_json)

__version__ = "0.1.0"
