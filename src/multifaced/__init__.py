"""Two-faced set partitions, admissible weight families, and the symmetric
universal products they generate."""

from .partitions import (
    DEFAULT_ALPHABET,
    Partition,
    PartitionError,
    all_words,
    concatenate,
    enumerate_partitions,
    format_diagram,
    meet,
    one_block,
    parse_diagram,
    partition_from_json,
    partition_to_json,
    partitions_upto,
    refinements,
    set_partitions,
    singletons,
)
from .classes import ALL_CLASSES, ClassId, class_member_set, member, swap_class
from .weights import (
    EPS,
    BasicCoefficients,
    ClassIndicatorFamily,
    ConstantBlockFamily,
    DeformedFamily,
    PredicateFamily,
    TableFamily,
    WeightFamily,
    approx,
    bi_interval_family,
    check_admissible,
    check_basic_relations,
    evaluate_randomized,
    family_from_json,
    is_singleton_inductive,
)
from .classify import (
    Deformed,
    HASSE_EDGES,
    PATTERNS,
    classify_pattern,
    class_generators,
    closure_generate,
    enumerate_admissible_patterns,
    hasse_verify,
    refinement_restriction_check,
    swap_pattern,
)
from .cumulants import (
    FunctionalTable,
    cumulant,
    direct_sum,
    exp_alpha,
    product_letter_cumulant_check,
    log_alpha,
    merged_letter_table,
    moment_via_ordered_relation,
    random_table,
    standard_generators,
    substituted_table,
    table_from_json,
    table_to_json,
    unit_extended_table,
)
from .product import (
    Product,
    associativity_symmetry_check,
    coarsest_refinements_in_class,
    combinatorial_moment,
    extract_full_coefficient,
    extract_highest_coefficient,
    product_moment,
    product_table,
    unit_preservation_check,
    well_definedness_check,
)

__version__ = "0.1.0"
