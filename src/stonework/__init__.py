"""stonework: exact finite duality between boolean inverse monoids and
boolean groupoids, plus a symbolic engine for prefix-pair monoids, their
orthogonal completions, and the groupoid of shift arrows on eventually
periodic words."""

from .duality import (
    IsoCertificate,
    MonoidMorphism,
    StoneGroupoid,
    basic_opens,
    clifford_check,
    functor_on_morphism,
    identity_morphism,
    point_ultrafilter,
    pullback_morphism,
    round_trip_groupoid,
    round_trip_monoid,
    stone_groupoid,
    union_bisection_probe,
    verify_basic_open_laws,
    weak_morphism_pullback,
)
from .errors import (
    BoundError,
    MorphismError,
    NotBooleanError,
    ParseError,
    StoneworkError,
    StructureError,
)
from .filters import (
    enumerate_ultrafilters,
    filter_product,
    ultrafilter_groupoid,
)
from .groupoids import (
    BisectionMonoid,
    CoveringFunctor,
    FiniteGroupoid,
    all_bisections_monoid,
    bisection_product,
    check_covering,
    disjoint_union,
    enumerate_bisections,
    group_groupoid,
    groupoid_to_dot,
    identity_functor,
    pair_groupoid,
    trivial_groupoid,
)
from .inverse_core import (
    MAX_ELEMENTS,
    BooleanCertificate,
    InverseMonoid,
    OrderData,
    boolean_algebra_monoid,
    brandt_monoid,
    chain_monoid,
    clifford_monoid,
    group_with_zero_monoid,
    partial_bijections,
    product_monoid,
    symmetric_inverse_monoid,
)
from .polycyclic import (
    CnElement,
    CuntzArrow,
    EvPeriodicWord,
    PolyElement,
    arrow_to_ultrafilter,
    cn_join,
    cn_mul,
    cuntz_compose,
    embed_poly,
    finite_depth_oracle,
    is_unit,
    parse_cn,
    parse_ev,
    parse_poly,
    poly_mul,
    ultrafilter_to_arrow,
)

__all__ = [name for name in dir() if not name.startswith("_")]
