"""Every bounded entry point refuses an order above its bound with the one
message "order N above <kind> bound M", before it walks anything."""

import pytest

from quasilab import (OrderTooLarge, SearchOptions, a_pseudoautomorphisms, automorphism_count,
                      automorphism_group, automorphisms, autotopies, builtin, canonical_key, count,
                      cyclic, enumerate_abelian_groups, find_all, is_g, is_ga, pseudoautomorphisms,
                      run_verification)

Z8, Z17 = cyclic(8), cyclic(17)
AUTOTOPY = "order 8 above autotopy bound 7"
AUTOMORPHISM = "order 17 above automorphism bound 16"
CANONICAL = "order 17 above canonical-form bound 16"
UP_TO_ISO = SearchOptions(17, up_to_isomorphism=True)


@pytest.mark.parametrize("call, message", [
    pytest.param(lambda: autotopies(Z8), AUTOTOPY, id="autotopies"),
    pytest.param(lambda: pseudoautomorphisms(Z8, "right"), AUTOTOPY, id="pseudoautomorphisms"),
    pytest.param(lambda: a_pseudoautomorphisms(Z8, "left"), AUTOTOPY, id="a_pseudoautomorphisms"),
    pytest.param(lambda: is_ga(Z8), AUTOTOPY, id="is_ga"),
    pytest.param(lambda: is_g(Z8), AUTOTOPY, id="is_g"),
    pytest.param(lambda: automorphisms(Z17), AUTOMORPHISM, id="automorphisms"),
    pytest.param(lambda: automorphism_count(Z17), AUTOMORPHISM, id="automorphism_count"),
    pytest.param(lambda: automorphism_group(Z17), AUTOMORPHISM, id="automorphism_group"),
    pytest.param(lambda: canonical_key(Z17), CANONICAL, id="canonical_key"),
    pytest.param(lambda: find_all(UP_TO_ISO, max_order=20), CANONICAL, id="find_all-up-to-iso"),
    pytest.param(lambda: count(UP_TO_ISO, max_order=20), CANONICAL, id="count-up-to-iso"),
    pytest.param(lambda: enumerate_abelian_groups(65), "order 65 above enumeration bound 64",
                 id="enumerate_abelian_groups"),
    pytest.param(lambda: find_all(SearchOptions(7)), "order 7 above search bound 6", id="find_all"),
    pytest.param(lambda: count(SearchOptions(7)), "order 7 above search bound 6", id="count"),
    pytest.param(lambda: find_all(SearchOptions(6, identities=(builtin("medial"),))),
                 "order 6 above search bound 5", id="find_all-4-variables"),
    pytest.param(lambda: run_verification(max_construction_order=65),
                 "construction order 65 above enumeration bound 64", id="run_verification"),
])
def test_refusal_message(call, message, monkeypatch):
    monkeypatch.delenv("QUASILAB_MAX_ORDER", raising=False)
    with pytest.raises(OrderTooLarge) as info:
        call()
    assert str(info.value) == message
