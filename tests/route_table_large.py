"""The route-table check of ``tests/unit/test_route_table.py`` on the
16x16 mesh (about 10 s on a 2-core box), kept out of tier-1.

Run it explicitly, as the nightly ``conformance-matrix`` CI job does::

    PYTHONPATH=src python -m pytest -q tests/route_table_large.py
"""

from tests.unit.test_route_table import check_every_routing_function_and_scheme


def test_every_routing_function_and_scheme_16x16():
    check_every_routing_function_and_scheme(16, 16)
