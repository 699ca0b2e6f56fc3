"""Shared pytest configuration.

Registers the Hypothesis ``ci`` profile: ``--hypothesis-profile=ci``
gives the differential oracles (``tests/test_vllm_oracle.py``,
``tests/test_kv_cache_stateful.py``, ``tests/test_attribution_oracle.py``,
``tests/test_dma_grants.py``, ``tests/test_idle_producers.py``,
``tests/test_flexgen_windows.py`` and ``tests/test_frontend_oracle.py``)
a larger example budget than tier-1 runs by default.
"""

from hypothesis import settings

settings.register_profile("ci", max_examples=300, deadline=None)
