"""spider_ray — a Ray-Data-native crawl / data-processing engine.

From-scratch reimplementation of the capabilities of the ``pengdan01/spider``
reference crawler (see SURVEY.md), expressed as ``ray.data.Dataset``
pipelines: ``map_batches`` over zero-copy Arrow batches for stateless
transforms, actor pools for stateful stages (frontier shards, politeness,
fetch/decode), and ``groupby``/``sort``/``repartition`` shuffles keyed on
64-bit host/url hashes.

Nothing in this package calls ``ray.init()`` — sessions are owned by the
caller (driver, CLI, ``perfbench/run.py``, or the pytest fixture).
"""

__version__ = "0.1.0"
