"""Experiment regenerators: one module per table/figure of the paper.

Every module exposes ``run(quick=True, **kwargs) -> dict`` returning the
rows/series the paper reports, plus ``format_result(result) -> str``.
``quick=True`` uses reduced windows/sizes so a full pass stays tractable in
pure Python; ``quick=False`` uses the paper-scale parameters.

:data:`ALL` names them in paper order.  The package imports none of them:
the CLI imports each one it runs, so importing one figure loads no other.
"""

ALL = ("table1", "table2", "fig7", "fig8", "fig9", "fig10", "fig11",
       "fig12", "fig13", "scenarios")

__all__ = ["ALL"]
