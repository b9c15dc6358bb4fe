"""Dissipation of a two-level atom in a weak gravitational field.

Closed-form rates and density-matrix evolution, cross-validated against
brute-force integral oracles.  The API is module-qualified: import what you
use from ``gravatom.specfun``, ``gravatom.model``, ``gravatom.rates``,
``gravatom.lindblad``, ``gravatom.oracle`` and ``gravatom.errors``.  The
package root imports none of them, so that each command of ``gravatom.cli``
loads only the layers it runs.
"""

__version__ = "0.1.0"
