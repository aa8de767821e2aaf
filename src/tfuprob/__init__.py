"""Three-valued demonstrability logic and its probability engines.

The package walks one idea through four formalisms: propositions tagged
T (provable), F (refutable) or U (neither), classical probability as
geometry over complete states, measure-valued probability over T/F/U
cells, and complex state vectors with Hermitian projectors. The wde
module stages the Wigner-d'Espagnat inequality in each regime, and the
command line (`tfuprob eval | check | search`) drives everything from
JSON problem files.
"""

__version__ = "0.1.0"
