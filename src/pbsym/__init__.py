"""Certified symmetry breaking for pseudo-Boolean formulas.

Submodules:
  constraints  -- PB constraint algebra (normalize/negate/substitute/polish/RUP)
  parsing      -- OPB, DIMACS CNF, symmetry and proof parsers/serializers
  orders       -- validation and instances of def_order steps (preorders
                  with auxiliary variables)
  checker      -- the proof state machine
  breaker      -- proof-logging lex-leader breaking of witness-dict symmetries
  bench        -- crafted benchmark families and their symmetry generators
  cli          -- command line entry points
"""

__version__ = "0.1.0"
