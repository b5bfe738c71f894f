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

import sys

__version__ = "0.1.0"

# biglex<n>'s coefficients have n bits, so `old` proofs print, and the
# parser reads, numbers past the 4,300-digit limit CPython 3.11+ sets on
# int <-> str conversion by default (from n of about 14,284 on); 3.10 has
# no limit.
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(0)
