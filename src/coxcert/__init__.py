"""Combinatorial certificates for right-angled Coxeter group dimension counts."""
