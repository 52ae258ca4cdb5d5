"""Solvers and audits for variational problems of linear growth."""

__version__ = "0.1.0"
