"""Lexing, structural parsing and canonical formatting of Java sources."""
