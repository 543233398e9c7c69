"""Exception types shared across the package."""


class CfpqError(Exception):
    """Base class for all errors raised by this package."""


class EmptyGrammar(CfpqError):
    """Grammar text contained no rules."""


class MalformedRule(CfpqError):
    """A grammar line does not match ``LHS -> symbols...``."""


class UnknownNonterminal(CfpqError):
    """A symbol was used where a nonterminal of the grammar was required."""


class UnknownVertex(CfpqError):
    """A vertex id or vertex name is not part of the graph."""


class LabelClash(CfpqError):
    """The input graph already uses a label that is a grammar nonterminal."""


class MalformedTriple(CfpqError):
    """A triple line does not have exactly three non-empty fields."""


class InvalidParams(CfpqError):
    """Generator or CLI parameters out of range."""


class SizeGuardExceeded(CfpqError):
    """The reference evaluator refused an input above its size budget."""
