"""Callgraph fixture: call cycles — reachability terminates."""


def alpha(x):
    return beta(x)


def beta(x):
    return alpha(x - 1)

