"""Fixture: RPR007 transitive partitioner impurity (deliberately broken).

``shard_of`` contains no banned name itself; the randomness hides one
call away in a module-level helper.
"""

import random


def _salt():
    return random.random()  # RPR002: the only *direct* violation here


def _bucket(key, width):
    return (len(repr(key)) + int(_salt() * width)) % width


class JitterPartitioner:
    def shard_of(self, key):
        # RPR007 (through the call graph): shard_of -> _bucket -> _salt
        return _bucket(key, 4)


class LegalPartitioner:
    def shard_of(self, key):
        return len(repr(key)) % 4
