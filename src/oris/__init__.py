"""Desk-scale laboratory for online active learning over document streams.

A DQN-based inclusive-sampling agent is trained and evaluated against
random, uncertainty, and diversity baselines while a simulated annotator
with parameterized memory decay provides (possibly erroneous) labels.
"""

__version__ = "0.1.0"
