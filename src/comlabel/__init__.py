"""comlabel: multi-label learning from single complementary labels.

The package covers the full pipeline: corrupting fully labeled data into
complementary labels, estimating the class-transition matrix from candidate
labels with a correlation correction, training linear classifiers through the
transition-composed losses, evaluating with the standard multi-label
criteria, and verifying the underlying identities and bounds numerically on
small label spaces.

The package re-exports nothing: each name is imported from its module
(`comlabel.loss`, `comlabel.experiment`, ...), whose `__all__` lists its
public names.
"""

__version__ = "0.1.0"
