"""Repertoires, effective information, and the Shannon/mutual-information identities.

Everything is in bits (log base 2). The potential repertoire of a channel is
its input alphabet under a prior (uniform by default); the actual repertoire
is the Bayes posterior over inputs given an observed output, with likelihoods
read off the interventional rows p(y | do(x)). Effective information is the
KL divergence between the two, and Shannon entropy / mutual information fall
out as its expectations over the output distribution.

The two sides of E[ei] = I(X;Y) are computed apart, each as masked numpy
passes over the whole |X| x |Y| matrix: E[ei] from the posterior matrix, one
KL divergence per output column, an unreachable column weighing 0; mutual
information from the joint distribution against the product of its
marginals, sharing nothing with E[ei] but the check that the prior is over
the channel's inputs. Neither builds an index of nonzero cells or a gathered
copy of the matrix: zero cells are skipped by `where=` masks. Every sum
of products is an in-place product and numpy's own `sum`, and the output
distribution is an `einsum`: no `@`, which numpy hands to BLAS, whose sums
depend on its thread count, so the bits are the same on any thread count.

The 0 * log2(0 / q) = 0 convention applies throughout.
"""
from __future__ import annotations

import numpy as np

from .channels import ATOL, Channel, Distribution
from .errors import UndefinedOutputError, ValidationError


def _check_same_alphabet(p: Distribution, q: Distribution) -> None:
    if p.alphabet != q.alphabet:
        raise ValidationError(
            f"distributions are over different alphabets: "
            f"{list(p.alphabet.labels)} vs {list(q.alphabet.labels)}")


def kl_divergence(p: Distribution, q: Distribution) -> float:
    """D[p || q] = sum_x p(x) log2(p(x) / q(x)), in bits.

    Requires support(p) a subset of support(q); a symbol with p > 0 but
    q = 0 makes the divergence infinite and is rejected.

    Inputs are certified normalized only to ATOL, so two vectors that
    coincide entrywise at that precision represent the same distribution
    and get exactly 0; for the same reason a computed sum may undershoot
    zero by rounding-plus-slack, which is likewise reported as 0.
    """
    _check_same_alphabet(p, q)
    bad = np.flatnonzero((p.probs > 0.0) & (q.probs == 0.0))
    if bad.size:
        i = int(bad[0])
        raise ValidationError(
            f"support violation at symbol {p.alphabet.labels[i]!r}: p = {p.probs[i]}, q = 0")
    if np.allclose(p.probs, q.probs, rtol=0.0, atol=ATOL):
        return 0.0
    support = p.probs > 0.0
    pi = p.probs[support]
    terms = np.log2(pi)
    terms -= np.log2(q.probs[support])
    terms *= pi
    return max(0.0, float(terms.sum()))


def shannon_entropy(p: Distribution) -> float:
    """H(p) = -sum_x p(x) log2 p(x), in bits."""
    probs = p.probs[p.probs > 0.0]
    # max() also normalizes the -0.0 a point mass produces
    return max(0.0, float(-np.sum(probs * np.log2(probs))))


def _check_prior(m: Channel, prior: Distribution) -> None:
    if prior.alphabet != m.input:
        raise ValidationError(
            f"prior is over {list(prior.alphabet.labels)}, "
            f"channel inputs are {list(m.input.labels)}")


def output_distribution(m: Channel, prior: Distribution) -> Distribution:
    """p(y) = sum_x p(y | do(x)) prior(x), the effective distribution on outputs.

    Not validated again: the prior and the rows are each normalized within
    ATOL, so p(y) may sum to 1 within about twice that.
    """
    _check_prior(m, prior)
    return Distribution._derived(m.output, np.einsum("i,ij->j", prior.probs, m.matrix))


def actual_repertoire(m: Channel, prior: Distribution, y: str,
                      out_dist: Distribution | None = None) -> Distribution:
    """The Bayes posterior over inputs given output y: p(y|do(x)) prior(x) / p(y).

    `out_dist` is ``output_distribution(m, prior)`` when the caller already
    has it; otherwise it is computed here.
    """
    if out_dist is None:
        out_dist = output_distribution(m, prior)
    p_y = out_dist.prob(y)
    if p_y == 0.0:
        raise UndefinedOutputError(
            f"output {y!r} has probability 0 under this prior; "
            f"the actual repertoire is undefined")
    likelihood = m.matrix[:, m.output.index(y)]
    return Distribution(m.input, likelihood * prior.probs / p_y)


def effective_information(m: Channel, prior: Distribution, y: str) -> float:
    """ei = D[actual repertoire || prior], the information output y generates."""
    return kl_divergence(actual_repertoire(m, prior, y), prior)


def expected_effective_information(m: Channel, prior: Distribution) -> float:
    """E[ei | p(Y)]: effective information averaged over reachable outputs.

    Column y of the posterior matrix is the actual repertoire of output y;
    each column's KL divergence from the prior follows the rules of
    :func:`kl_divergence` (a column within ATOL of the prior gives exactly 0,
    a negative rounding residue gives 0). An unreachable output, p(y) = 0,
    keeps an all-zero column and adds 0. Equal to the mutual information of
    the channel, which :func:`mutual_information` computes independently.

    Peak memory: the posterior matrix, one buffer of its size for the log
    terms and then the ATOL test, and a boolean mask: about 2.1 matrices.
    """
    p_out = output_distribution(m, prior).probs
    q = prior.probs[:, None]
    # an unreachable column of matrix * q is all 0 and is left so
    post = m.matrix * q
    np.divide(post, p_out, out=post, where=p_out > 0.0)
    # 0 * log2(0 / q) = 0: a zero entry of post or q reads 0 as its log (a
    # zero q meets only zero posts). A difference of logs, because the
    # ratio post / q overflows when q is subnormal.
    terms = np.log2(post, out=np.zeros_like(post), where=post > 0.0)
    terms -= np.log2(q, out=np.zeros_like(q), where=q > 0.0)
    terms *= post
    ei = np.maximum(terms.sum(axis=0), 0.0)
    # the ATOL column rule, in the same buffer
    np.subtract(post, q, out=terms)
    ei[np.all(np.abs(terms, out=terms) <= ATOL, axis=0)] = 0.0
    ei *= p_out
    return float(ei.sum())


def mutual_information(m: Channel, prior: Distribution) -> float:
    """I(X;Y) = sum_{x,y} p(x) p(y|x) log2(p(y|x) / p(y)), over the joint distribution.

    p(y) is the column sum of the joint. Apart from the prior's alphabet
    check, nothing here is shared with :func:`expected_effective_information`.

    Peak memory: the joint, one buffer of its size for the log terms, and a
    boolean mask: about 2.1 matrices.
    """
    _check_prior(m, prior)
    joint = prior.probs[:, None] * m.matrix
    p_y = joint.sum(axis=0)
    # 0 * log2(0 / p(y)) = 0: a zero cell of the joint reads 0 as its log.
    # A difference of logs, because the ratio overflows when p(y) is subnormal.
    terms = np.log2(m.matrix, out=np.zeros_like(joint), where=joint > 0.0)
    terms -= np.log2(p_y, out=np.zeros_like(p_y), where=p_y > 0.0)
    terms *= joint
    # the sum can undershoot zero by rounding when X and Y are independent
    return max(0.0, float(terms.sum()))


def information_gain(prior: Distribution, posterior: Distribution) -> float:
    """D[posterior || prior]: Y/N questions answered in moving prior -> posterior."""
    return kl_divergence(posterior, prior)
