"""One digest over the analyze and transform outputs a refactor must keep.

The bytes hashed: ``cost.render_text`` and ``render_csv`` of every zoo
architecture, and for dcnn_table2, mnist_small and res18_mini under every
variant x residual x selector policy (omega 0.5, bottleneck 50) the
transformed JSON, its ``render_diff`` and its analyze text and CSV, or the
``ArchError`` message where the policy finds nothing to replace. A change
to a cost rule, a transform rule or a report format moves the digest.
"""
import hashlib
import itertools

from parcnn import cost, transform, zoo
from parcnn.errors import ArchError

GOLDEN_DIGEST = "30348310e1703254"


def _golden_bytes():
    for name in zoo.ZOO_NAMES:
        report = cost.analyze(zoo.build_zoo_arch(name))
        yield f"== analyze {name}\n"
        yield cost.render_text(report, title=name)
        yield cost.render_csv(report)
    grid = itertools.product(("dcnn_table2", "mnist_small", "res18_mini"),
                             transform.VARIANTS, (False, True), transform.SELECTORS)
    for name, variant, residual, selector in grid:
        yield f"== transform {name} {variant} residual={residual} {selector}\n"
        arch = zoo.build_zoo_arch(name)
        policy = transform.DistillPolicy(omega=0.5, bottleneck_dim=50, variant=variant,
                                         residual=residual, replace_selector=selector)
        try:
            result = transform.transform_with_report(arch, policy)
        except ArchError as exc:
            yield f"error: {exc}\n"
            continue
        report = cost.analyze(result.arch)
        yield result.arch.to_json()
        yield transform.render_diff(arch, result.arch, result)
        yield cost.render_text(report, title=name)
        yield cost.render_csv(report)


def test_analyze_and_transform_outputs_match_golden_digest():
    digest = hashlib.sha256()
    for text in _golden_bytes():
        digest.update(text.encode())
    assert digest.hexdigest()[:16] == GOLDEN_DIGEST
