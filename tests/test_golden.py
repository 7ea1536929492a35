"""One digest over the analyze and transform outputs a refactor must keep.

The bytes hashed: ``cost.render_text`` and ``render_csv`` of every zoo
architecture, and for dcnn_table2, mnist_small and res18_mini under every
variant x residual x selector policy (omega 0.5, bottleneck 50) the
transformed JSON, its ``render_diff`` and its analyze text and CSV, or the
``ArchError`` message where the policy finds nothing to replace. A change
to a cost rule, a transform rule or a report format moves the digest.

The grid runs twice: on a fresh source per policy, and on one source per
architecture analyzed (so validated and sealed) before its grid, whose kept
trace every transform then reads. Both give the same bytes, and the shared
source's JSON is the same after its grid as before it.
"""
import hashlib
import itertools

import pytest

from parcnn import cost, transform, zoo
from parcnn.errors import ArchError

GOLDEN_DIGEST = "30348310e1703254"


def _golden_bytes(shared_source: bool):
    for name in zoo.ZOO_NAMES:
        report = cost.analyze(zoo.build_zoo_arch(name))
        yield f"== analyze {name}\n"
        yield cost.render_text(report, title=name)
        yield cost.render_csv(report)
    for name in ("dcnn_table2", "mnist_small", "res18_mini"):
        source = zoo.build_zoo_arch(name)
        if shared_source:
            cost.analyze(source)
        source_json = source.to_json()
        grid = itertools.product(transform.VARIANTS, (False, True), transform.SELECTORS)
        for variant, residual, selector in grid:
            yield f"== transform {name} {variant} residual={residual} {selector}\n"
            arch = source if shared_source else zoo.build_zoo_arch(name)
            policy = transform.DistillPolicy(omega=0.5, bottleneck_dim=50,
                                             variant=variant, residual=residual,
                                             replace_selector=selector)
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
        assert source.to_json() == source_json


@pytest.mark.parametrize("shared_source", [False, True],
                         ids=["fresh-source", "shared-validated-source"])
def test_analyze_and_transform_outputs_match_golden_digest(shared_source):
    digest = hashlib.sha256()
    for text in _golden_bytes(shared_source):
        digest.update(text.encode())
    assert digest.hexdigest()[:16] == GOLDEN_DIGEST
