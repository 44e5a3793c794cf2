import ast
from pathlib import Path

import maxprob

# Where numpy's float warnings may be silenced: logspace decides a reduction's
# float edges, train reports a diverging run by its logits, and make_distribution
# takes the log of an exact zero.
ALLOWED = {("logspace", None), ("nn", "train"), ("distributions", "make_distribution")}


def errstate_sites():
    """(module, enclosing top-level function or None) of every np.errstate in the package."""
    for path in sorted(Path(maxprob.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            name = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            for sub in ast.walk(node):
                if (isinstance(sub, ast.Attribute) and sub.attr == "errstate"
                        and isinstance(sub.value, ast.Name) and sub.value.id == "np"):
                    yield path.stem, name


def test_errstate_only_where_allowed():
    sites = set(errstate_sites())
    assert ("logspace", "_logsumexp") in sites, "no np.errstate found; update this test"
    stray = sorted(site for site in sites
                   if site not in ALLOWED and (site[0], None) not in ALLOWED)
    assert not stray, f"np.errstate outside logspace, nn.train and make_distribution: {stray}"
