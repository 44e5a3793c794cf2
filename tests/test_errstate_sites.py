import ast
from pathlib import Path

import maxprob

# Where numpy's float warnings may be silenced: logspace's one reduction decides its
# float edges, the generalized head's exp overflows to its limit, and train reports a
# diverging run by its logits.
ALLOWED = {("logspace", "_shifted"), ("logspace", "_head"), ("nn", "train")}


def package_nodes():
    """(module, enclosing top-level function or None, node) of every node in the package."""
    for path in sorted(Path(maxprob.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            name = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
            for sub in ast.walk(node):
                yield path.stem, name, sub


def errstate_sites():
    """(module, enclosing top-level function or None) of every np.errstate in the package."""
    for module, name, node in package_nodes():
        if (isinstance(node, ast.Attribute) and node.attr == "errstate"
                and isinstance(node.value, ast.Name) and node.value.id == "np"):
            yield module, name


def is_alpha(node) -> bool:
    """alpha, x.alpha, or either negated."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return ((isinstance(node, ast.Name) and node.id == "alpha")
            or (isinstance(node, ast.Attribute) and node.attr == "alpha"))


def test_errstate_only_where_allowed():
    sites = set(errstate_sites())
    assert ("logspace", "_shifted") in sites, "no np.errstate found; update this test"
    stray = sorted(site for site in sites
                   if site not in ALLOWED and (site[0], None) not in ALLOWED)
    assert not stray, f"np.errstate outside _shifted, _head and nn.train: {stray}"


def test_alpha_scales_mass_only_in_logspace():
    """logspace shifts before it scales, so that no alpha overflows a product; a product
    with alpha elsewhere would scale first."""
    products = sorted((module, name) for module, name, node in package_nodes()
                      if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
                      and (is_alpha(node.left) or is_alpha(node.right)))
    assert ("logspace", "_shifted") in products, "no alpha product found; update this test"
    assert {module for module, _ in products} == {"logspace"}, products


def test_only_logspace_reads_the_shift():
    """Each reading of logspace's one reduction has one kernel there; a module that called
    _shifted would read its tuple a second way."""
    callers = sorted({(module, name) for module, name, node in package_nodes()
                      if isinstance(node, ast.Call)  # _shifted(...) or logspace._shifted(...)
                      and getattr(node.func, "id", getattr(node.func, "attr", None)) == "_shifted"})
    assert ("logspace", "_soft_min_step") in callers, "no _shifted call found; update this test"
    assert {module for module, _ in callers} == {"logspace"}, callers


def test_only_errors_freezes_an_array():
    """errors._read_only holds the arrays of every type that keeps one; a module that froze
    an array itself would write out that rule (as_array, then read-only) a second time."""
    callers = sorted((module, name) for module, name, node in package_nodes()
                     if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "setflags")
    assert callers == [("errors", "_read_only")], callers


def raise_sites(error: str):
    """(module, enclosing top-level function or None) of every `raise error(...)` in the package."""
    for module, name, node in package_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == error:
                yield module, name


def test_each_likelihood_support_rule_is_checked_by_its_own_term():
    """The term builder that a support rule guards is the one place that raises for it."""
    assert sorted(raise_sites("EmptyIntersectionSupport")) == [("objectives", "_independent_term")]
    assert sorted(raise_sites("OracleSupportEscapesModel")) == [("objectives", "_subset_term")]


# Messages of the range, choice and collection checks, which errors.require_integer,
# errors.require_choice and errors.as_labels make for every caller.
CHECK_PHRASES = ("must be at least", "must be at most", "must be one of", "collection of hashable")


def raised_texts():
    """(module, enclosing top-level function or None, text) of every string in the
    expression of a raise statement in the package, an f-string's literal parts joined."""
    for module, name, node in package_nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            for sub in ast.walk(node.exc):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield module, name, sub.value
                elif isinstance(sub, ast.JoinedStr):
                    yield module, name, "".join(part.value for part in sub.values
                                                if isinstance(part, ast.Constant))


def test_range_and_collection_checks_only_in_errors():
    """A count or collection is checked by its errors helper, not by a hand-written raise."""
    sites = sorted({(module, name) for module, name, text in raised_texts()
                    if any(phrase in text for phrase in CHECK_PHRASES)})
    assert ("errors", "require_integer") in sites and ("errors", "as_labels") in sites, \
        "no range or collection message found in errors; update this test"
    stray = [site for site in sites if site[0] != "errors"]
    assert not stray, f"range or collection checks outside errors: {stray}"
