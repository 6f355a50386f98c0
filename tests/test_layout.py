"""Every function in src/ekrcross that only the tests call earns its place.

A top-level def whose name appears nowhere else in the code of
src/ekrcross, perfbench/ or scripts/ is reached from the tests alone; a
name in a docstring, a comment or a string of src/ekrcross is no use of
it.  Each one is listed here with the paper statement its tests check,
or the production function it is the oracle for; anything else is dead
weight.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# From Python 3.12 the text of an f-string is its own token type.
STRING_TOKENS = {tokenize.STRING, getattr(tokenize, "FSTRING_MIDDLE", tokenize.STRING)}

TEST_ONLY = {
    "lift_family": "p-weight version: adding a ground element keeps mu_p of a family",
    "sigma": "sequence bound: a sequence's 1-positions carry the bound to p = 1/m",
    "sigma_family": "sequence bound: |A| <= m^n mu_{1/m}(sigma(A)); shifted pairs project cross",
    "seq_cross_t_intersecting": "sequence compressions keep a pair cross t-intersecting",
    "make_H": "sequence bound: the extremal families H pull back the threshold families",
    "expected_H_size": "sequence bound: |H| = m^n mu_{1/m}(threshold family), m^(n-t) for the star",
    "is_seq_shifted": "sequence compressions end in a shifted pair",
    "seq_shift_pair_to_fixpoint": "sequence compressions of a pair keep sizes and cross t-intersection",
    "seq_family_from_text": "oracle for seq.seq_family_to_text, the CLI's sequence witness format",
    "shift_ij": "compression lemma: an (i, j)-shift keeps size and p-weight",
    "upward_closure": "builds the up-sets for setfam.is_inclusion_maximal's property test",
    "superset_family": "the stars reach the product bound C(n-t, k-t)^2, uniquely up to isomorphism",
    "make_saturated_walk": "the saturated walk on line u has t-dual the saturated walk on line 2t-u-1",
    "make_uniform_counterexample": "stability is sharp: a family near the star bound inside no star",
    "are_isomorphic": "uniqueness of the extremal pairs up to isomorphism",
    "family_from_text": "oracle for setfam.family_to_text, the CLI's witness format",
    "structure_indices": "structure lemma: the touch indices s - s' = (v-u)/2 are unique",
    "reflect_after_first_touch": "reflection: walks touching twice map injectively to crossing walks",
    "make_probe_walk": "uniqueness proof: each probe walk touches its line once, where stated",
    "iter_shifted_families": "oracle for shifted mode: lists every shifted family once",
    "dual_t_k": "uniform dual: the k-uniform dual of a meets a in at most t−1 elements, "
                "so no cross t-intersecting partner holds it",
}


def code_text(source: str, strings: bool = True) -> str:
    """The tokens of ``source`` without its comments and docstrings, and
    without its other string literals unless ``strings``."""
    docstrings = {
        (node.body[0].lineno, node.body[0].col_offset)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and ast.get_docstring(node, clean=False) is not None
    }
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return " ".join(tok.string for tok in tokens
                    if tok.type != tokenize.COMMENT and tok.start not in docstrings
                    and (strings or tok.type not in STRING_TOKENS))


def test_test_only_functions_are_listed():
    src = sorted((ROOT / "src" / "ekrcross").glob("*.py"))
    rest = [*(ROOT / "perfbench").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    # perfbench looks functions up by name, so its strings are uses; a
    # function named in a message in src/ekrcross is not used by it.
    texts = {p: code_text(p.read_text(), strings=p in rest) for p in src + rest}
    defs = [
        node.name
        for p in src
        for node in ast.parse(p.read_text()).body
        if isinstance(node, ast.FunctionDef)
    ]
    test_only = {
        name
        for name in defs
        if sum(len(re.findall(rf"\b{name}\b", t)) for t in texts.values()) == 1
    }
    assert test_only == set(TEST_ONLY)
