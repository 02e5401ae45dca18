"""Classifier tests, including the randomized brute-force comparison."""

import random
import time
from itertools import combinations

from testmend.javasrc.ast import parse_java
from testmend.signatures import (
    MethodLocator,
    MethodSignature,
    SynBCKind,
    diff_signatures,
    get_obsolete_params,
    make_focal_change,
    method_body_text,
    parse_method,
    render_kinds,
)


def sig(name="mount", params=("AlluxioURI", "AlluxioURI", "MountOptions"),
        ret="void", mods=("public",), throws=(), names=None):
    if names is None:
        names = tuple(f"p{i}" for i in range(len(params)))
    return MethodSignature(
        name=name,
        param_types=tuple(params),
        return_type=ret,
        modifiers=frozenset(mods),
        throws=frozenset(throws),
        param_names=tuple(names),
    )


def test_param_type_change_is_param():
    got = diff_signatures(sig(), sig(params=("AlluxioURI", "AlluxioURI", "MountPOptions")))
    assert got == frozenset({SynBCKind.PARAM})


def test_return_change_is_ret():
    got = diff_signatures(sig(ret="int"), sig(ret="long"))
    assert got == frozenset({SynBCKind.RET})


def test_rename_only_is_norm():
    got = diff_signatures(sig(name="mount"), sig(name="mountPath"))
    assert got == frozenset({SynBCKind.NORM})


def test_modifier_or_throws_change_is_norm():
    assert diff_signatures(sig(mods=("public",)), sig(mods=("public", "synchronized"))) == \
        frozenset({SynBCKind.NORM})
    assert diff_signatures(sig(throws=()), sig(throws=("IOException",))) == \
        frozenset({SynBCKind.NORM})


def test_identical_signatures_empty():
    assert diff_signatures(sig(), sig()) == frozenset()


def test_param_and_ret_cooccur():
    got = diff_signatures(sig(ret="int"), sig(params=("long",), names=("p0",), ret="long"))
    assert got == frozenset({SynBCKind.PARAM, SynBCKind.RET})


def test_norm_never_cooccurs_with_param():
    # Param change plus rename: the rename is absorbed, flags stay {PARAM}.
    got = diff_signatures(sig(name="a"), sig(name="b", params=("int", "int", "int")))
    assert got == frozenset({SynBCKind.PARAM})


def test_generic_argument_change_counts_as_param():
    got = diff_signatures(sig(params=("List<String>",), names=("xs",)),
                          sig(params=("List<Integer>",), names=("xs",)))
    assert got == frozenset({SynBCKind.PARAM})


def test_render_kinds():
    assert render_kinds(frozenset()) == "none"
    assert render_kinds(frozenset({SynBCKind.PARAM})) == "ParamSynBC"
    assert render_kinds(frozenset({SynBCKind.NORM})) == "NormSynBC"
    assert render_kinds(frozenset({SynBCKind.PARAM, SynBCKind.RET})) == "ParamSynBC+RetSynBC"


def test_parse_method_from_source():
    src = """
    package p;
    class FileSystemMaster {
        public void mount(AlluxioURI a, AlluxioURI u, MountOptions o) { go(o); }
    }
    """
    loc = MethodLocator(file="F.java", classes=("FileSystemMaster",), method="mount")
    java_file = parse_java(src)
    signature = parse_method(java_file, loc)
    assert signature.name == "mount"
    assert signature.param_types == ("AlluxioURI", "AlluxioURI", "MountOptions")
    assert signature.param_names == ("a", "u", "o")
    assert "go(o);" in method_body_text(java_file, loc)


def test_make_focal_change():
    fc = make_focal_change(sig(), sig(params=("AlluxioURI", "AlluxioURI", "MountPOptions")))
    assert fc.is_param and not fc.is_ret
    assert fc.kinds == frozenset({SynBCKind.PARAM})


def test_obsolete_params_on_type_swap():
    orig = sig(params=("AlluxioURI", "AlluxioURI", "MountOptions"),
               names=("alluxioPath", "ufsPath", "options"))
    upd = sig(params=("AlluxioURI", "AlluxioURI", "MountPOptions"),
              names=("alluxioPath", "ufsPath", "options"))
    obs = get_obsolete_params(orig, upd)
    assert [(o.type_text, o.name, o.position) for o in obs] == \
        [("MountOptions", "options", 2)]


def test_obsolete_params_on_removal_and_reorder():
    orig = sig(params=("int", "String", "boolean"), names=("a", "b", "c"))
    upd = sig(params=("int", "boolean"), names=("a", "c"))
    obs = get_obsolete_params(orig, upd)
    assert [(o.name, o.position) for o in obs] == [("b", 1)]
    # Unchanged lists yield nothing.
    assert get_obsolete_params(orig, orig) == []


def test_obsolete_params_on_insertion_before_the_kept_ones():
    orig = sig(params=("String", "Opts"), names=("id", "o"))
    upd = sig(params=("Ctx", "String", "Settings"), names=("c", "id", "s"))
    obs = get_obsolete_params(orig, upd)
    assert [(o.type_text, o.name, o.position) for o in obs] == [("Opts", "o", 1)]


# --- randomized brute-force comparison (mirrors the acceptance bar) -----

TYPES = ["int", "long", "String", "AlluxioURI", "MountOptions", "List<String>", "List<Integer>"]
NAMES = ["mount", "unmount", "open", "close"]
MODS = ["public", "private", "static", "synchronized"]
THROWS = ["IOException", "InvalidPathException"]


def random_signature(rng):
    count = rng.randint(0, 4)
    params = tuple(rng.choice(TYPES) for _ in range(count))
    return MethodSignature(
        name=rng.choice(NAMES),
        param_types=params,
        return_type=rng.choice(["void", "int", "long", "Stats"]),
        modifiers=frozenset(rng.sample(MODS, rng.randint(0, 2))),
        throws=frozenset(rng.sample(THROWS, rng.randint(0, 2))),
        param_names=tuple(f"p{i}" for i in range(count)),
    )


def mutate(rng, s):
    """Apply 0..2 random tuple-element mutations."""
    name, params, ret = s.name, list(s.param_types), s.return_type
    mods, throws = set(s.modifiers), set(s.throws)
    for _ in range(rng.randint(0, 2)):
        which = rng.randrange(5)
        if which == 0:
            name = rng.choice(NAMES)
        elif which == 1 and params:
            params[rng.randrange(len(params))] = rng.choice(TYPES)
        elif which == 2:
            ret = rng.choice(["void", "int", "long", "Stats"])
        elif which == 3:
            mods ^= {rng.choice(MODS)}
        else:
            throws ^= {rng.choice(THROWS)}
    return MethodSignature(
        name=name,
        param_types=tuple(params),
        return_type=ret,
        modifiers=frozenset(mods),
        throws=frozenset(throws),
        param_names=s.param_names[: len(params)],
    )


def brute_force_kinds(a, b):
    """Direct predicate evaluation, written independently of the module."""
    flags = set()
    if list(a.param_types) != list(b.param_types):
        flags.add(SynBCKind.PARAM)
    if a.return_type != b.return_type:
        flags.add(SynBCKind.RET)
    if not flags and (
        a.name != b.name or set(a.modifiers) != set(b.modifiers)
        or set(a.throws) != set(b.throws)
    ):
        flags.add(SynBCKind.NORM)
    return frozenset(flags)


def test_random_pairs_match_brute_force():
    rng = random.Random(424242)
    start = time.monotonic()
    for _ in range(200):
        a = random_signature(rng)
        b = mutate(rng, a) if rng.random() < 0.8 else random_signature(rng)
        assert diff_signatures(a, b) == brute_force_kinds(a, b), (a, b)
    assert time.monotonic() - start < 1.0


def is_subsequence(items, sequence):
    rest = iter(sequence)
    return all(item in rest for item in items)


def brute_force_lcs_length(a, b):
    """The longest subsequence of ``a`` that is one of ``b``, by trying all."""
    for k in range(min(len(a), len(b)), 0, -1):
        if any(is_subsequence(c, b) for c in combinations(a, k)):
            return k
    return 0


def test_random_obsolete_params_leave_a_longest_common_subsequence():
    rng = random.Random(535353)
    pairs = [("int", "a"), ("int", "b"), ("String", "a"), ("Opts", "o")]
    for _ in range(300):
        a = [rng.choice(pairs) for _ in range(rng.randint(0, 5))]
        b = [rng.choice(pairs) for _ in range(rng.randint(0, 5))]
        obs = get_obsolete_params(
            sig(params=[t for t, _ in a], names=[n for _, n in a]),
            sig(params=[t for t, _ in b], names=[n for _, n in b]),
        )
        assert len(obs) == len(a) - brute_force_lcs_length(a, b), (a, b)
        assert all(a[o.position] == (o.type_text, o.name) for o in obs), (a, b)
        gone = {o.position for o in obs}
        kept = [pair for i, pair in enumerate(a) if i not in gone]
        assert is_subsequence(kept, b), (a, b)
