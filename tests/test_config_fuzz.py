"""Config-document fuzz over the parser's own key tables.

Each case sets one document key to one token of a small per-key list (valid,
boundary, zero, negative, nan, inf, garbage). Hypothesis draws the rest of the
document: an operator, kernel and initial data that read the key, and valid
values for a random subset of the other keys that apply. Every document must
parse and run, or end in a FastFrontsError. A run that completes must stay
finite and must also report. A key set to nan, inf or -inf must never
complete a clean run: it ends in a FastFrontsError, or the guard breaches.
Through `fastfronts run` the same document must exit 0, or exit 1 with
`error <Category>` naming the same error class.

A document's reader converts every value before RunConfig sees it, so the
wrong-typed fields that only Python callers can pass are listed apart: each
must end in ValidationFailed.

Grids stay small (N <= 256, t_end <= 0.1): the node-count bound is reached
through validation (2**31 nodes fail before any allocation), never by
allocating, and the exponents keep the fractional fast-diffusion sub-cycle
count in the hundreds per run.
"""

import contextlib
import io
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import fastfronts as ff
from fastfronts import experiment
from fastfronts.cli import main

_BAD = ("0", "-1", "nan", "inf", "abc")
_NONFINITE = ("nan", "inf", "-inf")

# key -> (valid tokens, other tokens); `@name` stands for a file of FILES
TOKENS = {
    "grid.l": (("50", "400"), ("1e-310", "1e-300", "1e-153", "1e200", "1e308", *_BAD)),
    "grid.n": (("64", "256"), ("8", "4", "100", "2147483648", "1e400", *_BAD)),
    "grid.guard": (("1e-4", "0.49"), ("0.5", *_BAD)),
    "dispersal.variant": (tuple(experiment._VARIANTS), ("Standard_Laplacian", "", "abc")),
    "dispersal.alpha": (("0.5", "0.9"), ("1", "1.5", *_BAD)),
    "dispersal.gamma": (("0.75", "1"), ("1.5", *_BAD)),
    "dispersal.kernel": (tuple(experiment._KERNELS), ("Algebraic", "abc")),
    "dispersal.kernel_a": (("0.5", "0.25"), ("1", *_BAD)),
    "dispersal.kernel_b": (("1", "2"), _BAD),
    "dispersal.kernel_p": (("3.5",), ("2", *_BAD)),
    "dispersal.kernel_file": (("@kernel.txt",), ("@kernel_nan.txt", "@kernel_odd.txt",
                                                 "@empty.txt", "@malformed.txt", "@missing.txt")),
    "dispersal.kernel_normalize": (("true", "no"), ("ON", "1", *_BAD)),
    "reaction.variant": (("kpp_logistic", "none"), ("KPP_Logistic", "abc")),
    "time.dt": (("0.01", "0.05"), _BAD),
    "time.t_end": (("0.1", "0.05"), _BAD),
    "time.snapshots": (("auto", "0,0.05"), ("0.05", "0.2", "0.05,0.01", "", "-1", "nan", "inf",
                                           "abc")),
    "initial.kind": (tuple(experiment._INITIALS), ("Indicator", "abc")),
    "initial.width": (("100", "1"), _BAD),
    "initial.position": (("0", "10"), ("-inf", *_BAD)),
    "initial.file": (("@u0.txt",), ("@u0_high.txt", "@empty.txt", "@malformed.txt",
                                    "@missing.txt")),
    "diagnostics.lambdas": (("0.4,0.5,0.6", "0.1"), ("", "1", "0.5,1.5", *_BAD)),
    "diagnostics.stretch": (("0.4,0.6", "0.2,0.8"), ("0.6,0.4", "0.5", "0.1,0.2,0.3", "0,1",
                                                    *_BAD)),
    "diagnostics.flat_level": (("0.5", "0.9"), ("1.5", "1", *_BAD)),
    "diagnostics.flat_radius": (("5", "0"), _BAD),
    "diagnostics.seam_margin": (("0.25", "0.9"), ("1", *_BAD)),
    "output.dir": (("results",), ("",)),
}

_XS = np.linspace(-4.0, 4.0, 9)
FILES = {
    "kernel.txt": "".join(f"{x:g} {np.exp(-abs(x)) / 2:.17g}\n" for x in _XS),
    "kernel_nan.txt": "".join(f"{x:g} {'nan' if x == 0 else '0.1'}\n" for x in _XS),
    "kernel_odd.txt": "".join(f"{x:g} {np.exp(-x) / 2:.17g}\n" for x in _XS),
    "u0.txt": "".join(f"{i} {1.0 if i < 32 else 0.0}\n" for i in range(64)),
    "u0_high.txt": "".join(f"{i} 1.5\n" for i in range(64)),
    "empty.txt": "",
    "malformed.txt": "0.0 0.5\n1.0 foo\n",
}

CASES = [(key, tok) for key, (valid, other) in TOKENS.items()
         for tok in dict.fromkeys(valid + other)]
_KERNEL_KEYS = {"dispersal.kernel"}.union(*(table for _, table in experiment._KERNELS.values()))


def test_tokens_cover_every_key():
    assert set(TOKENS) == experiment._KEYS
    assert len(TOKENS) == 26


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    for name, text in FILES.items():
        (root / name).write_text(text)
    return root


def _kinds_for(key, kinds):
    """The kinds whose key table holds `key`; every kind when none does."""
    return [name for name, (_, table) in kinds.items() if key in table] or list(kinds)


@st.composite
def documents(draw, key, token, root):
    """A document in which `key = token` comes last, after a random valid context."""
    lines = {}

    def put(k):
        valid = TOKENS[k][0]
        tok = draw(st.sampled_from(valid if k in experiment._REQUIRED else (None, *valid)))
        if tok is not None:
            lines[k] = tok

    variant = draw(st.sampled_from(
        ["convolution"] if key in _KERNEL_KEYS else _kinds_for(key, experiment._VARIANTS)
    ))
    lines["dispersal.variant"] = variant
    for k in (*experiment._RUN_KEYS, *experiment._VARIANTS[variant][1], "output.dir"):
        put(k)
    if variant == "convolution":
        kind = draw(st.sampled_from(_kinds_for(key, experiment._KERNELS)))
        lines["dispersal.kernel"] = kind
        for k in experiment._KERNELS[kind][1]:
            put(k)
    kind = draw(st.sampled_from(_kinds_for(key, experiment._INITIALS)))
    lines["initial.kind"] = kind
    for k in experiment._INITIALS[kind][1]:
        put(k)
    text = "".join(f"{k} = {v}\n" for k, v in lines.items()) + f"{key} = {token}\n"
    return re.sub(r"@(\S+)", lambda m: str(root / m.group(1)), text)


def _direct(text):
    """The error class a document ends in, or None when it runs and reports."""
    try:
        config, _ = ff.parse_config_text(text)
        traj = ff.run(config, raise_on_breach=True)
    except ff.FastFrontsError as exc:
        return type(exc).__name__
    for t, fld in traj.snapshots():
        assert np.all(np.isfinite(fld.values)), f"non-finite values at t={t}"
    ff.build_report(traj)  # a completed run must also report
    return None


@pytest.mark.parametrize("key, token", CASES, ids=[f"{k}={t}" for k, t in CASES])
@settings(max_examples=3, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_document_runs_or_fails_in_category(key, token, files, data):
    text = data.draw(documents(key, token, files))
    failure = _direct(text)
    if token in _NONFINITE:
        assert failure is not None, f"{key} = {token} completed a clean run"
    if not data.draw(st.booleans(), label="through the CLI"):
        return
    (files / "doc.cfg").write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["run", str(files / "doc.cfg"), "--out", str(files / "out")])
    if failure is None:
        assert code == 0, err.getvalue()
    else:
        assert code == 1
        category = re.match(r"error (\w+): ", err.getvalue())
        assert category and category.group(1) == failure


WRONG_TYPES = [
    ("L", "abc"), ("L", None), ("t_end", "1"), ("dt", None), ("eps_reg", "x"),
    ("guard_threshold", None), ("seam_margin_frac", [0.2]), ("flat_level", "0.5"),
    ("flat_radius", "5"), ("lambdas", (0.4, "x")), ("lambdas", None), ("lambdas", 0.5),
    ("stretch_pair", ("a", 0.6)), ("snapshot_times", (0.0, "x")),
]


@pytest.mark.parametrize("name, value", WRONG_TYPES,
                         ids=[f"{name}={value!r}" for name, value in WRONG_TYPES])
def test_wrong_typed_field_is_validation_failed(name, value):
    fields = dict(L=50.0, N=64, dispersal=ff.StandardLaplacian(), t_end=0.1)
    with pytest.raises(ff.ValidationFailed, match=name):
        ff.RunConfig(**{**fields, name: value})
