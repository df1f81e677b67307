"""Preset pipelines plus the per-process compile cache (driver-level
pass infrastructure)."""

import pytest

from repro import CompileOptions, clear_compile_cache
# Import the decorators from their defining module: the ``classical``
# attribute of the ``repro`` package is shadowed by the
# ``repro.classical`` submodule once anything imports the latter.
from repro.frontend.decorators import I, N, bit, cfunc, classical, qpu
from repro.algorithms import alternating_secret, bernstein_vazirani, grover
from repro.errors import PassPipelineError
from repro.pipeline import (
    PRESETS,
    _kernel_key,
    compile_cache_info,
    compile_kernel,
)


def bv_kernel(n=6):
    return bernstein_vazirani(alternating_secret(n))


def test_no_selinger_changes_decomposition():
    kernel = grover(6)
    default = kernel.compile(pipeline="default")
    naive = kernel.compile(pipeline="no-selinger")
    assert (
        default.decomposed_circuit.instructions
        != naive.decomposed_circuit.instructions
    )
    # The optimized (pre-decomposition) circuit is unaffected.
    assert (
        default.optimized_circuit.instructions
        == naive.optimized_circuit.instructions
    )


def test_every_preset_compiles_bv():
    kernel = bv_kernel()
    for name in PRESETS:
        result = kernel.compile(pipeline=name)
        assert result.qwerty_module is not None


def test_unknown_preset_rejected():
    with pytest.raises(PassPipelineError, match="unknown pipeline preset"):
        bv_kernel().compile(pipeline="turbo")


def test_conflicting_configuration_rejected():
    kernel = bv_kernel()
    with pytest.raises(TypeError):
        compile_kernel(
            kernel, options=CompileOptions(), pipeline="default"
        )


def test_verify_each_compiles_cleanly():
    options = CompileOptions.preset("default", verify_each=True)
    result = bv_kernel().compile(options=options)
    assert result.decomposed_circuit is not None


# ----------------------------------------------------------------------
# Per-pass statistics on a real compilation.
# ----------------------------------------------------------------------
def test_statistics_cover_all_layers():
    options = CompileOptions.preset("default", collect_statistics=True)
    result = bv_kernel().compile(options=options)
    names = [entry.name for entry in result.statistics.entries]
    assert "(frontend)" in names
    assert "lift-lambdas" in names and "inline" in names and "dce" in names
    assert "peephole{relaxed=true}" in names
    assert "decompose-multi-controlled{scheme=selinger}" in names
    assert result.statistics.total_seconds > 0.0
    report = result.statistics.report()
    assert "inline" in report and "total" in report


def test_statistics_off_by_default():
    assert bv_kernel().compile().statistics is None


# ----------------------------------------------------------------------
# The compile cache.
# ----------------------------------------------------------------------
def test_cache_hit_returns_same_result():
    clear_compile_cache()
    kernel = bv_kernel()
    first = kernel.compile(pipeline="default", cache=True)
    second = kernel.compile(pipeline="default", cache=True)
    assert first is second
    assert compile_cache_info()["entries"] == 1


def test_cache_miss_on_different_pipeline():
    clear_compile_cache()
    kernel = bv_kernel()
    default = kernel.compile(pipeline="default", cache=True)
    ablation = kernel.compile(pipeline="no-selinger", cache=True)
    assert default is not ablation
    assert compile_cache_info()["entries"] == 2


def test_cache_miss_on_different_dims():
    clear_compile_cache()
    bv_kernel(4).compile(cache=True)
    bv_kernel(5).compile(cache=True)
    assert compile_cache_info()["entries"] == 2


def test_cache_hit_across_equivalent_kernel_objects():
    clear_compile_cache()
    first = bv_kernel().compile(pipeline="default", cache=True)
    second = bv_kernel().compile(pipeline="default", cache=True)
    assert first is second


def test_cache_key_is_computed_once_per_kernel_object(monkeypatch):
    import repro.pipeline

    clear_compile_cache()
    kernel = bv_kernel()
    first = kernel.compile(pipeline="default", cache=True)

    def no_recompute(kernel):
        raise AssertionError("the cache key was recomputed")

    monkeypatch.setattr(repro.pipeline, "_kernel_fingerprint", no_recompute)
    assert kernel.compile(pipeline="default", cache=True) is first


def test_cache_keys_differ_for_different_secrets():
    one = bernstein_vazirani("1010")
    other = bernstein_vazirani("0110")
    assert _kernel_key(one) != _kernel_key(other)
    assert one.compile(cache=True) is not other.compile(cache=True)


def test_kernel_clones_get_their_own_cache_key():
    @classical[N]
    def oracle(x: bit[N]) -> bit:
        return x.and_reduce()

    @qpu[N, I](oracle)
    def search(oracle: cfunc[N, 1]) -> bit[N]:
        q = 'p'[N]
        for _ in range(I):
            q = q | oracle.sign | {'p'[N]} >> {-'p'[N]}
        return q | std[N].measure

    three = search[3, 1]
    key = _kernel_key(three)
    assert key[1] == (("I", 1), ("N", 3))
    assert _kernel_key(search[4, 1])[1] == (("I", 1), ("N", 4))
    assert _kernel_key(search[3, 2])[1] == (("I", 2), ("N", 3))
    assert _kernel_key(search[3, 2])[0] == key[0]  # same source
    clone = three[()]
    assert clone._cache_key is None  # not inherited from `three`
    assert _kernel_key(clone) == key
    assert search[4, 1].compile(cache=True) is not three.compile(cache=True)


def test_cache_distinguishes_same_named_kernels_with_other_captures():
    # Two kernels that are textually identical but capture different
    # secrets must not share a cache entry (the quickstart pattern).
    clear_compile_cache()

    def make(secret_str):
        secret = bit.from_str(secret_str)

        @classical[N](secret)
        def f(secret: bit[N], x: bit[N]) -> bit:
            return (secret & x).xor_reduce()

        @qpu[N](f)
        def kernel(f: cfunc[N, 1]) -> bit[N]:
            return 'p'[N] | f.sign | pm[N] >> std[N] | std[N].measure  # noqa

        return kernel

    assert make("1101")() == "1101"
    assert make("0110")() == "0110"
    # Same-secret recompiles hit the cache instead of adding entries.
    entries = compile_cache_info()["entries"]
    assert make("1101")() == "1101"
    assert compile_cache_info()["entries"] == entries


def test_cache_disabled_by_default():
    clear_compile_cache()
    kernel = bv_kernel()
    kernel.compile()
    assert compile_cache_info()["entries"] == 0


def test_cache_never_serves_wrong_statistics_configuration():
    # A warm cache entry compiled without statistics must not satisfy a
    # later compile that requests them (and vice versa).
    clear_compile_cache()
    kernel = bv_kernel()
    plain = kernel.compile(pipeline="default", cache=True)
    assert plain.statistics is None
    with_stats = kernel.compile(
        options=CompileOptions.preset("default", collect_statistics=True),
        cache=True,
    )
    assert with_stats is not plain
    assert with_stats.statistics is not None
    # And the plain configuration still hits its own entry.
    assert kernel.compile(pipeline="default", cache=True) is plain


def test_cache_is_lru_bounded():
    import repro.pipeline as pipeline_module

    clear_compile_cache()
    old_max = pipeline_module.COMPILE_CACHE_MAX_ENTRIES
    pipeline_module.COMPILE_CACHE_MAX_ENTRIES = 2
    try:
        kernels = [bv_kernel(n) for n in (4, 5, 6)]
        for kernel in kernels:
            kernel.compile(cache=True)
        assert compile_cache_info()["entries"] == 2
        # The oldest entry (n=4) was evicted; n=6 is still warm.
        warm = kernels[2].compile(cache=True)
        assert warm is kernels[2].compile(cache=True)
    finally:
        pipeline_module.COMPILE_CACHE_MAX_ENTRIES = old_max
        clear_compile_cache()


def test_simulate_kernel_cache_opt_out():
    from repro.pipeline import simulate_kernel

    clear_compile_cache()
    kernel = bv_kernel()
    assert "".join(map(str, simulate_kernel(kernel, cache=False)[0])) == "101010"
    assert compile_cache_info()["entries"] == 0
    simulate_kernel(kernel)
    assert compile_cache_info()["entries"] == 1
