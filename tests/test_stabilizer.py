import hashlib
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as hst

from qwork import stabilizer as st
from qwork.qec_engine import four_bit_code


# ---------------------------------------------------------------- Pauli words

def test_string_round_trip():
    for s in ["XZZXI", "-ZZ", "iXY", "-iY", "IIIII", "YXZIY"]:
        assert str(st.PauliWord.from_string(s)) == s


def test_single_qubit_products():
    x = st.PauliWord.from_string("X")
    z = st.PauliWord.from_string("Z")
    y = st.PauliWord.from_string("Y")
    assert str(x * z) == "-iY"
    assert str(z * x) == "iY"
    assert str(y * y) == "I"
    assert str(x * y) == "iZ"
    assert np.allclose(y.matrix(), [[0, -1j], [1j, 0]])


def test_commutation_anchors():
    p = st.PauliWord.from_string("XZZXI")
    q = st.PauliWord.from_string("IXZZX")
    assert p.commutes(q)
    assert not st.PauliWord.from_string("XI").commutes(
        st.PauliWord.from_string("ZI"))
    assert st.PauliWord.from_string("XX").commutes(
        st.PauliWord.from_string("ZZ"))


def test_dagger_and_hermiticity():
    w = st.PauliWord.from_string("Y")
    assert w.is_hermitian
    assert np.allclose(w.dagger().matrix(), w.matrix().conj().T)
    v = st.PauliWord.from_string("iX")
    assert not v.is_hermitian
    assert np.allclose(v.dagger().matrix(), v.matrix().conj().T)


def test_apply_matches_matrix():
    rng = np.random.default_rng(11)
    for s in ["XZZXI", "-iYIXZY", "ZZ", "IXY", "YYYY"]:
        w = st.PauliWord.from_string(s)
        v = rng.normal(size=1 << w.n) + 1j * rng.normal(size=1 << w.n)
        assert np.allclose(w.apply(v), w.matrix() @ v)


def test_apply_acts_on_each_column():
    rng = np.random.default_rng(12)
    w = st.PauliWord.from_string("-iYZX")
    m = rng.normal(size=(8, 5)) + 1j * rng.normal(size=(8, 5))
    assert np.allclose(w.apply(m), w.matrix() @ m)


def test_weight():
    assert st.PauliWord.from_string("XZZXI").weight == 4
    assert st.identity_word(6).weight == 0
    assert st.single_qubit_word(6, 3, "Y").weight == 1


@settings(max_examples=60, deadline=None)
@given(hst.integers(0, 15), hst.integers(0, 15),
       hst.integers(0, 15), hst.integers(0, 15))
def test_product_and_commutator_match_dense(x1, z1, x2, z2):
    p = st.PauliWord(4, x1, z1)
    q = st.PauliWord(4, x2, z2)
    pm, qm = p.matrix(), q.matrix()
    assert np.allclose((p * q).matrix(), pm @ qm)
    dense_commute = np.allclose(pm @ qm, qm @ pm)
    assert p.commutes(q) == dense_commute


# ------------------------------------------------------------------ fixtures

ALL_CODES = [("shor9", st.shor9, 9, 1), ("steane7", st.steane7, 7, 1),
             ("five_qubit", st.five_qubit, 5, 1), ("ad7", st.ad7, 7, 3),
             ("ad4", st.ad4, 4, 1)]


@pytest.mark.parametrize("name,fn,n,k", ALL_CODES)
def test_fixture_shapes(name, fn, n, k):
    code = fn()
    assert code.n == n and code.k == k
    assert len(code.generators) == n - k
    assert len(code.logical_x) == len(code.logical_z) == k


@pytest.mark.parametrize("name,fn,n,k", ALL_CODES)
def test_codewords_are_stabilized(name, fn, n, k):
    code = fn()
    vecs = st.codewords(code)
    assert len(vecs) == 1 << k
    for v in vecs:
        for g in code.generators:
            assert np.allclose(g.apply(v), v, atol=1e-10)
    # logical Z eigenvalues follow the bit pattern
    for b, v in enumerate(vecs):
        for i, zbar in enumerate(code.logical_z):
            sign = -1 if (b >> (k - 1 - i)) & 1 else 1
            assert np.allclose(zbar.apply(v), sign * v, atol=1e-10)


def test_logical_x_flips_codewords():
    for fn in (st.five_qubit, st.steane7, st.shor9, st.ad4):
        code = fn()
        v0, v1 = st.codewords(code)
        ov = np.vdot(v1, code.logical_x[0].apply(v0))
        assert abs(abs(ov) - 1) < 1e-10


def test_ad4_matches_engine_codewords():
    vecs = st.codewords(st.ad4())
    engine = four_bit_code()
    for mine, theirs in zip(vecs, engine.logicals):
        assert abs(abs(np.vdot(mine, theirs)) - 1) < 1e-10


def test_ad7_logicals_form_symplectic_pairs():
    code = st.ad7()
    for i, xb in enumerate(code.logical_x):
        for j, zb in enumerate(code.logical_z):
            assert xb.commutes(zb) == (i != j)


def test_validation_rejections():
    with pytest.raises(ValueError):
        st.StabilizerCode.from_strings(["XX", "ZI"])       # anticommute
    with pytest.raises(ValueError):
        st.StabilizerCode.from_strings(["XX", "ZZ", "YY"])  # dependent
    with pytest.raises(ValueError):
        st.StabilizerCode.from_strings(["ZZ"], logical_x=["XI"],
                                       logical_z=["ZI"])


def test_validation_names_the_parameter():
    with pytest.raises(ValueError, match="generators"):
        st.StabilizerCode.from_strings([])
    # one logical_x without its logical_z
    with pytest.raises(ValueError, match="logical_x"):
        st.StabilizerCode.from_strings(["ZZI", "IZZ"], logical_x=["XXX"])
    # k = 2 but only one pair
    with pytest.raises(ValueError, match="logical_x"):
        st.StabilizerCode.from_strings(["ZZI"], ["XXX"], ["ZII"])


def test_negative_logical_sign_normalized():
    code = st.StabilizerCode.from_strings(["ZZ"], logical_x=["-XX"],
                                          logical_z=["ZI"])
    assert str(code.logical_x[0]) == "XX"


def test_json_round_trip():
    code = st.shor9()
    back = st.StabilizerCode.from_json(code.to_json())
    assert [str(g) for g in back.generators] == [str(g) for g in code.generators]
    assert [str(g) for g in back.logical_x] == [str(g) for g in code.logical_x]
    assert [str(g) for g in back.logical_z] == [str(g) for g in code.logical_z]


def test_projector_rank_and_group_size():
    assert int(round(np.trace(st.code_projector(st.five_qubit())).real)) == 2
    assert int(round(np.trace(st.code_projector(st.ad4())).real)) == 2
    assert len(st.shor9().stabilizer_group()) == 256
    assert len(st.five_qubit().stabilizer_group()) == 16


# ------------------------------------------------------- Pauli correctability

def test_five_qubit_corrects_weight_one():
    code = st.five_qubit()
    errs = [st.identity_word(5)] + st.weight_words(5, 1)
    rep = st.pauli_correctable(code, errs)
    assert rep.correctable
    assert not rep.degenerate


def test_shor_z1_z2_degenerate():
    code = st.shor9()
    errs = [st.identity_word(9), st.single_qubit_word(9, 0, "Z"),
            st.single_qubit_word(9, 1, "Z")]
    rep = st.pauli_correctable(code, errs)
    assert rep.correctable
    assert rep.degenerate
    assert rep.verdicts[1, 2] == "stabilizer"


def test_five_qubit_weight_two_violation():
    # adding one weight-2 error breaks the set: the quotient against Z4
    # is the undetected weight-3 word XXIZI
    code = st.five_qubit()
    errs = [st.identity_word(5)] + st.weight_words(5, 1) + \
        [st.PauliWord.from_string("XXIII")]
    rep = st.pauli_correctable(code, errs)
    assert not rep.correctable
    bad = {str(errs[i].dagger() * errs[j]) for i, j in rep.violations}
    assert bad == {"XXIZI"}


def test_steane_corrects_weight_one():
    errs = [st.identity_word(7)] + st.weight_words(7, 1)
    rep = st.pauli_correctable(st.steane7(), errs)
    assert rep.correctable


@pytest.mark.parametrize("fn,d", [(st.five_qubit, 3), (st.steane7, 3),
                                  (st.shor9, 3), (st.ad4, 2), (st.ad7, 2)])
def test_pauli_distance(fn, d):
    assert st.pauli_distance(fn()) == d


# ----------------------------------------------------- damping correctability

def test_ad_word_counts():
    assert st.AdWord(("Ad", "A", "I", "I")).r == 2
    assert st.AdWord(("Ad", "A", "B", "I")).s == 1
    assert st.AdWord(("A", "I", "I", "I")).relevant(1)
    assert not st.AdWord(("A", "A", "B", "I")).relevant(1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_relevant_matches_ad_words(n):
    words = [st.AdWord(letters) for letters in
             itertools.product(("I", "A", "Ad", "B"), repeat=n)]
    for t in range(4):
        assert ({w for w in words if w.relevant(t)}
                == set(st.ad_words(n, t))), t
    # two plain letters are order 1, but no quotient of two single losses
    assert not st.AdWord(("A", "A", "I", "I")).relevant(1)


def test_ad_expansion_matches_dense():
    rng = np.random.default_rng(3)
    for letters in [("A", "I"), ("Ad", "B"), ("B", "I", "A"),
                    ("Ad", "A", "I", "I")]:
        w = st.AdWord(letters)
        acc = sum(t.matrix() for t in w.pauli_terms())
        assert np.allclose(acc, w.matrix())
        v = rng.normal(size=1 << w.n)
        assert np.allclose(w.apply(v), w.matrix() @ v)


def test_stabilizer_negation_signs():
    w = st.AdWord(("Ad", "A", "I", "I"))
    assert w.times_stabilizer_sign(st.PauliWord.from_string("ZZII")) == -1
    # two plain lowering letters pick up (-1)(-1)
    w2 = st.AdWord(("A", "A", "I", "I"))
    assert w2.times_stabilizer_sign(st.PauliWord.from_string("ZZII")) == 1
    # identity letter cannot absorb a Z
    assert w.times_stabilizer_sign(st.PauliWord.from_string("IIZZ")) is None
    # X letters never absorb
    assert w.times_stabilizer_sign(st.PauliWord.from_string("XXII")) is None
    shor_w = st.AdWord(("A", "A", "Ad", "I", "I", "I", "I", "I", "I"))
    assert shor_w.times_stabilizer_sign(
        st.PauliWord.from_string("IZZIIIIII")) == -1


def _reference_ad_codes(n, t):
    # the nested loop _ad_codes broadcasts, one word at a time
    lower, raised, diag = (st._AD_LETTERS.index(c) for c in ("A", "Ad", "B"))
    rows = []
    for r in range(0, min(2 * t, n) + 1):
        for s in range(0, min(t - (r + 1) // 2, n - r) + 1):
            for a_pos in itertools.combinations(range(n), r):
                others = [q for q in range(n) if q not in a_pos]
                for b_pos in itertools.combinations(others, s):
                    for kinds in itertools.product((lower, raised), repeat=r):
                        if kinds.count(lower) > t or kinds.count(raised) > t:
                            continue
                        row = [0] * n
                        for q, kind in zip(a_pos, kinds):
                            row[q] = kind
                        for q in b_pos:
                            row[q] = diag
                        rows.append(row)
    return np.array(rows, dtype=np.int8).reshape(len(rows), n)


@pytest.mark.parametrize("n", range(1, 10))
def test_ad_codes_match_the_word_loop(n):
    for t in range(4):
        got = st._ad_codes(n, t)
        assert got.dtype == np.int8
        assert np.array_equal(got, _reference_ad_codes(n, t)), t


def test_ad_word_enumeration_counts():
    assert len(st.ad_words(4, 1)) == 25
    assert len(st.ad_words(7, 1)) == 64
    assert len(st.ad_words(9, 2)) == 2620
    # a negative order would check nothing and pass
    with pytest.raises(ValueError, match=r"\bt="):
        st.ad_words(4, -1)
    with pytest.raises(ValueError, match=r"\bt="):
        st.ad_correctable(st.shor9(), -1)


@pytest.mark.parametrize("t", [1.5, 2.0, float("nan"), "1"])
def test_damping_order_must_be_an_integer(t):
    with pytest.raises(ValueError, match=r"\bt="):
        st.ad_words(4, t)
    with pytest.raises(ValueError, match=r"\bt="):
        st.ad_correctable(st.ad4(), t)


def test_single_loss_codes_pass():
    rep = st.ad_correctable(st.ad4(), 1)
    assert rep.correctable
    # exactly the four cross quotients survive only through negation
    assert len(rep.negated) == 4
    negs = {str(w) for w, _ in rep.negated}
    assert negs == {"A'AII", "AA'II", "IIA'A", "IIAA'"}
    assert st.ad_correctable(st.ad7(), 1).correctable
    assert st.ad_correctable(st.steane7(), 1).correctable
    assert st.ad_correctable(st.five_qubit(), 1).correctable


def test_shor_passes_order_two():
    rep = st.ad_correctable(st.shor9(), 2)
    assert rep.correctable
    assert len(rep.negated) == 18


def test_order_beyond_design_fails():
    assert not st.ad_correctable(st.ad4(), 2).correctable
    assert not st.ad_correctable(st.ad7(), 2).correctable


@pytest.mark.parametrize("fn,t", [(st.ad4, 1), (st.ad7, 1), (st.shor9, 2)])
def test_dense_cross_check(fn, t):
    assert st.ad_dense_check(fn(), t) < 1e-9


def test_ad4_distance_gap():
    # the Pauli distance is only 2, yet one damping error is correctable
    code = st.ad4()
    assert st.pauli_distance(code) == 2
    assert st.ad_correctable(code, 1).correctable


def _letter_matrix_blocks(basis, words):
    """basis^dagger W basis for each damping word, W applied letter by
    letter through its dense 2 x 2 matrices."""
    return np.array([basis.conj().T @ word.apply(basis) for word in words])


def test_dense_gather_matches_letter_matrices():
    # the masked row gather against the letters' dense matrices
    basis = np.column_stack(st.codewords(st.ad4()))
    words = st.ad_words(4, 2)
    blocks = st._ad_blocks(basis, st._ad_codes(4, 2))
    assert blocks.shape == (len(words), 2, 2)
    assert np.abs(blocks - _letter_matrix_blocks(basis, words)).max() < 1e-14


@pytest.mark.parametrize("name,t", [(name, t) for t in (1, 2) for name in (
    "ad4", "ad7", "five_qubit", "steane7", "shor9")])
def test_support_gather_matches_letter_matrices(name, t):
    # the gather runs over the rows where some codeword is nonzero; every
    # other row of W basis meets only zeros of basis^dagger
    code = getattr(st, name)()
    basis = np.column_stack(st.codewords(code))
    blocks = st._ad_blocks(basis, st._ad_codes(code.n, t))
    want = _letter_matrix_blocks(basis, st.ad_words(code.n, t))
    assert np.abs(blocks - want).max() < 1e-14


@settings(max_examples=60, deadline=None, derandomize=True)
@given(n=hst.integers(1, 6), k=hst.integers(1, 3), t=hst.integers(1, 2),
       seed=hst.integers(0, 2 ** 32 - 1), full=hst.booleans())
def test_gather_matches_letter_matrices_on_random_bases(n, k, t, seed, full):
    # unit columns on every row, or on a random subset of rows, so that
    # words move support rows onto rows outside it and the letters' input
    # bits miss some rows; at n = 6, t = 2 with k > 1 on every row the
    # 604 words take two chunks
    rng = np.random.default_rng(seed)
    basis = rng.normal(size=(1 << n, k)) + 1j * rng.normal(size=(1 << n, k))
    if not full:
        basis[rng.random(1 << n) < 0.5] = 0
        basis[rng.integers(1 << n)] += 1
    basis /= np.linalg.norm(basis, axis=0)
    blocks = st._ad_blocks(basis, st._ad_codes(n, t))
    want = _letter_matrix_blocks(basis, st.ad_words(n, t))
    assert np.abs(blocks - want).max() < 1e-14


def test_gather_is_chunked_on_a_full_support_code(monkeypatch):
    # the XX chain's codewords |+...+> and |-...-> are nonzero on every
    # row, so all 3856 words gathered at once would hold 2 * 3856 * 1024
    # complex entries, 120 MiB
    code = st.StabilizerCode.from_strings(
        ["I" * i + "XX" + "I" * (8 - i) for i in range(9)],
        logical_x=["Z" * 10], logical_z=["X" + "I" * 9])
    basis = np.column_stack(st.codewords(code))
    codes = st._ad_codes(10, 2)
    tracemalloc.start()
    try:
        blocks = st._ad_blocks(basis, codes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 << 20
    sample = np.arange(0, len(codes), 97)
    want = _letter_matrix_blocks(basis, [st._ad_word(c) for c in codes[sample]])
    assert np.abs(blocks[sample] - want).max() < 1e-14
    # a chunk of one word gives the same blocks
    monkeypatch.setattr(st, "_GATHER_ENTRIES", 1)
    assert np.abs(st._ad_blocks(basis, codes[sample]) - want).max() < 1e-14


@pytest.mark.parametrize("max_weight", [2.5, 0, -3, float("nan")])
def test_pauli_distance_weight_cap_must_be_positive_integer(max_weight):
    with pytest.raises(ValueError, match="max_weight"):
        st.pauli_distance(st.shor9(), max_weight)


def test_pauli_distance_cap_below_distance():
    with pytest.raises(ValueError, match="weight cap"):
        st.pauli_distance(st.shor9(), 2)
    assert st.pauli_distance(st.shor9(), 3) == 3


@pytest.mark.parametrize("n", [-1, 0, 2.5])
def test_ad_words_qubit_count_must_be_positive_integer(n):
    with pytest.raises(ValueError, match=r"\bn="):
        st.ad_words(n, 1)


def test_ad_words_stop_when_no_qubits_are_left(monkeypatch):
    # an order past the qubit count adds no word; the loops ran to 2t
    # anyway, 0.69 s for t = 1000 and without end for t = 10**6
    want = st.ad_words(4, 4)
    combinations, calls = itertools.combinations, []

    def counted(*args):
        calls.append(args)
        if len(calls) > 1000:
            raise RuntimeError("ad_words loops past the qubit count")
        return combinations(*args)

    monkeypatch.setattr(itertools, "combinations", counted)
    assert st.ad_words(4, 10**6) == want
    assert len(want) == 256


def test_bit_array_checks_stop_at_63_qubits():
    wide = st.StabilizerCode.from_strings(["Z" * 64])
    for check in (lambda: st.ad_correctable(wide, 1),
                  lambda: st.pauli_distance(wide),
                  lambda: st.weight_words(64, 1),
                  lambda: st.pauli_correctable(wide, [st.identity_word(64)])):
        with pytest.raises(ValueError, match="n=64"):
            check()
    # the top qubit of a 63-qubit code still fits the masks
    rep = st.ad_correctable(st.StabilizerCode.from_strings(["Z" * 63]), 1)
    assert rep.checked == len(st.ad_words(63, 1))


def _verdict_dump():
    out = {}
    for name in ("shor9", "steane7", "five_qubit", "ad4", "ad7"):
        code = getattr(st, name)()
        errs = [st.identity_word(code.n)] + st.weight_words(code.n, 1)
        check = st.pauli_correctable(code, errs)
        entry = {"pauli_distance": st.pauli_distance(code),
                 "pauli_verdicts": [[i, j, kind]
                                    for (i, j), kind in check.verdicts.items()]}
        for t in (1, 2):
            rep = st.ad_correctable(code, t)
            entry[f"ad_t{t}"] = [rep.correctable, rep.t, rep.checked,
                                 [str(w) for w in rep.rejections],
                                 [[str(w), str(m)] for w, m in rep.negated]]
        out[name] = entry
    return json.dumps(out, sort_keys=True)


def test_verdicts_pinned():
    # every AdReport field (rejections and negated pairs in order), the
    # Pauli distance and the weight-1 Pauli verdicts of all five fixtures
    digest = hashlib.sha256(_verdict_dump().encode()).hexdigest()
    assert digest == "60db5ef52782562e200a182b249f17c2022c92b8e5d4f7334b55754ada17fe70"


def test_shor_order_three():
    rep = st.ad_correctable(st.shor9(), 3)
    assert rep.checked == 24460
    assert rep.correctable is False
    assert len(rep.rejections) == 69
    assert len(rep.negated) == 126


# ---------------------------------------------------------- measurement update

def test_measure_update_symbolic_anchor():
    upd, _ = st.measure_update([st.PauliWord.from_string("Z")],
                               st.PauliWord.from_string("X"))
    assert upd.kind == "update"
    assert [str(g) for g in upd.generators] == ["X"]
    assert str(upd.fixup) == "Z"


def test_measure_update_commuting_flag():
    upd, _ = st.measure_update([st.PauliWord.from_string("ZZ")],
                               st.PauliWord.from_string("IZ"))
    assert upd.kind == "commuting"
    assert upd.fixup is None


def test_measure_update_code_stays_valid():
    code = st.five_qubit()
    upd, new = st.measure_update_code(code, st.single_qubit_word(5, 1, "Z"))
    assert upd.kind == "update"
    new.validate()
    assert str(new.generators[upd.replaced]) == "IZIII"


def test_measure_update_dense_t_prep():
    upd, _ = st.measure_update([st.SZ.astype(complex)], st.W_T)
    assert upd.kind == "update"
    assert np.allclose(upd.fixup, st.SZ)
    assert np.allclose(upd.generators[0], st.W_T)


def test_measure_update_dense_rejections():
    with pytest.raises(ValueError):
        st.measure_update([st.SZ.astype(complex)], st.T_GATE)  # not involution
    with pytest.raises(ValueError):
        # Hadamard neither commutes nor anticommutes with Z
        st.measure_update([st.SZ.astype(complex)], st.HADAMARD)


def test_w_t_is_the_conjugated_x():
    target = np.exp(-1j * math.pi / 4) * st.PHASE_S @ st.SX
    assert np.allclose(st.W_T, target)
    assert np.allclose(st.W_T @ st.W_T, np.eye(2))
    assert np.allclose(st.W_T, st.W_T.conj().T)


# ------------------------------------------------------------ parity circuits

def test_parity_measurement_z_products():
    assert st.verify_parity_measurement([0, 1, 2], 3)
    assert st.verify_parity_measurement([1, 3], 4)
    assert st.verify_parity_measurement([2], 3)


def test_parity_measurement_mixed_letters():
    assert st.verify_parity_measurement([0, 1, 2], 4, letters="XZX")
    assert st.verify_parity_measurement([0, 1], 2, letters="YY")


def test_parity_measurement_deterministic_input():
    # GHZ is a ZZZ eigenstate, so every record of odd parity leaves nothing;
    # the sampled check sees that, and the exact one covers it on the basis
    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1 / math.sqrt(2)
    assert _reference_parity([0, 1, 2], 3, "ZZZ", 0, 1e-8,
                             np.random.default_rng(0), [ghz])
    assert st.verify_parity_measurement([0, 1, 2], 3)


@pytest.mark.parametrize("subset,letters,match", [
    ([0, 5], None, "subset"),
    ([-1], None, "subset"),
    ([], None, "subset"),
    ([1, 1], None, "subset"),        # would report the circuit as broken
    ([0, 1, 2], "X", "letters"),     # would measure one qubit and pass
], ids=["out-of-range", "negative", "empty", "repeated", "short-letters"])
def test_parity_measurement_rejects_malformed_input(subset, letters, match):
    with pytest.raises(ValueError, match=match):
        st.verify_parity_measurement(subset, 3, letters=letters)


def test_parity_measurement_pairs_letters_with_subset_in_given_order(monkeypatch):
    factors = []
    build = st.kron_all

    def spy(*mats):
        factors.append(mats)
        return build(*mats)

    monkeypatch.setattr(st, "kron_all", spy)
    assert st.verify_parity_measurement([2, 0], 3, letters="XZ")
    assert factors == [(st.SX, st.SZ)]   # X on qubit 2, Z on qubit 0
    # the sampled check on the whole register puts the letters on those qubits
    assert _reference_parity([2, 0], 3, "XZ", 4, 1e-8, np.random.default_rng(0))


def test_parity_measurement_caps_the_subset(monkeypatch):
    # the exact check pushes 2^(3a) amplitudes through a subset of a qubits
    def refuse(*args):
        raise AssertionError("ran the circuit before checking the subset")

    monkeypatch.setattr(st, "kron_all", refuse)
    monkeypatch.setattr(st, "apply_local", refuse)
    with pytest.raises(ValueError, match=r"capped at 7 subset qubits"):
        st.verify_parity_measurement(list(range(8)), 12)


def test_parity_measurement_allocates_nothing_of_size_2_to_the_n():
    # the circuit runs on the subset and its ancillas alone: n = 10**6 only
    # bounds the subset's qubits, and 2^n amplitudes could not be held
    tracemalloc.start()
    try:
        assert st.verify_parity_measurement([0, 1, 2], 10 ** 6)
        assert st.verify_parity_measurement([5, 40, 17], 50, letters="XYZ")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    with pytest.raises(ValueError, match="subset"):
        st.verify_parity_measurement([0, 10 ** 6], 10 ** 6)


# ---------------------------------------------------------------- hierarchy

def test_hierarchy_anchors():
    assert st.hierarchy_level(st.SX) == 1
    assert st.hierarchy_level(st.SZ) == 1
    assert st.hierarchy_level(np.exp(0.3j) * st.SY) == 1
    assert st.hierarchy_level(st.HADAMARD) == 2
    assert st.hierarchy_level(st.PHASE_S) == 2
    assert st.hierarchy_level(st.CNOT) == 2
    assert st.hierarchy_level(st.T_GATE) == 3
    assert st.hierarchy_level(st.CP_GATE) == 3
    assert st.hierarchy_level(st.TOFFOLI) == 3


def test_hierarchy_generic_unitary_unranked():
    rng = np.random.default_rng(5)
    m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, _ = np.linalg.qr(m)
    assert st.hierarchy_level(q) is None


def test_hierarchy_rejects_non_unitary():
    with pytest.raises(ValueError):
        st.hierarchy_level(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="unitary"):
        st.hierarchy_level(np.full((2, 2), np.nan))


def test_hierarchy_stable_under_pauli_conjugation():
    for u in (st.T_GATE, st.HADAMARD):
        base = st.hierarchy_level(u)
        for p in (st.SX, st.SY, st.SZ):
            assert st.hierarchy_level(p @ u @ p.conj().T) == base
    conj = np.kron(st.SX, st.SZ) @ st.CNOT @ np.kron(st.SX, st.SZ)
    assert st.hierarchy_level(conj) == 2


# ------------------------------------------------------------- teleportation

@pytest.mark.parametrize("kind", ["z", "x", "swap"])
def test_teleport_identity(kind):
    assert st.verify_teleport_identity(kind, states=100, tol=1e-10)


@pytest.mark.parametrize("states", [0, -3])
def test_teleport_identity_checks_at_least_one_state(states):
    with pytest.raises(ValueError, match="states"):
        st.verify_teleport_identity("x", states=states)


@pytest.mark.parametrize("gate", ["T", "CP", "Toffoli"])
def test_c3_constructions(gate):
    assert st.verify_c3_construction(gate, states=40, tol=1e-10)


@pytest.mark.parametrize("states", [0, -2])
@pytest.mark.parametrize("verify", [
    lambda states: st.verify_c3_construction("T", states=states),
], ids=["c3"])
def test_verifiers_check_at_least_one_state(verify, states):
    with pytest.raises(ValueError, match=r"need states >= 1 as an integer, got states="):
        verify(states)


def test_c3_unknown_gate():
    with pytest.raises(ValueError):
        st.verify_c3_construction("CZ")


# ------------------------------------------ exact checks against the sampled

def _random_state(ndim, rng):
    v = rng.normal(size=ndim) + 1j * rng.normal(size=ndim)
    return v / np.linalg.norm(v)


def _states_equal(a, b, tol):
    return abs(abs(np.vdot(a, b)) - 1.0) <= tol


def _reference_teleport(u, kinds, ancillas, states, tol, rng):
    # the sampled check: one random input at a time, every readout record
    # fixed up by hand and compared with u|psi> up to a phase
    n = len(kinds)
    dim = 1 << n
    fixups = [st._conj(u, st.single_qubit_word(n, q, kind.upper()).matrix())
              for q, kind in enumerate(kinds)]
    for prepared in ancillas:
        for _ in range(states):
            psi = _random_state(dim, rng)
            ideal = u @ psi
            state = np.kron(prepared, psi)
            for q, kind in enumerate(kinds):
                if kind == "x":
                    state = st.apply_local(st.CNOT, state, (q, n + q))
                else:
                    state = st.apply_local(st.CNOT, state, (n + q, q))
                    state = st.apply_local(st.HADAMARD, state, (n + q,))
            grid = state.reshape(dim, dim)
            for rec in range(dim):
                out = grid[:, rec]
                p = float(np.vdot(out, out).real)
                if abs(p - 1 / dim) > 1e-9:
                    return False
                out = out / math.sqrt(p)
                for q in range(n):
                    if (rec >> (n - 1 - q)) & 1:
                        out = fixups[q] @ out
                if not _states_equal(out, ideal, tol):
                    return False
    return True


def _reference_swap(states, tol, rng):
    for _ in range(states):
        psi = _random_state(2, rng)
        state = np.kron(np.array([1, 0], dtype=complex), psi)
        state = st.apply_local(st.CNOT, state, (1, 0))
        state = st.apply_local(st.CNOT, state, (0, 1))
        grid = state.reshape(2, 2)
        if np.linalg.norm(grid[:, 1]) > tol:
            return False
        if not _states_equal(grid[:, 0], psi, tol):
            return False
    return True


def _reference_parity(subset, n, letters, states, tol, rng, special_inputs=()):
    # the sampled check on the whole register, with the measured word as a
    # dense 2^n x 2^n matrix
    a = len(subset)
    word = ["I"] * n
    for q, c in zip(subset, letters):
        word[q] = c
    m_full = st.PauliWord.from_string("".join(word)).matrix()
    inputs = list(special_inputs) + [_random_state(1 << n, rng)
                                     for _ in range(states)]
    for psi in inputs:
        state = np.zeros(1 << (n + a), dtype=complex)
        state.reshape(1 << n, 1 << a)[:, 0] = psi
        state = st.apply_local(st.HADAMARD, state, (n,))
        for j in range(1, a):
            state = st.apply_local(st.CNOT, state, (n, n + j))
        for j, (q, c) in enumerate(zip(subset, letters)):
            state = st.apply_local(st.controlled(st._LETTER[c]), state, (n + j, q))
        for j in range(a):
            state = st.apply_local(st.HADAMARD, state, (n + j,))
        grid = state.reshape(1 << n, 1 << a)
        ideal = {s: (psi + s * (m_full @ psi)) / 2 for s in (1, -1)}
        seen = {1: 0.0, -1: 0.0}
        for rec in range(1 << a):
            branch = grid[:, rec]
            p = float(np.vdot(branch, branch).real)
            sign = -1 if bin(rec).count("1") & 1 else 1
            seen[sign] += p
            pt = float(np.vdot(ideal[sign], ideal[sign]).real)
            if p < 1e-12 and pt < 1e-12:
                continue
            if abs(p * (1 << (a - 1)) - pt) > tol:
                return False
            if np.linalg.norm(branch * math.sqrt(1 << (a - 1)) - ideal[sign]) > tol:
                return False
        for s in (1, -1):
            if abs(seen[s] - float(np.vdot(ideal[s], ideal[s]).real)) > tol:
                return False
    return True


_GHZ3 = np.zeros(8, dtype=complex)
_GHZ3[[0, 7]] = 1 / math.sqrt(2)

PARITY_CASES = [
    ([0, 1, 2], 3, "ZZZ", ()), ([1, 3], 4, "ZZ", ()), ([2], 3, "Z", ()),
    ([0, 1, 2], 4, "XZX", ()), ([0, 1], 2, "YY", ()), ([2, 0], 3, "XZ", ()),
    ([0, 1, 2], 3, "ZZZ", (_GHZ3,)), ([0, 1], 2, "II", ()),
]


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", ["z", "x", "swap"])
def test_teleport_identity_matches_the_sampled_check(kind, seed, monkeypatch):
    exact = st.verify_teleport_identity(kind, states=20,
                                        rng=np.random.default_rng(seed))
    if kind == "swap":
        sampled = _reference_swap(20, 1e-10, np.random.default_rng(seed))
    else:
        monkeypatch.setattr(st, "_teleport", _reference_teleport)
        sampled = st.verify_teleport_identity(kind, states=20,
                                              rng=np.random.default_rng(seed))
    assert exact is sampled is True


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("gate", ["T", "CP", "Toffoli"])
def test_c3_construction_matches_the_sampled_check(gate, seed, monkeypatch):
    exact = st.verify_c3_construction(gate, states=20,
                                      rng=np.random.default_rng(seed))
    monkeypatch.setattr(st, "_teleport", _reference_teleport)
    sampled = st.verify_c3_construction(gate, states=20,
                                        rng=np.random.default_rng(seed))
    assert exact is sampled is True


@pytest.mark.parametrize("subset,n,letters,special", PARITY_CASES)
def test_parity_measurement_matches_the_sampled_check(subset, n, letters, special):
    # the exact check needs no inputs; special inputs go to the reference
    exact = st.verify_parity_measurement(subset, n, letters)
    for seed in (0, 1, 2):
        sampled = _reference_parity(subset, n, letters, 6, 1e-8,
                                    np.random.default_rng(seed), special)
        assert exact is sampled is True


def _t_ancilla():
    return [st.T_GATE @ st._start_state(1, "x")]


@settings(deadline=None, max_examples=20)
@given(seed=hst.integers(0, 2 ** 32 - 1), states=hst.integers(1, 8))
def test_s_gate_through_the_t_ancilla_is_refused(seed, states):
    rng = np.random.default_rng(seed)
    assert st._teleport(st.PHASE_S, "x", _t_ancilla(), states, 1e-10, rng) is False
    # and the true gate through the same ancilla passes
    assert st._teleport(st.T_GATE, "x", _t_ancilla(), states, 1e-10, rng) is True


@pytest.mark.parametrize("scale", [2.0, 0.5, 1j])
def test_teleport_refuses_a_branch_of_the_wrong_weight(scale):
    # every branch is still u up to a factor, but not of weight 2^-n
    ancillas = [scale * _t_ancilla()[0]]
    verdict = st._teleport(st.T_GATE, "x", ancillas, 4, 1e-10,
                           np.random.default_rng(0))
    assert verdict is (abs(scale) == 1)


@pytest.mark.parametrize("excess,passes", [(3.0, False), (0.3, True)])
def test_relocation_residual_is_held_to_tol(excess, passes):
    # the excess sits on an entry where ideal is zero, so it leaves c and
    # |c|^2 as they were and the residual alone, excess * tol, decides: a
    # bound of 10 * tol let the 3 * tol residual through
    tol = 1e-8
    ideal = np.array([0.6, 0.8j, 0.0, 0.0])[:, None, None]
    out = np.exp(0.7j) * ideal
    out[2, 0, 0] += excess * tol
    assert st._relocates(out, ideal, 1.0, tol) is passes


def _mutate_controlled(monkeypatch, index, mutate):
    # the index-th controlled(u) the circuit builds gets mutate(u) instead
    calls = []
    build = st.controlled

    def mutant(u):
        calls.append(u)
        return build(mutate(u) if len(calls) - 1 == index else u)

    monkeypatch.setattr(st, "controlled", mutant)
    return calls


@pytest.mark.parametrize("dropped", [0, 1, 2])
@settings(deadline=None, max_examples=10)
@given(seed=hst.integers(0, 2 ** 32 - 1))
def test_toffoli_with_a_fixup_dropped_is_refused(dropped, seed):
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _mutate_controlled(monkeypatch, dropped,
                                   lambda u: np.eye(len(u)))
        assert st.verify_c3_construction(
            "Toffoli", states=3, rng=np.random.default_rng(seed)) is False
    assert len(calls) == 3   # one fix-up per input wire


_SWAPPED = {"X": st.SZ, "Y": st.SX, "Z": st.SX, "I": st.SZ}


@pytest.mark.parametrize("subset,n,letters,special", PARITY_CASES)
def test_parity_with_a_controlled_letter_swapped_is_refused(
        subset, n, letters, special):
    letter = {id(m): c for c, m in st._LETTER.items()}
    for j in range(len(subset)):
        with pytest.MonkeyPatch.context() as monkeypatch:
            calls = _mutate_controlled(monkeypatch, j,
                                       lambda u: _SWAPPED[letter[id(u)]])
            assert st.verify_parity_measurement(subset, n, letters) is False
        assert len(calls) == len(subset)


@settings(deadline=None, max_examples=30)
@given(seed=hst.integers(0, 2 ** 32 - 1), states=hst.integers(1, 8),
       case=hst.sampled_from(
           [lambda s, r, k=k: st.verify_teleport_identity(k, states=s, rng=r)
            for k in ("z", "x", "swap")]
           + [lambda s, r, g=g: st.verify_c3_construction(g, states=s, rng=r)
              for g in ("T", "CP", "Toffoli")]))
def test_verifiers_pass_at_every_seed_and_state_count(seed, states, case):
    assert case(states, np.random.default_rng(seed)) is True


# ------------------------------------------------- membership by elimination

FIXTURES = ("shor9", "steane7", "five_qubit", "ad4", "ad7")


def _reference_kinds(code, words):
    # the definition: detected by a generator, else a group element up to
    # sign, else a logical
    members = {(g.x, g.z) for g in code.stabilizer_group()}
    return ["detected" if not all(w.commutes(g) for g in code.generators)
            else "stabilizer" if (w.x, w.z) in members else "logical"
            for w in words]


def _kinds(code, words):
    x, z = st._word_arrays(words)
    return [st._KINDS[k] for k in st._quotient_kinds(code, x, z)]


@pytest.mark.parametrize("name", FIXTURES)
def test_quotient_kinds_match_group_on_low_weight_words(name):
    code = getattr(st, name)()
    words = ([st.identity_word(code.n)] + st.weight_words(code.n, 1)
             + st.weight_words(code.n, 2))
    assert _kinds(code, words) == _reference_kinds(code, words)


@pytest.mark.parametrize("name", ["five_qubit", "ad4"])
def test_quotient_kinds_match_group_on_every_word(name):
    code = getattr(st, name)()
    words = [st.PauliWord(code.n, x, z) for x in range(1 << code.n)
             for z in range(1 << code.n)]
    kinds = _kinds(code, words)
    assert kinds == _reference_kinds(code, words)
    assert kinds.count("stabilizer") == 1 << len(code.generators)


@settings(max_examples=60, deadline=None)
@given(hst.sampled_from(FIXTURES), hst.integers(0, 255), hst.integers(0, 8),
       hst.sampled_from("IXYZ"))
def test_quotient_kinds_of_generator_products(name, subset, q, letter):
    # a product of generators is a stabilizer; times one more letter it
    # is whatever the group says
    code = getattr(st, name)()
    word = st.identity_word(code.n)
    for i, g in enumerate(code.generators):
        if (subset >> i) & 1:
            word = word * g
    words = [word, word * st.single_qubit_word(code.n, q % code.n, letter)]
    kinds = _kinds(code, words)
    assert kinds[0] == "stabilizer"
    assert kinds == _reference_kinds(code, words)


@pytest.mark.parametrize("name", FIXTURES)
def test_echelon_is_reduced(name):
    code = getattr(st, name)()
    rows = st._echelon((g.x << code.n) | g.z for g in code.generators)
    assert len(rows) == len(code.generators)
    for row, bit in rows:
        assert row.bit_length() - 1 == bit
        assert all(not (other >> bit) & 1 for other, b in rows if b != bit)


def test_dependent_generators_rejected():
    with pytest.raises(ValueError, match="not independent"):
        st.StabilizerCode.from_strings(["ZZI", "IZZ", "ZIZ"])


def test_forty_qubit_repetition_code_without_group(monkeypatch):
    # 2^39 elements: the Pauli checks must never enumerate the group
    n = 40
    code = st.StabilizerCode.from_strings(
        ["I" * i + "ZZ" + "I" * (n - 2 - i) for i in range(n - 1)])

    def no_group(self):
        raise AssertionError("stabilizer_group() called")

    monkeypatch.setattr(st.StabilizerCode, "stabilizer_group", no_group)
    assert st.pauli_distance(code) == 1
    errs = [st.identity_word(n)] + st.weight_words(n, 1)
    check = st.pauli_correctable(code, errs)
    for (i, j), kind in check.verdicts.items():
        x, z = errs[i].x ^ errs[j].x, errs[i].z ^ errs[j].z
        # an X part of weight 1 or 2 always meets a ZZ on one qubit only;
        # Z-only quotients are group elements exactly at even weight
        want = ("detected" if x else "stabilizer"
                if bin(z).count("1") % 2 == 0 else "violation")
        assert kind == want, (i, j)
    assert not check.correctable and check.degenerate
    rep = st.ad_correctable(code, 1)
    assert rep.checked == len(st.ad_words(n, 1))
    # a lone Z commutes with every ZZ and has odd weight, so exactly the
    # single-B words fail, and no group element is a single Z to negate them
    assert ({str(w) for w in rep.rejections}
            == {"I" * q + "B" + "I" * (n - 1 - q) for q in range(n)})
    assert len(rep.rejections) == n and rep.negated == []


@pytest.mark.parametrize("n,w", [(1, 0), (3, 1), (4, 2), (5, 3), (3, 3), (2, 3)])
def test_weight_words_match_letter_strings(n, w):
    want = []
    for qubits in itertools.combinations(range(n), w):
        for letters in itertools.product("XYZ", repeat=w):
            s = ["I"] * n
            for q, c in zip(qubits, letters):
                s[q] = c
            want.append(st.PauliWord.from_string("".join(s)))
    assert st.weight_words(n, w) == want


@pytest.mark.parametrize("n", [1, 2, 3])
def test_matrix_is_phase_times_letter_product(n):
    for x in range(1 << n):
        for z in range(1 << n):
            for phase in (1, -1, 1j, -1j):
                w = st.PauliWord(n, x, z, phase)
                want = phase * st.kron_all(*(
                    np.linalg.matrix_power(st.SX, (x >> q) & 1)
                    @ np.linalg.matrix_power(st.SZ, (z >> q) & 1)
                    for q in range(n)))
                assert np.array_equal(w.matrix(), want)


@pytest.mark.parametrize("call", [
    lambda: st.verify_teleport_identity("z", states=2.5),
    lambda: st.verify_c3_construction("T", states=1.5),
], ids=["teleport", "c3"])
def test_state_counts_must_be_integers(call):
    with pytest.raises(ValueError, match=r"\bstates="):
        call()


def test_hierarchy_level_cap_must_be_integer():
    with pytest.raises(ValueError, match="k_max"):
        st.hierarchy_level(np.eye(2), k_max=2.5)


# ------------------------------------------- negating elements without a group

def _negates(word, g):
    # g * W = -W: g has no X part, its Z letters sit on W's non-I letters,
    # and its sign times -1 for each Z on an A or a B letter is -1
    zs = [q for q in range(word.n) if (g.z >> q) & 1]
    if g.x or any(word.letters[q] == "I" for q in zs):
        return False
    return g.phase * (-1) ** sum(word.letters[q] in ("A", "B") for q in zs) == -1


def _reference_ad(code, t):
    # rejections and negated pairs by searching stabilizer_group() in order
    # for the first element that negates each failing word
    group = code.stabilizer_group()
    row, x, z, _ = st._ad_terms(st._ad_codes(code.n, t))
    failing = set(row[st._quotient_kinds(code, x, z) == st._LOGICAL].tolist())
    rejections, negated = [], []
    for i, word in enumerate(st.ad_words(code.n, t)):
        if i in failing:
            hit = next((g for g in group if _negates(word, g)), None)
            if hit is None:
                rejections.append(word)
            else:
                negated.append((word, hit))
    return rejections, negated


def _assert_matches_group_search(code, t):
    rep = st.ad_correctable(code, t)
    rejections, negated = _reference_ad(code, t)
    assert rep.rejections == rejections
    assert rep.negated == negated
    assert rep.correctable == (not rejections)


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("name", FIXTURES)
def test_negated_pairs_match_group_search(name, t):
    _assert_matches_group_search(getattr(st, name)(), t)


@hst.composite
def _codes(draw):
    # independent commuting hermitian words, general or Z-type, random signs
    n = draw(hst.integers(2, 8))
    z_type = draw(hst.booleans())
    gens = []
    for _ in range(draw(hst.integers(1, 2 * n))):
        x = 0 if z_type else draw(hst.integers(0, (1 << n) - 1))
        z = draw(hst.integers(0, (1 << n) - 1))
        sign = draw(hst.sampled_from((1, -1)))
        word = st.PauliWord(n, x, z, sign * 1j ** bin(x & z).count("1"))
        try:
            st.StabilizerCode(n, gens + [word]).validate()
        except ValueError:
            continue
        gens.append(word)
    assume(gens)
    return st.StabilizerCode(n, gens)


@settings(max_examples=40, deadline=None)
@given(_codes(), hst.integers(1, 2))
def test_negated_pairs_match_group_search_on_random_codes(code, t):
    _assert_matches_group_search(code, t)


# ------------------------------------------------------- scalar entry checks

@pytest.mark.parametrize("call,name", [
    (lambda: st.single_qubit_word(5, -1, "X"), "q"),
    (lambda: st.single_qubit_word(5, 7, "X"), "q"),
    (lambda: st.single_qubit_word(5, 1.5, "X"), "q"),
    (lambda: st.weight_words(5, 2.5), "w"),
    (lambda: st.weight_words(5, math.nan), "w"),
    (lambda: st.weight_words(2.5, 1), "n"),
    (lambda: st.verify_parity_measurement([0], 1.5), "n"),
    (lambda: st.verify_parity_measurement([0, 1], 2, tol=math.nan), "tol"),
    (lambda: st.verify_teleport_identity("z", tol=math.nan), "tol"),
    (lambda: st.PauliWord(2, 8, 0), "x"),
    (lambda: st.PauliWord(2, 0, -1), "z"),
    (lambda: st.identity_word(math.nan), "n"),
    (lambda: st.verify_teleport_identity("z", rng=5), "rng"),
    (lambda: st.verify_c3_construction("T", rng=5), "rng"),
], ids=["qubit-negative", "qubit-too-high", "qubit-fractional",
        "weight-fractional", "weight-nan", "count-fractional",
        "parity-fractional-n", "parity-nan-tol", "teleport-nan-tol",
        "x-mask-too-wide", "z-mask-negative", "identity-nan-n",
        "teleport-int-rng", "c3-int-rng"])
def test_bad_scalar_raises_value_error_naming_it(call, name):
    # each of these once returned a wrong word or verdict, or raised
    # TypeError or IndexError
    with pytest.raises(ValueError, match=rf"\b{name}="):
        call()


# finite, non-finite, non-integer and out-of-range scalars; valid ones stay
# small, since the dense checks hold 2^n amplitudes
SCALARS = hst.one_of(
    hst.integers(-3, 9),
    hst.integers(-3, 9).map(np.int64),
    hst.integers(-3, 9).map(float),
    hst.floats(allow_nan=True, allow_infinity=True),
)

ENTRY_POINTS = {
    "PauliWord.n": lambda v: st.PauliWord(v),
    "PauliWord.x": lambda v: st.PauliWord(3, v, 0),
    "PauliWord.z": lambda v: st.PauliWord(3, 0, v),
    "identity_word": lambda v: st.identity_word(v),
    "single_qubit_word.n": lambda v: st.single_qubit_word(v, 0, "X"),
    "single_qubit_word.q": lambda v: st.single_qubit_word(5, v, "X"),
    "weight_words.n": lambda v: st.weight_words(v, 1),
    "weight_words.w": lambda v: st.weight_words(5, v),
    "pauli_distance": lambda v: st.pauli_distance(st.ad4(), v),
    "code_projector": lambda v: st.code_projector(st.ad4(), v),
    "codewords": lambda v: st.codewords(st.ad4(), v),
    "ad_words": lambda v: st.ad_words(4, v),
    "AdWord.relevant": lambda v: st.AdWord(("A", "B", "I")).relevant(v),
    "ad_correctable": lambda v: st.ad_correctable(st.ad4(), v),
    "ad_dense_check": lambda v: st.ad_dense_check(st.ad4(), v),
    "hierarchy_level": lambda v: st.hierarchy_level(np.eye(2), v),
    "parity.n": lambda v: st.verify_parity_measurement([0], v),
    "parity.subset": lambda v: st.verify_parity_measurement([v], 3),
    "parity.tol": lambda v: st.verify_parity_measurement([0, 1], 2, tol=v),
    "teleport.states": lambda v: st.verify_teleport_identity("z", states=v),
    "teleport.tol": lambda v: st.verify_teleport_identity("z", states=1, tol=v),
    "c3.states": lambda v: st.verify_c3_construction("T", states=v),
    "c3.tol": lambda v: st.verify_c3_construction("T", states=1, tol=v),
}


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
@settings(deadline=None, max_examples=40)
@given(v=SCALARS)
@example(v=math.nan)
@example(v=math.inf)
@example(v=-1)
@example(v=2.5)
def test_entry_points_return_or_raise_value_error(name, v, all_finite):
    try:
        out = ENTRY_POINTS[name](v)
    except ValueError:
        return
    assert all_finite(out), out
