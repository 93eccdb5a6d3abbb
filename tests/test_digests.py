"""Pinned digests of reduced bands: "same bits" as a standing check.

The determinism contract says every schedule, split and worker count gives
the same bits, and a faster kernel must keep them. Each case below reduces
one input under each variant it lists, on one worker and on
ExecGroups(2, 1), and every run must give the pinned sha1 of the band, of
Q (SEVP cases that accumulate it) and of the flop counts, and every run of
a case must count the same flops in each class. The band and Q digests were
computed once and are only ever read here; a change that moves one changes
the program's results.

The bits also depend on the host: house_gen takes np.linalg.norm, a BLAS
dot whose summation order varies between BLAS builds. The flop digests and
the agreement of every run of a case do not, so they are checked on every
host. Only the comparison of band and Q digests with the pinned ones first
checks the norm bits of a few fixed vectors and skips, saying why, where
they differ from the host the table was computed on.
"""

from __future__ import annotations

import hashlib
import warnings
from contextlib import nullcontext

import numpy as np
import pytest

from bandred import (
    ExecGroups,
    SevpConfig,
    SevpVariant,
    SvdConfig,
    SvdVariant,
    gen_general,
    gen_sym,
    reduce_band_svd,
    reduce_sym_band,
    reduce_tri_band,
)

# float.hex of np.linalg.norm(gen_general(L, 1, L)[:, 0]) by length L. On the
# host the table was computed on, each differs from both the in-order and
# NumPy's pairwise sum of squares, so a BLAS summing in either order shows.
PINNED_NORMS = {
    3: "0x1.e007f29dd65fap-1",
    27: "0x1.63ac6c39bcdcep+1",
    47: "0x1.d39253cf56129p+1",
    99: "0x1.761b6d8e3772dp+2",
    130: "0x1.a49c4a92c8909p+2",
    256: "0x1.2894842b74acep+3",
    352: "0x1.616ec659ac9e6p+3",
    509: "0x1.a4bfa89136290p+3",
}

R, S, V1, V2 = "reference", "simultaneous", "v1", "v2"
# name: (kind, m, n, w, b, seed, variants). kind "sym" reduces gen_sym(n, seed)
# to symmetric band form, "symq" does so accumulating Q, "band" reduces
# gen_general(m, n, seed) to band form and "tri" to triangular-band form.
CASES = {
    # the benchmark's configurations (sevp-lookahead, svd-tall)
    "bench-sevp-b16": ("sym", 384, 384, 32, 16, 1, (R, V1)),
    "bench-sevp-b24": ("sym", 384, 384, 32, 24, 1, (R, V2)),
    "bench-svd-ref": ("band", 512, 256, 32, 16, 1, (R,)),
    "bench-svd-sim": ("band", 512, 256, 32, 16, 1, (S,)),
    "bench-svd-tri": ("tri", 512, 256, 32, 16, 1, (R,)),
    # AC3: n=48, w=8, b in (2, 3, 4, 6, 8); V1 needs 2b <= w
    **{f"ac3-sevp-b{b}": ("symq", 48, 48, 8, b, 3, (R, V1, V2) if 2 * b <= 8 else (R, V2))
       for b in (2, 3, 4, 6, 8)},
    **{f"ac3-svd-ref-b{b}": ("band", 48, 48, 8, b, 4, (R, V1) if 2 * b <= 8 else (R,))
       for b in (2, 3, 4, 6, 8)},
    **{f"ac3-svd-sim-b{b}": ("band", 48, 48, 8, b, 4, (S, V2)) for b in (2, 3, 4, 6, 8)},
    # AC7: four of its seeds for each reduction
    **{f"ac7-sevp-s{s}": ("symq", 36, 36, 6, 4, s, (R, V2)) for s in (100, 101, 102, 103)},
    **{f"ac7-svd-s{s}": ("band", 30, 30, 8, 4, s, (R, V1)) for s in (200, 201, 202, 203)},
    # m < n: the transpose is reduced
    "wide-svd-ref": ("band", 20, 28, 4, 2, 5, (R, V1)),
    "wide-svd-sim": ("band", 20, 28, 4, 2, 5, (S, V2)),
    "wide-svd-tri": ("tri", 20, 28, 4, 2, 5, (R,)),
    # fringe: panels narrower than b at the end
    "fringe-sevp": ("symq", 37, 37, 6, 4, 6, (R, V2)),
    "fringe-svd-ref": ("band", 37, 29, 6, 4, 7, (R,)),
    "fringe-svd-sim": ("band", 37, 29, 6, 4, 7, (S, V2)),
    "fringe-svd-tri": ("tri", 37, 29, 6, 4, 7, (R,)),
}

# name: sha1 of the band, of Q (None without it) and of the flop counts of
# its runs, computed with the code of the commit that added this file. The
# flop digests of the SEVP cases whose schedules cut the trailing update
# differently were re-pinned once, when that update became one "syr2k"
# charge per call; their bands and Qs kept their digests.
PINNED = {
    "bench-sevp-b16": ("f5b3b9eaa9b81aede135267a22696bd10652c119",
                       None,
                       "da1da82a7c73cf20481a27dabef9927750efdb6d"),
    "bench-sevp-b24": ("f2ed0ddccfb1def2e65fb1298c52e9f3de7b92ce",
                       None,
                       "56cd3b70716a8b3b37beea75768b2b6c2ae900aa"),
    "bench-svd-ref": ("e60ee3db3486cbc848062ceb9660fb0cbed13272",
                      None,
                      "4b3f3939bbfa978bb1399d0cafeac21ad262bc16"),
    "bench-svd-sim": ("0bd35308d9f71f28a50ab8ca9182ca5ea4bb2b86",
                      None,
                      "333941fcf14bb3f88be3de94d0d3b526f0155088"),
    "bench-svd-tri": ("44884c8e117295210ca8f269d01668f3ea34f412",
                      None,
                      "754fec352472afc948493406a014ecd7bc1fd2b1"),
    "ac3-sevp-b2": ("9eb7711711935d06e26087a28b8fb7d749ff2c65",
                    "d211cf4f90fc174a811697df3df01efc7ef11272",
                    "39326a519c8366a13a6388b7097e5a262d3dad0e"),
    "ac3-sevp-b3": ("b73a0e038d407e6be9f2156e0d7c02c281b92a9d",
                    "558316b7e17b256cd5e43916b0e76bcdaadcfb9f",
                    "aa7329201467588571e542e4ac6aa23dbf6e6908"),
    "ac3-sevp-b4": ("76c6604c9b0fa4dba95075572711793ab8bb4a8b",
                    "fb9e6afa0cf44e46f11cdf43cb3c5264217b9bd8",
                    "7feaa5667b4b518ec4bd1bbcc331c8815ed7ac30"),
    "ac3-sevp-b6": ("a66203626769dd46601276d1d3ba60007253df60",
                    "ddb602bc02e9fac6d801097416e62ef4bdcda67d",
                    "0bbbb2e0fd4fc11e6874422f56f384d9c8db7fa2"),
    "ac3-sevp-b8": ("55901ea3b77ea20a30f95089c7ce62d3e3dec87c",
                    "308e7af8d3026bf34970d24fb16b06288b68ee56",
                    "bcd19a52ad8e70c53d3927138e189a6370aac234"),
    "ac3-svd-ref-b2": ("258171d65645f841711412a82bbf9feca5e63f34",
                       None,
                       "2e60d7bbbbf6a7f38f6de042ae4fd407b068c0a8"),
    "ac3-svd-ref-b3": ("b27b3ea473ad457239d3d481b79a35e3fc7f6900",
                       None,
                       "57d0dd6f00421852947c541ae00fb03ba5a4e133"),
    "ac3-svd-ref-b4": ("b92c9a83dac7909947e8a6ca90573ac70bb4b3da",
                       None,
                       "eccc3f43670d44609e1d949985b48c801668bada"),
    "ac3-svd-ref-b6": ("40a4906327d18d5739b1e1652154d9a34ecd6e54",
                       None,
                       "cb0381e968b88087fc6f917337c59a9bda00e4a3"),
    "ac3-svd-ref-b8": ("be3aa258acb75378a3faf874a0510a495aa3dd00",
                       None,
                       "1c1c3d55c8d17c9f3d18c35fafea3145b8270467"),
    "ac3-svd-sim-b2": ("9a9ccf0ac2931504bd5b0728df3b636a99d807fc",
                       None,
                       "4d95852a34876255d547a13e47ee9b0db8ae16cf"),
    "ac3-svd-sim-b3": ("cb97e748c50effcf60da5f1440eddad3a668bf2d",
                       None,
                       "28fff67602c914d99088359b5a492f9cd8d7b509"),
    "ac3-svd-sim-b4": ("053a50a723c020e10108d1c097dd8d15d97a379d",
                       None,
                       "7a2c47bb14b484c81c35575c6a9e17fc37bca596"),
    "ac3-svd-sim-b6": ("85bb86e5f67efee28a7d1172d9a920cbfe14c90f",
                       None,
                       "c033b881bf6f6a2d4d09cfae7dcb2a94dc1c8a4c"),
    "ac3-svd-sim-b8": ("47ab820d29ae08a07899189fe7126c48c38e0a3d",
                       None,
                       "5718cb19cdde1b136f06e82876ad23c53a824f89"),
    "ac7-sevp-s100": ("dbf1916e7dd9e1025f80fb184f7ec6d12b1b3611",
                      "d38e037aea59340a8046cf51a5ab5da6d01e9db0",
                      "662a978b0ece3dba0a2739e618742901a21b9f49"),
    "ac7-sevp-s101": ("7fe33d3dad7d68f30b5b5dd2c5ded937098887d0",
                      "1fc729118229cdcf58ac52d2d06d9db7dd41ad70",
                      "662a978b0ece3dba0a2739e618742901a21b9f49"),
    "ac7-sevp-s102": ("1e754f1b7a72a3c0be7736aed3621d24c5623300",
                      "be7a033b4b6c12a7c421f1331190f5b6ad9d5888",
                      "662a978b0ece3dba0a2739e618742901a21b9f49"),
    "ac7-sevp-s103": ("e72767a1031f60d2f1dd299efbc51a34e4a09257",
                      "c8ea0f9dd8b8158783bdc13e9f5790fe3e5125de",
                      "662a978b0ece3dba0a2739e618742901a21b9f49"),
    "ac7-svd-s200": ("ba56290e01545681ca3d4ed54011c5b5e0606e08",
                     None,
                     "1001e4a62f1803186260b22573d906a9e9cd71b4"),
    "ac7-svd-s201": ("9282661f1e37a36b524f681dd2d63cd25465f162",
                     None,
                     "1001e4a62f1803186260b22573d906a9e9cd71b4"),
    "ac7-svd-s202": ("b1170f74af4cbebd1f9fd13208339d42bb8f29cb",
                     None,
                     "1001e4a62f1803186260b22573d906a9e9cd71b4"),
    "ac7-svd-s203": ("f3349481c42c33e614a0798b884f16cef89d7132",
                     None,
                     "1001e4a62f1803186260b22573d906a9e9cd71b4"),
    "wide-svd-ref": ("db51fb81f2cefa28c0df34ab6cbb3ed7541fc41a",
                     None,
                     "7af57804d469fc29d95d5995c19d101739644663"),
    "wide-svd-sim": ("2a5e94ad3f55f0bcfffebabb70a56d3ec7e2ca49",
                     None,
                     "635f964ed1cc339e9c879230ac7ae5c76fd838a6"),
    "wide-svd-tri": ("cce176f68d6662bc63ac79b653d21204836ba340",
                     None,
                     "109cd006d436dc930b4fa1ea1725e5f8d0a1a2af"),
    "fringe-sevp": ("0bbb98f126d212a10f7a435fb1c41932b13988c5",
                    "179aa923d7a93f7f731eebd4548ed043c2b6992d",
                    "78691209f50380e8ad57e99ccec5b2d0ef16ce30"),
    "fringe-svd-ref": ("d250f345bb1674149a23e88aec798a86a2d39a37",
                       None,
                       "2153ab3bdfdbffa9816b9d7477e974f240e46add"),
    "fringe-svd-sim": ("e0192ab7e28288ad438a82ca7782041335bebb07",
                       None,
                       "f0c08386209bf67507a28514b1338201cda0f067"),
    "fringe-svd-tri": ("25ae9d7114367d36b62bccd9fba5c9fce287b069",
                       None,
                       "1b8c189cae060664235643af3ea7101a3a75ee18"),
}


def host_norms():
    return {L: float(np.linalg.norm(gen_general(L, 1, L)[:, 0])).hex() for L in PINNED_NORMS}


def _sha1(data):
    return hashlib.sha1(data).hexdigest()


def _array_digest(a):
    return _sha1(repr(a.shape).encode() + np.ascontiguousarray(a).tobytes())


def _reduce(kind, m, n, w, b, A, variant, groups):
    if kind in ("sym", "symq"):
        cfg = SevpConfig(n, w, b, SevpVariant(variant), accumulate_q=kind == "symq")
        res = reduce_sym_band(A, cfg, groups)
        return res.band, res.q, res.flops
    if kind == "tri":
        res = reduce_tri_band(A, w, b, groups)
    else:
        res = reduce_band_svd(A, SvdConfig(m, n, w, b, variant=SvdVariant(variant)), groups)
    return res.band, None, res.flops


def case_digests(name):
    """The set of (band, Q) digests over every run of one case, and one
    digest of the flop counts of all of its runs, in order. Every run must
    count the same flops in every class."""
    kind, m, n, w, b, seed, variants = CASES[name]
    A = gen_sym(n, seed) if kind in ("sym", "symq") else gen_general(m, n, seed)
    bits, flops = set(), []
    for variant in variants:
        for workers in (nullcontext(), ExecGroups(2, 1)):
            with workers as groups, warnings.catch_warnings():
                warnings.filterwarnings("ignore", "V2 with 2b <= w", RuntimeWarning)
                band, q, counts = _reduce(kind, m, n, w, b, A, variant, groups)
            bits.add((_array_digest(band), q if q is None else _array_digest(q)))
            flops.append(sorted(counts.items()))
    assert all(f == flops[0] for f in flops), (name, flops)
    return bits, _sha1(repr(flops).encode())


def test_pinned_band_digests():
    assert PINNED.keys() == CASES.keys()
    got = {name: case_digests(name) for name in CASES}
    split = {name: bits for name, (bits, _) in got.items() if len(bits) != 1}
    assert not split, f"runs of one case gave different bands or Qs: {split}"
    moved = {name: flops for name, (_, flops) in got.items() if flops != PINNED[name][2]}
    assert not moved, f"flop digests moved from the pinned ones: {moved}"
    norms = host_norms()
    if norms != PINNED_NORMS:
        pytest.skip(f"np.linalg.norm gives other bits on this host ({norms}, pinned "
                    f"{PINNED_NORMS}), so the bands may differ from the pinned ones")
    moved = {name: bits for name, (bits, _) in got.items() if bits != {PINNED[name][:2]}}
    assert not moved, f"band or Q digests moved from the pinned ones: {moved}"
