"""Random-Telegraph-Wave realization of NBL-SAT (paper Section V, ref. [17]).

RTW carriers take only the values ±A, so the square of every carrier is
exactly ``A²``: the self-correlation of a satisfying minterm carries **no
sampling noise** and all fluctuation comes from the cross terms. This makes
RTW carriers the highest-SNR realization in the library, which the
carrier-ablation experiment quantifies. An RTW check is
:class:`repro.core.sampled.SampledNBLEngine` with a
:class:`~repro.noise.telegraph.BipolarCarrier` or
:class:`~repro.noise.telegraph.TelegraphCarrier`; this package keeps the
:func:`instantaneous_margin` diagnostic.
"""

from repro.rtw.engine import instantaneous_margin

__all__ = ["instantaneous_margin"]
