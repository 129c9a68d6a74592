"""Calculus of generalized power series for heavy-tailed probability laws.

The package revolves around three layers:

* exponent semigroups and series (``semigroup``, ``series``): sparse
  complex series whose exponents live in a finitely generated additive
  semigroup, with products, reciprocals, binomial powers, composition
  and reversion of reciprocal-resolvent forms;
* transform calculus (``transforms``, ``pareto``): moment, Fourier,
  resolvent, reciprocal-resolvent and subordination representations of
  one law, conversions between them, tail-density models, and the four
  convolutions (classical, free, boolean, monotone);
* law constructors and diagnostics (``stable``, ``diophantine``,
  ``oracles``): stable laws in all four independences, stable mixtures,
  extreme-value and last-passage densities, the two-parameter resolvent
  deformation, Diophantine certificates for exponent generators, and
  the independent quadrature oracles everything is tested against.

``import powertail`` loads none of these modules, nor numpy.  Each
public name below, and each module as ``powertail.<module>``, is
imported on its first use (PEP 562), so a program loads only the modules
it reads: ``powertail.classify`` loads the pure-Python ``diophantine``
alone.
"""

import importlib

# every public name, by the module that defines it
_EXPORTS = {
    "errors": """CertificateError DivergenceGuardWarning DomainBranchError
        IncompatibleSeriesError InvalidArgumentError InvalidFormError InvalidModelError
        LogTermObstructionError NearIntegerWarning NonConvergentReversionError
        NormalizationError NotInvertibleError OutsideValidityRegionError PowertailError
        ResonanceError ResourceGuardError ToleranceMergeWarning TruncationWarning
        UnsupportedSemigroupError""",
    "semigroup": """ExponentGrid ExponentIndex SemigroupSpec density_constant
        enumerate_up_to exponent_grid""",
    "series": """DEFAULT_CUTOFF Branch EvalResult GenSeries GrowthBound Normalization
        Variable binomial_power compose_F divergence_guard_radius evaluate f_form
        graded_exp growth_fit identity_f_form is_f_form linear_combine product
        reciprocal revert_F scale unit_series""",
    "transforms": """FourierEvaluator MomentSeries TailDensityModel F_from_moments
        boolean_convolve classical_convolve delta_zero free_convolve moment_series
        moments_from_F moments_from_stieltjes moments_from_tail moments_from_voiculescu
        monotone_convolve stieltjes_from_moments tail_from_moments tail_real_to_complex
        voiculescu_from_moments""",
    "pareto": """CancellationResidual ParetoExpansion SingularPart cancellation_residual
        negative_tail_fourier oscillatory_constant pareto_fourier""",
    "stable": """LastPassageParams MembershipDiagnosis PowerSumDensity StableKind
        StableParams SupremumSeriesParams boolean_stable classical_stable
        classical_stable_scale_skew free_stable last_passage_coefficient
        last_passage_density monotone_stable monotone_stable_form mu_br
        positive_stable_density scale_skew_to_b stable_mixture supremum_coefficient
        supremum_density""",
    "diophantine": """ApproximationWitness CFCertificate ClassifyParams
        DiophantineEvidence ExtremeGrowthCertificate FloatCertificate
        QuadraticCertificate RationalCertificate RealCertificate SinGrowthProfile
        TransformOp TransformedCertificate Verdict classify convergents
        golden_ratio_certificate sin_growth_profile super_liouville_certificate
        transform_certificate""",
    "oracles": """IntegrableDensity LaplaceLink QuadratureResult brute_series_product
        laplace_link_check quadrature_fourier quadrature_stieltjes
        rotated_pareto_transform stieltjes_inversion""",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name or a module of the table, imported and kept here."""
    module = _HOME.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = importlib.import_module("." + module, __name__)
    if module != name:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_EXPORTS))
