"""Energy-dependent noncommutative quantum mechanics.

Deformed phase-space algebra with power-law energy-dependent strengths,
the linear maps realizing it on canonical operators, energy spectra and
radial wave functions of the free particle and harmonic oscillator in the
three energy-dependence mechanisms, the fractional-calculus operators of
the energy-operator representation, a mesoscopic-ring observable, and
independent matrix/ODE oracles verifying every closed form.

The namespace is lazy (PEP 562): ``import ncqm`` loads no submodule, and
each public name is imported from its defining module (``params`` or
``spectra``) on first access. Both need numpy only: the level solver's
Brent step is in ``spectra``, with no ``scipy.optimize``. Names are looked
up afresh on every access and never copied into this module, so a
function rebound inside its defining module is what ``ncqm.<name>``
returns.
"""

import importlib

_SOURCES = {
    "params": (
        "EffectiveCoefficients", "Mechanism", "ModelParams",
        "PhysicalConstants", "effective_coefficients", "effective_planck",
        "effective_planck_4d", "k_factor", "nc_strengths", "params_from_dict",
        "params_from_json", "params_to_dict", "params_to_json",
        "rescaled_strengths"),
    "spectra": (
        "FractionalOscSpec", "QuantumNumbers", "SpectrumResult",
        "commutative_spectrum", "ec_free_energy_closed",
        "ec_oscillator_first_order", "ec_quantization_residual",
        "ec_solve_energy", "fractional_oscillator_levels", "sqf_spectrum"),
}
_MODULE_OF = {name: mod for mod, names in _SOURCES.items() for name in names}

__all__ = [name for names in _SOURCES.values() for name in names]

__version__ = "0.1.0"


def __getattr__(name):
    try:
        mod = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{mod}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
