"""Casimir pressure between planar slabs driven by reflection amplitudes."""

from .constants import C_LIGHT, HBAR
from .dielectric import (
    Constant,
    DielectricModel,
    Drude,
    DrudeLorentz,
    OpticalTable,
    Plasma,
    Tabulated,
    Vacuum,
    load_optical_table,
)
from .errors import (
    CasimirError,
    ConfigError,
    ConvergenceError,
    DivergenceError,
    FrequencyDomainError,
    OpticalTableError,
    PassivityError,
    ResonanceError,
    SingularKinematicsError,
)
from .force import (
    ForceResult,
    force_imag_axis,
    force_imag_axis_many,
    force_real_axis,
    ideal_casimir_pressure,
    lifshitz_force,
    lifshitz_force_many,
)
from .quadrature import QuadratureConfig
from .reflection import (
    ConstantReflection,
    FresnelReflection,
    ImpedanceReflection,
    LayerStack,
    MultilayerReflection,
    PerfectMirror,
    ReflectionModel,
    WaveKinematics,
    impedance_to_reflection,
    vacuum_impedance,
)
from .spectrum import ModeFunctions, dos, dos_from_greens, green_electric, green_magnetic

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
