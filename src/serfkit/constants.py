"""Physical constants (SI) used across the toolkit, and the model defaults
that the CLI's parser shows without importing the numeric modules.

Values follow the 2019 SI redefinition (k_B exact, ħ exact) and CODATA 2018
for derived quantities.
"""

# Planck constant over 2*pi [J s]
HBAR = 1.054571817e-34

# Boltzmann constant [J/K], exact
K_BOLTZMANN = 1.380649e-23

# Vacuum permeability [N/A^2]
MU0 = 1.25663706212e-6

# Speed of light [m/s], exact
C_LIGHT = 299792458.0

# Unperturbed potassium D1 transition: vacuum wavelength 770.108 nm
K_D1_WAVELENGTH_M = 770.108e-9
K_D1_FREQ_HZ = C_LIGHT / K_D1_WAVELENGTH_M

# Low-polarization spin-exchange defaults for potassium (I = 3/2), used by serf.
DEFAULT_NUCLEAR_SPIN = 1.5
DEFAULT_SLOWING_Q = 6.0
DEFAULT_VBAR_M_S = 500.0
DEFAULT_SIGMA_SE_CM2 = 2e-14

# Welch segment length and overlap fraction, used by noisepsd.
DEFAULT_SEGMENT_LEN = 4096
DEFAULT_OVERLAP = 0.5
