"""Physical constants shared across the toolkit."""

EARTH_RADIUS_KM = 6371.0
GM_EARTH_KM3_S2 = 398600.4418
# Sidereal rotation rate of the Earth [rad/s].
EARTH_ROTATION_RAD_S = 7.2921150e-5

# Default vertical extent of the atmosphere for inter-satellite
# line-of-sight clearance (Karman line) [km].
ATM_SHELL_KM = 100.0

# Baseline orbit altitude [km] and ground-station zenith cutoff [deg].
ORBIT_ALTITUDE_KM = 500.0
ZENITH_CUTOFF_DEG = 70.0

SECONDS_PER_DAY = 86400.0
