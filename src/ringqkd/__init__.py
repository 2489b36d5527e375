"""Satellite-ring QKD network simulation toolkit.

Modules:
    geometry   - ring constellations, propagation, visibility sessions
    linkbudget - uplink / inter-satellite optical channel efficiencies
    keyrate    - SNS twin-field finite-key secret-key lengths + optimizer
    relay      - redundant XOR key forwarding and GF(2) adversary oracle
    simulator  - daily campaigns and the configs of sweeps over constellation parameters
    cli        - command-line front end
"""

__version__ = "0.1.0"
