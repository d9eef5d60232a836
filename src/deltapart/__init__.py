"""Discretized Schrodinger operators with delta / delta-prime interactions
on the boundaries of polygonal partitions of a truncated plane.

The modules follow the pipeline geometry -> mesh -> forms -> eigen, with
closedform holding every analytic constant, experiments the named
verification runs, and cli the command-line front end.  Importing the
package loads none of them; callers import the module they use.
"""

__version__ = "0.1.0"
