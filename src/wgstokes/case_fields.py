"""Fields of the registered manufactured cases, as numpy source.

Generated, not written: each function is the source sympy.lambdify prints
for one field of one case (velocity u, pressure p, body force
f = -Δu + ∇p and Jacobian grad_u), named <case>_<field>.  The primitive
expressions and their derivation live in tests/conftest.py;
tests/test_cases.py derives every field again, checks this text and its
values against it, and prints the module to commit when they differ.
"""

from numpy import cos, pi, sin


def poly_exact_k1_u(x, y):
    return [y, -x]


def poly_exact_k1_p(x, y):
    return 0


def poly_exact_k1_f(x, y):
    return [0, 0]


def poly_exact_k1_grad_u(x, y):
    return [[0, 1], [-1, 0]]


def poly_exact_k2_u(x, y):
    return [x**2 - 2*x*y, -2*x*y + y**2]


def poly_exact_k2_p(x, y):
    return x + y - 1


def poly_exact_k2_f(x, y):
    return [-1, -1]


def poly_exact_k2_grad_u(x, y):
    return [[2*x - 2*y, -2*x], [-2*y, -2*x + 2*y]]


def stream_quartic_u(x, y):
    return [x**2*y**2*(1 - x)**2*(2*y - 2) + 2*x**2*y*(1 - x)**2*(1 - y)**2, -x**2*y**2*(1 - y)**2*(2*x - 2) - 2*x*y**2*(1 - x)**2*(1 - y)**2]


def stream_quartic_p(x, y):
    return x**3 - 1/4


def stream_quartic_f(x, y):
    return [-12*x**2*(x - 1)**2*(2*y - 1) + 3*x**2 - 4*y*(y - 1)*(x**2*y + x**2*(y - 1) + 4*x*y*(x - 1) + 4*x*(x - 1)*(y - 1) + y*(x - 1)**2 + (x - 1)**2*(y - 1)), 4*(x*(x - 1)*(x*y**2 + 4*x*y*(y - 1) + x*(y - 1)**2 + y**2*(x - 1) + 4*y*(x - 1)*(y - 1) + (x - 1)*(y - 1)**2) + 3*y**2*(2*x - 1)*(y - 1)**2)]


def stream_quartic_grad_u(x, y):
    return [[x**2*y**2*(2*x - 2)*(2*y - 2) + 2*x**2*y*(1 - y)**2*(2*x - 2) + 2*x*y**2*(1 - x)**2*(2*y - 2) + 4*x*y*(1 - x)**2*(1 - y)**2, 2*x**2*y**2*(1 - x)**2 + 4*x**2*y*(1 - x)**2*(2*y - 2) + 2*x**2*(1 - x)**2*(1 - y)**2], [-2*x**2*y**2*(1 - y)**2 - 4*x*y**2*(1 - y)**2*(2*x - 2) - 2*y**2*(1 - x)**2*(1 - y)**2, -x**2*y**2*(2*x - 2)*(2*y - 2) - 2*x**2*y*(1 - y)**2*(2*x - 2) - 2*x*y**2*(1 - x)**2*(2*y - 2) - 4*x*y*(1 - x)**2*(1 - y)**2]]


def taylor_trig_u(x, y):
    return [sin(pi*x)*cos(pi*y), -sin(pi*y)*cos(pi*x)]


def taylor_trig_p(x, y):
    return cos(pi*x)*cos(pi*y)


def taylor_trig_f(x, y):
    return [pi*(-1 + 2*pi)*sin(pi*x)*cos(pi*y), -pi*(1 + 2*pi)*sin(pi*y)*cos(pi*x)]


def taylor_trig_grad_u(x, y):
    return [[pi*cos(pi*x)*cos(pi*y), -pi*sin(pi*x)*sin(pi*y)], [pi*sin(pi*x)*sin(pi*y), -pi*cos(pi*x)*cos(pi*y)]]
