"""Walsh spectra of gadgets, exactly.

The inner-product gadget is bent: every coefficient of its (-1)^g transform
has magnitude exactly 2^(-b/2), which is what drives all the fooling bounds.
Coefficients are dyadic rationals, never floats.
"""
from fractions import Fraction

from resoplus import Gadget, ip_gadget, max_fourier, walsh_spectrum
from resoplus.gadget import parity_gadget
from resoplus.oracles import parseval_holds


def coeff(spec, mask):
    return Fraction(spec.numerators[mask], spec.denominator)


for b in (2, 4, 6, 8):
    peak = max_fourier(ip_gadget(b))
    print(f"IP on {b} bits: max |coeff| = {peak}  (= 2^-{b // 2})")

print()
spec = walsh_spectrum(ip_gadget(4))
print("IP(4) spectrum, first 8 coefficients:")
for mask in range(8):
    print(f"  S={mask:04b}  {coeff(spec, mask)}")
print("Parseval (sum of squares = 1):", parseval_holds(spec))

# Degenerate gadgets for contrast: a constant concentrates on the empty set,
# a parity on its own character.
print()
print("constant-0 gadget coeff(empty):", coeff(walsh_spectrum(Gadget(3, (0,) * 8)), 0))
print("parity gadget coeff(full set): ", coeff(walsh_spectrum(parity_gadget(3)), 0b111))
