"""Walsh spectra of gadgets, exactly.

The inner-product gadget is bent: every coefficient of its (-1)^g transform
has magnitude exactly 2^(-b/2), which is what drives all the fooling bounds.
Coefficients are dyadic rationals, never floats.
"""
from resoplus import ip_gadget, max_fourier, walsh_spectrum
from resoplus.gadget import constant_gadget, parity_gadget

for b in (2, 4, 6, 8):
    peak = max_fourier(ip_gadget(b))
    print(f"IP on {b} bits: max |coeff| = {peak}  (= 2^-{b // 2})")

print()
spec = walsh_spectrum(ip_gadget(4))
print("IP(4) spectrum, first 8 coefficients:")
for mask in range(8):
    print(f"  S={mask:04b}  {spec.coeff(mask)}")
print("Parseval (sum of squares = 1):", spec.parseval_holds())

# Degenerate gadgets for contrast: a constant concentrates on the empty set,
# a parity on its own character.
print()
print("constant-0 gadget coeff(empty):", walsh_spectrum(constant_gadget(3, 0)).coeff(0))
print("parity gadget coeff(full set): ", walsh_spectrum(parity_gadget(3)).coeff(0b111))
