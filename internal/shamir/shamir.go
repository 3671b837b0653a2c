// Package shamir implements Shamir secret sharing over a prime field,
// the substrate of the paper's secret-sharing baseline (Section II). A
// secret is embedded as the constant term of a uniformly random degree-d
// polynomial; any d+1 shares reconstruct it by Lagrange interpolation and
// any d shares are information-theoretically independent of it.
//
// Share x-coordinates are the party indices shifted by one (party i holds
// the evaluation at x = i+1), the convention the ssmpc engine relies on.
//
// All arithmetic runs on the package's one limb field (field.go). The
// ssmpc engine shares and recombines Elem values through a Scheme.
package shamir

import (
	"fmt"
	"io"
	"math/big"
)

// Scheme is a degree-d sharing among n parties at abscissae 1..n over
// one field, with everything a dealer or a recombiner needs converted
// once. Split reuses a scratch buffer, so a Scheme serves one goroutine
// (one party's engine) at a time.
type Scheme struct {
	// Lambda holds the Lagrange coefficients at zero for abscissae
	// 1..n: f(0) = Σ Lambda[j]·f(j+1) for any polynomial of degree < n.
	Lambda []Elem

	f      *Field
	xs     []Elem   // abscissae 1..n in Montgomery form
	coeffs []Elem   // the polynomial Split is evaluating, degree+1 long
	draw   [32]byte // Rand's read buffer
}

// NewScheme prepares degree-d sharing among n parties over f.
func NewScheme(f *Field, degree, n int) (*Scheme, error) {
	if degree < 0 {
		return nil, fmt.Errorf("shamir: negative degree %d", degree)
	}
	if n < degree+1 {
		return nil, fmt.Errorf("shamir: %d parties cannot carry a degree-%d sharing", n, degree)
	}
	s := &Scheme{f: f, xs: make([]Elem, n), coeffs: make([]Elem, degree+1)}
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i + 1
		s.xs[i] = f.Reduce(big.NewInt(int64(i + 1)))
	}
	var err error
	if s.Lambda, err = f.lagrangeAtZero(xs); err != nil {
		return nil, err
	}
	return s, nil
}

// Rand is Field.Rand — same draws, same stream position — through the
// scheme's own read buffer, so a draw allocates nothing.
func (s *Scheme) Rand(rng io.Reader) (Elem, error) { return s.f.rand(rng, &s.draw) }

// Split shares secret with a uniformly random degree-d polynomial:
// out[j] is party j's share, the polynomial at x = j+1. The d
// coefficients are drawn from rng in ascending order, each with Rand;
// evaluation is Horner's rule against the abscissa table.
func (s *Scheme) Split(out []Elem, secret *Elem, rng io.Reader) error {
	d := len(s.coeffs) - 1
	s.coeffs[0] = *secret
	for i := 1; i <= d; i++ {
		c, err := s.Rand(rng)
		if err != nil {
			return fmt.Errorf("shamir: sampling coefficient: %w", err)
		}
		s.coeffs[i] = c
	}
	for j := range s.xs {
		acc := s.coeffs[d]
		for i := d - 1; i >= 0; i-- {
			s.f.Mul(&acc, &acc, &s.xs[j])
			s.f.Add(&acc, &acc, &s.coeffs[i])
		}
		out[j] = acc
	}
	return nil
}

// lagrangeAtZero returns the interpolation coefficients λ_i such that
// f(0) = Σ λ_i·f(x_i) for any polynomial of degree < len(xs).
func (f *Field) lagrangeAtZero(xs []int) ([]Elem, error) {
	seen := make(map[int]bool, len(xs))
	for _, x := range xs {
		if x <= 0 {
			return nil, fmt.Errorf("shamir: abscissa %d must be positive", x)
		}
		if seen[x] {
			return nil, fmt.Errorf("shamir: duplicate abscissa %d", x)
		}
		seen[x] = true
	}
	lambdas := make([]Elem, len(xs))
	dens := make([]Elem, len(xs))
	for i, xi := range xs {
		num, den := f.one, f.one
		for j, xj := range xs {
			if j == i {
				continue
			}
			t := f.Reduce(big.NewInt(int64(-xj)))
			f.Mul(&num, &num, &t)
			t = f.Reduce(big.NewInt(int64(xi - xj)))
			f.Mul(&den, &den, &t)
		}
		if den.IsZero() {
			return nil, fmt.Errorf("shamir: abscissae collide modulo p")
		}
		lambdas[i], dens[i] = num, den
	}
	f.InvBatch(dens)
	for i := range lambdas {
		f.Mul(&lambdas[i], &lambdas[i], &dens[i])
	}
	return lambdas, nil
}
