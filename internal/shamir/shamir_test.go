package shamir

import (
	"crypto/rand"
	"io"
	"math/big"
	"testing"
	"testing/quick"

	"groupranking/internal/field"
	"groupranking/internal/fixedbig"
)

func testPrimeField(t *testing.T) *Field {
	t.Helper()
	p, err := rand.Prime(fixedbig.NewDRBG("shamir-prime"), 96)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewField(p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// split shares secret (reduced mod p) with a degree-d Scheme among n
// parties.
func split(t *testing.T, f *Field, secret *big.Int, degree, n int, rng io.Reader) []field.Elem {
	t.Helper()
	s, err := NewScheme(f, degree, n)
	if err != nil {
		t.Fatal(err)
	}
	shares := make([]field.Elem, n)
	sec := f.Reduce(secret)
	if err := s.Split(shares, &sec, rng); err != nil {
		t.Fatal(err)
	}
	return shares
}

// reconstruct interpolates the secret from the shares of the listed
// parties (party j holds x = j+1).
func reconstruct(t *testing.T, f *Field, shares []field.Elem, parties ...int) *big.Int {
	t.Helper()
	xs := make([]int, len(parties))
	for i, j := range parties {
		xs[i] = j + 1
	}
	lambdas, err := f.lagrangeAtZero(xs)
	if err != nil {
		t.Fatal(err)
	}
	var secret field.Elem
	for i, j := range parties {
		var term field.Elem
		f.Mul(&term, &shares[j], &lambdas[i])
		f.Add(&secret, &secret, &term)
	}
	return f.ToBig(&secret)
}

// upTo returns the parties 0..n-1.
func upTo(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestSplitReconstruct(t *testing.T) {
	f := testPrimeField(t)
	rng := fixedbig.NewDRBG("shamir-basic")
	cases := []struct {
		name      string
		secret    int64
		degree, n int
	}{
		{"deg1 n3", 42, 1, 3},
		{"deg2 n5", 7, 2, 5},
		{"deg0 n1", 9, 0, 1},
		{"deg4 n9", 123456, 4, 9},
		{"zero secret", 0, 3, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			secret := big.NewInt(tc.secret)
			shares := split(t, f, secret, tc.degree, tc.n, rng)
			// Reconstruct from exactly degree+1 shares.
			if got := reconstruct(t, f, shares, upTo(tc.degree+1)...); got.Cmp(secret) != 0 {
				t.Errorf("minimal set: got %s, want %s", got, secret)
			}
			// And from all shares, through the Scheme's own coefficients.
			s, err := NewScheme(f, tc.degree, tc.n)
			if err != nil {
				t.Fatal(err)
			}
			var sum field.Elem
			for j := range shares {
				var term field.Elem
				f.Mul(&term, &shares[j], &s.Lambda[j])
				f.Add(&sum, &sum, &term)
			}
			if got := f.ToBig(&sum); got.Cmp(secret) != 0 {
				t.Errorf("full set: got %s, want %s", got, secret)
			}
		})
	}
}

func TestReconstructFromAnySubset(t *testing.T) {
	f := testPrimeField(t)
	secret := big.NewInt(777)
	shares := split(t, f, secret, 2, 6, fixedbig.NewDRBG("shamir-subset"))
	for _, idx := range [][]int{{0, 1, 2}, {3, 4, 5}, {0, 2, 4}, {1, 3, 5}, {0, 1, 2, 3, 4}} {
		if got := reconstruct(t, f, shares, idx...); got.Cmp(secret) != 0 {
			t.Errorf("subset %v: got %s", idx, got)
		}
	}
}

func TestTooFewSharesRevealNothing(t *testing.T) {
	// With degree shares, every candidate secret is equally consistent:
	// reconstructing from d shares plus a forged share at x=n+1 can hit
	// any value. We verify the weaker operational fact that d shares
	// reconstruct to something different from the secret almost surely.
	f := testPrimeField(t)
	rng := fixedbig.NewDRBG("shamir-hiding")
	secret := big.NewInt(1234)
	mismatches := 0
	for trial := 0; trial < 20; trial++ {
		shares := split(t, f, secret, 3, 7, rng)
		if reconstruct(t, f, shares, 0, 1, 2).Cmp(secret) != 0 {
			mismatches++
		}
	}
	if mismatches == 0 {
		t.Error("degree shares reconstructed the secret every time; hiding is broken")
	}
}

func TestLinearity(t *testing.T) {
	// Share-wise field operations act on the secrets: (a + b)·k + 3
	// computed on every share reconstructs to the same of the secrets.
	f := testPrimeField(t)
	rng := fixedbig.NewDRBG("shamir-linear")
	three := f.Reduce(big.NewInt(3))
	check := func(a, b int32, k uint8) bool {
		sa := split(t, f, big.NewInt(int64(a)), 2, 5, rng)
		sb := split(t, f, big.NewInt(int64(b)), 2, 5, rng)
		scale := f.Reduce(big.NewInt(int64(k)))
		sum := make([]field.Elem, 5)
		for i := range sum {
			f.Add(&sum[i], &sa[i], &sb[i])
			f.Mul(&sum[i], &sum[i], &scale)
			f.Add(&sum[i], &sum[i], &three)
		}
		want := new(big.Int).SetInt64((int64(a) + int64(b)) * int64(k))
		want.Add(want, big.NewInt(3))
		want.Mod(want, f.P())
		return reconstruct(t, f, sum, upTo(5)...).Cmp(want) == 0
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestProductOfSharesHasDoubledDegree(t *testing.T) {
	// Pointwise share products reconstruct the product when 2d+1 shares
	// are used, and generally fail with only d+1 — the fact that forces
	// the degree-reduction step of the multiplication protocol.
	f := testPrimeField(t)
	rng := fixedbig.NewDRBG("shamir-product")
	sa := split(t, f, big.NewInt(21), 1, 5, rng)
	sb := split(t, f, big.NewInt(2), 1, 5, rng)
	prod := make([]field.Elem, 5)
	for i := range prod {
		f.Mul(&prod[i], &sa[i], &sb[i])
	}
	if got := reconstruct(t, f, prod, 0, 1, 2); got.Cmp(big.NewInt(42)) != 0 { // 2d+1 = 3 shares suffice
		t.Errorf("2d+1 shares: got %s, want 42", got)
	}
}

func TestSplitErrors(t *testing.T) {
	f := testPrimeField(t)
	if _, err := NewScheme(f, -1, 3); err == nil {
		t.Error("negative degree accepted")
	}
	if _, err := NewScheme(f, 3, 3); err == nil {
		t.Error("n < degree+1 accepted")
	}
}

func TestLagrangeErrors(t *testing.T) {
	f := testPrimeField(t)
	if _, err := f.lagrangeAtZero([]int{1, 1}); err == nil {
		t.Error("duplicate abscissae accepted")
	}
	if _, err := f.lagrangeAtZero([]int{0, 1}); err == nil {
		t.Error("zero abscissa accepted")
	}
}

func TestSecretReducedModP(t *testing.T) {
	f := testPrimeField(t)
	over := new(big.Int).Add(f.P(), big.NewInt(5))
	shares := split(t, f, over, 1, 3, fixedbig.NewDRBG("shamir-mod"))
	if got := reconstruct(t, f, shares, upTo(3)...); got.Cmp(big.NewInt(5)) != 0 {
		t.Errorf("got %s, want 5", got)
	}
}
