package shamir

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"

	"groupranking/internal/fixedbig"
)

func testPrime(t *testing.T) *big.Int {
	t.Helper()
	p, err := rand.Prime(fixedbig.NewDRBG("shamir-prime"), 96)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSplitReconstruct(t *testing.T) {
	p := testPrime(t)
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
			shares, err := Split(secret, tc.degree, tc.n, p, rng)
			if err != nil {
				t.Fatal(err)
			}
			if len(shares) != tc.n {
				t.Fatalf("got %d shares", len(shares))
			}
			// Reconstruct from exactly degree+1 shares.
			got, err := Reconstruct(shares[:tc.degree+1], p)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(secret) != 0 {
				t.Errorf("minimal set: got %s, want %s", got, secret)
			}
			// And from all shares.
			got, err = Reconstruct(shares, p)
			if err != nil {
				t.Fatal(err)
			}
			if got.Cmp(secret) != 0 {
				t.Errorf("full set: got %s, want %s", got, secret)
			}
		})
	}
}

func TestReconstructFromAnySubset(t *testing.T) {
	p := testPrime(t)
	rng := fixedbig.NewDRBG("shamir-subset")
	secret := big.NewInt(777)
	shares, err := Split(secret, 2, 6, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	subsets := [][]int{{0, 1, 2}, {3, 4, 5}, {0, 2, 4}, {1, 3, 5}, {0, 1, 2, 3, 4}}
	for _, idx := range subsets {
		sub := make([]Share, len(idx))
		for i, j := range idx {
			sub[i] = shares[j]
		}
		got, err := Reconstruct(sub, p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(secret) != 0 {
			t.Errorf("subset %v: got %s", idx, got)
		}
	}
}

func TestTooFewSharesRevealNothing(t *testing.T) {
	// With degree shares, every candidate secret is equally consistent:
	// reconstructing from d shares plus a forged share at x=n+1 can hit
	// any value. We verify the weaker operational fact that d shares
	// reconstruct to something different from the secret almost surely.
	p := testPrime(t)
	rng := fixedbig.NewDRBG("shamir-hiding")
	secret := big.NewInt(1234)
	mismatches := 0
	for trial := 0; trial < 20; trial++ {
		shares, err := Split(secret, 3, 7, p, rng)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Reconstruct(shares[:3], p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(secret) != 0 {
			mismatches++
		}
	}
	if mismatches == 0 {
		t.Error("degree shares reconstructed the secret every time; hiding is broken")
	}
}

func TestLinearity(t *testing.T) {
	p := testPrime(t)
	rng := fixedbig.NewDRBG("shamir-linear")
	f := func(a, b int32, k uint8) bool {
		sa, err := Split(big.NewInt(int64(a)), 2, 5, p, rng)
		if err != nil {
			return false
		}
		sb, err := Split(big.NewInt(int64(b)), 2, 5, p, rng)
		if err != nil {
			return false
		}
		sum := make([]Share, 5)
		for i := range sum {
			s, err := AddShares(sa[i], sb[i], p)
			if err != nil {
				return false
			}
			if s, err = ScaleShare(s, big.NewInt(int64(k)), p); err != nil {
				return false
			}
			if sum[i], err = AddConst(s, big.NewInt(3), p); err != nil {
				return false
			}
		}
		got, err := Reconstruct(sum, p)
		if err != nil {
			return false
		}
		want := new(big.Int).SetInt64((int64(a) + int64(b)) * int64(k))
		want.Add(want, big.NewInt(3))
		want.Mod(want, p)
		return got.Cmp(want) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestProductOfSharesHasDoubledDegree(t *testing.T) {
	// Pointwise share products reconstruct the product when 2d+1 shares
	// are used, and generally fail with only d+1 — the fact that forces
	// the degree-reduction step of the multiplication protocol.
	p := testPrime(t)
	rng := fixedbig.NewDRBG("shamir-product")
	a, b := big.NewInt(21), big.NewInt(2)
	sa, err := Split(a, 1, 5, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Split(b, 1, 5, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	prod := make([]Share, 5)
	for i := range prod {
		y := new(big.Int).Mul(sa[i].Y, sb[i].Y)
		prod[i] = Share{X: sa[i].X, Y: y.Mod(y, p)}
	}
	got, err := Reconstruct(prod[:3], p) // 2d+1 = 3 shares suffice
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(42)) != 0 {
		t.Errorf("2d+1 shares: got %s, want 42", got)
	}
}

func TestSplitErrors(t *testing.T) {
	p := testPrime(t)
	rng := fixedbig.NewDRBG("shamir-errors")
	if _, err := Split(big.NewInt(1), -1, 3, p, rng); err == nil {
		t.Error("negative degree accepted")
	}
	if _, err := Split(big.NewInt(1), 3, 3, p, rng); err == nil {
		t.Error("n < degree+1 accepted")
	}
}

func TestLagrangeErrors(t *testing.T) {
	p := testPrime(t)
	if _, err := LagrangeAtZero([]int{1, 1}, p); err == nil {
		t.Error("duplicate abscissae accepted")
	}
	if _, err := LagrangeAtZero([]int{0, 1}, p); err == nil {
		t.Error("zero abscissa accepted")
	}
}

func TestAddSharesMismatchedAbscissae(t *testing.T) {
	p := testPrime(t)
	_, err := AddShares(Share{X: 1, Y: big.NewInt(1)}, Share{X: 2, Y: big.NewInt(1)}, p)
	if err == nil {
		t.Error("mismatched abscissae accepted")
	}
}

func TestSecretReducedModP(t *testing.T) {
	p := testPrime(t)
	rng := fixedbig.NewDRBG("shamir-mod")
	over := new(big.Int).Add(p, big.NewInt(5))
	shares, err := Split(over, 1, 3, p, rng)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Reconstruct(shares, p)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(big.NewInt(5)) != 0 {
		t.Errorf("got %s, want 5", got)
	}
}
