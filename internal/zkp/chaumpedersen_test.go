package zkp

import (
	"io"
	"math/big"
	"testing"

	"groupranking/internal/elgamal"
	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
)

func cpScalar(t *testing.T, g group.Group, rng *fixedbig.DRBG) *big.Int {
	t.Helper()
	k, err := g.RandomScalar(rng)
	if err != nil {
		t.Fatalf("RandomScalar: %v", err)
	}
	return k
}

func TestEqualityProofHonest(t *testing.T) {
	g := testGroup(t)
	rng := fixedbig.NewDRBG("cp-honest")
	x, err := g.RandomScalar(rng)
	if err != nil {
		t.Fatal(err)
	}
	hBase := group.ExpGen(g, cpScalar(t, g, rng))
	st := EqualityStatement{
		Y: group.ExpGen(g, x),
		H: hBase,
		Z: g.Exp(hBase, x),
	}
	tr, err := ProveEquality(g, x, st, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyEquality(g, st, tr) {
		t.Error("honest equality proof rejected")
	}
}

func TestEqualityProofWrongExponent(t *testing.T) {
	g := testGroup(t)
	rng := fixedbig.NewDRBG("cp-wrong")
	x := cpScalar(t, g, rng)
	other := cpScalar(t, g, rng)
	hBase := group.ExpGen(g, cpScalar(t, g, rng))
	// z uses a different exponent than y: the statement is false.
	st := EqualityStatement{
		Y: group.ExpGen(g, x),
		H: hBase,
		Z: g.Exp(hBase, other),
	}
	tr, err := ProveEquality(g, x, st, rng)
	if err != nil {
		t.Fatal(err)
	}
	if VerifyEquality(g, st, tr) {
		t.Error("proof over a false statement accepted")
	}
}

func TestEqualityProofTampered(t *testing.T) {
	g := testGroup(t)
	rng := fixedbig.NewDRBG("cp-tamper")
	x := cpScalar(t, g, rng)
	hBase := group.ExpGen(g, cpScalar(t, g, rng))
	st := EqualityStatement{Y: group.ExpGen(g, x), H: hBase, Z: g.Exp(hBase, x)}
	tr, err := ProveEquality(g, x, st, rng)
	if err != nil {
		t.Fatal(err)
	}
	bad := tr
	bad.Response = new(big.Int).Add(tr.Response, big.NewInt(1))
	if VerifyEquality(g, st, bad) {
		t.Error("tampered response accepted")
	}
	bad = tr
	bad.Challenge = new(big.Int).Add(tr.Challenge, big.NewInt(1))
	if VerifyEquality(g, st, bad) {
		t.Error("tampered challenge accepted")
	}
}

func TestPartialDecryptionProof(t *testing.T) {
	// End-to-end: a chain processor strips its ElGamal layer and proves
	// it used its registered key share.
	g := testGroup(t)
	rng := fixedbig.NewDRBG("cp-partial")
	scheme := elgamal.NewScheme(g)
	k1, err := scheme.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := scheme.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	joint := scheme.JointPublicKey([]group.Element{k1.Y, k2.Y})
	ct, err := scheme.EncryptExp(joint, big.NewInt(0), rng)
	if err != nil {
		t.Fatal(err)
	}

	stripped := scheme.PartialDecrypt(k1.X, ct)
	proof, err := provePartialDecryption(g, k1.X, k1.Y, ct.C1, ct.C, stripped.C, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyPartialDecryption(g, k1.Y, ct.C1, ct.C, stripped.C, proof) {
		t.Error("honest partial decryption rejected")
	}

	// A cheating processor that replaces the ciphertext (e.g. swapping
	// someone's zero for garbage) cannot produce an accepting proof.
	garbage := scheme.PartialDecrypt(k2.X, ct) // wrong share
	forged, err := provePartialDecryption(g, k1.X, k1.Y, ct.C1, ct.C, garbage.C, rng)
	if err != nil {
		t.Fatal(err)
	}
	if VerifyPartialDecryption(g, k1.Y, ct.C1, ct.C, garbage.C, forged) {
		t.Error("forged partial decryption accepted")
	}
	// And a valid proof does not transfer to a different ciphertext.
	other, err := scheme.EncryptExp(joint, big.NewInt(1), rng)
	if err != nil {
		t.Fatal(err)
	}
	otherStripped := scheme.PartialDecrypt(k1.X, other)
	if VerifyPartialDecryption(g, k1.Y, other.C1, other.C, otherStripped.C, proof) {
		t.Error("proof replayed across ciphertexts accepted")
	}
}

func TestPartialDecryptionProofOverEC(t *testing.T) {
	g := group.Secp160r1()
	rng := fixedbig.NewDRBG("cp-ec")
	scheme := elgamal.NewScheme(g)
	kp, err := scheme.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := scheme.EncryptExp(kp.Y, big.NewInt(3), rng)
	if err != nil {
		t.Fatal(err)
	}
	stripped := scheme.PartialDecrypt(kp.X, ct)
	proof, err := provePartialDecryption(g, kp.X, kp.Y, ct.C1, ct.C, stripped.C, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyPartialDecryption(g, kp.Y, ct.C1, ct.C, stripped.C, proof) {
		t.Error("EC partial decryption proof rejected")
	}
}

// provePartialDecryption is ProvePartialDecryptionR with the commit
// randomness and challenge drawn from rng, in ProveEquality's order.
func provePartialDecryption(g group.Group, x *big.Int, y, c1, originalC, strippedC group.Element, rng io.Reader) (EqualityTranscript, error) {
	z := g.Op(originalC, g.Inv(strippedC)) // c1^x
	return ProveEquality(g, x, EqualityStatement{Y: y, H: c1, Z: z}, rng)
}
