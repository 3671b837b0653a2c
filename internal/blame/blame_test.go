package blame

import (
	"crypto/sha256"
	"math/big"
	"strings"
	"testing"

	"groupranking/internal/elgamal"
	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/transport"
	"groupranking/internal/wirecodec"
	"groupranking/internal/zkp"
)

const testGroup = "toy-dl-256"

func mustGroup(t *testing.T) group.Group {
	t.Helper()
	g, err := group.ByName(testGroup)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func cert(check, groupName string, items ...transport.BlameItem) *transport.BlameCert {
	return &transport.BlameCert{
		Version: transport.BlameCertVersion,
		Accused: 2, Reporter: 0, Round: 7, Check: check,
		Group: groupName, Items: items,
	}
}

func TestVerifyRejectsNilAndUnknown(t *testing.T) {
	if err := Verify(nil); err == nil {
		t.Fatal("nil certificate verified")
	}
	if err := Verify(cert("no-such-check", "")); err == nil {
		t.Fatal("unknown check verified")
	}
	bad := cert(transport.CheckEquivocation, "")
	bad.Version = 99
	if err := Verify(bad); err == nil {
		t.Fatal("wrong version verified")
	}
	anon := cert(transport.CheckEquivocation, "")
	anon.Accused = -1
	if err := Verify(anon); err == nil {
		t.Fatal("certificate accusing nobody verified")
	}
}

func TestVerifyEquivocation(t *testing.T) {
	a := sha256.Sum256([]byte("payload-to-party-1"))
	b := sha256.Sum256([]byte("payload-to-party-2"))
	ok := cert(transport.CheckEquivocation, "",
		transport.BlameItem{Name: "digest-local", Data: a[:]},
		transport.BlameItem{Name: "digest-echoed", Data: b[:]})
	if err := Verify(ok); err != nil {
		t.Fatalf("conflicting digests rejected: %v", err)
	}
	same := cert(transport.CheckEquivocation, "",
		transport.BlameItem{Name: "digest-local", Data: a[:]},
		transport.BlameItem{Name: "digest-echoed", Data: a[:]})
	if err := Verify(same); err == nil {
		t.Fatal("agreeing digests confirmed an equivocation")
	}
	short := cert(transport.CheckEquivocation, "",
		transport.BlameItem{Name: "digest-local", Data: a[:8]},
		transport.BlameItem{Name: "digest-echoed", Data: b[:]})
	if err := Verify(short); err == nil {
		t.Fatal("truncated digest verified")
	}
}

func TestVerifyRoundReplayAndMalformed(t *testing.T) {
	replay := cert(transport.CheckRoundReplay, "",
		transport.BlameItem{Name: "round-want", Data: []byte("7")},
		transport.BlameItem{Name: "round-got", Data: []byte("3")})
	if err := Verify(replay); err != nil {
		t.Fatalf("round replay rejected: %v", err)
	}
	replay.Items[1].Data = []byte("7")
	if err := Verify(replay); err == nil {
		t.Fatal("matching rounds confirmed a replay")
	}
	mal := cert(transport.CheckMalformed, "",
		transport.BlameItem{Name: "type-got", Data: []byte("string")},
		transport.BlameItem{Name: "type-want", Data: []byte("group element")})
	if err := Verify(mal); err != nil {
		t.Fatalf("malformed payload rejected: %v", err)
	}
	mal.Items[0].Data = []byte("group element")
	if err := Verify(mal); err == nil {
		t.Fatal("matching shapes confirmed a malformed payload")
	}
}

func TestVerifyInvalidElement(t *testing.T) {
	g := mustGroup(t)
	garbage := cert(transport.CheckInvalidElement, testGroup,
		transport.BlameItem{Name: "element", Data: []byte("not an element")})
	if err := Verify(garbage); err != nil {
		t.Fatalf("undecodable element evidence rejected: %v", err)
	}
	valid := cert(transport.CheckInvalidElement, testGroup,
		transport.BlameItem{Name: "element", Data: g.AppendElement(nil, g.Generator())})
	if err := Verify(valid); err == nil {
		t.Fatal("a valid group element confirmed an invalid-element accusation")
	}
	noGroup := cert(transport.CheckInvalidElement, "",
		transport.BlameItem{Name: "element", Data: []byte("x")})
	if err := Verify(noGroup); err == nil || !strings.Contains(err.Error(), "group") {
		t.Fatalf("missing group name not reported: %v", err)
	}
}

// keyProofCert builds a key-proof certificate from a genuine Schnorr
// run, with the response optionally perturbed the way the ByzBadKeyProof
// deviation does.
func keyProofCert(t *testing.T, g group.Group, perturb bool) *transport.BlameCert {
	t.Helper()
	rng := fixedbig.NewDRBG("blame-keyproof")
	x, err := g.RandomScalar(rng)
	if err != nil {
		t.Fatal(err)
	}
	y := group.ExpGen(g, x)
	prover := zkp.NewProver(g, x)
	h, err := prover.Commit(rng)
	if err != nil {
		t.Fatal(err)
	}
	challenges := make([]*big.Int, 2)
	for i := range challenges {
		if challenges[i], err = zkp.NewChallenge(g, rng); err != nil {
			t.Fatal(err)
		}
	}
	z, err := prover.Respond(challenges)
	if err != nil {
		t.Fatal(err)
	}
	if perturb {
		z = new(big.Int).Add(z, big.NewInt(1))
	}
	return cert(transport.CheckKeyProof, testGroup,
		transport.BlameItem{Name: "y", Data: g.AppendElement(nil, y)},
		transport.BlameItem{Name: "h", Data: g.AppendElement(nil, h)},
		transport.BlameItem{Name: "challenges", Data: encodeScalars(t, g, challenges...)},
		transport.BlameItem{Name: "z", Data: encodeScalars(t, g, z)})
}

func TestVerifyKeyProof(t *testing.T) {
	g := mustGroup(t)
	if err := Verify(keyProofCert(t, g, true)); err != nil {
		t.Fatalf("failing key proof rejected: %v", err)
	}
	if err := Verify(keyProofCert(t, g, false)); err == nil {
		t.Fatal("a correct key proof confirmed the accusation")
	}
	// Scalar evidence is fixed width: a response one byte short of the
	// order's width, or no challenge at all, is undecodable evidence,
	// not a failed proof.
	short := keyProofCert(t, g, true)
	short.Items[3].Data = short.Items[3].Data[1:]
	if err := Verify(short); err == nil || !strings.Contains(err.Error(), "scalar") {
		t.Fatalf("a response narrower than the order's width: %v", err)
	}
	none := keyProofCert(t, g, true)
	none.Items[2].Data = nil
	if err := Verify(none); err == nil || !strings.Contains(err.Error(), "scalar") {
		t.Fatalf("a certificate with no challenge: %v", err)
	}
}

func TestVerifyPartialDecryption(t *testing.T) {
	g := mustGroup(t)
	rng := fixedbig.NewDRBG("blame-pd")
	scheme := elgamal.NewScheme(g)
	key, err := scheme.GenerateKey(rng)
	if err != nil {
		t.Fatal(err)
	}
	ct, err := scheme.EncryptExp(key.Y, big.NewInt(1), rng)
	if err != nil {
		t.Fatal(err)
	}
	build := func(x *big.Int, yClaim group.Element) *transport.BlameCert {
		st := scheme.PartialDecrypt(x, ct)
		r, err := g.RandomScalar(rng)
		if err != nil {
			t.Fatal(err)
		}
		c, err := zkp.NewChallenge(g, rng)
		if err != nil {
			t.Fatal(err)
		}
		// The transcript is honest for x; the certificate binds it to the
		// claimed registered share yClaim.
		tr := zkp.ProvePartialDecryptionR(g, x, group.ExpGen(g, x), ct.C1, ct.C, st.C, r, c)
		return cert(transport.CheckPartialDecryption, testGroup,
			transport.BlameItem{Name: "y", Data: g.AppendElement(nil, yClaim)},
			transport.BlameItem{Name: "c1", Data: g.AppendElement(nil, ct.C1)},
			transport.BlameItem{Name: "orig-c", Data: g.AppendElement(nil, ct.C)},
			transport.BlameItem{Name: "stripped-c", Data: g.AppendElement(nil, st.C)},
			transport.BlameItem{Name: "commit-g", Data: g.AppendElement(nil, tr.CommitG)},
			transport.BlameItem{Name: "commit-h", Data: g.AppendElement(nil, tr.CommitH)},
			transport.BlameItem{Name: "challenge", Data: encodeScalars(t, g, tr.Challenge)},
			transport.BlameItem{Name: "response", Data: encodeScalars(t, g, tr.Response)})
	}
	// A strip with the wrong key, claimed against the registered share:
	// the proof fails, confirming the accusation.
	wrongX := new(big.Int).Add(key.X, big.NewInt(1))
	if err := Verify(build(wrongX, key.Y)); err != nil {
		t.Fatalf("wrong-key strip rejected: %v", err)
	}
	// An honest strip with the registered key: the proof verifies, so the
	// accusation is unsupported.
	if err := Verify(build(key.X, key.Y)); err == nil {
		t.Fatal("an honest strip confirmed the accusation")
	}
}

func TestVerifyStrippedRandomness(t *testing.T) {
	g := mustGroup(t)
	a := g.Generator()
	b := g.Exp(a, big.NewInt(2))
	diff := cert(transport.CheckStrippedRandomness, testGroup,
		transport.BlameItem{Name: "orig-c1", Data: g.AppendElement(nil, a)},
		transport.BlameItem{Name: "stripped-c1", Data: g.AppendElement(nil, b)})
	if err := Verify(diff); err != nil {
		t.Fatalf("altered randomness rejected: %v", err)
	}
	same := cert(transport.CheckStrippedRandomness, testGroup,
		transport.BlameItem{Name: "orig-c1", Data: g.AppendElement(nil, a)},
		transport.BlameItem{Name: "stripped-c1", Data: g.AppendElement(nil, a)})
	if err := Verify(same); err == nil {
		t.Fatal("identical randomness confirmed the accusation")
	}
}

func TestVerifySetAnchorAndOwnSet(t *testing.T) {
	set := []byte("ciphertext-bytes-ciphertext-bytes")
	right := sha256.Sum256(set)
	wrong := sha256.Sum256([]byte("some other set"))
	bad := cert(transport.CheckSetAnchor, "",
		transport.BlameItem{Name: "anchor", Data: wrong[:]},
		transport.BlameItem{Name: "set", Data: set})
	if err := Verify(bad); err != nil {
		t.Fatalf("anchor mismatch rejected: %v", err)
	}
	good := cert(transport.CheckSetAnchor, "",
		transport.BlameItem{Name: "anchor", Data: right[:]},
		transport.BlameItem{Name: "set", Data: set})
	if err := Verify(good); err == nil {
		t.Fatal("a set matching its anchor confirmed the accusation")
	}
	tampered := cert(transport.CheckOwnSetTampered, "",
		transport.BlameItem{Name: "input-set", Data: set},
		transport.BlameItem{Name: "passed-set", Data: []byte("tampered")})
	if err := Verify(tampered); err != nil {
		t.Fatalf("own-set tampering rejected: %v", err)
	}
	tampered.Items[1].Data = set
	if err := Verify(tampered); err == nil {
		t.Fatal("identical pass-through confirmed the accusation")
	}
}

// encodeScalars mirrors the protocol's scalar evidence: each scalar at
// the group order's width, concatenated.
func encodeScalars(t *testing.T, g group.Group, xs ...*big.Int) []byte {
	t.Helper()
	u, err := wirecodec.UintsOf(wirecodec.WidthOf(g.Order()), xs)
	if err != nil {
		t.Fatal(err)
	}
	return u.Data
}

func TestVerifyJSONRoundTrip(t *testing.T) {
	g := mustGroup(t)
	orig := keyProofCert(t, g, true)
	data, err := orig.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := VerifyJSON(data)
	if err != nil {
		t.Fatalf("serialised certificate failed verification: %v", err)
	}
	if back.Accused != orig.Accused || back.Check != orig.Check {
		t.Fatalf("round trip lost identity: %+v", back)
	}
	if _, err := VerifyJSON([]byte("{")); err == nil {
		t.Fatal("garbage JSON verified")
	}
}
