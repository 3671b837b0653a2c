// Package blame is the standalone offline verifier for blame
// certificates (transport.BlameCert): it re-runs the violated check
// from the recorded evidence alone, with no access to the protocol run
// that produced the certificate, and confirms or rejects the
// accusation. A party, operator or auditor holding only the serialised
// certificate (e.g. the file rankparty writes to -blame-out) can
// therefore validate an abort without trusting the accuser's protocol
// state.
//
// Trust model: a certificate is evidence, not a signature. Transcripts
// are not authenticated, so Verify confirms "IF the recorded bytes are
// what the accused sent, the accused cheated" — it cannot rule out a
// reporter that fabricated the recorded bytes. See DESIGN.md §3.6.
package blame

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/big"

	"groupranking/internal/group"
	"groupranking/internal/transport"
	"groupranking/internal/wirecodec"
	"groupranking/internal/zkp"
)

// Verify re-runs cert's check against its recorded evidence. It
// returns nil when the evidence confirms the accusation, and a
// descriptive error when the certificate is malformed, names an
// unknown check or group, or — decisively — when the evidence does NOT
// show a violation (the accused behaved correctly on these bytes, so
// the accusation is unsupported).
func Verify(cert *transport.BlameCert) error {
	if cert == nil {
		return fmt.Errorf("blame: nil certificate")
	}
	if cert.Version != transport.BlameCertVersion {
		return fmt.Errorf("blame: certificate version %d, this build verifies %d", cert.Version, transport.BlameCertVersion)
	}
	if cert.Accused < 0 {
		return fmt.Errorf("blame: certificate accuses no party (accused %d)", cert.Accused)
	}
	switch cert.Check {
	case transport.CheckEquivocation:
		return verifyEquivocation(cert)
	case transport.CheckRoundReplay:
		return verifyRoundReplay(cert)
	case transport.CheckMalformed:
		return verifyMalformed(cert)
	case transport.CheckInvalidElement:
		return verifyInvalidElement(cert)
	case transport.CheckKeyProof:
		return verifyKeyProof(cert)
	case transport.CheckPartialDecryption:
		return verifyPartialDecryption(cert)
	case transport.CheckStrippedRandomness:
		return verifyStrippedRandomness(cert)
	case transport.CheckSetAnchor:
		return verifySetAnchor(cert)
	case transport.CheckOwnSetTampered:
		return verifyOwnSetTampered(cert)
	default:
		return fmt.Errorf("blame: unknown check %q", cert.Check)
	}
}

// VerifyJSON decodes a certificate serialised by BlameCert.MarshalJSON
// (the -blame-out format) and verifies it.
func VerifyJSON(data []byte) (*transport.BlameCert, error) {
	cert, err := transport.DecodeBlameCert(data)
	if err != nil {
		return nil, err
	}
	if err := Verify(cert); err != nil {
		return cert, err
	}
	return cert, nil
}

// item fetches one named evidence entry or fails descriptively.
func item(cert *transport.BlameCert, name string) ([]byte, error) {
	data, ok := cert.Item(name)
	if !ok {
		return nil, fmt.Errorf("blame: certificate lacks %q evidence", name)
	}
	return data, nil
}

// certGroup resolves the group the evidence elements are encoded in.
func certGroup(cert *transport.BlameCert) (group.Group, error) {
	if cert.Group == "" {
		return nil, fmt.Errorf("blame: certificate names no group for check %q", cert.Check)
	}
	g, err := group.ByName(cert.Group)
	if err != nil {
		return nil, fmt.Errorf("blame: %w", err)
	}
	return g, nil
}

// element decodes one named evidence entry as a group element,
// enforcing membership (Decode validates).
func element(cert *transport.BlameCert, g group.Group, name string) (group.Element, error) {
	data, err := item(cert, name)
	if err != nil {
		return nil, err
	}
	e, err := g.Decode(data)
	if err != nil {
		return nil, fmt.Errorf("blame: evidence %q does not decode in group %s: %w", name, cert.Group, err)
	}
	return e, nil
}

// scalars decodes one named evidence entry as count scalars of g (at
// least one for count < 0) in their wire form, the data of a run at the
// order's width, each below the order.
func scalars(cert *transport.BlameCert, g group.Group, name string, count int) ([]*big.Int, error) {
	data, err := item(cert, name)
	if err != nil {
		return nil, err
	}
	xs, err := wirecodec.IntsOf(wirecodec.Uints{Width: wirecodec.WidthOf(g.Order()), Data: data}, g.Order(), count)
	if err == nil && len(xs) == 0 {
		err = fmt.Errorf("no scalar")
	}
	if err != nil {
		return nil, fmt.Errorf("blame: undecodable scalar evidence %q: %w", name, err)
	}
	return xs, nil
}

// verifyEquivocation confirms the two recorded digests of the accused
// sender's broadcast actually disagree.
func verifyEquivocation(cert *transport.BlameCert) error {
	local, err := item(cert, "digest-local")
	if err != nil {
		return err
	}
	echoed, err := item(cert, "digest-echoed")
	if err != nil {
		return err
	}
	if len(local) != sha256.Size || len(echoed) != sha256.Size {
		return fmt.Errorf("blame: equivocation digests must be %d bytes, got %d and %d", sha256.Size, len(local), len(echoed))
	}
	if bytes.Equal(local, echoed) {
		return fmt.Errorf("blame: recorded digests agree — no equivocation shown")
	}
	return nil
}

// verifyRoundReplay confirms the recorded round tags disagree.
func verifyRoundReplay(cert *transport.BlameCert) error {
	want, err := item(cert, "round-want")
	if err != nil {
		return err
	}
	got, err := item(cert, "round-got")
	if err != nil {
		return err
	}
	if bytes.Equal(want, got) {
		return fmt.Errorf("blame: recorded round tags agree — no replay shown")
	}
	return nil
}

// verifyMalformed confirms the observed wire shape differs from the
// expected one. This is the weakest check — shape names are the
// reporter's rendering, not raw bytes — but it still rejects
// certificates whose own evidence shows nothing wrong.
func verifyMalformed(cert *transport.BlameCert) error {
	got, err := item(cert, "type-got")
	if err != nil {
		return err
	}
	want, err := item(cert, "type-want")
	if err != nil {
		return err
	}
	if bytes.Equal(got, want) {
		return fmt.Errorf("blame: observed shape equals expected shape — no violation shown")
	}
	return nil
}

// verifyInvalidElement re-runs decode + membership validation on the
// recorded element encoding; the accusation holds iff it is rejected.
func verifyInvalidElement(cert *transport.BlameCert) error {
	g, err := certGroup(cert)
	if err != nil {
		return err
	}
	data, err := item(cert, "element")
	if err != nil {
		return err
	}
	e, err := g.Decode(data)
	if err != nil {
		return nil // does not even decode: confirmed invalid
	}
	if err := group.Validate(g, e); err != nil {
		return nil // decodes but fails membership: confirmed invalid
	}
	return fmt.Errorf("blame: recorded element is a valid member of %s — no violation shown", cert.Group)
}

// verifyKeyProof re-runs the multi-verifier Schnorr verification from
// the recorded statement; the accusation holds iff the proof fails.
func verifyKeyProof(cert *transport.BlameCert) error {
	g, err := certGroup(cert)
	if err != nil {
		return err
	}
	y, err := element(cert, g, "y")
	if err != nil {
		return err
	}
	h, err := element(cert, g, "h")
	if err != nil {
		return err
	}
	challenges, err := scalars(cert, g, "challenges", -1)
	if err != nil {
		return err
	}
	z, err := scalars(cert, g, "z", 1)
	if err != nil {
		return err
	}
	if zkp.Verify(g, y, h, challenges, z[0]) {
		return fmt.Errorf("blame: recorded key-knowledge proof verifies — no violation shown")
	}
	return nil
}

// verifyPartialDecryption re-runs the Chaum–Pedersen verification from
// the recorded strip step; the accusation holds iff the proof fails.
func verifyPartialDecryption(cert *transport.BlameCert) error {
	g, err := certGroup(cert)
	if err != nil {
		return err
	}
	y, err := element(cert, g, "y")
	if err != nil {
		return err
	}
	c1, err := element(cert, g, "c1")
	if err != nil {
		return err
	}
	origC, err := element(cert, g, "orig-c")
	if err != nil {
		return err
	}
	strippedC, err := element(cert, g, "stripped-c")
	if err != nil {
		return err
	}
	commitG, err := element(cert, g, "commit-g")
	if err != nil {
		return err
	}
	commitH, err := element(cert, g, "commit-h")
	if err != nil {
		return err
	}
	cs, err := scalars(cert, g, "challenge", 1)
	if err != nil {
		return err
	}
	rs, err := scalars(cert, g, "response", 1)
	if err != nil {
		return err
	}
	t := zkp.EqualityTranscript{CommitG: commitG, CommitH: commitH, Challenge: cs[0], Response: rs[0]}
	if zkp.VerifyPartialDecryption(g, y, c1, origC, strippedC, t) {
		return fmt.Errorf("blame: recorded partial-decryption proof verifies — no violation shown")
	}
	return nil
}

// verifyStrippedRandomness confirms the recorded before/after
// randomness components actually differ (a strip must leave C1
// untouched).
func verifyStrippedRandomness(cert *transport.BlameCert) error {
	g, err := certGroup(cert)
	if err != nil {
		return err
	}
	in, err := element(cert, g, "orig-c1")
	if err != nil {
		return err
	}
	st, err := element(cert, g, "stripped-c1")
	if err != nil {
		return err
	}
	if g.Equal(in, st) {
		return fmt.Errorf("blame: randomness components agree — no violation shown")
	}
	return nil
}

// verifySetAnchor re-hashes the recorded ciphertext-set bytes and
// confirms they do not match the recorded binding commitment. The set
// evidence is exactly the byte stream the protocol's hashSet digests
// (concatenated fixed-length ciphertext encodings), so no group
// arithmetic is needed.
func verifySetAnchor(cert *transport.BlameCert) error {
	anchor, err := item(cert, "anchor")
	if err != nil {
		return err
	}
	set, err := item(cert, "set")
	if err != nil {
		return err
	}
	if len(anchor) != sha256.Size {
		return fmt.Errorf("blame: anchor must be %d bytes, got %d", sha256.Size, len(anchor))
	}
	sum := sha256.Sum256(set)
	if bytes.Equal(sum[:], anchor) {
		return fmt.Errorf("blame: recorded set hashes to its anchor — no violation shown")
	}
	return nil
}

// verifyOwnSetTampered confirms the recorded pass-through set differs
// from the recorded input set (hops must forward their own set
// byte-identical).
func verifyOwnSetTampered(cert *transport.BlameCert) error {
	in, err := item(cert, "input-set")
	if err != nil {
		return err
	}
	passed, err := item(cert, "passed-set")
	if err != nil {
		return err
	}
	if bytes.Equal(in, passed) {
		return fmt.Errorf("blame: input and pass-through sets are identical — no violation shown")
	}
	return nil
}
