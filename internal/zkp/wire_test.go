package zkp

import (
	"math/big"
	"testing"

	"groupranking/internal/fixedbig"
	"groupranking/internal/group"
	"groupranking/internal/wirecodec"
)

// TestTranscriptScalarsAtOrderWidth: a transcript's two scalars travel
// as one run at the width of its group's order, so its encoding is
// fixed width, and decode refuses them at any other width, at or above
// the order, or one short.
func TestTranscriptScalarsAtOrderWidth(t *testing.T) {
	g := group.Secp160r1()
	q := g.Order()
	rng := fixedbig.NewDRBG("zkp-wire")
	x := cpScalar(t, g, rng)
	h := group.ExpGen(g, cpScalar(t, g, rng))
	tr, err := ProveEquality(g, x, EqualityStatement{Y: group.ExpGen(g, x), H: h, Z: g.Exp(h, x)}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// enc writes the transcript, or with width > 0 its commitments and
	// xs as a run of that width in place of its scalars.
	enc := func(width int, xs ...*big.Int) []byte {
		dst, w := wirecodec.BeginElements(nil)
		if width == 0 {
			if dst, err = AppendTranscript(dst, &w, tr); err != nil {
				t.Fatal(err)
			}
			return dst
		}
		for _, e := range []group.Element{tr.CommitG, tr.CommitH} {
			if dst, err = w.Append(dst, e); err != nil {
				t.Fatal(err)
			}
		}
		if dst, err = wirecodec.AppendInts(dst, width, xs...); err != nil {
			t.Fatal(err)
		}
		return dst
	}
	read := func(data []byte) (EqualityTranscript, error) {
		r := wirecodec.NewReader(data)
		r.Group()
		got := ReadTranscript(r)
		return got, r.Finish()
	}
	good := enc(0)
	if len(good) != 1+2*g.ElementLen()+6+2*wirecodec.WidthOf(q) {
		t.Fatalf("%d-byte transcript payload", len(good))
	}
	if got, err := read(good); err != nil || got.Challenge.Cmp(tr.Challenge) != 0 || got.Response.Cmp(tr.Response) != 0 {
		t.Fatalf("round trip: %v, %v", got, err)
	}
	w := wirecodec.WidthOf(q)
	for name, data := range map[string][]byte{
		"narrow":    enc(w-1, big.NewInt(5), big.NewInt(6)),
		"wide":      enc(w+1, big.NewInt(5), big.NewInt(6)),
		"the order": enc(w, big.NewInt(5), q),
		"one short": enc(w, big.NewInt(5)),
	} {
		if _, err := read(data); err == nil {
			t.Errorf("%s scalars accepted", name)
		}
	}
}
