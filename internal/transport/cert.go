package transport

import (
	"encoding/json"
	"fmt"
)

// BlameCertVersion is the serialised certificate format version.
// Version 2 carries challenge lists and payload digests in wirecodec
// form (version 1 gob-encoded the former and reflection-walked the
// latter); version 3 carries every scalar (challenges, responses) as
// the fixed-width bytes at the group order's width it crosses the wire
// in. An older certificate is refused by version, not by a failed
// recomputation.
const BlameCertVersion = 3

// Check names a verifiable predicate a BlameCert claims the accused
// party violated. The constants live here (they are pure strings) so
// both the protocol layers that issue certificates and the offline
// verifier in internal/blame can share them without an import cycle.
const (
	// CheckEquivocation: two parties received different payloads for the
	// same broadcast — the local digest of the accused sender's payload
	// disagrees with the digest another party echoed back.
	CheckEquivocation = "equivocation"
	// CheckRoundReplay: a message arrived carrying a stale round tag,
	// evidence that the sender replayed (or shifted) its stream.
	CheckRoundReplay = "round-replay"
	// CheckMalformed: a payload failed the receiver's type check. The
	// recorded evidence is the observed and expected wire type names.
	CheckMalformed = "malformed-payload"
	// CheckInvalidElement: a received group element fails decode or
	// curve-membership validation (invalid-curve attack attempt).
	CheckInvalidElement = "invalid-element"
	// CheckKeyProof: the accused party's multi-verifier Schnorr proof of
	// key-share knowledge does not verify against the recorded
	// statement, commitment, challenges and response.
	CheckKeyProof = "key-proof"
	// CheckPartialDecryption: a Chaum–Pedersen transcript fails to prove
	// that the accused chain hop stripped a key layer with its
	// registered share.
	CheckPartialDecryption = "partial-decryption"
	// CheckOwnSetTampered: a chain hop passed through its own τ set
	// modified (hops must forward their own set byte-identical).
	CheckOwnSetTampered = "own-set-tampered"
	// CheckSetAnchor: a τ set does not hash to the anchor its owner
	// broadcast before the chain started.
	CheckSetAnchor = "set-anchor"
	// CheckStrippedRandomness: a chain hop altered a ciphertext's
	// randomness component during its strip step (C1 must pass through a
	// partial decryption unchanged; the strip proofs only bind C).
	CheckStrippedRandomness = "stripped-randomness"
)

// BlameItem is one named piece of certificate evidence: an encoded
// group element, ciphertext sequence, digest, scalar or wire-type name.
// Data marshals as base64 under encoding/json.
type BlameItem struct {
	Name string `json:"name"`
	Data []byte `json:"data"`
}

// BlameCert is the serialisable evidence attached to an AbortError when
// a protocol check fails in a way that identifies a cheating party. It
// captures the failed check, the offending wire material and the proof
// transcript or digest pair, so a third party — the offline verifier in
// internal/blame, or a future coordinator — can re-run the check and
// confirm the accusation without trusting the accuser's protocol state.
//
// The certificate is deliberately a pure data type with no crypto
// dependencies: transport issues the transport-level certificates
// (equivocation, round replay) and the protocol layers attach theirs,
// while verification lives in internal/blame, which may import the
// whole crypto stack.
//
// Scope: a certificate is evidence, not a signature. Without authenticated
// transcripts the accuser could fabricate the recorded wire material, so a
// confirmed certificate means "IF these bytes are what the accused sent,
// the accused cheated" — see DESIGN.md §3.6 for the trust model.
type BlameCert struct {
	Version int `json:"version"`
	// Accused is the party the evidence incriminates.
	Accused int `json:"accused"`
	// Reporter is the party that detected the violation and issued the
	// certificate.
	Reporter int `json:"reporter"`
	// Phase and Round locate the violation in the protocol.
	Phase string `json:"phase,omitempty"`
	Round int    `json:"round"`
	// Check names the violated predicate (one of the Check* constants).
	Check string `json:"check"`
	// Detail is the human-readable description of the violation.
	Detail string `json:"detail,omitempty"`
	// Group names the algebraic group evidence elements are encoded in
	// (empty for checks that need no group arithmetic).
	Group string `json:"group,omitempty"`
	// Items is the evidence the verifier re-runs the check over.
	Items []BlameItem `json:"items,omitempty"`
}

// Item returns the named evidence entry.
func (c *BlameCert) Item(name string) ([]byte, bool) {
	for _, it := range c.Items {
		if it.Name == name {
			return it.Data, true
		}
	}
	return nil, false
}

// String summarises the certificate for logs.
func (c *BlameCert) String() string {
	return fmt.Sprintf("blame cert v%d: party %d accused by party %d of %s (round %d): %s",
		c.Version, c.Accused, c.Reporter, c.Check, c.Round, c.Detail)
}

// MarshalJSON is the canonical serialisation written by -blame-out.
// (BlameCert marshals with the standard library; this method exists so
// the format is an explicit API, not an accident of field tags.)
func (c *BlameCert) MarshalJSON() ([]byte, error) {
	type alias BlameCert // drop the method set to avoid recursion
	return json.Marshal((*alias)(c))
}

// DecodeBlameCert parses a certificate serialised by MarshalJSON and
// rejects versions this build does not understand.
func DecodeBlameCert(data []byte) (*BlameCert, error) {
	var c BlameCert
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("transport: undecodable blame cert: %w", err)
	}
	if c.Version != BlameCertVersion {
		return nil, fmt.Errorf("transport: blame cert version %d, this build verifies %d", c.Version, BlameCertVersion)
	}
	return &c, nil
}

// CertOf extracts the blame certificate carried by err's AbortError
// chain, or nil when the abort carries no machine-verifiable evidence
// (timeouts, crashes and cancellations identify no cheater).
func CertOf(err error) *BlameCert {
	if ae, ok := isAbort(err); ok {
		return ae.Cert
	}
	return nil
}
