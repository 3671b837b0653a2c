package transport

import (
	"crypto/sha256"
	"fmt"

	"groupranking/internal/wirecodec"
)

// PayloadDigest is the canonical broadcast-payload digest the echo
// sub-round exchanges: SHA-256 of the payload's wirecodec frame. The
// frame is canonical (fixed-width fields, one value one encoding),
// self-describing (the type ID is in the header) and depends on the
// value alone, never on process state — and it is the exact byte
// string the transport puts on the wire, so "digest matches" and
// "frame matches" are the same statement. A payload without a
// registered codec has no frame and therefore no digest.
func PayloadDigest(payload any) ([]byte, error) {
	frame, err := wirecodec.Marshal(payload)
	if err != nil {
		return nil, fmt.Errorf("transport: echo digest: %w", err)
	}
	sum := sha256.Sum256(frame)
	return sum[:], nil
}
